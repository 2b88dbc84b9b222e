import random

import pytest

from provar import fplinalg as fl
from provar.errors import NotDiagonalizableError
from tests.oracles import simultaneous_diagonalize_by_restriction


def random_invertible(rng, n, p):
    while True:
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if fl.mat_rank(m, p) == n:
            return m


def conjugated_diagonal(rng, n, p):
    diag_entries = [rng.randrange(1, p) for _ in range(n)]
    d = [[diag_entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    t = random_invertible(rng, n, p)
    m = fl.mat_mul(fl.mat_mul(t, d, p), fl.mat_inv(t, p), p)
    return m, diag_entries


def test_rref_and_inverse():
    p = 7
    m = [[2, 1], [5, 3]]
    inv = fl.mat_inv(m, p)
    assert fl.mat_mul(m, inv, p) == fl.mat_identity(2)
    with pytest.raises(ValueError):
        fl.mat_inv([[1, 2], [2, 4]], p)


def test_kernel_basis_solves():
    p = 5
    m = [[1, 2, 3], [2, 0, 1]]
    basis = fl.kernel_basis(m, p)
    assert len(basis) == 1
    for v in basis:
        assert fl.mat_vec(m, v, p) == [0, 0]
    # rank-1 matrix: two-dimensional kernel
    basis = fl.kernel_basis([[1, 2, 3], [2, 4, 1]], p)
    assert len(basis) == 2


def test_matrix_of_composition_is_product():
    # with column vectors and left action, map composition matches
    # matrix multiplication in the same order; this pins the orientation
    # used when translating automorphisms to matrices
    rng = random.Random(31)
    p = 7
    for _ in range(50):
        a = random_invertible(rng, 3, p)
        b = random_invertible(rng, 3, p)
        v = [rng.randrange(p) for _ in range(3)]
        one_shot = fl.mat_vec(fl.mat_mul(a, b, p), v, p)
        two_step = fl.mat_vec(a, fl.mat_vec(b, v, p), p)
        assert one_shot == two_step


def test_diagonalize_examples():
    p = 7
    pm, eig = fl.diagonalize(fl.mat_identity(2), p)
    assert eig == [1, 1]

    pm, eig = fl.diagonalize([[2, 0], [0, 3]], p)
    assert sorted(eig) == [2, 3]

    # swap matrix over F_3: eigenvalues 1 and 2
    pm, eig = fl.diagonalize([[0, 1], [1, 0]], 3)
    assert sorted(eig) == [1, 2]
    pinv = fl.mat_inv(pm, 3)
    d = fl.mat_mul(fl.mat_mul(pinv, [[0, 1], [1, 0]], 3), pm, 3)
    assert d == [[eig[0], 0], [0, eig[1]]]


def test_diagonalize_rejects_bad_input():
    with pytest.raises(NotDiagonalizableError):
        fl.diagonalize([[1, 1], [0, 1]], 5)  # unipotent, order 5
    with pytest.raises(NotDiagonalizableError):
        fl.diagonalize([[1, 0], [0, 0]], 5)  # singular
    with pytest.raises(ValueError):
        fl.diagonalize([[1, 0], [0, 1]], 6)  # composite modulus


def test_diagonalize_round_trip_many():
    rng = random.Random(202)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randrange(1, 5)
        m, diag_entries = conjugated_diagonal(rng, n, p)
        pm, eig = fl.diagonalize(m, p)
        assert sorted(eig) == sorted(diag_entries)
        pinv = fl.mat_inv(pm, p)
        d = fl.mat_mul(fl.mat_mul(pinv, m, p), pm, p)
        assert d == [[eig[i] if i == j else 0 for j in range(n)] for i in range(n)]


def eigen_scan(m, p):
    """Reference diagonalization: scan the p - 1 candidate eigenvalues in
    ascending order and collect the kernel basis of each m - lambda."""
    m = fl.mat_reduce(m, p)
    fl._check_order_divides(m, p)
    n = len(m)
    columns, eigenvalues = [], []
    for lam in range(1, p):
        shifted = [[(m[i][j] - (lam if i == j else 0)) % p for j in range(n)] for i in range(n)]
        for v in fl.kernel_basis(shifted, p):
            columns.append(v)
            eigenvalues.append(lam)
    return [list(row) for row in zip(*columns)], eigenvalues


def outcome(f, *args):
    try:
        return f(*args)
    except NotDiagonalizableError as exc:
        return str(exc)


def test_diagonalize_is_the_one_matrix_simultaneous_case():
    rng = random.Random(204)
    rejected = 0
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        n = rng.randrange(1, 5)
        if rng.random() < 0.7:
            m = conjugated_diagonal(rng, n, p)[0]
        else:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        result = outcome(fl.diagonalize, m, p)
        assert result == outcome(eigen_scan, m, p), (m, p)
        simultaneous = outcome(fl.simultaneous_diagonalize, [m], p)
        if isinstance(result, str):
            rejected += 1
            assert simultaneous == result
        else:
            pm, (eig,) = simultaneous
            assert result == (pm, eig)
    assert rejected > 10


def test_simultaneous_examples():
    pm, eigs = fl.simultaneous_diagonalize([fl.mat_identity(2)], 5)
    assert eigs == [[1, 1]]

    pm, eigs = fl.simultaneous_diagonalize([[[2, 0], [0, 3]], [[3, 0], [0, 2]]], 7)
    assert eigs == [[2, 3], [3, 2]]

    swap = [[0, 1], [1, 0]]
    scalar = [[2, 0], [0, 2]]
    pm, eigs = fl.simultaneous_diagonalize([swap, scalar], 3)
    assert sorted(eigs[0]) == [1, 2]
    assert eigs[1] == [2, 2]
    pinv = fl.mat_inv(pm, 3)
    for m, eig in zip([swap, scalar], eigs):
        d = fl.mat_mul(fl.mat_mul(pinv, m, 3), pm, 3)
        assert d == [[eig[i] if i == j else 0 for j in range(2)] for i in range(2)]


def test_simultaneous_columns_follow_the_eigenvalue_tuples():
    # the scalar middle matrix has one eigenvalue on both pieces the first
    # matrix split apart; they stay apart, in order of their eigenvalue tuples
    family = [[[2, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [0, 2]]]
    pm, eigs = fl.simultaneous_diagonalize(family, 3)
    assert pm == [[0, 1], [1, 0]]
    assert eigs == [[1, 2], [2, 2], [2, 1]]
    pres = fl.action_to_presentation(family, [2, 2, 2], 3, 2)
    assert pres.exponents == ((1, 2, 2), (2, 2, 1))


def test_simultaneous_rejects_non_commuting():
    a = [[0, 1], [1, 0]]
    b = [[1, 0], [0, 2]]
    assert fl.mat_mul(a, b, 3) != fl.mat_mul(b, a, 3)
    with pytest.raises(ValueError):
        fl.simultaneous_diagonalize([a, b], 3)


def test_simultaneous_commuting_pairs_many():
    rng = random.Random(77)
    for _ in range(50):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randrange(1, 5)
        t = random_invertible(rng, n, p)
        tinv = fl.mat_inv(t, p)

        def twist(diag):
            d = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            return fl.mat_mul(fl.mat_mul(t, d, p), tinv, p)

        d1 = [rng.randrange(1, p) for _ in range(n)]
        d2 = [rng.randrange(1, p) for _ in range(n)]
        m1, m2 = twist(d1), twist(d2)
        assert fl.mat_mul(m1, m2, p) == fl.mat_mul(m2, m1, p)
        pm, eigs = fl.simultaneous_diagonalize([m1, m2], p)
        pinv = fl.mat_inv(pm, p)
        for m, eig in zip([m1, m2], eigs):
            d = fl.mat_mul(fl.mat_mul(pinv, m, p), pm, p)
            assert d == [[eig[i] if i == j else 0 for j in range(n)] for i in range(n)]
        # eigenvalue multisets are conjugation invariants
        assert sorted(eigs[0]) == sorted(d1)
        assert sorted(eigs[1]) == sorted(d2)


def test_simultaneous_pieces_match_the_restriction_route():
    # pieces read off (m - lam) B agree with pieces read off the matrix of
    # m restricted to the block, on families with repeated eigenvalues
    rng = random.Random(615)
    for _ in range(600):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        n = rng.randrange(1, 5)
        t = random_invertible(rng, n, p)
        tinv = fl.mat_inv(t, p)
        values = [rng.randrange(1, p) for _ in range(2)]
        family = []
        for _ in range(rng.randrange(1, 4)):
            d = [[rng.choice(values) if i == j else 0 for j in range(n)] for i in range(n)]
            family.append(fl.mat_mul(fl.mat_mul(t, d, p), tinv, p))
        assert fl.simultaneous_diagonalize(family, p) == \
            simultaneous_diagonalize_by_restriction(family, p), (family, p)


def test_action_to_presentation_examples():
    pres = fl.action_to_presentation([[[4]]], [3], 7, 3)
    assert pres.n == 1 and pres.m == 1
    assert pres.exponents == ((4,),)

    pres = fl.action_to_presentation([[[2, 0], [0, 2]]], [2], 3, 2)
    assert pres.exponents == ((2,), (2,))
    assert pres.group_order == 9 * 2

    # hidden diagonal (2, 4) over F_7 with d = 3
    rng = random.Random(8)
    t = random_invertible(rng, 2, 7)
    d = [[2, 0], [0, 4]]
    m = fl.mat_mul(fl.mat_mul(t, d, 7), fl.mat_inv(t, 7), 7)
    pres = fl.action_to_presentation([m], [3], 7, 3)
    flat = sorted(q for row in pres.exponents for q in row)
    assert flat == [2, 4]
    for row in pres.exponents:
        for q in row:
            assert q in {1, 2, 4}


def semidirect_mul_from_action(mats, orders, p):
    # group on pairs (v, h): v in F_p^n acted on by prod M_j^(h_j)
    def act(h, v):
        out = list(v)
        for m, e in zip(mats, h):
            out = fl.mat_vec(fl.mat_pow(m, e, p), out, p)
        return tuple(out)

    def mul(a, b):
        (v1, h1), (v2, h2) = a, b
        moved = act(h1, v2)
        return (
            tuple((x + y) % p for x, y in zip(v1, moved)),
            tuple((x + y) % o for x, y, o in zip(h1, h2, orders)),
        )

    return mul


def semidirect_mul_from_presentation(pres):
    def mul(a, b):
        (r1, s1), (r2, s2) = a, b
        twisted = []
        for i in range(pres.n):
            factor = 1
            for j in range(pres.m):
                factor = factor * pow(pres.exponents[i][j], s1[j], pres.p) % pres.p
            twisted.append((r1[i] + factor * r2[i]) % pres.p)
        return (
            tuple(twisted),
            tuple((x + y) % o for x, y, o in zip(s1, s2, pres.orders)),
        )

    return mul


def closure_size(gens, mul, identity):
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = mul(e, g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def test_presentation_rebuilds_the_semidirect_product():
    # the group presented from the diagonalized action is isomorphic to
    # the semidirect product the matrices define: the paired generators
    # close onto the graph of a bijective homomorphism
    rng = random.Random(91)
    cases = []
    t = random_invertible(rng, 2, 7)
    m = fl.mat_mul(fl.mat_mul(t, [[2, 0], [0, 4]], 7), fl.mat_inv(t, 7), 7)
    cases.append(([m], [3], 7, 3))
    cases.append(([[[2, 0], [0, 2]]], [2], 3, 2))
    t = random_invertible(rng, 2, 5)
    tinv = fl.mat_inv(t, 5)
    m1 = fl.mat_mul(fl.mat_mul(t, [[4, 0], [0, 1]], 5), tinv, 5)
    m2 = fl.mat_mul(fl.mat_mul(t, [[1, 0], [0, 4]], 5), tinv, 5)
    cases.append(([m1, m2], [2, 2], 5, 4))

    for mats, orders, p, d in cases:
        pres = fl.action_to_presentation(mats, orders, p, d)
        pmat, _ = fl.simultaneous_diagonalize(mats, p)
        n, m_count = pres.n, pres.m
        mul_a = semidirect_mul_from_action(mats, orders, p)
        mul_p = semidirect_mul_from_presentation(pres)
        ident_a = ((0,) * n, (0,) * m_count)
        ident_p = ((0,) * n, (0,) * m_count)
        order = pres.group_order

        # generators: x_i of the presentation pairs with column i of P
        pairs = []
        for i in range(n):
            x_pres = (tuple(1 if k == i else 0 for k in range(n)), (0,) * m_count)
            column = tuple(pmat[r][i] % p for r in range(n))
            x_act = (column, (0,) * m_count)
            pairs.append((x_pres, x_act))
        for j in range(m_count):
            y_pres = ((0,) * n, tuple(1 if k == j else 0 for k in range(m_count)))
            pairs.append((y_pres, y_pres))

        def mul_pair(a, b):
            return (mul_p(a[0], b[0]), mul_a(a[1], b[1]))

        size = closure_size(pairs, mul_pair, (ident_p, ident_a))
        assert size == order
        assert closure_size([x for x, _ in pairs], mul_p, ident_p) == order
        assert closure_size([y for _, y in pairs], mul_a, ident_a) == order


def test_action_to_presentation_validates():
    with pytest.raises(ValueError):
        fl.action_to_presentation([[[3, 0], [0, 3]]], [3], 7, 3)  # 3^3 != 1 mod 7
    with pytest.raises(ValueError):
        fl.ApdPresentation(p=7, d=3, n=1, m=1, orders=(3,), exponents=((3,),))
    with pytest.raises(ValueError):
        fl.ApdPresentation(p=7, d=4, n=1, m=1, orders=(4,), exponents=((1,),))
