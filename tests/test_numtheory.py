import itertools
import math
import random

import pytest

from provar import numtheory as nt
from provar.errors import BudgetExhaustedError
from provar.permgroup import bfs_closure
from tests.oracles import euler_phi


def brute_order(q, p):
    # independent oracle: scan exponents
    value = q % p
    k = 1
    acc = value
    while acc != 1:
        acc = acc * value % p
        k += 1
    return k


def brute_q_sets(p, d):
    q_all = {q for q in range(1, p) if pow(q, d, p) == 1}
    q_exact = {q for q in q_all if brute_order(q, p) == d}
    return q_all, q_exact


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 9, 91, 561, 1105, 7917]
    assert all(nt.is_prime(p) for p in primes)
    assert not any(nt.is_prime(c) for c in composites)


def test_is_prime_large():
    assert nt.is_prime(2**61 - 1)
    assert not nt.is_prime(2**67 - 1)
    # beyond the deterministic witness bound
    assert nt.is_prime(2**89 - 1)
    assert not nt.is_prime((2**89 - 1) * (2**61 - 1))


def test_factorize_and_phi():
    assert nt.factorize(360) == {2: 3, 3: 2, 5: 1}
    assert euler_phi(1) == 1
    assert euler_phi(10) == 4
    assert euler_phi(36) == 12


def test_p_split_against_factorize():
    for n in itertools.chain(range(1, 200), range(-60, 0), [2**40 * 3**5, 7**30]):
        for p in (2, 3, 5, 7):
            part, rest = nt.p_split(n, p)
            assert part == p ** nt.factorize(abs(n)).get(p, 0) and part * rest == n
    for n, p in ((0, 3), (12, 1), (12, 0)):
        with pytest.raises(ValueError):
            nt.p_split(n, p)


def test_mult_order_examples():
    assert nt.mult_order(2, 7) == 3  # 2^3 = 8 = 1 mod 7
    assert nt.mult_order(1, 11) == 1
    assert nt.mult_order(2, 11) == 10


def test_mult_order_against_brute_force():
    for p in (3, 5, 7, 11, 13, 31):
        for q in range(1, p):
            assert nt.mult_order(q, p) == brute_order(q, p)
            assert (p - 1) % nt.mult_order(q, p) == 0


def test_mult_order_rejects_multiples_of_p():
    with pytest.raises(ValueError):
        nt.mult_order(14, 7)
    with pytest.raises(ValueError):
        nt.mult_order(10, 4)  # composite modulus


def test_q_sets_examples():
    assert nt.q_sets(7, 3) == ({1, 2, 4}, {2, 4})
    assert nt.q_sets(7, 1) == ({1}, {1})
    assert nt.q_sets(5, 4) == ({1, 2, 3, 4}, {2, 3})


def test_q_sets_against_brute_force_and_sizes():
    for p in (n for n in range(3, 60) if nt.is_prime(n)):
        for d in range(1, p):
            if (p - 1) % d:
                continue
            q_all, q_exact = nt.q_sets(p, d)
            assert (q_all, q_exact) == brute_q_sets(p, d)
            assert len(q_all) == d
            assert len(q_exact) == euler_phi(d)
            for q in q_exact:
                assert nt.mult_order(q, p) == d
            for q in q_all - q_exact:
                order = nt.mult_order(q, p)
                assert order < d and d % order == 0


def test_q_sets_of_a_large_prime_factorize_once(monkeypatch):
    # the roots are powers of one primitive root: no order is computed per root
    calls = []
    real = nt.factorize
    monkeypatch.setattr(nt, "factorize", lambda n: calls.append(n) or real(n))
    monkeypatch.setattr(nt, "mult_order", None)
    q_all, q_exact = nt.q_sets(10007, 10006)
    assert calls == [10006]
    assert len(q_all) == 10006 and len(q_exact) == euler_phi(10006)
    assert all(pow(q, 10006, 10007) == 1 for q in q_all)
    assert 5 in q_exact and 10006 in q_all - q_exact  # 5 is a primitive root mod 10007


def test_q_sets_nesting_in_divisors():
    p = 13
    for d1 in (1, 2, 3, 4, 6, 12):
        for d2 in (1, 2, 3, 4, 6, 12):
            if d2 % d1 == 0:
                assert nt.q_sets(p, d1)[0] <= nt.q_sets(p, d2)[0]


def test_q_sets_invalid():
    with pytest.raises(ValueError):
        nt.q_sets(7, 4)
    with pytest.raises(ValueError):
        nt.q_sets(9, 2)


def test_smallest_of_order():
    assert nt.smallest_of_order(7, 3) == 2
    assert nt.smallest_of_order(7, 6) == 3
    assert nt.smallest_of_order(11, 10) == 2


def test_smallest_of_order_against_the_upward_scan():
    # every divisor d of p - 1, the small ones through the roots formed
    # from a primitive root and the large ones through the scan
    for p in (n for n in range(2, 60) if nt.is_prime(n)):
        for d in (d for d in range(1, p) if (p - 1) % d == 0):
            scanned = next(q for q in range(1, p) if brute_order(q, p) == d)
            assert nt.smallest_of_order(p, d) == scanned, (p, d)


def test_smallest_of_order_of_a_large_prime_forms_d_roots():
    # the only root of order 2 is p - 1, which a scan from 1 meets last
    assert nt.smallest_of_order(10000019, 2) == 10000018
    q = nt.smallest_of_order(1000003, 3)  # the roots of order 3 are q and q^2
    assert q != 1 and pow(q, 3, 1000003) == 1 and q < q * q % 1000003


def span_mod(vectors, k, d):
    # the subgroup of Z_d^k that the vectors generate, breadth-first
    def add(v, w):
        return tuple((a + b) % d for a, b in zip(v, w))

    return bfs_closure((0,) * k, vectors, add, d**k)


def determinant(rows):
    return sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        * math.prod(row[c] for row, c in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def test_lattice_index_against_enumeration_of_the_span_mod_d():
    # with d Z^k added the index is that of the span Y in Z_d^k; k vectors
    # alone give |det| or None, and vectors of rank below k give None
    rng = random.Random(7)
    seen_none = 0
    for _ in range(300):
        k, d = rng.randint(1, 3), rng.randint(2, 6)
        vectors = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(rng.randint(0, 4))]
        padded = vectors + [tuple(d if a == b else 0 for b in range(k)) for a in range(k)]
        assert nt.lattice_index(padded, k) * len(span_mod(vectors, k, d)) == d**k

        square = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(k)]
        det = abs(determinant(square))
        assert nt.lattice_index(square, k) == (det or None)

        basis = [tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(rng.randint(0, k - 1))]
        combinations = [[rng.randint(-3, 3) for _ in basis] for _ in range(rng.randint(0, 4))]
        deficient = [tuple(sum(c * b[i] for c, b in zip(cs, basis)) for i in range(k))
                     for cs in combinations]
        assert nt.lattice_index(deficient, k) is None
        seen_none += det == 0
    assert seen_none


def test_find_pr_prime_examples():
    assert nt.find_pr_prime(2, 3).p == 3
    assert nt.find_pr_prime(2, 10).p == 11
    # 3 itself is skipped, and 3 has order 4 mod 5
    assert nt.find_pr_prime(3, 3).p == 5


def test_find_pr_prime_verified():
    for q, lower in ((2, 2), (3, 20), (5, 100), (7, 1000)):
        res = nt.find_pr_prime(q, lower)
        assert res.p >= lower and res.p != q
        assert nt.mult_order(q, res.p) == res.p - 1 == res.order_check
        # minimality: no smaller prime in range qualifies
        for p in range(lower, res.p):
            if nt.is_prime(p) and p != q:
                assert nt.mult_order(q, p) != p - 1


def test_find_pr_prime_budget():
    with pytest.raises(BudgetExhaustedError):
        nt.find_pr_prime(2, 3, cap=0)


def test_pr_search_result_validation():
    with pytest.raises(ValueError):
        nt.PrSearchResult(q=2, p=7, order_check=3)
