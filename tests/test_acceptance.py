"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; randomized parts use fixed seeds.
"""

import random

from provar import fplinalg as fl
from provar import metabelian as mb
from provar import uvar
from provar.apd import (
    FreeObject,
    GpdElement,
    GpdGroup,
    closure,
    closure_by_folding,
    decompose,
    gpd_iso,
)
from provar.bs import bs_eval, bs_separating_prime
from provar.fplinalg import ApdPresentation
from provar.numtheory import is_primitive_root, q_sets, smallest_of_order
from provar.permgroup import perm_identity
from provar.stallings import Automaton
from provar.words import parse, word
from tests.oracles import all_subgroups, contains_subgroup, free_object
from tests.test_fplinalg import conjugated_diagonal, random_invertible
from tests.test_permgroup import a4, c12, c2xc4, d4, q8, s3, s4, supersolvable_oracle
from tests.test_stallings import S3_IMAGES, schreier_preimage
from tests.test_uvar import Q8_IMAGES

PAIRS = [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 10)]


def report(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def random_subgroup(rng, rank, max_gens=4, max_len=6):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        length = rng.randrange(1, max_len + 1)
        letters = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
                   for _ in range(length)]
        gens.append(word(letters, rank))
    return Automaton.from_generators(gens, rank)


def test_criterion_1_minimal_generator_sizes():
    for p, d in PAIRS:
        group = GpdGroup(p, d)
        assert group.order == p * d
        assert len(set(group.elements())) == p * d
        perm = group.as_perm_group()
        assert perm.order == p * d
    report(1, f"|G(p,d)| = pd exactly for {PAIRS}")


def test_criterion_2_free_object_orders():
    assert free_object(1, 3, 2).order == 6
    assert len(free_object(1, 3, 2).materialize()) == 6
    assert free_object(2, 3, 2).order == 972
    assert len(free_object(2, 3, 2).materialize()) == 972
    assert free_object(2, 5, 2).order == 12500
    assert len(free_object(2, 5, 2).materialize()) == 12500
    for n, p, d in [(1, 3, 2), (2, 3, 2), (2, 5, 2)]:
        expected = p ** ((n - 1) * d**n + 1) * d**n
        assert FreeObject(n, p, d).order_formula == expected
    report(2, "free-object orders 6, 972, 12500 match the structure formula")


def test_criterion_3_u_membership_fixtures():
    rep = uvar.is_in_u(a4())
    assert not rep.verdict and not rep.supersolvable

    rep = uvar.is_in_u(q8())
    assert not rep.verdict and rep.sylow_abelian == {2: False}

    assert uvar.is_in_u(s3()).verdict
    assert uvar.is_in_u(c2xc4()).verdict

    for p, d in PAIRS:
        assert uvar.is_in_u(GpdGroup(p, d).as_perm_group()).verdict
    report(3, "A4 and Q8 rejected with the right reasons; S3, C2xC4 "
              "and every G(p,d) accepted")


def test_criterion_4_supersolvability_oracle_equivalence():
    subgroups = all_subgroups(s4())
    assert len(subgroups) == 30
    checked = 0
    for sub in subgroups:
        assert sub.is_supersolvable() == supersolvable_oracle(sub)
        checked += 1
    for group in (d4(), q8(), c12(), a4(), s3()):
        assert group.is_supersolvable() == supersolvable_oracle(group)
        checked += 1
    report(4, f"recursive test matches the maximal-subgroup oracle on {checked} groups")


def test_criterion_5_closure_routes_agree():
    rng = random.Random(1234)
    cases = []
    for p, d in [(3, 2), (5, 2), (5, 4)]:
        cases.extend((1, p, d) for _ in range(10))
    for _ in range(14):
        cases.append((2, 3, 2))
    for _ in range(8):
        cases.append((2, 5, 2))
    assert len(cases) >= 50

    fobjs = {}
    checked = 0
    samples = []
    for rank, p, d in cases:
        key = (rank, p, d)
        if key not in fobjs:
            fobjs[key] = FreeObject(rank, p, d)
        fobj = fobjs[key]
        subgroup = random_subgroup(rng, rank)
        by_cosets = closure(subgroup, p, d)
        by_folding = closure_by_folding(subgroup, p, d, fobj=fobj)
        assert by_cosets == by_folding
        assert by_cosets.is_complete()
        checked += 1
        samples.append((subgroup, by_cosets, p, d))

    # idempotence and monotonicity on a subsample
    for subgroup, closed, p, d in samples[::10]:
        assert closure(closed, p, d) == closed
        extra = random_subgroup(rng, subgroup.rank, max_gens=1)
        bigger = subgroup.join(extra)
        assert contains_subgroup(closure(bigger, p, d), closed)
    report(5, f"coset and folding closures agree on {checked} random subgroups; "
              "closures complete, idempotent, monotone")


def test_criterion_6_u_closed_fixtures():
    cayley_s3 = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    assert cayley_s3.index() == 6
    assert uvar.is_u_closed(cayley_s3)

    cayley_q8 = schreier_preimage(Q8_IMAGES, [perm_identity(8)])
    assert cayley_q8.index() == 8
    assert not uvar.is_u_closed(cayley_q8)

    cl = uvar.cl_u_finite_index(cayley_q8)
    assert contains_subgroup(cl, cayley_q8) and cl != cayley_q8
    assert cl.index() == 4
    report(6, "S3-kernel U-closed; Q8-kernel not, its U-closure is the "
              "index-4 center preimage")


def test_criterion_7_not_fg_certificates():
    assert uvar.not_fg_certificate(Automaton.from_generators([parse("a", 2)], 2)) == 2
    comm = parse("abAB", 2)
    assert uvar.not_fg_certificate(Automaton.from_generators([comm], 2)) == 1
    assert uvar.not_fg_certificate(Automaton.from_generators([parse("ab", 2)], 2)) is None
    report(7, "vanishing-coordinate certificates: <a> -> 2, <[a,b]> -> 1, <ab> -> none")


def test_criterion_8_metabelian_separation():
    w = mb.separating_witness(parse("abAB", 2))
    assert w.p == 3 and w.q == 2 and w.image == GpdElement(2, 0)

    rng = random.Random(88)
    found = 0
    while found < 100:
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 13))]
        u = word(letters, 2)
        if mb.flow_of(u).is_zero():
            continue
        witness = mb.separating_witness(u)
        group = GpdGroup(witness.p, witness.p - 1, witness.q)
        image = group.evaluate(witness.pre_map.apply(u))
        assert image == witness.image != GpdElement(0, 0)
        if found < 10:
            # minimality for the search order: every smaller prime fails
            transformed = witness.pre_map.apply(u)
            for p in (3, 5, 7, 11, 13, 17, 19):
                if p >= witness.p:
                    break
                smaller = GpdGroup(p, p - 1, smallest_of_order(p, p - 1))
                assert smaller.evaluate(transformed) == smaller.identity
        found += 1
    report(8, f"{found} random words separated with re-verified witnesses; "
              "[a,b] -> p=3, image x^2; minimality spot-checked")


def test_criterion_9_diagonalization_round_trips():
    rng = random.Random(99)
    for _ in range(100):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randrange(1, 5)
        matrix, entries = conjugated_diagonal(rng, n, p)
        pmat, eigen = fl.diagonalize(matrix, p)
        assert sorted(eigen) == sorted(entries)
        pinv = fl.mat_inv(pmat, p)
        conj = fl.mat_mul(fl.mat_mul(pinv, matrix, p), pmat, p)
        assert conj == [[eigen[i] if i == j else 0 for j in range(n)] for i in range(n)]

    for _ in range(50):
        p = rng.choice([3, 5, 7, 11])
        n = rng.randrange(1, 5)
        t = random_invertible(rng, n, p)
        tinv = fl.mat_inv(t, p)
        mats = []
        diags = []
        for _ in range(2):
            entries = [rng.randrange(1, p) for _ in range(n)]
            diag = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
            mats.append(fl.mat_mul(fl.mat_mul(t, diag, p), tinv, p))
            diags.append(entries)
        pmat, eigenlists = fl.simultaneous_diagonalize(mats, p)
        pinv = fl.mat_inv(pmat, p)
        for matrix, eigen, entries in zip(mats, eigenlists, diags):
            conj = fl.mat_mul(fl.mat_mul(pinv, matrix, p), pmat, p)
            assert conj == [[eigen[i] if i == j else 0 for j in range(n)]
                            for i in range(n)]
            assert sorted(eigen) == sorted(entries)
    report(9, "100 diagonalization round-trips and 50 simultaneous pairs, exact")


def test_criterion_10_presentation_exponent_isomorphisms():
    pairs_checked = 0
    for p, d in PAIRS:
        _, q_exact = q_sets(p, d)
        for q in sorted(q_exact):
            for r in sorted(q_exact):
                m, k = gpd_iso(p, d, q, r)
                assert m * k % d == 1
                pairs_checked += 1
    report(10, f"{pairs_checked} exponent pairs verified as mutually inverse "
               "isomorphisms by their defining relations")


def test_criterion_11_bs_separation():
    rng = random.Random(77)
    found = 0
    for q in (2, 3):
        per_q = 0
        while per_q < 50:
            letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 11))]
            u = word(letters, 2)
            g = bs_eval(u, q)
            if g.is_identity():
                continue
            p, image = bs_separating_prime(g)
            assert is_primitive_root(q, p) and p != q
            group = GpdGroup(p, p - 1, q % p)
            assert group.evaluate(u) == image != GpdElement(0, 0)
            per_q += 1
            found += 1
    report(11, f"{found} random BS(1,2)/BS(1,3) elements separated with "
               "verified primitive-root primes")


def test_criterion_12_decomposition_fixtures():
    fixtures = [
        ApdPresentation(p=5, d=4, n=1, m=1, orders=(4,), exponents=((2,),)),
        ApdPresentation(p=3, d=2, n=2, m=1, orders=(2,), exponents=((2,), (2,))),
        ApdPresentation(p=7, d=6, n=1, m=1, orders=(6,), exponents=((2,),)),
        ApdPresentation(p=3, d=2, n=1, m=1, orders=(2,), exponents=((1,),)),
        ApdPresentation(p=7, d=6, n=2, m=2, orders=(6, 3), exponents=((3, 2), (1, 4))),
    ]
    for pres in fixtures:
        emb = decompose(pres)
        assert emb.injective
        assert emb.image_order == pres.group_order
    report(12, f"{len(fixtures)} presentations embedded injectively "
               "(image order equals group order)")
