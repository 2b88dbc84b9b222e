import itertools
import math
import random

import pytest

from provar import apd, uvar
from provar import permgroup as pg
from provar.apd import GpdGroup
from provar.errors import CapExceededError, NotFiniteIndexError
from provar.numtheory import factorize, lattice_index, primes_from
from provar.permgroup import PermGroup, perm_identity
from provar.stallings import Automaton
from provar.words import commutator, parse, word
from tests.oracles import is_in_u_by_enumeration, normal_subgroups_containing, u_residual_by_lattice
from tests.test_permgroup import a4, c2xc4, d4, direct_product, left_regular, q8, s3, s4
from tests.test_stallings import S3_IMAGES, schreier_preimage


def aut(rank, *texts):
    return Automaton.from_generators([parse(t, rank) for t in texts], rank)


Q8_IMAGES = [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)]  # x = i, y = j


def test_is_in_u_fixtures():
    report = uvar.is_in_u(a4())
    assert not report.verdict
    assert not report.supersolvable
    assert report.derived_elementary_abelian  # V4
    assert all(report.sylow_abelian.values())

    report = uvar.is_in_u(q8())
    assert not report.verdict
    assert report.sylow_abelian == {2: False}

    assert uvar.is_in_u(s3()).verdict
    assert uvar.is_in_u(c2xc4()).verdict


def test_is_in_u_gpd_groups():
    for p, d in [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 10)]:
        perm = GpdGroup(p, d).as_perm_group()
        assert uvar.is_in_u(perm).verdict, (p, d)


def test_is_in_u_report_consistency():
    with pytest.raises(ValueError):
        uvar.UMembershipReport(
            verdict=True,
            supersolvable=False,
            derived_elementary_abelian=True,
            derived_witness_prime=None,
            sylow_abelian={},
        )


def test_is_u_closed_fixtures():
    # Cayley graph of S3: the kernel is U-closed since S3 lies in U
    cayley_s3 = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    assert uvar.is_u_closed(cayley_s3)

    # Cayley graph of Q8: not U-closed
    cayley_q8 = schreier_preimage(Q8_IMAGES, [perm_identity(8)])
    assert not uvar.is_u_closed(cayley_q8)

    # infinite index in rank 2: a closed subgroup contains F'', so never
    assert not uvar.is_u_closed(aut(2, "a"))


def test_infinite_index_is_closed_only_for_the_trivial_subgroup_of_z():
    # Z is residually U: the meet of the per-prime closures of 1 up to 7
    # is the kernel onto Z_420 (420 = lcm(2, 3 * 2, 5 * 4, 7 * 6)), and a
    # nonzero power a^m is cut off by any prime not dividing m
    trivial = Automaton.trivial(1)
    assert uvar.is_u_closed(trivial)
    assert uvar.cl_u_finite_index(trivial) == trivial
    assert uvar.cl_u_approx(trivial, [2, 3, 5, 7]).automaton == aut(1, "a^420")
    for m in range(1, 40):
        p = next(q for q in (2, 3, 5, 7, 11, 13) if m % q)
        assert not apd.closure(trivial, p, 1).membership(parse(f"a^{m}", 1))
    for subgroup in (Automaton.trivial(2), aut(2, "a"), aut(2, "ab", "aB"), aut(3, "a", "b")):
        assert not uvar.is_u_closed(subgroup)
        with pytest.raises(NotFiniteIndexError):
            uvar.cl_u_finite_index(subgroup)


def test_cl_u_finite_index_idempotent_on_closed():
    cayley_s3 = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    assert uvar.cl_u_finite_index(cayley_s3) == cayley_s3
    assert uvar.cl_u_finite_index(aut(1, "a^6")) == aut(1, "a^6")


def test_cl_u_finite_index_q8_kernel():
    # the U-closure of the Q8-kernel is the preimage of the center:
    # quotients of Q8 by 1 are not in U, by anything bigger are abelian
    cayley_q8 = schreier_preimage(Q8_IMAGES, [perm_identity(8)])
    cl = uvar.cl_u_finite_index(cayley_q8)
    assert cl.index() == 4
    assert cl.contains_subgroup(cayley_q8)
    assert cl != cayley_q8
    center = [perm_identity(8), None]
    # center of Q8 = {1, x^2}; x^2 is the image of aa
    x = Q8_IMAGES[0]
    x2 = tuple(x[x[i]] for i in range(8))
    expected = schreier_preimage(Q8_IMAGES, [perm_identity(8), x2])
    assert cl == expected


def test_is_u_closed_iff_closure_is_identity_map():
    fixtures = [
        schreier_preimage(S3_IMAGES, [perm_identity(3)]),
        schreier_preimage(Q8_IMAGES, [perm_identity(8)]),
        aut(1, "a^6"),
        Automaton.full_group(2),
        aut(2, "a", "b"),
        Automaton.trivial(1),
    ]
    for f in fixtures:
        assert uvar.is_u_closed(f) == (uvar.cl_u_finite_index(f) == f)


def test_cl_u_approx_examples():
    full = Automaton.full_group(2)
    approx = uvar.cl_u_approx(full, [3, 5])
    assert approx.automaton == full and approx.exact

    approx = uvar.cl_u_approx(aut(1, "aa"), [3])
    assert approx.automaton == aut(1, "aa") and approx.exact

    # S3-kernel is already closed at p = 3
    cayley_s3 = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    approx = uvar.cl_u_approx(cayley_s3, [3])
    assert approx.automaton == cayley_s3 and approx.exact


def test_cl_u_approx_antitone_in_primes():
    # finite-index subgroup keeps every per-prime closure at index <= 6
    subgroup = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    small = uvar.cl_u_approx(subgroup, [5])
    bigger = uvar.cl_u_approx(subgroup, [3, 5])
    assert small.automaton.contains_subgroup(bigger.automaton)
    assert bigger.automaton.contains_subgroup(subgroup)
    assert bigger.exact  # stabilizes at the S3-kernel itself


def test_cl_u_approx_contains_subgroup_always():
    rng = random.Random(5)
    for _ in range(5):
        letters = [
            word(
                [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 6))], 2
            )
            for _ in range(2)
        ]
        subgroup = Automaton.from_generators(letters, 2)
        approx = uvar.cl_u_approx(subgroup, [2, 3])
        assert approx.automaton.contains_subgroup(subgroup)


def test_cl_u_approx_with_prime_two():
    # mod-2 abelianization route: closure of <a, b^2> at p = 2 has index 2
    approx = uvar.cl_u_approx(aut(2, "a", "bb"), [2])
    assert approx.automaton.index() == 2


def test_not_fg_certificate_examples():
    assert uvar.not_fg_certificate(aut(2, "a")) == 2
    assert uvar.not_fg_certificate(aut(2, "ab")) is None
    comm = Automaton.from_generators([commutator(parse("a", 2), parse("b", 2))], 2)
    assert uvar.not_fg_certificate(comm) == 1
    assert uvar.not_fg_certificate(Automaton.trivial(2)) == 1


def test_not_fg_certificate_is_none_in_rank_one():
    # every subgroup of Z is finitely generated; the trivial one, whose
    # one coordinate vanishes, is U-closed and so its own closure
    trivial = Automaton.trivial(1)
    assert uvar.is_u_closed(trivial) and uvar.cl_u_finite_index(trivial) == trivial
    for gens in ((), ("1",), ("a",), ("a^6",)):
        assert uvar.not_fg_certificate(aut(1, *gens)) is None


def test_lattice_index():
    assert lattice_index([(1, 0), (0, 1)], 2) == 1
    assert lattice_index([(2, 0), (0, 3)], 2) == 6
    assert lattice_index([(1, 0)], 2) is None
    assert lattice_index([(2, 2), (0, 4), (2, 6)], 2) == 8
    assert lattice_index([], 1) is None
    assert lattice_index([(1, 1), (1, -1)], 2) == 2


def test_u_density_check_examples():
    report = uvar.u_density_check(Automaton.full_group(2), bound=5)
    assert report.necessary_ok and report.dense_up_to_bound

    report = uvar.u_density_check(aut(2, "a", "bb"), bound=5)
    assert not report.necessary_ok

    report = uvar.u_density_check(aut(2, "a", "baB", "b^3"), bound=5)
    assert not report.necessary_ok  # abelianization image has index 3
    assert not report.dense_up_to_bound


def test_u_density_refuses_before_any_image_walk(monkeypatch):
    # the kernel of a -> 0, b -> 1 onto Z_39 has 40 basis words; up to
    # p = 7 the largest need is p = 5's folding, 16 characters times 799
    # Fox support points (each word's length, at most 2 * 4^2), and with
    # the cap at its edge every prime is checked before the first image
    # is built
    built = []
    image_subgroup = apd._ImageSubgroup

    class CountingImageSubgroup(image_subgroup):
        def __init__(self, aut, p, d):
            built.append(p)
            super().__init__(aut, p, d)

    monkeypatch.setattr(apd, "_ImageSubgroup", CountingImageSubgroup)
    kernel = Automaton.from_action(2, [list(range(39)), [(i + 1) % 39 for i in range(39)]])
    cap = next(c for c in itertools.count(1) if c * c.bit_length() >= 16 * 799)
    monkeypatch.setattr(apd, "DEFAULT_CAP", cap - 1)
    with pytest.raises(CapExceededError) as refused:
        uvar.u_density_check(kernel, bound=7)
    assert built == []
    assert str(refused.value) == (f"the image folds 799 Fox support points into 16 characters, "
                                  f"beyond cap {cap - 1} times its bit length")
    monkeypatch.setattr(apd, "DEFAULT_CAP", cap)
    assert not uvar.u_density_check(kernel, bound=7).necessary_ok
    # under the budget every prime is walked, in ascending order
    built.clear()
    assert uvar.u_density_check(Automaton.full_group(2), bound=7).dense_up_to_bound
    assert built == [2, 3, 5, 7]


def test_u_density_reads_no_prime_past_a_refused_one(monkeypatch):
    # the free object on 2 generators needs 2 * (p - 1)^2 Fox coordinates,
    # over the cap first at p = 331; the primes up to the bound of 10^9,
    # about 5 * 10^7 of them, are never listed
    read = []

    def reading(start):
        for p in primes_from(start):
            read.append(p)
            yield p

    monkeypatch.setattr(uvar, "primes_from", reading)
    first = next(p for p in primes_from(2) if 2 * (p - 1) ** 2 > apd.DEFAULT_CAP)
    with pytest.raises(CapExceededError, match="free object on 2 generators"):
        uvar.u_density_check(Automaton.full_group(2), bound=10**9)
    assert read == list(itertools.takewhile(lambda p: p <= first, primes_from(2)))
    assert first == 331


def test_u_membership_implies_metabelian():
    # U sits inside the metabelian pseudovariety: an elementary abelian
    # derived subgroup is in particular abelian
    for group in (s3(), c2xc4(), GpdGroup(7, 6).as_perm_group()):
        report = uvar.is_in_u(group)
        assert report.verdict
        assert group.derived_subgroup().structure().abelian


def test_cl_u_approx_stabilizes_on_coset_group_primes():
    # for the S3-kernel, the primes dividing the coset-group order suffice
    kernel = schreier_preimage(S3_IMAGES, [perm_identity(3)])
    approx = uvar.cl_u_approx(kernel, [2, 3])
    assert approx.automaton == kernel and approx.exact


def test_u_density_dense_subgroup():
    # index-1 abelianization and genuinely dense at small primes:
    # the subgroup generated by a, b a b^-1 a^-1 ... take a simple known one
    report = uvar.u_density_check(aut(2, "a", "b"), bound=3)
    assert report.necessary_ok and report.dense_up_to_bound


# -- the p = 2 term against the mod-2 abelian closure --------------------------------


def mod_abelian_closure(aut, modulus):
    """Closure for the exponent-``modulus`` abelian pseudovariety: the
    preimage of the subgroup image in (Z/modulus)^n, with each coset
    keyed by the set of its elements."""
    n = aut.rank
    vectors = [tuple(x % modulus for x in w.abelianization()) for w in aut.basis()]
    zero = (0,) * n
    image = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in vectors:
            w = tuple((a + b) % modulus for a, b in zip(v, g))
            if w not in image:
                image.add(w)
                frontier.append(w)
    cosets = {}
    reps = []

    def coset_id(v):
        key = frozenset(tuple((a + b) % modulus for a, b in zip(v, s)) for s in image)
        found = cosets.get(key)
        if found is None:
            found = len(reps)
            cosets[key] = found
            reps.append(v)
        return found

    coset_id(zero)
    i = 0
    while i < len(reps):
        for g in range(n):
            coset_id(tuple((x + (1 if j == g else 0)) % modulus for j, x in enumerate(reps[i])))
        i += 1
    perms = [
        tuple(
            coset_id(tuple((x + (1 if j == g else 0)) % modulus for j, x in enumerate(rep)))
            for rep in reps
        )
        for g in range(n)
    ]
    return Automaton.from_action(n, perms)


def random_subgroup(rng, rank):
    gens = [
        word([rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
              for _ in range(rng.randrange(1, 7))], rank)
        for _ in range(rng.randrange(0, 4))
    ]
    return Automaton.from_generators(gens, rank)


def test_prime_two_closure_matches_the_mod_two_abelian_oracle():
    rng = random.Random(61)
    for _ in range(80):
        rank = rng.randrange(1, 5)
        subgroup = random_subgroup(rng, rank)
        expected = mod_abelian_closure(subgroup, 2)
        assert apd.closure(subgroup, 2, 1) == expected, subgroup.basis()
        # the other primes' closures stay far below the coset cap
        primes = rng.choice([[[2], [2, 3], [2, 5], [2, 3, 5]], [[2], [2, 3]], [[2]], [[2]]][rank - 1])
        meet = expected
        for p in primes[1:]:
            meet = meet.intersect(apd.closure(subgroup, p, p - 1))
        assert uvar.cl_u_approx(subgroup, primes).automaton == meet, (subgroup.basis(), primes)
        assert uvar.u_density_check(subgroup, bound=2).dense_up_to_bound == (
            expected.n_vertices == 1
        )


def test_prime_two_term_of_a_large_rank_stays_cheap():
    approx = uvar.cl_u_approx(Automaton.full_group(16), [2])
    assert approx.automaton == Automaton.full_group(16) and approx.exact
    assert uvar.u_density_check(Automaton.full_group(16), bound=2).dense_up_to_bound


# -- the residual route against the lattice meet ---------------------------------


def lattice_cl_u(aut):
    """Reference U-closure: the meet of the U-closed subgroups among all
    subgroups between H and the free group."""
    closed = [k for k in aut.intermediate_subgroups() if uvar.is_u_closed(k)]
    result = closed[0]
    for k in closed[1:]:
        result = result.intersect(k)
    return result


def fixture_images():
    """A generating pair of permutations for each fixture group."""
    c = tuple((i + 1) % 12 for i in range(12))
    images = {
        "S3": S3_IMAGES,
        "S4": list(s4().generators),
        "A4": list(a4().generators),
        "D4": list(d4().generators),
        "Q8": Q8_IMAGES,
        "C12": [c, pg.perm_power(c, 5)],
    }
    for p, d in [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6)]:
        images[f"G({p},{d})"] = list(GpdGroup(p, d).as_perm_group().generators)
    return images


def pair_images(first, second):
    """The generating pair of the subdirect product that maps each letter
    to the pair of its images, acting on the disjoint union."""
    shift = len(first[0])
    return [tuple(x) + tuple(shift + v for v in y) for x, y in zip(first, second)]


def kernel(images):
    """Kernel of the map F_2 -> <images>: its Cayley automaton."""
    return schreier_preimage(images, [perm_identity(len(images[0]))])


def fixture_kernels(max_index=42):
    """Kernels of every fixture and of every subdirect product of two
    fixtures, up to the given index."""
    images = fixture_images()
    candidates = dict(images)
    names = sorted(images)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            candidates[f"{a}x{b}"] = pair_images(images[a], images[b])
    return {
        name: kernel(im)
        for name, im in candidates.items()
        if PermGroup(len(im[0]), im).order <= max_index
    }


def random_finite_index(rng, degree):
    """The basepoint stabilizer of a random action of F_2 of the given degree."""
    perms = []
    for _ in range(2):
        points = list(range(degree))
        rng.shuffle(points)
        perms.append(tuple(points))
    return Automaton.from_action(2, perms)


def test_fixture_kernels_cover_products():
    kernels = fixture_kernels()
    assert {"S3", "S4", "Q8", "G(7,6)"} <= set(kernels)
    products = [name for name in kernels if "x" in name]
    assert len(products) >= 5
    assert max(k.index() for k in kernels.values()) == 42


def test_cl_u_finite_index_matches_lattice_meet_on_fixture_kernels():
    for name, h in fixture_kernels().items():
        assert uvar.cl_u_finite_index(h).key == lattice_cl_u(h).key, name


def test_cl_u_finite_index_matches_lattice_meet_on_random_subgroups():
    rng = random.Random(17)
    for _ in range(40):
        h = random_finite_index(rng, rng.randrange(2, 7))
        assert uvar.cl_u_finite_index(h).key == lattice_cl_u(h).key, h.to_json_dict()


def closure_law_inputs():
    rng = random.Random(23)
    inputs = list(fixture_kernels(24).values())
    inputs += [random_finite_index(rng, rng.randrange(2, 7)) for _ in range(15)]
    return inputs


def test_cl_u_finite_index_laws():
    for h in closure_law_inputs():
        cl = uvar.cl_u_finite_index(h)
        assert cl.contains_subgroup(h)
        assert uvar.cl_u_finite_index(cl) == cl  # idempotent
        assert uvar.is_u_closed(cl)
        assert uvar.is_u_closed(h) == (cl == h)


def test_cl_u_finite_index_is_monotone():
    for h in closure_law_inputs():
        cl = uvar.cl_u_finite_index(h)
        for k in h.intermediate_subgroups():
            assert uvar.cl_u_finite_index(k).contains_subgroup(cl)


def cycles(degree, *cs):
    """The permutation of 0..degree-1 with the given cycles."""
    images = list(range(degree))
    for c in cs:
        for i, x in enumerate(c):
            images[x] = c[(i + 1) % len(c)]
    return tuple(images)


def sylow_2_of_s8():
    """C2 wr C2 wr C2 on 8 points, of order 128."""
    return PermGroup(8, [cycles(8, (0, 1)), cycles(8, (0, 2), (1, 3)),
                         cycles(8, (0, 4), (1, 5), (2, 6), (3, 7))])


def c3_wr_c3():
    return PermGroup(9, [cycles(9, (0, 1, 2)), cycles(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))])


def s3_wr_c2():
    """S3 x S3 with the factors swapped, of order 72: solvable, not in U."""
    return PermGroup(6, [cycles(6, (0, 1)), cycles(6, (0, 1, 2)), cycles(6, (0, 3), (1, 4), (2, 5))])


def subdirect(*names):
    """The subgroup of a product of fixtures generated by pairs of images."""
    images = fixture_images()
    gens = images[names[0]]
    for name in names[1:]:
        gens = pair_images(gens, images[name])
    return PermGroup(len(gens[0]), gens)


def test_u_residual_quotient_is_in_u_and_smallest():
    # in the two subdirect products, G' has elements whose order has
    # several prime divisors
    a5 = PermGroup(5, [cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    for g in (a5, sylow_2_of_s8(), c3_wr_c3(), s3_wr_c2(),
              subdirect("S3", "G(5,2)", "Q8"), subdirect("S3", "G(5,4)", "D4"),
              *(PermGroup(len(im[0]), im) for im in fixture_images().values())):
        residual = uvar.u_residual(g)
        assert residual.is_normal_in(g)
        quotient = g if residual.is_trivial() else g.quotient(residual)
        assert uvar.is_in_u(quotient).verdict
        for normal in normal_subgroups_containing(g, PermGroup(g.degree, [])):
            if uvar.is_in_u(g.quotient(normal)).verdict:
                assert residual.element_set() <= normal.element_set()


def test_u_residual_of_a_p_group_is_its_derived_subgroup():
    # a group of prime-power order in U is abelian
    for g in (q8(), d4(), sylow_2_of_s8(), c3_wr_c3()):
        assert uvar.u_residual(g).element_set() == g.derived_subgroup().element_set()


def test_u_residual_and_is_u_closed_build_g_prime_once_and_search_nothing(monkeypatch):
    # u_residual takes two normal closures in G, G' and R, except where the
    # seeds hold every generator commutator, so that R = G' (A4, Q8, the
    # Sylow 2-subgroup of S8), and is_u_closed one, G' of the coset group;
    # neither reaches a normalizer tower or the chief-series search, not
    # even through the check of G/R
    closures = []
    real_closure = PermGroup.normal_closure

    def normal_closure(self, seeds):
        closures.append(self)
        return real_closure(self, seeds)

    def refuse(self, *args):
        raise AssertionError("a search over G's elements")

    monkeypatch.setattr(PermGroup, "normal_closure", normal_closure)
    monkeypatch.setattr(PermGroup, "_normalizer_tower", refuse)
    monkeypatch.setattr(PermGroup, "is_supersolvable", refuse)
    for g, expected in ((s4(), 2), (a4(), 1), (q8(), 1), (sylow_2_of_s8(), 1), (s3_wr_c2(), 2)):
        closures.clear()
        assert not uvar.u_residual(g).is_trivial()
        assert sum(h is g for h in closures) == expected
        closures.clear()
        assert not uvar.is_u_closed(Automaton.from_action(len(g.generators), list(g.generators)))
        assert len(closures) == 1


def test_u_residual_of_q8_is_g_prime_closed_once(monkeypatch):
    # Q8's seeds hold [i, j] = -1, so R = G' = {1, -1}: the one normal
    # closure is G' itself, and R is that very group
    closures = []
    real_closure = PermGroup.normal_closure
    monkeypatch.setattr(PermGroup, "normal_closure",
                        lambda self, seeds: closures.append(self) or real_closure(self, seeds))
    g = q8()
    residual = uvar.u_residual(g)
    assert closures == [g] and residual is g.derived_subgroup() and residual.order == 2


def test_u_residual_agrees_with_the_lattice_search_on_the_fixtures():
    # both routes of u_residual: R = G' read off the generator commutators,
    # and the normal closure of the seeds
    shortcut = 0
    for name, images in fixture_images().items():
        g = PermGroup(len(images[0]), images)
        seeds = {seed for _, _, seed in uvar._residual_seeds(g)}
        shortcut += all(c in seeds or c == g.identity()
                        for c in itertools.starmap(pg.commutator,
                                                   itertools.combinations(g.generators, 2)))
        residual = uvar.u_residual(g)
        expected = u_residual_by_lattice(PermGroup(g.degree, g.generators))
        assert residual.element_set() == expected.element_set(), name
    assert 0 < shortcut < len(fixture_images())


def test_is_u_closed_counts_only_g_prime_against_the_cap():
    # the point stabilizer of the left-regular D4 x C2^6, of degree 512 and
    # rank 8: G' is the centre of D4, of order 2, and the generators of D4
    # do not commute, which an S seed shows
    c2_6 = PermGroup(12, [cycles(12, (2 * i, 2 * i + 1)) for i in range(6)])
    g = left_regular(direct_product(d4(), c2_6))
    h = Automaton.from_action(len(g.generators), list(g.generators))
    assert (g.degree, h.rank) == (512, 8)
    assert not uvar.is_u_closed(h, cap=100)
    with pytest.raises(CapExceededError):
        h.coset_group(100).elements()


def affine(p, *matrices):
    """F_p^2 by the translation by (1, 1) and the given matrices, acting
    on its p^2 points."""
    points = [(x, y) for x in range(p) for y in range(p)]
    index = {v: i for i, v in enumerate(points)}
    gens = [tuple(index[((x + 1) % p, (y + 1) % p)] for x, y in points)]
    gens += [tuple(index[((a * x + b * y) % p, (c * x + e * y) % p)] for x, y in points)
             for (a, b), (c, e) in matrices]
    return PermGroup(p * p, gens)


def residual_floor(g):
    """The normal closure N0 of the seeds that the Sylow and derived
    conditions give, without the supersolvability seeds."""
    derived = g.derived_subgroup()
    seeds = list(derived.derived_subgroup().generators)
    for p in factorize(g.order):
        gens = g.sylow(p).generators
        seeds += [pg.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    seeds += [pg.perm_power(x, math.prod(factorize(pg.perm_order(x)))) for x in derived.generators]
    return g.normal_closure(seeds)


def residual_parts():
    """Groups to combine: in U or not, and the affine groups F_3^2:C_4,
    F_5^2:C_3 and F_3^2:C_8 with a 2-dimensional constituent."""
    parts = {"A4": a4(), "S4": s4(), "Q8": q8(), "D4": d4(), "S3": s3()}
    for p, d in [(7, 3), (5, 4)]:
        parts[f"G({p},{d})"] = GpdGroup(p, d).as_perm_group()
    parts["F3^2:C4"] = affine(3, ((0, 2), (1, 0)))
    parts["F5^2:C3"] = affine(5, ((0, 4), (1, 4)))
    parts["F3^2:C8"] = affine(3, ((0, 1), (1, 2)))
    parts["F7^2:C3xC3"] = affine(7, ((2, 0), (0, 1)), ((1, 0), (0, 2)))
    return parts


def random_generating_pair(rng, g):
    elems = sorted(g.elements())
    while True:
        pair = [rng.choice(elems), rng.choice(elems)]
        if PermGroup(g.degree, pair).order == g.order:
            return pair


def random_subdirect_products(seed, count, max_order=600):
    """Groups generated by the pairs of images of random generating pairs
    of one to three parts, whose orders multiply to at most max_order."""
    rng = random.Random(seed)
    parts = residual_parts()
    names = sorted(parts)
    products = []
    while len(products) < count:
        chosen = [rng.choice(names) for _ in range(rng.choice([1, 2, 2, 3]))]
        if math.prod(parts[name].order for name in chosen) > max_order:
            continue
        gens = random_generating_pair(rng, parts[chosen[0]])
        for name in chosen[1:]:
            gens = pair_images(gens, random_generating_pair(rng, parts[name]))
        products.append((chosen, PermGroup(len(gens[0]), gens)))
    return products


def test_affine_parts():
    # the translations are the residual exactly where the action on F_p^2
    # is irreducible
    parts = residual_parts()
    orders = {name: g.order for name, g in parts.items()}
    assert orders["F3^2:C4"] == 36 and orders["F5^2:C3"] == 75
    assert orders["F3^2:C8"] == 72 and orders["F7^2:C3xC3"] == 441
    for name in ("F3^2:C4", "F5^2:C3", "F3^2:C8"):
        assert uvar.u_residual(parts[name]).order == parts[name].degree
    assert uvar.u_residual(parts["F7^2:C3xC3"]).is_trivial()


def test_u_residual_agrees_with_the_lattice_search_on_subdirect_products():
    # the supersolvability seeds raise N0 for some of them, so dropping
    # those seeds, or taking s^p for s^(p-1), fails here
    raised = 0
    for names, g in random_subdirect_products(29, 200):
        residual = uvar.u_residual(g)
        expected = u_residual_by_lattice(PermGroup(g.degree, g.generators))
        assert residual.element_set() == expected.element_set(), names
        assert all(seed in expected for _, _, seed in uvar._residual_seeds(g)), names
        if not residual.is_trivial() and residual_floor(g).order < residual.order:
            raised += 1
    assert raised >= 50


def test_cl_u_finite_index_matches_lattice_meet_on_wreath_point_stabilizers():
    for g in (sylow_2_of_s8(), c3_wr_c3(), s3_wr_c2()):
        h = Automaton.from_action(len(g.generators), list(g.generators))
        assert uvar.cl_u_finite_index(h).key == lattice_cl_u(h).key


# -- groups whose derived subgroup involves several primes ------------------------


def test_is_in_u_multi_prime_products():
    g54 = GpdGroup(5, 4).as_perm_group()
    report = uvar.is_in_u(direct_product(s3(), g54))  # G' = C15
    assert report.verdict and report.derived_elementary_abelian
    assert report.derived_witness_prime is None
    report = uvar.is_in_u(direct_product(GpdGroup(7, 6).as_perm_group(), g54))  # G' = C35
    assert report.verdict and report.derived_witness_prime is None
    report = uvar.is_in_u(g54)
    assert report.verdict and report.derived_witness_prime == 5
    # the dihedral group of order 18: supersolvable with abelian Sylow
    # subgroups, but its derived subgroup C9 has exponent 9
    rotation = tuple((i + 1) % 9 for i in range(9))
    reflection = tuple(-i % 9 for i in range(9))
    report = uvar.is_in_u(PermGroup(9, [rotation, reflection]))
    assert report.supersolvable and all(report.sylow_abelian.values())
    assert not report.derived_elementary_abelian and not report.verdict


def test_index_60_diagonal_kernel_is_u_closed():
    # the kernel of F_2 onto <(x,x),(y,y)> <= G(3,2) x G(5,4)
    first = list(GpdGroup(3, 2).as_perm_group().generators)
    second = list(GpdGroup(5, 4).as_perm_group().generators)
    h = kernel(pair_images(first, second))
    assert h.index() == 60
    assert uvar.is_u_closed(h) == (uvar.cl_u_finite_index(h) == h)
    assert uvar.is_u_closed(h)


def test_is_in_u_closed_under_direct_products():
    groups = {name: PermGroup(len(im[0]), im) for name, im in fixture_images().items()}
    verdicts = {name: uvar.is_in_u(g).verdict for name, g in groups.items()}
    names = sorted(groups)
    for i, a in enumerate(names):
        for b in names[i:]:
            product = direct_product(groups[a], groups[b])
            assert uvar.is_in_u(product).verdict == (verdicts[a] and verdicts[b]), (a, b)


def test_is_in_u_is_closed_under_subgroups_and_quotients():
    # U is a pseudovariety: the subgroups generated by seeded elements of a
    # group in U, and its quotients by the normal closures of seeded
    # elements, are in U
    rng = random.Random(59)
    images = fixture_images()
    groups = [PermGroup(len(im[0]), im) for im in images.values()]
    names = sorted(name for name, g in zip(images, groups) if uvar.is_in_u(g).verdict)
    groups += [subdirect(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    groups += [g for _, g in random_subdirect_products(61, 80, max_order=300)]
    in_u = [g for g in groups if uvar.is_in_u(g).verdict]
    proper_subgroups = proper_quotients = 0
    for g in in_u:
        elements = g.elements()
        for size in (1, 2, 2):
            sub = PermGroup(g.degree, rng.sample(elements, size))
            assert uvar.is_in_u(sub).verdict, (g.generators, sub.generators)
            proper_subgroups += 1 < sub.order < g.order
            normal = g.normal_closure(rng.sample(elements, size))
            quotient = g.quotient(normal)
            assert quotient.order * normal.order == g.order
            assert uvar.is_in_u(quotient).verdict, (g.generators, normal.generators)
            proper_quotients += 1 < normal.order < g.order
    assert len(in_u) >= 35 and proper_subgroups >= 60 and proper_quotients >= 40, \
        (len(in_u), proper_subgroups, proper_quotients)


def sl23():
    """SL(2,3) on the 8 nonzero vectors of F_3^2."""
    points = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}

    def matrix(a, b, c, e):
        return tuple(index[((a * x + b * y) % 3, (c * x + e * y) % 3)] for x, y in points)

    return PermGroup(8, [matrix(1, 1, 0, 1), matrix(1, 0, 1, 1)])


def test_the_report_is_read_off_g_prime_and_the_order_where_they_decide(monkeypatch):
    # supersolvable is False when G' is not nilpotent, and a Sylow
    # q-subgroup is abelian when |G|_q <= q^2 or q does not divide |G'|:
    # neither the chief-series search nor a normalizer tower runs there
    a5 = PermGroup(5, [cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    c5 = PermGroup(5, [cycles(5, (0, 1, 2, 3, 4))])
    s4_x_g52 = direct_product(s4(), GpdGroup(5, 2).as_perm_group())
    cases = {  # group: the primes whose Sylow subgroups no rule decides
        "S4, G' = A4": (s4(), [2]),
        "S4 x G(5,2), G' = A4 x C5": (s4_x_g52, [2]),
        "regular S4 x G(5,2), reduced": (left_regular(s4_x_g52), [2]),
        "A5": (a5, []),
        "A5 x G(7,3), G' = A5 x C7": (direct_product(a5, GpdGroup(7, 3).as_perm_group()), []),
        "S4 x C5^3, 5 not dividing |G'|": (direct_product(s4(), direct_product(
            c5, direct_product(c5, c5))), [2]),
    }
    expected = {name: is_in_u_by_enumeration(g) for name, (g, _) in cases.items()}
    towers = []
    real_tower = PermGroup._normalizer_tower

    def search(self):
        raise AssertionError("the chief-series search ran where G' decides")

    def tower(self, p):
        towers.append(p)
        return real_tower(self, p)

    monkeypatch.setattr(PermGroup, "is_supersolvable", search)
    monkeypatch.setattr(PermGroup, "_normalizer_tower", tower)
    for name, (group, undecided) in cases.items():
        towers.clear()
        report = uvar.is_in_u(PermGroup(group.degree, group.generators))
        assert report == expected[name], name
        assert not report.supersolvable and not report.derived_elementary_abelian, name
        assert towers == undecided, name
        assert uvar.is_supersolvable(PermGroup(group.degree, group.generators)) is False, name


def test_the_sylow_tower_walks_g_lazily_and_forms_each_p_part_once(monkeypatch):
    # the left-regular S4 x G(5,2), by its four product generators and by
    # a generating pair: |G| = 240 comes from the chain of the reduced
    # group, and only the Sylow 2-subgroup, of order 16 with 2 dividing
    # |G'| = 60, is left to the tower, which walks G only until it has
    # the 2-part, forming each element's 2-part once
    s4_x_g52 = direct_product(s4(), GpdGroup(5, 2).as_perm_group())
    rng = random.Random(1)
    pair = pair_images(random_generating_pair(rng, s4()),
                       random_generating_pair(rng, GpdGroup(5, 2).as_perm_group()))
    real_walk, real_power, real_tower = pg.bfs_walk, pg.perm_power, PermGroup._normalizer_tower
    walked, powered, towers = [], [], []

    def walk(*args):  # every enumeration and every lazy walk
        walked.append(0)
        for e in real_walk(*args):
            walked[-1] += 1
            yield e

    def power(perm, k):
        powered.append(perm)
        return real_power(perm, k)

    def tower(self, p):
        towers.append((self.degree, p))
        return real_tower(self, p)

    for group in (left_regular(s4_x_g52), left_regular(PermGroup(len(pair[0]), pair))):
        expected = is_in_u_by_enumeration(group)
        for log in (walked, powered, towers):
            log.clear()
        monkeypatch.setattr(pg, "bfs_walk", walk)
        monkeypatch.setattr(pg, "perm_power", power)
        monkeypatch.setattr(PermGroup, "_normalizer_tower", tower)
        report = uvar.is_in_u(PermGroup(group.degree, group.generators))
        monkeypatch.undo()
        assert report == expected and expected.sylow_abelian == {2: False, 3: True, 5: True}
        reduced = group.smaller_faithful_action()
        assert towers == [(reduced.degree, 2)] and reduced.degree < group.degree == 240
        assert walked and max(walked) < 240, walked
        assert powered and len(powered) == len(set(powered))


def test_the_chain_that_gives_the_order_counts_its_elements_against_the_cap():
    # the left-regular A5 x C5 keeps its centre, so it is not reduced, and
    # G' = A5 fits under a cap of 200; the chain that gives |G| = 300 keeps
    # one element of G for each of the 300 points of its first orbit
    a5 = PermGroup(5, [cycles(5, (0, 1, 2)), cycles(5, (0, 1, 2, 3, 4))])
    group = left_regular(direct_product(a5, PermGroup(5, [cycles(5, (0, 1, 2, 3, 4))])))
    assert group.smaller_faithful_action() is group
    with pytest.raises(CapExceededError, match="cap 200"):
        uvar.is_in_u(PermGroup(group.degree, group.generators, cap=200))
    assert uvar.is_in_u(PermGroup(group.degree, group.generators, cap=300)) == \
        is_in_u_by_enumeration(group)


def test_sl23_reaches_the_chief_series_search(monkeypatch):
    # G' = Q8 is nilpotent, so no rule decides supersolvable; the search
    # does, and answers False
    group = sl23()
    assert group.order == 24 and group.derived_subgroup().order == 8
    searched = []
    real = PermGroup.is_supersolvable
    monkeypatch.setattr(PermGroup, "is_supersolvable",
                        lambda self: searched.append(self.order) or real(self))
    report = uvar.is_in_u(group)
    assert report == uvar.UMembershipReport(
        verdict=False, supersolvable=False, derived_elementary_abelian=False,
        derived_witness_prime=None, sylow_abelian={2: False, 3: True})
    assert searched == [24]
    assert uvar.is_supersolvable(sl23()) is False and searched == [24, 24]


def test_is_in_u_reports_the_same_on_a_smaller_faithful_action(monkeypatch):
    # regular representations of fixtures and of products of two, with the
    # degree floor lifted so that even the small ones try the reduction;
    # S4 x G(5,2) and A4 are not in U, and C3 x G(7,3), Q8 and D4 have a
    # nontrivial centre, so their action on classes is not faithful
    gpd = {(p, d): GpdGroup(p, d).as_perm_group()
           for p, d in [(3, 2), (5, 2), (5, 4), (7, 3), (11, 10)]}
    c3 = PermGroup(3, [(1, 2, 0)])
    groups = [s3(), s4(), a4(), d4(), q8(), c2xc4(), *gpd.values()]
    groups += [direct_product(*pair) for pair in [
        (s4(), gpd[5, 2]), (c3, gpd[7, 3]), (s3(), gpd[5, 4]), (q8(), gpd[5, 4]),
        (d4(), s3()), (a4(), c3), (gpd[7, 3], gpd[5, 2]), (gpd[3, 2], gpd[5, 4])]]
    reduced_count = 0
    for group in groups:
        regular = left_regular(group)
        monkeypatch.setattr(pg, "REDUCTION_MIN_DEGREE", 10**9)
        unreduced = uvar.is_in_u(regular)
        monkeypatch.setattr(pg, "REDUCTION_MIN_DEGREE", 0)
        assert uvar.is_in_u(regular) == unreduced, group
        reduced_count += regular.smaller_faithful_action() is not regular
    assert reduced_count >= 5


# -- the commutator route against enumeration -------------------------------------


def random_small_groups(seed, count, max_degree=7):
    """Groups of one to three random permutations, or random cycles, of
    degree 1 to max_degree."""
    rng = random.Random(seed)
    groups = []
    for _ in range(count):
        degree = rng.randrange(1, max_degree + 1)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.5:
                points = list(range(degree))
                rng.shuffle(points)
                gens.append(tuple(points))
            else:
                gens.append(cycles(degree, rng.sample(range(degree), rng.randrange(1, degree + 1))))
        groups.append(PermGroup(degree, gens))
    return groups


def coset_groups(seed):
    """Regular representations like the benchmark's coset groups: the
    G(11,10) x G(7,6) diagonal and seeded subdirect products of fixtures
    and of the residual parts."""
    rng = random.Random(seed)
    images = fixture_images()
    gpd = {(p, d): GpdGroup(p, d).as_perm_group() for p, d in [(11, 10), (7, 6)]}
    groups = [left_regular(PermGroup(152, pair_images(list(gpd[11, 10].generators),
                                                     list(gpd[7, 6].generators))))]
    for names in [("G(7,6)", "G(5,4)"), ("S4", "G(5,2)"), ("G(5,4)", "G(3,2)"), ("G(7,3)",),
                  ("A4", "G(5,4)"), ("Q8", "G(7,3)"), ("D4", "G(5,2)"), ("S3", "G(7,6)")]:
        gens = None
        for name in names:
            pair = random_generating_pair(rng, PermGroup(len(images[name][0]), images[name]))
            gens = pair if gens is None else pair_images(gens, pair)
        groups.append(left_regular(PermGroup(len(gens[0]), gens)))
    groups += [left_regular(g) for _, g in random_subdirect_products(seed, 12, max_order=480)]
    return groups


def test_is_in_u_matches_the_enumeration_route():
    # is_in_u (and is_supersolvable) read the Sylow and supersolvability
    # conditions off G' and the generators when G' is abelian of squarefree
    # exponent; dropping any of its three commutator conditions changes a
    # report here
    groups = coset_groups(41)
    groups += [g for _, g in random_subdirect_products(43, 240)]
    images = {name: PermGroup(len(im[0]), im) for name, im in fixture_images().items()}
    names = sorted(images)
    groups += [direct_product(images[a], images[b]) for i, a in enumerate(names) for b in names[i:]]
    groups += [subdirect(a, b) for a in names for b in names if a != b]
    groups += random_small_groups(47, 420)
    # F3^2:C6, of order 54, with a unipotent 3-part: a generating pair of
    # an involution and an element of order 3 or 6 has one generator with
    # a nontrivial 3-part, and only its commutators with G'_3 show that
    # the Sylow 3-subgroup is not abelian
    rng = random.Random(53)
    unipotent = affine(3, ((2, 2), (0, 2)))
    groups += [PermGroup(9, random_generating_pair(rng, unipotent)) for _ in range(20)]
    outside = 0
    for group in groups:
        report = uvar.is_in_u(PermGroup(group.degree, group.generators))
        expected = is_in_u_by_enumeration(group)
        assert report == expected, group.generators
        assert (next(uvar._residual_seeds(group), None) is None) == expected.verdict, group.generators
        # the supersolvable command takes the same route
        assert uvar.is_supersolvable(PermGroup(group.degree, group.generators)) == \
            expected.supersolvable, group.generators
        outside += report.derived_elementary_abelian and not report.verdict
    assert len(groups) >= 800 and outside >= 200, (len(groups), outside)


def test_the_spanning_tree_is_built_once_per_automaton(monkeypatch):
    # check_image_walk, _ImageSubgroup and u_density_check's basis sums
    # all read the tree; it is built on first use and kept
    built, read = [], []
    build, tree = Automaton._build_tree, Automaton._tree
    monkeypatch.setattr(Automaton, "_build_tree", lambda self: built.append(self) or build(self))
    monkeypatch.setattr(Automaton, "_tree", lambda self: read.append(self) or tree(self))
    for run in (lambda h: apd.closure(h, 5, 4), lambda h: apd.status(h, 7, 3),
                lambda h: uvar.u_density_check(h, bound=7)):
        h = aut(2, "aab", "bAbb", "ba")
        built.clear()
        read.clear()
        run(h)
        assert built == [h] and len(read) >= 2


def test_is_in_u_answers_past_the_element_cap_when_g_prime_fits():
    # S3, A4 and D4 times C2^k on 2k more points, with a cap below their
    # orders.  S3 x C2^k is in U and A4 x C2^k is not supersolvable, both
    # read off G' and the generators.  D4 x C2^k has a non-abelian Sylow
    # 2-subgroup, so its supersolvability is searched over its elements,
    # which the cap refuses
    def times_swaps(group, k, cap):
        product = direct_product(group, PermGroup(2 * k, [cycles(2 * k, (2 * i, 2 * i + 1))
                                                          for i in range(k)]))
        return PermGroup(product.degree, product.generators, cap=cap)

    expected = {"S3": uvar.UMembershipReport(True, True, True, 3, {2: True, 3: True}),
                "A4": uvar.UMembershipReport(False, False, True, 2, {2: True, 3: True})}
    for name, group in (("S3", s3()), ("A4", a4())):
        product = times_swaps(group, 8, 1000)
        assert uvar.is_in_u(product) == expected[name]
        with pytest.raises(CapExceededError):
            product.elements()
        assert is_in_u_by_enumeration(times_swaps(group, 8, 2**12)) == expected[name]
    with pytest.raises(CapExceededError):
        uvar.is_in_u(times_swaps(d4(), 6, 100))
    answered = uvar.is_in_u(times_swaps(d4(), 6, 2**9))
    assert answered == uvar.UMembershipReport(False, True, True, 2, {2: False})
