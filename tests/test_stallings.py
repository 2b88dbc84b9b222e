import gc
import random
import time
import tracemalloc

import pytest

from provar import apd, uvar
from provar import permgroup as pg
from provar.errors import CapExceededError, NotFiniteIndexError
from provar.stallings import Automaton, _renumber
from provar.words import commutator, identity, parse, word
from tests.oracles import (
    all_subgroups,
    contains_subgroup,
    fold_by_union_find,
    generators_by_union_find,
    index_and_basis_by_vertex_words,
    tree_by_seen_set,
    vertex_words,
)


def aut(rank, *texts):
    return Automaton.from_generators([parse(t, rank) for t in texts], rank)


def random_word(rng, rank, max_len):
    letters = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
               for _ in range(rng.randrange(1, max_len + 1))]
    return word(letters, rank)


# -- independent coset-enumeration oracle --------------------------------
#
# For a finite permutation group G with chosen generator images, the
# preimage in F_n of a subgroup S <= G has, as its Stallings automaton,
# the (complete) Schreier graph of G acting on the cosets of S.  That
# graph is built here from scratch, without any folding.  Permutations
# are composed as tuples, whatever the representation of the caller's.

def schreier_preimage(images, sub_elements):
    degree = len(images[0])
    images = [tuple(img) for img in images]
    sub = frozenset(map(tuple, sub_elements))
    identity = tuple(range(degree))
    cosets = {}
    reps = []

    def coset_key(g):
        return frozenset(pg.compose(x, g) for x in sub)

    start = coset_key(identity)
    cosets[start] = 0
    reps.append(identity)
    queue = [identity]
    while queue:
        g = queue.pop()
        for img in images:
            h = pg.compose(g, img)
            key = coset_key(h)
            if key not in cosets:
                cosets[key] = len(cosets)
                reps.append(h)
                queue.append(h)
    perms = []
    for img in images:
        perms.append(tuple(cosets[coset_key(pg.compose(r, img))] for r in reps))
    return Automaton.from_action(len(images), perms)


def eval_word(images, w):
    """The image of w, as a tuple."""
    g = tuple(range(len(images[0])))
    for letter in w.letters:
        img = tuple(images[abs(letter) - 1])
        g = pg.compose(g, img if letter > 0 else pg.inverse(img))
    return g


S3_IMAGES = [(1, 0, 2), (1, 2, 0)]  # a -> (0 1), b -> (0 1 2)
C2_IMAGES = [(1, 0), (1, 0)]  # a, b -> the transposition


def test_build_examples():
    a_loop = aut(2, "a")
    assert a_loop.n_vertices == 1
    assert a_loop.membership(parse("aaa", 2))
    assert not a_loop.membership(parse("b", 2))

    two = aut(2, "aa", "ab")
    assert two.n_vertices == 2
    assert two.membership(parse("ab", 2) * parse("aa", 2).inverse() * parse("ab", 2))

    assert aut(2, "aa", "aA") == aut(2, "aa")
    assert aut(1, "aa", "aA") == aut(1, "aa")


def test_build_empty_and_full():
    assert Automaton.trivial(2).n_vertices == 1
    assert Automaton.trivial(2).index() is None
    full = Automaton.full_group(2)
    assert full.index() == 1
    assert full.is_complete()


def test_folding_confluence_under_permutation():
    rng = random.Random(42)
    for _ in range(50):
        rank = rng.choice([1, 2, 3])
        gens = [random_word(rng, rank, 6) for _ in range(rng.randrange(1, 5))]
        reference = Automaton.from_generators(gens, rank)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Automaton.from_generators(shuffled + [gens[0]], rank) == reference


def test_membership_random_products():
    rng = random.Random(99)
    gens = [parse("aab", 2), parse("bba", 2), parse("abab", 2)]
    auto = Automaton.from_generators(gens, 2)
    for _ in range(1000):
        w = identity(2)
        for _ in range(rng.randrange(6)):
            pick = rng.choice(gens)
            w = w * (pick if rng.random() < 0.5 else pick.inverse())
        assert auto.membership(w)


def test_index_and_basis_examples():
    full = Automaton.full_group(2)
    idx, basis = full.index_and_basis()
    assert idx == 1
    assert sorted(str(w) for w in basis) == ["a", "b"]

    assert aut(2, "a").index() is None

    # kernel of F2 -> C2 sending both generators to the swap
    ker = schreier_preimage(C2_IMAGES, [pg.perm_identity(2)])
    idx, basis = ker.index_and_basis()
    assert idx == 2
    assert len(basis) == 3  # Nielsen-Schreier: 1 + 2(2-1)
    for w in basis:
        assert eval_word(C2_IMAGES, w) == tuple(pg.perm_identity(2))


def test_index_and_basis_match_the_vertex_word_oracle():
    # the parent-pointer spelling against words built per vertex by
    # products along the same tree, on folded and action automata of
    # rank 1-3, intransitive actions included; the exponent sums and
    # lengths read off the tree against the spelled words'
    rng = random.Random(16)
    automata = []
    for _ in range(200):
        rank = rng.randrange(1, 4)
        gens = [random_word(rng, rank, 9) for _ in range(rng.randrange(1, 5))]
        automata.append(Automaton.from_generators(gens, rank))
    for _ in range(200):
        rank, degree = rng.randrange(1, 4), rng.randrange(1, 16)
        split = rng.choice([degree, rng.randrange(1, degree + 1)])
        automata.append(Automaton.from_action(rank, random_action(rng, rank, degree, split)))
    automata += [Automaton.trivial(2), Automaton.full_group(3), aut(1, "a^40"), aut(2, "a^9b^-7a")]
    words = 0
    for a in automata:
        index, basis = a.index_and_basis()
        assert (index, basis) == index_and_basis_by_vertex_words(a), a.to_json_dict()
        assert a.basis_sums() == [(w.abelianization(), len(w)) for w in basis]
        assert a.coset_representatives() == vertex_words(a)[0]
        assert len(basis) == sum(t >= 0 for targets in a.out[1:a.rank + 1] for t in targets) - a.n_vertices + 1
        words += len(basis)
    assert words > 1000


def test_a_long_cycle_is_spelled_in_linear_time_and_memory():
    # <a^12288> has one basis word, of 12288 letters; words built per
    # vertex by products along the tree peak at about 305 MB under tracemalloc
    cycle = aut(1, "a^12288")
    start = time.perf_counter()
    basis = cycle.basis()
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        assert cycle.basis() == basis == [parse("a^12288", 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert elapsed < 2.0
    assert cycle.basis_sums() == [((12288,), 12288)]


def test_nielsen_schreier_rank_for_kernels():
    s4 = [(1, 0, 2, 3), (1, 2, 3, 0)]
    ker = schreier_preimage(s4, [pg.perm_identity(4)])
    idx, basis = ker.index_and_basis()
    assert idx == 24
    assert len(basis) == 1 + 24 * (2 - 1)
    for w in basis[:5]:
        assert eval_word(s4, w) == tuple(pg.perm_identity(4))


def test_join_examples():
    assert aut(2, "a").join(aut(2, "b")) == Automaton.full_group(2)
    assert aut(1, "aa").join(aut(1, "aaa")) == Automaton.full_group(1)
    x = aut(2, "aa", "ab")
    assert x.join(x) == x


def test_intersect_examples():
    assert aut(1, "aa").intersect(aut(1, "aaa")) == aut(1, "a^6")
    x = aut(2, "aba", "bb")
    assert x.intersect(Automaton.full_group(2)) == x


def test_intersection_of_index_two_kernels():
    ker_a = schreier_preimage([(1, 0), (0, 1)], [pg.perm_identity(2)])  # a -> swap, b -> id
    ker_b = schreier_preimage([(0, 1), (1, 0)], [pg.perm_identity(2)])  # a -> id, b -> swap
    meet = ker_a.intersect(ker_b)
    assert meet.index() == 4
    ker_both = schreier_preimage(
        [(1, 0, 3, 2), (2, 3, 0, 1)], [pg.perm_identity(4)]
    )  # F2 -> C2 x C2
    assert meet == ker_both


def test_lattice_laws_against_coset_oracle():
    # preimages of subgroups of S3: intersect/join match the finite-group lattice
    s3 = pg.PermGroup(3, S3_IMAGES)
    subs = all_subgroups(s3)
    autos = [schreier_preimage(S3_IMAGES, s.elements()) for s in subs]
    for s1, a1 in zip(subs, autos):
        for s2, a2 in zip(subs, autos):
            meet_elems = s1.element_set() & s2.element_set()
            join_group = pg.PermGroup(3, list(s1.generators) + list(s2.generators))
            assert a1.intersect(a2) == schreier_preimage(S3_IMAGES, meet_elems)
            assert a1.join(a2) == schreier_preimage(S3_IMAGES, join_group.elements())
            # absorption laws
            assert a1.join(a1.intersect(a2)) == a1
            assert a1.intersect(a1.join(a2)) == a1


def test_lattice_laws_up_to_index_24():
    # same oracle over S4: subgroup preimages reach index 24
    s4_images = [(1, 0, 2, 3), (1, 2, 3, 0)]
    s4 = pg.PermGroup(4, s4_images)
    subs = sorted(all_subgroups(s4), key=lambda g: g.order)
    # one subgroup per order, to keep the quadratic loop small
    chosen = {}
    for sub in subs:
        chosen.setdefault(sub.order, sub)
    picked = list(chosen.values())
    autos = [schreier_preimage(s4_images, s.elements()) for s in picked]
    assert max(a.index() for a in autos) == 24
    for s1, a1 in zip(picked, autos):
        for s2, a2 in zip(picked, autos):
            meet_elems = s1.element_set() & s2.element_set()
            join_group = pg.PermGroup(4, list(s1.generators) + list(s2.generators))
            assert a1.intersect(a2) == schreier_preimage(s4_images, meet_elems)
            assert a1.join(a2) == schreier_preimage(s4_images, join_group.elements())


def test_coset_action():
    full = Automaton.full_group(2)
    group = full.coset_group()
    assert group.degree == 1
    assert group.order == 1

    ker = schreier_preimage(C2_IMAGES, [pg.perm_identity(2)])
    group = ker.coset_group()
    assert group.degree == 2
    assert tuple(map(tuple, group.generators)) == ((1, 0), (1, 0))
    assert group.order == 2

    cay = schreier_preimage(S3_IMAGES, [pg.perm_identity(3)])
    assert cay.coset_group().order == 6

    with pytest.raises(NotFiniteIndexError):
        aut(2, "a").coset_group()


def test_coset_action_order_properties():
    for images in (S3_IMAGES, [(1, 0, 2), (0, 2, 1)]):
        cay = schreier_preimage(images, [pg.perm_identity(3)])
        n = cay.n_vertices
        order = cay.coset_group().order
        assert order % n == 0  # transitivity
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert fact % order == 0


def test_from_action_round_trip():
    cay = schreier_preimage(S3_IMAGES, [pg.perm_identity(3)])
    assert Automaton.from_action(2, cay.coset_group().generators) == cay


def random_action(rng, rank, degree, split):
    """Random permutations that keep [0, split) and [split, degree)."""
    perms = []
    for _ in range(rank):
        low, high = list(range(split)), list(range(split, degree))
        rng.shuffle(low)
        rng.shuffle(high)
        perms.append(tuple(low + high))
    return perms


def test_the_spanning_tree_matches_a_seen_set_search():
    # _build_tree walks the vertices in their numbers' order and keeps no
    # seen set; the oracle searches with one, and reaches them in that order
    rng = random.Random(28)
    raw = Automaton.from_raw(2, 4, 3, [(3, 1, 0), (0, 2, 1), (1, 1, 3), (2, 2, 2), (1, 2, 3)])
    automata = [Automaton.trivial(2), Automaton.full_group(3), aut(1, "a^7"), raw]
    for _ in range(40):
        rank = rng.randrange(1, 4)
        left = Automaton.from_generators(
            [random_word(rng, rank, 8) for _ in range(rng.randrange(1, 4))], rank)
        degree = rng.randrange(1, 13)
        action = Automaton.from_action(rank, random_action(rng, rank, degree,
                                                           rng.randrange(1, degree + 1)))
        n = action.n_vertices
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]
        automata += [left, action, left.join(action), left.intersect(action),
                     action.identify(pairs)]
    for a in automata:
        parent, letter, depth, order = tree_by_seen_set(a)
        assert order == list(range(a.n_vertices)), a.to_json_dict()
        assert a._tree() == (parent, letter, depth), a.to_json_dict()


@pytest.mark.parametrize("out, message", [
    ([None, [2, 0, 1], [1, 2, 0]], "vertex 2 is not numbered in breadth-first order"),
    ([None, [0, 1], [0, 1]], "reached 1 of 2 vertices"),
])
def test_the_spanning_tree_refuses_a_table_out_of_search_order(out, message):
    # a table that _renumber did not write: a 3-cycle numbered 0 -> 2 -> 1,
    # and a loop at a vertex that the basepoint does not reach
    with pytest.raises(AssertionError, match=message):
        Automaton(1, out)._tree()


def test_from_action_equals_the_fold_of_its_edges():
    rng = random.Random(41)
    actions = [[(0,)], [(0,), (0,)], [(0, 1, 2)], [(0, 1, 2, 3), (1, 0, 3, 2)], [(1, 0, 2)]]
    for _ in range(60):
        rank, degree = rng.randrange(1, 4), rng.randrange(1, 13)
        # split = degree gives a random action, 0 < split < degree an intransitive one
        actions.append(random_action(rng, rank, degree, rng.randrange(1, degree + 1)))
    intransitive = 0
    for perms in actions:
        rank, degree = len(perms), len(perms[0])
        edges = [(v, g, p[v]) for g, p in enumerate(perms, start=1) for v in range(degree)]
        got = Automaton.from_action(rank, [list(p) for p in perms])
        folded = Automaton.from_raw(rank, degree, 0, edges)
        assert (got.key, got.out) == (folded.key, folded.out)
        assert got.is_complete()
        intransitive += got.n_vertices < degree
    assert intransitive > 10


@pytest.mark.parametrize("rank, perms, message", [
    (1, [(0, 0)], "transition target 0 is met twice"),
    (1, [(0, 0, 2)], "transition target 0 is met twice"),
    (1, [(1, 2)], "transition target 2 is out of range for 2 vertices"),
    (1, [(1, 3, 0)], "transition target 3 is out of range for 3 vertices"),
    (1, [(1, -1, 0)], "transition target -1 is out of range for 3 vertices"),
    (2, [(0, 1, 2), (1, 0)], "transitions must all have the same length"),
    (2, [(1, 0), (1, 0, 2)], "transitions must all have the same length"),
    (2, [(0, 1), (0,)], "transitions must all have the same length"),
    (2, [(), ()], "transitions need at least the point 0"),
    (2, [(0, 1)], "need one permutation per generator"),
    (1, [(1, 0), (1, 0)], "need one permutation per generator"),
])
def test_from_action_refuses_what_is_not_a_permutation(rank, perms, message):
    with pytest.raises(ValueError) as refused:
        Automaton.from_action(rank, perms)
    assert str(refused.value) == message


def test_intermediate_subgroups_examples():
    assert Automaton.full_group(2).intermediate_subgroups() == [Automaton.full_group(2)]

    between = aut(1, "aa").intermediate_subgroups()
    assert between == [aut(1, "aa"), Automaton.full_group(1)]

    six = aut(1, "a^6").intermediate_subgroups()
    assert len(six) == 4  # one per divisor of 6
    assert set(six) == {aut(1, "a^6"), aut(1, "a^3"), aut(1, "a^2"), aut(1, "a")}


def test_intermediate_subgroups_match_finite_lattice():
    # subgroups of F2 over the kernel of F2 -> S3 correspond to subgroups of S3
    ker = schreier_preimage(S3_IMAGES, [pg.perm_identity(3)])
    intermediates = ker.intermediate_subgroups()
    s3 = pg.PermGroup(3, S3_IMAGES)
    expected = {
        schreier_preimage(S3_IMAGES, s.elements()).key for s in all_subgroups(s3)
    }
    assert {a.key for a in intermediates} == expected
    # closed under join
    for x in intermediates:
        for y in intermediates:
            assert x.join(y).key in expected


def test_intermediate_subgroups_non_normal():
    # preimage of the point stabilizer <(0 1)> in S3: index 3, not normal;
    # only <(0 1)> and S3 itself contain it
    s3 = pg.PermGroup(3, S3_IMAGES)
    stab = s3.subgroup([(1, 0, 2)])
    preimage = schreier_preimage(S3_IMAGES, stab.elements())
    assert preimage.index() == 3
    intermediates = preimage.intermediate_subgroups()
    assert len(intermediates) == 2
    assert {a.key for a in intermediates} == {
        preimage.key,
        schreier_preimage(S3_IMAGES, s3.elements()).key,
    }


def product_edges(x, y):
    """(vertex count, edges) of the product of two automata: the pairs
    reached from the pair of basepoints along edges of either direction,
    numbered as met, unfolded and untrimmed."""
    seen = {(x.base, y.base): 0}
    queue = [(x.base, y.base)]
    edges = []
    for u1, u2 in queue:  # the queue grows while it is read
        for g in range(1, x.rank + 1):
            for s in (g, -g):
                v1, v2 = x.step(u1, s), y.step(u2, s)
                if v1 is None or v2 is None:
                    continue
                if (v1, v2) not in seen:
                    seen[v1, v2] = len(queue)
                    queue.append((v1, v2))
                if s > 0:
                    edges.append((seen[u1, u2], g, seen[v1, v2]))
    return len(queue), edges


def reference_cases(rng):
    """(rank, words) for ``from_generators``: random words of ranks 1-3
    with the identity, repeats, inverse pairs and words that are not
    cyclically reduced thrown in, and the bases of Schreier graphs of
    random actions of degree up to 110."""
    cases = []
    for _ in range(400):
        rank = rng.randrange(1, 4)
        words = [random_word(rng, rank, 10) for _ in range(rng.randrange(1, 5))]
        extra = rng.choice(["identity", "repeat", "inverse", "conjugate", "none"])
        if extra == "identity":
            words.insert(rng.randrange(len(words) + 1), identity(rank))
        elif extra == "repeat":
            words.append(words[0])
        elif extra == "inverse":
            words.append(words[0].inverse())
        elif extra == "conjugate":
            u = random_word(rng, rank, 4)
            words.append(u * words[-1] * u.inverse())
        cases.append((rank, words))
    for degree in (1, 2, 7, 24, 60, 110):
        for rank in (1, 2, 3):
            action = Automaton.from_action(rank, random_action(rng, rank, degree, degree))
            cases.append((rank, action.basis()))
    return cases


def test_fold_matches_the_union_find_reference():
    rng = random.Random(24)
    cases = reference_cases(rng)
    for rank, words in cases:
        got, want = Automaton.from_generators(words, rank), generators_by_union_find(words, rank)
        assert (got.key, got.out) == (want.key, want.out), (rank, [str(w) for w in words])
    assert max(Automaton.from_generators(words, rank).n_vertices for rank, words in cases) > 100
    # unfolded edge lists: loops, repeated edges, parts the basepoint does not reach
    for _ in range(400):
        rank, nverts = rng.randrange(1, 4), rng.randrange(1, 10)
        edges = [(rng.randrange(nverts), rng.randrange(1, rank + 1), rng.randrange(nverts))
                 for _ in range(rng.randrange(15))]
        edges += [(v, g, v) for v, g, _ in rng.sample(edges, min(2, len(edges)))]
        edges += rng.sample(edges, min(3, len(edges)))
        base = rng.randrange(nverts)
        got = Automaton.from_raw(rank, nverts, base, edges)
        assert got.key == fold_by_union_find(rank, nverts, base, edges).key, (rank, nverts, base, edges)
    # join and intersect against the reference fold of the same data
    pairs = [(rank, words) for rank, words in cases if len(words) < 12]
    for (rank, words), (rank2, others) in zip(pairs, pairs[1:]):
        if rank != rank2:
            continue
        x, y = Automaton.from_generators(words, rank), Automaton.from_generators(others, rank)
        assert x.join(y).key == generators_by_union_find(words + others, rank).key
        nverts, edges = product_edges(x, y)
        assert x.intersect(y).key == fold_by_union_find(rank, nverts, 0, edges).key


def assert_table_invariants(a):
    """Each list of ``out`` has one entry per vertex, -1 or a vertex; the
    lists pair up, out[s][v] == t exactly when out[-s][t] == v; and
    numbering the table again changes nothing."""
    n = a.n_vertices
    assert len(a.out) == 2 * a.rank + 1 and a.out[0] is None
    for s in [s for g in range(1, a.rank + 1) for s in (g, -g)]:
        assert len(a.out[s]) == n
        for v, t in enumerate(a.out[s]):
            assert -1 <= t < n
            assert t < 0 or a.out[-s][t] == v
    again = _renumber([None] + [list(m) for m in a.out[1:]], a.base)
    assert (again.key, again.out) == (a.key, a.out)


def test_every_constructor_writes_a_paired_canonical_table():
    rng = random.Random(25)
    built = {name: [] for name in ("from_generators", "from_raw", "from_action", "join", "intersect",
                                   "closure", "cl_u_finite_index")}
    cases = reference_cases(rng)
    built["from_generators"] = [Automaton.from_generators(words, rank) for rank, words in cases[::4]]
    for _ in range(100):
        rank, nverts = rng.randrange(1, 4), rng.randrange(1, 10)
        edges = [(rng.randrange(nverts), rng.randrange(1, rank + 1), rng.randrange(nverts))
                 for _ in range(rng.randrange(15))]
        built["from_raw"].append(Automaton.from_raw(rank, nverts, rng.randrange(nverts), edges))
    for _ in range(40):
        rank, degree = rng.randrange(1, 4), rng.randrange(1, 13)
        perms = random_action(rng, rank, degree, rng.randrange(1, degree + 1))
        built["from_action"].append(Automaton.from_action(rank, perms))
    small = [a for a in built["from_generators"] if a.n_vertices < 12]
    for x, y in zip(small, small[1:]):
        if x.rank == y.rank:
            built["join"].append(x.join(y))
            built["intersect"].append(x.intersect(y))
    for a in small[:40]:
        for p, d in ((2, 1), (3, 2), (5, 4)):
            try:
                built["closure"].append(apd.closure(a, p, d, cap=2000))
            except CapExceededError:  # the closures of small index are the ones wanted
                pass
    for a in built["from_action"] + built["closure"]:
        if a.rank <= 2 and a.n_vertices <= 24:
            built["cl_u_finite_index"].append(uvar.cl_u_finite_index(a))
    for name, automata in built.items():
        assert sum(a.n_vertices > 1 for a in automata) >= 10, name
        for a in automata:
            assert_table_invariants(a)


def test_building_an_index_110_kernel_peaks_low():
    # the basis of the Cayley automaton of C11 x| C10: 111 words, 1 058
    # letters.  Made one vertex per letter and folded through one dict
    # per vertex, it peaked at about 147 KB under tracemalloc; read along
    # the edges already built, at about 12 KB.
    x, y = tuple((i + 1) % 11 for i in range(11)), tuple(2 * i % 11 for i in range(11))
    group = pg.PermGroup(11, [x, y])
    elements = group.elements()
    number = {e: k for k, e in enumerate(elements)}
    cayley = Automaton.from_action(2, [[number[pg.compose(e, g)] for e in elements]
                                       for g in group.generators])
    basis = cayley.basis()
    assert (len(basis), sum(len(w) for w in basis)) == (111, 1058)
    tracemalloc.start()
    try:
        built = Automaton.from_generators(basis, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == cayley
    assert peak < 48_000


def test_folding_leaves_no_cyclic_garbage():
    rng = random.Random(5)
    cases = reference_cases(rng)[::20]
    gc.collect()
    gc.disable()
    try:
        for rank, words in cases:
            x = Automaton.from_generators(words, rank)
            x.join(x).intersect(x)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("data, message", [
    ({"rank": 1, "vertices": 2, "base": 0, "edges": [[0, "a", -1], [1, "a", 0]]},
     "vertex -1 is out of range for 2 vertices"),
    ({"rank": 1, "vertices": 2, "base": 0, "edges": [[0, "a", 1], [1, "a", 2]]},
     "vertex 2 is out of range for 2 vertices"),
    ({"rank": 2, "vertices": 2, "base": 0, "edges": [[5, "b", 1], [1, "a", -3]]},
     "vertex 5 is out of range for 2 vertices"),
    ({"rank": 1, "vertices": 2, "base": -1, "edges": [[0, "a", 1]]},
     "base -1 is out of range for 2 vertices"),
    ({"rank": 1, "vertices": 2, "base": 2, "edges": []}, "base 2 is out of range for 2 vertices"),
    ({"rank": 1, "vertices": 0, "base": 0, "edges": []}, "base 0 is out of range for 0 vertices"),
    ({"rank": 2, "vertices": 1, "base": 0, "edges": [[0, "c", 0]]}, "edge label 'c' out of range"),
])
def test_from_json_refuses_vertex_numbers_out_of_range(data, message):
    with pytest.raises(ValueError) as refused:
        Automaton.from_json_dict(data)
    assert str(refused.value) == message


@pytest.mark.parametrize("label", [0, 3, -1])
def test_from_raw_refuses_labels_out_of_range(label):
    with pytest.raises(ValueError) as refused:
        Automaton.from_raw(2, 1, 0, [(0, 1, 0), (0, label, 0)])
    assert str(refused.value) == f"edge label {label} is out of range for rank 2"


def test_from_json_refuses_a_vertex_count_over_the_cap_before_building():
    # one million declared vertices and no edges peaked at about 122 MB
    # before the count was checked
    for count in (pg.DEFAULT_ELEMENT_CAP + 1, 1_000_000):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                Automaton.from_json_dict({"rank": 1, "vertices": count, "base": 0, "edges": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
    small = {"rank": 1, "vertices": 3, "base": 1, "edges": [[1, "a", 1]]}
    assert Automaton.from_json_dict(small) == Automaton.full_group(1)


def test_from_json_integer_labels():
    data = {"rank": 2, "vertices": 1, "base": 0, "edges": [[0, 1, 0], [0, 2, 0]]}
    assert Automaton.from_json_dict(data) == Automaton.full_group(2)


def test_a_rank_over_the_cap_is_refused():
    with pytest.raises(CapExceededError):
        Automaton.trivial(pg.DEFAULT_ELEMENT_CAP + 1)


def test_high_rank_words_and_automata():
    w = word((27, -5, 27), 30)
    assert "g27" in str(w)
    auto = Automaton.from_generators([w], 30)
    assert auto.membership(w)
    assert not auto.membership(word((5,), 30))


def test_contains_subgroup():
    big = aut(2, "a", "b")
    small = aut(2, "ab", "ba")
    assert contains_subgroup(big, small)
    assert not contains_subgroup(small, big)


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        auto = Automaton.from_generators(
            [random_word(rng, 2, 6) for _ in range(3)], 2
        )
        assert Automaton.from_json_dict(auto.to_json_dict()) == auto


def test_dot_output():
    text = aut(2, "ab").to_dot()
    assert "doublecircle" in text
    assert '[label="a"]' in text


def test_commutator_subgroup_membership():
    # the commutator [a,b] lies in every index-2 preimage over an abelian quotient
    ker = schreier_preimage(C2_IMAGES, [pg.perm_identity(2)])
    assert ker.membership(commutator(parse("a", 2), parse("b", 2)))
