import random

import pytest

from provar import permgroup as pg
from provar.apd import GpdGroup
from provar.errors import CapExceededError
from provar.numtheory import is_prime
from provar.permgroup import PermGroup
from tests.oracles import all_subgroups, normal_subgroups_containing


# fixture groups
def s3():
    return PermGroup(3, [(1, 0, 2), (1, 2, 0)])


def s4():
    return PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def a4():
    return PermGroup(4, [(1, 0, 3, 2), (1, 2, 0, 3)])


def d4():
    return PermGroup(4, [(1, 2, 3, 0), (2, 1, 0, 3)])  # 4-cycle and a reflection


def q8():
    # x = (0 1 2 3)(4 5 6 7), y = (0 4 2 6)(1 7 3 5): y x y^-1 = x^-1, y^2 = x^2
    x = (1, 2, 3, 0, 5, 6, 7, 4)
    y = (4, 7, 6, 5, 2, 1, 0, 3)
    return PermGroup(8, [x, y])


def c12():
    return PermGroup(12, [tuple((i + 1) % 12 for i in range(12))])


def c2xc4():
    return PermGroup(6, [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)])


def direct_product(first, second):
    """First x second, acting on the disjoint union of their points."""
    shift = first.degree
    degree = shift + second.degree
    gens = [tuple(g) + tuple(range(shift, degree)) for g in first.generators]
    gens += [tuple(range(shift)) + tuple(shift + v for v in g) for g in second.generators]
    return PermGroup(degree, gens)


def left_regular(G, cap=pg.DEFAULT_ELEMENT_CAP):
    """G's generators acting on its elements by left multiplication."""
    elems = G.elements()
    index = {e: i for i, e in enumerate(elems)}
    gens = [tuple(index[pg.compose(g, e)] for e in elems) for g in G.generators]
    return PermGroup(len(elems), gens, cap=cap)


def brute_commutator_subgroup(G):
    # oracle: subgroup generated by all commutators of all element pairs
    elems = G.elements()
    comms = {pg.commutator(a, b) for a in elems for b in elems}
    return PermGroup(G.degree, sorted(comms))


def brute_max_p_subgroup_order(G, p):
    # oracle: exhaustive extension through all subgroups, track p-power orders
    best = 1
    for sub in all_subgroups(G):
        order = sub.order
        n = order
        while n % p == 0:
            n //= p
        if n == 1 and order > best:
            best = order
    return best


def supersolvable_oracle(G):
    # a finite group is supersolvable iff every maximal subgroup has prime index
    subs = all_subgroups(G)
    proper = [s for s in subs if s.order < G.order]
    maximal = [
        s
        for s in proper
        if not any(
            s.order < t.order < G.order and s.element_set() <= t.element_set()
            for t in proper
        )
    ]
    return all(is_prime(G.order // m.order) for m in maximal)


def test_compose_convention_left_regular_is_homomorphism():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    G = PermGroup.from_cayley_table(3, table)
    assert G.order == 3


def test_enumerate_examples():
    assert PermGroup(2, [(1, 0)]).order == 2
    assert s3().order == 6
    assert d4().order == 8
    assert q8().order == 8
    assert a4().order == 12
    assert s4().order == 24


def test_enumerate_cap():
    with pytest.raises(CapExceededError):
        PermGroup(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=10).elements()


def test_lagrange_everywhere():
    for G in (s3(), s4(), a4(), d4(), q8(), c12()):
        for sub in all_subgroups(G):
            assert G.order % sub.order == 0


def test_derived_subgroup_examples():
    assert c12().derived_subgroup().order == 1
    assert c2xc4().derived_subgroup().order == 1

    d = s3().derived_subgroup()
    assert d.order == 3  # A3

    d = a4().derived_subgroup()
    assert d.order == 4  # V4
    assert d.structure().elementary_abelian


def test_derived_subgroup_against_brute_force():
    for G in (s3(), s4(), a4(), d4(), q8(), c12()):
        ours = G.derived_subgroup()
        brute = brute_commutator_subgroup(G)
        assert ours.element_set() == brute.element_set()
        assert ours.is_normal_in(G)
        assert G.quotient(ours).structure().abelian


def test_sylow_examples():
    assert s3().sylow(3).order == 3
    assert q8().sylow(2).order == 8
    assert s3().sylow(5).order == 1


def test_sylow_orders_match_p_part():
    for G in (s3(), s4(), a4(), d4(), q8(), c12()):
        n = G.order
        for p in (2, 3, 5):
            p_part = 1
            m = n
            while m % p == 0:
                p_part *= p
                m //= p
            syl = G.sylow(p)
            assert syl.order == p_part
            assert syl.is_subgroup_of(G)
            assert syl.order == brute_max_p_subgroup_order(G, p)


def test_quotient_examples():
    G = s3()
    trivial = PermGroup(3, [])
    assert G.quotient(trivial).order == 6
    assert G.quotient(G.derived_subgroup()).order == 2
    assert a4().quotient(a4().derived_subgroup()).order == 3


def test_quotient_rejects_non_normal():
    G = s3()
    twist = G.subgroup([(1, 0, 2)])
    with pytest.raises(ValueError):
        G.quotient(twist)


def test_supersolvable_examples():
    assert c12().is_supersolvable()
    assert c2xc4().is_supersolvable()
    assert s3().is_supersolvable()
    assert not a4().is_supersolvable()
    assert d4().is_supersolvable()
    assert q8().is_supersolvable()
    assert not s4().is_supersolvable()


def test_supersolvable_against_maximal_subgroup_oracle():
    for G in (s3(), a4(), d4(), q8(), c12(), c2xc4()):
        assert G.is_supersolvable() == supersolvable_oracle(G)


def test_supersolvable_no_backtracking_needed():
    # for supersolvable G, every prime-order normal cyclic subgroup leads to
    # a supersolvable quotient, so the first deterministic choice is safe
    for G in (s3(), d4(), q8(), c12(), c2xc4()):
        if not G.is_supersolvable():
            continue
        for x in G.elements():
            o = pg.perm_order(x)
            if not is_prime(o):
                continue
            cyc = PermGroup(G.degree, [x])
            if cyc.is_normal_in(G):
                assert G.quotient(cyc).is_supersolvable()


def test_structure_examples():
    v4 = PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    rep = v4.structure()
    assert rep.elementary_abelian and rep.exponent == 2 and rep.elementary_prime == 2

    c4 = PermGroup(4, [(1, 2, 3, 0)])
    rep = c4.structure()
    assert rep.abelian and not rep.elementary_abelian and rep.exponent == 4

    rep = a4().derived_subgroup().structure()
    assert rep.elementary_abelian and rep.elementary_prime == 2

    assert not q8().structure().abelian


def test_all_subgroups_counts():
    assert len(all_subgroups(s3())) == 6
    assert len(all_subgroups(s4())) == 30
    assert len(all_subgroups(q8())) == 6
    assert len(all_subgroups(a4())) == 10


def test_json_round_trip():
    G = s4()
    again = PermGroup.from_json_dict(G.to_json_dict())
    assert again.degree == 4 and again.element_set() == G.element_set()


def test_cayley_table_input():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = PermGroup.from_cayley_table(4, table)
    assert G.order == 4
    assert G.structure().exponent == 4
    with pytest.raises(ValueError):
        PermGroup.from_cayley_table(3, table)
    # the Cayley table of a non-abelian group gives back its order
    elements = q8().elements()
    index = {x: i for i, x in enumerate(elements)}
    q8_table = [[index[pg.compose(x, y)] for y in elements] for x in elements]
    assert PermGroup.from_cayley_table(8, q8_table).order == 8
    # no two-sided identity: both rows are the identity, or no row is
    for order, table in [(2, [[0, 1], [0, 1]]), (3, [[0, 1, 2], [0, 1, 2], [1, 2, 0]]),
                         (2, [[1, 0], [1, 0]])]:
        with pytest.raises(ValueError):
            PermGroup.from_cayley_table(order, table)
    # a two-sided identity, but the rows generate S3, not 3 elements,
    # within a cap of 4 as well as without one
    table = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
    for cap in (4, 100):
        with pytest.raises(ValueError):
            PermGroup.from_cayley_table(3, table, cap=cap)
    # a group table larger than the cap stays a cap error
    with pytest.raises(CapExceededError):
        PermGroup.from_cayley_table(8, q8_table, cap=4)


def test_cayley_table_keeps_at_most_log2_order_generators():
    # a row outside the group generated so far at least doubles it
    g32 = GpdGroup(3, 2).as_perm_group()
    groups = [PermGroup(1, []), c12(), c2xc4(), q8(), s4(),
              direct_product(GpdGroup(5, 2).as_perm_group(), g32),
              direct_product(GpdGroup(5, 4).as_perm_group(), g32)]
    for G in groups:
        elements = G.elements()
        index = {x: i for i, x in enumerate(elements)}
        rows = [tuple(index[pg.compose(x, y)] for y in elements) for x in elements]
        T = PermGroup.from_cayley_table(G.order, rows)
        assert T.order == G.order and set(map(tuple, T.generators)) <= set(rows)
        assert 2 ** len(T.generators) <= G.order


def test_perm_order_and_power_match_repeated_composition():
    for G in (s4(), q8(), c12(), c2xc4()):
        for x in G.elements():
            power = x
            order = 1
            while power != G.identity():
                power = pg.compose(power, x)
                order += 1
            assert pg.perm_order(x) == order == pg.perm_order(x, G.base())
            power = G.identity()
            for k in range(2 * order + 1):
                assert pg.perm_power(x, k) == power
                assert pg.perm_power(x, -k) == pg.inverse(power)
                power = pg.compose(power, x)


def random_groups(seed, count, max_degree=8):
    """Groups of up to three random permutations, random cycles or
    random transpositions, of degree 1 to max_degree."""
    rng = random.Random(seed)
    groups = []
    for _ in range(count):
        degree = rng.randrange(1, max_degree + 1)
        gens = []
        for _ in range(rng.randrange(0, 4)):
            points = list(range(degree))
            kind = rng.randrange(3)
            if kind == 0:
                rng.shuffle(points)
            else:
                moved = rng.sample(range(degree), rng.randrange(1, degree + 1) if kind == 1
                                   else min(2, degree))
                for a, b in zip(moved, moved[1:] + moved[:1]):
                    points[a] = b
            gens.append(tuple(points))
        groups.append(PermGroup(degree, gens))
    return groups


def check_stabilizer_chains(monkeypatch, groups) -> set[int]:
    """The orders of the groups, after checking each group's chains
    against its enumeration.  With no bound, and with a bound above |G|,
    the chain runs to completion; with the bound |G| it may stop early,
    and is then still a base and strong generating set: the same order,
    a base that only the identity fixes, and the same membership."""
    searches = dict.fromkeys(["full", "above", "bounded", "capped"], 0)
    real = pg.StabilizerChain._schreier_failure

    def counted(self, i):
        searches[kind] += 1
        return real(self, i)

    monkeypatch.setattr(pg.StabilizerChain, "_schreier_failure", counted)
    rng = random.Random(3)
    orders = set()
    for G in groups:
        elements = G.element_set()
        kind = "full"
        full = pg.StabilizerChain(G.degree, G.generators)
        kind = "above"
        above = pg.StabilizerChain(G.degree, G.generators, bound=len(elements) + 1)
        assert (above.base, above.strong, above.transversals) == \
            (full.base, full.strong, full.transversals), G.generators
        # the chain keeps its transversal elements under its cap
        kind = "capped"
        kept = sum(map(len, full.transversals))
        assert pg.StabilizerChain(G.degree, G.generators, cap=kept).order == full.order
        if kept:
            with pytest.raises(CapExceededError):
                pg.StabilizerChain(G.degree, G.generators, cap=kept - 1)
        tried = rng.sample(sorted(elements), min(5, len(elements)))
        for _ in range(5):
            points = list(range(G.degree))
            rng.shuffle(points)
            tried.append(pg.as_perm(points, G.degree))
        kind = "bounded"
        bounded = pg.StabilizerChain(G.degree, G.generators, bound=len(elements))
        for chain in (full, bounded):
            assert chain.order == len(elements), G.generators
            orders.add(chain.order)
            for i, (b, back) in enumerate(zip(chain.base, chain.transversals)):
                assert all(g[c] == c for g in chain.strong[i] for c in chain.base[:i])
                assert all(u[x] == b and u in elements for x, u in back.items())
            assert sum(map(len, chain.transversals)) <= max(1, chain.order)
            assert all(any(g[b] != b for b in chain.base) for g in elements if g != G.identity())

            def member(g):
                residue, level = chain.sift(g)
                return level == len(chain.base) and residue == G.identity()

            assert all(member(g) == (g in elements) for g in tried), G.generators
    # stopped at |G|, the chain skips searches for failing Schreier generators
    assert searches["bounded"] < searches["above"] == searches["full"], searches
    return orders


def test_stabilizer_chain_order_and_membership_match_enumeration(monkeypatch):
    fixtures = [s3(), s4(), a4(), d4(), q8(), c12(), c2xc4(), regular(q8()), regular(s4())]
    orders = check_stabilizer_chains(monkeypatch, fixtures + random_groups(5, 450))
    assert {1, 2, 6, 24, 120, 720, 5040, 40320} <= orders


def padded(G, degree=257):
    """G with fixed points added up to ``degree``: past 256 points its
    permutations are tuples, not bytes."""
    tail = tuple(range(G.degree, degree))
    return PermGroup(degree, [tuple(g) + tail for g in G.generators], cap=G.cap)


def test_stabilizer_chain_bound_and_cap_on_tuple_permutations(monkeypatch):
    # the checks of the bytes chains above, on the same kind of groups
    # padded past 256 points, up to order 720 to keep enumeration short
    fixtures = [s3(), s4(), a4(), d4(), q8(), c12(), c2xc4(), regular(q8()), regular(s4())]
    groups = [padded(G) for G in fixtures + random_groups(5, 450) if G.order <= 720]
    assert all(type(G.identity()) is tuple for G in groups)
    orders = check_stabilizer_chains(monkeypatch, groups)
    assert {1, 2, 6, 24, 120, 720} <= orders


def test_bytes_and_tuple_permutations_give_the_same_answers():
    # the same group on n <= 256 points, as bytes, and padded with fixed
    # points to 257, as tuples: the order, the chain's base, the elements
    # in breadth-first order, the U report and supersolvability agree;
    # the regular G(5,4) x G(3,2) is reduced by smaller_faithful_action
    # on 120 points, and not once padded, which is not transitive
    from provar import uvar

    g120 = left_regular(direct_product(GpdGroup(5, 4).as_perm_group(),
                                       GpdGroup(3, 2).as_perm_group()))
    for G in (s3(), s4(), a4(), d4(), q8(), c12(), c2xc4(), regular(q8()), g120):
        P = padded(G)
        assert type(G.identity()) is bytes and type(P.identity()) is tuple
        assert all(type(g) is bytes for g in G.generators)
        assert all(type(g) is tuple for g in P.generators)
        assert G.order == P.order
        assert G.stabilizer_chain().base == P.stabilizer_chain().base
        assert [tuple(e) for e in G.elements()] == [e[:G.degree] for e in P.elements()]
        assert uvar.is_in_u(G) == uvar.is_in_u(P)
        assert G.is_supersolvable() == P.is_supersolvable()
    assert g120.smaller_faithful_action().degree < 120
    assert padded(g120).smaller_faithful_action().degree == 257


def test_bad_generators_are_refused_as_tuples_and_are_not_members():
    # the refusal shows the generator as a tuple of ints on either side of
    # 256 points, and G answers False, not an error, for a sequence that
    # repeats a point, holds a point past the degree or past a byte, or
    # a negative one, or has another length
    for degree in (3, 257):
        tail = tuple(range(3, degree))
        group = PermGroup(degree, [(1, 2, 0) + tail, (1, 0, 2) + tail])
        for head in ((0, 1, 1), (0, 1, 3), (0, 1, 300), (-1, 0, 1)):
            bad = head + tail
            with pytest.raises(ValueError) as refused:
                PermGroup(degree, [list(bad)])
            assert str(refused.value) == f"{bad} is not a permutation of 0..{degree - 1}"
            assert bad not in group and list(bad) not in group
        for other in ((0, 1), tuple(range(degree + 1)), "abc"):
            assert other not in group
        assert (2, 0, 1) + tail in group and [0, 2, 1, *tail] in group
        assert (bytes((2, 0, 1)) in group) == (degree == 3)


def test_compose_degree_one():
    assert pg.compose((0,), (0,)) == (0,)
    assert PermGroup(1, [(0,)]).order == 1


def test_normal_subgroups_against_all_subgroups():
    for G in (s3(), s4(), a4(), d4(), q8(), c12(), c2xc4()):
        normal = [s.element_set() for s in all_subgroups(G) if s.is_normal_in(G)]
        for base in (PermGroup(G.degree, []), G.derived_subgroup()):
            ours = list(normal_subgroups_containing(G, base))
            assert [n.order for n in ours] == sorted(n.order for n in ours)
            assert sorted(map(sorted, (n.element_set() for n in ours))) == sorted(
                map(sorted, (s for s in normal if base.element_set() <= s))
            )


def test_normal_closure_is_the_smallest_normal_subgroup():
    for G in (s4(), d4(), q8(), a4()):
        normal = [s.element_set() for s in all_subgroups(G) if s.is_normal_in(G)]
        for x in G.elements():
            closure = G.normal_closure([x])
            assert closure.is_normal_in(G) and x in closure
            assert all(closure.element_set() <= n for n in normal if x in n)


def regular(G):
    """Left-regular representation of G."""
    elems = G.elements()
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[pg.compose(a, b)] for b in elems] for a in elems]
    return PermGroup.from_cayley_table(len(elems), table)


def test_quotient_on_blocks_and_on_cosets():
    # a regular group's quotients act on the orbits of the normal
    # subgroup; in S4 on four points V4 is transitive, so S4/V4 acts on
    # the cosets of V4
    for G in (regular(s3()), regular(q8()), s3(), s4(), d4(), q8()):
        for n in normal_subgroups_containing(G, PermGroup(G.degree, [])):
            q = G.quotient(n)
            assert q.order * n.order == G.order
            abelian_quotient = n.element_set() >= G.derived_subgroup().element_set()
            assert q.structure().abelian == abelian_quotient


def test_quotient_of_a_regular_group_composes_few_elements(monkeypatch):
    # on the N-orbits, G/N costs the normality check and the closure of
    # G/N; the action on the cosets would compose every element of G
    # outside N with N, at least |G|/2 compositions for a proper N
    G = GpdGroup(11, 10).as_perm_group()
    G.elements()
    proper = [
        n for n in normal_subgroups_containing(G, PermGroup(G.degree, []))
        if 1 < n.order < G.order
    ]
    assert [n.order for n in proper] == [11, 22, 55]
    real = pg.compose
    for n in proper:
        n.elements()
        calls = []
        monkeypatch.setattr(pg, "compose", lambda f, g: calls.append(1) or real(f, g))
        q = G.quotient(n)
        monkeypatch.setattr(pg, "compose", real)
        assert q.degree == q.order == G.order // n.order
        assert len(calls) < G.order // 2


def centre_is_trivial(G):
    return not any(
        z != G.identity() and all(pg.compose(z, g) == pg.compose(g, z) for g in G.generators)
        for z in G.elements()
    )


def test_smaller_faithful_action_is_faithful_exactly_without_a_centre(monkeypatch):
    monkeypatch.setattr(pg, "REDUCTION_MIN_DEGREE", 0)
    gpd = {(p, d): GpdGroup(p, d).as_perm_group() for p, d in [(5, 2), (5, 4), (7, 3), (11, 10)]}
    c3 = PermGroup(3, [(1, 2, 0)])
    c2 = PermGroup(2, [(1, 0)])
    cases = {
        "S4 x G(5,2)": (direct_product(s4(), gpd[5, 2]), True),
        "G(11,10)": (gpd[11, 10], True),
        "S3 x G(5,4)": (direct_product(s3(), gpd[5, 4]), True),
        "C3 x G(7,3)": (direct_product(c3, gpd[7, 3]), False),
        "Q8 x G(5,4)": (direct_product(q8(), gpd[5, 4]), False),
        "D4 x S3": (direct_product(d4(), s3()), False),
        "C2 x G(11,10)": (direct_product(c2, gpd[11, 10]), False),
        "Q8": (q8(), False),
        "D4": (d4(), False),
        "C12": (c12(), False),
    }
    for name, (group, faithful) in cases.items():
        regular = left_regular(group)
        assert centre_is_trivial(group) == faithful, name
        reduced = regular.smaller_faithful_action()
        assert (reduced is not regular) == faithful, name
        assert reduced.order == regular.order, name
        if faithful:
            assert reduced.degree < regular.degree, name
            unchecked = PermGroup(reduced.degree, reduced.generators)
            assert reduced.element_set() == unchecked.element_set(), name
            assert reduced.elements()[0] == reduced.identity(), name


def test_smaller_faithful_action_keeps_small_groups_and_the_cap():
    g54 = GpdGroup(5, 4).as_perm_group()
    g32 = GpdGroup(3, 2).as_perm_group()
    small = left_regular(direct_product(s3(), GpdGroup(5, 2).as_perm_group()))  # degree 60
    assert small.degree < pg.REDUCTION_MIN_DEGREE
    assert small.smaller_faithful_action() is small
    group = direct_product(g54, g32)  # order 120, reduced to fewer than 30 points
    reduced = left_regular(group, cap=120).smaller_faithful_action()
    assert reduced.order == 120 and 4 * reduced.degree < 120
    regular = left_regular(group, cap=119)
    with pytest.raises(CapExceededError) as expected:
        PermGroup(regular.degree, regular.generators, cap=119).elements()
    with pytest.raises(CapExceededError) as got:
        regular.smaller_faithful_action()
    assert str(got.value) == str(expected.value) == "group closure exceeds the element cap 119"


def affine(p, a, b, shift=0):
    """x -> a x + b on the integers mod p, numbered from ``shift``."""
    return tuple(shift + (a * x + b) % p for x in range(p))


def on_pairs(p, maps):
    """Maps of the integers mod p acting on their 2-element subsets."""
    pairs = [frozenset((x, y)) for x in range(p) for y in range(x + 1, p)]
    index = {pair: i for i, pair in enumerate(pairs)}
    return PermGroup(len(pairs), [tuple(index[frozenset(m[v] for v in pair)] for pair in pairs)
                                  for m in maps])


def test_smaller_faithful_action_keeps_groups_that_are_not_regular_or_have_a_centre(monkeypatch):
    monkeypatch.setattr(pg, "REDUCTION_MIN_DEGREE", 0)
    g52 = GpdGroup(5, 2).as_perm_group()
    c2 = PermGroup(2, [(1, 0)])
    unchanged = {
        "intransitive S4 x G(5,2)": direct_product(s4(), g52),
        "S4 on 4 points": s4(),
        "G(11,10) on 11 points": PermGroup(11, [affine(11, 1, 1), affine(11, 2, 0)]),
        "G(5,4) on 10 pairs": on_pairs(5, [affine(5, 1, 1), affine(5, 2, 0)]),
        "G(7,6) on 21 pairs": on_pairs(7, [affine(7, 1, 1), affine(7, 3, 0)]),
        "regular Q8": left_regular(q8()),
        "regular C2 x G(11,10)": left_regular(direct_product(c2, GpdGroup(11, 10).as_perm_group())),
        "regular C12": left_regular(c12()),
        "regular S4, every element a generator": PermGroup(24, regular(s4()).elements()),
        "trivial": PermGroup(1, []),
    }
    for name, group in unchanged.items():
        assert group.smaller_faithful_action() is group, name


def test_smaller_faithful_action_reduces_past_a_quarter_of_the_degree():
    # generating pairs whose classes give X a quarter of the degree or
    # more: 15 + 15 of 120 points, and 40 + 30 of 240
    g54_x_s3 = PermGroup(8, [affine(5, 2, 0) + (6, 5, 7), affine(5, 4, 1) + (5, 7, 6)])
    s4_x_d5 = PermGroup(9, [(1, 2, 0, 3) + affine(5, 4, 0, 4), (1, 2, 3, 0) + affine(5, 4, 1, 4)])
    for group, order, points in ((g54_x_s3, 120, 30), (s4_x_d5, 240, 70)):
        assert group.order == order
        regular = left_regular(group)
        reduced = regular.smaller_faithful_action()
        assert (reduced.degree, reduced.order) == (points, order)
        assert centre_is_trivial(group)
        assert reduced.element_set() == PermGroup(points, reduced.generators).element_set()


def test_smaller_faithful_action_composes_no_tuple_of_full_degree(monkeypatch):
    # the regularity check, the centre and X are integer lookups, and the
    # order of psi(G) comes from a stabilizer chain of |X|-point permutations,
    # with fewer compositions than the |G| - 1 that enumerating psi(G)
    # along the Schreier tree would cost
    group = direct_product(GpdGroup(11, 10).as_perm_group(), GpdGroup(7, 6).as_perm_group())
    regular = left_regular(group)
    lengths = []
    real = pg.compose
    monkeypatch.setattr(pg, "compose", lambda f, g: lengths.append(len(f)) or real(f, g))
    reduced = regular.smaller_faithful_action()
    monkeypatch.setattr(pg, "compose", real)
    assert reduced._elements is None
    assert regular.degree == reduced.order == 4620
    assert 0 < len(lengths) < regular.degree - 1
    assert set(lengths) == {reduced.degree} and reduced.degree < regular.degree
    # the chain keeps fewer elements than the enumeration, |G| of them
    chain = pg.StabilizerChain(reduced.degree, reduced.generators)
    strong = {g for level in chain.strong for g in level}
    assert sum(map(len, chain.transversals)) + 2 * len(strong) < reduced.order


def test_smaller_faithful_action_checks_that_its_elements_are_distinct(monkeypatch):
    # psi(G) built wrongly, here every generator's image the identity, so
    # that psi(G) is trivial, is refused by the chain's order
    group = direct_product(GpdGroup(5, 4).as_perm_group(), GpdGroup(3, 2).as_perm_group())
    regular = left_regular(group)
    real = pg._conjugation_on_classes

    def trivial_psi(gens, rhos):
        size, psi = real(gens, rhos)
        return size, [tuple(range(size)) for _ in psi]

    monkeypatch.setattr(pg, "_conjugation_on_classes", trivial_psi)
    with pytest.raises(AssertionError, match="nontrivial kernel"):
        regular.smaller_faithful_action()
