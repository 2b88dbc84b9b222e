import collections
import hashlib
import itertools
import json
import math
import random
import tracemalloc

import pytest

from provar import apd
from provar.apd import (
    ApdStatus,
    FreeObject,
    _ImageSubgroup,
    _check_relations,
    _image_order,
    GpdElement,
    GpdGroup,
    closure,
    closure_by_folding,
    decompose,
    format_gpd_element,
    gpd_iso,
    status,
)
from provar.cli import dispatch
from provar.errors import CapExceededError
from provar.fplinalg import ApdPresentation, mat_rank
from provar.numtheory import is_prime, q_sets
from provar.stallings import Automaton
from provar.words import identity, parse, word
from tests.oracles import (
    ImageByProducts,
    KernelSpec,
    check_homomorphism,
    contains_subgroup,
    decompose_by_enumeration,
    evaluate_by_height_counts,
    free_object,
    image_order_by_enumeration,
    kernel_membership,
    relations_hold_by_products,
)
from tests.test_bs import drifting_word, heights

PAIRS = [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 10)]


def aut(rank, *texts):
    return Automaton.from_generators([parse(t, rank) for t in texts], rank)


def random_word(rng, rank, max_len):
    letters = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
               for _ in range(rng.randrange(1, max_len + 1))]
    return word(letters, rank)


def test_gpd_basic():
    g = GpdGroup(3, 2)
    assert g.order == 6 and g.q == 2
    assert g.element_order(g.x) == 3
    assert g.element_order(g.y) == 2
    acc = g.identity
    for _ in range(3):
        acc = g.mul(acc, g.x)
    assert acc == g.identity
    # nonabelian: y x y^-1 = x^2
    conj = g.mul(g.mul(g.y, g.x), g.inv(g.y))
    assert conj == GpdElement(2, 0)
    assert g.mul(g.x, g.y) != g.mul(g.y, g.x)


def test_gpd_orders_all_pairs():
    for p, d in PAIRS:
        g = GpdGroup(p, d)
        assert g.order == p * d
        assert len(set(g.elements())) == p * d
        assert g.element_order(g.x) == p
        assert g.element_order(g.y) == d


def test_gpd_element_orders_against_the_walk():
    # the closed form against repeated multiplication, for every element
    # of every G(p, d) with p < 60
    for p in (n for n in range(3, 60) if is_prime(n)):
        for d in (d for d in range(2, p) if (p - 1) % d == 0):
            g = GpdGroup(p, d)
            for a in g.elements():
                order, acc = 1, a
                while acc != g.identity:
                    acc, order = g.mul(acc, a), order + 1
                assert g.element_order(a) == order, (p, d, a)


def test_gpd_of_a_large_prime_and_a_small_d():
    # x has order p and y order d without walking p products
    g = GpdGroup(10000019, 2)
    assert g.q == 10000018
    assert (g.element_order(g.x), g.element_order(g.y)) == (10000019, 2)
    assert g.element_order(GpdElement(5, 1)) == 2


def test_gpd_is_s3_for_3_2():
    perm = GpdGroup(3, 2).as_perm_group()
    assert perm.order == 6
    assert not perm.structure().abelian
    assert perm.is_supersolvable()


def test_gpd_sylow_structure():
    # Sylow subgroups of C_p x| C_d: C_p for p, and the Sylow parts of C_d
    perm = GpdGroup(7, 6).as_perm_group()
    assert perm.sylow(7).order == 7
    assert perm.sylow(2).order == 2
    assert perm.sylow(3).order == 3
    for prime in (2, 3, 7):
        assert perm.sylow(prime).structure().abelian
    perm = GpdGroup(11, 10).as_perm_group()
    assert perm.sylow(11).order == 11
    assert perm.sylow(5).order == 5
    assert perm.sylow(2).order == 2


def test_gpd_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GpdGroup(7, 3, q=3)  # 3 has order 6 mod 7, not 3
    with pytest.raises(ValueError):
        GpdGroup(7, 4)
    with pytest.raises(ValueError):
        GpdGroup(8, 2)


def test_gpd_evaluate_and_format():
    g = GpdGroup(3, 2)
    assert g.evaluate(parse("abAB", 2)) == GpdElement(2, 0)
    assert g.evaluate(identity(2)) == g.identity
    assert format_gpd_element(GpdElement(2, 0)) == "x^2"
    assert format_gpd_element(GpdElement(2, 1)) == "x^2 y"
    assert format_gpd_element(GpdElement(0, 0)) == "1"


def test_gpd_iso_examples():
    assert gpd_iso(7, 3, 2, 2) == (1, 1)
    assert gpd_iso(7, 3, 2, 4) == (2, 2)
    assert gpd_iso(5, 4, 2, 3) == (3, 3)


def test_gpd_iso_all_pairs():
    for p, d in PAIRS:
        _, q_exact = q_sets(p, d)
        for q in q_exact:
            for r in q_exact:
                m, k = gpd_iso(p, d, q, r)
                assert m * k % d == 1
                assert pow(r, m, p) == q and pow(q, k, p) == r


def all_pairs_homomorphism(f, source, target):
    # oracle: f(a b) = f(a) f(b) over all (pd)^2 pairs
    elems = source.elements()
    return all(f(source.mul(a, b)) == target.mul(f(a), f(b)) for a in elems for b in elems)


def accepts(source, target, m):
    # gpd_iso's relation check: x -> x, y -> y^m against the source's
    # one-generator presentation
    pres = ApdPresentation(source.p, source.d, 1, 1, (source.d,), ((source.q,),))
    try:
        _check_relations(target, pres, ("gpd",), ((target.x,),), ((GpdElement(0, m),),))
    except AssertionError:
        return False
    return True


def test_homomorphism_check_agrees_with_all_pairs():
    # y -> y^m between the q- and r-presentations is a homomorphism
    # exactly when r^m = q; the others are bijections that are not.
    # gpd_iso's relation check gives the all-pairs verdict for every m.
    verdicts = set()
    for p, d in [(5, 4), (7, 3), (7, 6), (11, 10)]:
        _, q_exact = q_sets(p, d)
        for q in q_exact:
            for r in q_exact:
                gq, gr = GpdGroup(p, d, q), GpdGroup(p, d, r)
                for m in range(d):
                    def f(e, m=m, d=d):
                        return GpdElement(e.u, m * e.t % d)
                    verdict = all_pairs_homomorphism(f, gq, gr)
                    assert accepts(gq, gr, m) == verdict
                    assert verdict == (pow(r, m, p) == q)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


def test_homomorphism_check_rejects_non_homomorphisms():
    g = GpdGroup(7, 3, 2)

    def translate(e):
        return g.mul(e, g.x)

    def square_y(e):
        # multiplicative at y, not at x
        return GpdElement(e.u, 2 * e.t % 3)

    def shear(e):
        # multiplicative at x, not at y: x^u y^t -> x^(u + t^2) y^t
        return GpdElement((e.u + e.t * e.t) % 7, e.t)

    for f in (translate, square_y, shear):
        assert not all_pairs_homomorphism(f, g, g)
        with pytest.raises(AssertionError):
            check_homomorphism(f, g, g, "f")
    with pytest.raises(AssertionError, match="identity"):
        check_homomorphism(translate, g, g, "f")


def test_gpd_iso_rejects_wrong_order():
    with pytest.raises(ValueError):
        gpd_iso(7, 3, 1, 2)


def test_free_object_orders():
    assert free_object(1, 3, 2).order == 6
    assert free_object(2, 3, 2).order == 972
    assert free_object(2, 5, 2).order == 12500


def test_free_object_one_generator_is_cyclic():
    obj = free_object(1, 3, 2)
    g = obj.generators[0]
    acc = obj.identity
    seen = set()
    for _ in range(6):
        acc = obj.mul(acc, g)
        seen.add(acc)
    assert acc == obj.identity and len(seen) == 6


def test_free_object_eval_is_homomorphism():
    obj = FreeObject(2, 3, 2)
    assert obj.evaluate(identity(2)) == obj.identity
    rng = random.Random(4)
    for _ in range(100):
        u, v = random_word(rng, 2, 8), random_word(rng, 2, 8)
        assert obj.evaluate(u * v) == obj.mul(obj.evaluate(u), obj.evaluate(v))
        assert obj.mul(obj.evaluate(u), obj.evaluate(u.inverse())) == obj.identity


def test_free_object_cap():
    with pytest.raises(CapExceededError):
        FreeObject(2, 7, 6).materialize(cap=1000)
    # 6 * 10^6 Fox coordinates: refused before any table is built
    with pytest.raises(CapExceededError):
        FreeObject(6, 11, 10)


def test_free_object_takes_every_prime_and_divisor():
    for p, d in [(2, 1), (3, 1), (3, 2), (7, 1), (7, 3), (7, 6)]:
        obj = FreeObject(1, p, d)
        assert (obj.p, obj.d, obj.n_coords) == (p, d, d)
    for p, d in [(2, 2), (7, 4), (7, 0), (7, -1), (4, 1), (1, 1)]:
        with pytest.raises(ValueError):
            FreeObject(1, p, d)
    # with d = 1 an element holds n coordinates, so ranks past the cap's
    # bit length fit; the n generators' n * n coordinates bound the rank
    assert FreeObject(19, 2, 1).n_coords == 19
    with pytest.raises(CapExceededError):
        FreeObject(2000, 2, 1)
    assert free_object(3, 2, 1).order == 8
    assert free_object(1, 5, 1).order == 5


def test_d1_closures_of_rank_one_and_of_large_rank():
    for p in (2, 3, 5):
        for k in range(1, 13):
            expected = aut(1, f"a^{math.gcd(k, p)}")
            assert closure(aut(1, f"a^{k}"), p, 1) == expected, (p, k)
        assert closure(Automaton.trivial(1), p, 1).index() == p
    assert closure(Automaton.full_group(24), 2, 1).n_vertices == 1
    letters = "abcdefghijklmnopqrstuvw"
    subgroup = aut(24, *letters, "xx")
    cl = closure(subgroup, 2, 1)
    assert cl.index() == 2 and contains_subgroup(cl, subgroup)
    assert not cl.membership(parse("x", 24))
    assert closure(aut(24, *letters, "xxx"), 2, 1).n_vertices == 1


def test_d1_closure_is_the_preimage_of_the_span_mod_p():
    # Ab(p)*Ab(1) = Ab(p): w lies in the closure of H iff its
    # abelianization mod p lies in the F_p-span of H's abelianized basis,
    # and the closure has index p^(n - rank of that span)
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 5)
        gens = [random_word(rng, n, 6) for _ in range(rng.randrange(0, 4))]
        subgroup = Automaton.from_generators(gens, n)
        rows = [list(w.abelianization()) for w in subgroup.basis()]
        span_rank = mat_rank(rows, p)
        cl = closure(subgroup, p, 1)
        assert cl.index() == p ** (n - span_rank)
        words = [random_word(rng, n, 10) for _ in range(20)] + gens
        for w in words:
            in_span = mat_rank(rows + [list(w.abelianization())], p) == span_rank
            assert cl.membership(w) == in_span, (p, gens, w)
            seen.add(in_span)
    assert seen == {True, False}


def test_d1_closure_agrees_with_folding_route():
    rng = random.Random(42)
    for n, p in [(1, 2), (2, 2), (3, 2), (2, 3), (2, 5)]:
        fobj = FreeObject(n, p, 1)
        for _ in range(10):
            gens = [random_word(rng, n, 6) for _ in range(rng.randrange(0, 4))]
            subgroup = Automaton.from_generators(gens, n)
            assert closure(subgroup, p, 1) == closure_by_folding(
                subgroup, p, 1, fobj=fobj
            ), (n, p, gens)


def evaluate_under(group, w, phi):
    """Image of w in G(p,d) under a_i -> phi[i], multiplied letter by letter."""
    out = group.identity
    for letter in w.letters:
        g = phi[abs(letter) - 1]
        out = group.mul(out, g if letter > 0 else group.inv(g))
    return out


def fox_readout(obj, element, phi):
    """Image of a free-object element under a_i -> phi[i], read from its
    Fox coordinates: y-exponent <s, t_phi> and x-exponent
    sum_i u_i sum_t F_i[t] q^<t, t_phi>."""
    s, fox = element
    p, d, q = obj.p, obj.d, GpdGroup(obj.p, obj.d).q
    t_phi = [g.t for g in phi]
    size = len(obj.points)
    x = 0
    for i, g in enumerate(phi):
        for k, t in enumerate(obj.points):
            x += g.u * fox[i * size + k] * pow(q, sum(a * b for a, b in zip(t, t_phi)), p)
    return GpdElement(x % p, sum(a * b for a, b in zip(s, t_phi)) % d)


@pytest.mark.parametrize("n, p, d", [(1, 7, 6), (2, 3, 2), (2, 5, 4), (3, 3, 2)])
def test_fox_coordinates_read_out_every_assignment(n, p, d):
    obj = FreeObject(n, p, d)
    assert obj.n_coords == n * d**n
    group = GpdGroup(obj.p, obj.d)
    elements = group.elements()
    rng = random.Random(f"fox {n} {p} {d}")
    for _ in range(40):
        w = random_word(rng, n, 12)
        image = obj.evaluate(w)
        for _ in range(10):
            phi = [rng.choice(elements) for _ in range(n)]
            assert fox_readout(obj, image, phi) == evaluate_under(group, w, phi), (w, phi)


def test_free_object_identity_iff_every_assignment_kills_the_word():
    obj = FreeObject(2, 3, 2)
    group = GpdGroup(obj.p, obj.d)
    assignments = list(itertools.product(group.elements(), repeat=2))
    rng = random.Random(31)
    # a^6, b^6, [a^2, b^2] and [[a, b], b[a, b]b^-1] map to 1 in every
    # group of the pseudovariety; a^3, [a^3, b^3] and [a, b] do not
    comm = parse("abAB", 2)
    comm_b = comm.conjugate(parse("b", 2))
    kernel = [parse("a^6", 2), parse("b^6", 2), parse("aabbAABB", 2),
              comm * comm_b * comm.inverse() * comm_b.inverse()]
    words = [random_word(rng, 2, 10) for _ in range(60)]
    words += [parse("a^3", 2), parse("aaabbbAAABBB", 2), comm]
    for _ in range(30):
        k1, k2 = rng.choice(kernel), rng.choice(kernel)
        words.append((k1 * k2.inverse()).conjugate(random_word(rng, 2, 6)))
    killed_count = 0
    for w in words:
        killed = all(evaluate_under(group, w, phi) == group.identity for phi in assignments)
        assert (obj.evaluate(w) == obj.identity) == killed, w
        killed_count += killed
    assert 0 < killed_count < len(words)


def test_kernel_membership_examples():
    assert kernel_membership(parse("abAB", 2), KernelSpec.abelian(2, 5))
    assert kernel_membership(parse("aa", 2), KernelSpec.abelian(2, 2))
    assert not kernel_membership(parse("a", 2), KernelSpec.abelian(2, 2))
    assert kernel_membership(parse("a^6", 1), KernelSpec.relatively_free(1, 3, 2))
    assert not kernel_membership(parse("a^3", 1), KernelSpec.relatively_free(1, 3, 2))


def test_closure_rank_one_matches_cyclic_oracle():
    # the free object on one generator is cyclic of order pd, so the
    # closure of <a^k> must be <a^gcd(k, pd)>
    for p, d in [(3, 2), (5, 2), (5, 4)]:
        pd = p * d
        for k in range(1, 13):
            expected = aut(1, f"a^{math.gcd(k, pd)}")
            assert closure(aut(1, f"a^{k}"), p, d) == expected, (p, d, k)


def test_closure_examples():
    full = Automaton.full_group(1)
    assert closure(full, 3, 2) == full
    assert closure(aut(1, "aa"), 3, 2) == aut(1, "aa")
    assert closure(aut(1, "a^4"), 3, 2) == aut(1, "aa")


def test_closure_of_trivial_subgroup():
    assert closure(Automaton.trivial(1), 3, 2).index() == 6
    assert closure(Automaton.trivial(2), 3, 2, cap=2000).index() == 972


# (n, p, d), subgroup generators, closure index and digest of repr(key),
# recorded with the assignment-coordinate free object this one replaced
CLOSURE_DIGESTS = [
    ((2, 5, 4), "b,b,ABAA", 125, "bcca40edb0097ccf"),
    ((2, 5, 4), "aB,aabaB", 125, "f1b4d89fa3847ac3"),
    ((2, 5, 4), "a,aBaabb", 25, "9ae8b36181de78d6"),
    ((2, 5, 4), "AAB,aaaaab", 25, "95350177d5ba3125"),
    ((2, 7, 3), "AB,abAbba", 49, "21c394911660f3a2"),
    ((2, 7, 3), "B,BaBBBA,BabABa", 343, "1cd952392d30dd6a"),
    ((2, 7, 3), "bABAAb,Ab,Ab", 49, "a4297539ed39540a"),
    ((2, 7, 3), "aba,bb", 1, "e3701c8a402e1022"),
    ((3, 3, 2), "B,ABAb,ac,ABABCC", 162, "ea862ab7fb213652"),
    ((3, 3, 2), "CC,a,CB,caB", 162, "13d058d134da4005"),
    ((3, 3, 2), "aabAB,aCBa,c", 27, "9d6f036d2fe7dee4"),
    ((3, 3, 2), "aabCCB,CBAc,BAbC,ac", 162, "e3394283b73a5a6b"),
]


@pytest.mark.parametrize("npd, gens, index, digest", CLOSURE_DIGESTS)
def test_closure_keys_are_pinned(npd, gens, index, digest):
    n, p, d = npd
    cl = closure(aut(n, *gens.split(",")), p, d)
    assert cl.n_vertices == index
    assert hashlib.sha256(repr(cl.key).encode()).hexdigest()[:16] == digest


def test_closure_agrees_with_folding_route():
    rng = random.Random(21)
    fobj = FreeObject(2, 3, 2)
    for _ in range(15):
        gens = [random_word(rng, 2, 6) for _ in range(rng.randrange(1, 4))]
        subgroup = Automaton.from_generators(gens, 2)
        a = closure_by_folding(subgroup, 3, 2, fobj=fobj)
        b = closure(subgroup, 3, 2)
        assert a == b
        assert b.is_complete()
        assert status(subgroup, 3, 2) == ApdStatus(
            closed=b == subgroup, dense=b.n_vertices == 1, index_of_closure=b.n_vertices)


# every closure-grid class of the benchmark, and two of d = 1, where
# closure_by_folding cannot reach past tiny ranks
@pytest.mark.parametrize("n,p,d", [(1, 7, 6), (2, 3, 2), (2, 5, 2), (2, 5, 4), (2, 7, 3),
                                   (3, 3, 2), (3, 2, 1), (2, 5, 1)])
def test_closure_and_schreier_rows_agree_with_the_product_routes(n, p, d):
    rng = random.Random(f"product routes {n} {p} {d}")
    walked = 0
    for _ in range(200):
        gens = [random_word(rng, n, 6) for _ in range(rng.randrange(0, 5))]
        subgroup = Automaton.from_generators(gens, n)
        image, old = _ImageSubgroup(subgroup, p, d), ImageByProducts(subgroup, p, d)
        assert (image.index, image.dim_k) == (old.index, len(old.pivot_rows))
        # most draws are dense or of astronomical index; walk the others
        if 1 < image.index <= 1500:
            new, ref = closure(subgroup, p, d, cap=1500), old.closure()
            assert (new.key, new.out) == (ref.key, ref.out)
            walked += 1
            if walked == 6:
                break
    assert walked == 6


def test_status_builds_no_free_object_element_and_closure_only_its_transversal(monkeypatch,
                                                                              capsys):
    # both read the image in folded coordinates; closure builds in
    # FreeObject only the transversal elements that carry a coset back,
    # one product per point of T's walk up to the last one it needs
    def refuse(*args, **kwargs):
        raise AssertionError("a free-object element was built")

    calls = collections.Counter()

    def counted(name):
        method = getattr(FreeObject, name)
        return lambda *args: calls.update([name]) or method(*args)

    def refused(f, *args):
        with monkeypatch.context() as m:
            for name in ("__init__", "evaluate", "element", "mul"):
                m.setattr(FreeObject, name, refuse)
            return f(*args)

    def closure_within_transversal(subgroup, p, d, cap):
        image = _ImageSubgroup(subgroup, p, d)
        calls.clear()
        with monkeypatch.context() as m:
            for name in ("__init__", "evaluate", "element", "mul"):
                m.setattr(FreeObject, name, counted(name))
            result = closure(subgroup, p, d, cap=cap)
        assert calls["__init__"] <= 1 and calls["evaluate"] == 0
        assert calls["element"] <= image.n_moves
        assert calls["mul"] <= image.t_order - 1
        return result

    # the closure-grid classes of the benchmark, and (3, 5, 4)
    for n, p, d in [(1, 7, 6), (2, 3, 2), (2, 5, 2), (2, 5, 4), (2, 7, 3), (3, 3, 2),
                    (3, 5, 4)]:
        rng = random.Random(f"no free object {n} {p} {d}")
        outcomes = set()
        for draw in range(12):
            subgroup = random_subgroup(rng, n, draw, 6)
            index = refused(status, subgroup, p, d).index_of_closure
            if index > 1500:
                with pytest.raises(CapExceededError):
                    refused(closure, subgroup, p, d, 1500)
            else:
                assert closure_within_transversal(subgroup, p, d, 1500).n_vertices == index
            outcomes.add(index > 1500)
        assert False in outcomes
    # two requests of the CLI transcript: a degree-65 536 rank-1 status
    # and a closure over |T| = 1000 characters
    capsys.readouterr()
    assert refused(dispatch, ["status", "--p", "65537", "--d", "65536", "--rank", "1",
                              "--gens", "a^65536"]) == 0
    assert json.loads(capsys.readouterr().out)["index_of_closure"] == 65536
    assert closure_within_transversal(aut(1, "aa"), 4001, 2000, apd.DEFAULT_CAP).n_vertices == 2
    assert calls["mul"] == 999
    assert dispatch(["closure", "--p", "4001", "--d", "2000", "--rank", "1", "--gens", "aa"]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == 2


def test_closure_raises_assertion_error_when_a_carried_point_is_off_t_walk(monkeypatch):
    # over (7, 6) the letter a from the one T-coset of <a> is carried
    # back by -1 = 5, the last point of T's walk; with that point gone the
    # closure refuses by AssertionError, which python -O keeps, not by a
    # KeyError from a lookup
    init = apd._ImageSubgroup.__init__

    def truncated(self, *args):
        init(self, *args)
        assert self.t_points[-1] == (5,)
        self.t_points.pop()

    monkeypatch.setattr(apd._ImageSubgroup, "__init__", truncated)
    with pytest.raises(AssertionError, match=r"\(5,\), which carries a coset across \(1,\)"):
        closure(aut(1, "a"), 7, 6)


def test_closure_idempotent_and_monotone():
    rng = random.Random(22)
    for _ in range(10):
        gens = [random_word(rng, 2, 6) for _ in range(rng.randrange(1, 4))]
        small = Automaton.from_generators(gens, 2)
        big = Automaton.from_generators(gens + [random_word(rng, 2, 6)], 2)
        cl_small = closure(small, 3, 2)
        cl_big = closure(big, 3, 2)
        assert closure(cl_small, 3, 2) == cl_small
        assert contains_subgroup(cl_big, cl_small)


def test_closure_contains_subgroup_and_kernel_words():
    subgroup = aut(2, "ab")
    cl = closure(subgroup, 3, 2)
    assert contains_subgroup(cl, subgroup)
    # the closure always contains the verbal kernel: test on sample words
    spec = KernelSpec.relatively_free(2, 3, 2)
    rng = random.Random(17)
    for _ in range(50):
        w = random_word(rng, 2, 10)
        if kernel_membership(w, spec):
            assert cl.membership(w)


def test_status_examples():
    st = status(aut(1, "aa"), 3, 2)
    assert st.closed and not st.dense and st.index_of_closure == 2

    st = status(Automaton.full_group(2), 3, 2)
    assert st.dense and st.closed and st.index_of_closure == 1

    st = status(aut(2, "a", "bb"), 3, 2)
    assert not st.dense  # mod-2 abelianization image is proper


def test_status_dense_subgroup():
    # a, bab, bbabb generate a subgroup dense for (3,2): its closure is everything
    subgroup = aut(2, "a", "bab", "b^3")
    st = status(subgroup, 3, 2)
    assert st.dense == (st.index_of_closure == 1)


def random_subgroup(rng, n, draw, max_degree):
    """For an odd draw, the subgroup of 1 to n + 3 random words of length
    at most 6; for an even one, the stabilizer of a random action of
    degree at most ``max_degree``, whose closure has index at most that."""
    if draw % 2:
        gens = [random_word(rng, n, 6) for _ in range(rng.randrange(1, n + 4))]
        return Automaton.from_generators(gens, n)
    degree = rng.randrange(2, max_degree + 1)
    return Automaton.from_action(n, [rng.sample(range(degree), degree) for _ in range(n)])


# classes beyond the benchmark grid
@pytest.mark.parametrize("n,p,d", [(3, 5, 4), (2, 11, 5), (2, 13, 3), (4, 3, 2), (4, 5, 2),
                                   (2, 5, 1)])
def test_image_and_closure_agree_with_the_product_routes_beyond_the_grid(n, p, d):
    rng = random.Random(f"beyond the grid {n} {p} {d}")
    walked = 0
    for draw in range(16):
        subgroup = random_subgroup(rng, n, draw, 4)
        image, old = _ImageSubgroup(subgroup, p, d), ImageByProducts(subgroup, p, d)
        assert (image.index, image.dim_k) == (old.index, len(old.pivot_rows))
        if image.index <= 1500:
            new, ref = closure(subgroup, p, d, cap=1500), old.closure()
            assert (new.key, new.out) == (ref.key, ref.out)
            assert status(subgroup, p, d).index_of_closure == new.n_vertices
            assert closure(new, p, d, cap=1500) == new
            walked += 1
    assert walked >= 8


@pytest.mark.parametrize("n,p,d", [(1, 7, 6), (2, 2, 1), (3, 2, 1), (2, 3, 2), (2, 5, 4),
                                   (2, 7, 3), (3, 3, 2)])
def test_closure_is_refused_before_any_coset_exactly_when_its_index_exceeds_the_cap(
        n, p, d, monkeypatch):
    fibres = []
    affine_fibre = apd._affine_fibre

    def counting_fibre(*args):
        out = affine_fibre(*args)
        fibres.append(out)
        return out

    monkeypatch.setattr(apd, "_affine_fibre", counting_fibre)
    rng = random.Random(f"cap law {n} {p} {d}")
    sizes = set()
    for _ in range(12):
        gens = [random_word(rng, n, 6) for _ in range(rng.randrange(0, 5))]
        subgroup = Automaton.from_generators(gens, n)
        index = status(subgroup, p, d).index_of_closure
        sizes.add(index)
        for cap in [index - 1, index] if index <= 400 else [400]:
            fibres.clear()
            if index > cap:
                with pytest.raises(CapExceededError, match=f"closure needs more than {cap} cosets"):
                    closure(subgroup, p, d, cap=cap)
                assert fibres == []
            else:
                assert closure(subgroup, p, d, cap=cap).n_vertices == index
                assert fibres
    assert len(sizes) > 2


def test_status_of_a_commutator_needs_no_coset_cap():
    # T is trivial and K is the line of [a, b]'s Fox vector, so the index is
    # 6^2 * 7^((2 - 1) * 6^2 + 1 - 1), far beyond any coset cap
    st = status(aut(2, "abAB"), 7, 6)
    assert st == ApdStatus(closed=False, dense=False, index_of_closure=36 * 7**36)


def t_part_order(subgroup, d):
    """|T|: the span of the basis words' exponent sums in Z_d^n, enumerated."""
    n = subgroup.rank
    steps = [tuple(x % d for x in w.abelianization()) for w in subgroup.basis()]
    seen = {(0,) * n}
    frontier = list(seen)
    for t in frontier:  # grows while it is walked
        for s in steps:
            u = tuple((a + b) % d for a, b in zip(t, s))
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen)


def budget_edge(need):
    """The least cap whose product with its bit length covers ``need``."""
    return next(c for c in itertools.count(1) if c * c.bit_length() >= need)


def free_object_fits(n, d, cap):
    return n * d**n <= cap and n * n * d**n <= cap * cap.bit_length()


def image_needs(subgroup, d):
    """The image's two budgets: the k * n * d^n Fox coordinates of its
    basis words, and the |T| * sum_j min(|w_j|, n * d^n) folding terms."""
    n, basis = subgroup.rank, subgroup.basis()
    size = n * d**n
    return len(basis) * size, t_part_order(subgroup, d) * sum(min(len(w), size) for w in basis)


def abelian_stabilizer(n, d, max_degree):
    """The stabilizer of a point under letter i shifting coordinate i of
    Z_r1 x ... x Z_rn, the r_i divisors of d of largest product at most
    ``max_degree``: its t-part is the kernel of Z_d^n onto that product."""
    divisors = [r for r in range(1, d + 1) if d % r == 0]
    orders = max((rs for rs in itertools.product(divisors, repeat=n)
                  if math.prod(rs) <= max_degree), key=math.prod)
    points = list(itertools.product(*(range(r) for r in orders)))
    index = {t: k for k, t in enumerate(points)}
    perms = [[index[t[:i] + ((t[i] + 1) % r,) + t[i + 1:]] for t in points]
             for i, r in enumerate(orders)]
    return Automaton.from_action(n, perms)


@pytest.mark.parametrize("n,p,d", [(1, 7, 6), (2, 5, 4), (2, 7, 6), (3, 3, 2)])
def test_image_walk_is_refused_exactly_past_its_storage_budget(n, p, d, monkeypatch):
    # three budgets against cap * cap.bit_length(), each with the cap at its
    # edge: the image's k * n * d^n Fox coordinates and its |T| * sum of
    # min(|w_j|, n * d^n) folding terms (status), whichever is larger, and
    # the closure's |T| - 1 transversal elements and translation getters of
    # n * d^n coordinates; a draw checks a budget only where FreeObject's
    # bounds, and for the closure the image's, stay below it at the edge;
    # the stabilizer of a product of cyclic shifts gives many basis words
    # over a small t-part, for which the coordinates bind first
    rng = random.Random(f"storage budget {n} {p} {d}")
    checked = {"Fox coordinates": 0, "Fox support points": 0, "closure": 0}
    size = n * d**n
    draws = [random_subgroup(rng, n, draw, 11) for draw in range(24)]
    for subgroup in draws + [abelian_stabilizer(n, d, 11)]:
        image = _ImageSubgroup(subgroup, p, d)
        stored, folded = image_needs(subgroup, d)
        cap = budget_edge(max(stored, folded))
        if free_object_fits(n, d, cap - 1):
            binding = "Fox coordinates" if stored >= folded else "Fox support points"
            with monkeypatch.context() as m:
                m.setattr(apd, "DEFAULT_CAP", cap)
                status(subgroup, p, d)
                m.setattr(apd, "DEFAULT_CAP", cap - 1)
                with pytest.raises(CapExceededError, match=binding):
                    status(subgroup, p, d)
            checked[binding] += 1
        built = []
        shifts = {tuple(x % d for x in w.abelianization()) for w in subgroup.basis()}
        getters = len(shifts - {(0,) * n})
        cap = budget_edge((image.t_order - 1 + getters) * size)
        if (image.index <= 2000 and image.t_order > 1 and free_object_fits(n, d, cap - 1)
                and max(stored, folded) <= (cap - 1) * (cap - 1).bit_length()):
            with monkeypatch.context() as m:
                m.setattr(apd, "DEFAULT_CAP", cap)
                closure(subgroup, p, d, cap=2000)
                transversal = apd._ImageSubgroup.transversal
                m.setattr(apd._ImageSubgroup, "transversal",
                          lambda self, places: built.append(places) or transversal(self, places))
                m.setattr(apd, "DEFAULT_CAP", cap - 1)
                with pytest.raises(CapExceededError, match=(
                        f"the closure needs {image.t_order - 1} transversal elements and "
                        f"{getters} translation getters of {size} Fox coordinates, "
                        f"beyond cap {cap - 1} times")):
                    closure(subgroup, p, d, cap=2000)
            assert built == []
            checked["closure"] += 1
    assert checked["closure"] >= 4
    assert checked["Fox support points"] >= 3
    assert checked["Fox coordinates"] >= (1 if n > 1 else 0)


def test_image_budget_is_checked_before_any_word_is_evaluated(monkeypatch):
    # the full rank-2 group past p = 31 is answered: 2 basis words of
    # 2 * d^2 Fox coordinates stay far below the budget
    for p in (37, 41):
        assert status(Automaton.full_group(2), p, p - 1) == ApdStatus(
            closed=True, dense=True, index_of_closure=1)
    # the kernel of a -> 0, b -> 1 onto Z_39 has 40 basis words, of 838
    # letters in all; over (37, 36) its t-part has order 36 * 12, so
    # folding them needs 432 * 838 terms, more than their 40 * 2592 Fox
    # coordinates; the image reads each basis word by its Fox support
    evaluated = []
    fox = apd.fox
    monkeypatch.setattr(apd, "fox", lambda w: evaluated.append(w) or fox(w))
    kernel = Automaton.from_action(2, [list(range(39)), [(i + 1) % 39 for i in range(39)]])
    assert len(kernel.basis()) == 40
    assert image_needs(kernel, 36) == (40 * 2592, 432 * 838)
    cap = budget_edge(432 * 838)
    monkeypatch.setattr(apd, "DEFAULT_CAP", cap - 1)
    with pytest.raises(CapExceededError) as refused:
        status(kernel, 37, 36)
    assert str(refused.value) == (f"the image folds 838 Fox support points into 432 characters, "
                                  f"beyond cap {cap - 1} times its bit length")
    assert evaluated == []
    monkeypatch.setattr(apd, "DEFAULT_CAP", cap)
    st = status(kernel, 37, 36)
    assert len(evaluated) == 40 and not st.dense and st.index_of_closure % 3 == 0


def test_a_long_rank_one_word_is_folded_in_linear_memory(monkeypatch):
    # a^1296 over (1297, 1296) has all 1296 points in its Fox support and a
    # trivial t-part: one character, whose fold keeps one term per coset,
    # not a row of d^n powers per support point (1296^2 of them); the
    # basis is computed first and handed back, so only apd is measured
    subgroup = Automaton.from_generators([parse("a^1296", 1)], 1)
    basis = subgroup.basis()
    monkeypatch.setattr(Automaton, "basis", lambda self: basis)
    tracemalloc.start()
    try:
        st = status(subgroup, 1297, 1296)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st == ApdStatus(closed=True, dense=False, index_of_closure=1296)
    assert peak < 4_000_000


def test_decompose_identity_case():
    pres = ApdPresentation(p=5, d=4, n=1, m=1, orders=(4,), exponents=((2,),))
    emb = decompose(pres)
    assert emb.factors == ("gpd",)
    assert emb.injective
    assert emb.image_order == 20
    assert emb.x_images == ((GpdElement(1, 0),),)


def test_decompose_two_x_generators():
    pres = ApdPresentation(p=3, d=2, n=2, m=1, orders=(2,), exponents=((2,), (2,)))
    emb = decompose(pres)
    assert emb.factors == ("gpd", "gpd")
    assert emb.injective and emb.image_order == 18


def test_decompose_partial_order_action():
    # y acts with order 3 although y itself has order 6: needs the cyclic factor
    pres = ApdPresentation(p=7, d=6, n=1, m=1, orders=(6,), exponents=((2,),))
    emb = decompose(pres)
    assert emb.factors == ("gpd", "cyclic")
    assert emb.injective and emb.image_order == 42
    # y -> (y^k, 1) with 3^k = 2 mod 7, so k = 2
    assert emb.y_images[0][0] == GpdElement(0, 2)
    assert emb.y_images[0][1] == 1


def test_decompose_trivial_action_keeps_cyclic_factor():
    pres = ApdPresentation(p=3, d=2, n=1, m=1, orders=(2,), exponents=((1,),))
    emb = decompose(pres)
    assert emb.injective and emb.image_order == 6
    assert "cyclic" in emb.factors


def test_decompose_multiple_y_generators():
    pres = ApdPresentation(
        p=7, d=6, n=2, m=2, orders=(6, 3), exponents=((3, 2), (1, 4))
    )
    emb = decompose(pres)
    assert emb.injective
    assert emb.image_order == 7**2 * 6 * 3


def test_decompose_cap(capsys):
    # the image order is read off in closed form, so a group of order
    # 13 310 is embedded under a cap of 100; only a --d over the cap is
    # refused, before the d discrete logs are formed
    code = dispatch(["--cap", "100", "decompose", "--p", "11", "--d", "10",
                     "--exponents", "[[2],[2],[2]]", "--orders", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["image_order"] == payload["group_order"] == 13_310 and payload["injective"]
    for argv in (["decompose", "--p", "11", "--d", "10", "--exponents", "[[2]]", "--orders", "10"],
                 ["gpd-iso", "--p", "11", "--d", "10", "--q", "2", "--r", "2"]):
        assert dispatch(["--cap", "9", *argv]) == 3
        assert capsys.readouterr().err == "error: d = 10 exceeds the cap 9\n"


def random_presentation(rng, p):
    d = rng.choice([d for d in range(2, p) if (p - 1) % d == 0])
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    orders = [rng.choice([o for o in range(2, d + 1) if d % o == 0]) for _ in range(m)]
    roots = {o: [e for e in range(1, p) if pow(e, o, p) == 1] for o in orders}
    exponents = [[rng.choice(roots[o]) for o in orders] for _ in range(n)]
    return ApdPresentation(p=p, d=d, n=n, m=m, orders=tuple(orders),
                           exponents=tuple(map(tuple, exponents)))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_decompose_agrees_with_the_enumeration_oracle(p):
    # closed-form image order, factors and images against the old route:
    # relations by repeated products and the image counted breadth-first
    rng = random.Random(p)
    dropped = 0
    for _ in range(60):
        pres = random_presentation(rng, p)
        emb = decompose(pres)
        oracle = decompose_by_enumeration(pres)
        assert oracle.relations_hold
        assert (emb.factors, emb.x_images, emb.y_images, emb.image_order) == (
            oracle.factors, oracle.x_images, oracle.y_images, oracle.image_order)
        assert emb.injective
        dropped += "cyclic" not in emb.factors
    assert dropped


def test_relation_check_agrees_with_repeated_products():
    # one entry of decompose's images replaced at random: the factorwise
    # check raises exactly when the oracle finds a relation that fails
    rng = random.Random(21)
    verdicts = set()
    for p in (5, 7, 11, 13):
        for _ in range(40):
            pres = random_presentation(rng, p)
            emb = decompose(pres)
            group = GpdGroup(p, pres.d)
            images = [list(map(list, emb.x_images)), list(map(list, emb.y_images))]
            row = rng.choice(images[0] + images[1])
            f = rng.randrange(len(emb.factors))
            row[f] = (GpdElement(rng.randrange(p), rng.randrange(pres.d))
                      if emb.factors[f] == "gpd" else rng.randrange(pres.d))
            xs, ys = (tuple(map(tuple, side)) for side in images)
            expected = relations_hold_by_products(group, pres, emb.factors, xs, ys)
            try:
                _check_relations(group, pres, emb.factors, xs, ys)
            except AssertionError:
                assert not expected
            else:
                assert expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_image_order_agrees_with_the_breadth_first_count():
    # any y-images, not only decompose's: the image is then often a proper
    # subgroup, and its order p^n |Y| is checked against a count
    rng = random.Random(12)
    orders = set()
    for p, d in [(3, 2), (5, 4), (7, 6), (7, 3), (11, 10), (13, 4)]:
        group = GpdGroup(p, d)
        for _ in range(40):
            size = rng.randint(0, 2)
            n = rng.randint(0, size)
            cyclic = size - n
            factors = ("gpd",) * n + ("cyclic",) * cyclic
            xs = [tuple(group.x if a == i else group.identity for a in range(n)) + (0,) * cyclic
                  for i in range(n)]
            ys = [tuple(GpdElement(rng.randrange(p), rng.randrange(d)) for _ in range(n))
                  + tuple(rng.randrange(d) for _ in range(cyclic))
                  for _ in range(rng.randint(0, 3))]
            order = _image_order(p, d, factors, ys)
            assert order == image_order_by_enumeration(group, factors, xs + ys)
            orders.add(order < p**n * d ** len(factors))
    assert orders == {True, False}


def fold_evaluate(obj, w):
    # oracle: one free-object product per letter, inverses through obj.inv
    out = obj.identity
    for letter in w.letters:
        g = obj.generators[abs(letter) - 1]
        out = obj.mul(out, g if letter > 0 else obj.inv(g))
    return out


@pytest.mark.parametrize("n,p,d", [(1, 7, 6), (2, 3, 2), (2, 5, 4), (3, 3, 2), (2, 7, 6),
                                   (2, 2, 1), (3, 5, 1)])
def test_free_object_evaluate_matches_the_letter_fold(n, p, d):
    obj = FreeObject(n, p, d)
    rng = random.Random(n * 100 + p * 10 + d)
    for _ in range(150):
        w = random_word(rng, n, 30)
        assert obj.evaluate(w) == fold_evaluate(obj, w), w
    assert obj.evaluate(identity(n)) == obj.identity


def fold_gpd_evaluate(group, w, images=None):
    # oracle: one GpdElement product per letter
    gens = (group.x, group.y) if images is None else images
    out = group.identity
    for letter in w.letters:
        g = gens[abs(letter) - 1]
        out = group.mul(out, g if letter > 0 else group.inv(g))
    return out


@pytest.mark.parametrize("p,d", PAIRS)
def test_gpd_evaluate_matches_the_letter_fold(p, d):
    rng = random.Random(p * d)
    for q in sorted(set(q_sets(p, d)[1]))[:2]:
        group = GpdGroup(p, d, q)
        words = [random_word(rng, 2, 40) for _ in range(100)]
        words += [drifting_word(rng, 10_000, up) for up in (0.2, 0.5, 0.8)]
        assert min(min(heights(w)) for w in words) < -100
        for w in words:
            expected = fold_gpd_evaluate(group, w)
            assert group.evaluate(w) == expected == evaluate_by_height_counts(group, w), \
                (p, d, q, str(w)[:40])


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_gpd_evaluate_under_given_images_matches_the_letter_fold(rank):
    rng = random.Random(rank)
    for p, d in PAIRS:
        group = GpdGroup(p, d)
        for _ in range(40):
            # images past the ranges too, and negative
            images = tuple(GpdElement(rng.randrange(-p, 2 * p), rng.randrange(-d, 2 * d))
                           for _ in range(rank))
            for w in [random_word(rng, rank, 30) for _ in range(5)] + [identity(rank)]:
                assert group.evaluate(w, images) == fold_gpd_evaluate(group, w, images), \
                    (p, d, images, w)
        for wrong in (rank - 1, rank + 1):
            with pytest.raises(ValueError):
                group.evaluate(identity(rank), (group.x,) * wrong)
    # the default images are x and y, for rank-2 words only
    if rank != 2:
        with pytest.raises(ValueError):
            GpdGroup(5, 4).evaluate(identity(rank))


def test_relatively_free_kernel_with_d_one_is_the_mod_p_abelian_kernel():
    rng = random.Random(17)
    for n, p in [(1, 2), (2, 2), (2, 3), (3, 5)]:
        spec = KernelSpec.relatively_free(n, p, 1)
        kills = 0
        for _ in range(200):
            w = random_word(rng, n, 12)
            if rng.random() < 0.3:
                w = w ** p
            killed = not any(x % p for x in w.abelianization())
            assert kernel_membership(w, spec) == killed, (n, p, w)
            kills += killed
        assert 0 < kills < 200
    with pytest.raises(ValueError):
        KernelSpec.relatively_free(2, 7, 4)
    with pytest.raises(ValueError):
        KernelSpec.relatively_free(2, 7, 0)
