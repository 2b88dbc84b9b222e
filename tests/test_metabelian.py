import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from provar import metabelian as mb
from provar.apd import GpdElement, GpdGroup
from provar.cli import dispatch
from provar.errors import CapExceededError, NoWitnessError
from provar.words import commutator, identity, parse, word
from tests.oracles import sums


def exotic_word():
    # c * (c^a)^-1 * (c^b)^-1 * c^(ab) for c = [a, b]: nonzero flow but
    # all row and column sums vanish
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    return c * c.conjugate(a).inverse() * c.conjugate(b).inverse() * c.conjugate(a * b)


def random_word(rng, max_len):
    letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, max_len + 1))]
    return word(letters, 2)


def swap(u):
    return mb.PreMap((("swap",),)).apply(u)


def theta(u, k):
    # a -> ab, b -> b^k
    return mb.PreMap((("theta", k),)).apply(u)


def test_shift_step_matches_first_quadrant_shift():
    rng = random.Random(81)
    shifts = set()
    for _ in range(60):
        u = random_word(rng, 12)
        m, shifted = mb.first_quadrant_shift(u)
        assert mb.PreMap((("shift", m),)).apply(u) == shifted, u
        shifts.add(m)
    assert 0 in shifts and len(shifts) > 2


def test_flow_examples():
    assert mb.flow_of(identity(2)) == mb.Flow({}, {}, (0, 0))

    f = mb.flow_of(parse("abAB", 2))
    assert f.a_edges == {(0, 0): 1, (0, 1): -1}
    assert f.b_edges == {(1, 0): 1, (0, 0): -1}
    assert f.endpoint == (0, 0)

    f = mb.flow_of(parse("ab", 2))
    assert f.a_edges == {(0, 0): 1}
    assert f.b_edges == {(1, 0): 1}
    assert f.endpoint == (1, 1)


def test_flow_endpoint_is_abelianization():
    rng = random.Random(1)
    for _ in range(300):
        u = random_word(rng, 12)
        assert mb.flow_of(u).endpoint == u.abelianization()


def translate(flow, dx, dy):
    """The flow of the same path started at (dx, dy)."""
    return mb.Flow(
        {(m + dx, n + dy): c for (m, n), c in flow.a_edges.items()},
        {(m + dx, n + dy): c for (m, n), c in flow.b_edges.items()},
        (flow.endpoint[0] + dx, flow.endpoint[1] + dy),
    )


def test_flow_crossed_homomorphism():
    rng = random.Random(2)
    for _ in range(1000):
        u, v = random_word(rng, 8), random_word(rng, 8)
        fu, fv = mb.flow_of(u), mb.flow_of(v)
        combined = mb.flow_of(u * v)
        translated = translate(fv, *fu.endpoint)
        a = dict(fu.a_edges)
        for e, c in translated.a_edges.items():
            a[e] = a.get(e, 0) + c
        b = dict(fu.b_edges)
        for e, c in translated.b_edges.items():
            b[e] = b.get(e, 0) + c
        expected = mb.Flow(
            {e: c for e, c in a.items() if c},
            {e: c for e, c in b.items() if c},
            translated.endpoint,
        )
        assert combined == expected


def test_metab_equal_examples():
    assert not mb.metab_equal(parse("abAB", 2), identity(2))
    assert not mb.metab_equal(parse("ab", 2), parse("ba", 2))

    # words differing by an element of the second derived subgroup are equal
    u = parse("abA", 2)
    c1 = commutator(parse("a", 2), parse("b", 2))
    c2 = c1.conjugate(parse("b", 2))
    w = commutator(c1, c2)
    assert mb.metab_equal(u, u * w)
    assert mb.flow_of(w).is_zero()


def test_metab_equal_is_congruence():
    rng = random.Random(3)
    for _ in range(200):
        u, v, t = random_word(rng, 6), random_word(rng, 6), random_word(rng, 6)
        if mb.metab_equal(u, v):
            assert mb.metab_equal(u * t, v * t)
            assert mb.metab_equal(t * u, t * v)


def test_sums_examples():
    assert sums(mb.Flow()) == ({}, {})

    h, v = sums(mb.flow_of(parse("abAB", 2)))
    assert h == {0: 1, 1: -1}
    assert v == {0: -1, 1: 1}

    h, v = sums(mb.flow_of(exotic_word()))
    assert h == {} and v == {}
    assert not mb.flow_of(exotic_word()).is_zero()


def test_swap_generators_transposes_sums():
    rng = random.Random(4)
    for _ in range(200):
        u = random_word(rng, 10)
        h, v = sums(mb.flow_of(u))
        h2, v2 = sums(mb.flow_of(swap(u)))
        assert h2 == v and v2 == h


def test_first_quadrant_shift_examples():
    m, v = mb.first_quadrant_shift(parse("ab", 2))
    assert m == 0 and v == parse("ab", 2)

    m, v = mb.first_quadrant_shift(parse("A", 2))
    assert m == 1
    assert v == parse("abABA", 2)

    m, v = mb.first_quadrant_shift(parse("BBa", 2))
    assert m == 2


def test_first_quadrant_shift_core_in_quadrant():
    rng = random.Random(5)
    for _ in range(300):
        u = random_word(rng, 10)
        m, v = mb.first_quadrant_shift(u)
        e1, e2 = u.abelianization()
        f = mb.flow_of(v)
        # path edges never drop below the endpoint's negative part
        assert all(n >= min(0, e2) for (_, n) in f.a_edges)
        assert all(col >= min(0, e1) for (col, _) in f.b_edges)
        if e1 >= 0 and e2 >= 0:
            assert all(col >= 0 and n >= 0 for (col, n) in f.a_edges)
            assert all(col >= 0 and n >= 0 for (col, n) in f.b_edges)
        # the shift is a conjugation: flow triviality is preserved
        assert f.is_zero() == mb.flow_of(u).is_zero()
        # minimality: the chosen shift is exactly the deepest excursion
        x = y = low = 0
        for letter in u.letters:
            x += 1 if letter == 1 else -1 if letter == -1 else 0
            y += 1 if letter == 2 else -1 if letter == -2 else 0
            low = min(low, x, y)
        assert m == -low


def test_theta_substitute_examples():
    assert theta(parse("b", 2), 3) == parse("b^3", 2)

    # (ab)(b^4)(b^-1 a^-1)(b^-4) reduces to a b^4 a^-1 b^-4
    v = theta(parse("abAB", 2), 4)
    assert v == parse("ab^4AB^4", 2)
    assert mb.flow_of(v).h_sums() == {0: 1, 4: -1}

    # homomorphic image of a flow-trivial word stays flow-trivial
    c = commutator(parse("a", 2), parse("b", 2))
    c2 = commutator(c, c.conjugate(parse("b", 2)))
    assert mb.flow_of(theta(c2, 3)).is_zero()

    for k in (0, -1):
        with pytest.raises(ValueError):
            theta(parse("a", 2), k)
        with pytest.raises(ValueError):
            mb.PreMap((("theta", k),)).images(GpdGroup(5, 4))


def test_theta_transport_rule():
    # for a first-quadrant word of length k, the maximal a-edge count
    # reappears as the row sum at m + n k
    rng = random.Random(6)
    checked = 0
    for _ in range(500):
        u = random_word(rng, 8)
        m0, shifted = mb.first_quadrant_shift(u)
        f = mb.flow_of(shifted)
        if not f.a_edges:
            continue
        k = len(shifted)
        n = max(row for (_, row) in f.a_edges)
        m = max(col for (col, row) in f.a_edges if row == n)
        count = f.a_edges[(m, n)]
        if count == 0:
            continue
        image = theta(shifted, k)
        assert mb.flow_of(image).h_sums().get(m + n * k) == count
        checked += 1
    assert checked > 100


def test_separating_witness_commutator():
    w = mb.separating_witness(parse("abAB", 2))
    assert w.p == 3 and w.q == 2
    assert w.image == GpdElement(2, 0)
    assert w.pre_map.describe() == "direct"


def test_separating_witness_generator():
    w = mb.separating_witness(parse("a", 2))
    assert w.p == 3
    assert w.image == GpdElement(1, 0)


def test_separating_witness_column_case():
    # c * (c^a)^-1 for c = [a,b]: row sums all vanish, column sums survive
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    u = c * c.conjugate(a).inverse()
    f = mb.flow_of(u)
    assert not f.h_sums() and f.v_sums() == {0: -1, 1: 2, 2: -1}
    w = mb.separating_witness(u)
    assert w.pre_map.steps == (("swap",),)
    assert w.image != GpdElement(0, 0)
    group = GpdGroup(w.p, w.p - 1, w.q)
    assert group.evaluate(w.pre_map.apply(u)) == w.image


def test_separating_witness_zero_flow_raises():
    with pytest.raises(NoWitnessError):
        mb.separating_witness(identity(2))
    c = commutator(parse("a", 2), parse("b", 2))
    c2 = commutator(c, c.conjugate(parse("b", 2)))
    assert mb.flow_of(c2).is_zero()
    with pytest.raises(NoWitnessError):
        mb.separating_witness(c2)


def test_separating_witness_theta_route():
    u = exotic_word()
    w = mb.separating_witness(u)
    kinds = [s[0] for s in w.pre_map.steps]
    assert "theta" in kinds
    assert w.image != GpdElement(0, 0)
    # re-verify by hand
    group = GpdGroup(w.p, w.p - 1, w.q)
    assert group.evaluate(w.pre_map.apply(u)) == w.image


def test_separating_witness_traces_each_word_once(monkeypatch):
    # at most once: no flow in the direct and swap cases, the input's in
    # the theta case
    traced = []
    flow_of = mb.flow_of

    def counting_flow_of(u):
        traced.append(u)
        return flow_of(u)

    monkeypatch.setattr(mb, "flow_of", counting_flow_of)
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    cases = ((parse("abAB", 2), "direct"), (c * c.conjugate(a).inverse(), "swap"),
             (exotic_word(), "theta"), (parse("ABabABabaBAAbaabABAbaB", 2), "shift"))
    for u, kind in cases:
        traced.clear()
        witness = mb.separating_witness(u)
        assert traced == ([u] if kind in ("theta", "shift") else [])
        assert witness.pre_map.describe().startswith(kind)
        assert witness.image != GpdElement(0, 0)


def _words_of_each_case(rng, per_case):
    """Seeded words for each pre-map case: direct and swap words are
    products of random words and conjugates of a column-case word; theta
    words are products of conjugates of ``exotic_word()``, with and
    without a first-quadrant shift."""
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    column = c * c.conjugate(a).inverse()
    found = {"direct": [], "swap": [], "theta": [], "shift": []}
    while any(len(words) < per_case for words in found.values()):
        factor = exotic_word() if rng.random() < 0.5 else column
        u = identity(2)
        for _ in range(rng.randint(1, 3)):
            g = random_word(rng, 3)
            u = u * (factor if rng.random() < 0.5 else factor.inverse()).conjugate(g)
        if rng.random() < 0.3:
            u = u * random_word(rng, 6)
        f = mb.flow_of(u)
        if f.is_zero():
            continue
        h, v = sums(f)
        kind = ("direct" if h else "swap" if v
                else "shift" if mb.first_quadrant_shift(u)[0] else "theta")
        if len(found[kind]) < per_case:
            found[kind].append(u)
    return found


def test_row_sums_read_off_the_input_match_the_transformed_word(monkeypatch):
    used = []
    direct_search = mb._direct_search

    def recording_direct_search(h, n0):
        used.append((h, n0))
        return direct_search(h, n0)

    monkeypatch.setattr(mb, "_direct_search", recording_direct_search)
    for kind, words in _words_of_each_case(random.Random(14), 300).items():
        for u in words:
            used.clear()
            witness = mb.separating_witness(u)
            assert witness.pre_map.describe().startswith(kind), (kind, u)
            transformed = witness.pre_map.apply(u)
            f = mb.flow_of(transformed)
            assert used == [(f.h_sums(), f.endpoint[1])], (kind, u)


def small_groups():
    """G(p, d, q) for a few primes, every divisor d > 1 of p - 1 and the
    smallest q of order d."""
    return [GpdGroup(p, d) for p in (3, 5, 7, 11, 13) for d in range(2, p) if (p - 1) % d == 0]


def test_images_walk_matches_evaluate_on_each_case():
    groups = small_groups()
    for kind, words in _words_of_each_case(random.Random(15), 60).items():
        for u in words:
            witness = mb.separating_witness(u)
            transformed = witness.pre_map.apply(u)
            own = GpdGroup(witness.p, witness.p - 1, witness.q)
            for group in [own] + groups:
                walked = group.evaluate(u, witness.pre_map.images(group))
                assert walked == group.evaluate(transformed), (kind, u, group)


def test_images_walk_matches_evaluate_on_any_pre_map():
    # steps in any order and number, also a zero shift
    rng = random.Random(16)
    groups = small_groups()
    for _ in range(300):
        u = random_word(rng, 10)
        steps = tuple(rng.choice([("swap",), ("shift", rng.randrange(4)), ("theta", rng.randrange(1, 5))])
                      for _ in range(rng.randrange(4)))
        pre_map = mb.PreMap(steps)
        transformed = pre_map.apply(u)
        for group in rng.sample(groups, 4):
            assert group.evaluate(u, pre_map.images(group)) == group.evaluate(transformed)
    # two images for a rank-1 word, and a rank-1 word under a step
    with pytest.raises(ValueError):
        GpdGroup(5, 4).evaluate(parse("a", 1), mb.PreMap().images(GpdGroup(5, 4)))
    with pytest.raises(ValueError):
        mb.PreMap((("swap",),)).apply(parse("a", 1))


def test_verify_witness_refuses_a_spoiled_image_under_python_O():
    # a direct, a swap, a theta and a shift-and-theta word
    script = """
import sys
from provar import metabelian as mb
from provar.apd import GpdElement, GpdGroup
from provar.words import parse
refused = 0
for text in ("abAB", "abABabaBAA", "abABabaBAAbbaBABababABBA", "ABabABabaBAAbaabABAbaB"):
    u = parse(text, 2)
    w = mb.separating_witness(u)
    spoiled = next(e for e in GpdGroup(w.p, w.p - 1, w.q).elements()
                   if e not in (w.image, GpdElement(0, 0)))
    try:
        mb._verify_witness(mb.SeparationWitness(w.p, w.q, w.pre_map, spoiled), u)
    except AssertionError:
        refused += 1
print(sys.flags.optimize, refused)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.split() == ["1", "4"]


def test_a_long_theta_word_gets_its_witness_in_little_memory():
    # the theta-case witness of a word of about 4 000 letters: the
    # transformed word would have about |u|^2 / 4 = 4 * 10^6 letters
    rng = random.Random(17)
    u = identity(2)
    while len(u) < 4_000:
        g = random_word(rng, 6)
        u = u * (exotic_word() if rng.random() < 0.5 else exotic_word().inverse()).conjugate(g)
    tracemalloc.start()
    try:
        witness = mb.separating_witness(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "theta" in witness.pre_map.describe()
    assert peak < 4 * 2**20, peak


def test_metab_equal_matches_the_flow_oracle():
    rng = random.Random(18)
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    z = commutator(c, c.conjugate(b))  # in the second derived subgroup
    pairs = [(identity(2), identity(2)), (parse("ab", 2), identity(2)), (identity(2), parse("ab", 2)),
             (parse("abAB", 2), parse("abABa", 2)), (parse("babAB", 2), parse("abAB", 2))]
    for _ in range(400):
        p, s = random_word(rng, 30), random_word(rng, 30)
        x = random_word(rng, 8) if rng.random() < 0.8 else identity(2)
        y = rng.choice([x, x * z, z * x, x * c, random_word(rng, 8), identity(2)])
        pairs += [(p * x * s, p * y * s), (p * s, p * x * s), (p, p * x), (x * s, s)]
    equal = 0
    for u, v in pairs:
        expected = mb.flow_of(u) == mb.flow_of(v)
        assert mb.metab_equal(u, v) is expected, (u, v)
        assert mb.metab_equal(v, u) is expected, (u, v)
        equal += expected
    assert 100 < equal < len(pairs) - 100
    for u, v in ((parse("a", 3), parse("a", 2)), (parse("a", 2), parse("a", 3)), (parse("a", 1),) * 2):
        with pytest.raises(ValueError):
            mb.metab_equal(u, v)


def test_separating_witness_random_words():
    rng = random.Random(7)
    found = 0
    for _ in range(200):
        u = random_word(rng, 12)
        if mb.flow_of(u).is_zero():
            continue
        w = mb.separating_witness(u)
        group = GpdGroup(w.p, w.p - 1, w.q)
        assert group.evaluate(w.pre_map.apply(u)) == w.image != GpdElement(0, 0)
        found += 1
    assert found > 150


def test_separating_witness_minimality():
    rng = random.Random(8)
    from provar.numtheory import primes_from, smallest_of_order

    for _ in range(30):
        u = random_word(rng, 8)
        f = mb.flow_of(u)
        if not f.h_sums():
            continue
        w = mb.separating_witness(u)
        h = f.h_sums()
        n0 = f.endpoint[1]
        for p in primes_from(3):
            if p >= w.p:
                break
            q = smallest_of_order(p, p - 1)
            assert mb._polynomial_value_mod(h, q, p) == 0 and n0 % (p - 1) == 0


def test_guaranteed_search_small_word():
    # exercise the bound-driven fallback directly on a short word
    u = parse("abAB", 2)
    f = mb.flow_of(u)
    p, q, image = mb._guaranteed_search(f.h_sums(), f.endpoint[1], len(u))
    assert q > len(u) and p > len(u) * q ** len(u)
    assert image != GpdElement(0, 0)
    group = GpdGroup(p, p - 1, q)
    assert group.evaluate(u) == image


def test_guaranteed_search_negative_rows():
    # Laurent route: rows below zero handled through the inverse of q
    u = parse("BaBabA", 2)
    f = mb.flow_of(u)
    assert any(n < 0 for n in f.h_sums()), f.h_sums()
    p, q, image = mb._guaranteed_search(f.h_sums(), f.endpoint[1], len(u))
    assert image != GpdElement(0, 0)
    group = GpdGroup(p, p - 1, q)
    assert group.evaluate(u) == image


def test_witness_via_tiny_direct_bound_falls_back(monkeypatch):
    # force the fallback by making the direct search bound useless
    monkeypatch.setattr(mb, "DIRECT_PRIME_BOUND", 2)
    for u, kind in ((parse("abAB", 2), "direct"), (parse("bb", 2), "swap")):
        w = mb.separating_witness(u)
        assert w.pre_map.describe() == kind
        group = GpdGroup(w.p, w.p - 1, w.q)
        assert group.evaluate(w.pre_map.apply(u)) == w.image != GpdElement(0, 0)

    # a theta word's fallback prime is far too large to build its group,
    # so only the fallback's input is checked: the transformed word's
    # row sums, end height and length
    class Reached(Exception):
        pass

    def stop(*args):
        raise Reached(args)

    monkeypatch.setattr(mb, "_guaranteed_search", stop)
    u = exotic_word()
    with pytest.raises(Reached) as reached:
        mb.separating_witness(u)
    m, shifted = mb.first_quadrant_shift(u)
    transformed = theta(shifted, len(shifted))
    f = mb.flow_of(transformed)
    assert reached.value.args[0] == (f.h_sums(), 0, len(transformed))


def test_fallback_refuses_a_transformed_word_past_the_cap(monkeypatch, capsys):
    # a theta word of 704 letters with no shift: theta(704) spells its 352
    # letters b^(+-1) with 704 letters each, 247 808 letters at most, past
    # the cap of 200 000, so the fallback refuses before it builds the word
    monkeypatch.setattr(mb, "DIRECT_PRIME_BOUND", 2)

    def refuse(self, u):
        raise AssertionError("the transformed word was built")

    monkeypatch.setattr(mb.PreMap, "apply", refuse)
    u = exotic_word() ** 35
    assert len(u) == 704 and mb.first_quadrant_shift(u)[0] == 0
    with pytest.raises(CapExceededError):
        mb.separating_witness(u)
    assert dispatch(["metab-witness", "--word", str(u)]) == 3
    assert capsys.readouterr().err.startswith("error: the fallback's transformed word")


def test_fallback_witness_of_a_large_prime_is_checked(monkeypatch):
    # the swap word's fallback prime is about 2.6 * 10^11; its group forms
    # each power of q when it needs it, so the witness is checked again
    monkeypatch.setattr(mb, "DIRECT_PRIME_BOUND", 2)
    u = parse("BBABAbaBaB", 2)
    w = mb.separating_witness(u)
    assert w.pre_map.describe() == "swap" and w.p > 10**11
    mb._verify_witness(w, u)
    assert GpdGroup(w.p, w.p - 1, w.q).evaluate(w.pre_map.apply(u)) == w.image != GpdElement(0, 0)


def test_verify_witness_refuses_a_corrupted_image():
    a, b = parse("a", 2), parse("b", 2)
    c = commutator(a, b)
    for u in (parse("abAB", 2), parse("bb", 2), c * c.conjugate(a).inverse(), exotic_word()):
        w = mb.separating_witness(u)
        mb._verify_witness(w, u)
        for image in GpdGroup(w.p, w.p - 1, w.q).elements():
            if image in (w.image, GpdElement(0, 0)):
                continue
            corrupted = mb.SeparationWitness(w.p, w.q, w.pre_map, image)
            with pytest.raises(AssertionError):
                mb._verify_witness(corrupted, u)
