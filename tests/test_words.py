import random
import re
import time

import pytest

from provar import apd
from provar.errors import CapExceededError
from provar.permgroup import DEFAULT_ELEMENT_CAP
from provar.words import (
    Word,
    commutator,
    fox,
    height_counts,
    identity,
    parse,
    reduce_letters,
    substitute,
    word,
)
from tests.oracles import parse_by_regex
from tests.test_apd import random_word

_TOKEN = re.compile(r"([a-zA-Z])(?:\s*\^\s*(-?\d+))?")


def token_loop_parse(text, rank):
    # oracle: one regex match per token, letter by letter
    stripped = text.replace("·", "").replace(" ", "")
    if stripped in ("", "1"):
        return identity(rank)
    letters = []
    pos = 0
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if not m:
            raise ValueError(f"cannot parse word at ...{stripped[pos:]!r}")
        char, power = m.group(1), m.group(2)
        index = ord(char.lower()) - ord("a") + 1
        if index > rank:
            raise ValueError(f"letter {char!r} exceeds rank {rank}")
        sign = 1 if char.islower() else -1
        count = int(power) if power is not None else 1
        letters.extend([sign * index if count > 0 else -sign * index] * abs(count))
        pos = m.end()
    return word(letters, rank)


def outcome(fn, text, rank):
    try:
        return "ok", fn(text, rank).letters
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def step_by_step_reduce(letters):
    # independent oracle: repeatedly delete the first cancelling pair
    out = list(letters)
    while True:
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                break
        else:
            return tuple(out)


def random_word(rng, rank, max_len):
    letters = [rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
               for _ in range(rng.randrange(max_len + 1))]
    return word(letters, rank)


def test_parse_basic():
    w = parse("abA", 2)
    assert w.letters == (1, 2, -1)
    assert len(w) == 3
    assert parse("aA", 2).is_identity()
    assert parse("", 3) == identity(3)
    assert parse("1", 3) == identity(3)


def test_parse_power_syntax():
    assert parse("a^-3 b^2", 2).letters == (-1, -1, -1, 2, 2)
    assert parse("A^2", 1).letters == (-1, -1)
    assert parse("a^0", 1).is_identity()


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse("abc", 2)
    with pytest.raises(ValueError):
        parse("a$", 2)


PIECES = ["a", "b", "c", "A", "B", "C", "z", "a^3", "B^-2", "c^0", "a ^ 2", "b\t^\t-4",
          "A^\n2", "^", "-", "2", "1", " ", "·", "\t", "$", "é", "^-", "a^٣", "b^-1 2"]


def test_parse_matches_token_loop_on_seeded_texts():
    rng = random.Random(404)
    fixed = ["", "1", " 1 ", "·", "1·", "11", "a1", "a\t^\t-2", "a^", "a^-", "a b",
             "a\tb", "ab$c", "c$", "$c", "ab·AB", "a^-3 b^2", "A^2", "aba^-3 B^2", "a^0"]
    texts = fixed + ["".join(rng.choice(PIECES) for _ in range(rng.randrange(1, 12)))
                     for _ in range(3_000)]
    kinds = set()
    for text in texts:
        for rank in (0, 1, 2, 3, 27):
            expected = outcome(token_loop_parse, text, rank)
            assert outcome(parse, text, rank) == expected, (text, rank)
            kinds.add("ok" if expected[0] == "ok" else expected[1].split()[0])
    # words, unparsable texts, letters beyond the rank and rank 0 all occur
    assert kinds == {"ok", "cannot", "letter", "rank"}


def test_parse_long_texts_match_token_loop():
    rng = random.Random(405)
    for length in (1_000, 10_000):
        text = "".join(rng.choice("aAbB") for _ in range(length))
        assert parse(text, 2) == token_loop_parse(text, 2)
        bad = text[: length // 2] + "%" + text[length // 2 :]
        assert outcome(parse, bad, 2) == outcome(token_loop_parse, bad, 2)


def regex_outcome(fn, text, rank):
    try:
        return "ok", fn(text, rank)
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)


# bare runs, powers, cancelling pairs (also across a power), separators,
# non-ASCII letters and digits, and text that does not parse
REGEX_PIECES = ["a", "b", "c", "z", "A", "B", "C", "Z", "ab", "aA", "Bb", "abBA", "cC", "a^3A",
                "A^2a", "b^-2b", "B^-1B", "c^0", "a ^ 2", "b\t^\t-4", " ", "·", "1", "\t", "é",
                "ß", "ａ", "Ω", "^", "-", "2", "$", "a^٣", "b^-1 2"]


def test_parse_matches_the_regex_route_on_seeded_texts():
    cap = DEFAULT_ELEMENT_CAP
    rng = random.Random(406)
    fixed = ["", "1", " 1 ", "·", "·1·", "aA", "Aa", "a^3A", "aaaA^3", "abBA", "é", "aé", "ａb",
             f"a^{cap}", f"a^{cap}b", f"a^{cap}A", "b" + "a" * cap, "a" * cap + "é",
             f"a^{cap // 2 + 1} A^{cap // 2}", "a" * cap, "aA" * (cap // 2) + "a"]
    runs = ["".join(rng.choice("aAbB") for _ in range(rng.randrange(500, 3_000))) for _ in range(20)]
    texts = fixed + runs + ["".join(rng.choice(REGEX_PIECES) for _ in range(rng.randrange(1, 14)))
                            for _ in range(3_000)]
    kinds = set()
    for text in texts:
        for rank in (0, 1, 2, 3, 26, 27):
            expected = regex_outcome(parse_by_regex, text, rank)
            assert regex_outcome(parse, text, rank) == expected, (text[:40], rank)
            kinds.add("ok" if expected[0] == "ok" else (expected[0], expected[1].split()[0]))
    assert kinds == {"ok", (ValueError, "cannot"), (ValueError, "letter"), (ValueError, "rank"),
                     (CapExceededError, "word")}


def test_parse_refuses_expansions_beyond_the_cap():
    cap = apd.DEFAULT_CAP
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        parse("a^1000000000000", 1)
    with pytest.raises(CapExceededError):
        parse("ab^-1000000000000", 2)
    assert time.perf_counter() - start < 0.1
    assert len(parse(f"a^{cap}", 1)) == cap
    with pytest.raises(CapExceededError):
        parse(f"a^{cap + 1}", 1)
    # the count is of letters before free reduction
    with pytest.raises(CapExceededError):
        parse(f"a^{cap // 2 + 1} A^{cap // 2}", 1)
    with pytest.raises(CapExceededError):
        parse("b" + "a" * cap, 2)
    with pytest.raises(CapExceededError):
        parse(f"a^{cap}b", 2)


def test_reduce_examples():
    assert parse("abBAba", 2).letters == (2, 1)
    rng = random.Random(7)
    for _ in range(200):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
        assert reduce_letters(letters) == step_by_step_reduce(letters)
    # products x·y · y^-1·z cancel a long overlap where the factors meet,
    # all of one factor when x or z is empty, and everything for u · u^-1
    for _ in range(200):
        x, y, z = (random_word(rng, 3, n) for n in (rng.choice([0, 5, 40]), 300, rng.choice([0, 5, 40])))
        u, v = word(x.letters + y.letters, 3), word(y.inverse().letters + z.letters, 3)
        for left, right in ((u, v), (v, u), (u, u.inverse()), (u, x.inverse())):
            assert (left * right).letters == reduce_letters(left.letters + right.letters)


def test_reduce_idempotent_and_shorter():
    rng = random.Random(11)
    for _ in range(200):
        letters = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(15)))
        reduced = reduce_letters(letters)
        assert reduce_letters(reduced) == reduced
        assert len(reduced) <= len(letters)


def test_word_invariants_enforced():
    with pytest.raises(ValueError):
        Word((1, -1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)
    with pytest.raises(ValueError):
        Word((), 0)


def test_word_names_the_first_letter_out_of_range():
    for letters, bad in (((0,), 0), ((1, 0, 2), 0), ((1, 3, -4), 3), ((2, -1, -3), -3)):
        with pytest.raises(ValueError, match=f"letter {bad} out of range for rank 2"):
            Word(letters, 2)
    with pytest.raises(ValueError, match="not freely reduced"):
        Word((1, 2, -2), 2)


def test_trusted_words_equal_checked_ones_and_bad_letters_still_raise():
    # parse and the basis spelling build their words by Word.trusted; each
    # must equal the Word built with both checks, hash alike and hold a
    # tuple of ints
    from provar.stallings import Automaton

    rng = random.Random(406)
    words = []
    for rank in (1, 2, 3, 27):
        for _ in range(200):
            text = "".join(rng.choice("aAbBcC"[: 2 * min(rank, 3)]) for _ in range(rng.randrange(0, 30)))
            words.append(parse(text, rank))
        for _ in range(20):
            gens = [random_word(rng, min(rank, 3), 6) for _ in range(rng.randrange(1, 4))]
            words += Automaton.from_generators(gens, min(rank, 3)).basis()
    for w in words:
        checked = Word(tuple(w.letters), w.rank)
        assert w == checked and hash(w) == hash(checked), w
        assert type(w.letters) is tuple and all(type(x) is int for x in w.letters)
    assert any(len(w) > 10 for w in words)
    for bad in ((1, -1), (3,), (0,), (1, 2, -2)):
        with pytest.raises(ValueError):
            Word(bad, 2)
    for text in ("abc", "a$", "aA^-1c"):
        with pytest.raises(ValueError):
            parse(text, 2)


def test_word_checks_letters_before_free_reduction():
    # reduction would cancel both pairs to the identity
    for letters, bad in (([3, -3], 3), ([0, 0], 0)):
        with pytest.raises(ValueError, match=f"letter {bad} out of range for rank 2"):
            word(letters, 2)


def test_power_matches_the_repeated_product():
    rng = random.Random(71)
    words = [parse(t, 2) for t in ("", "a", "abA", "abAB", "aabA")]
    words += [word([rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(1, 9))], 3)
              for _ in range(30)]
    for w in words:
        for n in range(-3, 7):
            base = w if n >= 0 else w.inverse()
            product = identity(w.rank)
            for _ in range(abs(n)):
                product = product * base
            assert w ** n == product, (w, n)


def test_compose_examples():
    ab = parse("ab", 2)
    assert str(ab.inverse()) == "BA"
    assert (ab * parse("B", 2)) == parse("a", 2)
    conj = parse("a", 2).conjugate(parse("b", 2))
    assert str(conj) == "baB" and len(conj) == 3


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        parse("a", 1) * parse("a", 2)


def test_mul_inverse_is_identity_many_samples():
    rng = random.Random(123)
    for _ in range(10_000):
        u = random_word(rng, rng.choice([1, 2, 3]), 8)
        assert (u * u.inverse()).is_identity()
        assert (u.inverse() * u).is_identity()


def test_abelianization_examples():
    assert commutator(parse("a", 2), parse("b", 2)).abelianization() == (0, 0)
    assert parse("aaB", 2).abelianization() == (2, -1)
    assert parse("a^5", 1).abelianization() == (5,)


def test_abelianization_homomorphism():
    rng = random.Random(5)
    for _ in range(500):
        u = random_word(rng, 3, 10)
        v = random_word(rng, 3, 10)
        uv = (u * v).abelianization()
        assert uv == tuple(x + y for x, y in zip(u.abelianization(), v.abelianization()))
    # surjectivity witnesses on the generators
    for j in range(3):
        vec = word([j + 1], 3).abelianization()
        assert vec == tuple(1 if i == j else 0 for i in range(3))


def test_pow_and_str():
    a = parse("a", 2)
    assert a**3 == parse("aaa", 2)
    assert a**-2 == parse("AA", 2)
    assert str(a**0) == "1"


def add_translate(left, right, shift):
    """left + t^shift . right for Fox parts (dicts point -> coefficient)."""
    out = dict(left)
    for t, c in right.items():
        key = tuple(a + b for a, b in zip(t, shift))
        out[key] = out.get(key, 0) + c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_fox_product_rule_and_endpoint(rank):
    rng = random.Random(40 + rank)
    for _ in range(300):
        u, v = random_word(rng, rank, 10), random_word(rng, rank, 10)
        eu, fu = fox(u)
        _, fv = fox(v)
        e, parts = fox(u * v)
        assert eu == u.abelianization() and e == (u * v).abelianization()
        assert parts == [add_translate(a, b, eu) for a, b in zip(fu, fv)], (u, v)
        assert all(c for part in parts for c in part.values())


def test_fox_of_generators_and_inverses():
    assert fox(identity(3)) == ((0, 0, 0), [{}, {}, {}])
    assert fox(parse("b", 3)) == ((0, 1, 0), [{}, {(0, 0, 0): 1}, {}])
    assert fox(parse("B", 3)) == ((0, -1, 0), [{}, {(0, -1, 0): -1}, {}])
    # abAB: da = 1 - b, db = a - 1
    assert fox(parse("abAB", 2)) == ((0, 0), [{(0, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 0): -1}])


def test_height_counts_are_row_sums_of_the_a_derivative():
    rng = random.Random(44)
    for _ in range(300):
        u = random_word(rng, 2, 40)
        endpoint, (a_part, _) = fox(u)
        rows = {}
        for (_, n), c in a_part.items():
            rows[n] = rows.get(n, 0) + c
        assert height_counts(u) == ({n: c for n, c in rows.items() if c}, endpoint[1])
    assert height_counts(parse("BaBAbb", 2)) == ({-1: 1, -2: -1}, 0)
    with pytest.raises(ValueError):
        height_counts(parse("a", 1))


def naive_substitute(u, images):
    # oracle: every letter spelled by its image, then freely reduced
    spelled = [x for letter in u.letters for x in
               (images[letter - 1] if letter > 0 else images[-letter - 1].inverse()).letters]
    return word(spelled, images[0].rank)


def test_substitute_matches_spelling_then_reducing():
    rng = random.Random(32)
    for _ in range(600):
        rank, target = rng.randint(1, 3), rng.randint(1, 3)
        c = random_word(rng, target, 5)
        images = [random_word(rng, target, 6) for _ in range(rank)]
        if rng.random() < 0.5:
            # conjugates by one word cancel across every two letters
            images = [w.conjugate(c) for w in images]
        if rng.random() < 0.2:
            images[rng.randrange(rank)] = identity(target)
        u = random_word(rng, rank, 12)
        assert substitute(u, images) == naive_substitute(u, images), (u, images)
    assert substitute(identity(2), [parse("a", 1)] * 2) == identity(1)
    for u, images in ((parse("ab", 2), [parse("a", 2)]), (parse("a", 1), [parse("a", 2)] * 2)):
        with pytest.raises(ValueError):
            substitute(u, images)


def test_substitute_cancels_a_long_conjugator_in_linear_time():
    # shift images under c = a^n b^n: spelled letter by letter, b^-n a b^n
    # would need about 4 n^2 letter steps; as runs it needs a few per letter
    n = 3000
    a, b = parse("a", 2), parse("b", 2)
    c = a ** n * b ** n
    u = b ** -n * parse("abAB", 2) * b ** n
    start = time.perf_counter()
    assert substitute(u, [a.conjugate(c), b.conjugate(c)]) == u.conjugate(c)
    assert time.perf_counter() - start < 2.0
