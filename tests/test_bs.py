import random
from fractions import Fraction

import pytest

from provar import bs, metabelian as mb
from provar.apd import GpdElement, GpdGroup
from provar.errors import BudgetExhaustedError
from provar.numtheory import is_primitive_root
from provar.words import Word, parse, word


def random_word(rng, max_len):
    letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, max_len + 1))]
    return word(letters, 2)


def fold_bs_eval(u, q):
    # oracle: the product of one BsElement per letter, in Fraction arithmetic
    a = bs.BsElement(q, Fraction(1), 0)
    b = bs.BsElement(q, Fraction(0), 1)
    gens = (a, b)
    out = bs.bs_identity(q)
    for letter in u.letters:
        g = gens[abs(letter) - 1]
        out = out * (g if letter > 0 else g.inverse())
    return out


def heights(u):
    j, out = 0, [0]
    for letter in u.letters:
        if abs(letter) == 2:
            j += 1 if letter > 0 else -1
            out.append(j)
    return out


def drifting_word(rng, length, up):
    # a reduced word of the given length; b is drawn with probability
    # up / 2 and B with (1 - up) / 2, so the b-height drifts up, down or
    # not at all
    letters = []
    while len(letters) < length:
        if rng.random() < 0.5:
            letter = rng.choice([1, -1])
        else:
            letter = 2 if rng.random() < up else -2
        if not letters or letters[-1] != -letter:
            letters.append(letter)
    return Word(tuple(letters), 2)


def test_bs_eval_matches_letter_fold():
    rng = random.Random(2024)
    lows = highs = 0
    for q in (2, 3, 5, 7):
        cases = [(length, up) for length in (0, 1, 7, 60, 400) for up in (0.2, 0.5, 0.8)]
        cases += [(1_000, 0.35), (1_000, 0.65), (3_000, 0.5), (10_000, 0.5)]
        for length, up in cases:
            u = drifting_word(rng, length, up)
            got = bs.bs_eval(u, q)
            assert got == fold_bs_eval(u, q)
            hs = heights(u)
            lows += min(hs) < 0
            highs += max(hs) > 0
    assert lows >= 20 and highs >= 20


def test_bs_eval_heights_of_one_sign():
    for q in (2, 3, 5, 7):
        # every a-letter below height 0, then every one above it
        for text in ("B^3 a b a^-2 b^-1 a", "b^2 a B a^3 b^4 A", "B^5 a^2 b^5", "b a^4 B"):
            u = parse(text, 2)
            assert bs.bs_eval(u, q) == fold_bs_eval(u, q)


def test_bs_eval_rejects_what_the_fold_rejects():
    for q in (0, 1, 4, -3):
        for text in ("", "ab", "Ba"):
            with pytest.raises(ValueError) as new:
                bs.bs_eval(parse(text, 2), q)
            with pytest.raises(ValueError) as old:
                fold_bs_eval(parse(text, 2), q)
            assert str(new.value) == str(old.value)
    with pytest.raises(ValueError, match="rank-2"):
        bs.bs_eval(parse("a", 1), 2)


def test_bs_eval_examples():
    assert bs.bs_eval(parse("baB", 2), 2) == bs.BsElement(2, Fraction(2), 0)
    assert bs.bs_eval(parse("Bab", 2), 2) == bs.BsElement(2, Fraction(1, 2), 0)
    # [b,a] = b a b^-1 a^-1
    g = bs.bs_eval(parse("baBA", 2), 2)
    assert g == bs.BsElement(2, Fraction(1), 0)
    assert not g.is_identity()


def test_bs_eval_is_homomorphism():
    rng = random.Random(9)
    for q in (2, 3):
        for _ in range(300):
            u, v = random_word(rng, 8), random_word(rng, 8)
            assert bs.bs_eval(u * v, q) == bs.bs_eval(u, q) * bs.bs_eval(v, q)
            assert (bs.bs_eval(u, q) * bs.bs_eval(u, q).inverse()).is_identity()


def test_bs_relation():
    for q in (2, 3, 5):
        relator = parse("baB", 2) * (parse("a", 2) ** q).inverse()
        assert bs.bs_is_trivial(relator, q)


def test_bs_is_trivial_examples():
    assert bs.bs_is_trivial(parse("", 2), 2)
    assert bs.bs_is_trivial(parse("baB", 2) * parse("A", 2) ** 2, 2)
    assert not bs.bs_is_trivial(parse("abAB", 2), 2)
    assert bs.bs_eval(parse("abAB", 2), 2) == bs.BsElement(2, Fraction(-1), 0)


def test_bs_element_normal_form():
    g = bs.BsElement(2, Fraction(3, 4), 5)
    assert g.numerator == 3 and g.denominator_exponent == 2
    assert bs.bs_identity(2).denominator_exponent == 0
    with pytest.raises(ValueError):
        bs.BsElement(2, Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        bs.BsElement(4, Fraction(1), 0)


def test_flow_trivial_words_are_bs_trivial():
    # the second derived subgroup dies in any metabelian group
    a, b = parse("a", 2), parse("b", 2)
    c = a * b * a.inverse() * b.inverse()
    c2 = c * c.conjugate(b) * c.inverse() * c.conjugate(b).inverse()
    assert mb.flow_of(c2).is_zero()
    for q in (2, 3):
        assert bs.bs_is_trivial(c2, q)
    # but not conversely: some BS(1,2)-trivial words have nonzero flow
    w = parse("baB", 2) * (parse("a", 2) ** 2).inverse()
    assert bs.bs_is_trivial(w, 2)
    assert not mb.flow_of(w).is_zero()


def test_bs_separating_prime_examples():
    p, image = bs.bs_separating_prime(bs.BsElement(2, Fraction(-1), 1))
    assert p == 3 and image == GpdElement(2, 1)

    p, image = bs.bs_separating_prime(bs.BsElement(2, Fraction(1), 0))
    assert p == 3 and image == GpdElement(1, 0)

    p, image = bs.bs_separating_prime(bs.BsElement(2, Fraction(1, 2), 0))
    assert p == 3 and image == GpdElement(2, 0)


def test_bs_separating_prime_scan_is_not_the_smallest():
    # x y^5 with q = 2: the scan passes over every p <= 6, so it returns
    # 11, although p = 3 already separates; the image is nontrivial
    u = parse("abbbbb", 2)
    p, image = bs.bs_separating_prime(bs.bs_eval(u, 2))
    assert p == 11
    assert image != GpdElement(0, 0)
    assert GpdGroup(11, 10, 2).evaluate(u) == image
    small = GpdGroup(3, 2, 2)
    assert small.evaluate(u) != small.identity


def test_bs_separating_prime_verified():
    rng = random.Random(10)
    for q in (2, 3):
        for _ in range(100):
            u = random_word(rng, 10)
            g = bs.bs_eval(u, q)
            if g.is_identity():
                continue
            p, image = bs.bs_separating_prime(g)
            assert is_primitive_root(q, p) and p != q
            assert image != GpdElement(0, 0)
            # the canonical map respects the defining relation and the
            # word's image matches the element's image
            group = GpdGroup(p, p - 1, q % p)
            relator = parse("baB", 2) * (parse("a", 2) ** q).inverse()
            assert group.evaluate(relator) == group.identity
            assert group.evaluate(u) == image


def test_bs_separating_prime_rejects_identity():
    with pytest.raises(ValueError):
        bs.bs_separating_prime(bs.bs_identity(2))


def test_bs_separating_prime_budget(monkeypatch):
    monkeypatch.setattr(bs, "PRIME_BUDGET", 0)
    with pytest.raises(BudgetExhaustedError):
        bs.bs_separating_prime(bs.BsElement(2, Fraction(1), 0))
