import random
from fractions import Fraction

import pytest

from provar import bs, metabelian as mb
from provar.apd import GpdElement, GpdGroup
from provar.errors import BudgetExhaustedError
from provar.numtheory import is_primitive_root
from provar.words import parse, word


def random_word(rng, max_len):
    letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, max_len + 1))]
    return word(letters, 2)


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


def test_bs_separating_prime_budget():
    with pytest.raises(BudgetExhaustedError):
        bs.bs_separating_prime(bs.BsElement(2, Fraction(1), 0), budget=0)
