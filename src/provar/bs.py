"""Solvable Baumslag-Solitar groups BS(1,q) for prime q.

Elements live in the concrete model Z[1/q] x| Z: a maps to (1, 0), b to
(0, 1), and b acts on the rational part by multiplication by q, giving
the group law (x, j)(x', j') = (x + q^j x', j + j').  A word's image is
(sum_j c_j q^j, final height), where c_j is the net number of a-letters
read at b-height j, so the word problem reduces to one pass of height
counts (``words.height_counts``) and one exact polynomial evaluation,
and nontrivial elements are separated in the groups C_p x| C_{p-1} for
primes p with q a primitive root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .apd import GpdElement
from .numtheory import find_pr_prime, p_split, require_prime
from .words import Word, height_counts

PRIME_BUDGET = 100_000


@dataclass(frozen=True)
class BsElement:
    """Element (x, j) of Z[1/q] x| Z with x = m / q^s in lowest terms."""

    q: int
    x: Fraction
    j: int

    def __post_init__(self) -> None:
        require_prime(self.q, "q")
        if p_split(self.x.denominator, self.q)[1] != 1:
            raise ValueError(f"denominator of {self.x} is not a power of {self.q}")

    @property
    def numerator(self) -> int:
        """m in the normal form m / q^s (coprime to q unless zero)."""
        return self.x.numerator

    @property
    def denominator_exponent(self) -> int:
        """s in the normal form m / q^s."""
        den = self.x.denominator
        s = 0
        while den > 1:
            den //= self.q
            s += 1
        return s

    def is_identity(self) -> bool:
        return self.x == 0 and self.j == 0

    def __mul__(self, other: "BsElement") -> "BsElement":
        if self.q != other.q:
            raise ValueError("mixed q")
        return BsElement(self.q, self.x + Fraction(self.q) ** self.j * other.x, self.j + other.j)

    def inverse(self) -> "BsElement":
        return BsElement(self.q, -Fraction(self.q) ** (-self.j) * self.x, -self.j)


def bs_identity(q: int) -> BsElement:
    return BsElement(q, Fraction(0), 0)


def bs_eval(u: Word, q: int) -> BsElement:
    """Image of a rank-2 word under a -> (1, 0), b -> (0, 1).

    An a^(+-1) read at b-height j contributes q^j to the rational part,
    so with the net a-counts c_j of ``words.height_counts``,
    x = sum_j c_j q^j, formed by Horner's rule over the heights from the
    highest to the lowest nonzero c_j, as a numerator over
    q^(-lowest height) when that height is negative.
    """
    require_prime(q, "q")
    counts, height = height_counts(u)
    numerator = 0
    if counts:
        low, high = min(counts), max(counts)
        for h in range(high, low - 1, -1):
            numerator = numerator * q + counts.get(h, 0)
        x = Fraction(numerator * q**low) if low >= 0 else Fraction(numerator, q**-low)
    else:
        x = Fraction(0)
    return BsElement(q, x, height)


def bs_is_trivial(u: Word, q: int) -> bool:
    return bs_eval(u, q).is_identity()


def bs_separating_prime(g: BsElement) -> tuple[int, GpdElement]:
    """A prime p != q with q a primitive root mod p, and the nontrivial
    image of g in C_p x| C_{p-1}.

    The canonical map takes m / q^s to m q^-s mod p and the b-exponent
    to its residue mod p - 1.  The first odd prime that is not q, does not
    divide a nonzero m, exceeds |j| + 1 and has q as a primitive root is
    returned: those conditions force a nontrivial image.  It is the
    first answer of ``find_pr_prime`` from max(3, |j| + 2), searched
    again past each answer that divides m.  A smaller prime may already
    separate g (for x y^5 with q = 2 the scan returns 11, although 3
    separates), so p need not be the smallest separating prime.
    BudgetExhaustedError when a search examines more than
    ``PRIME_BUDGET`` candidates.
    """
    if g.is_identity():
        raise ValueError("identity element has no separating quotient")
    m = g.numerator
    lower = max(3, abs(g.j) + 2)
    while True:
        p = find_pr_prime(g.q, lower, cap=PRIME_BUDGET).p
        if m == 0 or m % p:
            break
        lower = p + 1
    image = GpdElement(m % p * pow(g.q, -g.denominator_exponent, p) % p, g.j % (p - 1))
    if image == GpdElement(0, 0):
        raise AssertionError(f"the image of {g} at p = {p} is trivial")
    return p, image
