"""Primality, multiplicative orders, lattice indices, the sets Q_{p,d} and
primitive-root search.

All functions work on plain Python integers and are exact at any size;
arguments documented as primes are re-checked on entry.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import BudgetExhaustedError

DEFAULT_SEARCH_CAP = 10_000_000

# Strong-pseudoprime witnesses making Miller-Rabin deterministic below this bound.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 40


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    """True if ``a`` passes one strong-pseudoprime round for ``n = 2^r * d + 1``."""
    a %= n
    if a == 0:
        return True
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test.

    Deterministic (fixed witness set) for n below ~3.3e24; beyond that,
    Miller-Rabin with the same witnesses plus 40 extra bases drawn from a
    generator seeded by n, so the result is still deterministic per input.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        if not _miller_rabin_round(n, a, d, r):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(_MR_EXTRA_ROUNDS):
        if not _miller_rabin_round(n, rng.randrange(2, n - 1), d, r):
            return False
    return True


def require_prime(n: int, what: str = "argument") -> int:
    if not is_prime(n):
        raise ValueError(f"{what} must be prime, got {n}")
    return n


def primes_from(start: int):
    """Yield primes >= start in increasing order."""
    n = max(2, start)
    if n == 2:
        yield 2
        n = 3
    if n % 2 == 0:
        n += 1
    while True:
        if is_prime(n):
            yield n
        n += 2


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; adequate up to ~1e14 inputs."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mult_order(q: int, p: int) -> int:
    """Least k >= 1 with q^k = 1 mod p; always divides p - 1."""
    require_prime(p, "modulus")
    if q % p == 0:
        raise ValueError(f"{q} is divisible by {p}, so it has no multiplicative order")
    order = p - 1
    for f in factorize(p - 1):
        while order % f == 0 and pow(q, order // f, p) == 1:
            order //= f
    return order


def lattice_index(vectors, n: int):
    """Index of the sublattice of Z^n spanned by the vectors; None when
    the rank is deficient (infinite index).

    Euclidean column elimination: rows are processed top to bottom, and
    within a row the columns are combined until one pivot survives, so
    the pivots end up lower-triangular and the index is the product of
    their absolute values.
    """
    cols = [list(v) for v in vectors]
    index = 1
    for row in range(n):
        while True:
            nonzero = [c for c in cols if c[row] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda c: abs(c[row]))
            pivot = nonzero[0]
            for c in nonzero[1:]:
                factor = c[row] // pivot[row]
                if factor:
                    for r in range(n):
                        c[r] -= factor * pivot[r]
        nonzero = [c for c in cols if c[row] != 0]
        if not nonzero:
            return None
        pivot = nonzero[0]
        index *= abs(pivot[row])
        cols = [c for c in cols if c is not pivot]
    return index


def q_sets(p: int, d: int) -> tuple[set[int], set[int]]:
    """The exponent-d roots of unity mod p and, among them, the elements of exact order d.

    Returns (Q, Q') with Q = {q in [1, p-1] : q^d = 1 mod p} of size d and
    Q' = {q in Q : order(q) = d} of size phi(d).  With a primitive root g
    and h = g^((p-1)/d), Q is h^0, ..., h^(d-1) and Q' the h^k with
    gcd(k, d) = 1, so p - 1 is factorized once and d roots are formed.
    """
    require_prime(p, "p")
    if p <= 2:
        raise ValueError("p must exceed 2")
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"d = {d} does not divide p - 1 = {p - 1}")
    cofactors = [(p - 1) // f for f in factorize(p - 1)]
    g = next(g for g in range(2, p) if all(pow(g, c, p) != 1 for c in cofactors))
    h = pow(g, (p - 1) // d, p)
    q_all, q_exact = set(), set()
    q = 1
    for k in range(d):
        q_all.add(q)
        if math.gcd(k, d) == 1:
            q_exact.add(q)
        q = q * h % p
    return q_all, q_exact


def smallest_of_order(p: int, d: int) -> int:
    """Smallest q in [1, p-1] of exact multiplicative order d mod p.

    An upward scan meets the phi(d) roots of order d after about
    (p-1)/phi(d) candidates, and forming them from a primitive root
    (``q_sets``) takes d steps; so the first d candidates are scanned
    and the minimum of the formed roots taken when none is among them.
    """
    require_prime(p, "p")
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"d = {d} does not divide p - 1 = {p - 1}")
    for q in range(1, d + 1):
        if pow(q, d, p) == 1 and mult_order(q, p) == d:
            return q
    return min(q_sets(p, d)[1])


def is_primitive_root(q: int, p: int) -> bool:
    return q % p != 0 and mult_order(q, p) == p - 1


@dataclass(frozen=True)
class PrSearchResult:
    """A prime p for which q is a verified primitive root."""

    q: int
    p: int
    order_check: int

    def __post_init__(self) -> None:
        if self.order_check != self.p - 1:
            raise ValueError("order_check must equal p - 1: q is not a primitive root")


def find_pr_prime(q: int, lower: int, cap: int = DEFAULT_SEARCH_CAP) -> PrSearchResult:
    """Smallest prime p >= lower, p != q, with q a primitive root mod p.

    At most ``cap`` candidate primes are examined; exceeding the budget
    raises BudgetExhaustedError rather than returning an unverified p.
    """
    require_prime(q, "q")
    if lower < 2:
        raise ValueError("lower bound must be at least 2")
    examined = 0
    for p in primes_from(lower):
        examined += 1
        if examined > cap:
            raise BudgetExhaustedError(
                f"no prime with primitive root {q} found within {cap} candidates above {lower}"
            )
        if p == q:
            continue
        order = mult_order(q, p)
        if order == p - 1:
            return PrSearchResult(q=q, p=p, order_check=order)
    raise AssertionError("unreachable")  # pragma: no cover
