"""The rank-2 free metabelian group via grid flows, and constructive
separation of its nontrivial elements in finite two-generator quotients.

A rank-2 word traces a path on the integer grid (letter a steps east,
letter b steps north).  The signed traversal counts of the grid edges,
together with the path's endpoint, determine the word's image in the
free metabelian group exactly: the flow is zero iff the word lies in
the second derived subgroup.  The a-edge and b-edge counts are the Fox
derivatives of the word over Z[Z^2] (the Magnus embedding), read in one
pass by ``words.fox``.

Two words are compared by the flows of their middles alone, what is
left once their longest common prefix and suffix are cut off.

For a word with nonzero flow, a homomorphism onto some group
C_p x| C_{p-1} (with a primitive root q acting) that keeps the image
nontrivial is found by evaluating P(x) = sum_n h_n x^n at q: the image
of the word is x^(P(q) mod p) y^(n0 mod p-1).  The h_n are the input's
edge counts summed along parallel grid lines, its Fox derivatives
collapsed to one variable: its height counts (``words.height_counts``)
when they do not all vanish, else the same counts with the generators'
roles exchanged, and only when both vanish the a-edges of its traced
flow.  Small primes are tried directly; a bound-driven fallback with a
guaranteed witness covers the remaining cases.  Each pre-map step is
given by the words that a and b go to; the images of a and b under the
whole map (``PreMap.images``) follow from them, and every witness is
checked again by walking the input's letters through the group law
under those images (``GpdGroup.evaluate``), a route apart from the
counts and line sums that found it.  The transformed word, which in the
theta case has about |u|^2 / 4 letters, is built only by the fallback,
and only below the default element cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne

from .apd import GpdElement, GpdGroup
from .errors import BudgetExhaustedError, CapExceededError, NoWitnessError
from .numtheory import find_pr_prime, primes_from, smallest_of_order
from .permgroup import DEFAULT_ELEMENT_CAP
from .words import Word, fox, height_counts, substitute

# the direct search tries the primes up to DIRECT_PRIME_BOUND; the
# fallback tries FALLBACK_Q_CANDIDATES bases q, each with at most
# FALLBACK_CAP candidate primes
DIRECT_PRIME_BOUND = 20_000
FALLBACK_Q_CANDIDATES = 3
FALLBACK_CAP = 1_000_000


@dataclass
class Flow:
    """Signed edge-traversal counts on the grid, plus the path endpoint.

    a_edges maps (m, n) to the net count of the edge (m,n)->(m+1,n);
    b_edges maps (m, n) to the net count of the edge (m,n)->(m,n+1).
    Zero entries are never stored.
    """

    a_edges: dict[tuple[int, int], int] = field(default_factory=dict)
    b_edges: dict[tuple[int, int], int] = field(default_factory=dict)
    endpoint: tuple[int, int] = (0, 0)

    def is_zero(self) -> bool:
        return not self.a_edges and not self.b_edges

    def h_sums(self) -> dict[int, int]:
        """Row sums of the a-edges: n -> sum over m."""
        return _line_sums(self.a_edges, (0, 1))

    def v_sums(self) -> dict[int, int]:
        """Column sums of the b-edges: m -> sum over n."""
        return _line_sums(self.b_edges, (1, 0))


def _line_sums(edges: dict[tuple[int, int], int], w: tuple[int, int]) -> dict[int, int]:
    """Edge counts summed along the lines w . (m, n) = const, keyed by
    the constant; zero sums are dropped."""
    out: dict[int, int] = {}
    for (m, n), c in edges.items():
        key = w[0] * m + w[1] * n
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def flow_of(u: Word) -> Flow:
    """The word's grid flow: its Fox derivatives, read by ``words.fox``."""
    if u.rank != 2:
        raise ValueError("flows are defined for rank-2 words")
    endpoint, (a_edges, b_edges) = fox(u)
    return Flow(a_edges, b_edges, endpoint)


def metab_equal(u: Word, v: Word) -> bool:
    """Equality in the rank-2 free metabelian group.

    u = p x s and v = p y s are equal iff x and y are, so only the flows
    of the middles x and y, between the longest common prefix p and the
    longest common suffix s, are compared.  Both are subwords of reduced
    words, so reduced."""
    if u.rank != 2 or v.rank != 2:
        raise ValueError("flows are defined for rank-2 words")
    a, b = u.letters, v.letters
    start = next(compress(count(), map(ne, a, b)), min(len(a), len(b)))
    a, b = a[start:], b[start:]
    stop = next(compress(count(), map(ne, reversed(a), reversed(b))), min(len(a), len(b)))
    return flow_of(Word(a[: len(a) - stop], 2)) == flow_of(Word(b[: len(b) - stop], 2))


def first_quadrant_shift(u: Word) -> tuple[int, Word]:
    """Conjugate u by a^m b^m with minimal m >= 0 putting the conjugated
    copy of its path inside the first quadrant.

    The prefix a^m b^m stays in the quadrant and the core is translated
    into it; the closing b^-m a^-m tail returns to the endpoint, whose
    coordinates are the abelianization of u, so the whole path lies in
    the quadrant exactly when that abelianization is non-negative (in
    particular whenever both exponent sums vanish).
    """
    if u.rank != 2:
        raise ValueError("rank-2 word required")
    x = y = lowest = 0
    for letter in u.letters:
        if abs(letter) == 1:
            x += letter
        else:
            y += letter // 2
        lowest = min(lowest, x, y)
    m = -lowest
    return m, (PreMap((("shift", m),)).apply(u) if m else u)


@dataclass(frozen=True)
class PreMap:
    """Endomorphism pipeline applied before the evaluation map.

    Steps run left to right: ("swap",) exchanges the generators,
    ("shift", m) conjugates by a^m b^m, ("theta", k) substitutes
    a -> ab, b -> b^k.  Each step is given by the words that a and b go
    to (``_step_images``).  All steps descend to the free metabelian
    group, so a nontrivial image of the transformed word certifies a
    nontrivial original.
    """

    steps: tuple[tuple, ...] = ()

    def apply(self, u: Word) -> Word:
        """The transformed word: each step's images substituted for a
        and b in turn (``words.substitute``)."""
        out = u
        for step in self.steps:
            out = substitute(out, _step_images(step))
        return out

    def images(self, group: GpdGroup) -> tuple[GpdElement, GpdElement]:
        """The images of a and b in ``group`` under the evaluation map
        a -> x, b -> y precomposed with the steps: each step's image words
        evaluated under the images of the steps after it, from the last
        step back to the first."""
        out = (group.x, group.y)
        for step in reversed(self.steps):
            out = tuple(group.evaluate(w, out) for w in _step_images(step))
        return out

    def describe(self) -> str:
        if not self.steps:
            return "direct"
        parts = []
        for step in self.steps:
            if step[0] == "swap":
                parts.append("swap")
            else:
                parts.append(f"{step[0]}({step[1]})")
        return ";".join(parts)


_A, _B = Word((1,), 2), Word((2,), 2)


def _step_images(step: tuple) -> tuple[Word, Word]:
    """The words that a and b go to under one pre-map step: (b, a) for
    swap, (c a c^-1, c b c^-1) with c = a^m b^m for shift m, and
    (ab, b^k) for theta k, k >= 1."""
    if step[0] == "swap":
        return _B, _A
    if step[0] == "shift":
        c = _A ** step[1] * _B ** step[1]
        return _A.conjugate(c), _B.conjugate(c)
    if step[0] == "theta":
        if step[1] < 1:
            raise ValueError("k must be positive")
        return _A * _B, _B ** step[1]
    raise ValueError(f"unknown step {step!r}")


@dataclass(frozen=True)
class SeparationWitness:
    """A verified finite quotient in which the word survives.

    The homomorphism is a -> x, b -> y into the group of order p(p-1)
    with x^p = 1, y x y^-1 = x^q, precomposed with ``pre_map``; its value
    on the input word is ``image``, which is not the identity.
    """

    p: int
    q: int
    pre_map: PreMap
    image: GpdElement

    def __post_init__(self) -> None:
        if self.image == GpdElement(0, 0):
            raise ValueError("witness image must be nontrivial")


def _polynomial_value_mod(h: dict[int, int], q: int, p: int) -> int:
    """sum_n h_n q^n mod p, negative rows through the inverse of q."""
    total = 0
    for n, c in h.items():
        total += c * pow(q, n % (p - 1), p)
    return total % p


def _direct_search(h: dict[int, int], n0: int):
    for p in primes_from(3):
        if p > DIRECT_PRIME_BOUND:
            return None
        q = smallest_of_order(p, p - 1)
        x_exp = _polynomial_value_mod(h, q, p)
        y_exp = n0 % (p - 1)
        if x_exp or y_exp:
            return p, q, GpdElement(x_exp, y_exp)
    return None  # pragma: no cover


def _guaranteed_search(h: dict[int, int], n0: int, k: int):
    """Bound-driven fallback with a guaranteed witness for the row sums h
    and end height n0 of a word of length k.

    For a prime q exceeding k and p with q a primitive root mod p and
    p > k q^k, the scaled row-sum polynomial sum_n h_n q^(n - n_min) is
    a nonzero integer of absolute value less than p (the leading row
    contributes q^spread, everything else at most k q^(spread - 1), and
    the spread is at most k), so the image x-exponent P(q) cannot
    vanish mod p.
    """
    if not h:
        raise AssertionError("fallback requires a nonzero row sum")
    n_min = min(h)
    tried = 0
    for q in primes_from(k + 1):
        if tried >= FALLBACK_Q_CANDIDATES:
            break
        tried += 1
        try:
            result = find_pr_prime(q, k * q**k + 1, cap=FALLBACK_CAP)
        except BudgetExhaustedError:
            continue
        p = result.p
        scaled = sum(c * q ** (n - n_min) for n, c in h.items())
        if scaled == 0 or abs(scaled) >= p:
            raise AssertionError(f"scaled row-sum polynomial {scaled} is zero or not below p = {p}")
        x_exp = scaled * pow(q, n_min, p) % p
        image = GpdElement(x_exp, n0 % (p - 1))
        return p, q, image
    raise BudgetExhaustedError(
        f"no primitive-root prime found for {FALLBACK_Q_CANDIDATES} candidate bases"
    )


def separating_witness(u: Word) -> SeparationWitness:
    """A verified homomorphism to some C_p x| C_{p-1} keeping u nontrivial.

    Requires a nonzero flow.  Case split: nonzero row sums are used as
    they stand; nonzero column sums after swapping the generators; and
    in the remaining case the substitution a -> ab, b -> b^k (applied to
    a first-quadrant conjugate, k its length) transports some edge count
    to a nonzero row sum.  The row sums h and end height n0 of the
    transformed word are read off u alone: in the direct case they are
    u's height counts, in the swap case the same counts with the
    generators' roles exchanged, and only in the theta case is a flow
    traced, u's.  The transformed word is built only by the fallback,
    for its length, and refused (CapExceededError) when its bound on
    that length exceeds the default element cap: the witness is checked
    again by walking u's letters through the group law, under the images
    of a and b that the pre-map gives.  Primes are tried in increasing
    order, so the returned witness is minimal for this search order.
    """
    steps: tuple = ()
    length_bound = len(u)
    h, n0 = height_counts(u)
    if not h:
        steps, (h, n0) = (("swap",),), _column_counts(u)
    if not h:
        flow = flow_of(u)
        if flow.is_zero():
            raise NoWitnessError("the word is trivial in the free metabelian group")
        # u lies in F' and ends at (0, 0), so n0 = 0; conjugating by
        # a^m b^m translates its flow by (m, m), and theta(k) carries an
        # a-edge at (i, j) to height i + k j
        m, shifted = first_quadrant_shift(u)
        k = len(shifted)
        steps = ((("shift", m),) if m else ()) + (("theta", k),)
        # theta(k) spells an a^(+-1) with 2 letters and a b^(+-1) with k
        a_letters = shifted.letters.count(1) + shifted.letters.count(-1)
        length_bound = 2 * a_letters + k * (k - a_letters)
        h = {n + m * (1 + k): c for n, c in _line_sums(flow.a_edges, (1, k)).items()}
        if not h:
            raise AssertionError("the transformed word must have a nonzero row sum")

    pre_map = PreMap(steps)
    found = _direct_search(h, n0)
    if found is not None:
        p, q, image = found
    else:  # pragma: no cover - exercised only with a tiny DIRECT_PRIME_BOUND
        if length_bound > DEFAULT_ELEMENT_CAP:
            raise CapExceededError(
                f"the fallback's transformed word may have {length_bound} letters, "
                f"beyond cap {DEFAULT_ELEMENT_CAP}"
            )
        p, q, image = _guaranteed_search(h, n0, len(pre_map.apply(u)))

    witness = SeparationWitness(p=p, q=q, pre_map=pre_map, image=image)
    _verify_witness(witness, u)
    return witness


def _column_counts(u: Word) -> tuple[dict[int, int], int]:
    """``height_counts`` with the generators' roles exchanged: the net
    b-count of u at each a-height, and its final a-height, which are the
    column sums of its b-edges and its endpoint's first coordinate."""
    counts: dict[int, int] = {}
    i = 0
    for letter in u.letters:
        if letter == 1 or letter == -1:
            i += letter
        else:
            counts[i] = counts.get(i, 0) + letter // 2
    return {m: c for m, c in counts.items() if c}, i


def _verify_witness(witness: SeparationWitness, u: Word) -> None:
    """Walk u's letters through the group law under the pre-map's images
    of a and b, a route apart from the height counts and the line sums
    that found the witness; AssertionError unless the image is the
    witness's and not the identity."""
    group = GpdGroup(witness.p, witness.p - 1, witness.q)
    evaluated = group.evaluate(u, witness.pre_map.images(group))
    if evaluated != witness.image or evaluated == group.identity:
        raise AssertionError("witness failed re-verification")
