"""The pseudovariety U: the join over primes p of Ab(p)*Ab(p-1).

A finite group G lies in U iff it is supersolvable, its derived
subgroup G' is abelian of squarefree exponent, and its Sylow subgroups
are abelian.  ``_residual_seeds`` turns the three conditions into
commutator and power identities on the generators of G and of G': the
U-residual R of G, the smallest normal subgroup N with G/N in U, is the
normal closure of the seeds that fail, and G lies in U iff none fails.
R exists because U is closed under subdirect products.  Deciding U
enumerates G' but not G.  Only ``is_in_u``'s report fields of a G whose
G' is not abelian of squarefree exponent, or whose Sylow subgroups are
not all abelian, may be searched over its elements, and only where G'
and |G| leave them open: a G whose G' is not nilpotent is not
supersolvable, and a Sylow q-subgroup of order at most q^2, or with q
not dividing |G'|, is abelian.
A finite-index subgroup H of a free group is U-closed iff its
coset-action group G lies in U, and its exact U-closure H·R, R the
preimage of the U-residual of G, is H's automaton folded along the
seeds, with no R built.  For arbitrary subgroups only upper
approximations are available: the meet of the per-prime closures over
any finite prime set, each the pro-(Ab(p)*Ab(p-1)) closure from
``apd.closure``; for p = 2 that is Ab(2)*Ab(1) = Ab(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product, takewhile

from . import apd
from .numtheory import factorize, is_prime, lattice_index, p_split, primes_from
from .permgroup import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    compose,
    inverse,
    perm_order,
    perm_power,
)
from .stallings import Automaton

DEFAULT_PRIME_BOUND = 7


@dataclass(frozen=True)
class UMembershipReport:
    """The three conditions of ``is_in_u`` and their conjunction.

    ``derived_elementary_abelian`` holds when the derived subgroup is
    abelian of squarefree exponent; ``derived_witness_prime`` is its
    prime when it is a nontrivial elementary abelian p-group, and None
    when it is trivial or more than one prime divides its order.
    """

    verdict: bool
    supersolvable: bool
    derived_elementary_abelian: bool
    derived_witness_prime: int | None
    sylow_abelian: dict[int, bool]

    def __post_init__(self) -> None:
        expected = (
            self.supersolvable
            and self.derived_elementary_abelian
            and all(self.sylow_abelian.values())
        )
        if self.verdict != expected:
            raise ValueError("verdict must be the conjunction of the three conditions")


def _residual_seeds(group: PermGroup):
    """The seeds of the U-residual R of G other than the identity, as
    (condition, p, seed): every "D" seed (G' abelian of squarefree
    exponent, p None), then every "S" seed (the Sylow p-subgroups
    abelian), then every "M" seed (supersolvability).

    Let g, h range over the generators of G' and s, t over those of G,
    let r be the lcm of the rad(o(g)), and for p | r let s_p be the
    p-part of s, which generates the Sylow p-subgroup of <s>:
    - D: [g, h] and g^rad(o(g));
    - S: [s_p, g^(r/p)] and [s_p, t_p]^(r/p);
    - M: [s^(p-1), g^(r/p)].
    R is the normal closure of the seeds, so G is in U iff none is left.

    Each seed lies in every normal N with G/N in U; read the elements
    below by their images in G/N.  (G/N)' is generated by the g and is
    abelian of squarefree exponent, so the D seeds are 1 and the
    exponent divides r.  Its Sylow p-subgroup V_p and p'-part W_p are
    normal in G/N.  g^(r/p) is 1 or lies in V_p, which as a normal
    p-subgroup sits inside every Sylow p-subgroup, and those are
    abelian; one of them holds s_p, so [s_p, g^(r/p)] = 1.  Modulo W_p,
    (G/N)' is a p-group below an abelian quotient, so the p-elements
    form a normal Sylow subgroup, isomorphic to an abelian Sylow
    subgroup of G/N: [s_p, t_p] lies in W_p, whose exponent divides
    r/p.  G/N acts on the F_p-space V_p through an abelian p'-group, as
    (G/N)' and the Sylow p-subgroups act trivially, so V_p is
    semisimple (Maschke).  Its chief factors have order p, G/N being
    supersolvable, so it is a sum of 1-dimensional modules, on each of
    which s^(p-1) acts trivially.

    Conversely, let Gb be G modulo the normal closure of the seeds.  Gb'
    is abelian of squarefree exponent r1 | r, by the D seeds, and for
    p | r1 its Sylow p-subgroup V_p is generated by the images of the
    g^(r1/p), or equally of the g^(r/p), as r/r1 is prime to p.  For
    p ∤ r1 a Sylow p-subgroup embeds in Gb/Gb', which is abelian.  For
    p | r1 a Sylow p-subgroup P meets the p'-part W_p of Gb' trivially,
    so it is isomorphic to its image in Gb/W_p.  There the Sylow
    p-subgroup is normal, the preimage of that of Gb/Gb', and V_p and
    the images of the s_p generate it; the S seeds make them commute
    modulo W_p, as an x in Gb' with x^(r/p) = 1 lies in W_p, so P is
    abelian.  By the M seeds each s acts on V_p with
    order dividing p - 1, and G' acts trivially; commuting such actions
    are diagonal over F_p together, so V_p is a sum of lines normal in
    Gb.  Refined through the abelian Gb/Gb', that gives Gb a normal
    series with factors of prime order: Gb is supersolvable, so in U.
    """
    ident = group.identity()
    derived = group.derived_subgroup().generators
    radicals = []
    for c in _commutators(combinations(derived, 2)):
        yield "D", None, c
    for g in derived:
        order = perm_order(g)
        radicals.append(math.prod(factorize(order)))
        if radicals[-1] != order:
            yield "D", None, perm_power(g, radicals[-1])
    r = math.lcm(1, *radicals)
    orders = [perm_order(s) for s in group.generators]
    heads = {p: [x for g in derived if (x := perm_power(g, r // p)) != ident] for p in factorize(r)}
    for p, xs in heads.items():
        parts = [x for s, o in zip(group.generators, orders)
                 if (x := perm_power(s, p_split(o, p)[1])) != ident]
        for c in _commutators(product(parts, xs)):
            yield "S", p, c
        for c in _commutators(combinations(parts, 2)):
            if (c := perm_power(c, r // p)) != ident:
                yield "S", p, c
    for p, xs in heads.items():
        for c in _commutators(product([perm_power(s, p - 1) for s in group.generators], xs)):
            yield "M", p, c


def _commutators(pairs):
    """[x, y] = xy(yx)^-1 for each pair (x, y) that does not commute."""
    for x, y in pairs:
        xy, yx = compose(x, y), compose(y, x)
        if xy != yx:
            yield compose(xy, inverse(yx))


def is_in_u(group: PermGroup) -> UMembershipReport:
    """Decide membership in U: G is in U iff ``_residual_seeds`` yields
    no seed.  Every condition is an isomorphism invariant, so they are
    checked on ``group.smaller_faithful_action()``.

    With no D seed, G' is abelian of squarefree exponent r.  The primes
    of |G| are then those of r and of the generators' orders, as G/G' is
    abelian and generated by the generators' images; they are the keys
    of ``sylow_abelian``.  The Sylow p-subgroups are abelian iff no S
    seed names p, and when all are, G is supersolvable iff no M seed is
    left, as ``_residual_seeds`` proves.  Only ``_supersolvable`` gives
    ``supersolvable`` when a Sylow subgroup is not abelian; G' is then
    abelian, so nilpotent, and its chief-series search decides.

    With a D seed, |G| is read off a stabilizer chain, the one the
    reduced group holds or one built and kept for G, with no element of
    G enumerated, and the report is read off G' and |G| where they
    decide it: ``supersolvable`` is False when G' is not nilpotent
    (``_supersolvable``), and ``sylow_abelian[q]`` is True when |G|_q is
    at most q^2 or q does not divide |G'| (``_sylow_abelian``).  Only the
    rest is searched over G's elements, under the cap: the chief-series
    search, and a normalizer tower for each prime left, which walks G
    only as far as it needs."""
    group = group.smaller_faithful_action()
    non_abelian, supersolvable = set(), True
    for condition, p, _ in _residual_seeds(group):
        if condition == "D":
            order = group.stabilizer_chain().order
            derived_order = group.derived_subgroup().order
            return UMembershipReport(
                verdict=False,
                supersolvable=_supersolvable(group),
                derived_elementary_abelian=False,
                derived_witness_prime=None,
                sylow_abelian={q: _sylow_abelian(group, q, k, derived_order)
                               for q, k in sorted(factorize(order).items())},
            )
        if condition == "S":
            non_abelian.add(p)
        else:  # the S seeds all came before the M seeds
            supersolvable = False
            break
    if non_abelian:
        supersolvable = _supersolvable(group)
    r = math.lcm(1, *map(perm_order, group.derived_subgroup().generators))
    primes = set(factorize(r)).union(*(factorize(perm_order(s)) for s in group.generators))
    return UMembershipReport(
        verdict=supersolvable and not non_abelian,
        supersolvable=supersolvable,
        derived_elementary_abelian=True,
        derived_witness_prime=r if is_prime(r) else None,
        sylow_abelian={q: q not in non_abelian for q in sorted(primes)},
    )


def _supersolvable(group: PermGroup) -> bool:
    """Supersolvability of G when its seeds leave it open.  A
    supersolvable group has a nilpotent derived subgroup (Huppert;
    Robinson, *A Course in the Theory of Groups*, section 5.4): G acts
    on each factor of a normal series with factors of prime order
    through the abelian automorphism group of that factor, so G' acts
    trivially on each, and the series cuts G' in a central series.  So
    G is not supersolvable when G' is not nilpotent, which
    ``_is_nilpotent`` reads off G', enumerated by ``_residual_seeds``.
    Otherwise the chief-series search of ``PermGroup.is_supersolvable``
    decides."""
    return _is_nilpotent(group.derived_subgroup()) and group.is_supersolvable()


def _is_nilpotent(group: PermGroup) -> bool:
    """A finite group is nilpotent iff each of its Sylow subgroups is
    normal, that is, iff for each prime q it has exactly |G|_q elements
    of q-power order: a normal Sylow q-subgroup holds every q-element,
    and one that is not normal has a conjugate holding a q-element
    outside it.  An element's order divides |G|, so it is a power of q
    exactly when it divides |G|_q."""
    orders = group.element_orders()
    n = len(orders)
    for q, k in factorize(n).items():
        part = q**k
        if sum(part % o == 0 for o in orders) != part:
            return False
    return True


def _sylow_abelian(group: PermGroup, q: int, k: int, derived_order: int) -> bool:
    """Whether a Sylow q-subgroup P of G, of order q^k, is abelian.  A
    group of order q or q^2 is abelian.  When q does not divide |G'|, P
    meets G' trivially and embeds in the abelian G/G'.  Only otherwise
    is P grown by the normalizer tower of ``PermGroup.sylow``."""
    if k <= 2 or derived_order % q:
        return True
    return next(_commutators(combinations(group.sylow(q).generators, 2)), None) is None


def is_supersolvable(group: PermGroup) -> bool:
    """Supersolvability of G, read off ``_residual_seeds`` with no element
    of G enumerated when no seed is left (G is in U) or the first is an M
    seed (G' is abelian of squarefree exponent and the Sylow subgroups
    are abelian, but G is not supersolvable); otherwise by
    ``_supersolvable``: False when G' is not nilpotent, and by the
    chief-series search of ``PermGroup.is_supersolvable`` when it is.
    After an S seed G' is abelian, so only the search can decide."""
    group = group.smaller_faithful_action()
    first = next(_residual_seeds(group), None)
    if first is None or first[0] == "M":
        return first is None
    return _supersolvable(group)


def is_u_closed(aut: Automaton, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """U-closedness: for finite index, the coset-action group lies in U,
    that is, ``_residual_seeds`` yields no seed for it; only G' is
    enumerated, so only its order is counted against the cap.

    Of infinite index, only the trivial subgroup of Z is closed; it is
    the one subgroup of Z of infinite index, as a folded core automaton
    of rank 1 is a cycle or the basepoint alone.  Z is residually U, as
    m != 0 survives in Z_p, in Ab(p), for every prime p not dividing m.
    In rank n >= 2 a closed H is the intersection of the open subgroups
    containing it, and each of those contains a normal N with F/N in U,
    so metabelian, so N and H contain F''.
    A finitely generated subgroup of a free group that contains a
    nontrivial normal subgroup has finite index (Karrass-Solitar;
    Greenberg), so a closed H of infinite index does not exist there.
    """
    if not aut.is_complete():
        return aut.rank == 1
    return next(_residual_seeds(aut.coset_group(cap).smaller_faithful_action()), None) is None


def cl_u_finite_index(aut: Automaton, cap: int = DEFAULT_ELEMENT_CAP) -> Automaton:
    """Exact U-closure of a finite-index subgroup H: the product H·R with
    the preimage R of the U-residual of the coset-action group G.

    Its automaton is G acting on the R-orbits of the cosets of H, the
    finest partition that G maps onto itself and that joins each coset x
    to s(x) for every seed s of ``_residual_seeds``: the g keeping every
    class of such a partition form a normal subgroup holding the seeds,
    so R.  So H's automaton is folded with each x identified with s(x)
    (``Automaton.identify``); R is never built.  With no seed, G is in U
    and H is returned.  The closure K is certified by ``is_u_closed(K)``,
    else AssertionError: K is then open, so holds H·R, and lies in it as
    every seed lies in R.

    The trivial subgroup of Z is returned as it is, being U-closed
    (``is_u_closed``).  Any other subgroup of infinite index is refused
    by ``coset_group`` with NotFiniteIndexError: its rank is at least 2,
    and by the argument of ``is_u_closed`` its closure has finite index
    or is not finitely generated, and this route builds neither.
    """
    if aut.rank == 1 and not aut.is_complete():
        return aut
    seeds = _residual_seeds(aut.coset_group(cap))
    first = next(seeds, None)
    if first is None:
        return aut
    closure = aut.identify(pair for _, _, s in chain([first], seeds) for pair in enumerate(s))
    if not is_u_closed(closure, cap):
        raise AssertionError("the fold along the residual seeds is not U-closed")
    return closure


@dataclass(frozen=True)
class ClosureApprox:
    """Meet of per-prime closures: contains the U-closure, shrinking as
    primes are added; ``exact`` only when certified through the
    finite-index route."""

    primes: tuple[int, ...]
    automaton: Automaton
    exact: bool


def cl_u_approx(aut: Automaton, primes, cap: int = DEFAULT_ELEMENT_CAP) -> ClosureApprox:
    """Meet of the pro-(Ab(p)*Ab(p-1)) closures over the given primes,
    each computed by ``apd.closure`` with d = p - 1 under the coset cap
    (for p = 2 that is Ab(2)*Ab(1) = Ab(2), the preimage of H's image in
    F_2^n)."""
    chosen = tuple(sorted(set(primes)))
    if not chosen:
        raise ValueError("need at least one prime")
    result: Automaton | None = None
    for p in chosen:
        cl = apd.closure(aut, p, p - 1, cap=cap)
        result = cl if result is None else result.intersect(cl)
    exact = False
    if aut.is_complete():
        exact = result == cl_u_finite_index(aut, cap=cap)
    return ClosureApprox(primes=chosen, automaton=result, exact=exact)


def not_fg_certificate(aut: Automaton):
    """Smallest coordinate j (1-based) on which the whole subgroup
    abelianizes to zero, if any; None in rank 1.

    When such a j exists H lies in the kernel of the j-th exponent sum,
    a closed subgroup of infinite index, so the U-closure has infinite
    index.  In rank n >= 2 it then contains F'' != 1 (the argument of
    ``is_u_closed``), and a finitely generated subgroup that contains a
    nontrivial normal subgroup has finite index, so the closure is not
    finitely generated.  In rank 1 F'' = 1 and every subgroup of Z is
    finitely generated: the one H with a vanishing coordinate, the
    trivial subgroup, is its own closure, and nothing is certified.
    """
    if aut.rank == 1:
        return None
    vectors = [sums for sums, _ in aut.basis_sums()]
    for j in range(aut.rank):
        if all(v[j] == 0 for v in vectors):
            return j + 1
    return None


@dataclass(frozen=True)
class DensityReport:
    necessary_ok: bool
    dense_up_to_bound: bool
    prime_bound: int


def u_density_check(aut: Automaton, bound: int = DEFAULT_PRIME_BOUND) -> DensityReport:
    """Bounded density test: full abelianization image (necessary for
    U-density) plus pro-(Ab(p)*Ab(p-1)) density, by ``apd.status``, for
    every prime p up to the bound, 2 included; no closure is enumerated.
    Every prime's image is checked against its budgets
    (``apd.check_image_walk``, in ascending order as ``primes_from``
    yields them, so no prime past a refused one is read) before any image
    is built, and the primes are then decided in ascending order until
    one is not dense.  The abelianization image and the budgets are read off
    the basis's exponent sums and lengths (``Automaton.basis_sums``), so
    no basis word is spelled before every prime has passed."""
    vectors = [sums for sums, _ in aut.basis_sums()]
    necessary = lattice_index(vectors, aut.rank) == 1
    primes = []
    for p in takewhile(lambda p: p <= bound, primes_from(2)):
        apd.check_image_walk(aut, p, p - 1)
        primes.append(p)
    dense = all(apd.status(aut, p, p - 1).dense for p in primes)
    return DensityReport(necessary_ok=necessary, dense_up_to_bound=dense, prime_bound=bound)
