"""The pseudovariety U: the join over primes p of Ab(p)*Ab(p-1).

Membership of a finite group in U is the conjunction of three decidable
conditions: supersolvability, a derived subgroup that is abelian of
squarefree exponent, and abelian Sylow subgroups.  A finite-index
subgroup H of a free group is U-closed iff its coset-action group G
lies in U.  Its exact U-closure is H·R, where R is the preimage of the
U-residual of G, the smallest normal subgroup N with G/N in U; it
exists because U is closed under subdirect products, and it is the
normal closure of elements that each of the three conditions puts in
every such N, with no search over normal subgroups.  For arbitrary
subgroups only upper approximations are available: the meet of the
per-prime closures over any finite prime set, each the
pro-(Ab(p)*Ab(p-1)) closure from ``apd.closure``; for p = 2 that is
Ab(2)*Ab(1) = Ab(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import apd
from .numtheory import factorize, is_prime, lattice_index
from .permgroup import (
    DEFAULT_ELEMENT_CAP,
    PermGroup,
    commutator,
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


def is_in_u(group: PermGroup) -> UMembershipReport:
    """Decide membership in U via the structural characterization:
    supersolvable, derived subgroup abelian of squarefree exponent (a
    product of elementary abelian groups for distinct primes), and
    abelian Sylow subgroups.  Every condition is an isomorphism
    invariant, so they are checked on ``group.smaller_faithful_action()``."""
    group = group.smaller_faithful_action()
    supersolvable = group.is_supersolvable()
    derived_structure = group.derived_subgroup().structure()
    derived_ok = derived_structure.abelian and all(
        e == 1 for e in factorize(derived_structure.exponent).values()
    )
    sylow_abelian = {
        p: group.sylow(p).structure().abelian for p in sorted(factorize(group.order))
    }
    return UMembershipReport(
        verdict=supersolvable and derived_ok and all(sylow_abelian.values()),
        supersolvable=supersolvable,
        derived_elementary_abelian=derived_ok,
        derived_witness_prime=derived_structure.elementary_prime,
        sylow_abelian=sylow_abelian,
    )


def is_u_closed(aut: Automaton, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """U-closedness: for finite index, the coset-action group lies in U.

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
    return is_in_u(aut.coset_group(cap)).verdict


def u_residual(group: PermGroup) -> PermGroup:
    """The U-residual: the smallest normal subgroup R with G/R in U, as
    one normal closure.

    U is closed under subdirect products, so R exists.  Each seed lies
    in every normal N with G/N in U.  The Sylow subgroups of G/N are
    abelian: N holds the commutators of the generators of each Sylow
    subgroup of G.  (G/N)' = G'N/N is abelian of squarefree exponent: N
    holds G'' and g^r for each generator g of G', with r the product of
    the primes dividing its order.  Let N0 be the normal closure of
    these seeds.  Last, for each such prime p and each generator s of
    G, N holds [g^(r/p), s^(p-1)]: g^(r/p) lies in (G/N)'_p, a sum of
    1-dimensional modules (as below, by supersolvability), on which
    s^(p-1) acts trivially.

    In Gb = G/N0, an abelian Sylow p-subgroup contains the normal Gb'_p,
    so Gb acts on the F_p-space Gb'_p through an abelian p'-group that
    the images of the s generate, and by Maschke's theorem the module is
    semisimple.  Its 1-dimensional constituents are those on which every
    s^(p-1) acts trivially, as commuting elements of order dividing
    p - 1 are diagonal over F_p together.  On each other constituent
    some s^(p-1) acts by an element other than 1 of the field
    End(constituent), so without nonzero fixed points.  Their sum W_p is
    thus the sum over s of [Gb'_p, s^(p-1)], which the last seeds
    generate, as the images of the g^(r/p) span Gb'_p.  Gb over the sum
    of the W_p has only 1-dimensional constituents in Gb' above an
    abelian Gb/Gb', so it is supersolvable; it keeps the other two
    conditions, and it is G/R.

    AssertionError unless ``is_in_u`` holds for G/R.
    """
    if is_in_u(group).verdict:
        return PermGroup(group.degree, [], cap=group.cap)
    derived = group.derived_subgroup()
    seeds = list(derived.derived_subgroup().generators)
    for p in factorize(group.order):
        gens = group.sylow(p).generators
        seeds += [commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    for g in derived.generators:
        primes = factorize(perm_order(g))
        r = math.prod(primes)
        seeds.append(perm_power(g, r))
        for p in primes:
            seeds += [commutator(perm_power(g, r // p), perm_power(s, p - 1))
                      for s in group.generators]
    residual = group.normal_closure(seeds)
    if not is_in_u(group.quotient(residual)).verdict:
        raise AssertionError("G/R is not in U for the normal closure R of the residual seeds")
    return residual


def cl_u_finite_index(aut: Automaton, cap: int = DEFAULT_ELEMENT_CAP) -> Automaton:
    """Exact U-closure of a finite-index subgroup H: the product H·R with
    the preimage R of the U-residual of the coset-action group.

    The residual is normal, so its orbits on the cosets of H are blocks
    of the coset action, and the vertices of the closure's automaton are
    these blocks, based at the block of the basepoint.  The automaton is
    the action on the blocks.

    The trivial subgroup of Z is returned as it is, being U-closed
    (``is_u_closed``).  Any other subgroup of infinite index is refused
    by ``coset_group`` with NotFiniteIndexError: its rank is at least 2,
    and by the argument of ``is_u_closed`` its closure has finite index
    or is not finitely generated, and this route builds neither.
    """
    if aut.rank == 1 and not aut.is_complete():
        return aut
    group = aut.coset_group(cap)
    residual = u_residual(group)
    if residual.is_trivial():
        return aut
    return Automaton.from_action(aut.rank, group.on_orbits_of(residual).generators)


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
    abelianizes to zero, if any.

    When such a j exists the U-closure has infinite index and is not
    finitely generated.
    """
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
    (``apd.check_image_walk``, in ascending order) before any image is
    built, and the primes are then decided in ascending order until one
    is not dense.  The abelianization image and the budgets are read off
    the basis's exponent sums and lengths (``Automaton.basis_sums``), so
    no basis word is spelled before every prime has passed."""
    vectors = [sums for sums, _ in aut.basis_sums()]
    necessary = lattice_index(vectors, aut.rank) == 1
    primes = [p for p in range(2, bound + 1) if is_prime(p)]
    for p in primes:
        apd.check_image_walk(aut, p, p - 1)
    dense = all(apd.status(aut, p, p - 1).dense for p in primes)
    return DensityReport(necessary_ok=necessary, dense_up_to_bound=dense, prime_bound=bound)
