"""The pseudovariety U: the join over primes p of Ab(p)*Ab(p-1).

Membership of a finite group in U is the conjunction of three decidable
conditions: supersolvability, a derived subgroup that is abelian of
squarefree exponent, and abelian Sylow subgroups.  When the derived
subgroup is abelian of squarefree exponent, the other two are read off
it and the group's generators by commutators, with no element of the
group enumerated; otherwise they are searched over its elements.  A
finite-index subgroup H of a free group is U-closed iff its
coset-action group G lies in U.  Its exact U-closure is H·R, where R is the preimage of the
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
    StructureReport,
    commutator,
    compose,
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
    supersolvable, derived subgroup G' abelian of squarefree exponent (a
    product of elementary abelian groups for distinct primes), and
    abelian Sylow subgroups.  Every condition is an isomorphism
    invariant, so they are checked on ``group.smaller_faithful_action()``.

    G' is enumerated, as a normal closure, but G is not when G' is
    abelian of squarefree exponent r: then the other two conditions are
    read off G' and the generators s of G.  For p | r, G' is V_p x W_p,
    with V_p the image of x -> x^(r/p), its Sylow p-subgroup, generated
    by the g^(r/p) for the generators g of G', and W_p the kernel, both
    characteristic in G', so normal in G.  Let s_p be a generator of the
    Sylow p-subgroup of <s> (a power of s).  Let P be a Sylow p-subgroup.

    - p not dividing r: P meets G' trivially, so it embeds in the
      abelian G/G'.
    - p | r: P meets the p'-group W_p trivially, so it is isomorphic to
      its image in G/W_p.  There the Sylow p-subgroup is normal, the
      preimage of that of the abelian G/G', and it is generated by V_p
      and the s_p.  It is abelian iff every [s_p, g^(r/p)] and every
      [s_p, t_p] lie in W_p.  The first lies in the normal V_p, which
      meets W_p trivially, so it must be 1.  The second lies in G', so it
      lies in W_p iff [s_p, t_p]^(r/p) = 1.
    - With every Sylow subgroup abelian, G is supersolvable iff every
      s^(p-1) commutes with every g^(r/p), for p | r.  This is
      ``u_residual``'s Maschke argument with N0 = 1: G acts on the
      F_p-space V_p through an abelian p'-group, as G' and the abelian
      P containing the normal V_p act trivially, so V_p is semisimple.
      If G is supersolvable, its chief factors in V_p have order p, so
      V_p is a sum of 1-dimensional modules, on which each s^(p-1) acts
      trivially.  Conversely, commuting actions of order dividing p - 1
      are diagonal over F_p together, so G' has a normal series with
      factors of prime order, which refines through the abelian G/G'.

    The primes of |G| are those of r and of the generators' orders, as
    G/G' is abelian and generated by the images of the s; they are the
    keys of ``sylow_abelian``.

    When G' is not abelian of squarefree exponent, G is enumerated: a
    normalizer tower per prime of |G| gives the Sylow subgroups, and the
    chief-series search of ``PermGroup.is_supersolvable`` the field
    ``supersolvable``, which that search also gives when some Sylow
    subgroup is not abelian."""
    group = group.smaller_faithful_action()
    derived = group.derived_subgroup()
    structure = derived.structure()
    read = _read_off_derived(group, derived, structure)
    if read is None:
        return UMembershipReport(
            verdict=False,
            supersolvable=group.is_supersolvable(),
            derived_elementary_abelian=False,
            derived_witness_prime=structure.elementary_prime,
            sylow_abelian={p: group.sylow(p).structure().abelian
                           for p in sorted(factorize(group.order))},
        )
    sylow_abelian, supersolvable = read
    if supersolvable is None:
        supersolvable = group.is_supersolvable()
    return UMembershipReport(
        verdict=supersolvable and all(sylow_abelian.values()),
        supersolvable=supersolvable,
        derived_elementary_abelian=True,
        derived_witness_prime=structure.elementary_prime,
        sylow_abelian=sylow_abelian,
    )


def is_supersolvable(group: PermGroup) -> bool:
    """Supersolvability of G, read off G' and the generators' commutators
    as in ``is_in_u`` when G' is abelian of squarefree exponent and every
    Sylow subgroup of G is abelian, with no element of G enumerated;
    otherwise by the chief-series search of ``PermGroup.is_supersolvable``."""
    group = group.smaller_faithful_action()
    derived = group.derived_subgroup()
    read = _read_off_derived(group, derived, derived.structure())
    if read is not None and read[1] is not None:
        return read[1]
    return group.is_supersolvable()


def _read_off_derived(
    group: PermGroup, derived: PermGroup, structure: StructureReport
) -> tuple[dict[int, bool], bool | None] | None:
    """For G' abelian of squarefree exponent r: the ``sylow_abelian`` of
    ``is_in_u``, and whether G is supersolvable, or None when some Sylow
    subgroup is not abelian; both read off G' and the generators of G as
    ``is_in_u`` proves.  None for any other G'."""
    r = structure.exponent
    r_primes = factorize(r)
    if not structure.abelian or any(e > 1 for e in r_primes.values()):
        return None
    ident = group.identity()
    v_gens = {p: [perm_power(g, r // p) for g in derived.generators] for p in r_primes}
    orders = [perm_order(s) for s in group.generators]
    sylow_abelian = {}
    for p in sorted(set(r_primes).union(*map(factorize, orders))):
        if p not in r_primes:
            sylow_abelian[p] = True
            continue
        parts = [q for s, o in zip(group.generators, orders) if (q := _p_part(s, o, p)) != ident]
        sylow_abelian[p] = _centralizes(parts, v_gens[p]) and all(
            perm_power(commutator(a, b), r // p) == ident
            for i, a in enumerate(parts) for b in parts[i + 1 :])
    if not all(sylow_abelian.values()):
        return sylow_abelian, None
    return sylow_abelian, all(_centralizes([perm_power(s, p - 1) for s in group.generators], v_gens[p])
                              for p in r_primes)


def _p_part(s, order: int, p: int):
    """A generator of the Sylow p-subgroup of <s>, s of the given order."""
    while order % p == 0:
        order //= p
    return perm_power(s, order)


def _centralizes(ys, xs) -> bool:
    """Every y commutes with every x."""
    return all(compose(y, x) == compose(x, y) for y in ys for x in xs)


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
