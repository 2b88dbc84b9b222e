"""Small finite groups as permutation groups.

Permutations are tuples of 0-based images; ``compose(f, g)`` is the
function composition f o g (g applied first), so the left-regular
representation of a group is a homomorphism.  Most structure here runs
by explicit element enumeration guarded by a cap, which is the intended
scale for the decision procedures built on top: normal closures, the
derived subgroup, Sylow subgroups, quotients and supersolvability.
``StabilizerChain`` gives a group's order, a base and membership without
enumerating it, by the deterministic Schreier-Sims algorithm, and stops
early when it is told an order the group cannot exceed.  A group that
holds a chain reads its ``order`` and ``base`` off it: the group
``smaller_faithful_action`` returns, and one whose
``stabilizer_chain()`` was asked for.  The Sylow normalizer tower walks
G lazily (``bfs_walk``), so it enumerates only the elements it reads.

Enumeration costs |G| compositions of degree-length tuples, |G|^2 on a
regular representation.  ``smaller_faithful_action`` cuts that degree
for questions that only depend on G up to isomorphism.  A regular G is
recognized by its right multiplications, carried along one breadth-first
walk in integer lookups and checked on every edge: they commute with G
exactly when G is regular, and they also give the centre.  Without a
centre, G acts faithfully by conjugation on the conjugacy classes of
its generators, and a stabilizer chain of that action, stopped once it
reaches |G| elements, checks that it has them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .errors import CapExceededError
from .numtheory import factorize, is_prime

DEFAULT_ELEMENT_CAP = 200_000

# Below this degree ``smaller_faithful_action`` costs more than the
# smaller degree saves, so it returns the group as it is.
REDUCTION_MIN_DEGREE = 100

Perm = tuple[int, ...]


def perm_identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(f: Perm, g: Perm) -> Perm:
    """f o g: apply g first, then f."""
    if len(g) == 1:  # itemgetter of one index returns a scalar, not a tuple
        return f
    return itemgetter(*g)(f)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def conjugate(p: Perm, by: Perm, by_inv: Perm) -> Perm:
    """by o p o by^-1, given by^-1, so that conjugating many times by the
    same element inverts it once."""
    return compose(compose(by, p), by_inv)


def with_inverses(perms) -> list[tuple[Perm, Perm]]:
    return [(g, inverse(g)) for g in perms]


def commutator(a: Perm, b: Perm) -> Perm:
    return compose(compose(a, b), compose(inverse(a), inverse(b)))


def perm_order(p: Perm, points=None) -> int:
    """The lcm of the lengths of the cycles through ``points`` (every
    point by default).  That is the order of p, and for the elements of
    a group it suffices to walk the cycles through a base."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)) if points is None else points:
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        order = math.lcm(order, length)
    return order


def perm_power(p: Perm, k: int) -> Perm:
    """p^k, by repeated squaring; a negative k powers the inverse."""
    if k < 0:
        p, k = inverse(p), -k
    out = tuple(range(len(p)))
    while k:
        if k & 1:
            out = compose(out, p)
        p = compose(p, p)
        k >>= 1
    return out


def orbit_labels(degree: int, generators) -> list[int]:
    """Orbit of each point under the generated group, numbered 0, 1, ...
    in order of the orbits' smallest points."""
    label = [-1] * degree
    count = 0
    for start in range(degree):
        if label[start] >= 0:
            continue
        label[start] = count
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in generators:
                y = g[x]
                if label[y] < 0:
                    label[y] = count
                    frontier.append(y)
        count += 1
    return label


def _over_cap(cap: int) -> CapExceededError:
    return CapExceededError(f"group closure exceeds the element cap {cap}")


def bfs_walk(identity, generators, product, cap: int):
    """The subgroup of a finite group that ``generators`` generate under
    ``product``, yielded identity first, in breadth-first order, as each
    element is found: in a finite group the products of generators
    already form that subgroup.  It is refused (CapExceededError) before
    an element past the cap is stored, and it stores only the elements
    it has yielded."""
    seen = {identity}
    found = [identity]
    yield identity
    gens = [g for g in generators if g != identity]
    for e in found:  # the list grows while it is read
        for g in gens:
            h = product(e, g)
            if h not in seen:
                if len(seen) >= cap:
                    raise _over_cap(cap)
                seen.add(h)
                found.append(h)
                yield h


def bfs_closure(identity, generators, product, cap: int) -> list:
    """The whole of ``bfs_walk``, as a list."""
    return list(bfs_walk(identity, generators, product, cap))


class StabilizerChain:
    """A base and strong generating set of the group that ``generators``
    generate, by the deterministic Schreier-Sims algorithm (Sims 1970;
    Seress, *Permutation Group Algorithms*, ch. 4), with no element of
    the group enumerated.

    Level i holds a base point b_i, the strong generators S_i, which fix
    b_0, ..., b_(i-1), and the orbit of b_i under H_i = <S_i>, with the
    inverse of one element u_x of H_i per orbit point x, u_x(b_i) = x.
    Sifting g from level i replaces it by u_x^-1 g, x = g(b_i), level by
    level, until a point falls outside an orbit or the levels run out.
    A group element g is added to the levels i, ..., j at which it is
    in H_i and its residue stops, so the H_i descend; at the end of the
    levels a new one is opened, at the first point that the residue moves.

    The levels are completed from the deepest up.  At level i, once the
    levels below it are complete, each Schreier generator
    u_(s(x))^-1 s u_x (s in S_i, x in the orbit) is sifted from level
    i + 1; a nontrivial residue is added to the levels down to the one
    at which it stopped, which grows an orbit or opens a level, and the
    levels from there up are completed again.  A pair (x, s) is sifted
    once: transversal elements, once chosen, never change, so a pair
    that sifted once still does, and the Schreier generator of a pair
    that failed is the product of transversal elements and a residue
    that now lie in H_(i+1).  A pair (x, s) through which the orbit
    reached y = s(x) is not sifted at all: u_y was chosen as s u_x, so
    its Schreier generator is the identity.  By Schreier's lemma the
    stabilizer of b_i in H_i is generated by the Schreier generators, so
    when every level is complete it is H_(i+1), and |G| is the product
    of the orbit lengths.  Memory is one transversal element per orbit
    point, and the orbit lengths, each at least 2, sum to at most that
    product.  Those elements count against ``cap``, as an enumeration's
    do: the chain is refused (CapExceededError) before it keeps one more.

    ``bound``, when given, is an order that the group G cannot exceed,
    and no Schreier generator is sifted once the product of the orbit
    lengths reaches it.  That is exact.  At every moment each H_i lies in
    G and fixes b_0, ..., b_(i-1), so the orbit Delta_i of b_i under H_i
    lies in its orbit under the pointwise stabilizer G_i of those points,
    and the product of the |Delta_i| is at most |G|, which is at most
    ``bound``.  Reaching ``bound`` therefore makes each Delta_i the whole
    orbit of b_i under G_i and the stabilizer of the whole base trivial,
    so |G_i| is the product of the |Delta_j|, j >= i.  H_(i+1) lies in
    the stabilizer of b_i in H_i (its generators do), so |H_i| is at least
    that product too, and H_i = G_i: the chain is a complete base and
    strong generating set of G.  When the product stays below ``bound``
    the chain runs to completion, as with no bound.
    """

    __slots__ = ("degree", "cap", "base", "strong", "transversals", "_inverses", "_orbits",
                 "_checked", "_tree", "_kept")

    def __init__(self, degree: int, generators, bound: int | None = None,
                 cap: int = DEFAULT_ELEMENT_CAP):
        self.degree = degree
        self.cap = cap
        self._kept = 0  # transversal elements, over all levels
        self.base: list[int] = []
        self.strong: list[list[Perm]] = []
        self.transversals: list[dict[int, Perm]] = []  # x -> u_x^-1
        self._inverses: list[list[Perm]] = []  # of the strong generators
        self._orbits: list[list[int]] = []
        self._checked: list[list[int]] = []  # per orbit point, the generators sifted
        # per level, the pairs (orbit index of x, index of s) with u_s(x) = s u_x
        self._tree: list[set[tuple[int, int]]] = []
        bound = math.inf if bound is None else bound
        for g in generators:
            if self.order >= bound:
                break
            residue, stop = self.sift(tuple(g))
            if stop < len(self.base) or residue != perm_identity(degree):
                self._add(residue, 0, stop)
                self._complete(stop, bound)

    @property
    def order(self) -> int:
        return math.prod(len(t) for t in self.transversals)

    def sift(self, g: Perm) -> tuple[Perm, int]:
        """(residue, level at which it stopped): len(base) when it passed
        every level, and then g lies in the group exactly when the
        residue is the identity."""
        for i, (b, back) in enumerate(zip(self.base, self.transversals)):
            step = back.get(g[b])
            if step is None:
                return g, i
            g = compose(step, g)
        return g, len(self.base)

    def _add(self, g: Perm, first: int, last: int) -> None:
        """g joins S_first, ..., S_last and grows their orbits; a level is
        opened at the first point g moves when ``last`` is new."""
        if last == len(self.base):
            self._keep()
            b = next(x for x in range(self.degree) if g[x] != x)
            self.base.append(b)
            self.strong.append([])
            self._inverses.append([])
            self.transversals.append({b: perm_identity(self.degree)})
            self._orbits.append([b])
            self._checked.append([0])
            self._tree.append(set())
        g_inv = inverse(g)
        for i in range(first, last + 1):
            gens, inverses = self.strong[i], self._inverses[i]
            gens.append(g)
            inverses.append(g_inv)
            back, orbit, checked, tree = (self.transversals[i], self._orbits[i],
                                          self._checked[i], self._tree[i])
            old, last_gen = len(orbit), len(gens) - 1
            for k, x in enumerate(orbit):  # grows while it is walked
                pairs = ((last_gen, (g, g_inv)),) if k < old else enumerate(zip(gens, inverses))
                for si, (s, s_inv) in pairs:
                    y = s[x]
                    if y not in back:
                        self._keep()
                        back[y] = compose(back[x], s_inv)  # u_y = s u_x
                        orbit.append(y)
                        checked.append(0)
                        tree.add((k, si))

    def _keep(self) -> None:
        if self._kept >= self.cap:
            raise _over_cap(self.cap)
        self._kept += 1

    def _complete(self, level: int, bound) -> None:
        """Sift every unsifted Schreier generator of the levels up from
        ``level``, each after the levels below it are complete, until the
        order reaches ``bound``."""
        i = level
        while i >= 0 and self.order < bound:
            failure = self._schreier_failure(i)
            if failure is None:
                i -= 1
            else:
                self._add(failure[0], i + 1, failure[1])
                i = failure[1]

    def _schreier_failure(self, i: int):
        """The first unsifted Schreier generator h = l u_x of level i,
        l = u_(s(x))^-1 s, that does not sift to the identity from level
        i + 1, as (residue, level).  The sift multiplies l on the left and
        reads h(b) as l(u_x(b)), so h is formed only when it fails: it
        sifts to the identity exactly when l ends as u_x^-1."""
        gens, back, checked, tree = (self.strong[i], self.transversals[i], self._checked[i],
                                     self._tree[i])
        below = list(zip(self.base[i + 1 :], self.transversals[i + 1 :]))
        for k, x in enumerate(self._orbits[i]):
            x_back = back[x]
            while checked[k] < len(gens):
                si = checked[k]
                checked[k] += 1
                if (k, si) in tree:  # u_s(x) = s u_x: the identity
                    continue
                s = gens[si]
                left = compose(back[s[x]], s)
                stop = len(self.base)
                for j, (b, level_back) in enumerate(below, start=i + 1):
                    step = level_back.get(left[x_back.index(b)])
                    if step is None:
                        stop = j
                        break
                    left = compose(step, left)
                if stop < len(self.base) or left != x_back:
                    return compose(left, inverse(x_back)), stop
        return None


def _conjugation_on_classes(gens, right) -> tuple[int, list[Perm]]:
    """(|X|, psi(s) for each generator s) of a regular G: the conjugation
    action on the union X of the generators' conjugacy classes, each x in
    X held as the point x(0), numbered as a breadth-first walk from the
    generators reaches them.  right[w] holds rho_s(w) for each generator
    s, then rho_s^-1(w), the right multiplications of
    ``PermGroup.smaller_faithful_action``; s x s^-1 sends 0 to
    s(rho_s^-1(x(0)))."""
    k = len(gens)
    points = list(dict.fromkeys(s[0] for s in gens))
    index = {x: i for i, x in enumerate(points)}
    images = [[] for _ in gens]
    for x in points:  # X grows while it is walked
        for s, back, image in zip(gens, right[x][k:], images):
            c = s[back]
            if c not in index:
                index[c] = len(points)
                points.append(c)
            image.append(index[c])
    return len(points), [tuple(image) for image in images]


@dataclass(frozen=True)
class StructureReport:
    abelian: bool
    elementary_abelian: bool
    exponent: int
    elementary_prime: int | None = None


class PermGroup:
    """Finite group given by permutation generators on [0, degree)."""

    __slots__ = (
        "degree", "generators", "cap", "_elements", "_element_set", "_base", "_derived", "_sylows",
        "_chain"
    )

    def __init__(self, degree: int, generators, cap: int = DEFAULT_ELEMENT_CAP):
        if degree < 1:
            raise ValueError("degree must be positive")
        gens = []
        points = None  # built once a generator has the right length
        for g in generators:
            g = tuple(g)
            if points is None and len(g) == degree:
                points = set(range(degree))
            if len(g) != degree or set(g) != points:
                raise ValueError(f"{g} is not a permutation of 0..{degree - 1}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.cap = cap
        self._elements: list[Perm] | None = None
        self._element_set: frozenset[Perm] | None = None
        self._base: list[int] | None = None
        self._derived: PermGroup | None = None
        self._sylows: dict[int, PermGroup] = {}
        self._chain: StabilizerChain | None = None

    # -- enumeration ----------------------------------------------------

    def elements(self) -> list[Perm]:
        if self._elements is None:
            self._elements = bfs_closure(perm_identity(self.degree), self.generators,
                                         compose, self.cap)
            self._element_set = frozenset(self._elements)
        return self._elements

    def element_set(self) -> frozenset[Perm]:
        self.elements()
        return self._element_set

    @property
    def order(self) -> int:
        """|G|: the number of elements once G is enumerated, otherwise the
        order of the chain G holds, if it holds one, otherwise by
        enumerating G."""
        if self._elements is None and self._chain is not None:
            return self._chain.order
        return len(self.elements())

    def stabilizer_chain(self) -> StabilizerChain:
        """G's ``StabilizerChain``, built on first use and kept, so that
        ``order`` and ``base()`` read it from then on.  Only the elements
        it keeps count against the cap, one per point of each level's
        orbit, however large G is."""
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators, cap=self.cap)
        return self._chain

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self.element_set()

    def identity(self) -> Perm:
        return perm_identity(self.degree)

    def is_trivial(self) -> bool:
        return self.order == 1

    def subgroup(self, generators) -> "PermGroup":
        sub = PermGroup(self.degree, generators, cap=self.cap)
        parent = self.element_set()
        for g in sub.generators:
            if g not in parent:
                raise ValueError("subgroup generator outside the parent group")
        return sub

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(g in other for g in self.generators)

    def is_normal_in(self, other: "PermGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        mine = self.element_set()
        conjugators = with_inverses(other.generators)
        return all(conjugate(s, g, g_inv) in mine
                   for s in self.generators for g, g_inv in conjugators)

    def smaller_faithful_action(self) -> "PermGroup":
        """G acting faithfully on fewer points, with its elements not
        enumerated, or G itself.

        Only a regular G of degree REDUCTION_MIN_DEGREE or more with a
        trivial centre is reduced; with fewer than two generators G is
        cyclic, so abelian, and is returned.  One breadth-first walk
        from point 0 names each point w by the element t_w on its tree
        path, t_w(0) = w, and carries the right multiplications by the
        generators and their inverses, rho_s(w) = t_w(s(0)) and
        rho_s^-1(w) = t_w(s^-1(0)), as one tuple per point.  It starts
        from rho_s(0) = s(0) and works edge by edge: a point v first
        reached from w by the generator s gets rho(v) = s(rho(w)) for
        every rho, and every later edge (w, s) checks rho(s(w)) =
        s(rho(w)); G is returned at the first that fails, and when the
        walk misses a point.  Tree edges hold by construction, so once
        the walk ends every rho commutes with every generator at every
        point: along each edge of the Cayley graph.  In a regular G that
        holds.  Conversely, if it does, the rho_s generate a group R
        that centralizes G and whose orbit of 0 is G's, all points.  The
        centralizer of a transitive group is semiregular, so R is
        regular, and G, which centralizes R, has at most `degree`
        elements: G is regular.  Then t_w commutes with the generator s
        exactly when s(w) = rho_s(w), so the centre is read off the
        points, and G is returned when it is nontrivial.

        X is the union of the generators' conjugacy classes, each x in
        it held as x(0): g x g^-1 sends 0 to g(rho_g^-1(x(0))).  psi(g)
        is g's conjugation action on X.  ker psi is the centralizer of
        X, which is the centre because X holds the generators, so psi is
        faithful.  G is returned when X has `degree` points, as it has
        for a group given by its Cayley table.  The order of psi(G) is
        read off a ``StabilizerChain`` of it, with no element
        enumerated, and AssertionError unless it is `degree` = |G|, which
        holds exactly when psi is faithful.  The chain is told that
        psi(G) has at most |G| = `degree` elements, so it stops once it
        has found them all, and the group returned keeps it, for its
        order and its base.  CapExceededError, as from ``elements()``,
        when G exceeds the cap: the chain keeps one element of psi(G) per
        orbit point, at most |G| of them.

        For k generators the walk makes 2k lookups along each of the
        k * `degree` edges, where enumerating G composes `degree` points
        along each of its k * |G| edges.
        """
        degree = self.degree
        gens = self.generators
        k = len(gens)
        if degree < REDUCTION_MIN_DEGREE or k < 2:
            return self
        right = [None] * degree  # rho_s(w) for each s, then rho_s^-1(w)
        right[0] = tuple(s[0] for s in gens) + tuple(s.index(0) for s in gens)
        tree = [0]
        for w in tree:  # grows while it is walked
            image = itemgetter(*right[w])
            for s in gens:
                v = s[w]
                moved = image(s)
                there = right[v]
                if there is None:
                    right[v] = moved
                    tree.append(v)
                elif there != moved:
                    return self
        if len(tree) < degree:
            return self
        central = range(1, degree)
        for j, s in enumerate(gens):
            central = [w for w in central if s[w] == right[w][j]]
        if central:
            return self
        size, psi = _conjugation_on_classes(gens, right)
        # on fewer than two points psi is trivial, and X = G saves nothing
        if not 1 < size < degree:
            return self
        if degree > self.cap:
            raise _over_cap(self.cap)
        chain = StabilizerChain(size, psi, bound=degree, cap=self.cap)
        if chain.order != degree:
            raise AssertionError(f"psi(G) has order {chain.order}, not {degree}: psi has a "
                                 f"nontrivial kernel on a group with a trivial centre")
        reduced = PermGroup(size, psi, cap=self.cap)
        reduced._chain = chain
        return reduced

    # -- structure ------------------------------------------------------

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup containing the seeds.

        Adds the conjugates of the subgroup's generators by the group's
        generators until none falls outside; in a finite group that
        makes the subgroup normal.
        """
        ident = self.identity()
        gens = [tuple(s) for s in seeds if tuple(s) != ident]
        conjugators = with_inverses(self.generators)
        while True:
            sub = PermGroup(self.degree, gens, cap=self.cap)
            inside = sub.element_set()
            new = {
                c
                for s in sub.generators
                for g, g_inv in conjugators
                if (c := conjugate(s, g, g_inv)) not in inside
            }
            if not new:
                return sub
            gens = list(sub.generators) + sorted(new)

    def derived_subgroup(self) -> "PermGroup":
        """Normal closure of the generator commutators, built once."""
        if self._derived is None:
            self._derived = self.normal_closure(
                commutator(a, b)
                for i, a in enumerate(self.generators)
                for b in self.generators[i + 1 :]
            )
        return self._derived

    def sylow(self, p: int) -> "PermGroup":
        """A Sylow p-subgroup, grown through the normalizer tower once
        for each p."""
        if p not in self._sylows:
            self._sylows[p] = self._normalizer_tower(p)
        return self._sylows[p]

    def _normalizer_tower(self, p: int) -> "PermGroup":
        """A p-group grown from the first p-element of G by a p-element
        of its normalizer outside it, the first in G's breadth-first
        order, until it has the p-part of |G|.  G is walked lazily and
        under the cap (``bfs_walk``), or read from its elements once they
        are enumerated, and each element's p-part is formed once: every
        step reads the p-parts found so far, then walks on."""
        n = self.order
        p_part = 1
        while n % p == 0:
            p_part *= p
            n //= p
        if p_part == 1:
            return PermGroup(self.degree, [], cap=self.cap)

        base = self.base()

        def p_element(perm: Perm) -> Perm | None:
            o = perm_order(perm, base)
            k = 1
            while o % p == 0:
                o //= p
                k *= p
            return None if k == 1 else perm_power(perm, o)  # of order k, a p-power

        walk = iter(self._elements) if self._elements is not None else \
            bfs_walk(self.identity(), self.generators, compose, self.cap)
        found: list[tuple[Perm, Perm]] = []  # distinct p-parts, with their inverses
        known: set[Perm] = set()

        def p_parts():
            yield from found
            for e in walk:
                q = p_element(e)
                if q is not None and q not in known:
                    known.add(q)
                    found.append((q, inverse(q)))
                    yield found[-1]

        current = PermGroup(self.degree, [next(p_parts())[0]], cap=self.cap)
        while current.order < p_part:
            # a p-group below the p-part has a p-element of its normalizer
            # outside it, and adding one gives a larger p-group
            inside = current.element_set()
            for q, q_inv in p_parts():
                if q not in inside and all(conjugate(s, q, q_inv) in inside
                                           for s in current.generators):
                    current = PermGroup(self.degree, [*current.generators, q], cap=self.cap)
                    break
            else:  # pragma: no cover - Sylow theory forbids this
                raise AssertionError("normalizer tower stalled below the p-part")
        return current

    def on_orbits_of(self, normal: "PermGroup") -> "PermGroup":
        """G acting on the orbits of a normal subgroup N, which are blocks,
        numbered in order of their smallest points."""
        block = orbit_labels(self.degree, normal.generators)
        first = {}
        for x, b in enumerate(block):
            first.setdefault(b, x)
        return PermGroup(len(first), [[block[g[x]] for x in first.values()] for g in self.generators],
                         cap=self.cap)

    def quotient(self, normal: "PermGroup") -> "PermGroup":
        """Faithful action of G/N for a verified normal subgroup N.

        G permutes the N-orbits.  When the group it induces on them has
        order |G|/|N|, the kernel of that action is N (as for a regular
        G) and the action is returned: it costs a pass over the points,
        where the action on the cosets of N, returned otherwise, composes
        every element of G with N.
        """
        if not normal.is_normal_in(self):
            raise ValueError("subgroup is not normal")
        on_blocks = self.on_orbits_of(normal)
        if on_blocks.order * normal.order == self.order:
            return on_blocks
        n_elems = normal.element_set()
        coset_of: dict[Perm, int] = {}
        cosets: list[frozenset[Perm]] = []

        def add_coset(members: frozenset[Perm]) -> int:
            index = len(cosets)
            cosets.append(members)
            for m in members:
                coset_of[m] = index
            return index

        add_coset(frozenset(n_elems))
        for e in self.elements():
            if e not in coset_of:
                add_coset(frozenset(compose(e, x) for x in n_elems))
        reps = [next(iter(c)) for c in cosets]
        perms = []
        for g in self.generators:
            perms.append(tuple(coset_of[compose(g, r)] for r in reps))
        return PermGroup(len(cosets), perms, cap=self.cap)

    def base(self) -> list[int]:
        """Points that only the identity fixes one by one; a regular
        group needs one.  The cycles of an element through a base give
        its order (``perm_order(x, G.base())``).  It is the base of the
        chain G holds, if it holds one, and is otherwise read off G's
        elements."""
        if self._base is None and self._chain is not None:
            self._base = self._chain.base
        if self._base is None:
            base = []
            ident = self.identity()
            rest = [e for e in self.elements() if e != ident]
            while rest:
                b = next(v for v, image in enumerate(rest[0]) if image != v)
                base.append(b)
                rest = [e for e in rest if e[b] == b]
            self._base = base
        return self._base

    def element_orders(self) -> list[int]:
        base = self.base()
        return [perm_order(e, base) for e in self.elements()]

    def structure(self) -> StructureReport:
        """Abelianness, elementary-abelianness and the exponent.

        The exponent of an abelian group is the lcm of its generators'
        orders; otherwise it is the lcm over all elements.
        """
        abelian = all(
            compose(a, b) == compose(b, a)
            for i, a in enumerate(self.generators)
            for b in self.generators[i + 1 :]
        )
        orders = [perm_order(g) for g in self.generators] if abelian else self.element_orders()
        exponent = math.lcm(1, *orders)
        elementary = abelian and (exponent == 1 or is_prime(exponent))
        prime = exponent if elementary and exponent > 1 else None
        return StructureReport(abelian, elementary, exponent, prime)

    def is_supersolvable(self) -> bool:
        """True iff a chief series with prime-cyclic factors exists.

        A supersolvable group has a normal subgroup of order p for the
        largest prime p dividing its order.  The search looks for one
        among the powers of order p of its elements and recurses on the
        quotient: G is supersolvable iff G/N is, for N normal of prime
        order, and when no such N of order p exists G is not.
        """
        primes = factorize(self.order)
        if len(primes) <= 1:  # a group of prime-power order is nilpotent
            return True
        p = max(primes)
        base = self.base()
        conjugators = with_inverses(self.generators)
        tried: set[Perm] = set()
        for x in sorted(self.elements()):
            o = perm_order(x, base)
            if o % p:
                continue
            y = perm_power(x, o // p)
            if y in tried:
                continue
            tried.add(y)
            powers = {y}
            q = compose(y, y)
            while q not in powers:
                powers.add(q)
                q = compose(q, y)
            if all(conjugate(y, g, g_inv) in powers for g, g_inv in conjugators):
                return self.quotient(PermGroup(self.degree, [y], cap=self.cap)).is_supersolvable()
        return False

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [[x + 1 for x in g] for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, data: dict, cap: int = DEFAULT_ELEMENT_CAP) -> "PermGroup":
        """The group of ``to_json_dict``.  With no generators nothing bounds
        the degree by the size of the data, so a degree over the cap is
        refused (CapExceededError)."""
        degree = int(data["degree"])
        gens = [[int(x) - 1 for x in g] for g in data["generators"]]
        if not gens and degree > cap:
            raise CapExceededError(
                f"degree {degree} of a group with no generators exceeds the cap {cap}"
            )
        return cls(degree, gens, cap=cap)

    @classmethod
    def from_cayley_table(cls, order: int, table, cap: int = DEFAULT_ELEMENT_CAP) -> "PermGroup":
        """Left-regular representation of a group given by its 0-based table.

        ValueError unless some row e is the identity, column e reads 0..n-1
        and the rows generate n elements: that group is transitive (row g
        sends e to g), hence regular, so rows g and h compose to row gh.
        A row becomes a generator only when it lies outside the group
        generated so far, which at least doubles that group, so a group
        table keeps at most log2(n) generators."""
        if len(table) != order or any(len(row) != order for row in table):
            raise ValueError("table must be order x order")
        perms = [tuple(row) for row in table]
        e = next((g for g, row in enumerate(perms) if row == perm_identity(order)), None)
        if e is None or any(row[e] != g for g, row in enumerate(perms)):
            raise ValueError("table has no two-sided identity")
        try:
            group = cls(order, [], cap=cap)
            for row in perms:
                if row not in group:
                    group = cls(order, [*group.generators, row], cap=cap)
            generated = group.order
        except CapExceededError:
            if order > cap:
                raise
            generated = None
        if generated != order:
            raise ValueError(f"the rows of the table do not generate a group of order {order}")
        return group

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"
