"""The pseudovariety Ab(p)*Ab(d): its minimum generator, free objects
and subgroup closures in the corresponding pro-topology.

Free objects and closures take any prime p and any divisor d >= 1 of
p - 1; with d = 1 the pseudovariety is Ab(p), the elementary abelian
p-groups.  For p > 2 and d > 1 the two-generator group of order pd
presented by x^p = y^d = 1, y x y^-1 = x^q (with q of multiplicative
order d mod p) generates the pseudovariety; that group,
its isomorphisms, its decompositions and the presentations keep this
domain.  An isomorphism between two presentations, and the embedding of
a presented group into copies of the generator and cyclic factors, are
checked by the defining relations of their source (von Dyck's theorem),
and the embedding's image order is read off in closed form, so no group
element is listed.  The free object on n generators is Z_d^n extended by
an F_p-module, and an element of it (``FreeObject``) is stored as the
d-abelianized word together with its Fox derivatives mod p, one
F_p[Z_d^n] coefficient vector per letter: n * d^n coordinates, whatever
p is.  A word's image in the pd-element group, under any images of its
generators, is read by one walk over its letters (``GpdGroup.evaluate``).

A closure's index is read off H's image: its t-part T and its unit part
K, which splits by the characters of T into one small elimination per
character.  The basis words' sparse Fox derivatives over Z[Z^n]
(``words.fox``) are folded straight onto the edges of the T-cosets, one
list per character (``_ImageSubgroup``), so ``status`` builds no
free-object element and needs no cap, and ``closure`` refuses an index
over its cap before it builds a coset.  A coset is then a T-coset and a
vector of F_p^c, c = log_p(index / [Z_d^n : T]), and each letter acts on
each such fibre by a coordinate-wise affine map, read in the same folded
coordinates, so ``closure`` writes its permutations fibre by fibre with
no coset keys to look up; the transversal elements of T that carry a
coset back are free-object products, folded the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, itemgetter, mul
from typing import Callable, NamedTuple

from .errors import CapExceededError
from .fplinalg import ApdPresentation, rref
from .numtheory import lattice_index, mult_order, require_prime, smallest_of_order
from .permgroup import DEFAULT_ELEMENT_CAP, PermGroup, bfs_closure
from .stallings import Automaton
from .words import Word, fox

DEFAULT_CAP = DEFAULT_ELEMENT_CAP


class GpdElement(NamedTuple):
    """The element x^u y^t of a group C_p x| C_d."""

    u: int
    t: int


class GpdGroup:
    """The group of order pd presented by x^p = y^d = 1, y x y^-1 = x^q.

    Elements are GpdElement pairs (u, t) for x^u y^t; multiplication is
    (u, t)(u', t') = (u + q^t u' mod p, t + t' mod d).  Each power q^t is
    formed by ``pow(q, t, p)`` when it is needed, so the group keeps no
    table of d powers and a prime of any size fits in memory.
    """

    def __init__(self, p: int, d: int, q: int | None = None):
        require_prime(p, "p")
        if p <= 2:
            raise ValueError("p must exceed 2")
        if d <= 1 or (p - 1) % d:
            raise ValueError(f"d = {d} must be a divisor of p - 1 = {p - 1} greater than 1")
        if q is None:
            q = smallest_of_order(p, d)
        elif mult_order(q, p) != d:
            raise ValueError(f"q = {q} does not have multiplicative order {d} mod {p}")
        self.p = p
        self.d = d
        self.q = q % p

    @property
    def order(self) -> int:
        return self.p * self.d

    @property
    def identity(self) -> GpdElement:
        return GpdElement(0, 0)

    @property
    def x(self) -> GpdElement:
        return GpdElement(1, 0)

    @property
    def y(self) -> GpdElement:
        return GpdElement(0, 1)

    def mul(self, a: GpdElement, b: GpdElement) -> GpdElement:
        p = self.p
        return GpdElement((a.u + pow(self.q, a.t, p) * b.u) % p, (a.t + b.t) % self.d)

    def inv(self, a: GpdElement) -> GpdElement:
        t = (-a.t) % self.d
        return GpdElement((-pow(self.q, t, self.p) * a.u) % self.p, t)

    def element_order(self, a: GpdElement) -> int:
        """Order of x^u y^t, in closed form.  For t != 0 mod d it is
        m = d / gcd(t, d): (x^u y^t)^m = x^(u s) y^(tm) with
        s = 1 + q^t + ... + q^(t(m-1)), and q^t has order m, so
        (q^t - 1) s = q^(tm) - 1 = 0 with q^t != 1 gives s = 0 mod p.
        For t = 0 it is p when u != 0, and 1 otherwise."""
        if a.t % self.d:
            return self.d // math.gcd(a.t, self.d)
        return self.p if a.u % self.p else 1

    def elements(self) -> list[GpdElement]:
        return [GpdElement(u, t) for u in range(self.p) for t in range(self.d)]

    def evaluate(self, w: Word, images=None) -> GpdElement:
        """Image of a word of any rank under a_i -> images[i - 1], by
        default a -> x, b -> y; ValueError unless there is one image per
        generator.  The letters are walked through the group law with q^t
        mod p kept as t moves: a letter whose image is x^c y^m takes
        x^u y^t to x^(u + c q^t) y^(t + m).  The final t is read off the
        exponent sums."""
        if images is None:
            images = (self.x, self.y)
        if len(images) != w.rank:
            raise ValueError(f"{len(images)} images for a word of rank {w.rank}")
        p, q = self.p, self.q
        # add[l], mult[l]: c and q^m for letter l, the negative letters at
        # the end of the lists; (x^c y^m)^-1 = x^(-c q^-m) y^-m
        add, mult = [0] * (2 * w.rank + 1), [1] * (2 * w.rank + 1)
        for i, g in enumerate(images, 1):
            add[i], mult[i] = g.u, pow(q, g.t, p)
            mult[-i] = pow(q, -g.t, p)
            add[-i] = -g.u * mult[-i]
        u, qt = 0, 1
        for letter in w.letters:
            u += add[letter] * qt
            qt = qt * mult[letter] % p
        t = sum(g.t * (w.letters.count(i) - w.letters.count(-i)) for i, g in enumerate(images, 1))
        return GpdElement(u % p, t % self.d)

    def as_perm_group(self) -> PermGroup:
        """Left-regular permutation representation on the pd elements."""
        elems = self.elements()
        index = {e: i for i, e in enumerate(elems)}
        perms = [
            tuple(index[self.mul(g, e)] for e in elems) for g in (self.x, self.y)
        ]
        return PermGroup(self.order, perms)

    def __repr__(self) -> str:
        return f"GpdGroup(p={self.p}, d={self.d}, q={self.q})"


def format_gpd_element(e: GpdElement) -> str:
    if e.u == 0 and e.t == 0:
        return "1"
    parts = []
    if e.u:
        parts.append("x" if e.u == 1 else f"x^{e.u}")
    if e.t:
        parts.append("y" if e.t == 1 else f"y^{e.t}")
    return " ".join(parts)


def _check_y_power(source: GpdGroup, target: GpdGroup, m: int) -> None:
    """Raise AssertionError unless x -> x, y -> y^m extends to a
    homomorphism from ``source`` to ``target``.  By von Dyck's theorem it
    does exactly when the images satisfy the source's defining relations:
    x^p = 1, (y^m)^d = 1 and y^m x y^-m = x^q in the target."""
    x, ym = target.x, GpdElement(0, m % target.d)
    if (
        source.p % target.element_order(x)
        or source.d % target.element_order(ym)
        or target.mul(target.mul(ym, x), target.inv(ym)) != GpdElement(source.q, 0)
    ):
        raise AssertionError(f"y -> y^{m} does not respect the relations of {source}")


def gpd_iso(p: int, d: int, q: int, r: int) -> tuple[int, int]:
    """Exponents (m, k) realizing the isomorphisms between the q- and
    r-presentations: x -> x, y -> y^m one way and y -> y^k back.

    Requires q and r of exact order d; returns m, k with r^m = q and
    q^k = r mod p.  Both maps are checked to be homomorphisms by their
    defining relations (``_check_y_power``), and m k = 1 mod d makes
    them mutually inverse, since each composite fixes x and y.
    """
    for value, name in ((q, "q"), (r, "r")):
        if mult_order(value, p) != d:
            raise ValueError(f"{name} = {value} does not have order {d} mod {p}")
    m = next(m for m in range(1, d + 1) if pow(r, m, p) == q % p)
    k = next(k for k in range(1, d + 1) if pow(q, k, p) == r % p)
    if m * k % d != 1:
        raise AssertionError(f"m = {m} and k = {k} are not inverse mod {d}")
    gq, gr = GpdGroup(p, d, q), GpdGroup(p, d, r)
    _check_y_power(gq, gr, m)
    _check_y_power(gr, gq, k)
    return m, k


class FreeObject:
    """Free object of Ab(p)*Ab(d) on n generators.

    p is any prime and d any divisor d >= 1 of p - 1.  An element is a
    pair (s, u): s in Z_d^n is the d-abelianized word w and u holds its
    Fox derivatives mod p.  Coordinate i * d^n + k of u is the
    coefficient of ``points[k]`` in the image of dw/da_i in F_p[Z_d^n],
    so u has n * d^n coordinates.  With d = 1 there is one point, and u
    is the abelianization of w mod p: the free object of Ab(p).
    Multiplication adds a translated copy, F(wv) = F(w) + s(w).F(v), and
    needs no arithmetic in the pd-element group.

    The element sends an assignment a_i -> x^(u_i) y^(t_i) of the letters
    into the group x^p = y^d = 1, y x y^-1 = x^q (q of multiplicative
    order d mod p), t_phi = (t_1, ..., t_n), to y-exponent <s, t_phi> and
    x-exponent sum_i u_i sum_t F_i[t] q^<t, t_phi>.  For fixed s this
    readout is an injective discrete Fourier transform over Z_d^n (d
    divides p - 1), so two elements are equal exactly when they agree on
    every assignment.

    Construction is refused when the n * d^n coordinates of an element
    exceed the default cap, or the n * n * d^n of the generators exceed
    the cap times its bit length; ``closure`` and ``status`` apply the
    same bounds (``check_image_walk``) before they read the image.  The
    translation table (``_shift``) keeps one getter of n * d^n indices
    per distinct s that multiplication meets as its left factor's
    t-part.  The elements serve the ``free-object`` command, the
    transversal elements of ``closure`` (``_ImageSubgroup.transversal``,
    built by ``element`` and ``mul``) and ``materialize``, and so
    ``cayley_automaton`` and ``closure_by_folding``, the only route that
    enumerates them: it
    refuses an order formula over its own cap before the breadth-first
    closure (``permgroup.bfs_closure``) starts.
    """

    def __init__(self, n: int, p: int, d: int):
        _check_free_object(n, p, d)
        self.n = n
        self.p = p
        self.d = d
        self.points = list(itertools.product(range(d), repeat=n))
        self._point_index = {t: k for k, t in enumerate(self.points)}
        self.n_coords = n * len(self.points)
        self._shifts: dict[tuple[int, ...], Callable[[tuple], tuple]] = {}
        self.identity = ((0,) * n, (0,) * self.n_coords)
        self.generators = []
        for i in range(n):
            s = tuple(1 if j == i else 0 for j in range(n))
            u = [0] * self.n_coords
            u[i * len(self.points)] = 1  # points[0] is the zero of Z_d^n
            self.generators.append((s, tuple(u)))
        self._elements: list | None = None
        self._cayley: Automaton | None = None

    @property
    def order_formula(self) -> int:
        return self.p ** ((self.n - 1) * self.d**self.n + 1) * self.d**self.n

    # -- element arithmetic -------------------------------------------

    def _shift(self, s) -> Callable[[tuple], tuple]:
        """Getter that reads a coordinate tuple translated by s: the entry
        at (i, t) of its result is the entry at (i, t - s).  The index of
        t - s is formed digit by digit in the product order of ``points``,
        the first coordinate most significant."""
        getter = self._shifts.get(s)
        if getter is None:
            d = self.d
            base = [0]
            for b in s:
                base = [k * d + (a - b) % d for k in base for a in range(d)]
            row = [i * len(base) + k for i in range(self.n) for k in base]
            # itemgetter of one index returns a scalar, not a tuple; the one
            # translation of a single coordinate is the identity
            getter = self._shifts[s] = itemgetter(*row) if len(row) > 1 else tuple
        return getter

    def mul(self, a, b):
        p, d = self.p, self.d
        s = tuple((x + y) % d for x, y in zip(a[0], b[0]))
        u = tuple([(x + y) % p for x, y in zip(a[1], self._shift(a[0])(b[1]))])
        return (s, u)

    def inv(self, a):
        p, d = self.p, self.d
        s = tuple((-x) % d for x in a[0])
        u = tuple([(-y) % p for y in self._shift(s)(a[1])])
        return (s, u)

    def evaluate(self, w: Word):
        """Image of a word under the canonical map onto the free object:
        its exponent sums mod d and its Fox derivatives (``words.fox``)
        with every point reduced mod d and every coefficient mod p."""
        if w.rank != self.n:
            raise ValueError(f"word rank {w.rank} does not match n = {self.n}")
        d = self.d
        endpoint, parts = fox(w)
        return self.element(tuple(x % d for x in endpoint),
                            [[(tuple(x % d for x in t), c) for t, c in part.items()]
                             for part in parts])

    def element(self, s, parts):
        """The element over s whose Fox derivative by a_i is given by
        parts[i], (point of Z_d^n, integer coefficient) pairs that add up
        at a repeated point."""
        size, index = len(self.points), self._point_index
        u = [0] * self.n_coords
        for i, part in enumerate(parts):
            for t, c in part:
                u[i * size + index[t]] += c
        return s, tuple([c % self.p for c in u])

    # -- enumeration ----------------------------------------------------

    def materialize(self, cap: int = DEFAULT_CAP) -> list:
        """All elements by breadth-first closure (``bfs_closure``), refused
        before it starts when the order formula exceeds the cap, and
        checked against that formula."""
        if self._elements is None:
            if self.order_formula > cap:
                raise CapExceededError(
                    f"free object has order {self.order_formula}, beyond cap {cap}"
                )
            elements = bfs_closure(self.identity, self.generators, self.mul, cap)
            if len(elements) != self.order_formula:  # pragma: no cover
                raise AssertionError(
                    f"enumerated {len(elements)} elements, formula says {self.order_formula}"
                )
            self._elements = elements
        return self._elements

    @property
    def order(self) -> int:
        return self.order_formula

    def cayley_automaton(self, cap: int = DEFAULT_CAP) -> Automaton:
        """Complete automaton on the element set: the Stallings automaton
        of the kernel of the canonical map from the free group."""
        if self._cayley is None:
            elems = self.materialize(cap)
            index = {e: i for i, e in enumerate(elems)}
            perms = [
                tuple(index[self.mul(e, g)] for e in elems) for g in self.generators
            ]
            self._cayley = Automaton.from_action(self.n, perms)
        return self._cayley

    def __repr__(self) -> str:
        return f"FreeObject(n={self.n}, p={self.p}, d={self.d})"


def _check_free_object(n: int, p: int, d: int) -> None:
    """FreeObject's argument checks and its budget (CapExceededError)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    require_prime(p, "p")
    if d < 1 or (p - 1) % d:
        raise ValueError(f"d = {d} must be a positive divisor of p - 1 = {p - 1}")
    bits = DEFAULT_CAP.bit_length()
    # for d > 1, 2^n alone exceeds the cap past its bit length, and
    # testing n first keeps d**n small; for d = 1 the generators bound n
    if (d > 1 and n > bits) or n * d**n > DEFAULT_CAP or n * n * d**n > bits * DEFAULT_CAP:
        raise CapExceededError(
            f"free object on {n} generators needs n generators of n * d^n Fox "
            f"coordinates each, beyond cap {DEFAULT_CAP}"
        )


# -- closures -------------------------------------------------------------


def check_image_walk(aut: Automaton, p: int, d: int) -> int:
    """The order of H's t-part T, once FreeObject's checks and the two
    budgets of ``_ImageSubgroup`` have passed; no basis word is spelled
    and none folded.  CapExceededError when the k basis words'
    k * n * d^n Fox coordinates, folded into as many, or the
    |T| * sum_j min(|w_j|, n * d^n) terms that fold their Fox supports
    into the |T| characters, exceed the cap times its bit length; a
    word's Fox support has at most one point per letter, and at most
    n * d^n.  T is spanned by the basis
    words' exponent sums mod d, so |T| is read off a lattice index.

    The exponent sums and lengths come from ``Automaton.basis_sums``,
    which reads them off the spanning tree in O(V * n + k * n), so both
    budgets are checked before the basis's letters take any memory."""
    n = aut.rank
    _check_free_object(n, p, d)
    shapes = aut.basis_sums()
    span = [sums for sums, _ in shapes]
    span += [[d if j == i else 0 for j in range(n)] for i in range(n)]
    t_order = d**n // lattice_index(span, n)
    n_coords = n * d**n
    budget = DEFAULT_CAP * DEFAULT_CAP.bit_length()
    if len(shapes) * n_coords > budget:
        raise CapExceededError(
            f"the image needs {len(shapes)} basis words of {n_coords} Fox coordinates, "
            f"beyond cap {DEFAULT_CAP} times its bit length"
        )
    support = sum(min(length, n_coords) for _, length in shapes)
    if t_order * support > budget:
        raise CapExceededError(
            f"the image folds {support} Fox support points into {t_order} characters, "
            f"beyond cap {DEFAULT_CAP} times its bit length"
        )
    return t_order


class _ImageSubgroup:
    """The image I of a subgroup in the free object, split by the
    characters of its t-part T <= Z_d^n, read off the basis words' Fox
    supports with no free-object element built.

    With zeta = ``smallest_of_order(p, d)`` (1 when d = 1), a point c of
    Z_d^n gives the character t -> zeta^<c, t>, and the points fall into
    |T| classes chi by their signatures sig(c) = (<c, s_j> mod d)_j on
    the t-parts s_j of H's basis words.  The classes are found by a walk
    on signatures from sig(0) = 0, as sig(c + e_i) = sig(c) + (s_j[i])_j,
    which keeps the first point reached as the class's point;
    AssertionError unless it finds |T| of them.  A class's folded
    coordinates of a Fox vector u are F_i(beta) = sum u_i(t) zeta^<c, t>
    over the points t of the T-coset beta: the Fourier values of u at the
    class's points are the transform of F over Z_d^n / T, so they have
    the same linear relations, and a translation by t in T multiplies F
    by chi(t) = zeta^<c, t>.  Over all |T| classes the folded coordinates
    of u number n * d^n, as its Fox coordinates do.  K, the unit part of
    I, is the image of the relators of T, and its Fox-Jacobian reading
    splits it by class:

        K_chi = { sum_j b_j F_j : sum_j b_j (1 - chi(s_j)) = 0 },

    spanned by the F_j when chi is trivial and by (1 - chi(s_j)) F_i0 -
    (1 - chi(s_i0)) F_j for a fixed i0 with chi(s_i0) != 1 otherwise.

    An edge (beta, i) of the T-cosets carries F_i(beta).  The unit module
    A_0, Fox vectors of t-part 0, is cut out on a class by one equation
    per coset, sum of zeta^(c_i) F_i(beta - e_i) - F_i(beta) over i, and
    these equations fix the edges of a spanning tree of the cosets and,
    for a nontrivial chi, one more edge whose cycle crosses a point g of
    T with chi(g) != 1: with that edge the equations have a nonzero
    determinant, a multiple of chi(g) - 1.  So the other edges are
    coordinates of A_0's part, and each piece of K is one small
    elimination in them; dim K is the sum of their ranks.  The free
    object has order d^n * p^((n-1) d^n + 1) and I has order
    |T| * p^dim K, so the closure's index is
    [Z_d^n : T] * p^((n-1) d^n + 1 - dim K).

    Each basis word's Fox support (``words.fox``), its points reduced mod
    d and its coefficients later mod p, is folded straight onto the
    edges: a support point t of du/da_i adds its coefficient times
    zeta^<c, t> on each class to edge (coset of t, i).  The k basis words
    keep k * n * d^n folded coordinates, and folding costs one term per
    class and support point; ``check_image_walk`` budgets both from the
    basis's exponent sums and lengths, and the basis words are spelled
    only after both pass.  The supports are kept (``words``), and
    ``transversal`` builds from them, for ``closure``, the elements of I
    that carry a coset back.
    """

    def __init__(self, aut: Automaton, p: int, d: int):
        self.t_order = t_order = check_image_walk(aut, p, d)
        n = self.n = aut.rank
        self.p, self.d = p, d
        zeta = smallest_of_order(p, d)
        self.zpow = zpow = [1] * d
        for e in range(1, d):
            zpow[e] = zpow[e - 1] * zeta % p
        zero = (0,) * n
        # each basis word's t-part and Fox support, its points reduced mod d
        self.words = words = []
        for w in aut.basis():
            endpoint, parts = fox(w)
            words.append((tuple(x % d for x in endpoint),
                          [[(tuple(x % d for x in t), c) for t, c in part.items()]
                           for part in parts]))
        sums = [s for s, _ in words]

        # T by a breadth-first walk on the basis words' distinct nonzero
        # t-parts: the points in the order reached, and per point after 0
        # the index of the point it is reached from and the first word of
        # the t-part it is reached by
        moves: dict[tuple, int] = {}
        for j, s in enumerate(sums):
            if s != zero:
                moves.setdefault(s, j)
        self.n_moves = len(moves)
        self.t_points = t_points = [zero]
        self.t_walk = []
        seen = {zero}
        for k, t in enumerate(t_points):  # the list grows while it is read
            for s, j in moves.items():
                t2 = tuple((a + b) % d for a, b in zip(s, t))
                if t2 not in seen:
                    seen.add(t2)
                    t_points.append(t2)
                    self.t_walk.append((k, j))
        if len(t_points) != t_order:
            raise AssertionError(f"the walk reached {len(t_points)} points of T, not {t_order}")

        # the character classes by a walk on signatures
        columns = [tuple(s[i] for s in sums) for i in range(n)]
        order = [((0,) * len(sums), zero)]
        signatures = {order[0][0]}
        for sig, c in order:  # the list grows while it is read
            for i, column in enumerate(columns):
                sig2 = tuple((a + b) % d for a, b in zip(sig, column))
                if sig2 not in signatures:
                    signatures.add(sig2)
                    order.append((sig2, c[:i] + ((c[i] + 1) % d,) + c[i + 1:]))
        if len(order) != t_order:
            raise AssertionError(f"the signature walk found {len(order)} character classes, "
                                 f"for |T| = {t_order}")

        # the T-cosets by a breadth-first walk on the letters: coset f is
        # first reached at the point reached[f], coset_of maps each point
        # of Z_d^n to its coset, and edge f * n + i, the letter a_i from
        # reached[f], leads to coset f2 across g = reached[f] + e_i -
        # reached[f2] in T; g is 0 on the walk's tree, and every other edge
        # closes a cycle
        self.coset_of = coset_of = {}
        self.reached, self.steps, cotree = [], [], []

        def enter(t):
            for tau in t_points:
                coset_of[tuple((a + b) % d for a, b in zip(t, tau))] = len(self.reached)
            self.reached.append(t)

        enter(zero)
        for t in self.reached:  # the list grows while it is read
            for i in range(n):
                t2 = t[:i] + ((t[i] + 1) % d,) + t[i + 1:]
                f2 = coset_of.get(t2)
                if f2 is None:
                    self.steps.append((len(self.reached), zero))
                    enter(t2)
                else:
                    cotree.append(len(self.steps))
                    self.steps.append((f2, tuple((a - b) % d for a, b in zip(t2, self.reached[f2]))))

        # each word's folded coordinates, per edge a list over the classes
        # (None for an edge that no Fox support point reaches)
        class_points = [c for _, c in order]
        self.folded = []
        for _, parts in words:
            edges: list = [None] * len(self.steps)
            for i, part in enumerate(parts):
                for t, x in part:
                    e = coset_of[t] * n + i
                    terms = [x * zpow[sum(map(mul, c, t)) % d] for c in class_points]
                    edges[e] = terms if edges[e] is None else list(map(add, edges[e], terms))
            self.folded.append(edges)

        # each piece: its class's signature and point, the edges that are
        # coordinates of A_0's part, and K_chi's reduced rows and pivots in
        # them
        self.pieces = []
        self.dim_k = 0
        crossed = [self.steps[e][1] for e in cotree]
        on_cotree = [[edges[e] for e in cotree] for edges in self.folded]
        for h, (sig, c) in enumerate(order):
            vecs = [[x[h] % p if x else 0 for x in row] for row in on_cotree]
            free = cotree
            if any(sig):
                i0 = next(j for j, e in enumerate(sig) if e)
                fixed = next((k for k, g in enumerate(crossed) if sum(map(mul, c, g)) % d), None)
                if fixed is None:
                    raise AssertionError(f"no cycle of the cosets crosses a point of T off the kernel of {c}")
                free = cotree[:fixed] + cotree[fixed + 1:]
                for v in vecs:
                    del v[fixed]
                chi = [zpow[e] for e in sig]
                a0, v0 = 1 - chi[i0], vecs[i0]
                vecs = [[((1 - chi[j]) * x - a0 * y) % p for x, y in zip(v0, v)]
                        for j, v in enumerate(vecs) if j != i0]
            rows, pivots = rref(vecs, p)
            self.dim_k += len(pivots)
            self.pieces.append((sig, c, free, rows, pivots))
        self.n_keys = (n - 1) * d**n + 1 - self.dim_k
        self.index = len(self.reached) * p**self.n_keys

    def key_rows(self, h: int) -> list[list[tuple[int, int]]]:
        """Q's rows on class h in folded coordinates, each as its nonzero
        (edge, coefficient) pairs.

        Each non-pivot coordinate j of K_chi's reduced rows gives the
        functional x_j - sum_r x_(pivot r) row_r[j] on the class's folded
        coordinates, which vanishes on K_chi and is onto F_p together
        with the others; on A_0 their joint kernel is K.  Read on Fox
        coordinates, it is the row whose entry at (i, t) is its
        coefficient at (coset of t, i) times zeta^<c, t>, so a
        translation by t in T multiplies its value by chi(t)."""
        _, _, free, rows, pivots = self.pieces[h]
        pivot_set = set(pivots)
        return [[(e, 1)] + [(free[pivot], -r[j]) for pivot, r in zip(pivots, rows) if r[j]]
                for j, e in enumerate(free) if j not in pivot_set]

    def transversal(self, places) -> dict[int, tuple]:
        """rep_t, an element of I over t, for the points t of ``t_points``
        at the given places, built in ``FreeObject`` along each point's
        path from 0 in T's walk: one ``mul`` per point of the paths, the
        image of a basis word times the rep it extends, so that every
        product translates by a basis word's t-part.  AssertionError
        unless each product lies over its point."""
        fobj = FreeObject(self.n, self.p, self.d)
        images: dict[int, tuple] = {}
        reps = {0: fobj.identity}
        for k in places:
            path = []
            while k not in reps:
                path.append(k)
                k = self.t_walk[k - 1][0]
            for k in reversed(path):
                parent, j = self.t_walk[k - 1]
                if j not in images:
                    images[j] = fobj.element(*self.words[j])
                rep = reps[k] = fobj.mul(images[j], reps[parent])
                if rep[0] != self.t_points[k]:
                    raise AssertionError(f"the transversal element for {self.t_points[k]} "
                                         f"lies over {rep[0]}")
        return reps


def _affine_fibre(base: int, shifts, scales, p: int) -> list[int]:
    """The targets of the p^c points of a fibre under the coordinate-wise
    affine map q -> shifts + scales * q of F_p^c, numbered base * p^c +
    sum_j q_j p^(c-1-j): the c maps of F_p composed one digit at a time."""
    out = [base]
    for a, m in zip(shifts, scales):
        step = [(a + m * x) % p for x in range(p)]
        out = [v * p + y for v in out for y in step]
    return out


def closure(aut: Automaton, p: int, d: int, cap: int = DEFAULT_CAP) -> Automaton:
    """Pro-(Ab(p)*Ab(d)) closure of the subgroup, as a complete automaton.

    The closure is the full preimage of H's image I in the free object,
    so its automaton is the Schreier graph of the free object acting on
    the cosets of I.  It is refused before any coset is built when I's
    index exceeds the cap.  It is refused too, before the transversal is
    built, when its |T| - 1 elements at most and the translation getters
    its products leave in ``FreeObject``, one per distinct nonzero t-part
    of a basis word, exceed the default cap times its bit length in units
    of n * d^n coordinates.  The image, its key rows and the letter steps
    are read in folded coordinates (``_ImageSubgroup``), class by class;
    the only free-object elements built are the transversal elements
    that carry a coset back.

    A coset is (f, q): f a T-coset, reached by the image's walk at the
    point r_f, and q = Q u in F_p^c for the coset's elements (r_f, u);
    all p^c values occur.  The letter a_i sends (f, q) to the point
    r_f + e_i = r_f2 + g with value q + Q e_(i,r_f), and on class chi the
    value of a key row (``_ImageSubgroup.key_rows``) at e_(i,r_f) is its
    coefficient at edge (f, i) times zeta^<c, r_f>.  When g != 0 the
    transversal element (-g, u_-g) carries the coset back over r_f2, and
    the value becomes Q u_-g + chi(-g) (q + Q e_(i,r_f)) coordinate by
    coordinate, with Q u_-g the key rows applied to F_chi(rep_-g), the
    Fox coordinates of rep_-g (``_ImageSubgroup.transversal``) folded onto
    the edges on class chi; AssertionError unless -g lies on T's walk.
    So each letter acts on each fibre by a coordinate-wise
    affine map of F_p^c, and the permutation lists are written fibre by
    fibre (``_affine_fibre``), with no coset keys; ``Automaton.from_action``
    numbers the orbit of the coset of I, and AssertionError is raised
    unless it has ``index`` points.
    """
    image = _ImageSubgroup(aut, p, d)
    if image.index > cap:
        raise CapExceededError(f"closure needs more than {cap} cosets")
    n, zpow = aut.rank, image.zpow
    coords = n * d**n
    if (image.t_order - 1 + image.n_moves) * coords > DEFAULT_CAP * DEFAULT_CAP.bit_length():
        raise CapExceededError(
            f"the closure needs {image.t_order - 1} transversal elements and {image.n_moves} "
            f"translation getters of {coords} Fox coordinates, beyond cap "
            f"{DEFAULT_CAP} times its bit length"
        )
    # per carrying g, the place of -g on T's walk, and per key row chi(-g)
    # and Q u_-g
    zero = (0,) * n
    position = {t: k for k, t in enumerate(image.t_points)}
    carried = {}
    for _, g in image.steps:
        if g != zero and g not in carried:
            back = tuple((-x) % d for x in g)
            if back not in position:
                raise AssertionError(f"{back}, which carries a coset across {g}, is not on T's walk")
            carried[g] = (position[back], [], [])
    reps = image.transversal({k for k, _, _ in carried.values()}) if carried else {}
    # per carried rep, its nonzero Fox coordinates as (edge, t, value), the
    # coordinate at (i, t) read on edge (coset of t, i); made on first use
    supports: dict[int, list] = {}

    def support(k):
        if k not in supports:
            u, size = reps[k][1], d**n
            supports[k] = [(image.coset_of[t] * n + i, t, x) for i in range(n)
                           for t, x in zip(itertools.product(range(d), repeat=n),
                                           u[i * size:(i + 1) * size]) if x]
        return supports[k]

    # per key row, Q's values at the letter steps
    table: list[list[int]] = []
    for h, (_, c, _, _, _) in enumerate(image.pieces):
        rows = image.key_rows(h)
        if not rows:
            continue
        at = [zpow[sum(map(mul, c, r)) % d] for r in image.reached]
        for row in rows:
            values = [0] * len(image.steps)
            for e, x in row:
                values[e] = x * at[e // n] % p
            table.append(values)
        for g, (k, scales, moved) in carried.items():
            folded = [0] * len(image.steps)
            for e, t, x in support(k):
                folded[e] += x * zpow[sum(map(mul, c, t)) % d]
            scale = zpow[-sum(map(mul, c, g)) % d]
            for row in rows:
                scales.append(scale)
                moved.append(sum(x * folded[e] for e, x in row) % p)
    if len(table) != image.n_keys:
        raise AssertionError(f"the key table has {len(table)} rows, not {image.n_keys}")

    ones = [1] * image.n_keys
    columns = zip(*table) if table else [()] * len(image.steps)
    perms: list[list[int]] = [[] for _ in range(n)]
    for e, ((f2, g), column) in enumerate(zip(image.steps, columns)):
        if g == zero:
            perms[e % n].extend(_affine_fibre(f2, column, ones, p))
        else:
            _, scales, moved = carried[g]
            shifts = [(v + m * x) % p for v, m, x in zip(moved, scales, column)]
            perms[e % n].extend(_affine_fibre(f2, shifts, scales, p))
    result = Automaton.from_action(n, perms)
    if result.n_vertices != image.index:
        raise AssertionError(f"the action has {result.n_vertices} points in the orbit of the "
                             f"image's coset, the image has index {image.index}")
    return result


def closure_by_folding(aut: Automaton, p: int, d: int, cap: int = DEFAULT_CAP,
                       fobj: FreeObject | None = None) -> Automaton:
    """Closure by wedging with the free object's Cayley automaton and folding.

    Requires enumerating the free object, so it is only viable when its
    order fits the cap; used as the independent cross-check of
    ``closure``.  A given ``fobj`` is reused, so its Cayley automaton is
    built once across calls.
    """
    obj = fobj if fobj is not None else FreeObject(aut.rank, p, d)
    if (obj.n, obj.p, obj.d) != (aut.rank, p, d):
        raise ValueError("free object does not match the requested parameters")
    return obj.cayley_automaton(cap).join(aut)


@dataclass(frozen=True)
class ApdStatus:
    closed: bool
    dense: bool
    index_of_closure: int


def status(aut: Automaton, p: int, d: int) -> ApdStatus:
    """Closedness and density of H for the pro-(Ab(p)*Ab(d)) topology, read
    off the closure's index with no coset search and so no coset cap (the
    image's budgets, ``check_image_walk``, apply): H lies in its
    closure, so it is closed exactly when its own index equals that one."""
    index = _ImageSubgroup(aut, p, d).index
    return ApdStatus(closed=aut.index() == index, dense=index == 1, index_of_closure=index)


# -- decomposition into minimum generators --------------------------------


@dataclass(frozen=True)
class ApdEmbedding:
    """A homomorphism from a presented group into a direct product of
    copies of the pd-group and cyclic groups C_d, given on generators.

    ``factors`` lists the codomain factors ("gpd" or "cyclic"); each
    generator image is a tuple with one entry per factor (GpdElement for
    gpd factors, an integer mod d for cyclic ones).  ``image_order`` is
    the order of the image, which ``decompose`` computes in closed form;
    the map is injective when it equals ``group_order``.
    """

    presentation: ApdPresentation
    q: int
    factors: tuple[str, ...]
    x_images: tuple[tuple, ...]
    y_images: tuple[tuple, ...]
    group_order: int
    image_order: int

    @property
    def injective(self) -> bool:
        return self.group_order == self.image_order


def _check_relations(group: GpdGroup, pres: ApdPresentation, factors, x_images,
                     y_images) -> None:
    """Raise AssertionError unless the images satisfy the presentation's
    defining relations, so that (von Dyck's theorem) x_i -> x_images[i],
    y_j -> y_images[j] extends to a homomorphism into the product of
    ``factors``.  A relation holds in the product when it holds in every
    factor, and a cyclic factor Z_d is checked as the subgroup of powers
    of y in ``group``."""
    p = group.p
    for f, kind in enumerate(factors):
        xs, ys = (
            [image[f] if kind == "gpd" else GpdElement(0, image[f]) for image in images]
            for images in (x_images, y_images)
        )
        for i, x in enumerate(xs):
            if p % group.element_order(x):
                raise AssertionError(f"image of x_{i + 1} does not have order dividing {p}")
        for j, y in enumerate(ys):
            if pres.orders[j] % group.element_order(y):
                raise AssertionError(
                    f"image of y_{j + 1} does not have order dividing {pres.orders[j]}"
                )
        for name, images in (("x", xs), ("y", ys)):
            for (i, a), (i2, b) in itertools.combinations(enumerate(images, 1), 2):
                if group.mul(a, b) != group.mul(b, a):
                    raise AssertionError(f"images of {name}_{i} and {name}_{i2} do not commute")
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                # x has order dividing p, prime to d, so x = x^u and x^k = x^(k u)
                k = pres.exponents[i][j]
                if group.mul(group.mul(y, x), group.inv(y)) != GpdElement(k * x.u % p, 0):
                    raise AssertionError(
                        f"y_{j + 1} x_{i + 1} y_{j + 1}^-1 does not map to x_{i + 1}^{k}"
                    )


def _image_order(p: int, d: int, factors, y_images) -> int:
    """Order of the subgroup of the product of ``factors`` that the x's of
    the n gpd factors and ``y_images`` generate.  The x's span C_p^n, the
    kernel of the map onto the t-parts and cyclic parts in Z_d^k, so the
    order is p^n |Y| for the subgroup Y that the y_images span there, and
    |Y| = d^k / [Z^k : L] for the lattice L spanned by those vectors and
    d Z^k."""
    k = len(factors)
    vectors = [[v.t if kind == "gpd" else v for kind, v in zip(factors, image)]
               for image in y_images]
    vectors += [[d if a == b else 0 for b in range(k)] for a in range(k)]
    return p ** factors.count("gpd") * d**k // lattice_index(vectors, k)


def decompose(pres: ApdPresentation) -> ApdEmbedding:
    """Embed the presented group into gpd and cyclic factors.

    Per x-generator one gpd factor receives x_i -> x and y_j -> y^k_ij
    with q^k_ij matching the presented conjugation exponent; cyclic
    factors record the y-exponents.  When a single y-generator already
    acts with full order on some x, the cyclic factor is redundant and
    dropped.

    By von Dyck's theorem the assignment is a homomorphism exactly when
    the images satisfy the defining relations, and they are checked one
    factor at a time (``_check_relations``).  The image order is read off
    in closed form (``_image_order``); AssertionError unless it is the
    group's.
    """
    p, d, n, m = pres.p, pres.d, pres.n, pres.m
    group = GpdGroup(p, d)
    q = group.q

    # discrete logs base q for every conjugation exponent
    dlog = {pow(q, t, p): t for t in range(d)}
    k_table = [[dlog[pres.exponents[i][j] % p] for j in range(m)] for i in range(n)]

    drop_cyclic = m == 1 and any(
        mult_order(pres.exponents[i][0], p) == pres.orders[0] for i in range(n)
    )
    factors = tuple(["gpd"] * n + ([] if drop_cyclic else ["cyclic"] * m))

    def embed_x(i: int):
        parts: list = [group.identity] * n + ([] if drop_cyclic else [0] * m)
        parts[i] = group.x
        return tuple(parts)

    def embed_y(j: int):
        parts: list = [GpdElement(0, k_table[i][j]) for i in range(n)]
        if not drop_cyclic:
            parts += [0] * m
            parts[n + j] = d // pres.orders[j]
        return tuple(parts)

    x_images = tuple(embed_x(i) for i in range(n))
    y_images = tuple(embed_y(j) for j in range(m))

    _check_relations(group, pres, factors, x_images, y_images)

    embedding = ApdEmbedding(
        presentation=pres,
        q=q,
        factors=factors,
        x_images=x_images,
        y_images=y_images,
        group_order=pres.group_order,
        image_order=_image_order(p, d, factors, y_images),
    )
    if not embedding.injective:  # pragma: no cover - construction guarantees it
        raise AssertionError(
            f"the image has order {embedding.image_order}, the group {embedding.group_order}"
        )
    return embedding
