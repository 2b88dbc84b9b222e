"""Reference routines that only the tests use."""

import heapq
import itertools
import re
import string
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from provar.apd import FreeObject, GpdElement, GpdGroup
from provar.errors import CapExceededError
from provar.fplinalg import ApdPresentation, kernel_basis, mat_inv, mat_mul, mat_vec, rref
from provar.metabelian import Flow
from provar.numtheory import factorize, mult_order, require_prime
from provar.permgroup import DEFAULT_ELEMENT_CAP, PermGroup, bfs_closure, compose, inverse
from provar.stallings import Automaton
from provar.uvar import UMembershipReport, is_in_u
from provar.words import Word, height_counts, identity, reduce_letters, word


def evaluate_by_height_counts(group: GpdGroup, w: Word) -> GpdElement:
    """Image of a rank-2 word under a -> x, b -> y, read off its height
    counts: an a^(+-1) read at b-height j contributes x^(+-q^j), since
    y^j x = x^(q^j) y^j; so the image is x^u y^t with
    u = sum_j c_j q^(j mod d) mod p over the height counts c_j and t the
    final height mod d."""
    counts, height = height_counts(w)
    p, q, d = group.p, group.q, group.d
    return GpdElement(sum(c * pow(q, j % d, p) for j, c in counts.items()) % p, height % d)


def free_object(n: int, p: int, d: int, cap: int = DEFAULT_ELEMENT_CAP) -> FreeObject:
    """Construct and fully enumerate the free object; ``materialize``
    checks the element count against the order formula."""
    obj = FreeObject(n, p, d)
    obj.materialize(cap)
    return obj


def check_homomorphism(f, source: GpdGroup, target: GpdGroup, name: str) -> None:
    """Raise AssertionError unless ``f`` is a homomorphism source -> target.

    Checks f(1) = 1 and f(a g) = f(a) f(g) for every element a and each
    generator g in {x, y}: by induction on the length of b as a positive
    word in x and y this gives f(a b) = f(a) f(b) for all a and b, with
    2pd products instead of (pd)^2.
    """
    if f(source.identity) != target.identity:
        raise AssertionError(f"{name} does not fix the identity")
    gens = [(g, f(g)) for g in (source.x, source.y)]
    for a in source.elements():
        fa = f(a)
        for g, fg in gens:
            if f(source.mul(a, g)) != target.mul(fa, fg):
                raise AssertionError(f"{name} is not multiplicative at {a}, {g}")


def factorwise_product(group: GpdGroup, factors):
    """The product of a direct product of ``group`` ("gpd") and Z_d
    ("cyclic") factors, and its identity."""
    d = group.d

    def mul(a, b):
        return tuple(group.mul(x, y) if kind == "gpd" else (x + y) % d
                     for kind, x, y in zip(factors, a, b))

    return mul, tuple(group.identity if kind == "gpd" else 0 for kind in factors)


def image_order_by_enumeration(group: GpdGroup, factors, generators) -> int:
    """Order of the subgroup that ``generators`` generate, counted by
    breadth-first closure under the factorwise product."""
    mul, identity = factorwise_product(group, factors)
    return len(bfs_closure(identity, generators, mul, DEFAULT_ELEMENT_CAP))


def relations_hold_by_products(group: GpdGroup, pres: ApdPresentation, factors, x_images,
                               y_images) -> bool:
    """Whether the images satisfy the presentation's defining relations,
    each power formed by repeated factorwise products."""
    p, d = group.p, group.d
    mul, identity = factorwise_product(group, factors)

    def inv(a):
        return tuple(group.inv(x) if kind == "gpd" else (-x) % d for kind, x in zip(factors, a))

    def power(a, k):
        out = identity
        for _ in range(k):
            out = mul(out, a)
        return out

    return (
        all(power(x, p) == identity for x in x_images)
        and all(power(y, o) == identity for y, o in zip(y_images, pres.orders))
        and all(mul(a, b) == mul(b, a) for gens in (x_images, y_images) for a in gens for b in gens)
        and all(mul(mul(y, x), inv(y)) == power(x, pres.exponents[i][j])
                for i, x in enumerate(x_images) for j, y in enumerate(y_images))
    )


class Decomposition(NamedTuple):
    factors: tuple
    x_images: tuple
    y_images: tuple
    relations_hold: bool
    image_order: int


def decompose_by_enumeration(pres: ApdPresentation) -> Decomposition:
    """``apd.decompose``'s factors and generator images, with each discrete
    log found by a scan; whether they satisfy the defining relations
    (``relations_hold_by_products``); and the order of their image
    (``image_order_by_enumeration``)."""
    p, d, n, m = pres.p, pres.d, pres.n, pres.m
    group = GpdGroup(p, d)
    drop = m == 1 and any(mult_order(row[0], p) == pres.orders[0] for row in pres.exponents)
    factors = ("gpd",) * n + (() if drop else ("cyclic",) * m)
    cyclic_x = () if drop else (0,) * m
    x_images = tuple(
        tuple(group.x if a == i else group.identity for a in range(n)) + cyclic_x for i in range(n)
    )

    def log(e):
        return next(t for t in range(d) if pow(group.q, t, p) == e % p)

    y_images = tuple(
        tuple(GpdElement(0, log(pres.exponents[i][j])) for i in range(n))
        + (() if drop else tuple(d // pres.orders[j] if c == j else 0 for c in range(m)))
        for j in range(m)
    )
    relations_hold = relations_hold_by_products(group, pres, factors, x_images, y_images)
    image_order = image_order_by_enumeration(group, factors, x_images + y_images)
    return Decomposition(factors, x_images, y_images, relations_hold, image_order)


def simultaneous_diagonalize_by_restriction(ms, p: int):
    """``fplinalg.simultaneous_diagonalize`` for a commuting family of
    diagonalizable matrices, splitting each piece with basis columns B
    along the eigenspaces of the restriction R of m to it, R read off the
    row reduction of [B | m B], and mapping R's eigenvectors back through B."""
    n = len(ms[0])
    blocks = [[[int(i == j) for i in range(n)] for j in range(n)]]
    for m in ms:
        refined = []
        for basis in blocks:
            k = len(basis)
            images = [mat_vec(m, v, p) for v in basis]
            reduced, pivots = rref([list(row) for row in zip(*(basis + images))], p)
            if pivots != list(range(k)):
                raise AssertionError("a piece is not invariant")
            restricted = [reduced[r][k:] for r in range(k)]
            for lam in range(1, p):
                shifted = [[(restricted[i][j] - lam * (i == j)) % p for j in range(k)]
                           for i in range(k)]
                piece = [[sum(c * basis[t][row] for t, c in enumerate(coords)) % p
                          for row in range(n)]
                         for coords in kernel_basis(shifted, p)]
                if piece:
                    refined.append(piece)
        blocks = refined
    pmat = [list(row) for row in zip(*(v for block in blocks for v in block))]
    pinv = mat_inv(pmat, p)
    return pmat, [[row[i] for i, row in enumerate(mat_mul(mat_mul(pinv, m, p), pmat, p))]
                  for m in ms]


def all_subgroups(group: PermGroup) -> list[PermGroup]:
    """Every subgroup, by closing generator sets; meant for small orders."""
    trivial = PermGroup(group.degree, [], cap=group.cap)
    found = {trivial.element_set(): trivial}
    frontier = [trivial]
    elems = group.elements()
    while frontier:
        current = frontier.pop()
        inside = current.element_set()
        for e in elems:
            if e in inside:
                continue
            bigger = PermGroup(group.degree, list(current.generators) + [e], cap=group.cap)
            key = bigger.element_set()
            if key not in found:
                found[key] = bigger
                frontier.append(bigger)
    return sorted(found.values(), key=lambda g: (g.order, sorted(g.element_set())))


def normal_subgroups_containing(group: PermGroup, base: PermGroup) -> Iterator[PermGroup]:
    """Every normal subgroup of ``group`` containing its normal subgroup
    ``base``, yielded by increasing order.

    Each is a product of atoms, the normal closures of ``base`` and one
    element.  One element is taken per conjugacy class of G/base: the
    preimage of a class is the G-class of an element times ``base``.
    The products with a subgroup are formed when it is yielded; they are
    larger than it, so a heap keyed by order yields every subgroup in
    order and a caller that stops early leaves the rest of the lattice
    unbuilt.
    """
    below = base.elements()
    inverses = [inverse(g) for g in group.generators]
    classified = set(below)
    atoms: dict[frozenset, PermGroup] = {}
    for x in group.elements():
        if x in classified:
            continue
        conjugacy_class = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g, g_inv in zip(group.generators, inverses):
                c = compose(compose(g, y), g_inv)
                if c not in conjugacy_class:
                    conjugacy_class.add(c)
                    frontier.append(c)
        for c in conjugacy_class:
            if c not in classified:
                classified.update(compose(c, d) for d in below)
        atom = group.normal_closure([x, *base.generators])
        atoms.setdefault(atom.element_set(), atom)
    found = {base.element_set()}
    tiebreak = itertools.count()
    heap = [(base.order, next(tiebreak), base)]
    while heap:
        _, _, current = heapq.heappop(heap)
        yield current
        inside = current.element_set()
        for key, atom in atoms.items():
            if key <= inside:
                continue
            product = PermGroup(group.degree, list(current.generators) + list(atom.generators),
                                cap=group.cap)
            if product.element_set() not in found:
                found.add(product.element_set())
                heapq.heappush(heap, (product.order, next(tiebreak), product))


def is_in_u_by_enumeration(group: PermGroup) -> UMembershipReport:
    """``uvar.is_in_u`` with every condition read off G's elements: the
    chief-series search of ``PermGroup.is_supersolvable``, G' and its
    structure, and a normalizer tower for each prime of |G|."""
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


def u_residual_by_lattice(group: PermGroup) -> PermGroup:
    """The U-residual as the first normal subgroup N, by increasing
    order, with G/N in U: the normal subgroups with a quotient in U are
    closed under intersection, so that one lies in all the others."""
    if is_in_u(group).verdict:
        return PermGroup(group.degree, [], cap=group.cap)
    return next(
        normal
        for normal in normal_subgroups_containing(group, PermGroup(group.degree, []))
        if not normal.is_trivial() and is_in_u(group.quotient(normal)).verdict
    )


class ImageByProducts:
    """H's image in the free object by generator products, the reference
    for ``apd._ImageSubgroup``'s index and dim K and for ``apd.closure``'s
    automata: each Schreier generator formed by three products and an
    inverse, r * g * reps[(r * g)_s]^-1, K the span of these rows (one
    wide row reduction), and each coset keyed by a full product with its
    T-transversal element."""

    def __init__(self, aut: Automaton, p: int, d: int):
        self.fobj = fobj = FreeObject(aut.rank, p, d)
        n = fobj.n
        gens = [fobj.evaluate(w) for w in aut.basis()]
        reps = {(0,) * n: fobj.identity}
        queue = [fobj.identity]
        while queue:
            r = queue.pop()
            for g in gens:
                e = fobj.mul(r, g)
                if e[0] not in reps:
                    reps[e[0]] = e
                    queue.append(e)
        self.reps = reps
        rows = []
        for r in reps.values():
            for g in gens:
                e = fobj.mul(r, g)
                k = fobj.mul(e, fobj.inv(reps[e[0]]))
                if any(k[0]):
                    raise AssertionError(f"Schreier generator {k} has a nonzero t-part")
                rows.append(list(k[1]))
        reduced, pivots = rref(rows, p)
        self.pivot_rows = [
            (pivot, [(j, x) for j, x in enumerate(row) if x and j != pivot])
            for pivot, row in zip(pivots, reduced)
        ]
        self.index = (d**n // len(reps)) * p ** ((n - 1) * d**n + 1 - len(pivots))

    def reduce_unit(self, u):
        p = self.fobj.p
        u = list(u)
        for pivot, entries in self.pivot_rows:
            c = u[pivot]
            if c:
                u[pivot] = 0
                for j, x in entries:
                    u[j] = (u[j] - c * x) % p
        return tuple(u)

    def coset_key(self, element):
        """The least point of the T-coset and the unit part, reduced mod K,
        of the element of I * element over that point."""
        d = self.fobj.d
        s = element[0]
        best = min(tuple((a + b) % d for a, b in zip(s, t)) for t in self.reps)
        delta = tuple((a - b) % d for a, b in zip(best, s))
        shifted = self.fobj.mul(self.reps[delta], element)
        if shifted[0] != best:
            raise AssertionError(f"coset representative moved t-part to {shifted[0]}, not {best}")
        return best, self.reduce_unit(shifted[1])

    def closure(self) -> Automaton:
        """The closure's automaton: a walk over coset keys, one free-object
        product per edge, folded by ``Automaton.from_raw``."""
        obj = self.fobj
        queue = [self.coset_key(obj.identity)]
        verts = {queue[0]: 0}
        edges = []
        while queue:
            key = queue.pop()
            for g, gen in enumerate(obj.generators, start=1):
                key2 = self.coset_key(obj.mul(key, gen))
                if key2 not in verts:
                    verts[key2] = len(verts)
                    queue.append(key2)
                edges.append((verts[key], g, verts[key2]))
        if len(verts) != self.index:
            raise AssertionError(f"enumerated {len(verts)} cosets, the image has index {self.index}")
        return Automaton.from_raw(obj.n, len(verts), 0, edges)


def vertex_words(aut: Automaton):
    """The breadth-first tree in the signed-label order a < a^-1 < b < ...,
    with each vertex's word built as a product along the tree, and the
    set of tree edges (u, g, v)."""
    reps: list[Word | None] = [None] * aut.n_vertices
    reps[aut.base] = identity(aut.rank)
    tree: set[tuple[int, int, int]] = set()
    queue = deque([aut.base])
    signed = [s for g in range(1, aut.rank + 1) for s in (g, -g)]
    while queue:
        u = queue.popleft()
        for letter in signed:
            t = aut.step(u, letter)
            if t is not None and reps[t] is None:
                reps[t] = reps[u] * word((letter,), aut.rank)
                tree.add((u, abs(letter), t) if letter > 0 else (t, abs(letter), u))
                queue.append(t)
    return reps, tree


def index_and_basis_by_vertex_words(aut: Automaton):
    """(index or None, basis): reps[u] * g * reps[v]^-1 for each edge
    (u, g, v) off the tree of ``vertex_words``, by label and then source."""
    reps, tree = vertex_words(aut)
    basis = []
    for g in range(1, aut.rank + 1):
        for u, v in enumerate(aut.out[g]):
            if v >= 0 and (u, g, v) not in tree:
                basis.append(reps[u] * word((g,), aut.rank) * reps[v].inverse())
    return aut.index(), basis


def fold_by_union_find(rank: int, nverts: int, base: int, edges) -> Automaton:
    """The Stallings fold as it was written first: union-find over the
    vertices, one neighbour dict per root keyed by signed labels (+g for
    an edge out, -g for one in), targets resolved through ``find`` only
    after folding; then the reach from the basepoint, the core trim, and
    the breadth-first numbering in the order a < a^-1 < b < b^-1 < ...."""
    parent = list(range(nverts))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    nbr: list[dict[int, int]] = [dict() for _ in range(nverts)]
    pending: deque[tuple[int, int]] = deque()

    def attach(u: int, key: int, v: int) -> None:
        cur = nbr[u].get(key)
        if cur is None:
            nbr[u][key] = v
        else:
            pending.append((cur, v))

    for src, label, dst in edges:
        u, v = find(src), find(dst)
        attach(u, label, v)
        attach(v, -label, u)
        while pending:
            a, b = pending.popleft()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if len(nbr[ra]) < len(nbr[rb]):
                ra, rb = rb, ra
            parent[rb] = ra
            absorbed, nbr[rb] = nbr[rb], {}
            for key, t in absorbed.items():
                cur = nbr[ra].get(key)
                if cur is None:
                    nbr[ra][key] = t
                else:
                    pending.append((cur, t))

    root_base = find(base)
    reach = {root_base}
    queue = deque([root_base])
    while queue:
        u = queue.popleft()
        for key in list(nbr[u]):
            t = find(nbr[u][key])
            nbr[u][key] = t
            if t not in reach:
                reach.add(t)
                queue.append(t)

    dead = set()
    trim = deque(v for v in reach if v != root_base and len(nbr[v]) <= 1)
    while trim:
        v = trim.popleft()
        if v in dead or len(nbr[v]) > 1 or v == root_base:
            continue
        dead.add(v)
        for key, t in nbr[v].items():
            if t == v:
                continue
            del nbr[t][-key]
            if t != root_base and len(nbr[t]) <= 1:
                trim.append(t)
        nbr[v] = {}

    order = {root_base: 0}
    queue = deque([root_base])
    signed = [s for g in range(1, rank + 1) for s in (g, -g)]
    while queue:
        u = queue.popleft()
        for key in signed:
            t = nbr[u].get(key)
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
    if len(order) != len(reach - dead):
        raise AssertionError("automaton became disconnected")
    out = [None] + [[-1] * len(order) for _ in range(2 * rank)]
    for old, new in order.items():
        for key, t in nbr[old].items():
            out[key][new] = order[t]
    return Automaton(rank, out)


def generators_by_union_find(generators, rank: int) -> Automaton:
    """The Stallings automaton of the words: one loop of new vertices at
    the basepoint per word, one vertex per letter, folded by
    ``fold_by_union_find``."""
    edges = []
    nverts = 1
    for w in generators:
        prev = 0
        for i, letter in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else nverts
            if i < len(w.letters) - 1:
                nverts += 1
            edges.append((prev, letter, nxt) if letter > 0 else (nxt, -letter, prev))
            prev = nxt
    return fold_by_union_find(rank, nverts, 0, edges)


@dataclass(frozen=True)
class KernelSpec:
    """A verbal kernel: either exponent-m abelianization (kind "K") or
    the kernel of the map onto the free object of Ab(p)*Ab(d) (kind "L")."""

    kind: str
    n: int
    m: int = 0
    p: int = 0
    d: int = 0

    @classmethod
    def abelian(cls, n: int, m: int) -> "KernelSpec":
        if m < 1:
            raise ValueError("m must be at least 1")
        return cls(kind="K", n=n, m=m)

    @classmethod
    def relatively_free(cls, n: int, p: int, d: int) -> "KernelSpec":
        require_prime(p, "p")
        if d < 1 or (p - 1) % d:
            raise ValueError(f"d = {d} must be a positive divisor of p - 1 = {p - 1}")
        return cls(kind="L", n=n, p=p, d=d)


def kernel_membership(w: Word, spec: KernelSpec) -> bool:
    if w.rank != spec.n:
        raise ValueError("word rank does not match the kernel spec")
    if spec.kind == "K":
        return all(e % spec.m == 0 for e in w.abelianization())
    if spec.kind == "L":
        obj = FreeObject(spec.n, spec.p, spec.d)
        return obj.evaluate(w) == obj.identity
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def sums(f: Flow) -> tuple[dict[int, int], dict[int, int]]:
    """The row sums of a flow's a-edges and the column sums of its b-edges."""
    return f.h_sums(), f.v_sums()


# the whole text: letters, each with an optional power
_WORD = re.compile(r"(?:[a-zA-Z](?:\s*\^\s*-?\d+)?)*")
_POWERED = re.compile(r"([a-zA-Z])\s*\^\s*(-?\d+)")
_LETTER = {c: i + 1 for i, c in enumerate(string.ascii_lowercase)}
_LETTER.update({c.upper(): -i for c, i in _LETTER.items()})
# _ALLOWED[rank]: the letters of a rank-``rank`` word text, rank < 26
_ALLOWED = [frozenset(c for c, i in _LETTER.items() if abs(i) <= rank) for rank in range(26)]


def parse_by_regex(text: str, rank: int) -> Word:
    """``words.parse`` by regular expressions alone: every text is split
    into bare runs and (letter, power) pairs, each checked by a set of
    allowed letters and against the cap, then looked up letter by letter
    and freely reduced by the stack."""
    stripped = text.replace("·", "").replace(" ", "")
    if stripped in ("", "1"):
        return identity(rank)
    end = _WORD.match(stripped).end()
    parts = _POWERED.split(stripped[:end]) if "^" in stripped else [stripped[:end]]
    letters: list[int] = []
    for i in range(0, len(parts), 3):
        run = parts[i]
        _check_letters(run, rank)
        _check_count(len(letters) + len(run))
        letters.extend(map(_LETTER.__getitem__, run))
        if i + 1 < len(parts):
            char = parts[i + 1]
            _check_letters(char, rank)
            power = int(parts[i + 2])
            _check_count(len(letters) + abs(power))
            letters.extend([_LETTER[char] if power > 0 else -_LETTER[char]] * abs(power))
    if end < len(stripped):
        raise ValueError(f"cannot parse word at ...{stripped[end:]!r}")
    return Word(reduce_letters(letters), rank)


def _check_letters(run: str, rank: int) -> None:
    if rank >= 26:
        return
    allowed = _ALLOWED[max(rank, 0)]
    if not allowed.issuperset(run):
        char = next(c for c in run if c not in allowed)
        raise ValueError(f"letter {char!r} exceeds rank {rank}")


def _check_count(count: int) -> None:
    if count > DEFAULT_ELEMENT_CAP:
        raise CapExceededError(f"word text expands to more than {DEFAULT_ELEMENT_CAP} letters")
