"""Stallings automata of finitely generated subgroups of free groups.

An automaton is a folded, basepointed, core edge-labelled graph; it is
the canonical representative of a finitely generated subgroup of F_n.
Vertices are renumbered by breadth-first search from the basepoint with
edge labels visited in the order a < a^-1 < b < b^-1 < ..., so two
automata represent the same subgroup iff their edge lists are equal.

Every graph here, finished or being folded, is one edge table: a list
of length V per signed letter, with -1 where a vertex has no edge of
that label.  Folding (``_Folder``) grows the lists by one entry per new
vertex, queues merges, and makes a merge by moving the absorbed vertex's
edges onto the vertex it joins, so no list ever points at a merged
vertex.  Every constructor ends in ``_renumber``.
"""

from __future__ import annotations

from .errors import CapExceededError, NotFiniteIndexError
from .permgroup import DEFAULT_ELEMENT_CAP, PermGroup
from .words import Word


def _letters(rank: int) -> list:
    """The signed letters in the canonical order a < a^-1 < b < b^-1 < ...."""
    return [s for g in range(1, rank + 1) for s in (g, -g)]


def _blank(rank: int, nverts: int) -> list:
    """An edge table of nverts vertices and no edges."""
    return [None] + [[-1] * nverts for _ in range(2 * rank)]


class _Folder:
    """An edge table being folded.

    ``out[s][v]`` is the target of the edge labelled s from v, for each
    signed letter s (a negative index reads the inverse letter's list),
    -1 when there is none.  The lists always pair up: out[s][v] == t
    exactly when out[-s][t] == v.  An identification that a new edge
    forces waits on ``pending`` instead of making the edge; ``fold``
    makes them all.  ``into[v]`` is v while v is live, and the vertex it
    was merged into once it is not; only pending pairs can name a merged
    vertex, as a merge clears every entry at it and every entry naming it.
    ``merged`` counts the merges, so len(into) - merged vertices are live.
    """

    __slots__ = ("labels", "out", "into", "pending", "merged")

    def __init__(self, out: list):
        self.labels = _letters(len(out) // 2)
        self.out = out
        self.into = list(range(len(out[1])))
        self.pending = []
        self.merged = 0

    def add(self, u: int, s: int, v: int) -> None:
        """The edge u -s-> v.  Where u already has an s-edge, to t, the new
        edge would be folded onto it, so only (t, v) is queued; likewise
        where v already has an s^-1-edge."""
        out = self.out
        t = out[s][u]
        if t < 0:
            t = out[-s][v]
            if t < 0:
                out[s][u] = v
                out[-s][v] = u
                return
            v = u
        if t != v:
            self.pending.append((t, v))

    def find(self, v: int) -> int:
        into = self.into
        while into[v] != v:
            into[v] = v = into[into[v]]
        return v

    def fold(self) -> None:
        """Make every pending identification and each one it forces.  Of
        two vertices the larger number is merged into the smaller, so the
        vertex 0 stays live; each of its edges is taken off both ends and
        added again at the smaller one, a loop as a loop."""
        out, into, pending = self.out, self.into, self.pending
        while pending:
            a, b = pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            into[b] = a
            self.merged += 1
            for s in self.labels:
                t = out[s][b]
                if t < 0:
                    continue
                out[s][b] = out[-s][t] = -1
                self.add(a, s, a if t == b else t)

    def read(self, letters) -> None:
        """Fold in a closed path at vertex 0 labelled by a freely reduced
        word.  The word is read from vertex 0 along existing edges as far
        as they go, to v, and its end backwards from vertex 0, to u; only
        the letters between get a path of new vertices, from v to u.
        Neither v nor u has an edge of the label the path joins it by,
        so nothing is merged unless the word is read to its end (v and u
        are then identified) or the new path's two ends take the same
        slot (a word not cyclically reduced, with v == u)."""
        out = self.out
        i, j = 0, len(letters)
        v = u = 0
        while i < j:
            t = out[letters[i]][v]
            if t < 0:
                break
            v, i = t, i + 1
        while j > i:
            t = out[-letters[j - 1]][u]
            if t < 0:
                break
            u, j = t, j - 1
        if i == j:
            self.pending.append((v, u))
        else:
            if j - i > 1:
                first = len(self.into)
                count = j - i - 1
                self.into.extend(range(first, first + count))
                fill = [-1] * count
                for s in self.labels:
                    out[s].extend(fill)
                for x, s in enumerate(letters[i:j - 1], start=first):
                    out[s][v] = x
                    out[-s][x] = v
                    v = x
            self.add(v, letters[j - 1], u)
        self.fold()


def _trim(out: list, base: int) -> None:
    """Remove, again and again, the one edge of each vertex other than
    ``base`` that has just one: what is left of base's component is
    its core."""
    labels = _letters(len(out) // 2)
    degree = [0] * len(out[1])
    for s in labels:
        for v, t in enumerate(out[s]):
            if t >= 0:
                degree[v] += 1
    leaves = [v for v, d in enumerate(degree) if d == 1 and v != base]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:  # its one neighbour was a leaf, taken first
            continue
        for s in labels:
            t = out[s][v]
            if t >= 0:
                break
        out[s][v] = out[-s][t] = -1
        degree[v] = 0
        degree[t] -= 1
        if degree[t] == 1 and t != base:
            leaves.append(t)


def _fold(out: list, base: int, pairs) -> "Automaton":
    """Identify each pair of vertices of an edge table, fold, and renumber
    base's component.  The pairs are read lazily and folded whenever more
    wait than the table has vertices, so memory stays linear in them, and
    no more are read once one vertex is left."""
    folder = _Folder(out)
    for pair in pairs:
        folder.pending.append(pair)
        if len(folder.pending) > len(folder.into):
            folder.fold()
            if folder.merged == len(folder.into) - 1:
                break
    folder.fold()
    return _renumber(folder.out, folder.find(base))


def _renumber(out: list, base: int) -> "Automaton":
    """The automaton of base's component of an edge table, numbered by a
    breadth-first search from base in the order of ``_letters``."""
    labels = _letters(len(out) // 2)
    maps = [out[s] for s in labels]
    new = [-1] * (len(maps[0]) + 1)  # new[-1] == -1: a missing edge stays missing
    new[base] = 0
    queue = [base]
    for u in queue:  # the queue grows while it is read
        for m in maps:
            t = m[u]
            if t >= 0 and new[t] < 0:
                new[t] = len(queue)
                queue.append(t)
    table = [None] * len(out)
    for s, m in zip(labels, maps):
        table[s] = [new[m[v]] for v in queue]
    return Automaton(len(out) // 2, table)


def _check_rank(rank: int) -> None:
    """A rank over the default cap is refused before anything is built,
    since an automaton holds two lists per generator."""
    if rank < 1:
        raise ValueError("rank must be at least 1")
    if rank > DEFAULT_ELEMENT_CAP:
        raise CapExceededError(f"rank {rank} exceeds the cap {DEFAULT_ELEMENT_CAP}")


class Automaton:
    """Folded core automaton over the free group of rank ``rank``.

    ``out`` is the edge table of ``_Folder``, numbered by ``_renumber``:
    ``out[s][v]`` is the target of the edge labelled s from v for each
    signed letter s = +-g, g = 1 .. rank (a negative index reads a_g^-1's
    list), -1 when there is none.  Every list has length ``n_vertices``.
    Immutable after construction; compare and hash by canonical form.
    """

    __slots__ = ("rank", "n_vertices", "base", "out", "_key", "_spanning")

    def __init__(self, rank, out):
        self.rank = rank
        self.n_vertices = len(out[1])
        self.base = 0
        self.out = out
        self._key = None
        self._spanning = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_raw(cls, rank: int, nverts: int, base: int, edges) -> "Automaton":
        """Fold, trim to the core, and canonically renumber arbitrary edge
        data: vertices 0 .. nverts - 1, edges (src, label, dst) with labels
        1 .. rank.  Loops, repeated edges and parts that the basepoint does
        not reach are allowed.

        A rank over the default cap is refused before anything is built,
        since the result holds two lists per generator; a vertex
        number or a label out of range raises ValueError naming it."""
        _check_rank(rank)
        if not 0 <= base < nverts:
            raise ValueError(f"base {base} is out of range for {nverts} vertices")
        folder = _Folder(_blank(rank, nverts))
        for src, label, dst in edges:
            for v in (src, dst):
                if not 0 <= v < nverts:
                    raise ValueError(f"vertex {v} is out of range for {nverts} vertices")
            if not 1 <= label <= rank:
                raise ValueError(f"edge label {label} is out of range for rank {rank}")
            folder.add(src, label, dst)
        folder.fold()
        base = folder.find(base)
        _trim(folder.out, base)
        return _renumber(folder.out, base)

    @classmethod
    def from_generators(cls, generators, rank: int) -> "Automaton":
        """Stallings automaton of the subgroup generated by the given words.

        Each word is read into one ``_Folder`` from the basepoint, sharing
        the edges already built at both of its ends, and folded at once.
        Every vertex other than the basepoint is then passed through by a
        freely reduced word, entering and leaving by different edges, so
        the result is its own core and is only renumbered."""
        _check_rank(rank)
        folder = _Folder(_blank(rank, 1))
        for w in generators:
            if w.rank != rank:
                raise ValueError("generator rank mismatch")
            folder.read(w.letters)
        return _renumber(folder.out, 0)

    @classmethod
    def full_group(cls, rank: int) -> "Automaton":
        """The bouquet: automaton of the whole free group."""
        return cls.from_raw(rank, 1, 0, [(0, g, 0) for g in range(1, rank + 1)])

    @classmethod
    def trivial(cls, rank: int) -> "Automaton":
        return cls.from_raw(rank, 1, 0, [])

    @classmethod
    def from_action(cls, rank: int, perms) -> "Automaton":
        """Complete automaton from one transition permutation per generator.

        The result is the Schreier graph of the group generated by the
        permutations, restricted to the orbit of point 0; it represents
        the full preimage of the stabilizer of that point.  Every vertex
        has exactly one edge in and one edge out per label, so folding
        would merge nothing and the core trim would remove nothing: the
        permutations and their inverses are the edge table, and
        ``_renumber`` numbers the orbit.

        Each permutation is checked first, in one pass that builds its
        inverse: ValueError for a length other than the first one's, a
        target out of range, or a target met twice.  The cost is linear
        in rank * degree.
        """
        _check_rank(rank)
        if len(perms) != rank:
            raise ValueError("need one permutation per generator")
        degree = len(perms[0])
        if not degree:
            raise ValueError("transitions need at least the point 0")
        out = [None] * (2 * rank + 1)
        for g, p in enumerate(perms, start=1):
            if len(p) != degree:
                raise ValueError("transitions must all have the same length")
            inv = [-1] * degree
            for x, t in enumerate(p):
                if not 0 <= t < degree or inv[t] >= 0:
                    raise ValueError(f"transition target {t} is met twice" if 0 <= t < degree
                                     else f"transition target {t} is out of range for {degree} vertices")
                inv[t] = x
            out[g], out[-g] = p, inv
        return _renumber(out, 0)

    # -- queries ------------------------------------------------------

    @property
    def key(self):
        """The rank, the vertex count and every edge (v, g, t), sorted;
        built on first use.  It is a function of the rank, the vertex
        count and ``out``, and ``out`` determines all three, so equality
        compares it directly."""
        if self._key is None:
            self._key = (
                self.rank,
                self.n_vertices,
                tuple(
                    (v, g, t)
                    for g in range(1, self.rank + 1)
                    for v, t in enumerate(self.out[g])
                    if t >= 0
                ),
            )
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, Automaton) and self.out == other.out

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Automaton(rank={self.rank}, vertices={self.n_vertices})"

    def step(self, v: int, letter: int):
        """Follow one signed letter; None when the edge is missing."""
        t = self.out[letter][v]
        return None if t < 0 else t

    def membership(self, w: Word) -> bool:
        """True iff the word labels a closed path at the basepoint."""
        if w.rank != self.rank:
            raise ValueError("rank mismatch")
        out = self.out
        v = self.base
        for letter in w.letters:
            v = out[letter][v]
            if v < 0:
                return False
        return v == self.base

    __contains__ = membership

    def is_complete(self) -> bool:
        return all(-1 not in self.out[g] for g in range(1, self.rank + 1))

    def index(self):
        """Index in the free group: vertex count when complete, else None."""
        return self.n_vertices if self.is_complete() else None

    def _tree(self):
        """The breadth-first spanning tree from the basepoint, in the
        order of ``_letters`` (a < a^-1 < b < ...), as ``_renumber`` reads it:
        per vertex its parent and the signed letter from it (-1 and 0 at
        the basepoint) and its depth; every parent comes before its
        children.  Built on first use and kept, like ``key``; callers
        only read it."""
        if self._spanning is None:
            self._spanning = self._build_tree()
        return self._spanning

    def _build_tree(self):
        """``_renumber`` numbers the vertices in the order this search
        reaches them, so it walks u = 0 .. V - 1, and an edge reaches a new
        vertex exactly when its target is the next number; AssertionError
        when a target skips it or the search stops short of V vertices."""
        n = self.n_vertices
        parent, letter, depth = [-1] * n, [0] * n, [0] * n
        maps = [(s, self.out[s]) for s in _letters(self.rank)]
        reached = 1
        for u in range(n):
            if u == reached:
                raise AssertionError(f"the search from the basepoint reached {u} of {n} vertices")
            below = depth[u] + 1
            for s, m in maps:
                t = m[u]
                if t >= reached:
                    if t > reached:
                        raise AssertionError(f"vertex {t} is not numbered in breadth-first order")
                    parent[t], letter[t], depth[t] = u, s, below
                    reached += 1
        return parent, letter, depth

    def _cotree(self, parent, letter):
        """The edges (u, g, v) off the tree, by label and then by source;
        a tree edge is the one along which the search first reached one
        of its ends."""
        for g in range(1, self.rank + 1):
            for u, v in enumerate(self.out[g]):
                if v >= 0 and not ((parent[v] == u and letter[v] == g) or (parent[u] == v and letter[u] == -g)):
                    yield u, g, v

    def _climb(self, parent, letter, v):
        """The letters of the tree path from the basepoint to v, last first."""
        up = []
        while v != self.base:
            up.append(letter[v])
            v = parent[v]
        return up

    def index_and_basis(self):
        """(index or None, free basis of the subgroup): one word per edge
        (u, g, v) off the breadth-first tree, path(u) g path(v)^-1, in
        the order of ``_cotree``.

        Each word is spelled once, by climbing the parent pointers from u
        and from v, so the cost is the tree search plus the basis's total
        length, and no word is kept per vertex.  No letters cancel at the
        joins, as the automaton is folded: path(u) does not end in g^-1,
        since then v would be u's parent and the edge a tree edge, nor
        path(v) in g, for the same reason.  So each word is built by
        ``Word.trusted``, with no letter checked again."""
        parent, letter, _ = self._tree()
        basis = []
        for u, g, v in self._cotree(parent, letter):
            letters = self._climb(parent, letter, u)[::-1]
            letters.append(g)
            letters += [-s for s in self._climb(parent, letter, v)]
            basis.append(Word.trusted(tuple(letters), self.rank))
        return self.index(), basis

    def basis(self):
        return self.index_and_basis()[1]

    def basis_sums(self):
        """(exponent-sum vector, length) of each word of ``basis()``, in
        its order, without spelling any word: the word of an edge (u, g, v)
        has exponent sums phi(u) + e_g - phi(v) and length
        depth(u) + 1 + depth(v), phi(v) being the exponent sums of the
        tree path to v.  O(V * rank) for phi and O(rank) per word."""
        parent, letter, depth = self._tree()
        phi = [None] * self.n_vertices
        phi[self.base] = (0,) * self.rank
        for v in range(1, self.n_vertices):
            s = letter[v]
            sums = list(phi[parent[v]])
            sums[abs(s) - 1] += 1 if s > 0 else -1
            phi[v] = tuple(sums)
        out = []
        for u, g, v in self._cotree(parent, letter):
            sums = [a - b for a, b in zip(phi[u], phi[v])]
            sums[g - 1] += 1
            out.append((tuple(sums), depth[u] + 1 + depth[v]))
        return out

    def coset_representatives(self):
        """One word per vertex, mapping the basepoint to that coset: its
        tree path, spelled from the parent pointers of ``_tree``."""
        parent, letter, _ = self._tree()
        return [Word(tuple(reversed(self._climb(parent, letter, v))), self.rank)
                for v in range(self.n_vertices)]

    # -- subgroup operations -------------------------------------------

    def join(self, other: "Automaton") -> "Automaton":
        """Automaton of the subgroup generated by both subgroups together:
        both tables side by side, other's vertices after self's, folded
        (``_fold``) from the identification of the basepoints.
        Nothing needs trimming: each vertex of either automaton lies on a
        closed path at its basepoint with a freely reduced label, and the
        fold maps it onto a path with the same label, which in a folded
        graph cannot turn back."""
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        n = self.n_vertices
        return _fold([None] + [mine + [t + n if t >= 0 else -1 for t in theirs]
                               for mine, theirs in zip(self.out[1:], other.out[1:])],
                     self.base, [(self.base, n + other.base)])

    def identify(self, pairs) -> "Automaton":
        """Automaton of the subgroup generated by this one and path(u)
        path(v)^-1 for each pair (u, v) of vertices, folded (``_fold``) on a
        copy of the table; nothing needs trimming, as for ``join``.  Of a
        complete automaton, the vertices are the classes of the finest
        partition joining each pair that every generator maps onto itself."""
        return _fold([None] + [list(m) for m in self.out[1:]], self.base, pairs)

    def intersect(self, other: "Automaton") -> "Automaton":
        """Core of the product automaton: represents the intersection.

        The pairs of vertices reached from the pair of basepoints are
        numbered as the walk meets them, and each pair's entries of the
        table are written when the walk reads it.  A product of folded
        automata is folded, so the table is only trimmed and renumbered."""
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        out = _blank(self.rank, 0)
        start = (self.base, other.base)
        pairs, seen = [start], {start: 0}
        columns = [(out[s].append, self.out[s], other.out[s]) for s in _letters(self.rank)]
        for u1, u2 in pairs:  # the list grows while it is read
            for write, m1, m2 in columns:
                v1, v2 = m1[u1], m2[u2]
                if v1 < 0 or v2 < 0:
                    write(-1)
                    continue
                v = seen.setdefault((v1, v2), len(pairs))
                if v == len(pairs):
                    pairs.append((v1, v2))
                write(v)
        _trim(out, 0)
        return _renumber(out, 0)

    def coset_group(self, cap: int = DEFAULT_ELEMENT_CAP) -> PermGroup:
        """The group generated by the transition permutations of a complete
        automaton: the free group acting on the cosets of the subgroup."""
        if not self.is_complete():
            raise NotFiniteIndexError("coset action requires a finite-index subgroup")
        return PermGroup(self.n_vertices, self.out[1:self.rank + 1], cap=cap)

    def intermediate_subgroups(self):
        """All subgroups between this one and the full free group.

        Computed as the join-closure of the subgroups generated by this
        one plus a single coset representative.
        """
        if not self.is_complete():
            raise NotFiniteIndexError("intermediate subgroups require finite index")
        reps = self.coset_representatives()
        atoms = []
        seen_atoms = set()
        for v in range(self.n_vertices):
            if v == self.base:
                continue
            atom = self.join(Automaton.from_generators([reps[v]], self.rank))
            if atom.key not in seen_atoms:
                seen_atoms.add(atom.key)
                atoms.append(atom)
        found = {self.key: self}
        frontier = [self]
        while frontier:
            current = frontier.pop()
            for atom in atoms:
                joined = current.join(atom)
                if joined.key not in found:
                    found[joined.key] = joined
                    frontier.append(joined)
        return sorted(found.values(), key=lambda a: (-a.n_vertices, a.key))

    # -- serialization -------------------------------------------------

    def _label(self, g: int) -> str:
        return chr(ord("a") + g - 1) if self.rank <= 26 else str(g)

    def to_json_dict(self) -> dict:
        edges = [
            [v, self._label(g), t]
            for g in range(1, self.rank + 1)
            for v, t in enumerate(self.out[g])
            if t >= 0
        ]
        return {
            "rank": self.rank,
            "vertices": self.n_vertices,
            "base": self.base,
            "edges": edges,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Automaton":
        """Inverse of ``to_json_dict``, through ``from_raw``, which checks
        every vertex number and label.  A vertex count over the default
        cap is refused before anything is built for it."""
        rank = int(data["rank"])
        nverts = int(data["vertices"])
        if nverts > DEFAULT_ELEMENT_CAP:
            raise CapExceededError(f"{nverts} vertices exceed the cap {DEFAULT_ELEMENT_CAP}")
        edges = []
        for src, label, dst in data["edges"]:
            if isinstance(label, str) and label.isalpha():
                g = ord(label.lower()) - ord("a") + 1
            else:
                g = int(label)
            if not 1 <= g <= rank:
                raise ValueError(f"edge label {label!r} out of range")
            edges.append((int(src), g, int(dst)))
        return cls.from_raw(rank, nverts, int(data["base"]), edges)

    def to_dot(self) -> str:
        lines = ["digraph stallings {", "  rankdir=LR;"]
        lines.append(f'  {self.base} [shape=doublecircle];')
        for v in range(self.n_vertices):
            if v != self.base:
                lines.append(f"  {v} [shape=circle];")
        for g in range(1, self.rank + 1):
            for v, t in enumerate(self.out[g]):
                if t >= 0:
                    lines.append(f'  {v} -> {t} [label="{self._label(g)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
