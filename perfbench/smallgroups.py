"""Small exact group and number-theory helpers owned by the benchmark.

The input generator and the output oracles use these instead of
provar, so that a defect in provar cannot make a wrong answer look
right.  Everything works by brute force on groups of at most a few
thousand elements.

Permutations are tuples of 0-based images; ``mul(f, g)`` applies f
first and then g, so a word's image is the product of its letters'
images from left to right.
"""

from __future__ import annotations

import math

Perm = tuple[int, ...]

LETTERS = {1: "a", -1: "A", 2: "b", -2: "B", 3: "c", -3: "C"}
SIGNED = {v: k for k, v in LETTERS.items()}


# -- words -----------------------------------------------------------------


def reduce_word(letters) -> list[int]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def inverse_word(letters) -> list[int]:
    return [-x for x in reversed(letters)]


def to_text(letters) -> str:
    return "".join(LETTERS[x] for x in letters) or "1"


def from_text(text: str) -> list[int]:
    return [] if text == "1" else [SIGNED[c] for c in text]


# -- permutations ------------------------------------------------------------


def mul(f: Perm, g: Perm) -> Perm:
    return tuple(g[x] for x in f)


def inv(f: Perm) -> Perm:
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def image(letters, gens) -> Perm:
    """Image of a word under letter i -> gens[i-1]."""
    out = identity(len(gens[0]))
    inverses = [inv(g) for g in gens]
    for x in letters:
        out = mul(out, gens[x - 1] if x > 0 else inverses[-x - 1])
    return out


def generate(gens) -> list[Perm]:
    """All elements of the group the permutations generate, identity first."""
    start = identity(len(gens[0]))
    seen = {start}
    out = [start]
    for e in out:
        for g in gens:
            h = mul(e, g)
            if h not in seen:
                seen.add(h)
                out.append(h)
    return out


def schreier_graph(gens, start, act):
    """Orbit of ``start`` under the generators, numbered by BFS.

    ``act(point, g)`` is the action.  Returns (points, targets, words):
    targets[i][v] is the index of the image of points[v] under gens[i],
    and words[v] is the BFS tree word (positive letters) reaching v.
    """
    points = [start]
    index = {start: 0}
    words: list[list[int]] = [[]]
    targets: list[dict[int, int]] = [dict() for _ in gens]
    for v, point in enumerate(points):
        for i, g in enumerate(gens):
            q = act(point, g)
            if q not in index:
                index[q] = len(points)
                points.append(q)
                words.append(words[v] + [i + 1])
            targets[i][v] = index[q]
    return points, targets, words


def act_point(v: int, g: Perm) -> int:
    return g[v]


def act_pair(pair, g: Perm):
    return (g[pair[0]], g[pair[1]])


def schreier_basis(targets, words) -> list[list[int]]:
    """Free basis of the stabilizer of point 0 in a transitive action:
    one word per non-tree edge (Schreier generators)."""
    tree = set()
    for v, w in enumerate(words):
        if w:
            parent = _walk(targets, w[:-1])
            tree.add((parent, w[-1]))
    basis = []
    for i, t in enumerate(targets, start=1):
        for v in sorted(t):
            if (v, i) in tree:
                continue
            letters = reduce_word(words[v] + [i] + inverse_word(words[t[v]]))
            basis.append(letters)
    return basis


def _walk(targets, letters) -> int:
    v = 0
    for x in letters:
        v = targets[x - 1][v]
    return v


def regular_action(gens):
    """Right-regular action of the generated group: (degree, perms)."""
    elements = generate(gens)
    index = {e: i for i, e in enumerate(elements)}
    perms = [tuple(index[mul(e, g)] for e in elements) for g in gens]
    return len(elements), perms


def reads_loop(edges, letters, base: int = 0) -> bool:
    """True iff the word labels a closed path at the base of an
    automaton given as {(vertex, signed letter): vertex}."""
    v = base
    for x in letters:
        v = edges.get((v, x))
        if v is None:
            return False
    return v == base


def edge_map(json_edges, rank: int):
    """Signed transition map of an automaton from its JSON edge list;
    None when two edges leave or enter a vertex with the same label."""
    out: dict[tuple[int, int], int] = {}
    for src, label, dst in json_edges:
        g = ord(label) - ord("a") + 1
        if not 1 <= g <= rank or (src, g) in out or (dst, -g) in out:
            return None
        out[(src, g)] = dst
        out[(dst, -g)] = src
    return out


def is_complete(edges, vertices: int, rank: int) -> bool:
    return edges is not None and all(
        (v, s * g) in edges for v in range(vertices) for g in range(1, rank + 1) for s in (1, -1)
    )


# -- G(p, d) and fixtures ------------------------------------------------------


def order_mod(q: int, p: int) -> int:
    k, x = 1, q % p
    while x != 1:
        x = x * q % p
        k += 1
    return k


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_primitive_root(q: int, p: int) -> bool:
    return q % p != 0 and all(pow(q, (p - 1) // f, p) != 1 for f in prime_factors(p - 1))


def primes_between(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi]."""
    return sum(1 for n in range(max(lo, 2), hi + 1) if is_prime(n))


def gpd_q(p: int, d: int) -> int:
    return next(q for q in range(2, p) if order_mod(q, p) == d)


def gpd_perms(p: int, d: int) -> tuple[Perm, Perm]:
    """x and y of C_p x| C_d acting on its pd elements (u, t) = x^u y^t."""
    q = gpd_q(p, d)
    elems = [(u, t) for u in range(p) for t in range(d)]
    index = {e: i for i, e in enumerate(elems)}
    x = tuple(index[((u + 1) % p, t)] for u, t in elems)
    y = tuple(index[(q * u % p, (t + 1) % d)] for u, t in elems)
    return x, y


def cycle(m: int) -> Perm:
    return tuple((i + 1) % m for i in range(m))


class Fixture:
    """A small group with known membership in U.

    ``derived_primes`` are the primes dividing the order of the derived
    subgroup: U fails to be recognised by provar when a member of U has
    more than one of them (the multi-prime defect).
    """

    def __init__(self, name: str, gens, in_u: bool, derived_primes):
        self.name = name
        self.gens = tuple(tuple(g) for g in gens)
        self.in_u = in_u
        self.derived_primes = frozenset(derived_primes)
        self.elements = generate(self.gens)


def fixtures(cyclic=(2, 3, 4, 6, 12)) -> dict[str, Fixture]:
    """The fixture groups by name, with the cyclic groups of the given orders."""
    out = {}
    for p, d in [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 10)]:
        out[f"G({p},{d})"] = Fixture(f"G({p},{d})", gpd_perms(p, d), True, [p])
    for m in cyclic:
        out[f"C{m}"] = Fixture(f"C{m}", [cycle(m)], True, [])
    out["S4"] = Fixture("S4", [(1, 0, 2, 3), (1, 2, 3, 0)], False, [2, 3])
    out["A4"] = Fixture("A4", [(1, 0, 3, 2), (1, 2, 0, 3)], False, [2])
    out["D4"] = Fixture("D4", [(1, 2, 3, 0), (2, 1, 0, 3)], False, [2])
    out["Q8"] = Fixture(
        "Q8", [(1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)], False, [2]
    )
    return out


def generating_pair(rng, fixture: Fixture) -> tuple[Perm, Perm]:
    """A seeded pair of elements that generates the whole fixture."""
    elems = fixture.elements
    while True:
        g, h = rng.choice(elems), rng.choice(elems)
        if len(generate([g, h])) == len(elems):
            return g, h


def direct(pairs) -> tuple[Perm, Perm]:
    """The pair ((g1, g2, ...), (h1, h2, ...)) acting on the disjoint union."""
    xs, ys, offset = [], [], 0
    for g, h in pairs:
        xs.extend(v + offset for v in g)
        ys.extend(v + offset for v in h)
        offset += len(g)
    return tuple(xs), tuple(ys)
