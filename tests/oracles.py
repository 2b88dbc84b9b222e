"""Reference routines that only the tests use."""

from provar.apd import FreeObject
from provar.fplinalg import rref
from provar.permgroup import PermGroup
from provar.stallings import Automaton


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


class ImageByProducts:
    """H's image in the free object as ``apd._ImageSubgroup`` described it
    before the letter-step walk: each Schreier generator formed by three
    products and an inverse, r * g * reps[(r * g)_s]^-1, and each coset
    keyed by a full product with its T-transversal element."""

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
