"""Seeded input generation, set-up and operations for the three workloads.

``generate(workload, seed)`` returns plain JSON data: a list of input
items and a schedule of item indices grouped in rounds.  Each round has
the fixed composition given in ``spec.json`` and the seed only picks
the members of each slot, so every seed puts the same kind of load on
provar.  The data holds no provar objects: ``setup`` turns it into
zero-argument operations with provar's constructors, and that step is
what ``setup_s`` times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from perfbench import smallgroups as sg

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())["workloads"]
WORKLOADS = tuple(SPEC)
ROUNDS = {"closure-grid": 16, "u-closure": 16, "cli-mix": 80}


def key_digest(key) -> str:
    """Short digest of a canonical ``Automaton.key``."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def random_subgroup_text(rng, rank: int, max_gens: int, max_len: int) -> str:
    """Generators of the acceptance tests' ``random_subgroup`` shape."""
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        length = rng.randrange(1, max_len + 1)
        gens.append(sg.to_text(sg.reduce_word(rng.choice(letters) for _ in range(length))))
    return ",".join(gens)


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload for one seed: {"items": [...], "rounds": [[...]]}."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {"closure-grid": _ClosureGrid, "u-closure": _UClosure, "cli-mix": _CliMix}[workload]
    gen = maker(rng, SPEC[workload])
    rounds = []
    for _ in range(ROUNDS[workload]):
        slots = gen.round()
        rng.shuffle(slots)
        rounds.append(slots)
    return {"items": gen.items, "rounds": rounds}


class _Items:
    def __init__(self, rng, spec):
        self.rng = rng
        self.spec = spec
        self.items: list[dict] = []
        self._seen: dict[str, int] = {}

    def _put(self, item: dict) -> int:
        key = json.dumps(item, sort_keys=True)
        if key not in self._seen:
            self._seen[key] = len(self.items)
            self.items.append(item)
        return self._seen[key]


class _ClosureGrid(_Items):
    def __init__(self, rng, spec):
        super().__init__(rng, spec)
        self.catalog = json.loads((HERE / spec["catalog"]).read_text())
        self._once_done = False
        self._decks: dict[tuple[str, str], list] = {}

    def _draw(self, name: str, stratum: str) -> dict:
        """The next entry of a seeded shuffle of the class's stratum,
        reshuffled when used up: drawing without replacement gives every
        seed nearly the same mix of costs, so the seed moves the metrics
        less than the machine does."""
        deck = self._decks.setdefault((name, stratum), [])
        if not deck:
            deck.extend(self.catalog["classes"][name][stratum])
            self.rng.shuffle(deck)
        return deck.pop()

    def round(self) -> list[int]:
        """The round's slots: seeded catalog entries of the given class and
        stratum, then the Cayley automata (those listed as "cayley_once"
        only in the first round)."""
        out = []
        for name, stratum, count in self.spec["round"]:
            n, p, d = map(int, name.split(","))
            out += [self._put({"n": n, "p": p, "d": d, **self._draw(name, stratum)}) for _ in range(count)]
        cayley = self.spec["cayley"] + (self.spec["cayley_once"] if not self._once_done else [])
        self._once_done = True
        for p, d in cayley:
            out.append(self._put({"n": 2, "p": p, "d": d, **self.catalog["cayley"][f"{p},{d}"]}))
        return out


class _UClosure(_Items):
    """Kernels of seeded surjections F_2 -> D and coset groups of D, for
    a fixed list of groups D subdirect in one or two fixtures.  The seed
    picks the generating pairs, so the subgroups differ between seeds
    while D, and with it the intermediate-subgroup lattice, stays the
    same."""

    def __init__(self, rng, spec):
        super().__init__(rng, spec)
        self.fixtures = sg.fixtures(cyclic=range(2, 24))
        self._diagonal: int | None = None

    def _group(self, names, order):
        """Generators of a seeded D of the given order, subdirect in the fixtures."""
        for _ in range(1000):
            gens = sg.direct([sg.generating_pair(self.rng, self.fixtures[n]) for n in names])
            if len(sg.generate(gens)) == order:
                return gens
        raise ValueError(f"no subdirect product of {names} of order {order}")

    def _meta(self, names) -> dict:
        fx = [self.fixtures[n] for n in names]
        in_u = all(f.in_u for f in fx)
        primes = frozenset().union(*(f.derived_primes for f in fx))
        return {"factors": list(names), "in_u": in_u, "multi_prime": in_u and len(primes) > 1}

    def round(self) -> list[int]:
        """is_u_closed and cl_u_finite_index on every kernel, cl_u_finite_index
        alone on the "cl_u_kernels", then is_in_u on the coset groups.  The
        cl_u_kernels are cyclic groups whose costs make a ladder of small
        steps around the median latency: when the machine slows for part of
        a run, the median then moves by about as much as the throughput,
        where a block of equally costly ops would make it jump."""
        out = []
        for ops, kernels in ((("is_u_closed", "cl_u_finite_index"), self.spec["kernels"]),
                             (("cl_u_finite_index",), self.spec["cl_u_kernels"])):
            for *names, order in kernels:
                gens = self._group(names, order)
                _, targets, words = sg.schreier_graph(list(gens), sg.identity(len(gens[0])), sg.mul)
                text = ",".join(sg.to_text(w) for w in sg.schreier_basis(targets, words))
                meta = {**self._meta(names), "gens": text, "index": order}
                out += [self._put({"op": op, **meta}) for op in ops]
        for *names, order in self.spec["coset_groups"]:
            out.append(self._coset_group(names, self._group(names, order)))
        if self._diagonal is None:
            names = self.spec["diagonal"]
            self._diagonal = self._coset_group(names, sg.direct([self.fixtures[n].gens for n in names]))
        out.append(self._diagonal)
        return out

    def _coset_group(self, names, gens) -> int:
        degree, perms = sg.regular_action(list(gens))
        group = {"degree": degree, "generators": [[v + 1 for v in g] for g in perms]}
        return self._put({"op": "is_in_u", **self._meta(names), "group": json.dumps(group)})


GPD_PAIRS = [(3, 2), (5, 2), (5, 4), (7, 3), (7, 6), (11, 10)]


class _CliMix(_Items):
    def __init__(self, rng, spec):
        super().__init__(rng, spec)
        self.fixtures = list(sg.fixtures().values())

    def round(self) -> list[int]:
        """``count`` fresh requests of every kind in the spec's round."""
        return [self._put({"kind": kind, **getattr(self, "_" + kind.replace("-", "_"))()})
                for kind, count in self.spec["round"].items() for _ in range(count)]

    # -- words -------------------------------------------------------------

    def _word(self, length: int) -> list[int]:
        out: list[int] = []
        while len(out) < length:
            x = self.rng.choice((1, -1, 2, -2))
            if not out or out[-1] != -x:
                out.append(x)
        return out

    def _long(self) -> list[int]:
        lo, hi = self.spec["word_length"]
        return self._word(self.rng.randint(lo, hi))

    def _metab_witness(self):
        return {"argv": ["metab-witness", "--word", sg.to_text(self._long())]}

    def _metab_witness_theta(self):
        """A product of conjugates of f = e b e^-1 B, e = [a,b] a [a,b]^-1 A:
        nonzero flow with vanishing row and column sums."""
        c = [1, 2, -1, -2]
        e = c + [1] + sg.inverse_word(c) + [-1]
        f = sg.reduce_word(e + [2] + sg.inverse_word(e) + [-2])
        lo, hi = self.spec["theta_word_length"]
        target = self.rng.randint(lo, hi)
        while True:
            w: list[int] = []
            while len(w) < target:
                g = self._word(self.rng.randint(0, 6))
                piece = f if self.rng.random() < 0.5 else sg.inverse_word(f)
                w = sg.reduce_word(w + g + piece + sg.inverse_word(g))
            if flow(w):
                return {"argv": ["metab-witness", "--word", sg.to_text(w)]}

    def _metab_equal(self):
        u = self._long()
        c = [1, 2, -1, -2]
        g1, g2 = self._word(4), self._word(5)
        c1 = sg.reduce_word(g1 + c + sg.inverse_word(g1))
        if self.rng.random() < 0.5:
            c2 = sg.reduce_word(g2 + c + sg.inverse_word(g2))
            z = c1 + c2 + sg.inverse_word(c1) + sg.inverse_word(c2)
            equal = True
        else:
            z, equal = c1, False
        v = sg.reduce_word(u + z)
        return {"argv": ["metab-equal", "--u", sg.to_text(u), "--v", sg.to_text(v)], "equal": equal}

    def _bs(self, command: str):
        q = self.rng.choice(self.spec["bs_q"])
        while True:
            w = self._long()
            if command == "bs-eval" or bs_normal_form(w, q) != (0, 0, 0):
                return {"argv": [command, "--q", str(q), "--word", sg.to_text(w)]}

    def _bs_eval(self):
        return self._bs("bs-eval")

    def _bs_witness(self):
        return self._bs("bs-witness")

    # -- number theory and F_p linear algebra --------------------------------

    def _find_pr_prime(self):
        lo, hi = self.spec["find_pr_lower"]
        q = self.rng.choice([2, 3, 5, 7, 11, 13])
        lower = int(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))
        return {"argv": ["find-pr-prime", "--q", str(q), "--lower", str(lower)]}

    def _prime_and_divisor(self, primes):
        p = self.rng.choice(primes)
        d = self.rng.choice([k for k in range(2, p) if (p - 1) % k == 0])
        return p, d

    def _q_sets(self):
        p, d = self._prime_and_divisor([n for n in range(5, 200) if sg.is_prime(n)])
        return {"argv": ["q-sets", "--p", str(p), "--d", str(d)]}

    def _gpd(self):
        p, d = self._prime_and_divisor([n for n in range(3, 100) if sg.is_prime(n)])
        argv = ["gpd", "--p", str(p), "--d", str(d)]
        if self.rng.random() < 0.5:
            argv += ["--q", str(self.rng.choice(_of_order(p, d)))]
        return {"argv": argv}

    def _gpd_iso(self):
        p, d = self._prime_and_divisor([5, 7, 11, 13])
        q, r = self.rng.choice(_of_order(p, d)), self.rng.choice(_of_order(p, d))
        return {"argv": ["gpd-iso", "--p", str(p), "--d", str(d), "--q", str(q), "--r", str(r)]}

    def _conjugated(self, p: int, diagonals):
        """P diag(lambda) P^-1 for one random invertible P per call."""
        n = len(diagonals[0])
        while True:
            pm = [[self.rng.randrange(p) for _ in range(n)] for _ in range(n)]
            pinv = mat_inverse(pm, p)
            if pinv is not None:
                break
        out = []
        for lams in diagonals:
            dm = [[lams[i] if i == j else 0 for j in range(n)] for i in range(n)]
            out.append(mat_mul(mat_mul(pm, dm, p), pinv, p))
        return out

    def _diagonalize(self):
        p = self.rng.choice([5, 7, 11, 13])
        n = self.rng.randint(2, 3)
        lams = [self.rng.randrange(1, p) for _ in range(n)]
        (m,) = self._conjugated(p, [lams])
        return {"argv": ["diagonalize", "--p", str(p), "--matrix", json.dumps(m)], "eigenvalues": sorted(lams)}

    def _action_to_presentation(self):
        p, d = self._prime_and_divisor([5, 7, 11, 13])
        n, m = self.rng.randint(1, 3), self.rng.randint(1, 2)
        orders = [self.rng.choice([k for k in range(2, d + 1) if d % k == 0]) for _ in range(m)]
        diagonals = [[self.rng.choice(_roots(p, o)) for _ in range(n)] for o in orders]
        matrices = self._conjugated(p, diagonals)
        rows = sorted(tuple(diagonals[j][i] for j in range(m)) for i in range(n))
        return {"argv": ["action-to-presentation", "--p", str(p), "--d", str(d),
                         "--matrices", json.dumps(matrices), "--orders", ",".join(map(str, orders))],
                "rows": [list(r) for r in rows]}

    def _decompose(self):
        p, d = self._prime_and_divisor([5, 7])
        n, m = self.rng.randint(1, 2), self.rng.randint(1, 2)
        orders = [self.rng.choice([k for k in range(2, d + 1) if d % k == 0]) for _ in range(m)]
        exponents = [[self.rng.choice(_roots(p, o)) for o in orders] for _ in range(n)]
        return {"argv": ["decompose", "--p", str(p), "--d", str(d),
                         "--exponents", json.dumps(exponents), "--orders", ",".join(map(str, orders))]}

    # -- automata -------------------------------------------------------------

    def _action(self):
        lo, hi = self.spec["action_degree"]
        k = self.rng.randint(lo, hi)
        perms = []
        for _ in range(2):
            perm = list(range(k))
            self.rng.shuffle(perm)
            perms.append(tuple(perm))
        i, j = self.rng.randrange(k), self.rng.randrange(k)
        return perms, i, j

    @staticmethod
    def _stabilizer(perms, point, act=sg.act_point):
        points, targets, words = sg.schreier_graph(perms, point, act)
        return len(points), ",".join(sg.to_text(w) for w in sg.schreier_basis(targets, words))

    def _stallings(self):
        perms, i, _ = self._action()
        index, gens = self._stabilizer(perms, i)
        return {"argv": ["stallings", "--rank", "2", "--gens", gens], "index": index}

    def _index(self):
        perms, i, _ = self._action()
        index, gens = self._stabilizer(perms, i)
        return {"argv": ["index", "--rank", "2", "--gens", gens], "index": index,
                "perms": [list(g) for g in perms], "point": i}

    def _join(self):
        perms, i, j = self._action()
        left, right = self._stabilizer(perms, i)[1], self._stabilizer(perms, j)[1]
        group = sg.generate(perms)
        stab = [g for g in group if g[i] == i] + [g for g in group if g[j] == j]
        index = len(group) // len(sg.generate(stab))
        return {"argv": ["join", "--rank", "2", "--left", left, "--right", right], "index": index}

    def _intersect(self):
        perms, i, j = self._action()
        left, right = self._stabilizer(perms, i)[1], self._stabilizer(perms, j)[1]
        index, both = self._stabilizer(perms, (i, j), sg.act_pair)
        return {"argv": ["intersect", "--rank", "2", "--left", left, "--right", right],
                "index": index, "contains": both}

    def _closure_rank1(self):
        p, d = self.rng.choice(GPD_PAIRS)
        m = self.rng.randint(1, 60)
        return {"argv": ["closure", "--p", str(p), "--d", str(d), "--rank", "1", "--gens", f"a^{m}"],
                "index": math.gcd(m, p * d)}

    def _closure_rank2(self):
        gens = random_subgroup_text(self.rng, 2, 4, 6)
        return {"argv": ["closure", "--p", "3", "--d", "2", "--rank", "2", "--gens", gens]}

    def _status(self):
        p, d = self.rng.choice(GPD_PAIRS)
        m = self.rng.randint(1, 60)
        g = math.gcd(m, p * d)
        return {"argv": ["status", "--p", str(p), "--d", str(d), "--rank", "1", "--gens", f"a^{m}"],
                "expect": {"closed": g == m, "dense": g == 1, "index_of_closure": g}}

    def _is_in_u(self):
        fixture = self.rng.choice(self.fixtures)
        group = {"degree": len(fixture.gens[0]), "generators": [[v + 1 for v in g] for g in fixture.gens]}
        return {"argv": ["is-in-u", "--group", json.dumps(group)], "in_u": fixture.in_u}


def _of_order(p: int, d: int) -> list[int]:
    return [q for q in range(2, p) if sg.order_mod(q, p) == d]


def _roots(p: int, order: int) -> list[int]:
    return [q for q in range(1, p) if pow(q, order, p) == 1]


# -- small exact arithmetic shared by the generator and the oracles ------------


def flow(letters) -> dict:
    """Signed grid-edge counts of a rank-2 word: ('a'|'b', x, y) -> count."""
    out: dict[tuple, int] = {}
    x = y = 0
    for letter in letters:
        if letter == 1:
            out[("a", x, y)] = out.get(("a", x, y), 0) + 1
            x += 1
        elif letter == -1:
            x -= 1
            out[("a", x, y)] = out.get(("a", x, y), 0) - 1
        elif letter == 2:
            out[("b", x, y)] = out.get(("b", x, y), 0) + 1
            y += 1
        else:
            y -= 1
            out[("b", x, y)] = out.get(("b", x, y), 0) - 1
    return {k: v for k, v in out.items() if v}


def bs_normal_form(letters, q: int) -> tuple[int, int, int]:
    """(m, s, j) with the word's image in BS(1,q) equal to (m / q^s, j),
    the fraction in lowest terms (s = 0 when m = 0)."""
    counts: dict[int, int] = {}
    j = 0
    for letter in letters:
        if abs(letter) == 1:
            counts[j] = counts.get(j, 0) + letter
        else:
            j += 1 if letter == 2 else -1
    low = min(counts, default=0)
    shift = max(0, -low)
    total = sum(c * q ** (k + shift) for k, c in counts.items())
    while shift and total % q == 0:
        total //= q
        shift -= 1
    return total, shift, j


def mat_mul(a, b, p):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_inverse(m, p):
    """Inverse mod p by Gauss-Jordan; None when m is singular."""
    n = len(m)
    rows = [[x % p for x in row] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], -1, p)
        rows[col] = [x * scale % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


# -- set-up: inputs to provar objects and operations ---------------------------


def class_cap(spec: dict, n: int, p: int, d: int) -> int:
    """Coset cap of a closure-grid class.  Classes whose capped queries
    would cost much more than the others get a cap below the catalog's,
    which keeps every recorded outcome valid: an entry capped at the
    catalog cap is capped at any smaller one, and the uncapped entries
    of these classes have indices below their cap."""
    return spec["class_caps"].get(f"{n},{p},{d}", spec["coset_cap"])


def setup(workload: str, data: dict) -> list:
    """One zero-argument operation per item, built with provar's
    constructors.  CapExceededError from an operation is an outcome,
    so each returns the string "capped" for it."""
    from provar import apd, cli, uvar
    from provar.errors import CapExceededError
    from provar.permgroup import PermGroup
    from provar.stallings import Automaton
    from provar.words import parse

    def automaton(gens: str, rank: int):
        return Automaton.from_generators([parse(w, rank) for w in gens.split(",")], rank)

    ops = []
    if workload == "closure-grid":
        spec = SPEC[workload]

        def closure_op(aut, p, d, cap):
            def op():
                try:
                    return apd.closure(aut, p, d, cap=cap)
                except CapExceededError:
                    return "capped"
            return op

        for item in data["items"]:
            cap = class_cap(spec, item["n"], item["p"], item["d"])
            if not item.get("capped") and item["index"] > cap:
                raise ValueError(f"catalog entry of index {item['index']} exceeds its class cap {cap}")
            ops.append(closure_op(automaton(item["gens"], item["n"]), item["p"], item["d"], cap))
    elif workload == "u-closure":
        kernels: dict[str, object] = {}
        for item in data["items"]:
            if item["op"] == "is_in_u":
                group = PermGroup.from_json_dict(json.loads(item["group"]))
                ops.append(lambda g=group: uvar.is_in_u(PermGroup(g.degree, g.generators)).verdict)
                continue
            if item["gens"] not in kernels:
                kernels[item["gens"]] = automaton(item["gens"], 2)
            # look the function up at call time, so that tracing can wrap it
            ops.append(lambda name=item["op"], aut=kernels[item["gens"]]: getattr(uvar, name)(aut))
    else:
        def cli_op(argv):
            def op():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.dispatch(argv)
                return code, out.getvalue()
            return op

        ops = [cli_op(list(item["argv"])) for item in data["items"]]
    return ops
