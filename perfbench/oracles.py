"""Output oracles, run after the timed loop.

``Oracle(workload).check(item, answer)`` returns one of

- ``OK``: the answer is right;
- ``KNOWN_DEFECT``: the answer is wrong in the way provar's documented
  multi-prime U-membership defect predicts (a member of U whose derived
  subgroup involves two primes is reported outside U);
- a string naming any other failure.

Wrong answers of both kinds count as failed operations.  The checks use
the benchmark's own small arithmetic (``smallgroups``), the expected
values the generator recorded with each item, and, for closures whose
free object fits the folding limit, provar's second closure route.
"""

from __future__ import annotations

import json
import math

from perfbench import smallgroups as sg
from perfbench.workloads import SPEC, bs_normal_form, key_digest, mat_inverse, mat_mul

OK = "ok"
KNOWN_DEFECT = "known multi-prime is_in_u defect"


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _automaton_ok(payload_edges, vertices: int, rank: int, words, index=None) -> str | None:
    """Complete automaton reading every word as a loop, with ``index``
    vertices when given."""
    edges = sg.edge_map(payload_edges, rank)
    if not sg.is_complete(edges, vertices, rank):
        return "automaton is not complete and folded"
    if index is not None and vertices != index:
        return f"index {vertices}, expected {index}"
    for w in words:
        if not sg.reads_loop(edges, w):
            return f"subgroup word {sg.to_text(w)} is not a loop"
    return None


def _gens(text: str) -> list[list[int]]:
    return [sg.reduce_word(sg.from_text(w)) for w in text.split(",")]


class Oracle:
    def __init__(self, workload: str):
        self.workload = workload
        self._folded: dict[str, object] = {}
        self._free_objects: dict[tuple, object] = {}

    def check(self, item: dict, answer) -> str:
        if isinstance(answer, BaseException):
            return f"raised {answer!r}"
        check = {"closure-grid": self._closure, "u-closure": self._u, "cli-mix": self._cli}[self.workload]
        return check(item, answer) or OK

    # -- closure-grid -------------------------------------------------------------

    def _folding(self, n, p, d, gens: str):
        """Closure by provar's folding route; one free object per class."""
        from provar import apd
        from provar.stallings import Automaton
        from provar.words import parse

        key = f"{n},{p},{d}:{gens}"
        if key not in self._folded:
            if (n, p, d) not in self._free_objects:
                self._free_objects[(n, p, d)] = apd.FreeObject(n, p, d)
            aut = Automaton.from_generators([parse(w, n) for w in gens.split(",")], n)
            self._folded[key] = apd.closure_by_folding(aut, p, d, fobj=self._free_objects[(n, p, d)])
        return self._folded[key]

    def _closure(self, item, answer):
        if item.get("capped"):
            return None if answer == "capped" else "closure fits the cap, expected CapExceededError"
        if isinstance(answer, str):
            return f"answer {answer!r}, expected index {item['index']}"
        n, p, d = item["n"], item["p"], item["d"]
        data = answer.to_json_dict()
        bad = _automaton_ok(data["edges"], data["vertices"], n, _gens(item["gens"]), item["index"])
        if bad:
            return bad
        if key_digest(answer.key) != item["digest"]:
            return "closure key differs from the recorded digest"
        order = p ** ((n - 1) * d**n + 1) * d**n
        if order <= SPEC["closure-grid"]["folding_order_limit"] and self._folding(n, p, d, item["gens"]) != answer:
            return "closure differs from closure_by_folding"
        return None

    # -- u-closure --------------------------------------------------------------------

    def _u(self, item, answer):
        in_u, multi = item["in_u"], item["multi_prime"]
        if item["op"] in ("is_u_closed", "is_in_u"):
            if answer is in_u:
                return None
            if in_u and answer is False and multi:
                return KNOWN_DEFECT
            return f"verdict {answer!r} for {item['factors']}, expected {in_u}"
        data = answer.to_json_dict()
        vertices, index = data["vertices"], item["index"]
        bad = _automaton_ok(data["edges"], vertices, 2, _gens(item["gens"]))
        if bad:
            return bad
        if index % vertices:
            return f"closure index {vertices} does not divide {index}"
        if (vertices == index) == in_u:
            return None
        if in_u and multi:
            return KNOWN_DEFECT
        return f"closure index {vertices} for {item['factors']} of order {index} (in U: {in_u})"

    # -- cli-mix ----------------------------------------------------------------------

    def _cli(self, item, answer):
        code, out = answer
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(out)
        kind = item["kind"].removesuffix("-theta")
        return getattr(self, "_cli_" + kind.replace("-", "_"))(item, item["argv"], payload)

    def _cli_metab_witness(self, item, argv, out):
        p, q = out["p"], out["q"]
        if not sg.is_prime(p) or not sg.is_primitive_root(q, p):
            return f"q = {q} is not a primitive root of a prime p = {p}"
        letters = sg.from_text(_arg(argv, "--word"))
        for step in out["pre_map"].split(";"):
            letters = _pre_map_step(step, letters)
        u, t, qt = 0, 0, 1
        q_inv = pow(q, -1, p)
        for x in letters:
            if x == 1:
                u = (u + qt) % p
            elif x == -1:
                u = (u - qt) % p
            elif x == 2:
                t, qt = t + 1, qt * q % p
            else:
                t, qt = t - 1, qt * q_inv % p
        image = (u, t % (p - 1))
        parts = (out["image_parts"]["x_exponent"], out["image_parts"]["y_exponent"])
        if image != parts or image == (0, 0):
            return f"witness image {parts}, re-evaluated {image}"
        return None

    def _cli_metab_equal(self, item, argv, out):
        return None if out["equal"] is item["equal"] else f"equal = {out['equal']}"

    def _cli_bs_eval(self, item, argv, out):
        m, s, j = bs_normal_form(sg.from_text(_arg(argv, "--word")), int(_arg(argv, "--q")))
        expected = {"numerator": m, "denominator_exponent": s, "j": j, "trivial": m == 0 and j == 0}
        return None if out == expected else f"normal form {out}, expected {expected}"

    def _cli_bs_witness(self, item, argv, out):
        q = int(_arg(argv, "--q"))
        p = out["p"]
        if p == q or not sg.is_prime(p) or not sg.is_primitive_root(q, p):
            return f"q = {q} is not a primitive root of a prime p = {p}"
        m, s, j = bs_normal_form(sg.from_text(_arg(argv, "--word")), q)
        image = (m * pow(q, -s, p) % p, j % (p - 1))
        parts = (out["image_parts"]["x_exponent"], out["image_parts"]["y_exponent"])
        if image != parts or image == (0, 0):
            return f"witness image {parts}, re-evaluated {image}"
        return None

    def _cli_find_pr_prime(self, item, argv, out):
        q, lower, p = int(_arg(argv, "--q")), int(_arg(argv, "--lower")), out["p"]
        if p < lower or p == q or not sg.is_prime(p) or not sg.is_primitive_root(q, p):
            return f"p = {p} is not a prime >= {lower} with primitive root {q}"
        if out["order_check"] != p - 1:
            return "order_check is not p - 1"
        if any(sg.is_prime(r) and r != q and sg.is_primitive_root(q, r) for r in range(lower, p)):
            return f"a smaller prime than {p} has primitive root {q}"
        return None

    def _cli_q_sets(self, item, argv, out):
        p, d = int(_arg(argv, "--p")), int(_arg(argv, "--d"))
        roots = [q for q in range(1, p) if pow(q, d, p) == 1]
        expected = {"q_set": roots, "q_prime_set": [q for q in roots if sg.order_mod(q, p) == d]}
        return None if out == expected else f"q-sets {out}, expected {expected}"

    def _cli_gpd(self, item, argv, out):
        p, d = int(_arg(argv, "--p")), int(_arg(argv, "--d"))
        q = out["q"]
        ok = (out["p"], out["d"], out["order"], out["x_order"], out["y_order"]) == (p, d, p * d, p, d)
        if "--q" in argv:
            ok = ok and q == int(_arg(argv, "--q"))
        return None if ok and sg.order_mod(q, p) == d else f"gpd {out}"

    def _cli_gpd_iso(self, item, argv, out):
        p, d, q, r = (int(_arg(argv, f)) for f in ("--p", "--d", "--q", "--r"))
        m, k = out["m"], out["k"]
        ok = 1 <= m <= d and 1 <= k <= d and pow(r, m, p) == q and pow(q, k, p) == r and m * k % d == 1
        return None if ok else f"gpd-iso {out}"

    def _cli_diagonalize(self, item, argv, out):
        p = int(_arg(argv, "--p"))
        m = json.loads(_arg(argv, "--matrix"))
        pm, eig = out["P"], out["eigenvalues"]
        diag = [[eig[i] if i == j else 0 for j in range(len(eig))] for i in range(len(eig))]
        if mat_inverse(pm, p) is None or mat_mul(m, pm, p) != mat_mul(pm, diag, p):
            return "P does not diagonalize the matrix"
        return None if sorted(eig) == item["eigenvalues"] else f"eigenvalues {eig}"

    def _cli_action_to_presentation(self, item, argv, out):
        orders = [int(x) for x in _arg(argv, "--orders").split(",")]
        rows = sorted(out["exponents"])
        ok = (out["p"], out["d"], out["orders"]) == (int(_arg(argv, "--p")), int(_arg(argv, "--d")), orders)
        return None if ok and rows == item["rows"] else f"presentation {out}"

    def _cli_decompose(self, item, argv, out):
        p, d = int(_arg(argv, "--p")), int(_arg(argv, "--d"))
        exps = json.loads(_arg(argv, "--exponents"))
        orders = [int(x) for x in _arg(argv, "--orders").split(",")]
        order = p ** len(exps) * math.prod(orders)
        q = out["q"]
        if (out["group_order"], out["image_order"], out["injective"]) != (order, order, True):
            return f"decompose orders {out['group_order']}, {out['image_order']}"
        if sg.order_mod(q, p) != d:
            return f"q = {q} does not have order {d}"
        kinds = out["factors"]
        xs = [tuple(_factor(k, v) for k, v in zip(kinds, img)) for img in out["x_images"]]
        ys = [tuple(_factor(k, v) for k, v in zip(kinds, img)) for img in out["y_images"]]
        group = _Product(kinds, p, d, q)
        for i, x in enumerate(xs):
            if group.power(x, p) != group.one:
                return "x image does not have order p"
            for j, y in enumerate(ys):
                conj = group.mul(group.mul(y, x), group.inv(y))
                if conj != group.power(x, exps[i][j] % p):
                    return "conjugation relation fails"
        for j, y in enumerate(ys):
            if group.power(y, orders[j]) != group.one:
                return "y image order does not divide its presented order"
        gens = xs + ys
        if any(group.mul(a, b) != group.mul(b, a) for a in xs for b in xs) or any(
            group.mul(a, b) != group.mul(b, a) for a in ys for b in ys
        ):
            return "generators that should commute do not"
        seen = {group.one}
        frontier = [group.one]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    h = group.mul(e, g)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return None if len(seen) == order else f"image has {len(seen)} elements, expected {order}"

    def _cli_stallings(self, item, argv, out):
        return _automaton_ok(out["edges"], out["vertices"], 2, _gens(_arg(argv, "--gens")), item["index"])

    def _cli_index(self, item, argv, out):
        perms, point = [tuple(g) for g in item["perms"]], item["point"]
        if out["index"] != item["index"] or len(out["basis"]) != item["index"] + 1:
            return f"index {out['index']} with {len(out['basis'])} basis words, expected {item['index']}"
        for w in out["basis"]:
            if sg.image(sg.from_text(w), perms)[point] != point:
                return f"basis word {w} is outside the subgroup"
        return None

    def _cli_join(self, item, argv, out):
        words = _gens(_arg(argv, "--left")) + _gens(_arg(argv, "--right"))
        return _automaton_ok(out["edges"], out["vertices"], 2, words, item["index"])

    def _cli_intersect(self, item, argv, out):
        return _automaton_ok(out["edges"], out["vertices"], 2, _gens(item["contains"]), item["index"])

    def _cli_closure_rank1(self, item, argv, out):
        m = int(_arg(argv, "--gens")[2:])
        return _automaton_ok(out["edges"], out["vertices"], 1, [[1] * m], item["index"])

    def _cli_closure_rank2(self, item, argv, out):
        expected = self._folding(2, 3, 2, _arg(argv, "--gens")).to_json_dict()
        return None if (out["vertices"], out["edges"]) == (expected["vertices"], expected["edges"]) else \
            "closure differs from closure_by_folding"

    def _cli_status(self, item, argv, out):
        return None if out == item["expect"] else f"status {out}, expected {item['expect']}"

    def _cli_is_in_u(self, item, argv, out):
        return None if out["verdict"] is item["in_u"] else f"verdict {out['verdict']}"


def _pre_map_step(step: str, letters):
    if step == "direct":
        return letters
    if step == "swap":
        return [{1: 2, -1: -2, 2: 1, -2: -1}[x] for x in letters]
    name, arg = step.rstrip(")").split("(")
    k = int(arg)
    if name == "shift":
        prefix = [1] * k + [2] * k
        return sg.reduce_word(prefix + letters + sg.inverse_word(prefix))
    if name == "theta":
        table = {1: [1, 2], -1: [-2, -1], 2: [2] * k, -2: [-2] * k}
        return sg.reduce_word([y for x in letters for y in table[x]])
    raise ValueError(f"unknown pre-map step {step!r}")


def _factor(kind: str, value):
    """A factor value of the decompose output: (u, t) for "x^u y^t", or an int."""
    if kind == "cyclic":
        return value
    u = t = 0
    for part in value.split():
        base, _, exp = part.partition("^")
        if base == "x":
            u = int(exp or 1)
        elif base == "y":
            t = int(exp or 1)
    return (u, t)


class _Product:
    """Direct product of copies of G(p, d) (presented with q) and C_d."""

    def __init__(self, kinds, p, d, q):
        self.kinds, self.p, self.d, self.q = kinds, p, d, q
        self.one = tuple((0, 0) if k == "gpd" else 0 for k in kinds)

    def mul(self, a, b):
        p, d, q = self.p, self.d, self.q
        return tuple(
            ((x[0] + pow(q, x[1], p) * y[0]) % p, (x[1] + y[1]) % d) if k == "gpd" else (x + y) % d
            for k, x, y in zip(self.kinds, a, b)
        )

    def inv(self, a):
        p, d, q = self.p, self.d, self.q
        return tuple(
            ((-pow(q, (-x[1]) % d, p) * x[0]) % p, (-x[1]) % d) if k == "gpd" else (-x) % d
            for k, x in zip(self.kinds, a)
        )

    def power(self, a, n: int):
        out = self.one
        for _ in range(n):
            out = self.mul(out, a)
        return out
