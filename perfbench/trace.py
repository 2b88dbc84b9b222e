"""Per-module tracing installed from outside provar.

``Tracer`` wraps functions at runtime.  A wrapped layer entry point
records a span (id, parent id, name, start, end, leaf seconds) kept in
memory; a wrapped hot leaf such as ``FreeObject.mul`` only adds to a
per-name aggregate and to the leaf seconds of the span it runs in.  A
span's self time is its duration minus its child spans and leaves.

``install(tracer)`` wraps the public entry points of every module in
``provar`` and rebinds each name in every provar module that imported
it with ``from ... import``; ``layer_metrics`` turns a traced run into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from perfbench import smallgroups as sg

# span record fields
ID, PARENT, NAME, START, END, LEAF_S = range(6)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, total seconds]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.notes: defaultdict[str, list] = defaultdict(list)
        self._stack: list[list] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def wrap(self, fn, name: str, leaf: bool = False, count=None):
        """``fn`` recording a span (or a leaf aggregate) named ``name``;
        ``count(args, kwargs, result, error)`` may update the counts after
        each call."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            parent_id = None if parent is None else parent[ID] if parent[ID] is not None else parent[PARENT]
            record = [None if leaf else len(tracer.spans), parent_id, name, tracer.clock(), None, 0.0]
            if not leaf:
                tracer.spans.append(record)
            tracer._stack.append(record)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                record[END] = tracer.clock()
                tracer._stack.pop()
                if leaf:
                    elapsed = record[END] - record[START]
                    agg = tracer.leaves.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += elapsed
                    if tracer._stack:
                        tracer._stack[-1][LEAF_S] += elapsed
                if count is not None:
                    count(args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap module.attr and rebind it wherever provar imported it."""
        original = getattr(module, attr)
        traced = self.wrap(original, name, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "provar":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, **kw) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, **kw)))
        else:
            setattr(cls, attr, self.wrap(raw, name, **kw))
        self._undo.append((cls, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- summaries ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds (outermost calls only, so
        recursion is not counted twice) and self seconds."""
        spans = self.spans
        child = defaultdict(float)
        for record in spans:
            if record[PARENT] is not None:
                child[record[PARENT]] += record[END] - record[START]
        out: dict[str, dict[str, float]] = {}
        for record in spans:
            agg = out.setdefault(record[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            elapsed = record[END] - record[START]
            agg["calls"] += 1
            agg["self_s"] += elapsed - child[record[ID]] - record[LEAF_S]
            ancestor = record[PARENT]
            while ancestor is not None and spans[ancestor][NAME] != record[NAME]:
                ancestor = spans[ancestor][PARENT]
            if ancestor is None:
                agg["total_s"] += elapsed
        return out


# -- provar's layers -----------------------------------------------------------------


def install(tracer: Tracer) -> None:
    from provar import apd, bs, cli, fplinalg, metabelian, numtheory, permgroup, uvar, words
    from provar.errors import CapExceededError
    from provar.stallings import Automaton

    counts, notes = tracer.counts, tracer.notes

    def closure_count(args, kwargs, result, error):
        if isinstance(error, CapExceededError):
            counts["apd.capped"] += 1
            counts["apd.cosets"] += kwargs.get("cap", args[3] if len(args) > 3 else apd.DEFAULT_CAP)
        elif result is not None:
            counts["apd.cosets"] += result.n_vertices

    def mul_count(args, kwargs, result, error):
        counts["apd.coord_ops"] += args[0].n_coords

    def lattice_count(args, kwargs, result, error):
        counts["stallings.lattice_size"] += len(result or ())

    def closed_count(args, kwargs, result, error):
        counts["uvar.u_closed"] += result is True

    def parse_count(args, kwargs, result, error):
        counts["words.letters_parsed"] += len(result) if result is not None else 0

    def witness_note(args, kwargs, result, error):
        if result is not None:
            notes["witness_primes"].append(result.p)

    def search_note(args, kwargs, result, error):
        if result is not None:
            notes["pr_searches"].append((args[1], result.p))

    tracer.patch_function(apd, "closure", "apd.closure", count=closure_count)
    tracer.patch_method(apd.FreeObject, "__init__", "apd.free_object.init")
    tracer.patch_method(apd.FreeObject, "evaluate", "apd.evaluate")
    tracer.patch_method(apd.FreeObject, "mul", "apd.mul", leaf=True, count=mul_count)

    tracer.patch_method(Automaton, "from_raw", "stallings.from_raw")
    tracer.patch_method(Automaton, "from_action", "stallings.from_action")
    tracer.patch_method(Automaton, "join", "stallings.join")
    tracer.patch_method(Automaton, "intersect", "stallings.intersect")
    tracer.patch_method(Automaton, "intermediate_subgroups", "stallings.intermediate_subgroups",
                        count=lattice_count)

    group = permgroup.PermGroup
    plain_elements = group.__dict__["elements"]
    traced_elements = tracer.wrap(plain_elements, "permgroup.elements", leaf=True)

    def elements(self):
        fresh = self._elements is None
        out = traced_elements(self)
        if fresh:
            counts["permgroup.elements_enumerated"] += len(out)
        return out

    group.elements = elements
    tracer._undo.append((group, "elements", plain_elements))
    tracer.patch_function(permgroup, "compose", "permgroup.compose", leaf=True)
    for attr in ("derived_subgroup", "sylow", "is_supersolvable", "quotient"):
        tracer.patch_method(group, attr, f"permgroup.{attr}")

    tracer.patch_function(uvar, "is_in_u", "uvar.is_in_u")
    tracer.patch_function(uvar, "is_u_closed", "uvar.is_u_closed", count=closed_count)
    tracer.patch_function(uvar, "cl_u_finite_index", "uvar.cl_u_finite_index")

    tracer.patch_function(words, "parse", "words.parse", count=parse_count)
    tracer.patch_function(metabelian, "flow_of", "metabelian.flow_of")
    tracer.patch_function(metabelian, "separating_witness", "metabelian.separating_witness",
                          count=witness_note)
    tracer.patch_function(bs, "bs_eval", "bs.bs_eval")
    tracer.patch_function(bs, "bs_separating_prime", "bs.bs_separating_prime")
    tracer.patch_function(numtheory, "find_pr_prime", "numtheory.find_pr_prime", count=search_note)
    tracer.patch_function(numtheory, "mult_order", "numtheory.mult_order", leaf=True)
    tracer.patch_function(fplinalg, "diagonalize", "fplinalg.diagonalize")
    tracer.patch_function(fplinalg, "action_to_presentation", "fplinalg.action_to_presentation")
    tracer.patch_function(cli, "build_parser", "cli.build_parser")
    tracer.patch_function(cli, "dispatch", "cli.dispatch")


# (metric name, unit, better) in BENCHMARK.json order
LAYER_METRICS = [
    ("apd.closure.calls", "count", "lower"),
    ("apd.closure.self_s", "s", "lower"),
    ("apd.free_object.init_s", "s", "lower"),
    ("apd.evaluate.s", "s", "lower"),
    ("apd.mul.calls", "count", "lower"),
    ("apd.mul.s", "s", "lower"),
    ("apd.cosets", "count", "lower"),
    ("apd.cosets_per_s", "1/s", "higher"),
    ("apd.coord_ops", "count", "lower"),
    ("apd.capped", "count", "lower"),
    ("stallings.from_raw.calls", "count", "lower"),
    ("stallings.from_raw.s", "s", "lower"),
    ("stallings.join.calls", "count", "lower"),
    ("stallings.join.self_s", "s", "lower"),
    ("stallings.intersect.s", "s", "lower"),
    ("stallings.intermediate_subgroups.s", "s", "lower"),
    ("stallings.lattice_size", "count", "lower"),
    ("stallings.from_action.s", "s", "lower"),
    ("permgroup.elements.s", "s", "lower"),
    ("permgroup.elements_enumerated", "count", "lower"),
    ("permgroup.compose.calls", "count", "lower"),
    ("permgroup.derived_subgroup.s", "s", "lower"),
    ("permgroup.sylow.s", "s", "lower"),
    ("permgroup.is_supersolvable.s", "s", "lower"),
    ("permgroup.quotient.s", "s", "lower"),
    ("uvar.is_in_u.calls", "count", "lower"),
    ("uvar.is_in_u.self_s", "s", "lower"),
    ("uvar.is_u_closed.calls", "count", "lower"),
    ("uvar.closed_share", "ratio", "higher"),
    ("uvar.cl_u_finite_index.self_s", "s", "lower"),
    ("words.parse.s", "s", "lower"),
    ("words.letters_parsed", "count", "lower"),
    ("metabelian.flow_of.s", "s", "lower"),
    ("metabelian.separating_witness.s", "s", "lower"),
    ("metabelian.primes_tried", "count", "lower"),
    ("bs.bs_eval.s", "s", "lower"),
    ("bs.bs_separating_prime.s", "s", "lower"),
    ("numtheory.find_pr_prime.s", "s", "lower"),
    ("numtheory.candidates_examined", "count", "lower"),
    ("numtheory.mult_order.calls", "count", "lower"),
    ("fplinalg.diagonalize.s", "s", "lower"),
    ("fplinalg.action_to_presentation.s", "s", "lower"),
    ("cli.build_parser.s", "s", "lower"),
    ("cli.dispatch.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
]


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    """Per-layer values of a traced run; ``overhead`` is traced over
    untraced ops per second."""
    spans = tracer.summary()
    leaves, counts, notes = tracer.leaves, tracer.counts, tracer.notes

    def span(name, field):
        return spans.get(name, {}).get(field, 0.0)

    closure_s = span("apd.closure", "total_s")
    closed_calls = span("uvar.is_u_closed", "calls")
    witness = notes["witness_primes"]
    values = {
        "apd.closure.calls": span("apd.closure", "calls"),
        "apd.closure.self_s": span("apd.closure", "self_s"),
        "apd.free_object.init_s": span("apd.free_object.init", "total_s"),
        "apd.evaluate.s": span("apd.evaluate", "total_s"),
        "apd.mul.calls": leaves.get("apd.mul", [0, 0.0])[0],
        "apd.mul.s": leaves.get("apd.mul", [0, 0.0])[1],
        "apd.cosets": counts["apd.cosets"],
        "apd.cosets_per_s": counts["apd.cosets"] / closure_s if closure_s else 0.0,
        "apd.coord_ops": counts["apd.coord_ops"],
        "apd.capped": counts["apd.capped"],
        "stallings.from_raw.calls": span("stallings.from_raw", "calls"),
        "stallings.from_raw.s": span("stallings.from_raw", "total_s"),
        "stallings.join.calls": span("stallings.join", "calls"),
        "stallings.join.self_s": span("stallings.join", "self_s"),
        "stallings.intersect.s": span("stallings.intersect", "total_s"),
        "stallings.intermediate_subgroups.s": span("stallings.intermediate_subgroups", "total_s"),
        "stallings.lattice_size": counts["stallings.lattice_size"],
        "stallings.from_action.s": span("stallings.from_action", "total_s"),
        "permgroup.elements.s": leaves.get("permgroup.elements", [0, 0.0])[1],
        "permgroup.elements_enumerated": counts["permgroup.elements_enumerated"],
        "permgroup.compose.calls": leaves.get("permgroup.compose", [0, 0.0])[0],
        "permgroup.derived_subgroup.s": span("permgroup.derived_subgroup", "total_s"),
        "permgroup.sylow.s": span("permgroup.sylow", "total_s"),
        "permgroup.is_supersolvable.s": span("permgroup.is_supersolvable", "total_s"),
        "permgroup.quotient.s": span("permgroup.quotient", "total_s"),
        "uvar.is_in_u.calls": span("uvar.is_in_u", "calls"),
        "uvar.is_in_u.self_s": span("uvar.is_in_u", "self_s"),
        "uvar.is_u_closed.calls": closed_calls,
        "uvar.closed_share": counts["uvar.u_closed"] / closed_calls if closed_calls else 0.0,
        "uvar.cl_u_finite_index.self_s": span("uvar.cl_u_finite_index", "self_s"),
        "words.parse.s": span("words.parse", "total_s"),
        "words.letters_parsed": counts["words.letters_parsed"],
        "metabelian.flow_of.s": span("metabelian.flow_of", "total_s"),
        "metabelian.separating_witness.s": span("metabelian.separating_witness", "total_s"),
        # the direct search tries every prime from 3 up to the witness prime
        "metabelian.primes_tried": sum(_prime_count(3, p) for p in witness),
        "bs.bs_eval.s": span("bs.bs_eval", "total_s"),
        "bs.bs_separating_prime.s": span("bs.bs_separating_prime", "total_s"),
        "numtheory.find_pr_prime.s": span("numtheory.find_pr_prime", "total_s"),
        # find_pr_prime examines every prime from the lower bound up to its answer
        "numtheory.candidates_examined": sum(_prime_count(lo, p) for lo, p in notes["pr_searches"]),
        "numtheory.mult_order.calls": leaves.get("numtheory.mult_order", [0, 0.0])[0],
        "fplinalg.diagonalize.s": span("fplinalg.diagonalize", "total_s"),
        "fplinalg.action_to_presentation.s": span("fplinalg.action_to_presentation", "total_s"),
        "cli.build_parser.s": span("cli.build_parser", "total_s"),
        "cli.dispatch.self_s": span("cli.dispatch", "self_s"),
        "trace.overhead": overhead,
    }
    return {name: float(values[name]) for name, _, _ in LAYER_METRICS}


_PRIME_COUNTS: dict[tuple[int, int], int] = {}


def _prime_count(lo: int, hi: int) -> int:
    if (lo, hi) not in _PRIME_COUNTS:
        _PRIME_COUNTS[(lo, hi)] = sg.primes_between(lo, hi)
    return _PRIME_COUNTS[(lo, hi)]
