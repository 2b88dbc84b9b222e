"""One-off cross-check of the tracer's shares against cProfile.

    python3 perfbench/profile_check.py

Runs two fixed cases under the benchmark's tracer and under cProfile,
and prints the share of the outer call's time spent in the inner one:

- capped closure-grid queries (2,5,4): share of ``apd.closure`` spent in
  ``FreeObject.mul``, expected >= 0.80;
- ``cl_u_finite_index`` on the index-110 Cayley automaton of G(11,10):
  share spent folding in ``Automaton.from_raw``, expected >= 0.75.

Exits non-zero when either share falls below its threshold.  Both
cProfile and the tracer add a cost to every call they see (the tracer
only to the calls it wraps, such as permgroup.compose inside
cl_u_finite_index), so the two shares are close, not equal.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from perfbench import smallgroups as sg  # noqa: E402
from perfbench import trace  # noqa: E402
from perfbench.workloads import SPEC, class_cap  # noqa: E402


def capped_closures():
    from provar import apd
    from provar.errors import CapExceededError
    from provar.stallings import Automaton
    from provar.words import parse

    spec = SPEC["closure-grid"]
    catalog = json.loads((HERE / spec["catalog"]).read_text())
    entries = catalog["classes"]["2,5,4"]["capped"][:3]
    auts = [Automaton.from_generators([parse(w, 2) for w in e["gens"].split(",")], 2) for e in entries]

    def run():
        for aut in auts:
            try:
                apd.closure(aut, 5, 4, cap=class_cap(spec, 2, 5, 4))
            except CapExceededError:
                pass

    return run


def cayley_cl_u():
    from provar import uvar
    from provar.stallings import Automaton

    x, y = sg.gpd_perms(11, 10)
    aut = Automaton.from_action(2, [x, y])
    return lambda: uvar.cl_u_finite_index(aut)


def traced_share(run, outer: str, inner: str, leaf: bool) -> float:
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        run()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    inner_s = tracer.leaves[inner][1] if leaf else summary[inner]["total_s"]
    return inner_s / summary[outer]["total_s"]


def profiled_share(run, outer: str, inner: str) -> float:
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile).stats
    cumulative = {}
    for (_, _, func), (_, _, _, cum, _) in stats.items():
        cumulative[func] = max(cumulative.get(func, 0.0), cum)
    return cumulative[inner] / cumulative[outer]


def main() -> int:
    cases = [
        ("capped (2,5,4) closures: FreeObject.mul / closure", capped_closures(),
         ("apd.closure", "apd.mul", True), ("closure", "mul"), 0.80),
        ("index-110 cl_u_finite_index: from_raw / cl_u_finite_index", cayley_cl_u(),
         ("uvar.cl_u_finite_index", "stallings.from_raw", False), ("cl_u_finite_index", "from_raw"), 0.75),
    ]
    ok = True
    for label, run, (outer, inner, leaf), (p_outer, p_inner), threshold in cases:
        traced = traced_share(run, outer, inner, leaf)
        profiled = profiled_share(run, p_outer, p_inner)
        passed = traced >= threshold and profiled >= threshold
        ok = ok and passed
        print(f"{label}: traced {traced:.3f}, cProfile {profiled:.3f}, "
              f"threshold {threshold:.2f} {'ok' if passed else 'BELOW'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
