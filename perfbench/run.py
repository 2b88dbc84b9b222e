"""provar's benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload closure-grid --seed 1 --seconds 30 --trace 0

One client in one process sends the next operation only after the
previous one returns (closed loop, no threads).  The run builds its
inputs from the seed, sets up provar's objects (timed as setup_s),
runs whole rounds of its schedule until the given seconds are up (so a
run measures a little longer than asked), then checks every answer
with the oracles.  It prints one line per metric and, as its last line,
a JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Every time is reported at a fixed reference speed of the machine.  The
shared machine the benchmark runs on changes its speed by up to 1.8x
within seconds, in CPU time as well as wall time, and from one run to
the next; that alone would spread the runs of one program wider than
the bounds.  So the run times a fixed reference kernel, independent of
provar, at least every REF_EVERY_S seconds between operations: pure
Python reads at pseudo-random places in a table larger than the
processor's caches, the kind of work provar's dicts and tuples do.
Each measured time is divided by the machine's slowdown while it ran:
the median kernel time of the samples taken within REF_NEAR_S of it
(at least REF_MIN_SAMPLES, the nearest ones if fewer), over
REF_NOMINAL_S.  The kernel runs outside every timed region.  The
unscaled figures and the median slowdown are printed before the result
line.

ops_per_s is the ops completed over the scaled time spent in them.
setup_s is the median over SETUP_REPEATS set-ups, each timed as
building the operations plus importing provar in a fresh interpreter
(the fastest of a few imports), and scaled like an operation.  The
set-ups are spread over the run: a few before the first round, then
one after each round, outside the measured time, and any that are left
after the last round.

A traced run does a fixed amount of work whatever the clock says: the
first "trace_rounds" rounds of the schedule (spec.json) once untraced
and once traced.  So its per-layer counts and times depend on the seed
and on provar, not on how many rounds fit into the time; the given
seconds do not apply to it.  trace.overhead is traced over untraced
ops per second on that same work.

"correct" is false when an answer fails for any reason other than the
documented multi-prime U-membership defect; answers of that defect
still count in "failed".
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
SETUP_BEFORE = 3
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
REF_EVERY_S = 0.05
REF_NEAR_S = 0.5
REF_MIN_SAMPLES = 3
REF_TABLE_WORDS = 1 << 22  # 16 MiB of 32-bit words
REF_READS = 10000
# about the kernel's median time on a shared 2-vCPU Intel Xeon VM with Python 3.11
REF_NOMINAL_S = 0.003

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]


def import_seconds() -> float:
    """Time to import provar in a fresh interpreter: the fastest of
    IMPORT_SAMPLES imports."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import provar, provar.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=60)
        samples.append(float(done.stdout))
    return min(samples)


def reference_kernel(table) -> int:
    """REF_READS reads at pseudo-random places in ``table``: fixed work,
    so its time tracks how fast the machine runs the interpreter and
    reaches memory just then."""
    mask = len(table) - 1
    total = 0
    j = 12345
    for _ in range(REF_READS):
        j = (j * 1103515245 + 12345) & mask
        total += table[j]
    return total


class Speed:
    """Reference-kernel samples taken through a run, and the machine's
    slowdown they give.  ``table_kb`` is what the kernel's table adds to
    the peak resident memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.table = array.array("i", range(REF_TABLE_WORDS))
        self.table_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = self.clock()
        reference_kernel(self.table)
        t1 = self.clock()
        self.times.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def due(self) -> None:
        """Sample if REF_EVERY_S have passed since the last sample."""
        if not self.times or self.clock() - self.times[-1] >= REF_EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """The machine's slowdown against REF_NOMINAL_S from ``start`` to
        ``end``: the median of the samples within REF_NEAR_S of that
        span, widened to the nearest REF_MIN_SAMPLES."""
        lo = bisect.bisect_left(self.times, start - REF_NEAR_S)
        hi = bisect.bisect_right(self.times, end + REF_NEAR_S)
        while hi - lo < min(REF_MIN_SAMPLES, len(self.times)):
            if lo > 0 and (hi == len(self.times) or start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi]) / REF_NOMINAL_S


def run_loop(ops, rounds, seconds: float | None = None, n_rounds: int | None = None,
             between=None, speed: Speed | None = None):
    """Closed loop over whole rounds (cycled if needed) until the given
    seconds of rounds are done, or over exactly ``n_rounds`` rounds when
    that is given.  ``between()``, if given, runs after each round,
    outside the measured time; ``speed``, if given, samples the
    reference kernel between ops when due.

    Stopping only between rounds keeps the mix of every run the same.
    Returns per-op latencies and start times, the seconds spent in
    rounds, the item of each op, the first answer per item, and the op
    positions whose answer differed from the item's first answer.
    """
    latencies: list[float] = []
    starts: list[float] = []
    elapsed = 0.0
    items: list[int] = []
    first: dict[int, object] = {}
    differs: set[int] = set()
    clock = time.perf_counter
    r = 0
    while (r < n_rounds) if n_rounds is not None else (elapsed < seconds):
        round_start = clock()
        for item in rounds[r % len(rounds)]:
            t0 = clock()
            try:
                answer = ops[item]()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                answer = exc
            latencies.append(clock() - t0)
            starts.append(t0)
            if speed is not None:
                speed.due()
            if item not in first:
                first[item] = answer
            elif not _same(first[item], answer):
                differs.add(len(items))
            items.append(item)
        elapsed += clock() - round_start
        r += 1
        if between is not None:
            between()
    return latencies, starts, elapsed, items, first, differs


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return repr(a) == repr(b)
    return a == b


def tail(latencies):
    """(value, percentile, samples beyond) for the highest percentile
    with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def check(oracle, items, positions, first, differs):
    """Oracle verdict per op: (failed, unexpected, failure kinds)."""
    from perfbench.oracles import KNOWN_DEFECT, OK

    verdict = {item: oracle.check(items[item], answer) for item, answer in first.items()}
    failed = unexpected = 0
    kinds: dict[str, int] = {}
    for pos, item in enumerate(positions):
        result = "answer differs from an earlier run of the same input" if pos in differs else verdict[item]
        if result == OK:
            continue
        failed += 1
        unexpected += result != KNOWN_DEFECT
        kinds[result] = kinds.get(result, 0) + 1
    return failed, unexpected, kinds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "provar" / "__init__.py").is_file():
        print(f"error: provar sources not found under {SRC}", file=sys.stderr)
        return 2
    # made before anything large, so that its table's share of the peak
    # resident memory can be measured and left out
    speed = None if args.trace else Speed()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    data = workloads.generate(args.workload, args.seed)

    import provar

    if Path(provar.__file__).resolve().parent != SRC / "provar":
        print(f"error: imported provar from {provar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.oracles import Oracle

    setups: list[tuple[float, float, float]] = []

    def timed_setup():
        if len(setups) < SETUP_REPEATS:
            speed.sample()
            t0 = time.perf_counter()
            built = workloads.setup(args.workload, data)
            seconds = time.perf_counter() - t0 + import_seconds()
            setups.append((seconds, t0, time.perf_counter()))
            speed.sample()
            return built

    ops = workloads.setup(args.workload, data) if args.trace else timed_setup()
    rounds = data["rounds"]

    oracle = Oracle(args.workload)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        from perfbench import trace

        n_rounds = workloads.SPEC[args.workload]["trace_rounds"]
        lat_u, _, secs_u, pos_u, first_u, diff_u = run_loop(ops, rounds, n_rounds=n_rounds)
        tracer = trace.Tracer()
        trace.install(tracer)
        try:
            lat_t, _, secs_t, pos_t, first_t, diff_t = run_loop(ops, rounds, n_rounds=n_rounds)
        finally:
            tracer.uninstall()
        overhead = secs_u / secs_t
        values = trace.layer_metrics(tracer, overhead)
        units = {name: unit for name, unit, _ in trace.LAYER_METRICS}
        results = [check(oracle, data["items"], pos_u, first_u, diff_u),
                   check(oracle, data["items"], pos_t, first_t, diff_t)]
        attempted = len(lat_u) + len(lat_t)
    else:
        for _ in range(SETUP_BEFORE - 1):
            timed_setup()
        raw, starts, _, positions, first, differs = run_loop(
            ops, rounds, args.seconds, between=timed_setup, speed=speed)
        while len(setups) < SETUP_REPEATS:
            timed_setup()
        peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - speed.table_kb) / 1024
        results = [check(oracle, data["items"], positions, first, differs)]
        attempted = len(raw)
        slowdowns = [speed.slowdown(t0, t0 + t) for t0, t in zip(starts, raw)]
        latencies = [t / s for t, s in zip(raw, slowdowns)]
        value, pct, beyond = tail(latencies)
        print(f"unscaled: setup_s {statistics.median(t for t, _, _ in setups):.6g} s, "
              f"ops_per_s {attempted / sum(raw):.6g} 1/s, latency_p50_ms {1000 * statistics.median(raw):.6g} ms, "
              f"latency_tail_ms {1000 * tail(raw)[0]:.6g} ms; median slowdown {statistics.median(slowdowns):.4f} "
              f"over {len(speed.samples)} reference samples")
        values = {
            "setup_s": statistics.median(t / speed.slowdown(t0, t1) for t, t0, t1 in setups),
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * value,
            "ok_rate": (attempted - results[0][0]) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        print(f"latency_tail is p{pct:.2f} of {attempted} ops ({beyond} samples beyond it)")
    failed = sum(r[0] for r in results)
    unexpected = sum(r[1] for r in results)
    print(f"fail_rate {failed / attempted:.6f} ratio ({failed} of {attempted} ops failed, "
          f"{unexpected} not explained by the known defect)")
    kinds: dict[str, int] = {}
    for result in results:
        for kind, count in result[2].items():
            kinds[kind] = kinds.get(kind, 0) + count
    for kind, count in sorted(kinds.items()):
        print(f"  failure x{count}: {kind}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
