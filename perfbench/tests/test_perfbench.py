"""Tests of the benchmark itself: seeded generation, oracles and tracing."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import oracles, trace, workloads  # noqa: E402
from perfbench.oracles import KNOWN_DEFECT, OK, Oracle  # noqa: E402


@pytest.fixture(autouse=True)
def few_rounds(monkeypatch):
    for name in workloads.WORKLOADS:
        monkeypatch.setitem(workloads.ROUNDS, name, 2)


def run_item(workload, item_index, data):
    return workloads.setup(workload, data)[item_index]()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = json.dumps(workloads.generate(workload, 7), sort_keys=True)
    assert json.dumps(workloads.generate(workload, 7), sort_keys=True) == first
    assert json.dumps(workloads.generate(workload, 8), sort_keys=True) != first


def test_closure_oracle_rejects_an_altered_key():
    data = workloads.generate("closure-grid", 3)
    index = next(i for i, it in enumerate(data["items"]) if not it.get("capped") and it["index"] > 1)
    item = data["items"][index]
    answer = run_item("closure-grid", index, data)
    oracle = Oracle("closure-grid")
    assert oracle.check(item, answer) == OK
    assert oracle.check({**item, "digest": "0" * 16}, answer) != OK
    assert oracle.check({**item, "capped": True}, answer) != OK


def test_u_oracle_rejects_a_flipped_verdict_and_names_the_known_defect():
    data = workloads.generate("u-closure", 3)
    oracle = Oracle("u-closure")
    verdicts = [it for it in data["items"] if it["op"] != "cl_u_finite_index"]
    assert any(it["multi_prime"] for it in verdicts) and any(not it["in_u"] for it in verdicts)
    for item in verdicts:
        assert oracle.check(item, item["in_u"]) == OK
        flipped = oracle.check(item, not item["in_u"])
        if item["multi_prime"]:
            assert flipped == KNOWN_DEFECT
        else:
            assert flipped not in (OK, KNOWN_DEFECT)


def test_u_oracle_checks_closure_index():
    data = workloads.generate("u-closure", 4)
    index = next(i for i, it in enumerate(data["items"])
                 if it["op"] == "cl_u_finite_index" and it["factors"] == ["S4"])
    item = data["items"][index]
    answer = run_item("u-closure", index, data)
    oracle = Oracle("u-closure")
    assert oracle.check(item, answer) == OK
    assert oracle.check({**item, "in_u": True}, answer) not in (OK, KNOWN_DEFECT)


@pytest.mark.parametrize("kind", ["metab-witness", "metab-witness-theta", "bs-witness"])
def test_cli_oracle_rejects_a_corrupted_witness_exponent(kind):
    data = workloads.generate("cli-mix", 5)
    index = next(i for i, it in enumerate(data["items"]) if it["kind"] == kind)
    item = data["items"][index]
    code, out = run_item("cli-mix", index, data)
    oracle = Oracle("cli-mix")
    assert oracle.check(item, (code, out)) == OK
    payload = json.loads(out)
    payload["image_parts"]["x_exponent"] = (payload["image_parts"]["x_exponent"] + 1) % payload["p"]
    assert oracle.check(item, (0, json.dumps(payload))) != OK
    assert oracle.check(item, (2, "")) != OK


def test_cli_oracle_rejects_a_wrong_prime_and_a_wrong_index():
    data = workloads.generate("cli-mix", 6)
    oracle = Oracle("cli-mix")
    ops = workloads.setup("cli-mix", data)
    for kind, field in (("find-pr-prime", "p"), ("index", "index"), ("status", "index_of_closure")):
        index = next(i for i, it in enumerate(data["items"]) if it["kind"] == kind)
        code, out = ops[index]()
        assert oracle.check(data["items"][index], (code, out)) == OK
        payload = json.loads(out)
        payload[field] += 2
        assert oracle.check(data["items"][index], (0, json.dumps(payload))) != OK


def test_every_cli_answer_passes_the_oracle():
    data = workloads.generate("cli-mix", 9)
    oracle = Oracle("cli-mix")
    ops = workloads.setup("cli-mix", data)
    for item, op in zip(data["items"], ops):
        assert oracle.check(item, op()) == OK, item["kind"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_toy_call_tree():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def leaf():
        clock.now += 1.0

    def inner():
        clock.now += 2.0
        leaf_t()

    def outer():
        clock.now += 3.0
        inner_t()
        leaf_t()
        inner_t()

    leaf_t = tracer.wrap(leaf, "leaf", leaf=True)
    inner_t = tracer.wrap(inner, "inner")
    outer_t = tracer.wrap(outer, "outer")
    outer_t()

    summary = tracer.summary()
    # outer: 3 own + 2 x (2 + 1) inner + 1 leaf = 10
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 4.0}
    assert tracer.leaves["leaf"] == [3, 3.0]
    assert [s[trace.PARENT] for s in tracer.spans] == [None, 0, 0]


def test_recursive_spans_count_total_time_once():
    clock = FakeClock()
    tracer = trace.Tracer(clock)

    def rec(depth):
        clock.now += 1.0
        if depth:
            rec_t(depth - 1)

    rec_t = tracer.wrap(rec, "rec")
    rec_t(2)
    assert tracer.summary()["rec"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}


def test_install_wraps_imported_names_and_uninstall_restores_them():
    from provar import apd, metabelian, numtheory

    before = (numtheory.find_pr_prime, metabelian.find_pr_prime, apd.FreeObject.__dict__["mul"])
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        assert metabelian.find_pr_prime is numtheory.find_pr_prime is not before[0]
        apd.closure(apd.Automaton.from_generators([apd.Word((1,), 1)], 1), 3, 2)
        assert tracer.leaves["apd.mul"][0] > 0 and tracer.counts["apd.cosets"] == 1
    finally:
        tracer.uninstall()
    after = (numtheory.find_pr_prime, metabelian.find_pr_prime, apd.FreeObject.__dict__["mul"])
    assert after == before


def test_pre_map_steps_match_provar():
    from provar.metabelian import PreMap
    from provar.words import Word

    letters = [1, 2, -1, 2, 2, -1, -2]
    for steps in ((("swap",),), (("shift", 2),), (("theta", 3),), (("shift", 1), ("theta", 4))):
        expected = PreMap(steps).apply(Word(tuple(letters), 2)).letters
        text = PreMap(steps).describe()
        got = letters
        for step in text.split(";"):
            got = oracles._pre_map_step(step, got)
        assert tuple(got) == expected


def test_run_loop_runs_a_fixed_number_of_whole_rounds():
    from perfbench import run

    calls, betweens = [], []
    ops = [lambda i=i: calls.append(i) or i for i in range(3)]
    rounds = [[0, 1], [2]]
    latencies, starts, elapsed, items, first, differs = run.run_loop(
        ops, rounds, n_rounds=3, between=lambda: betweens.append(len(calls)))
    assert items == calls == [0, 1, 2, 0, 1]
    assert betweens == [2, 3, 5]
    assert len(latencies) == len(starts) == 5 and elapsed >= sum(latencies)
    assert first == {0: 0, 1: 1, 2: 2} and not differs

    calls.clear()
    _, _, _, items, _, _ = run.run_loop(ops, rounds, seconds=1e-9)
    assert items == [0, 1]  # stops only after a whole round


def test_speed_samples_when_due_and_takes_the_median_near_a_span(monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "REF_TABLE_WORDS", 1 << 10)
    now = [0.0]
    speed = run.Speed(clock=lambda: now[0])
    ops = [lambda: now.__setitem__(0, now[0] + 0.03)]
    _, starts, _, _, _, _ = run.run_loop(ops, [[0] * 6], n_rounds=1, speed=speed)
    # an op takes 0.03 s and the kernel no clock time, so a sample follows
    # the first op and then every second one
    assert len(starts) == 6
    assert speed.times == pytest.approx([0.03, 0.09, 0.15])

    nominal = run.REF_NOMINAL_S
    speed.times = [0.0, 1.0, 2.0, 2.2, 2.4, 2.6, 5.0]
    speed.samples = [nominal * k for k in (9, 9, 1, 2, 2, 2, 9)]
    assert speed.slowdown(2.1, 2.3) == 2.0  # the four samples within 0.5 s
    assert speed.slowdown(0.5, 0.5) == 9.0  # widened to the three nearest
    assert speed.slowdown(6.0, 7.0) == 2.0  # the nearest are 9, 2 and 2


def test_closure_grid_draws_each_stratum_without_replacement():
    gen = workloads._ClosureGrid(__import__("random").Random(1), workloads.SPEC["closure-grid"])
    pool = gen.catalog["classes"]["2,5,4"]["small"]
    drawn = [gen._draw("2,5,4", "small") for _ in range(len(pool))]
    assert sorted(map(json.dumps, drawn)) == sorted(map(json.dumps, pool))
