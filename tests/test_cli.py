import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from provar import apd, cli
from provar.cli import dispatch
from provar.stallings import Automaton
from provar.words import parse


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_is_in_u_a4(capsys):
    payload = run_json(
        capsys, "is-in-u", "--group",
        '{"degree":4,"generators":[[2,1,4,3],[2,3,1,4]]}',
    )
    assert payload["verdict"] is False
    assert payload["supersolvable"] is False


def test_is_in_u_cayley_table(capsys):
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    payload = run_json(capsys, "is-in-u", "--group",
                       json.dumps({"order": 5, "table": table}))
    assert payload["verdict"] is True


def test_is_in_u_answers_a_group_over_the_cap_whose_derived_subgroup_fits(capsys):
    # C2^18 on 36 points has 262 144 elements, over the default cap; its
    # derived subgroup is trivial, so no element of the group is counted
    swaps = [[v + 1 for v in range(36)] for _ in range(18)]
    for i, g in enumerate(swaps):
        g[2 * i], g[2 * i + 1] = 2 * i + 2, 2 * i + 1
    group = json.dumps({"degree": 36, "generators": swaps})
    payload = run_json(capsys, "is-in-u", "--group", group)
    assert payload == {"verdict": True, "supersolvable": True, "derived_elementary_abelian": True,
                       "derived_witness_prime": None, "sylow_abelian": {"2": True}}
    # so does a cap of 1 000, and supersolvable reads G' the same way
    assert run_json(capsys, "--cap", "1000", "is-in-u", "--group", group) == payload
    assert run_json(capsys, "--cap", "1000", "supersolvable", "--group", group) == {
        "supersolvable": True}


def test_is_in_u_reads_the_order_of_a_group_over_the_cap_off_its_chain(capsys):
    # A5 x C7^2 on 5 + 7 + 7 points has 2 940 elements and G' = A5, a D
    # seed; |G| comes from a stabilizer chain, G' and |G| decide every
    # field, and only G', of order 60, counts against a cap of 1 000
    group = json.dumps({"degree": 19, "generators": [
        [2, 3, 1, 4, 5, 7, 8, 9, 10, 11, 12, 6, 13, 14, 15, 16, 17, 18, 19],
        [2, 3, 4, 5, 1, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 13]]})
    payload = run_json(capsys, "--cap", "5000", "is-in-u", "--group", group)
    assert payload == {"verdict": False, "supersolvable": False,
                       "derived_elementary_abelian": False, "derived_witness_prime": None,
                       "sylow_abelian": {"2": True, "3": True, "5": True, "7": True}}
    assert run_json(capsys, "--cap", "1000", "is-in-u", "--group", group) == payload
    code, out, err = run(capsys, "--cap", "50", "is-in-u", "--group", group)
    assert (code, out) == (3, "") and "cap 50" in err


def test_closure_command(capsys):
    payload = run_json(
        capsys, "closure", "--p", "3", "--d", "2", "--rank", "1", "--gens", "aaaa"
    )
    automaton = Automaton.from_json_dict(payload)
    assert automaton == Automaton.from_generators([parse("aa", 1)], 1)
    assert payload["index"] == 2


def test_closure_folding_agrees(capsys):
    payload = run_json(capsys, "closure", "--p", "3", "--d", "2", "--rank", "2",
                       "--gens", "ab,ba")
    subgroup = Automaton.from_generators([parse("ab", 2), parse("ba", 2)], 2)
    assert Automaton.from_json_dict(payload) == apd.closure_by_folding(subgroup, 3, 2)


def test_closure_takes_d_one_and_refuses_other_non_divisors(capsys):
    payload = run_json(capsys, "closure", "--p", "2", "--d", "1", "--rank", "2", "--gens", "a,bb")
    assert payload["index"] == 2
    code, out, err = run(capsys, "closure", "--p", "7", "--d", "4", "--rank", "1", "--gens", "a")
    assert code == 2 and "error" in err and out == ""


def readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command-line interface")[1].split("```sh")[1].split("```")[0]
    return [line for line in block.splitlines() if line.startswith("provar ")]


def test_readme_cli_examples_exit_zero(capsys, tmp_path, monkeypatch):
    lines = readme_cli_lines()
    assert len(lines) >= 26
    monkeypatch.chdir(tmp_path)  # --dot writes into the working directory
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
        json.loads(out)


def test_metab_witness(capsys):
    payload = run_json(capsys, "metab-witness", "--word", "abAB")
    assert payload["p"] == 3 and payload["q"] == 2
    assert payload["image"] == "x^2"


def test_metab_equal(capsys):
    payload = run_json(capsys, "metab-equal", "--u", "ab", "--v", "ba")
    assert payload["equal"] is False


def test_stallings_and_index(capsys):
    payload = run_json(capsys, "stallings", "--rank", "2", "--gens", "aa,ab")
    assert payload["vertices"] == 2
    payload = run_json(capsys, "index", "--rank", "2", "--gens", "a,b")
    assert payload["index"] == 1
    payload = run_json(capsys, "index", "--rank", "2", "--gens", "a")
    assert payload["index"] is None


def test_join_intersect(capsys):
    payload = run_json(capsys, "join", "--rank", "1", "--left", "aa", "--right", "aaa")
    assert payload["index"] == 1
    payload = run_json(capsys, "intersect", "--rank", "1", "--left", "aa",
                       "--right", "aaa")
    assert Automaton.from_json_dict(payload) == Automaton.from_generators(
        [parse("a^6", 1)], 1
    )


def test_status_and_u_commands(capsys):
    payload = run_json(capsys, "status", "--p", "3", "--d", "2", "--rank", "1",
                       "--gens", "aa")
    assert payload == {"closed": True, "dense": False, "index_of_closure": 2}

    payload = run_json(capsys, "is-u-closed", "--rank", "1", "--gens", "a^6")
    assert payload["u_closed"] is True

    payload = run_json(capsys, "cl-u", "--rank", "1", "--gens", "a^6")
    assert payload["index"] == 6

    payload = run_json(capsys, "cl-u-approx", "--rank", "1", "--gens", "aa",
                       "--primes", "3,5")
    assert payload["exact"] is True and payload["index"] == 2

    payload = run_json(capsys, "not-fg-cert", "--rank", "2", "--gens", "a")
    assert payload["vanishing_coordinate"] == 2

    payload = run_json(capsys, "u-density", "--rank", "2", "--gens", "a,b",
                       "--bound", "3")
    assert payload["necessary_ok"] is True


def test_gpd_commands(capsys):
    payload = run_json(capsys, "gpd", "--p", "3", "--d", "2")
    assert payload == {"p": 3, "d": 2, "q": 2, "order": 6, "x_order": 3, "y_order": 2}

    payload = run_json(capsys, "gpd-iso", "--p", "7", "--d", "3", "--q", "2", "--r", "4")
    assert payload == {"m": 2, "k": 2}

    payload = run_json(capsys, "q-sets", "--p", "7", "--d", "3")
    assert payload == {"q_set": [1, 2, 4], "q_prime_set": [2, 4]}

    payload = run_json(capsys, "find-pr-prime", "--q", "2", "--lower", "10")
    assert payload["p"] == 11 and payload["order_check"] == 10


def test_free_object_command(capsys, tmp_path):
    dot_file = tmp_path / "cayley.dot"
    payload = run_json(capsys, "free-object", "--n", "1", "--p", "3", "--d", "2",
                       "--dot", str(dot_file))
    assert payload["order"] == 6
    assert "digraph" in dot_file.read_text()


def test_free_object_order_needs_no_enumeration(capsys, monkeypatch):
    def refuse(self, cap):
        raise AssertionError("free object enumerated without --dot")

    monkeypatch.setattr(apd.FreeObject, "materialize", refuse)
    payload = run_json(capsys, "free-object", "--n", "2", "--p", "7", "--d", "6", "--cap", "1000")
    assert payload == {"n": 2, "p": 7, "d": 6, "order": 7 ** (36 + 1) * 36}
    # the free object's own budget still refuses before any table is built
    code, out, err = run(capsys, "free-object", "--n", "6", "--p", "11", "--d", "10")
    assert code == 3 and out == ""


def test_diagonalize_command(capsys):
    payload = run_json(capsys, "diagonalize", "--p", "3", "--matrix", "[[0,1],[1,0]]")
    assert sorted(payload["eigenvalues"]) == [1, 2]


def test_action_to_presentation_command(capsys):
    payload = run_json(capsys, "action-to-presentation", "--p", "3", "--d", "2",
                       "--matrices", "[[[2,0],[0,2]]]", "--orders", "2")
    assert payload["exponents"] == [[2], [2]]


def test_decompose_command(capsys):
    payload = run_json(capsys, "decompose", "--p", "3", "--d", "2",
                       "--exponents", "[[2],[2]]", "--orders", "2")
    assert payload["factors"] == ["gpd", "gpd"]
    assert payload["injective"] is True and payload["image_order"] == 18


def test_bs_commands(capsys):
    payload = run_json(capsys, "bs-eval", "--q", "2", "--word", "Bab")
    assert payload == {"numerator": 1, "denominator_exponent": 1, "j": 0,
                       "trivial": False}

    payload = run_json(capsys, "bs-witness", "--q", "2", "--word", "Bab")
    assert payload["p"] == 3 and payload["image"] == "x^2"


def test_dot_output(capsys, tmp_path):
    dot_file = tmp_path / "aut.dot"
    code, out, err = run(capsys, "stallings", "--rank", "2", "--gens", "ab",
                         "--dot", str(dot_file))
    assert code == 0
    assert "doublecircle" in dot_file.read_text()
    assert out == run(capsys, "stallings", "--rank", "2", "--gens", "ab")[1]

    code, out, err = run(capsys, "stallings", "--rank", "2", "--gens", "ab",
                         "--dot", str(tmp_path / "missing" / "aut.dot"))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_dot_is_rendered_only_when_asked(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("DOT rendered without --dot")

    monkeypatch.setattr(Automaton, "to_dot", refuse)
    for argv in (["stallings", "--rank", "2", "--gens", "ab"],
                 ["closure", "--p", "3", "--d", "2", "--rank", "1", "--gens", "a"],
                 ["free-object", "--n", "1", "--p", "3", "--d", "2"]):
        run_json(capsys, *argv)


def test_json_round_trip_through_cli(capsys):
    payload = run_json(capsys, "stallings", "--rank", "2", "--gens", "aab,aba")
    original = Automaton.from_generators([parse("aab", 2), parse("aba", 2)], 2)
    assert Automaton.from_json_dict(payload) == original


def test_validation_errors(capsys):
    code, out, err = run(capsys, "stallings", "--rank", "2", "--gens", "xyz!")
    assert code == 2 and "error" in err

    code, out, err = run(capsys, "gpd", "--p", "8", "--d", "2")
    assert code == 2

    code, out, err = run(capsys, "unknown-command")
    assert code == 2

    code, out, err = run(capsys, "is-in-u", "--group", "not json")
    assert code == 2


@pytest.mark.parametrize("group, code", [
    ('{"degree": 1000000, "generators": [[1]]}', 2),
    ('{"degree": 300000, "generators": []}', 3),
])
def test_a_json_degree_is_checked_before_it_is_allocated(capsys, group, code):
    run(capsys, "is-in-u", "--group", S3)  # builds the parser outside the trace
    tracemalloc.start()
    try:
        result = run(capsys, "is-in-u", "--group", group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[0] == code and result[1] == ""
    assert peak < 1_000_000


def test_budget_errors_exit_three(capsys, tmp_path):
    code, out, err = run(capsys, "free-object", "--n", "2", "--p", "7", "--d", "6",
                         "--cap", "1000", "--dot", str(tmp_path / "cayley.dot"))
    assert code == 3 and not (tmp_path / "cayley.dot").exists()

    code, out, err = run(capsys, "--cap", "0", "find-pr-prime", "--q", "2",
                         "--lower", "3")
    assert code == 3


def test_deterministic_output(capsys):
    first = run_json(capsys, "stallings", "--rank", "2", "--gens", "ab,ba")
    second = run_json(capsys, "stallings", "--rank", "2", "--gens", "ab,ba")
    assert first == second


S3 = '{"degree":3,"generators":[[2,1,3],[2,3,1]]}'


def test_consecutive_requests_share_the_parser(capsys, monkeypatch):
    requests = [
        (("supersolvable", "--group", S3, "--cap", "1"), 3),
        (("supersolvable", "--group", S3), 0),
        (("--cap", "1", "is-in-u", "--group", S3), 3),
        (("is-in-u", "--group", S3), 0),
        (("gpd", "--p", "7"), 2),
        (("gpd", "--p", "7", "--d", "3"), 0),
        (("bs-eval", "--q", "2", "--word", "a^1000000000000"), 3),
        (("bs-eval", "--q", "3", "--word", "Ba^2bA"), 0),
        (("find-pr-prime", "--q", "2", "--lower", "100", "--cap", "0"), 3),
        (("find-pr-prime", "--q", "2", "--lower", "100"), 0),
    ]
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    monkeypatch.setattr(cli, "_PARSER", None)
    shared = [run(capsys, *argv) for argv, _ in requests]
    assert len(built) == 1
    for (argv, code), result in zip(requests, shared):
        monkeypatch.setattr(cli, "_PARSER", build())
        assert result == run(capsys, *argv)
        assert result[0] == code, (argv, result)
        if code == 0:
            json.loads(result[1])


def test_import_does_not_build_the_parser():
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import provar.cli as c; print(c._PARSER)"],
        env={"PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "None"


@pytest.mark.parametrize("argv", [
    *(["diagonalize", "--p", "3", "--matrix", m] for m in ["[]", "5", "[1,2]", "{}", '[["a"]]']),
    *(["action-to-presentation", "--p", "3", "--d", "2", "--matrices", m, "--orders", "2"]
      for m in ["5", "[5]", "[[]]"]),
    ["decompose", "--p", "3", "--d", "2", "--exponents", '[["a"]]', "--orders", "2"],
    *(["is-in-u", "--group", g] for g in [
        "5", '{"order":2,"table":5}', '{"order":2,"table":[[0,"x"],[1,0]]}',
        '{"degree":2,"generators":5}']),
    ["supersolvable", "--group", "[]"],
])
def test_json_arguments_of_the_wrong_shape_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: ")


TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_transcript_is_pinned():
    """Exit code, stdout and stderr of every recorded request, byte for byte.

    Run ``python tests/test_cli.py`` to record the transcript again after
    a deliberate output change."""
    transcript = json.loads(TRANSCRIPT.read_text())
    assert len(transcript) >= 60
    for entry in transcript:
        assert replay(entry["argv"]) == entry, entry["argv"]


OPTIMIZED_REPLAY = """
import contextlib, io, json, sys
from provar.cli import dispatch
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    results.append([code, out.getvalue()])
json.dump({"optimize": sys.flags.optimize, "results": results}, sys.stdout)
"""


def test_cli_transcript_replays_under_python_O():
    """The verdicts rest on checks that raise, not on ``assert``: the
    closure, status, cl-u, cl-u-approx, is-u-closed, u-density, is-in-u,
    supersolvable, decompose, gpd-iso, diagonalize, action-to-presentation
    and metab-witness entries give the same exit code and stdout, byte for
    byte, under ``python -O``."""
    commands = {"closure", "status", "cl-u", "cl-u-approx", "is-u-closed", "u-density", "is-in-u",
                "supersolvable", "decompose", "gpd-iso", "diagonalize", "action-to-presentation",
                "metab-witness"}
    entries = [e for e in json.loads(TRANSCRIPT.read_text()) if e["argv"][0] in commands]
    assert {e["argv"][0] for e in entries} == commands
    answered = [e["argv"] for e in entries if e["code"] == 0]
    for argv in (["status", "--p", "41", "--d", "40", "--rank", "2", "--gens", "a,b"],
                 ["status", "--p", "7", "--d", "6", "--rank", "4", "--gens", "abAB,cdd,aCb,bbd"],
                 ["u-density", "--rank", "3", "--gens", "a,b,c", "--bound", "11"],
                 ["u-density", "--rank", "2", "--gens", "a,b", "--bound", "100"],
                 ["u-density", "--rank", "2", "--gens", "aa,b", "--bound", "100"],
                 ["status", "--p", "65537", "--d", "65536", "--rank", "1", "--gens", "a^65536"],
                 ["is-u-closed", "--rank", "1", "--gens", ""],
                 ["cl-u", "--rank", "1", "--gens", ""]):
        assert argv in answered
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_REPLAY],
                          input=json.dumps([e["argv"] for e in entries]), capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    replayed = json.loads(proc.stdout)
    assert replayed["optimize"] == 1
    assert replayed["results"] == [[e["code"], e["stdout"]] for e in entries]


@pytest.mark.parametrize("module", ["provar", "provar.cli"])
def test_python_dash_m_runs_the_command_line(module):
    # both module entry points answer as dispatch does: an answer, a
    # refusal over the cap (exit 3) and a malformed argument (exit 2)
    a4 = '{"degree":4,"generators":[[2,1,4,3],[2,3,1,4]]}'
    requests = [["is-in-u", "--group", a4], ["supersolvable", "--group", a4],
                ["--cap", "2", "is-in-u", "--group", a4], ["is-in-u", "--group", "[]"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in requests:
        proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        expected = replay(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (expected["code"], expected["stdout"], expected["stderr"]), argv
    assert [replay(argv)["code"] for argv in requests] == [0, 0, 3, 2]
    assert json.loads(replay(requests[0])["stdout"])["verdict"] is False


if __name__ == "__main__":
    entries = [replay(entry["argv"]) for entry in json.loads(TRANSCRIPT.read_text())]
    TRANSCRIPT.write_text(json.dumps(entries, indent=1) + "\n")
