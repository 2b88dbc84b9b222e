"""Record the closure-grid catalog: seeded subgroups with their expected closures.

Run once from the repository root (it takes a few minutes):

    python3 perfbench/make_catalog.py

For every (n, p, d) class of the grid it draws random subgroups of the
acceptance-test shape from a fixed master seed, computes the closure
with the benchmark's coset cap and records the outcome: the closure's
index and a digest of its canonical key, or "capped" when the closure
needs more cosets than the cap allows.  Where the free object fits the
folding limit, every recorded closure is first cross-checked against
``closure_by_folding``; a disagreement aborts the run.  The benchmark
draws its closure-grid inputs from this catalog, so that every input
has an expected answer even where no second route can compute one.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from perfbench import smallgroups as sg  # noqa: E402
from perfbench.workloads import SPEC, key_digest, random_subgroup_text  # noqa: E402


def stratum(outcome: dict, small_index: int) -> str:
    if outcome.get("capped"):
        return "capped"
    return "small" if outcome["index"] <= small_index else "large"


_FREE_OBJECTS: dict = {}


def closure_outcome(gens: str, n: int, p: int, d: int, cap: int, fold_limit: int) -> dict:
    from provar import apd
    from provar.errors import CapExceededError
    from provar.stallings import Automaton
    from provar.words import parse

    aut = Automaton.from_generators([parse(w, n) for w in gens.split(",")], n)
    try:
        cl = apd.closure(aut, p, d, cap=cap)
    except CapExceededError:
        return {"gens": gens, "capped": True}
    if (n, p, d) not in _FREE_OBJECTS:
        _FREE_OBJECTS[(n, p, d)] = apd.FreeObject(n, p, d)
    fobj = _FREE_OBJECTS[(n, p, d)]
    if fobj.order_formula <= fold_limit and apd.closure_by_folding(aut, p, d, fobj=fobj) != cl:
        raise SystemExit(f"closure routes disagree on {gens} for {(n, p, d)}")
    return {"gens": gens, "index": cl.n_vertices, "digest": key_digest(cl.key)}


def main() -> None:
    spec = SPEC["closure-grid"]
    cap, limit, small = spec["coset_cap"], spec["folding_order_limit"], spec["small_index"]
    quota = spec["catalog_quota"]
    shape = spec["subgroup_shape"]
    catalog: dict = {"cap": cap, "classes": {}, "cayley": {}}
    for n, p, d in spec["grid"]:
        name = f"{n},{p},{d}"
        rng = random.Random(f"{spec['catalog_master_seed']}:{name}")
        entries: dict[str, list] = {s: [] for c, s, _ in spec["round"] if c == name}
        seen = set()
        for _ in range(quota["attempts"]):
            gens = random_subgroup_text(rng, n, shape["max_gens"], shape["max_len"])
            if gens in seen:
                continue
            seen.add(gens)
            outcome = closure_outcome(gens, n, p, d, cap, limit)
            kind = stratum(outcome, small)
            if kind in entries and len(entries[kind]) < quota[kind]:
                entries[kind].append(outcome)
            if all(len(entries[k]) >= quota[k] for k in entries):
                break
        catalog["classes"][name] = entries
        print(name, {k: len(v) for k, v in entries.items()}, flush=True)
    for p, d in spec["cayley"] + spec["cayley_once"]:
        x, y = sg.gpd_perms(p, d)
        _, targets, words = sg.schreier_graph([x, y], sg.identity(len(x)), sg.mul)
        gens = ",".join(sg.to_text(w) for w in sg.schreier_basis(targets, words))
        catalog["cayley"][f"{p},{d}"] = closure_outcome(gens, 2, p, d, cap, limit)
    path = HERE / spec["catalog"]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(catalog, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
