"""Command-line interface: one JSON object per invocation on stdout.

Exit codes: 0 on success, 2 on invalid input (an unwritable ``--dot``
file included), 3 when a search budget or enumeration cap is exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import apd, bs, fplinalg, metabelian, numtheory, uvar
from .errors import BudgetExhaustedError, CapExceededError
from .permgroup import PermGroup
from .stallings import Automaton
from .words import parse as parse_word


def _parse_gens(text: str, rank: int):
    return [parse_word(part, rank) for part in text.split(",") if part.strip()]


def _automaton_arg(args) -> Automaton:
    return Automaton.from_generators(_parse_gens(args.gens, args.rank), args.rank)


def _int_array(value, depth: int, name: str):
    """``value`` if it is a JSON array nested ``depth`` deep, with no empty
    array and an integer at every leaf; ValueError otherwise."""
    def fits(v, k):
        if k == 0:
            return type(v) is int
        return isinstance(v, list) and bool(v) and all(fits(x, k - 1) for x in v)

    if not fits(value, depth):
        raise ValueError(f"{name} must be a JSON array of integers nested {depth} deep, "
                         "with no empty array")
    return value


def _group_arg(args, cap) -> PermGroup:
    """{"order": n, "table": rows} for a Cayley table, or {"degree": n,
    "generators": rows} for permutations; no generators is the trivial group."""
    data = json.loads(args.group)
    if not isinstance(data, dict):
        raise ValueError("group must be a JSON object")
    size, rows = ("order", "table") if "table" in data else ("degree", "generators")
    if type(data[size]) is not int:
        raise ValueError(f"{size} must be an integer")
    if data[rows] != []:
        _int_array(data[rows], 2, rows)
    if rows == "table":
        return PermGroup.from_cayley_table(data["order"], data["table"], cap=cap)
    return PermGroup.from_json_dict(data, cap=cap)


def _capped_d(args, cap) -> int:
    """``--d``, refused over the cap before d roots, powers or discrete
    logs are formed."""
    if args.d > cap:
        raise CapExceededError(f"d = {args.d} exceeds the cap {cap}")
    return args.d


def _write_dot(path: str, aut: Automaton) -> None:
    with open(path, "w") as handle:
        handle.write(aut.to_dot())


def _aut_payload(aut: Automaton, args) -> dict:
    """The automaton's JSON form and index; its DOT form goes to the
    ``--dot`` file when one is given."""
    if args.dot:
        _write_dot(args.dot, aut)
    payload = aut.to_json_dict()
    payload["index"] = aut.index()
    return payload


def _image_payload(image) -> dict:
    """A separating image x^u y^t, as text and as its two exponents."""
    return {"image": apd.format_gpd_element(image),
            "image_parts": {"x_exponent": image.u, "y_exponent": image.t}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="provar",
        description="pro-V topology computations on subgroups of free groups",
    )
    parser.add_argument("--cap", type=int, default=apd.DEFAULT_CAP,
                        help="enumeration cap for groups and coset counts")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--cap", type=int, default=argparse.SUPPRESS)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[shared], **kwargs)
        return p

    def add_subgroup_args(p):
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--gens", required=True,
                       help="comma-separated words, e.g. 'ab,aB,b^3'")

    p = add("stallings", help="Stallings automaton of a subgroup")
    add_subgroup_args(p)
    p.add_argument("--dot")

    p = add("index", help="index and a free basis")
    add_subgroup_args(p)

    p = add("join", help="subgroup generated by two subgroups")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--dot")

    p = add("intersect", help="intersection of two subgroups")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--dot")

    p = add("closure", help="pro-(Ab(p)*Ab(d)) closure")
    add_subgroup_args(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dot")

    p = add("status", help="closed/dense for one (p, d)")
    add_subgroup_args(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("is-u-closed", help="U-closedness of a subgroup")
    add_subgroup_args(p)

    p = add("cl-u", help="exact U-closure of a finite-index subgroup")
    add_subgroup_args(p)
    p.add_argument("--dot")

    p = add("cl-u-approx", help="meet of per-prime closures")
    add_subgroup_args(p)
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--dot")

    p = add("not-fg-cert", help="vanishing-coordinate certificate")
    add_subgroup_args(p)

    p = add("u-density", help="bounded U-density check")
    add_subgroup_args(p)
    p.add_argument("--bound", type=int, default=uvar.DEFAULT_PRIME_BOUND)

    p = add("is-in-u", help="membership of a finite group in U")
    p.add_argument("--group", required=True, help="JSON group or Cayley table")

    p = add("supersolvable", help="supersolvability of a finite group")
    p.add_argument("--group", required=True)

    p = add("gpd", help="the group C_p x| C_d of order pd")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int)

    p = add("gpd-iso", help="isomorphism data between two conjugation exponents")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("free-object", help="free object of Ab(p)*Ab(d) on n generators")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--dot", help="write the Cayley graph in DOT form")

    p = add("diagonalize", help="diagonalize a matrix of order dividing p-1")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--matrix", required=True, help="JSON row lists")

    p = add("action-to-presentation", help="canonical presentation of a diagonalizable action")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--matrices", required=True, help="JSON list of matrices")
    p.add_argument("--orders", required=True, help="comma-separated y-orders")

    p = add("decompose", help="embed a presented group into gpd and cyclic factors")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--exponents", required=True, help="JSON n x m exponent matrix")
    p.add_argument("--orders", required=True, help="comma-separated y-orders")

    p = add("metab-equal", help="equality in the rank-2 free metabelian group")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = add("metab-witness", help="separating quotient for a free metabelian element")
    p.add_argument("--word", required=True)

    p = add("bs-eval", help="normal form in BS(1,q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--word", required=True)

    p = add("bs-witness", help="separating prime for a BS(1,q) element")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--word", required=True)

    p = add("q-sets", help="exponent-d roots of unity mod p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("find-pr-prime", help="smallest prime with q a primitive root")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)

    return parser


def _run(args) -> dict:
    cap = args.cap
    cmd = args.command

    if cmd == "stallings":
        return _aut_payload(_automaton_arg(args), args)

    if cmd == "index":
        aut = _automaton_arg(args)
        index, basis = aut.index_and_basis()
        return {"index": index, "basis": [str(w) for w in basis]}

    if cmd in ("join", "intersect"):
        left = Automaton.from_generators(_parse_gens(args.left, args.rank), args.rank)
        right = Automaton.from_generators(_parse_gens(args.right, args.rank), args.rank)
        result = left.join(right) if cmd == "join" else left.intersect(right)
        return _aut_payload(result, args)

    if cmd == "closure":
        return _aut_payload(apd.closure(_automaton_arg(args), args.p, args.d, cap=cap), args)

    if cmd == "status":
        return asdict(apd.status(_automaton_arg(args), args.p, args.d))

    if cmd == "is-u-closed":
        return {"u_closed": uvar.is_u_closed(_automaton_arg(args), cap=cap)}

    if cmd == "cl-u":
        return _aut_payload(uvar.cl_u_finite_index(_automaton_arg(args), cap=cap), args)

    if cmd == "cl-u-approx":
        primes = [int(x) for x in args.primes.split(",") if x.strip()]
        approx = uvar.cl_u_approx(_automaton_arg(args), primes, cap=cap)
        payload = _aut_payload(approx.automaton, args)
        payload["primes"] = list(approx.primes)
        payload["exact"] = approx.exact
        return payload

    if cmd == "not-fg-cert":
        return {"vanishing_coordinate": uvar.not_fg_certificate(_automaton_arg(args))}

    if cmd == "u-density":
        return asdict(uvar.u_density_check(_automaton_arg(args), bound=args.bound))

    if cmd == "is-in-u":
        # json writes the int keys of sylow_abelian as strings
        return asdict(uvar.is_in_u(_group_arg(args, cap)))

    if cmd == "supersolvable":
        return {"supersolvable": uvar.is_supersolvable(_group_arg(args, cap))}

    if cmd == "gpd":
        group = apd.GpdGroup(args.p, _capped_d(args, cap), args.q)
        return {"p": group.p, "d": group.d, "q": group.q, "order": group.order,
                "x_order": group.element_order(group.x),
                "y_order": group.element_order(group.y)}

    if cmd == "gpd-iso":
        m, k = apd.gpd_iso(args.p, _capped_d(args, cap), args.q, args.r)
        return {"m": m, "k": k}

    if cmd == "free-object":
        obj = apd.FreeObject(args.n, args.p, args.d)
        if args.dot:
            _write_dot(args.dot, obj.cayley_automaton(cap))
        return {"n": obj.n, "p": obj.p, "d": obj.d, "order": obj.order_formula}

    if cmd == "diagonalize":
        matrix = _int_array(json.loads(args.matrix), 2, "matrix")
        pmat, eigen = fplinalg.diagonalize(matrix, args.p, cap)
        return {"P": pmat, "eigenvalues": eigen}

    if cmd == "action-to-presentation":
        matrices = _int_array(json.loads(args.matrices), 3, "matrices")
        orders = [int(x) for x in args.orders.split(",") if x.strip()]
        return asdict(fplinalg.action_to_presentation(matrices, orders, args.p, args.d, cap))

    if cmd == "decompose":
        d = _capped_d(args, cap)
        exponents = _int_array(json.loads(args.exponents), 2, "exponents")
        orders = [int(x) for x in args.orders.split(",") if x.strip()]
        pres = fplinalg.ApdPresentation(
            p=args.p, d=d, n=len(exponents), m=len(orders),
            orders=tuple(orders),
            exponents=tuple(tuple(row) for row in exponents),
        )
        emb = apd.decompose(pres)
        return {
            "factors": list(emb.factors),
            "q": emb.q,
            "x_images": [[_factor_value(v) for v in image] for image in emb.x_images],
            "y_images": [[_factor_value(v) for v in image] for image in emb.y_images],
            "group_order": emb.group_order,
            "image_order": emb.image_order,
            "injective": emb.injective,
        }

    if cmd == "metab-equal":
        u = parse_word(args.u, 2)
        v = parse_word(args.v, 2)
        return {"equal": metabelian.metab_equal(u, v)}

    if cmd == "metab-witness":
        w = metabelian.separating_witness(parse_word(args.word, 2))
        return {"p": w.p, "q": w.q, "pre_map": w.pre_map.describe(), **_image_payload(w.image)}

    if cmd == "bs-eval":
        element = bs.bs_eval(parse_word(args.word, 2), args.q)
        return {"numerator": element.numerator,
                "denominator_exponent": element.denominator_exponent,
                "j": element.j,
                "trivial": element.is_identity()}

    if cmd == "bs-witness":
        element = bs.bs_eval(parse_word(args.word, 2), args.q)
        p, image = bs.bs_separating_prime(element)
        return {"p": p, **_image_payload(image)}

    if cmd == "q-sets":
        q_all, q_exact = numtheory.q_sets(args.p, _capped_d(args, cap))
        return {"q_set": sorted(q_all), "q_prime_set": sorted(q_exact)}

    if cmd == "find-pr-prime":
        return asdict(numtheory.find_pr_prime(args.q, args.lower, cap=cap))

    raise ValueError(f"unknown command {cmd!r}")  # pragma: no cover


def _factor_value(v):
    if isinstance(v, int):
        return v
    return apd.format_gpd_element(v)


_PARSER: argparse.ArgumentParser | None = None


def dispatch(argv) -> int:
    """Run one request; the parser is built on the first call and reused."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        payload = _run(args)
    except (BudgetExhaustedError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
