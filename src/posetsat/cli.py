"""Command-line front end.

Exit codes: 0 the command's checked property holds (or output was written),
1 a checked property fails, 2 usage or input-format errors, 3 a node budget
ran out before a verdict.  Every run is fully specified by its flags; with
``--json`` the only bytes on stdout are one JSON document.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import constructs
from .bollobas import (
    PairSystemError,
    bollobas_bound,
    is_bollobas,
    is_skew_bollobas,
    pair_system_from_json,
    validate_disjoint,
)
from .embed import BudgetExceededError, DEFAULT_NODE_BUDGET, embedding_to_json, find_induced_copy
from .posetspec import DROP_EMPTY, DROP_EMPTY_AND_FULL, DROP_NONE, PosetSpecError, build_poset
from .setfam import Family, FamilyFormatError, dump_family, family_to_json, load_family
from .solver import DEFAULT_SOLVER_BUDGET, sat_star_exact, solve_result_to_json
from .verify import (
    DEFAULT_ENUMERATION_CAP,
    greedy_saturate,
    report_to_json,
    verification_report,
)

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(ValueError):
    pass

_DROP_FLAG = {
    "none": DROP_NONE,
    "empty": DROP_EMPTY,
    "empty-and-full": DROP_EMPTY_AND_FULL,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetsat",
        description="Construct, verify, and solve induced-saturation instances "
        "over the Boolean lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a named family as Family JSON")
    p.add_argument(
        "--family",
        required=True,
        choices=["mck", "mc2-binom", "2ck-c1", "b3", "boolean"],
        dest="kind",
    )
    p.add_argument("--n", type=int, help="ground size")
    p.add_argument("--m", type=int, help="number of chains (mck)")
    p.add_argument("--k", type=int, help="chain length / lattice size")
    p.add_argument("--t", type=int, help="layer parameter (mc2-binom)")
    p.add_argument("--drop", choices=sorted(_DROP_FLAG), default="none")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("verify", help="freeness / saturation report for a family")
    p.add_argument("--family", required=True, help="Family JSON path")
    p.add_argument("--poset", required=True, help="target spec, e.g. 2C3+C1")
    p.add_argument("--require-saturated", action="store_true")
    p.add_argument("--list-exceptions", action="store_true")
    p.add_argument("--lenient", action="store_true", help="merge duplicate input sets")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--max-n", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest ground size the exception sweep will enumerate")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("saturate", help="greedy-complete a free family")
    p.add_argument("--family", required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--max-n", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--out", default="-")

    p = sub.add_parser("find-copy", help="search a family for an induced copy")
    p.add_argument("--family", required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--seed", type=int, default=0,
                   help="candidate-order shuffle seed; 0 keeps canonical order")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="exact minimum saturated-family size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--poset", required=True)
    p.add_argument("--node-budget", type=int, default=DEFAULT_SOLVER_BUDGET)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bollobas", help="check a set-pair system")
    p.add_argument("--pairs", required=True, help="pair-system JSON path")
    p.add_argument("--skew", action="store_true",
                   help="check the skew property instead of the full one")
    p.add_argument("--json", action="store_true")
    return parser


def _read_family(path: str, lenient: bool) -> Family:
    if path == "-":
        return load_family(sys.stdin, lenient=lenient)
    with open(path, "r", encoding="utf-8") as fp:
        return load_family(fp, lenient=lenient)


def _write_family(family: Family, path: str, generator: dict | None = None) -> None:
    if path == "-":
        dump_family(family, sys.stdout, generator)
    else:
        with open(path, "w", encoding="utf-8") as fp:
            dump_family(family, fp, generator)


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "mck":
        _need(args, "n", "m", "k")
        fam = constructs.construct_mck(args.n, args.m, args.k)
        params = {"n": args.n, "m": args.m, "k": args.k}
    elif kind == "mc2-binom":
        _need(args, "n", "t")
        fam = constructs.construct_mc2_binom(args.n, args.t)
        params = {"n": args.n, "t": args.t}
    elif kind == "2ck-c1":
        _need(args, "n", "k")
        fam = constructs.construct_2ck_c1(args.n, args.k)
        params = {"n": args.n, "k": args.k}
    elif kind == "b3":
        _need(args, "n")
        fam = constructs.construct_b3(args.n)
        params = {"n": args.n}
    else:
        _need(args, "k")
        fam = constructs.boolean_family(args.k, _DROP_FLAG[args.drop])
        params = {"k": args.k, "drop": _DROP_FLAG[args.drop]}
    _write_family(fam, args.out, generator={"kind": kind, "params": params})
    return EXIT_OK


def _need(args, *names) -> None:
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise UsageError(f"construct --family {args.kind} requires {flags}")


def _cmd_verify(args) -> int:
    family = _read_family(args.family, args.lenient)
    report = verification_report(
        family,
        args.poset,
        node_budget=args.node_budget,
        max_ground=args.max_n,
    )
    if args.json:
        print(json.dumps(report_to_json(report, args.list_exceptions), indent=1))
    else:
        print(f"poset: {report.poset}")
        print(f"family size: {report.family_size}")
        free = "undecided" if report.is_free is None else ("yes" if report.is_free else "no")
        print(f"induced-free: {free}")
        print(f"exceptions: {report.exception_count}"
              + (" (partial)" if report.budget_exceeded else ""))
        if args.list_exceptions:
            for members in report.exceptions.member_lists():
                print(f"  {members}")
        print(f"budget exceeded: {'yes' if report.budget_exceeded else 'no'}")
    if report.budget_exceeded:
        return EXIT_BUDGET
    if not report.is_free:
        return EXIT_PROPERTY_FAIL
    if args.require_saturated and report.exception_count != 0:
        return EXIT_PROPERTY_FAIL
    return EXIT_OK


def _cmd_saturate(args) -> int:
    family = _read_family(args.family, args.lenient)
    completed = greedy_saturate(
        family,
        build_poset(args.poset),
        node_budget=args.node_budget,
        max_ground=args.max_n,
    )
    _write_family(completed, args.out)
    return EXIT_OK


def _cmd_find_copy(args) -> int:
    family = _read_family(args.family, args.lenient)
    poset = build_poset(args.poset)
    found = find_induced_copy(
        family, poset, node_budget=args.node_budget, order_seed=args.seed
    )
    if found is None:
        if args.json:
            print(json.dumps(None))
        else:
            print("none")
        return EXIT_PROPERTY_FAIL
    doc = embedding_to_json(found)
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print(f"copy of {doc['poset']}:")
        for members in doc["images"]:
            print(f"  {members}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    poset = build_poset(args.poset)
    result = sat_star_exact(args.n, poset, node_budget=args.node_budget)
    doc = solve_result_to_json(result)
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        print(f"status: {result.status}")
        print(f"value: {result.value}")
        if result.witness is not None:
            print(f"witness: {result.witness.member_lists()}")
        print(f"nodes: {result.nodes_explored}")
    return EXIT_BUDGET if result.status == "budget_exceeded" else EXIT_OK


def _cmd_bollobas(args) -> int:
    with open(args.pairs, "r", encoding="utf-8") as fp:
        try:
            doc = json.load(fp)
        except json.JSONDecodeError as err:
            raise PairSystemError(f"not valid JSON: {err}") from err
    system = pair_system_from_json(doc)
    try:
        validate_disjoint(system)
    except PairSystemError as err:
        print(f"invalid: {err}", file=sys.stderr)
        return EXIT_PROPERTY_FAIL
    full = is_bollobas(system)
    skew = is_skew_bollobas(system)
    a = max((x.bit_count() for x, _ in system.pairs), default=0)
    b = max((y.bit_count() for _, y in system.pairs), default=0)
    bound = bollobas_bound(a, b)
    doc = {
        "pairs": len(system.pairs),
        "is_bollobas": full,
        "is_skew_bollobas": skew,
        "max_x": a,
        "max_y": b,
        "bound": bound,
        "within_bound": len(system.pairs) <= bound,
    }
    if args.json:
        print(json.dumps(doc, indent=1))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")
    checked = skew if args.skew else full
    return EXIT_OK if checked else EXIT_PROPERTY_FAIL


_COMMANDS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "saturate": _cmd_saturate,
    "find-copy": _cmd_find_copy,
    "solve": _cmd_solve,
    "bollobas": _cmd_bollobas,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "node_budget", 0) < 0:
            raise UsageError(f"--node-budget must be at least 0, got {args.node_budget}")
        return _COMMANDS[args.command](args)
    except BudgetExceededError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        UsageError,
        PosetSpecError,
        FamilyFormatError,
        PairSystemError,
        ValueError,
        OSError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
