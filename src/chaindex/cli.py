"""Command-line front door.

Subcommands:

* ``indices`` -- exact invariant bundle for one chain (JSON or CSV).
* ``verify``  -- run the full claim matrix over a range of sizes.
* ``table``   -- reproduce one of the three printed reference tables.
* ``bench``   -- time closed forms against the brute-force oracles.

Mismatches found by ``verify``/``table`` are findings, not failures: the
exit status stays 0.  Nonzero exits mean usage, computation or output
errors; an ``--out`` that cannot be written exits 1.
``CHAINDEX_THREADS`` caps how many worker processes ``verify`` starts; a
value that is not a positive integer is an error (exit status 1).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench, formulas, oracles, verify
from .graphs import build_crossed_chain, build_plain_chain


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _positive(value: str) -> int:
    try:
        return verify.positive_int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _size_list(value: str) -> list[int]:
    return [_positive(part) for part in value.split(",")]


def _cmd_indices(args) -> int:
    builder = build_crossed_chain if args.kind == "crossed" else build_plain_chain
    g = builder(args.n)
    bundle = oracles.index_bundle(g)
    payload = {"kind": args.kind, **bundle.to_json_dict()}
    if args.kind == "crossed":
        payload["closed_form"] = {
            **{field: str(form(args.n)) for field, form in formulas.PROVEN.items()},
            **{f"{field}_claim": str(claim(args.n)) for field, claim in formulas.CLAIMED.items()},
        }
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        flat = dict(payload)
        closed = flat.pop("closed_form", {})
        flat.update({f"closed_{k}": v for k, v in closed.items()})
        text = ",".join(flat) + "\n" + ",".join(str(v) for v in flat.values())
    _write_output(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.start > args.stop:
        raise ValueError("--from must not exceed --to")
    report = verify.run_verification(args.start, args.stop)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _write_output(text, args.out)
    return 0


# Table number -> (output name, claim id in verify.TABLES).
_TABLES = {1: ("kf", "kf.table"), 2: ("kf_star", "kfstar.table"), 3: ("tau", "tau.table")}


def _cmd_table(args) -> int:
    name, claim_id = _TABLES[args.which]
    printed_table, closed, render = verify.TABLES[claim_id]
    n_max = args.stop if args.stop is not None else max(printed_table)
    rows = []
    for n in range(1, n_max + 1):
        exact = closed(n)
        rendered = render(exact)
        printed = printed_table.get(n, "")
        status = verify.table_status(exact, rendered, printed) if printed else ""
        rows.append({
            "n": n,
            "exact": str(exact),
            "rendered": rendered,
            "printed": printed,
            "status": status,
        })
    if args.format == "json":
        text = json.dumps({"table": name, "rows": rows}, indent=2)
    else:
        lines = ["n,exact,rendered,printed,status"]
        lines.extend(
            f"{r['n']},{r['exact']},{r['rendered']},{r['printed']},{r['status']}"
            for r in rows
        )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


def _cmd_bench(args) -> int:
    rows = bench.run_bench(args.sizes, oracle_limit=args.oracle_limit)
    text = bench.rows_to_json(rows) if args.format == "json" else bench.rows_to_csv(rows)
    _write_output(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaindex",
        description="Exact invariants of octagonal-quadrilateral chain networks, "
                    "with verification of the published closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_indices = sub.add_parser("indices", help="exact invariant bundle for one chain")
    p_indices.add_argument("--n", type=_positive, required=True, help="chain parameter")
    p_indices.add_argument("--kind", choices=("crossed", "plain"), default="crossed")
    p_indices.add_argument("--format", choices=("json", "csv"), default="json")
    p_indices.add_argument("--out", help="write output to a file instead of stdout")
    p_indices.set_defaults(handler=_cmd_indices)

    p_verify = sub.add_parser("verify", help="run the claim-by-claim verification matrix")
    p_verify.add_argument("--from", dest="start", type=_positive, default=1)
    p_verify.add_argument("--to", dest="stop", type=_positive, default=6)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out")
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="reproduce a printed reference table")
    p_table.add_argument("which", type=_positive, choices=(1, 2, 3),
                         help="1: Kirchhoff, 2: degree-Kirchhoff, 3: spanning trees")
    p_table.add_argument("--to", dest="stop", type=_positive, default=None,
                         help="last row (default: the printed range)")
    p_table.add_argument("--format", choices=("json", "csv"), default="csv")
    p_table.add_argument("--out")
    p_table.set_defaults(handler=_cmd_table)

    p_bench = sub.add_parser("bench", help="time closed forms vs the exact oracles")
    p_bench.add_argument("--n", dest="sizes", type=_size_list, default=[1, 5, 10, 20],
                         help="comma-separated chain sizes")
    p_bench.add_argument("--oracle-limit", type=_positive, default=24,
                         help="largest size at which the oracle bundle runs")
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.add_argument("--out")
    p_bench.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"chaindex: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
