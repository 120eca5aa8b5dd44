"""Timing harness: O(1) closed forms against the O(n^2) exact oracles.

For each requested chain size the harness times the three proven closed
forms and, up to ``oracle_limit``, the full definition-level oracle
bundle, then records whether the two agree exactly wherever both ran.
The Wiener/Gutman oracle values ride along for reference but are not
part of the equality flag, since the published polynomials for them are
claims under dispute.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import formulas, oracles
from .graphs import build_crossed_chain


@dataclass(frozen=True)
class BenchRow:
    n: int
    closed_seconds: float
    closed: dict
    oracle_seconds: float | None
    oracle: dict | None
    exact_match: bool | None


def _time_closed(n: int) -> tuple[float, dict]:
    start = time.perf_counter()
    values = {field: str(form(n)) for field, form in formulas.PROVEN.items()}
    return time.perf_counter() - start, values


def _time_oracle(n: int) -> tuple[float, dict]:
    g = build_crossed_chain(n)
    start = time.perf_counter()
    bundle = oracles.index_bundle(g)
    elapsed = time.perf_counter() - start
    values = bundle.to_json_dict()
    del values["n"]
    return elapsed, values


def run_bench(sizes, oracle_limit: int = 24) -> list[BenchRow]:
    """Benchmark each size; the oracle runs only for n <= oracle_limit."""
    rows = []
    for n in sizes:
        closed_seconds, closed = _time_closed(n)
        oracle_seconds = oracle_values = exact = None
        if n <= oracle_limit:
            oracle_seconds, oracle_values = _time_oracle(n)
            exact = all(closed[key] == oracle_values[key] for key in closed)
        rows.append(BenchRow(n, closed_seconds, closed,
                             oracle_seconds, oracle_values, exact))
    return rows


def rows_to_json(rows: list[BenchRow]) -> str:
    payload = []
    for row in rows:
        payload.append({
            "n": row.n,
            "closed_form": {"seconds": row.closed_seconds, **row.closed},
            "oracle": (
                None if row.oracle is None
                else {"seconds": row.oracle_seconds, **row.oracle}
            ),
            "exact_match": row.exact_match,
        })
    return json.dumps(payload, indent=2)


def rows_to_csv(rows: list[BenchRow]) -> str:
    lines = ["n,method,seconds,kf,kf_star,tau,exact_match"]
    for row in rows:
        flag = "" if row.exact_match is None else str(row.exact_match).lower()
        lines.append(
            f"{row.n},closed-form,{row.closed_seconds:.6f},"
            f"{row.closed['kf']},{row.closed['kf_star']},{row.closed['tau']},{flag}"
        )
        if row.oracle is not None:
            lines.append(
                f"{row.n},oracle,{row.oracle_seconds:.6f},"
                f"{row.oracle['kf']},{row.oracle['kf_star']},{row.oracle['tau']},{flag}"
            )
    return "\n".join(lines) + "\n"
