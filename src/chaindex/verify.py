"""Claim-by-claim verification of every identity, closed form, and table row.

Each claim produces one record per chain size: the claimed value, the
independently computed value, and a status.  Statuses are data, not
errors; a mismatch is a finding about the published formulas, and the
two distance-index claims are expected to mismatch.

``CHAINDEX_THREADS`` caps how many worker processes verify chain sizes in
parallel; it must be a positive integer.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import formulas, oracles, spectral
from .graphs import build_crossed_chain, check_chain_parameter

MATCH = "match"
MISMATCH = "mismatch"
ROUNDING_MATCH = "rounding_match"

STATUSES = (MATCH, MISMATCH, ROUNDING_MATCH)

# Printed-table comparisons tolerate the source's own rounding habits.
TABLE_TOLERANCE = Fraction(1, 20)

WIENER_CLASS_NAMES = ("ends", "i2mod4", "i3mod4", "i0mod4", "i1mod4")
GUTMAN_CLASS_NAMES = ("left-end", "right-end", "i2mod4", "i3mod4", "i0mod4", "i1mod4")


@dataclass(frozen=True)
class VerificationRecord:
    """One claim checked at one chain size."""

    claim_id: str
    n: int
    claimed: str
    computed: str
    status: str


@dataclass(frozen=True)
class VerificationReport:
    records: tuple
    summary: dict

    @classmethod
    def from_records(cls, records) -> "VerificationReport":
        ordered = tuple(sorted(records, key=lambda r: (r.claim_id, r.n)))
        summary = {status: 0 for status in STATUSES}
        for record in ordered:
            summary[record.status] += 1
        return cls(records=ordered, summary=summary)

    def to_json(self) -> str:
        return json.dumps(
            {"records": [asdict(r) for r in self.records], "summary": self.summary},
            indent=2,
        )

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["claim_id", "n", "claimed", "computed", "status"])
        for r in self.records:
            writer.writerow([r.claim_id, r.n, r.claimed, r.computed, r.status])
        return buffer.getvalue()


def _value_record(claim_id: str, n: int, claimed, computed) -> VerificationRecord:
    claimed_s, computed_s = str(claimed), str(computed)
    status = MATCH if claimed_s == computed_s else MISMATCH
    return VerificationRecord(claim_id, n, claimed_s, computed_s, status)


def _family_record(claim_id: str, n: int, failures: list[str]) -> VerificationRecord:
    computed = "ok" if not failures else "; ".join(failures[:3])
    status = MATCH if not failures else MISMATCH
    return VerificationRecord(claim_id, n, "ok", computed, status)


def table_status(exact: Fraction, rendered: str, printed: str) -> str:
    """Status of a printed table value against the exact value it rounds.

    ``match`` when the printed text equals the rendering of the exact
    value, ``rounding_match`` when it is within the table tolerance, and
    ``mismatch`` otherwise.
    """
    if rendered == printed:
        return MATCH
    if abs(Fraction(exact) - Fraction(printed)) <= TABLE_TOLERANCE:
        return ROUNDING_MATCH
    return MISMATCH


def _table_record(claim_id: str, n: int, exact: Fraction, printed: str) -> VerificationRecord:
    rendered = formulas.format_2dec(exact)
    return VerificationRecord(claim_id, n, printed, rendered, table_status(exact, rendered, printed))


def verify_one(n: int) -> list[VerificationRecord]:
    """Run every claim at one chain size and return the records."""
    records: list[VerificationRecord] = []
    blocks = spectral.mirror_blocks(n)
    g = build_crossed_chain(n)

    lap_ok, norm_ok = spectral.factorization_holds(n)
    failed = ["rail-swap certificate fails against the mirror blocks"]
    records.append(_family_record("factorization.laplacian", n, [] if lap_ok else failed))
    records.append(_family_record("factorization.normalized", n, [] if norm_ok else failed))

    leading, trailing, interior = spectral.lap_minor_sequences(n)
    records.append(_family_record(
        "seq.lap-leading", n,
        [f"i={i}: {v} != {spectral.lap_leading_closed(i)}"
         for i, v in enumerate(leading) if v != spectral.lap_leading_closed(i)],
    ))
    records.append(_family_record(
        "seq.lap-trailing", n,
        [f"i={i}: {v} != {leading[i]}" for i, v in enumerate(trailing) if v != leading[i]],
    ))
    records.append(_family_record(
        "seq.lap-interior", n,
        [f"i={i}: {v} != {spectral.lap_interior_closed(i)}"
         for i, v in enumerate(interior) if v != spectral.lap_interior_closed(i)],
    ))

    x_cont, y_cont = spectral.norm_minor_sequences(n)
    x_rec, y_rec = spectral.norm_minor_recurrences(n)
    records.append(_family_record(
        "seq.norm-leading", n,
        [f"i={i}: cont {c} rec {r} closed {spectral.norm_leading_closed(i)}"
         for i, (c, r) in enumerate(zip(x_cont, x_rec))
         if not (c == r == spectral.norm_leading_closed(i))],
    ))
    records.append(_family_record(
        "seq.norm-trailing", n,
        [f"i={i}: cont {c} rec {r} closed {spectral.norm_trailing_closed(i)}"
         for i, (c, r) in enumerate(zip(y_cont, y_rec))
         if not (c == r == spectral.norm_trailing_closed(i))],
    ))

    lap_tail = spectral.tail_coeffs(blocks.lap_sum.char_poly())
    records.append(_value_record(
        "tail.lap", n, spectral.lap_tail_coeffs_closed(n), lap_tail,
    ))
    norm_tail = spectral.tail_coeffs(blocks.norm_sum.char_poly())
    records.append(_value_record(
        "tail.norm", n, spectral.norm_tail_coeffs_closed(n), norm_tail,
    ))

    records.append(_value_record(
        "recip.lap-eigensum", n,
        spectral.lap_eigen_recip_sum(n), lap_tail.quadratic / lap_tail.linear,
    ))
    records.append(_value_record(
        "recip.lap-diagsum", n,
        spectral.lap_diag_recip_sum(n),
        sum(Fraction(1, int(s)) for s in blocks.lap_diff),
    ))
    records.append(_value_record(
        "recip.norm-eigensum", n,
        spectral.norm_eigen_recip_sum(n), norm_tail.quadratic / norm_tail.linear,
    ))
    records.append(_value_record(
        "recip.norm-diagsum", n,
        spectral.norm_diag_recip_sum(n),
        sum(1 / Fraction(s) for s in blocks.norm_diff),
    ))

    for p in range(4):
        for q in range(4):
            failures = []
            for i, j in spectral.class_pairs(n, p, q):
                value, closed = blocks.norm_sum.interior_det(i, j), spectral.interior_det_closed(i, j)
                if value != closed:
                    failures.append(f"(i={i}, j={j}): {value} != {closed}")
            records.append(_family_record(f"interior-minor.p{p}q{q}", n, failures))

    for p in range(4):
        for q in range(4):
            records.append(_value_record(
                f"pair-sum.p{p}q{q}", n,
                spectral.deleted_pair_class_sum_closed(n, p, q),
                spectral.deleted_pair_class_sum(n, p, q),
            ))

    records.append(_value_record(
        "kf.assembly", n,
        formulas.kirchhoff_closed(n),
        (8 * n + 2) * (spectral.lap_eigen_recip_sum(n) + spectral.lap_diag_recip_sum(n)),
    ))
    records.append(_value_record(
        "kfstar.assembly", n,
        formulas.degree_kirchhoff_closed(n),
        2 * (18 * n + 1) * (spectral.norm_eigen_recip_sum(n) + spectral.norm_diag_recip_sum(n)),
    ))
    records.append(_value_record(
        "tau.assembly", n,
        formulas.spanning_trees_closed(n),
        spectral.lap_tail_coeffs_closed(n).linear
        * Fraction(4) ** (2 * n + 2) * Fraction(6) ** (2 * n - 1) / (8 * n + 2),
    ))

    bundle = oracles.index_bundle(g)
    for claim_id, claimed, computed in (
        ("kf.closed-vs-oracle", formulas.kirchhoff_closed(n), bundle.kf),
        ("kfstar.closed-vs-oracle", formulas.degree_kirchhoff_closed(n), bundle.kf_star),
        ("tau.closed-vs-oracle", formulas.spanning_trees_closed(n), bundle.tau),
        ("wiener.claim-vs-oracle", formulas.wiener_claim(n), bundle.wiener),
        ("gutman.claim-vs-oracle", formulas.gutman_claim(n), bundle.gutman),
    ):
        records.append(_value_record(claim_id, n, claimed, computed))
    for name, claimed, computed in zip(
        WIENER_CLASS_NAMES, formulas.wiener_class_claims(n), oracles.wiener_class_sums(g)
    ):
        records.append(_value_record(f"wiener.class.{name}", n, claimed, computed))
    for name, claimed, computed in zip(
        GUTMAN_CLASS_NAMES, formulas.gutman_class_claims(n), oracles.gutman_class_sums(g)
    ):
        records.append(_value_record(f"gutman.class.{name}", n, claimed, computed))

    if n in formulas.TABLE_KF:
        records.append(_table_record(
            "kf.table", n, formulas.kirchhoff_closed(n), formulas.TABLE_KF[n],
        ))
    if n in formulas.TABLE_KF_STAR:
        records.append(_table_record(
            "kfstar.table", n, formulas.degree_kirchhoff_closed(n), formulas.TABLE_KF_STAR[n],
        ))
    if n in formulas.TABLE_TREES:
        # Spanning-tree counts are printed in full, so the match is verbatim.
        records.append(_value_record(
            "tau.table", n, formulas.TABLE_TREES[n], formulas.spanning_trees_closed(n),
        ))
    return records


def thread_budget() -> int:
    """Worker processes ``run_verification`` may start: ``CHAINDEX_THREADS``, default 1.

    Anything but a positive integer raises ValueError naming the variable.
    """
    raw = os.environ.get("CHAINDEX_THREADS", "1")
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"CHAINDEX_THREADS must be a positive integer, got {raw!r}")
    return budget


def run_verification(start: int, stop: int, threads: int | None = None) -> VerificationReport:
    """Verify every claim for each n in start..stop (inclusive)."""
    check_chain_parameter(start)
    check_chain_parameter(stop)
    if start > stop:
        raise ValueError("need 1 <= start <= stop")
    sizes = range(start, stop + 1)
    threads = thread_budget() if threads is None else max(1, threads)
    if threads > 1 and len(sizes) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(sizes))) as pool:
            batches = list(pool.map(verify_one, sizes))
    else:
        batches = [verify_one(n) for n in sizes]
    return VerificationReport.from_records(
        record for batch in batches for record in batch
    )
