"""Every published claim, declared once and checked at each chain size.

``verify_one`` computes the per-size artifacts once, then lists its
claims as data; ``TABLES`` declares the printed tables, which ``chaindex
table`` also reads.  Each claim gives one record per size: the claimed
value, the independently computed one, and a status.  Statuses are data,
not errors; a mismatch is a finding about the published formulas, and
the two distance-index claims are expected to mismatch.

``CHAINDEX_THREADS`` caps how many worker processes verify chain sizes in
parallel; it must be a positive integer written in ASCII digits.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
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
            {"records": [vars(r) for r in self.records], "summary": self.summary},
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


# Each printed table under its claim id: the rows as printed, the exact
# value at n they print, and how it is printed.  Spanning-tree counts are
# printed in full, so for them only a verbatim match passes.
TABLES = {
    "kf.table": (formulas.TABLE_KF, formulas.kirchhoff_closed, formulas.format_2dec),
    "kfstar.table": (formulas.TABLE_KF_STAR, formulas.degree_kirchhoff_closed, formulas.format_2dec),
    "tau.table": (formulas.TABLE_TREES, formulas.spanning_trees_closed, str),
}


def _table_record(claim_id: str, n: int, exact: Fraction, printed: str) -> VerificationRecord:
    rendered = TABLES[claim_id][2](exact)
    return VerificationRecord(claim_id, n, printed, rendered, table_status(exact, rendered, printed))


def _disagreements(rows) -> list[str]:
    """Failure messages for the (label, computed, closed) rows that differ."""
    return [f"{label}: {value} != {closed}" for label, value, closed in rows if value != closed]


def _interior_disagreements(blocks, n: int, p: int, q: int) -> list[str]:
    """Failure messages for the interior minors of class (p, q) that miss their closed form.

    Each normalized minor is I / s, an integer Laplacian minor over a
    slice s of the degree prefix, and each closed form is num / den, so
    the two are compared as integer cross-products; a ``Fraction`` is
    built only for a message.
    """
    prefix, lap_sum, failures = blocks.degree_prefix, blocks.lap_sum, []
    for i, j in spectral.class_pairs(n, p, q):
        minor, scale = lap_sum.interior_det(i, j), prefix[j - 1] // prefix[i]
        num, den = spectral.interior_det_parts(i, j)
        if minor * den != num * scale:
            failures.append(f"(i={i}, j={j}): {Fraction(minor, scale)} != {Fraction(num, den)}")
    return failures


def verify_one(n: int) -> list[VerificationRecord]:
    """Run every claim at one chain size and return the records."""
    blocks = spectral.mirror_blocks(n)
    g = build_crossed_chain(n)
    lap_ok, norm_ok = spectral.factorization_holds(g)
    leading, trailing, interior = spectral.lap_minor_sequences(n)
    norm_sequences = zip(("leading", "trailing"), spectral.norm_minor_sequences(n),
                         spectral.norm_minor_recurrences(n),
                         (spectral.norm_leading_closed, spectral.norm_trailing_closed))
    lap_closed = spectral.lap_tail_coeffs_closed(n)
    lap_tail, norm_tail = spectral.sum_block_tails(n)
    lap_recip = spectral.lap_eigen_recip_sum(n), spectral.lap_diag_recip_sum(n)
    norm_recip = spectral.norm_eigen_recip_sum(n), spectral.norm_diag_recip_sum(n)
    bundle = oracles.index_bundle(g)
    class_sums = (
        ("wiener", WIENER_CLASS_NAMES, formulas.wiener_class_claims(n), oracles.wiener_class_sums(g)),
        ("gutman", GUTMAN_CLASS_NAMES, formulas.gutman_class_claims(n), oracles.gutman_class_sums(g)),
    )
    classes = [(p, q) for p in range(4) for q in range(4)]
    failed = ["rail-swap certificate fails against the mirror blocks"]

    families = {
        "factorization.laplacian": [] if lap_ok else failed,
        "factorization.normalized": [] if norm_ok else failed,
        "seq.lap-leading": _disagreements(
            (f"i={i}", v, spectral.lap_leading_closed(i)) for i, v in enumerate(leading)),
        "seq.lap-trailing": _disagreements(
            (f"i={i}", v, leading[i]) for i, v in enumerate(trailing)),
        "seq.lap-interior": _disagreements(
            (f"i={i}", v, spectral.lap_interior_closed(i)) for i, v in enumerate(interior)),
    }
    for name, cont, rec, closed in norm_sequences:
        families[f"seq.norm-{name}"] = [
            f"i={i}: cont {c} rec {r} closed {closed(i)}"
            for i, (c, r) in enumerate(zip(cont, rec)) if not (c == r == closed(i))
        ]
    for p, q in classes:
        families[f"interior-minor.p{p}q{q}"] = _interior_disagreements(blocks, n, p, q)

    tree_ratio = Fraction(4) ** (2 * n + 2) * Fraction(6) ** (2 * n - 1) / (8 * n + 2)
    values = [
        ("tail.lap", lap_closed, lap_tail),
        ("tail.norm", spectral.norm_tail_coeffs_closed(n), norm_tail),
        ("recip.lap-eigensum", lap_recip[0], lap_tail.quadratic / lap_tail.linear),
        ("recip.lap-diagsum", lap_recip[1], sum(Fraction(1, s) for s in blocks.lap_diff)),
        ("recip.norm-eigensum", norm_recip[0], norm_tail.quadratic / norm_tail.linear),
        ("recip.norm-diagsum", norm_recip[1], sum(map(Fraction, blocks.degrees, blocks.lap_diff))),
        ("kf.assembly", formulas.kirchhoff_closed(n), (8 * n + 2) * sum(lap_recip)),
        ("kfstar.assembly", formulas.degree_kirchhoff_closed(n), 2 * (18 * n + 1) * sum(norm_recip)),
        ("tau.assembly", formulas.spanning_trees_closed(n), lap_closed.linear * tree_ratio),
        *((f"pair-sum.p{p}q{q}", spectral.deleted_pair_class_sum_closed(n, p, q),
           spectral.deleted_pair_class_sum(n, p, q)) for p, q in classes),
        *((f"{field.replace('_', '')}.closed-vs-oracle", closed(n), getattr(bundle, field))
          for field, closed in formulas.PROVEN.items()),
        *((f"{field}.claim-vs-oracle", claim(n), getattr(bundle, field))
          for field, claim in formulas.CLAIMED.items()),
        *((f"{family}.class.{name}", claimed, computed)
          for family, names, claims, sums in class_sums
          for name, claimed, computed in zip(names, claims, sums)),
    ]
    return (
        [_family_record(claim_id, n, failures) for claim_id, failures in families.items()]
        + [_value_record(claim_id, n, claimed, computed) for claim_id, claimed, computed in values]
        + [_table_record(claim_id, n, exact(n), rows[n])
           for claim_id, (rows, exact, _) in TABLES.items() if n in rows]
    )


def positive_int(raw: str) -> int:
    """The positive integer that ``raw`` spells in ASCII digits alone.

    A sign, space, underscore, another script's digits, zero, or more
    digits than int() converts raise ValueError.
    """
    try:
        value = int(raw) if raw.isascii() and raw.isdigit() else 0
    except ValueError:  # more digits than int() converts
        value = 0
    if value < 1:
        raise ValueError(f"must be a positive integer, got {raw!r}")
    return value


def thread_budget() -> int:
    """Worker processes ``run_verification`` may start: ``CHAINDEX_THREADS``, default 1.

    Anything ``positive_int`` rejects raises ValueError naming the variable.
    """
    try:
        return positive_int(os.environ.get("CHAINDEX_THREADS", "1"))
    except ValueError as exc:
        raise ValueError(f"CHAINDEX_THREADS {exc}") from None


def run_verification(start: int, stop: int) -> VerificationReport:
    """Verify every claim for each n in start..stop (inclusive)."""
    check_chain_parameter(start)
    check_chain_parameter(stop)
    if start > stop:
        raise ValueError("need 1 <= start <= stop")
    sizes = range(start, stop + 1)
    threads = thread_budget()
    if threads > 1 and len(sizes) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

        with ProcessPoolExecutor(max_workers=min(threads, len(sizes))) as pool:
            batches = list(pool.map(verify_one, sizes))
    else:
        batches = [verify_one(n) for n in sizes]
    return VerificationReport.from_records(
        record for batch in batches for record in batch
    )
