import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chaindex import spectral
from chaindex import verify as vf

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def report():
    return vf.run_verification(1, 2)


def test_summary_counts_match_records(report):
    for status in vf.STATUSES:
        assert report.summary[status] == sum(
            1 for r in report.records if r.status == status
        )


def test_records_sorted_deterministically(report):
    keys = [(r.claim_id, r.n) for r in report.records]
    assert keys == sorted(keys)


def test_proven_invariants_all_match(report):
    for claim in ("kf.closed-vs-oracle", "kfstar.closed-vs-oracle",
                  "tau.closed-vs-oracle", "factorization.laplacian",
                  "factorization.normalized", "tau.table"):
        statuses = {r.status for r in report.records if r.claim_id == claim}
        assert statuses == {vf.MATCH}, claim


def test_wiener_claim_recorded_as_mismatch(report):
    record = next(
        r for r in report.records
        if r.claim_id == "wiener.claim-vs-oracle" and r.n == 1
    )
    assert record.status == vf.MISMATCH
    assert record.claimed == "88"
    assert record.computed == "87"


def test_gutman_claim_recorded_as_mismatch(report):
    record = next(
        r for r in report.records
        if r.claim_id == "gutman.claim-vs-oracle" and r.n == 1
    )
    assert (record.claimed, record.computed) == ("1251", "1179")
    assert record.status == vf.MISMATCH


def test_json_statuses_lowercase(report):
    text = report.to_json()
    for status in ("Match", "Mismatch", "RoundingMatch"):
        assert status not in text


def test_csv_shape(report):
    lines = report.to_csv().splitlines()
    assert lines[0] == "claim_id,n,claimed,computed,status"
    assert len(lines) == len(report.records) + 1


def test_default_path_leaves_the_process_pool_unloaded():
    # the pool's modules are imported only when verification runs in parallel
    code = (
        "import contextlib, io, sys\n"
        "import chaindex.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    chaindex.cli.main(['indices', '--n', '1'])\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "CHAINDEX_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_interior_minor_failure_names_both_fractions(monkeypatch):
    closed = spectral.interior_det_parts
    monkeypatch.setattr(spectral, "interior_det_parts",
                        lambda i, j: (7, 3) if (i, j) == (2, 7) else closed(i, j))
    record = next(r for r in vf.verify_one(2) if r.claim_id == "interior-minor.p2q3")
    assert record.status == vf.MISMATCH
    blocks, i, j = spectral.mirror_blocks(2), 2, 7
    p = blocks.degree_prefix
    minor = Fraction(blocks.lap_sum.interior_det(i, j), p[j - 1] // p[i])
    assert record.computed == f"(i=2, j=7): {minor} != 7/3"


def test_parallel_matches_serial(monkeypatch):
    monkeypatch.setenv("CHAINDEX_THREADS", "1")
    serial = vf.run_verification(1, 2)
    monkeypatch.setenv("CHAINDEX_THREADS", "2")
    assert vf.run_verification(1, 2) == serial


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        vf.run_verification(0, 2)
    with pytest.raises(ValueError):
        vf.run_verification(3, 2)


@pytest.mark.parametrize("start, stop", [(True, 1), (1, True), (1, 1.5), (1.0, 2)])
def test_non_int_range_rejected(start, stop):
    with pytest.raises(ValueError, match="must be an int"):
        vf.run_verification(start, stop)


def test_thread_budget_env(monkeypatch):
    monkeypatch.setenv("CHAINDEX_THREADS", "5")
    assert vf.thread_budget() == 5
    for malformed in ("junk", "0", "-2", "1.5", "", "1_0", " 2 ", "+3", "\u0663", "9" * 5000):
        monkeypatch.setenv("CHAINDEX_THREADS", malformed)
        with pytest.raises(ValueError, match="CHAINDEX_THREADS"):
            vf.thread_budget()
    monkeypatch.delenv("CHAINDEX_THREADS")
    assert vf.thread_budget() == 1


def test_malformed_thread_budget_stops_verification(monkeypatch):
    monkeypatch.setenv("CHAINDEX_THREADS", "abc")
    with pytest.raises(ValueError, match="CHAINDEX_THREADS"):
        vf.run_verification(1, 2)


def test_table_status():
    assert vf.table_status(Fraction(95, 3), "31.67", "31.67") == vf.MATCH
    assert vf.table_status(Fraction(50108, 3), "16702.67", "16702.70") == vf.ROUNDING_MATCH
    assert vf.table_status(Fraction(308346), "308346.00", "308316.00") == vf.MISMATCH


@pytest.mark.slow
@pytest.mark.parametrize("n", [25, 40])
def test_verify_one_matches_outside_distance_claims_at_large_n(n):
    records = vf.verify_one(n)
    assert records
    for r in records:
        if not r.claim_id.startswith(("wiener.", "gutman.")):
            assert r.status == vf.MATCH, r
