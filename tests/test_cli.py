import hashlib
import json
from pathlib import Path

import pytest

from chaindex import bench
from chaindex.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_indices_crossed(capsys):
    code, out, _ = run_cli(capsys, "indices", "--n", "1", "--kind", "crossed")
    assert code == 0
    payload = json.loads(out)
    assert payload["kf"] == "95/3"
    assert payload["tau"] == "12288"
    assert payload["closed_form"]["kf"] == "95/3"
    assert payload["closed_form"]["wiener_claim"] == "88"
    assert payload["wiener"] == "87"


def test_indices_plain_has_no_closed_forms(capsys):
    code, out, _ = run_cli(capsys, "indices", "--n", "1", "--kind", "plain")
    assert code == 0
    payload = json.loads(out)
    assert "closed_form" not in payload
    assert payload["kf"] == "2155/31"


def test_indices_rejects_invalid_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--n", "0"])
    assert exc.value.code != 0


@pytest.mark.parametrize("argv", [
    ["indices", "--n", "abc"],
    ["verify", "--from", "x"],
    ["table", "1", "--to", "1.5"],
])
def test_non_integer_size_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be a positive integer" in err
    assert "_positive" not in err


@pytest.mark.parametrize("raw", ["", "1_0", " 5 ", "+3", "\u0663", "0", "9" * 5000])
@pytest.mark.parametrize("option, template", [
    ("indices --n", "{}"),
    ("verify --from", "{}"),
    ("verify --to", "{}"),
    ("bench --oracle-limit", "{}"),
    ("bench --n", "{}"),
    ("bench --n", "1,{}"),
    ("bench --n", "{},1"),
    ("bench --n", "1,{},2"),
    ("table", "{}"),
])
def test_integer_options_take_ascii_digits_only(capsys, option, template, raw):
    # the rule CHAINDEX_THREADS follows: no separator, space, sign or other script's digits
    with pytest.raises(SystemExit) as exc:
        main(option.split() + [template.format(raw)])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["missing-parent", "directory"])
@pytest.mark.parametrize("argv", [
    ["indices", "--n", "1"],
    ["verify", "--from", "1", "--to", "1"],
    ["table", "1"],
    ["bench", "--n", "1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys, argv, target):
    out = tmp_path / "missing" / "x.json" if target == "missing-parent" else tmp_path
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith("chaindex: error:")
    assert "Traceback" not in err


def test_indices_rejects_bad_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--n", "1", "--kind", "mobius"])
    assert exc.value.code != 0


def test_verify_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1")
    assert code == 0
    payload = json.loads(out)
    by_claim = {r["claim_id"]: r for r in payload["records"]}
    assert by_claim["wiener.claim-vs-oracle"]["status"] == "mismatch"
    assert by_claim["kf.closed-vs-oracle"]["status"] == "match"
    assert payload["summary"]["mismatch"] >= 1
    # mismatches are findings, not process failures: exit code stays 0


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "claim_id,n,claimed,computed,status"


def test_verify_bad_range(capsys):
    code, _, err = run_cli(capsys, "verify", "--from", "3", "--to", "1")
    assert code == 1
    assert "error" in err


def test_table_one(capsys):
    code, out, _ = run_cli(capsys, "table", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,exact,rendered,printed,status"
    assert "2,156,156.00,156.00,match" in lines
    assert len(lines) == 16


def test_table_three_verbatim(capsys):
    code, out, _ = run_cli(capsys, "table", "3")
    assert code == 0
    row7 = next(line for line in out.splitlines() if line.startswith("7,"))
    assert row7.split(",")[1] == "7528977498068181366035447808"
    assert row7.endswith("match")


def test_table_two_rounding_and_misprint(capsys):
    code, out, _ = run_cli(capsys, "table", "2")
    assert code == 0
    rows = {line.split(",")[0]: line for line in out.splitlines()[1:]}
    assert rows["12"].split(",") == ["12", "1194028/3", "398009.33",
                                     "398009.34", "rounding_match"]
    # the one genuine misprint in the printed table
    assert rows["11"].split(",")[4] == "mismatch"


def test_table_beyond_printed_range(capsys):
    code, out, _ = run_cli(capsys, "table", "3", "--to", "9")
    rows = out.splitlines()
    assert rows[-1].startswith("9,")
    assert rows[-1].endswith(",,")  # no printed value, no status


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["table"] == "kf"
    assert payload["rows"][0]["rendered"] == "31.67"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("which", ["1", "2", "3"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_output_pinned(tmp_path, capsys, which, fmt):
    # byte-for-byte the output of the printed-range tables, statuses included
    target = tmp_path / f"table-{which}.{fmt}"
    code, _, _ = run_cli(capsys, "table", which, "--format", fmt, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"table-{which}.{fmt}").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_output_pinned(tmp_path, capsys, fmt):
    # byte-for-byte the whole claim matrix for n=1..3: every claim id,
    # value and status, including the recorded mismatches
    target = tmp_path / f"verify-1-3.{fmt}"
    code, _, _ = run_cli(capsys, "verify", "--from", "1", "--to", "3",
                         "--format", fmt, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / f"verify-1-3.{fmt}").read_bytes()


@pytest.mark.parametrize("golden, argv", [
    ("indices-2-crossed.json", []),
    ("indices-2-crossed.csv", ["--format", "csv"]),
    ("indices-2-plain.json", ["--kind", "plain"]),
])
def test_indices_output_pinned(tmp_path, capsys, golden, argv):
    # byte-for-byte the oracle bundle and, for the crossed chain, the
    # closed forms and claims in their published order
    target = tmp_path / golden
    code, _, _ = run_cli(capsys, "indices", "--n", "2", *argv, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / golden).read_bytes()


def test_bench_values_pinned(capsys):
    # every value of the bench output but the timings
    code, out, _ = run_cli(capsys, "bench", "--n", "1,2")
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        for part in (row["closed_form"], row["oracle"]):
            assert part.pop("seconds") >= 0
    assert json.dumps(rows, indent=2) + "\n" == (GOLDEN / "bench-1-2.json").read_text()

    code, out, _ = run_cli(capsys, "bench", "--n", "1,2", "--format", "csv")
    assert code == 0
    untimed = [line.split(",") for line in out.splitlines()]
    for cells in untimed:
        del cells[2]
    assert "\n".join(map(",".join, untimed)) + "\n" == (GOLDEN / "bench-1-2.csv").read_text()


@pytest.mark.parametrize("argv, file_ends_with_newline", [
    (("verify", "--from", "1", "--to", "2"), False),
    (("verify", "--from", "1", "--to", "2", "--format", "csv"), True),
    (("indices", "--n", "2"), False),
    (("indices", "--n", "2", "--format", "csv"), False),
    (("table", "1", "--format", "json"), False),
    (("table", "1"), True),
    (("table", "2", "--format", "csv"), True),
])
def test_stdout_is_out_file_with_one_final_newline(tmp_path, capsys, argv, file_ends_with_newline):
    # --out writes the text as built; stdout adds "\n" only where it lacks one
    target = tmp_path / "out"
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (0, "")
    written = target.read_bytes()
    assert written.endswith(b"\n") == file_ends_with_newline
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (written if file_ends_with_newline else written + b"\n")


def test_verify_matches_benchmark_reference(tmp_path, capsys):
    # the same bytes the benchmark's verify-range workload is checked against
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "verify-1-10.json"
    target = tmp_path / "verify-1-10.json"
    code, _, _ = run_cli(capsys, "verify", "--from", "1", "--to", "10", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == reference.read_bytes()



# sha256 of exact outputs whose operands grow far past those of n <= 10:
# the pencil's largest divisor has 132 bits at n=10 and 527 at n=40
VERIFY_1_40_OUT = "8c6517ed3446f4b8faa5cafa8ee5738a4610fa6188841a0589b00e2cb4d70dbe"
INDICES_200_STDOUT = {
    "crossed": "3ed3a6347e768db226250ee7deafa37a36dffce69bb827a96b9545917bd0b2a1",
    "plain": "74d1f7c8eaf440767c5d62c7cdfa7a0a369d50b1427ac3d457a7a9b05a1cfb5e",
}


@pytest.mark.slow
def test_verify_1_40_out_bytes_pinned(tmp_path, capsys):
    # the --out bytes as written, with no final newline
    target = tmp_path / "verify-1-40.json"
    code, _, _ = run_cli(capsys, "verify", "--from", "1", "--to", "40", "--out", str(target))
    assert code == 0
    written = target.read_bytes()
    assert not written.endswith(b"\n")
    assert hashlib.sha256(written).hexdigest() == VERIFY_1_40_OUT


@pytest.mark.slow
@pytest.mark.parametrize("kind", ["crossed", "plain"])
def test_indices_200_stdout_pinned(capsys, kind):
    code, out, _ = run_cli(capsys, "indices", "--n", "200", "--kind", kind)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INDICES_200_STDOUT[kind]

def test_verify_malformed_thread_budget(capsys, monkeypatch):
    monkeypatch.setenv("CHAINDEX_THREADS", "abc")
    code, out, err = run_cli(capsys, "verify", "--from", "1", "--to", "2")
    assert code == 1
    assert out == ""
    assert "CHAINDEX_THREADS" in err


def test_bench_small(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert [row["n"] for row in payload] == [1, 2]
    for row in payload:
        assert row["exact_match"] is True
        assert row["closed_form"]["kf"] == row["oracle"]["kf"]
        assert row["oracle"]["seconds"] > 0


def test_bench_respects_oracle_limit(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1,30", "--oracle-limit", "5")
    payload = json.loads(out)
    assert payload[0]["oracle"] is not None
    assert payload[1]["oracle"] is None
    assert payload[1]["exact_match"] is None


def test_bench_csv_lists_methods(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "1", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,method,seconds,kf,kf_star,tau,exact_match"
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"closed-form", "oracle"}
    assert all(line.endswith("true") for line in lines[1:])


@pytest.mark.parametrize("bad", [0, -3, True])
def test_run_bench_rejects_bad_size(bad):
    with pytest.raises(ValueError, match="chain parameter n"):
        bench.run_bench([bad])


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "indices", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["kf"] == "95/3"
