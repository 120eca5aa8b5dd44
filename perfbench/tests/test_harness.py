"""Tests of the benchmark harness itself: tracer arithmetic, input
generation, correctness gates and the exactness of the call counters.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SMALL_GRAPHS = ((8, 12), (10, 20), (12, 11))


class TickClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_nested_call():
    tracer = tracing.Tracer(TickClock([0, 1, 2, 4, 5, 7, 8, 10]))
    char_poly = tracer.wrap("linalg.char_poly", lambda: [0, -5, 1])

    def from_spectrum():
        char_poly()
        char_poly()

    spectrum = tracer.wrap("oracles.kirchhoff_from_spectrum", from_spectrum)
    index = tracer.wrap("oracles.kirchhoff_index", spectrum)
    index()

    metrics = tracer.summarize()
    # kirchhoff_index [0, 10] > from_spectrum [1, 8] > char_poly [2, 4], [5, 7]
    assert metrics["oracles.kirchhoff.s"] == 10  # nested members count once
    assert metrics["oracles.self_s"] == (10 - 7) + (7 - 4)
    assert metrics["linalg.char_poly.s"] == 4
    assert metrics["linalg.self_s"] == 4
    assert metrics["linalg.char_poly.calls"] == 2
    assert metrics["linalg.char_poly.max_bits"] == 3
    assert metrics["linalg.det_bareiss.calls"] == 0
    assert tracer.parents == [-1, 0, 1, 1]


def test_generator_is_deterministic_and_connected():
    graphs = workloads.generate_graphs(3)
    assert graphs == workloads.generate_graphs(3)
    assert graphs != workloads.generate_graphs(4)
    for (labels, edges), (vertices, edge_count) in zip(graphs, workloads.SCHEDULE):
        assert len(set(labels)) == len(labels) == vertices
        assert labels != sorted(labels)
        assert len(set(edges)) == len(edges) == edge_count
        assert all(u != v and u in labels and v in labels for u, v in edges)
        adj = {v: set() for v in labels}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        seen, stack = {labels[0]}, [labels[0]]
        while stack:
            for w in adj[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        assert seen == set(labels)


def _verify_reference(tmp_path, stop):
    mods = workloads.fresh_import()
    path = tmp_path / f"reference-1-{stop}.json"
    assert mods.cli.main(["verify", "--from", "1", "--to", str(stop), "--out", str(path)]) == 0
    return path


def _prepared(workload, seed=1):
    mods = workloads.fresh_import()
    workload.prepare(mods, seed)
    return workload


def _tamper_and_compare(workload, tamper):
    clean = workload.run_pass(workloads.fresh_import())
    assert clean.failed == 0, clean.reasons
    mods = workloads.fresh_import()
    tamper(mods)
    tampered = workload.run_pass(mods)
    assert tampered.failed > 0
    assert tampered.attempted == clean.attempted  # a gate never skips work


def test_tampered_verify_output_fails(tmp_path):
    reference = _verify_reference(tmp_path, 1)
    workload = _prepared(workloads.VerifyRange(tmp_path, 1, 1, reference))

    def tamper(mods):
        closed = mods.formulas.kirchhoff_closed
        mods.formulas.kirchhoff_closed = lambda n: closed(n) + 1

    _tamper_and_compare(workload, tamper)


def test_tampered_spectral_value_fails():
    workload = _prepared(workloads.SpectralLarge(sizes=(2,)))

    def tamper(mods):
        exact = mods.spectral.TriDiagSym.interior_det
        mods.spectral.TriDiagSym.interior_det = lambda self, i, j: exact(self, i, j) * 2

    _tamper_and_compare(workload, tamper)


def test_tampered_graph_oracle_fails():
    workload = _prepared(workloads.GenericGraphs(schedule=SMALL_GRAPHS))
    assert workload.expected_digest is None  # not the reference seed

    def tamper(mods):
        exact = mods.oracles.spanning_tree_count
        mods.oracles.spanning_tree_count = lambda g, drop=None: exact(g, drop) + (drop is None)

    _tamper_and_compare(workload, tamper)


def test_reference_seed_digest_is_checked():
    reference = json.loads(workloads.GENERIC_REFERENCE.read_text())
    workload = _prepared(workloads.GenericGraphs(), seed=reference["seed"])
    assert workload.expected_digest == reference["sha256"]


def _traced_pass(workload):
    tracer = tracing.Tracer(run.time.perf_counter)
    outcomes, _, layers = run.timed_passes(workload, 0.0, tracer)
    assert outcomes[0].failed == 0, outcomes[0].reasons
    assert tracer.absent == []
    return {name: value for name, value in layers[0].items() if name.endswith((".calls", ".solves"))}


def test_call_counters_repeat_exactly(tmp_path):
    reference = _verify_reference(tmp_path, 2)
    verify = _prepared(workloads.VerifyRange(tmp_path, 1, 2, reference))
    first, second = _traced_pass(verify), _traced_pass(verify)
    assert first == second
    # n = 1, 2 have N = 10, 18 vertices: four char polys of N+1 Bareiss
    # evaluations each plus one tree count; 4N+5 BFS; two grounded
    # inverses of N-1 solves; 2 * C(4n+1, 2) interior minors.
    assert first == {
        "linalg.char_poly.calls": 8,
        "linalg.det_bareiss.calls": 45 + 77,
        "linalg.lu.solves": 18 + 34,
        "spectral.interior_det.calls": 20 + 72,
        "spectral.mirror_blocks.calls": 40,
        "graphs.bfs.calls": 45 + 77,
    }

    graphs = _prepared(workloads.GenericGraphs(schedule=SMALL_GRAPHS))
    assert _traced_pass(graphs) == _traced_pass(graphs)


def test_wrappers_reach_names_imported_elsewhere():
    mods = workloads.fresh_import()
    tracer = tracing.Tracer(run.time.perf_counter)
    tracing.install(tracer, {name: getattr(mods, name) for name in tracing.LAYERS},
                    workloads.loaded_modules())
    assert mods.oracles.char_poly is mods.linalg.char_poly
    assert mods.oracles.char_poly.__wrapped__ is not None
    mods.spectral.factorization_holds(1)  # imports from linalg lazily
    assert tracer.summarize()["linalg.char_poly.calls"] == 2


def test_missing_name_is_recorded_absent():
    mods = workloads.fresh_import()
    del mods.linalg.LUDecomposition
    tracer = tracing.Tracer(run.time.perf_counter)
    tracing.install(tracer, {name: getattr(mods, name) for name in tracing.LAYERS},
                    workloads.loaded_modules())
    assert "linalg.LUDecomposition.solve" in tracer.absent
    assert tracer.summarize()["linalg.lu.solves"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    layer_units = {name: unit for name, unit, *_ in tracing.PER_LAYER}
    layer_units["trace.overhead"] = "x"
    assert per_layer == layer_units
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-range",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
