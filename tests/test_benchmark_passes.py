"""Smoke test of the benchmark's passes against the package as imported.

``perfbench/workloads.py`` calls the package by name (``mirror_blocks``,
``norm_sum``, ``interior_det``, the oracles, ...), and the harness tests
under ``perfbench/tests`` are not collected here, so a renamed or broken
name would otherwise first show as failed operations in a benchmark run.
The workloads module is loaded from its file, and its passes run on the
modules this suite already imported rather than on a fresh import, so no
other test sees its module objects replaced.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def mods(workloads):
    return SimpleNamespace(**{name: importlib.import_module(f"chaindex.{name}")
                              for name in workloads.MODULES})


def test_spectral_large_pass_has_no_failed_operation(workloads, mods):
    workload = workloads.SpectralLarge(sizes=(2, 3))
    workload.prepare(mods, 7)
    workload.warm_up(mods)
    outcome = workload.run_pass(mods)
    assert outcome.attempted == 2 * 37
    assert (outcome.failed, outcome.reasons) == (0, [])


def test_generic_graphs_pass_matches_the_committed_digest(workloads, mods):
    workload = workloads.GenericGraphs()
    workload.prepare(mods, 7)
    assert workload.expected_digest is not None  # the committed seed-7 reference
    workload.warm_up(mods)
    outcome = workload.run_pass(mods)
    assert outcome.attempted == 6 * len(workloads.SCHEDULE) + 1
    assert (outcome.failed, outcome.reasons) == (0, [])
