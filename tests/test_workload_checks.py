"""The benchmark's own correctness checks: one pass of each workload, checked by its Ledger."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads(monkeypatch):
    """perfbench/workloads.py, which imports its sibling modules from perfbench/."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["perfect-search", "declared-series", "lattice-sums"])
def test_one_pass_passes_its_checks(monkeypatch, name, seed):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS[name](seed)
    ledger = workloads.Ledger()
    workload.check(workload.run_pass(), ledger)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures[:5]
