"""The benchmark's own correctness checks: one pass of each workload, checked by its Ledger."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    """perfbench/<name>.py, which imports its sibling modules from perfbench/; no bytecode is written there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["perfect-search", "declared-series", "lattice-sums"])
def test_one_pass_passes_its_checks(monkeypatch, name, seed):
    workloads = _perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name](seed)
    ledger = workloads.Ledger()
    workload.check(workload.run_pass(), ledger)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.failures[:5]


def test_a_traced_pass_spans_each_cone_function_once_per_cone(monkeypatch):
    # analyze runs the five public cone functions, so every per-layer
    # metric that reads their spans sees each of the 28 cones
    workload = _perfbench(monkeypatch, "workloads").WORKLOADS["perfect-search"](1)
    tracer = _perfbench(monkeypatch, "spans").Tracer()
    tracer.install()
    try:
        workload.run_pass()
    finally:
        tracer.uninstall()
    spans = Counter(name for name, *_ in tracer.spans)
    for layer in ("cone_dimension", "cone_rank", "cone_components", "cone_automorphisms", "cone_poincare_series"):
        assert spans[f"cones.{layer}"] == 28, layer
