"""The cases of the lattice-sums benchmark workload, which tests run the search on."""

import importlib.util
import sys
from functools import cache
from pathlib import Path

from agstab.pipeline import load_cone_specs

# the cones of both packaged families; the perfect family repeats some matroidal ones
PACKAGED = [s for family in ("matroidal", "perfect") for s in load_cone_specs(family)[1]]


@cache
def _generator():
    """perfbench/lattice.py, loaded without writing bytecode there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "lattice.py"
    spec = importlib.util.spec_from_file_location("perfbench_lattice", path)
    lattice = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(lattice)
    finally:
        sys.dont_write_bytecode = written
    return lattice


def lattice_sums_cases(seed: int) -> list:
    """The lattice-sums cases of one seed, built by perfbench/lattice.py."""
    return _generator().generate(seed, {s.name: s for s in PACKAGED})
