import os
from pathlib import Path

import pytest

import agstab
from agstab.pipeline import load_cone_specs, load_dataset


@pytest.fixture(scope="session")
def matroidal_specs():
    _, specs = load_cone_specs("matroidal")
    return {s.name: s for s in specs}


@pytest.fixture(scope="session")
def perfect_specs():
    _, specs = load_cone_specs("perfect")
    return {s.name: s for s in specs}


@pytest.fixture(scope="session")
def matroidal_dataset():
    return load_dataset("matroidal", order=24)


@pytest.fixture(scope="session")
def perfect_dataset():
    return load_dataset("perfect", order=24)


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports agstab from this source tree."""
    src = str(Path(agstab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
