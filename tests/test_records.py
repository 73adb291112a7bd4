"""Result and input records: immutable, hashable, printed as before, and cheap to import."""

import json
import subprocess
import sys

import pytest

import agstab
from agstab.cones import ConeAnalysis
from agstab.pipeline import BettiReport, ConeClassRecord, Dataset, SmallnessReport, SmallnessViolation
from agstab.reference import SuiteCheck, SuiteReport
from agstab.series import TruncatedSeries
from wreath import symmetric_group

SERIES = TruncatedSeries([1, 1], 1)
S3 = symmetric_group(3)
SIGMA_1 = "ConeClassRecord(name='sigma_1', dimension=1, rank=1, poincare=TruncatedSeries('1 + t', order=1), multiplicity=1)"
VIOLATION = "SmallnessViolation(name='x', dimension=1, rank=4)"
CHECK = "SuiteCheck(label='betti t^0', expected='1', actual='1', ok=True)"

# a builder, one field, and the repr the record had as a frozen dataclass
RECORDS = {
    "ConeClassRecord": (lambda: ConeClassRecord("sigma_1", 1, 1, SERIES), "rank", SIGMA_1),
    "count-only ConeClassRecord": (
        lambda: ConeClassRecord("d8", 8, 5, None, 3),
        "multiplicity",
        "ConeClassRecord(name='d8', dimension=8, rank=5, poincare=None, multiplicity=3)",
    ),
    "Dataset": (
        lambda: Dataset("f", (ConeClassRecord("sigma_1", 1, 1, SERIES),), 8),
        "records",
        f"Dataset(family='f', records=({SIGMA_1},), completeness_dim=8)",
    ),
    "BettiReport": (
        lambda: BettiReport(SERIES, 1),
        "valid_up_to",
        "BettiReport(series=TruncatedSeries('1 + t', order=1), valid_up_to=1, includes_lambda=True)",
    ),
    "SmallnessViolation": (lambda: SmallnessViolation("x", 1, 4), "rank", VIOLATION),
    "SmallnessReport": (
        lambda: SmallnessReport(1, (SmallnessViolation("x", 1, 4),)),
        "checked",
        f"SmallnessReport(checked=1, violations=({VIOLATION},))",
    ),
    "SuiteCheck": (lambda: SuiteCheck("betti t^0", "1", "1", True), "ok", CHECK),
    "SuiteReport": (
        lambda: SuiteReport("s", (SuiteCheck("betti t^0", "1", "1", True),)),
        "checks",
        f"SuiteReport(suite='s', checks=({CHECK},))",
    ),
    "ConeAnalysis": (
        lambda: ConeAnalysis(3, 2, ((1, 2, 3),), S3, (1, 2, 3), TruncatedSeries([1, 1, 2], 2)),
        "aut",
        "ConeAnalysis(dimension=3, rank=2, components=((1, 2, 3),), aut=PermGroup(degree=3, order=6), "
        "form_basis=(1, 2, 3), poincare=TruncatedSeries('1 + t + 2*t^2', order=2))",
    ),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_records_are_frozen_hashable_and_print_as_before(kind):
    build, field, text = RECORDS[kind]
    record = build()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.note = "extra"
    twin = build()
    assert twin == record and hash(twin) == hash(record)


def test_a_library_import_loads_neither_the_suites_nor_the_cli(child_env):
    probe = """
import dataclasses, json, sys
import agstab.pipeline
for family in agstab.pipeline.PACKAGED_FAMILIES:
    agstab.pipeline.load_cone_specs(family)
loaded = [m for m in ("agstab.reference", "agstab.cli") if m in sys.modules]
import agstab
from agstab import SUITE_NAMES
print(json.dumps({
    "loaded": loaded,
    "suites": list(SUITE_NAMES),
    "run_suite": agstab.run_suite is sys.modules["agstab.reference"].run_suite,
    "dataclasses": [n for n in agstab.__all__ if dataclasses.is_dataclass(getattr(agstab, n))],
}))
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["loaded"] == []
    assert report["suites"] == list(agstab.SUITE_NAMES)
    assert report["run_suite"] is True
    assert report["dataclasses"] == ["ConeSpec"]
