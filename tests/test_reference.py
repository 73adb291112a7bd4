"""Frozen rows and the named verification suites."""

import pytest

from agstab.errors import InputError
from agstab.reference import (
    BETTI_MATROIDAL,
    BETTI_PERFECT,
    DISPLAY_MATROIDAL,
    DISPLAY_PERFECT,
    DISPLAY_SIGMA1_K3,
    MOLIEN_CLOSED_FORMS,
    PERFECT_GROUP_ORDERS,
    SUITE_NAMES,
    run_suite,
)


def test_fixture_shapes():
    assert len(BETTI_MATROIDAL) == 9
    assert len(BETTI_PERFECT) == 9
    assert BETTI_MATROIDAL[:5] == BETTI_PERFECT[:5]
    assert len(DISPLAY_MATROIDAL) == 21
    assert len(DISPLAY_PERFECT) == 21
    assert len(DISPLAY_SIGMA1_K3) == 14
    assert len(MOLIEN_CLOSED_FORMS) == 9
    assert len(PERFECT_GROUP_ORDERS) == 12


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite("nonsense")


def test_suite_report_lines():
    report = run_suite("table2")
    assert report.ok
    lines = report.lines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


def test_suite_names_complete():
    assert SUITE_NAMES == ("matroidal16", "perfect16", "section6", "table2", "table4")
