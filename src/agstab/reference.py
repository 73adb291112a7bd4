"""Verification suites against frozen reference values.

Each suite recomputes a published quantity from the shipped data and
compares exactly.  Reference rows are stored as plain tuples; closed
forms are stored as (numerator coefficients, denominator exponents)
pairs expanded on demand, never as preexpanded coefficient dumps.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .cones import cone_automorphisms, cone_poincare_series
from .errors import InputError
from .pipeline import (
    Dataset,
    betti_series,
    display_series,
    load_cone_specs,
    load_dataset,
)
from .series import TruncatedSeries, expand_rational_form

# Stable Betti numbers through t^8 (degree/codegree 16).
BETTI_MATROIDAL = (1, 2, 4, 9, 18, 37, 79, 169, 379)
BETTI_PERFECT = (1, 2, 4, 9, 18, 38, 84, 193, 494)

# Displayed generator-count series (leading-1 convention).
DISPLAY_SIGMA1_K3 = (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 9, 11, 13, 15)
DISPLAY_MATROIDAL = (
    1, 1, 1, 2, 3, 6, 13, 28, 55, 113, 210,
    384, 663, 1109, 1776, 2778, 4196, 6209, 8958, 12691, 17621,
)
DISPLAY_PERFECT = (
    1, 1, 1, 2, 3, 7, 16, 42, 83, 177, 331,
    611, 1049, 1754, 2790, 4343, 6518, 9596, 13759, 19400, 26792,
)

# Molien series of the non-cyclic irreducible matroidal cones, as
# numerator coefficients and denominator exponents {i: e} standing for
# numerator / prod (1 - t^i)^e.
MOLIEN_CLOSED_FORMS = {
    "K_4": ((1, 0, 0, 1, 1, 1, 1, 0, 0, 1), {1: 1, 2: 2, 3: 2, 4: 1}),
    "C_222": ((1, 0, 0, 0, 1, 1, 0, -1, -1, 0, 0, 0, -1), {1: 1, 2: 2, 3: 2, 4: 1, 6: 1}),
    "C_2221": ((1, 0, 0, 0, 1, 1, 0, -1, -1, 0, 0, 0, -1), {1: 2, 2: 2, 3: 2, 4: 1, 6: 1}),
    "C_321": ((1,), {1: 3, 2: 2, 3: 1}),
    "K_5-3": ((1, -1, 2), {1: 4, 2: 2, 4: 1}),
    "K_5-2-1": ((1, -1, 1), {1: 4, 2: 3}),
    "C_421": ((1,), {1: 3, 2: 2, 3: 1, 4: 1}),
    "C_331": ((1, -1, 1, 0, 1), {1: 3, 2: 1, 3: 1, 4: 1, 6: 1}),
    "C_322": ((1, 0, 0, 0, 0, 0, -1), {1: 2, 2: 3, 3: 2, 4: 1}),
}

# Automorphism group orders of the non-matroidal perfect cones.
PERFECT_GROUP_ORDERS = {
    "(5,5)": 120,
    "(5,6)": 120,
    "(5,7a)": 48,
    "(5,7b)": 24,
    "(6,6)": 720,
    "(6,7a)": 48,
    "(6,7b)": 720,
    "(6,7c)": 240,
    "(6,7d)": 48,
    "(7,7a)": 240,
    "(7,7b)": 5040,
    "(7,7c)": 5040,
}

class SuiteCheck(NamedTuple):
    label: str
    expected: str
    actual: str
    ok: bool


class SuiteReport(NamedTuple):
    suite: str
    checks: tuple[SuiteCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            if c.ok:
                out.append(f"PASS {c.label}")
            else:
                out.append(f"FAIL {c.label}: expected {c.expected}, got {c.actual}")
        return out


def _coefficient_checks(label: str, expected, series: TruncatedSeries) -> list[SuiteCheck]:
    checks = []
    for k, want in enumerate(expected):
        got = series[k]
        checks.append(SuiteCheck(f"{label} t^{k}", str(want), str(got), got == want))
    return checks


def _suite_betti16(family: str, row: tuple[int, ...]) -> SuiteReport:
    """The family's stable Betti numbers through t^8 (degree/codegree 16) against row."""
    report = betti_series(load_dataset(family, order=8), order=8)
    return SuiteReport(f"{family}16", tuple(_coefficient_checks("betti", row, report.series)))


def _suite_section6() -> SuiteReport:
    order = 20
    matroidal = load_dataset("matroidal", order=order)
    by_name = {r.name: r for r in matroidal.records}
    checks = []

    standard = Dataset("standard", (by_name["sigma_1"],))
    checks += _coefficient_checks(
        "standard", tuple(1 for _ in range(order + 1)), display_series(standard, order)
    )
    two_cone = Dataset("sigma1+K_3", (by_name["sigma_1"], by_name["K_3"]))
    checks += _coefficient_checks(
        "sigma1+K_3", DISPLAY_SIGMA1_K3, display_series(two_cone, order)
    )
    checks += _coefficient_checks(
        "matroidal display", DISPLAY_MATROIDAL, display_series(matroidal, order)
    )
    perfect = load_dataset("perfect", order=order)
    checks += _coefficient_checks(
        "perfect display", DISPLAY_PERFECT, display_series(perfect, order)
    )
    return SuiteReport("section6", tuple(checks))


def _suite_table2() -> SuiteReport:
    order = 30
    _, specs = load_cone_specs("matroidal")
    by_name = {s.name: s for s in specs}
    checks = []
    for name, (numerator, denominator) in MOLIEN_CLOSED_FORMS.items():
        spec = by_name[name]
        group = cone_automorphisms(spec)
        series = cone_poincare_series(spec, group, order)
        closed = expand_rational_form(numerator, denominator, order)
        ok = series == closed
        checks.append(
            SuiteCheck(
                f"molien {name} (order {order})",
                closed.truncate(8).polynomial_string() + " + ...",
                "match" if ok else series.truncate(8).polynomial_string() + " + ...",
                ok,
            )
        )
    return SuiteReport("table2", tuple(checks))


def _suite_table4() -> SuiteReport:
    _, specs = load_cone_specs("perfect")
    by_name = {s.name: s for s in specs}
    checks = []
    for name, want in PERFECT_GROUP_ORDERS.items():
        group = cone_automorphisms(by_name[name])
        checks.append(
            SuiteCheck(f"aut order {name}", str(want), str(group.order), group.order == want)
        )
    return SuiteReport("table4", tuple(checks))


_SUITES = {
    "matroidal16": partial(_suite_betti16, "matroidal", BETTI_MATROIDAL),
    "perfect16": partial(_suite_betti16, "perfect", BETTI_PERFECT),
    "section6": _suite_section6,
    "table2": _suite_table2,
    "table4": _suite_table4,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> SuiteReport:
    if name not in _SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()
