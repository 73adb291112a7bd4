"""The three workloads: their inputs, one timed pass, and its checks.

A workload object is built from the seed (that is the set-up: parsing
the manifests and cone files, and generating inputs).  run_pass() is
the timed region; it keeps every output and every error it meets and
returns them.  check() runs after the timed region and records each
comparison in a Ledger.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import factorial
from pathlib import Path

import agstab
import agstab.cli
import agstab.pipeline
from agstab import reference
from agstab.cones import DEFAULT_NODE_BUDGET

import lattice

ORDER = 8

# |Aut| of every non-basic case lattice.py can build, by source cone and
# added vector in the source's coordinates (made by freeze_nonbasic.py).
NONBASIC_AUT = {
    name: {tuple(extra): order for extra, order in rows}
    for name, rows in json.loads((Path(__file__).parent / "nonbasic_aut.json").read_text()).items()
}

# Program functions are looked up at call time (agstab.analyze, not a
# local name bound at import) so that the tracer's wrappers are seen.

# Errors the program raises on purpose; anything else is a bug in the
# benchmark and stops the run.
CAUGHT = (agstab.AgstabError, ArithmeticError)
BUDGET = (agstab.SearchBudgetExceeded, agstab.CapExceeded)
MISMATCH = (agstab.VerificationFailed, ArithmeticError)

EXIT_KINDS = {1: "mismatch", 2: "error", 3: "budget"}  # agstab exit codes


class Ledger:
    """Attempted and failed checks; each failure is kept under its cone's name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []  # (cone, kind, detail)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def count(self, kind: str) -> int:
        return sum(1 for _, k, _ in self.failures if k == kind)

    def check(self, cone: str, label: str, expected, actual) -> None:
        self.attempted += 1
        if expected != actual:
            self.failures.append((cone, "mismatch", f"{label}: expected {expected!r}, got {actual!r}"))

    def fail(self, cone: str, kind: str, detail: str) -> None:
        self.attempted += 1
        self.failures.append((cone, kind, detail))

    def error(self, cone: str, exc: BaseException) -> None:
        if isinstance(exc, BUDGET):
            kind = "budget"
        elif isinstance(exc, MISMATCH):
            kind = "mismatch"
        else:
            kind = "error"
        self.fail(cone, kind, f"{type(exc).__name__}: {exc}")


def _packaged() -> tuple[dict, dict[str, agstab.ConeSpec]]:
    """The perfect manifest and every packaged cone by name (it lists the matroidal ones too)."""
    payload, specs = agstab.pipeline.load_cone_specs("perfect")
    return payload, {s.name: s for s in specs}


def _analyze_all(specs, node_budget=DEFAULT_NODE_BUDGET) -> dict:
    results = {}
    for spec in specs:
        try:
            results[spec.name] = agstab.analyze(spec, order=ORDER, node_budget=node_budget)
        except CAUGHT as exc:
            results[spec.name] = exc
    return results


def _records(results: dict) -> list:
    return [
        agstab.ConeClassRecord(name, r.dimension, r.rank, r.poincare)
        for name, r in results.items()
        if not isinstance(r, BaseException)
    ]


def _betti(family, records, completeness):
    try:
        return agstab.betti_series(agstab.Dataset(family, tuple(records), completeness), ORDER)
    except CAUGHT as exc:
        return exc


def _check_series(ledger, cone, label, expected, series) -> None:
    for k, want in enumerate(expected):
        ledger.check(cone, f"{label} t^{k}", Fraction(want), series[k])


class Sources:
    """Expected invariants of packaged cones, from their declared generators.

    Computed on first use, after the timed region, and kept for the run.
    """

    def __init__(self, specs: dict[str, agstab.ConeSpec]):
        self.specs = specs
        self._cache: dict[str, tuple] = {}

    def group(self, name: str) -> agstab.PermGroup:
        spec = self.specs[name]
        gens = spec.declared_aut or (agstab.Permutation.identity(spec.n_generators),)
        return agstab.PermGroup.from_generators(gens)

    def __getitem__(self, name: str) -> tuple[int, int, int, agstab.TruncatedSeries]:
        """(dimension, rank, |Aut|, Poincare series to ORDER)."""
        if name not in self._cache:
            spec = self.specs[name]
            group = self.group(name)
            self._cache[name] = (
                agstab.cone_dimension(spec),
                agstab.cone_rank(spec),
                group.order,
                agstab.cone_poincare_series(spec, group, ORDER),
            )
        return self._cache[name]


class PerfectSearch:
    """All 28 packaged perfect cones with declared generators stripped, then Betti to t^8.

    The search is the only source of symmetry here, so this workload
    measures it and never closes declared generators.
    """

    name = "perfect-search"

    def __init__(self, seed: int):
        payload, packaged = _packaged()
        self.specs = [replace(s, declared_aut=None) for s in packaged.values()]
        self.sources = Sources(packaged)
        self.family = str(payload["family"])
        self.completeness = int(payload["completeness_dim"])
        self.count_only = [
            agstab.ConeClassRecord(f"count-only-d{e['dimension']}-r{e['rank']}", e["dimension"], e["rank"], None, e["count"])
            for e in payload["count_only"]
        ]
        self.node_budget = DEFAULT_NODE_BUDGET
        self._orders = None

    def expected_orders(self) -> dict[str, int]:
        """Table 4 orders for the non-matroidal cones, declared closures for the rest."""
        if self._orders is None:
            self._orders = {s.name: self.sources.group(s.name).order for s in self.specs}
            self._orders.update(reference.PERFECT_GROUP_ORDERS)
        return self._orders

    def run_pass(self):
        results = _analyze_all(self.specs, self.node_budget)
        betti = _betti(self.family, _records(results) + self.count_only, self.completeness)
        return results, betti

    def check(self, outputs, ledger: Ledger) -> None:
        results, betti = outputs
        orders = self.expected_orders()
        for name, result in results.items():
            if isinstance(result, BaseException):
                ledger.error(name, result)
            else:
                ledger.check(name, "|Aut|", orders[name], result.aut.order)
        if isinstance(betti, BaseException):
            ledger.error("betti", betti)
        else:
            _check_series(ledger, "betti", "betti", reference.BETTI_PERFECT, betti.series)


class DeclaredSeries:
    """The CLI's default path, as users run it, with stdout captured.

    Declared generators are verified and closed, and conjugacy-class
    Molien sums do most of the work.
    """

    name = "declared-series"

    COMMANDS = (
        ("betti", "--dataset", "matroidal", "--order", "8"),
        ("betti", "--dataset", "perfect", "--order", "8"),
        ("betti", "--dataset", "matroidal", "--order", "20", "--paper-display"),
        ("betti", "--dataset", "perfect", "--order", "20", "--paper-display"),
        ("verify", "--suite", "table2"),
    )
    # (coefficients, valid_up_to) per betti command, in order
    EXPECTED = (
        (reference.BETTI_MATROIDAL, 8),
        (reference.BETTI_PERFECT, 8),
        (reference.DISPLAY_MATROIDAL, 7),
        (reference.DISPLAY_PERFECT, 7),
    )

    def __init__(self, seed: int):
        # parsed so that set-up covers this workload's files; each pass
        # reads them again through the CLI, as users do
        self.manifests = [agstab.pipeline.load_cone_specs(family) for family in ("matroidal", "perfect")]

    def run_pass(self):
        outputs = []
        for argv in self.COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = agstab.cli.main(list(argv))
                except CAUGHT as exc:
                    code = exc
            outputs.append((argv, code, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, outputs, ledger: Ledger) -> None:
        for (argv, code, out, err), expected in zip(outputs, self.EXPECTED + (None,)):
            command = " ".join(argv)
            if isinstance(code, BaseException):
                ledger.error(command, code)
            elif code != 0 and expected is not None:
                ledger.fail(command, EXIT_KINDS.get(code, "error"), err.strip())
            elif expected is not None:
                coefficients, valid = expected
                try:
                    payload = json.loads(out)
                except ValueError:
                    ledger.fail(command, "mismatch", f"output is not JSON: {out[:80]!r}")
                    continue
                got = payload["coefficients"]
                for k, want in enumerate(coefficients):
                    ledger.check(command, f"t^{k}", want, got[k] if k < len(got) else None)
                ledger.check(command, "valid_up_to", valid, payload["valid_up_to"])
            else:
                self._check_table2(command, code, out, err, ledger)

    @staticmethod
    def _check_table2(command, code, out, err, ledger) -> None:
        if code not in (0, 1):
            ledger.fail(command, EXIT_KINDS.get(code, "error"), err.strip())
            return
        lines = out.splitlines()
        ledger.check(command, "checks", len(reference.MOLIEN_CLOSED_FORMS), len(lines))
        for line in lines:
            status, _, rest = line.partition(" ")
            label = rest.split(":")[0]
            cone = label.split()[1] if label.startswith("molien ") else command
            ledger.check(cone, label, "PASS", status)


def _coordinates(rows):
    """Greedy basis of the rows (indices) and every row's coordinates in it."""
    basis: list[int] = []
    echelon: list[tuple[int, list[Fraction], list[Fraction]]] = []  # pivot, vector, combination
    coords = []
    width = len(rows[0])
    for idx, row in enumerate(rows):
        x = [Fraction(v) for v in row]
        c = [Fraction(0)] * len(rows)  # row = x + sum c[a] * rows[a]
        for pivot, vec, comb in echelon:
            f = x[pivot] / vec[pivot]
            if f:
                x = [a - f * b for a, b in zip(x, vec)]
                c = [a + f * b for a, b in zip(c, comb)]
        pivot = next((j for j in range(width) if x[j]), None)
        if pivot is None:
            coords.append(c)
            continue
        comb = [-a for a in c]
        comb[idx] = Fraction(1)
        echelon.append((pivot, x, comb))
        basis.append(idx)
        coords.append([Fraction(int(a == idx)) for a in range(len(rows))])
    return basis, [[c[b] for b in basis] for c in coords]


def naive_form_molien(spec: agstab.ConeSpec, group: agstab.PermGroup) -> agstab.TruncatedSeries:
    """Element-by-element Molien sum of the group on the span of the forms v v^T.

    The matrices are built here, independently of cone_poincare_series.
    """
    g = spec.ambient
    forms = [[v[i] * v[j] for i in range(g) for j in range(i, g)] for v in spec.generators]
    basis, coords = _coordinates(forms)
    d = len(basis)
    matrices = {}
    for p in group.elements:
        cols = [coords[p(b + 1) - 1] for b in basis]
        matrices[p] = agstab.RationalMatrix([[cols[a][x] for a in range(d)] for x in range(d)])
    return agstab.molien_series_naive(agstab.LinearAction.from_matrices(group, matrices), ORDER)


class LatticeSums:
    """Seeded GL(Z) images, direct sums and non-basic cones, then their Betti series.

    The only workload where component splitting, the s > r search leaf,
    matrix-path Molien sums and larger lattice entries do real work.
    """

    name = "lattice-sums"

    def __init__(self, seed: int):
        _, packaged = _packaged()
        self.cases = lattice.generate(seed, packaged)
        self.sources = Sources(packaged)

    def run_pass(self):
        results = _analyze_all(case.spec for case in self.cases)
        return results, _betti("lattice-sums", _records(results), None)

    def _expected(self, case: lattice.Case) -> tuple[int, int, int, agstab.TruncatedSeries | None]:
        if case.kind == "image":
            return self.sources[case.sources[0]]
        if case.kind == "nonbasic":
            dim, rank, _, _ = self.sources[case.sources[0]]
            return dim, rank, NONBASIC_AUT[case.sources[0]][case.extra], None
        dim, rank, order = 0, 0, 1
        series = agstab.TruncatedSeries.one(ORDER)
        for name, m in Counter(case.sources).items():
            d, r, o, p = self.sources[name]
            dim, rank = dim + m * d, rank + m * r
            order *= o**m * factorial(m)
            series = series * agstab.plethysm_h(m, p)
        return dim, rank, order, series

    def check(self, outputs, ledger: Ledger) -> None:
        results, betti = outputs
        expected_records = []
        for case in self.cases:
            name = case.spec.name
            dim, rank, order, series = self._expected(case)
            result = results[name]
            if isinstance(result, BaseException):
                ledger.error(name, result)
                continue
            ledger.check(name, "components", case.blocks, result.components)
            ledger.check(name, "rank", rank, result.rank)
            ledger.check(name, "dimension", dim, result.dimension)
            ledger.check(name, "|Aut|", order, result.aut.order)
            if case.kind == "nonbasic":
                ledger.check(name, "non-basic", True, result.dimension < case.spec.n_generators)
                series = naive_form_molien(case.spec, result.aut)
            ledger.check(name, "Poincare", series, result.poincare)
            expected_records.append(agstab.ConeClassRecord(name, dim, rank, series))
        if isinstance(betti, BaseException):
            ledger.error("betti", betti)
        else:
            want = _betti("lattice-sums", expected_records, None)
            if isinstance(want, BaseException):
                ledger.error("betti", want)
            else:
                ledger.check("betti", "betti", want.series, betti.series)


WORKLOADS = {w.name: w for w in (PerfectSearch, DeclaredSeries, LatticeSums)}
