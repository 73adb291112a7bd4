"""Dataset assembly and the stable Betti number computation.

A dataset is a list of cone class records (one per orbit of
irreducible cones).  The generator series collects t^dim * P(t) over
the records; Betti numbers are the coefficients of the plethystic
exponential of that series plus the odd-degree lambda-class part.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

from .cones import ConeSpec, analyze, load_cone
from .errors import InputError, json_int, json_list, json_object, json_str, read_json
from .perms import PermGroup
from .series import DEFAULT_ORDER, TruncatedSeries
from .symfunc import exp_series

DEGREE_CONVENTION = "t^k corresponds to cohomological (co)degree 2k"
PACKAGED_FAMILIES = ("matroidal", "perfect")
MANIFEST_KEYS = ("family", "completeness_dim", "cones", "count_only")
COUNT_ONLY_KEYS = ("dimension", "rank", "count")


class _ConeClassFields(NamedTuple):
    name: str
    dimension: int
    rank: int
    poincare: TruncatedSeries | None = None
    multiplicity: int = 1


class ConeClassRecord(_ConeClassFields):
    """One orbit of irreducible cones, either analyzed or count-only.

    Count-only records carry no series: they stand for orbits known
    just by dimension, rank and count, and contribute multiplicity
    generators at t^dimension (any Poincare series has constant 1).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.dimension < 1 or self.rank < 1:
            raise InputError(f"record {self.name!r}: dimension and rank must be positive")
        if self.multiplicity < 1:
            raise InputError(f"record {self.name!r}: multiplicity must be positive")
        if self.poincare is not None and self.poincare[0] != 1:
            raise InputError(f"record {self.name!r}: Poincare series must have constant 1")
        return self

    @property
    def is_count_only(self) -> bool:
        return self.poincare is None


class _DatasetFields(NamedTuple):
    family: str
    records: tuple[ConeClassRecord, ...]
    completeness_dim: int | None = None


class Dataset(_DatasetFields):
    """A family of cone class records, complete through one dimension.

    completeness_dim is the largest dimension D >= 0 through which the
    record list covers every irreducible orbit; None means the list is
    exact at all orders (synthetic collections).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        names = [r.name for r in self.records]
        if len(set(names)) != len(names):
            raise InputError(f"dataset {self.family!r}: duplicate record names")
        if self.completeness_dim is not None:
            if self.completeness_dim < 0:
                raise InputError(
                    f"dataset {self.family!r}: completeness_dim must be a non-negative integer, "
                    f"got {self.completeness_dim}"
                )
            for r in self.records:
                if r.dimension > self.completeness_dim:
                    raise InputError(
                        f"dataset {self.family!r}: record {r.name!r} exceeds "
                        f"completeness dimension {self.completeness_dim}"
                    )
        return self

    @property
    def count_only_records(self) -> tuple[ConeClassRecord, ...]:
        return tuple(r for r in self.records if r.is_count_only)


class BettiReport(NamedTuple):
    """A Betti (or display) series with its range of validity."""

    series: TruncatedSeries
    valid_up_to: int
    includes_lambda: bool = True

    def coefficients_int(self) -> tuple[int, ...]:
        return tuple(self.series.integer_coefficients())

    def to_json_dict(self) -> dict:
        return {
            "series": self.series.to_json_dict(),
            "coefficients": list(self.coefficients_int()),
            "valid_up_to": self.valid_up_to,
            "convention": DEGREE_CONVENTION,
            "includes_lambda": self.includes_lambda,
        }

    def to_csv(self) -> str:
        lines = ["k,coefficient,valid"]
        for k, c in enumerate(self.coefficients_int()):
            lines.append(f"{k},{c},{'true' if k <= self.valid_up_to else 'false'}")
        return "\n".join(lines) + "\n"


# -- loading ---------------------------------------------------------------


def _manifest_root(source: str | Path):
    """(traversable directory, manifest payload) for a path or family name.

    The payload is checked in full: no key outside MANIFEST_KEYS, family
    a string, completeness_dim an integer or absent, cones a list of
    strings, count_only a list of objects with integer dimension, rank
    and count and no other key.
    """
    if isinstance(source, str) and source in PACKAGED_FAMILIES:
        root = resources.files("agstab").joinpath("data")
        manifest = root.joinpath(f"{source}.json")
    else:
        manifest = Path(source)
        root = manifest.parent
    payload = json_object(read_json(manifest, "dataset manifest"), MANIFEST_KEYS, f"dataset manifest {source}")
    json_str(payload.get("family"), "family")
    if payload.get("completeness_dim") is not None:
        json_int(payload["completeness_dim"], "completeness_dim")
    for rel in json_list(payload.get("cones", []), "cones"):
        json_str(rel, "an entry of cones")
    for entry in json_list(payload.get("count_only", []), "count_only"):
        json_object(entry, COUNT_ONLY_KEYS, "a count_only entry")
        for key in COUNT_ONLY_KEYS:
            json_int(entry.get(key), f"{key} of a count_only entry")
    return root, payload


def load_cone_specs(source: str | Path) -> tuple[dict, list[ConeSpec]]:
    """The checked manifest payload and its cones, read by load_cone relative to the manifest."""
    root, payload = _manifest_root(source)
    return payload, [load_cone(root.joinpath(rel)) for rel in payload.get("cones", [])]


def load_dataset(
    source: str | Path,
    order: int = DEFAULT_ORDER,
    check: Callable[[ConeSpec, PermGroup], None] | None = None,
) -> Dataset:
    """Assemble a dataset from a manifest path or a packaged family name.

    load_cone_specs checks the manifest and every cone file in full, and
    the count_only entries, records without a series, make a first
    Dataset with completeness_dim, before any cone is analyzed.  Each
    cone then becomes one record from analyze(), its group from the
    search.  A cone with more than one component, or whose forms are
    dependent (not simplicial), is an input error: the records stand for
    irreducible simplicial cones.  check, when given, is called with
    each cone and its group.
    """
    payload, specs = load_cone_specs(source)
    family = payload["family"]
    count_only = []
    for entry in payload.get("count_only", []):
        dim, rank = entry["dimension"], entry["rank"]
        count_only.append(ConeClassRecord(f"count-only-d{dim}-r{rank}", dim, rank, None, entry["count"]))
    Dataset(family, tuple(count_only), payload.get("completeness_dim"))
    records = []
    for spec in specs:
        result = analyze(spec, order=order)
        if len(result.components) > 1:
            raise InputError(
                f"dataset {family!r}: cone {spec.name!r} is reducible: "
                f"it splits into {len(result.components)} components"
            )
        if result.dimension < spec.n_generators:
            raise InputError(
                f"dataset {family!r}: cone {spec.name!r} is not simplicial: "
                f"its {spec.n_generators} forms span only dimension {result.dimension}"
            )
        if check is not None:
            check(spec, result.aut)
        records.append(
            ConeClassRecord(spec.name, result.dimension, result.rank, result.poincare)
        )
    return Dataset(family, tuple(records + count_only), payload.get("completeness_dim"))


# -- series assembly -------------------------------------------------------


def lambda_series(order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Generator series of the odd lambda classes: t/(1-t^2)."""
    return TruncatedSeries([k % 2 for k in range(order + 1)], order)


def generator_series(
    dataset: Dataset, order: int = DEFAULT_ORDER, include_count_only: bool = True
) -> TruncatedSeries:
    """Sum of multiplicity * t^dimension * poincare over the records, as one coefficient list.

    The constant term is 0; displayed series add their leading 1
    separately (see display_series).
    """
    coeffs = [0] * (order + 1)
    for rec in dataset.records:
        if rec.is_count_only:
            if include_count_only and rec.dimension <= order:
                coeffs[rec.dimension] += rec.multiplicity
            continue
        head = order - rec.dimension
        if head < 0:
            continue
        if rec.poincare.order < head:
            raise InputError(
                f"record {rec.name!r} carries its series only to order {rec.poincare.order}; "
                f"reload the dataset at order {order} or higher"
            )
        for k, c in enumerate(rec.poincare.coefficients[: head + 1], rec.dimension):
            coeffs[k] += rec.multiplicity * c
    return TruncatedSeries(coeffs, order)


def display_series(dataset: Dataset, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Generator counts in the displayed convention: leading 1, full records only."""
    return TruncatedSeries.one(order) + generator_series(
        dataset, order, include_count_only=False
    )


def display_report(dataset: Dataset, order: int = DEFAULT_ORDER) -> BettiReport:
    valid = order
    if dataset.completeness_dim is not None:
        valid = min(order, dataset.completeness_dim)
        if dataset.count_only_records:
            valid = min(valid, dataset.completeness_dim - 1)
    return BettiReport(
        series=display_series(dataset, order),
        valid_up_to=valid,
        includes_lambda=False,
    )


def betti_series(
    dataset: Dataset, order: int = DEFAULT_ORDER, include_lambda: bool = True
) -> BettiReport:
    """Coefficients of Exp(lambda part + generator series).

    Coefficients beyond the dataset's completeness dimension are lower
    bounds only; valid_up_to marks the trustworthy range.
    """
    arg = generator_series(dataset, order)
    if include_lambda:
        arg = arg + lambda_series(order)
    series = exp_series(arg)
    valid = order if dataset.completeness_dim is None else min(order, dataset.completeness_dim)
    return BettiReport(series=series, valid_up_to=valid, includes_lambda=include_lambda)


# -- validation ------------------------------------------------------------


class SmallnessViolation(NamedTuple):
    name: str
    dimension: int
    rank: int


class SmallnessReport(NamedTuple):
    checked: int
    violations: tuple[SmallnessViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "checked": self.checked,
            "ok": self.ok,
            "violations": [
                {"name": v.name, "dimension": v.dimension, "rank": v.rank}
                for v in self.violations
            ],
        }


def validate_smallness(dataset: Dataset) -> SmallnessReport:
    """Check dim >= rank/2 + 1 for every record of rank at least 2.

    Rank-1 records are exempt; the bound is what keeps the stable range
    of each stratum large enough for the algorithm's validity.
    """
    violations = []
    checked = 0
    for rec in dataset.records:
        if rec.rank < 2:
            continue
        checked += 1
        if 2 * rec.dimension < rec.rank + 2:
            violations.append(SmallnessViolation(rec.name, rec.dimension, rec.rank))
    return SmallnessReport(checked, tuple(violations))
