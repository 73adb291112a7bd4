"""Dataset assembly, generating series, and the stable Betti pipeline."""

import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab.cones import cyclic_cone
from agstab.errors import InputError
from agstab.pipeline import (
    ConeClassRecord,
    Dataset,
    betti_series,
    display_report,
    display_series,
    generator_series,
    lambda_series,
    load_dataset,
    validate_smallness,
)
from agstab.reference import DISPLAY_PERFECT
from agstab.series import TruncatedSeries, product_form

# frozen rows used across the suite
BETTI_MATROIDAL = (1, 2, 4, 9, 18, 37, 79, 169, 379)
BETTI_PERFECT = (1, 2, 4, 9, 18, 38, 84, 193, 494)
ODD_PARTITIONS = (1, 1, 1, 2, 2, 3, 4, 5, 6, 8, 10)
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def record(name, dim, rank, poincare, mult=1):
    return ConeClassRecord(name, dim, rank, poincare, mult)


def full_records(dataset):
    return tuple(r for r in dataset.records if not r.is_count_only)


def standard_record(order):
    p = product_form({1: 1}, order)
    return record("sigma_1", 1, 1, p)


def test_lambda_series_alternates():
    assert lambda_series(8).integer_coefficients() == [0, 1, 0, 1, 0, 1, 0, 1, 0]


def test_empty_dataset_betti_is_odd_partition_series():
    ds = Dataset("empty", (), None)
    rep = betti_series(ds, 10)
    assert rep.coefficients_int() == ODD_PARTITIONS
    assert rep.valid_up_to == 10
    assert rep.includes_lambda


def test_single_standard_cone_without_lambda_gives_partition_numbers():
    ds = Dataset("standard", (standard_record(10),), None)
    rep = betti_series(ds, 10, include_lambda=False)
    assert rep.coefficients_int() == PARTITIONS
    assert not rep.includes_lambda


def test_display_series_adds_leading_one():
    ds = Dataset("standard", (standard_record(12),), None)
    disp = display_series(ds, 12)
    assert disp.integer_coefficients() == [1] * 13


def test_betti_rows_from_packaged_data(matroidal_dataset, perfect_dataset):
    assert betti_series(matroidal_dataset, 8).coefficients_int() == BETTI_MATROIDAL
    assert betti_series(perfect_dataset, 8).coefficients_int() == BETTI_PERFECT


def test_lambda_factorization(matroidal_dataset):
    with_lambda = betti_series(matroidal_dataset, 12).series
    without = betti_series(matroidal_dataset, 12, include_lambda=False).series
    odd = product_form({i: 1 for i in range(1, 13, 2)}, 12)
    assert with_lambda == without * odd


def test_union_additivity(matroidal_dataset):
    records = full_records(matroidal_dataset)
    half_a = Dataset("a", tuple(records[:5]), None)
    half_b = Dataset("b", tuple(records[5:]), None)
    union = Dataset("u", tuple(records), None)
    ga = generator_series(half_a, 12)
    gb = generator_series(half_b, 12)
    gu = generator_series(union, 12)
    assert gu == ga + gb
    ba = betti_series(half_a, 12, include_lambda=False).series
    bb = betti_series(half_b, 12, include_lambda=False).series
    bu = betti_series(union, 12, include_lambda=False).series
    assert bu == ba * bb


def test_monotonicity_under_added_records(matroidal_dataset):
    records = full_records(matroidal_dataset)
    smaller = Dataset("s", tuple(records[:6]), None)
    larger = Dataset("l", tuple(records), None)
    a = betti_series(smaller, 10).series
    b = betti_series(larger, 10).series
    assert all(x <= y for x, y in zip(a.coefficients, b.coefficients))


def test_generator_series_counts_count_only_records(matroidal_dataset):
    full = generator_series(matroidal_dataset, 8)
    bare = generator_series(matroidal_dataset, 8, include_count_only=False)
    diff = full - bare
    # fifteen dimension-8 classes enter at t^8 only
    assert diff.integer_coefficients() == [0] * 8 + [15]


def test_valid_up_to_capping(matroidal_dataset):
    rep = betti_series(matroidal_dataset, 12)
    assert rep.valid_up_to == 8
    rep_small = betti_series(matroidal_dataset, 5)
    assert rep_small.valid_up_to == 5


def test_display_report_caps_below_completeness_with_count_only(matroidal_dataset):
    rep = display_report(matroidal_dataset, 12)
    assert rep.valid_up_to == 7
    bare = Dataset("bare", full_records(matroidal_dataset), matroidal_dataset.completeness_dim)
    assert display_report(bare, 12).valid_up_to == 8


def _scratch_manifest(tmp_path, completeness_dim, count_only_dim):
    """sigma_1, K_3 and one count-only class, as a manifest file."""
    for name in ("sigma_1", "K_3"):
        text = resources.files("agstab").joinpath("data", "cones", f"{name}.json").read_text()
        (tmp_path / f"{name}.json").write_text(text)
    path = tmp_path / "scratch.json"
    path.write_text(json.dumps({
        "family": "scratch",
        "completeness_dim": completeness_dim,
        "cones": ["sigma_1.json", "K_3.json"],
        "count_only": [{"dimension": count_only_dim, "rank": 2, "count": 1}],
    }))
    return path


@pytest.mark.parametrize("completeness_dim, count_only_dim, betti_valid, display_valid", [
    (4, 2, 2, 1),  # the count-only class, not D, bounds both reports
    (None, 3, 3, 2),  # with no D, the count-only class alone bounds them
])
def test_count_only_records_bound_both_reports(tmp_path, completeness_dim, count_only_dim, betti_valid, display_valid):
    ds = load_dataset(_scratch_manifest(tmp_path, completeness_dim, count_only_dim), order=6)
    betti, display = betti_series(ds, 6), display_report(ds, 6)
    assert (betti.valid_up_to, display.valid_up_to) == (betti_valid, display_valid)
    # the bound is sharp: a series 1 + t for the count-only class moves the next coefficient of each
    (count_only,) = ds.count_only_records
    filled = record(count_only.name, count_only.dimension, count_only.rank, TruncatedSeries([1, 1], 6))
    known = Dataset(ds.family, full_records(ds) + (filled,), completeness_dim)
    for report, valid in ((betti_series, betti_valid), (display_report, display_valid)):
        before, after = report(ds, 6).series.coefficients, report(known, 6).series.coefficients
        assert before[: valid + 1] == after[: valid + 1]
        assert before[valid + 1] != after[valid + 1]


_poincare = st.lists(st.integers(0, 3), min_size=8, max_size=8).map(lambda tail: TruncatedSeries([1, *tail]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_filling_in_count_only_records_keeps_every_valid_coefficient(data):
    full = data.draw(st.lists(st.tuples(st.integers(1, 5), _poincare), max_size=3))
    count_only = data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 3)), min_size=1, max_size=3))
    top = max(dim for dim, _ in full + count_only)
    completeness_dim = data.draw(st.one_of(st.none(), st.integers(top, 9)))
    order = data.draw(st.integers(0, 8))
    records = tuple(record(f"full-{i}", dim, 1, p) for i, (dim, p) in enumerate(full))
    unknown = tuple(record(f"count-{i}", dim, 1, None, mult) for i, (dim, mult) in enumerate(count_only))
    # any count-only record may be any full record of its dimension
    known = tuple(
        record(r.name, r.dimension, 1, data.draw(_poincare), r.multiplicity) if data.draw(st.booleans()) else r
        for r in unknown
    )
    before = Dataset("d", records + unknown, completeness_dim)
    after = Dataset("d", records + known, completeness_dim)
    for report in (betti_series, display_report):
        a, b = report(before, order), report(after, order)
        assert a.series.coefficients[: a.valid_up_to + 1] == b.series.coefficients[: a.valid_up_to + 1]


def test_perfect_generator_counts_matches_packaged_display(perfect_dataset):
    series = display_series(perfect_dataset, 20)
    assert series == TruncatedSeries.one(20) + generator_series(
        perfect_dataset, 20, include_count_only=False)
    assert tuple(series.integer_coefficients()) == DISPLAY_PERFECT


def test_generator_series_needs_enough_resolution():
    p = product_form({1: 1}, 4)
    ds = Dataset("short", (record("sigma_1", 1, 1, p),), None)
    with pytest.raises(InputError):
        generator_series(ds, 10)


def test_record_validation():
    p = product_form({1: 1}, 8)
    with pytest.raises(InputError):
        record("bad", 0, 1, p)
    with pytest.raises(InputError):
        record("bad", 1, 0, p)
    with pytest.raises(InputError):
        record("bad", 1, 1, p * TruncatedSeries([0, 1], 8))
    with pytest.raises(InputError):
        record("bad", 1, 1, p, mult=0)


def test_record_checks_run_on_keyword_arguments():
    p = product_form({1: 1}, 8)
    with pytest.raises(InputError, match="dimension and rank"):
        ConeClassRecord(name="bad", dimension=-1, rank=1)
    with pytest.raises(InputError, match="constant 1"):
        ConeClassRecord("bad", 1, 1, poincare=TruncatedSeries([2, 1], 8))
    with pytest.raises(InputError, match="multiplicity"):
        ConeClassRecord("count-only", 2, 1, multiplicity=0)
    with pytest.raises(InputError, match="duplicate"):
        Dataset(family="dup", records=(record("x", 1, 1, p), record("x", 2, 1, p)))
    with pytest.raises(InputError, match="exceeds completeness"):
        Dataset("deep", (record("x", 9, 5, p),), completeness_dim=8)


def test_count_only_records():
    r = ConeClassRecord("count-only-d8-r5", 8, 5, None, 8)
    assert r.is_count_only
    ds = Dataset("f", (r,), 8)
    assert ds.count_only_records == (r,)
    assert full_records(ds) == ()


def test_dataset_validation():
    p = product_form({1: 1}, 8)
    a = record("x", 1, 1, p)
    with pytest.raises(InputError):
        Dataset("dup", (a, a), None)
    with pytest.raises(InputError):
        Dataset("deep", (record("x", 9, 5, p),), 8)
    with pytest.raises(InputError, match="completeness_dim must be a non-negative integer, got -3"):
        Dataset("x", (), -3)
    assert Dataset("x", (), 0).completeness_dim == 0


def test_smallness_validation(matroidal_dataset, perfect_dataset):
    assert validate_smallness(matroidal_dataset).ok
    assert validate_smallness(perfect_dataset).ok
    p = product_form({1: 1}, 8)
    flat = Dataset("flat", (record("violator", 2, 4, p),), None)
    report = validate_smallness(flat)
    assert not report.ok
    assert report.violations[0].name == "violator"
    # boundary case passes: 2 * 3 == 4 + 2
    edge = Dataset("edge", (record("edge", 3, 4, p),), None)
    assert validate_smallness(edge).ok
    # rank one is exempt
    thin = Dataset("thin", (record("line", 1, 1, p),), None)
    assert validate_smallness(thin).ok


def test_smallness_holds_for_cyclic_family():
    for k in (1, 3, 4, 5, 6, 7):
        spec = cyclic_cone(k)
        dim, rank = spec.n_generators, max(k - 1, 1)
        assert 2 * dim >= rank + 2 or rank < 2


def test_report_serialization(matroidal_dataset):
    rep = betti_series(matroidal_dataset, 10)
    d = rep.to_json_dict()
    assert d["valid_up_to"] == 8
    assert d["includes_lambda"] is True
    assert d["coefficients"][:3] == [1, 2, 4]
    csv = rep.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "k,coefficient,valid"
    assert lines[1] == "0,1,true"
    assert lines[-1] == "10," + str(rep.coefficients_int()[10]) + ",false"


def test_load_dataset_from_manifest_path(tmp_path):
    cone = cyclic_cone(3)
    (tmp_path / "k3.json").write_text(json.dumps(cone.to_json_dict()))
    manifest = {
        "family": "tiny",
        "completeness_dim": 4,
        "cones": ["k3.json"],
        "count_only": [{"dimension": 4, "rank": 3, "count": 2}],
    }
    mpath = tmp_path / "tiny.json"
    mpath.write_text(json.dumps(manifest))
    ds = load_dataset(mpath, order=10)
    assert ds.family == "tiny"
    assert ds.completeness_dim == 4
    assert len(ds.records) == 2
    g = generator_series(ds, 6)
    # K_3 enters at t^3 with its Molien tail, the pair of unknowns at t^4
    assert g.integer_coefficients()[3] == 1
    assert g.integer_coefficients()[4] == 1 + 2


def test_manifest_is_checked_before_any_cone_is_analyzed(tmp_path, monkeypatch):
    import agstab.pipeline

    calls = []
    analyze = agstab.pipeline.analyze
    monkeypatch.setattr(agstab.pipeline, "analyze", lambda *a, **k: calls.append(a) or analyze(*a, **k))
    (tmp_path / "k3.json").write_text(json.dumps(cyclic_cone(3).to_json_dict()))
    manifest = {"family": "tiny", "cones": ["k3.json"], "count_only": [{"dimension": 4, "rank": 3, "count": "2"}]}
    mpath = tmp_path / "tiny.json"
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(InputError, match="count of a count_only entry must be an integer"):
        load_dataset(mpath)
    # a negative completeness_dim is refused by Dataset's own rule, before the cone too
    mpath.write_text(json.dumps({**manifest, "count_only": [], "completeness_dim": -1}))
    with pytest.raises(InputError, match="completeness_dim must be a non-negative integer, got -1"):
        load_dataset(mpath)
    assert calls == []
    # the well-formed manifest loads through the same counted analyze
    manifest["count_only"][0]["count"] = 2
    mpath.write_text(json.dumps(manifest))
    assert len(load_dataset(mpath, order=4).records) == 2
    assert len(calls) == 1
