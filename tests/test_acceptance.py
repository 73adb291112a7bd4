"""Acceptance gate: one check per published target, one printed line each."""

import time

import pytest

from agstab.cli import main
from agstab.cones import (
    ConeSpec,
    cone_automorphisms,
    cone_dimension,
    cone_poincare_series,
    cyclic_cone,
    direct_sum,
    form_coordinates,
)
from agstab.molien import LinearAction, molien_series, molien_series_naive
from agstab.perms import PermGroup, Permutation
from agstab.pipeline import Dataset, betti_series, generator_series, load_cone_specs, load_dataset
from agstab.series import TruncatedSeries
from agstab.symfunc import exp_series, exp_series_via_h, plethysm_h
from lattice_oracles import flattened_form_coordinates, same_coordinates
from wreath import wreath_product


@pytest.fixture
def announce(capsys):
    def _announce(label, ok, secs):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            print(f"ACCEPTANCE {verdict} ({secs:5.1f}s) {label}")
        assert ok, label
    return _announce


def run_cli(capsys, *argv):
    code = main(list(argv))
    capsys.readouterr()
    return code


def test_criterion_1_matroidal_betti_rows(announce, capsys):
    t0 = time.time()
    code = run_cli(capsys, "verify", "--suite", "matroidal16")
    secs = time.time() - t0
    announce("1: matroidal Betti numbers through degree 16, < 0.25 s", code == 0 and secs < 0.25, secs)


def test_criterion_2_perfect_betti_rows(announce, capsys):
    t0 = time.time()
    code = run_cli(capsys, "verify", "--suite", "perfect16")
    secs = time.time() - t0
    announce("2: perfect-cone Betti numbers through codegree 16, < 0.25 s", code == 0 and secs < 0.25, secs)


def test_criterion_3_display_series(announce, capsys):
    t0 = time.time()
    code = run_cli(capsys, "verify", "--suite", "section6")
    secs = time.time() - t0
    announce("3: display-convention series through t^20, < 0.25 s", code == 0 and secs < 0.25, secs)


def test_criterion_4_group_tables(announce, capsys):
    t0 = time.time()
    code2 = run_cli(capsys, "verify", "--suite", "table2")
    code4 = run_cli(capsys, "verify", "--suite", "table4")
    secs = time.time() - t0
    announce("4: nine Molien closed forms and twelve searched group orders, < 0.25 s",
             code2 == 0 and code4 == 0 and secs < 0.25, secs)


def test_criterion_5_property_suite(announce):
    t0 = time.time()
    ok = True

    # the keyed Molien sum equals the elementwise average on every corpus group
    # of order at most 1000
    _, mat_specs = load_cone_specs("matroidal")
    _, perf_specs = load_cone_specs("perfect")
    corpus = {s.name: s for s in mat_specs + perf_specs}
    for spec in corpus.values():
        group = cone_automorphisms(spec)
        if group.order > 1000:
            continue
        action = LinearAction.natural(group)
        ok = ok and molien_series(action, 10) == molien_series_naive(action, 10)

    # so it does on the form-span action of non-basic cones: a square's four
    # lines, and K_3, K_4 and C_321 each with one generator a -+ b added
    nonbasic = [ConeSpec("square", 2, ((1, 0), (0, 1), (1, -1), (1, 1)))]
    for name, extra in (("K_3", (1, 1)), ("K_4", (1, 1, -2)), ("C_321", (1, 0, 0, 1))):
        spec = corpus[name]
        nonbasic.append(ConeSpec(name + "+", spec.ambient, spec.generators + (extra,)))
    for spec in nonbasic:
        basis, coords, den = form_coordinates(spec)
        # the lattice-read form coordinates agree with the flattened forms' elimination
        ok = ok and len(basis) < spec.n_generators and cone_dimension(spec) == len(basis)
        ok = ok and same_coordinates((basis, coords, den), flattened_form_coordinates(spec.generators))
        action = LinearAction.on_span(cone_automorphisms(spec), basis, coords, den)
        ok = ok and molien_series(action, 10) == molien_series_naive(action, 10)

    # wreath-product invariants equal plethysm
    for base in (PermGroup.from_generators([Permutation.identity(1)]), PermGroup.symmetric(2), PermGroup.symmetric(3)):
        inner = molien_series(LinearAction.natural(base), 15)
        for n in range(1, 4):
            w = wreath_product(base, n)
            ok = ok and molien_series(LinearAction.natural(w), 15) == plethysm_h(n, inner)

    # the two evaluations of the plethystic exponential agree on corpus series
    mat = load_dataset("matroidal", order=20)
    gen = generator_series(mat, 20)
    samples = [gen]
    for name in ("K_3", "K_4", "(5,5)"):
        spec = corpus[name]
        p = cone_poincare_series(spec, cone_automorphisms(spec), 20)
        samples.append(p * TruncatedSeries([0] * spec.n_generators + [1], 20))
    for s in samples:
        ok = ok and exp_series(s) == exp_series_via_h(s)

    # direct sums factor
    a, b = cyclic_cone(3), cyclic_cone(4)
    s = direct_sum(a, b)
    ga, gb = cone_automorphisms(a), cone_automorphisms(b)
    gs = cone_automorphisms(s)
    ok = ok and gs.order == ga.order * gb.order
    ok = ok and cone_poincare_series(s, gs, 12) == (
        cone_poincare_series(a, ga, 12) * cone_poincare_series(b, gb, 12))

    # doubling a summand gives the wreath closure and its plethysm
    double = direct_sum(cyclic_cone(3), cyclic_cone(3))
    gd = cone_automorphisms(double)
    ok = ok and gd.order == 72
    ok = ok and cone_poincare_series(double, gd, 12) == plethysm_h(
        2, cone_poincare_series(a, ga, 12))

    secs = time.time() - t0
    announce("5: property suite (keyed Molien sum, also on form spans, wreath, Exp, direct sums), < 0.5 s",
             ok and secs < 0.5, secs)


def test_criterion_6_lower_bound_semantics(announce):
    # the degree-30 / codegree-22 rows need external classifications, so the
    # shipped substitute is: coefficients only ever grow as records arrive,
    # and reports clamp their validity to the completeness dimension
    t0 = time.time()
    ok = True

    mat = load_dataset("matroidal", order=12)
    records = tuple(r for r in mat.records if not r.is_count_only)
    smaller = Dataset("s", records[:6], None)
    larger = Dataset("l", records, None)
    small_row = betti_series(smaller, 12).series.coefficients
    large_row = betti_series(larger, 12).series.coefficients
    ok = ok and all(x <= y for x, y in zip(small_row, large_row))

    ok = ok and betti_series(mat, 12).valid_up_to == 8
    ok = ok and betti_series(mat, 5).valid_up_to == 5

    secs = time.time() - t0
    announce("6: lower-bound monotonicity and validity capping stand in for "
             "out-of-scope rows", ok, secs)
