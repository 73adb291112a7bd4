"""Command line behavior: outputs and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agstab.cones
import agstab.perms
from agstab.cli import main
from agstab.cones import ConeSpec, cyclic_cone, direct_sum
from agstab.perms import Permutation
from agstab.series import TruncatedSeries


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--dataset", "matroidal", "--order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 2, 4, 9, 18, 37, 79, 169, 379]
    assert payload["valid_up_to"] == 8


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--dataset", "perfect", "--order", "8",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,coefficient,valid"
    assert lines[1:] == [
        "0,1,true", "1,2,true", "2,4,true", "3,9,true", "4,18,true",
        "5,38,true", "6,84,true", "7,193,true", "8,494,true",
    ]


def test_betti_no_lambda_and_display(capsys):
    code, out, _ = run(capsys, "betti", "--dataset", "matroidal", "--order", "6",
                       "--no-lambda")
    assert code == 0
    assert json.loads(out)["includes_lambda"] is False
    code, out, _ = run(capsys, "betti", "--dataset", "matroidal", "--order", "6",
                       "--paper-display")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 1, 1, 2, 3, 6, 13]


def test_series_exp_reads_stdin(capsys, monkeypatch):
    payload = json.dumps({"order": 6, "coefficients": ["0", "1", "1", "1", "1", "1", "1"]})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "series", "exp", "--order", "6")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "1", "2", "3", "5", "7", "11"]


def test_series_plethysm(capsys, monkeypatch):
    payload = json.dumps({"order": 8, "coefficients": ["1"] + ["1"] * 8})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "series", "plethysm", "--degree", "2", "--order", "8")
    assert code == 0
    # h_2 of the one-variable geometric series
    assert json.loads(out)["coefficients"][:4] == ["1", "1", "2", "2"]


def test_series_plethysm_of_high_degree_is_prompt(capsys, monkeypatch):
    # a sum over the partitions of 100 (about 1.9e8 of them) never returns
    order, degree = 10, 100
    payload = json.dumps({"order": order, "coefficients": ["1", "1"] + ["0"] * (order - 1)})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "series", "plethysm", "--degree", str(degree), "--order", str(order))
    secs = time.perf_counter() - t0
    assert code == 0
    assert secs < 2
    # Newton's identity m h_m[P] = sum_{k=1..m} P(t^k) h_{m-k}[P], one step at a time
    one = TruncatedSeries.one(order)
    h = [one]
    for m in range(1, degree + 1):
        acc = TruncatedSeries.zero(order)
        for k in range(1, m + 1):
            acc = acc + (one + TruncatedSeries([0] * k + [1], order)) * h[m - k]
        h.append(acc / m)
    assert TruncatedSeries.from_json(out) == h[degree]
    # h_n[1 + t] = sum_j h_j[1] h_(n-j)[t] = 1 + t + .. + t^n
    assert h[degree] == TruncatedSeries([1] * (order + 1))


def test_series_plethysm_prints_exact_coefficients_of_any_length(capsys, monkeypatch):
    # h_10000[1/2 + t] has a coefficient of 6,020 digits, past Python's default
    # 4,300-digit limit on int/str conversion
    payload = json.dumps({"order": 10, "coefficients": ["1/2", "1"] + ["0"] * 9})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "plethysm", "--degree", "10000")
    assert time.perf_counter() - start < 5
    assert code == 0, err
    assert max(len(c) for c in json.loads(out)["coefficients"]) > 4300
    # h_1[P] = P: the output reads back exactly
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "series", "plethysm", "--degree", "1") == (0, out, "")


def test_series_exp_rejects_garbage(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("nonsense"))
    code, _, err = run(capsys, "series", "exp", "--order", "4")
    assert code == 2
    assert "error" in err


def test_molien_group_file(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]}))
    code, out, _ = run(capsys, "molien", str(path), "--order", "6")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "1", "2", "3", "4", "5", "7"]


def test_molien_group_file_without_generators_is_trivial(capsys, tmp_path):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps({"degree": 3, "generators": []}))
    code, out, _ = run(capsys, "molien", str(path), "--order", "3")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1", "3", "6", "10"]


def test_molien_rejects_bad_group_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"generators": [[1, 2]]}))
    code, _, err = run(capsys, "molien", str(path))
    assert code == 2


def test_cone_analyze(capsys, tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(cyclic_cone(3).to_json_dict()))
    code, out, _ = run(capsys, "cone", "analyze", str(path), "--order", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 3
    assert payload["aut_order"] == 6
    assert payload["components"] == [[1, 2, 3]]


def test_cone_analyze_budget_exit(capsys, tmp_path):
    spec = cyclic_cone(7)
    path = tmp_path / "c7.json"
    path.write_text(json.dumps(spec.to_json_dict()))
    code, _, err = run(capsys, "cone", "analyze", str(path), "--node-budget", "5")
    assert code == 3


def test_clone_tests_count_against_the_node_budget(capsys, tmp_path):
    # C_12 is one clone class, and its eleven swap tests alone pass a budget of 5
    path = tmp_path / "c12.json"
    path.write_text(json.dumps(cyclic_cone(12).to_json_dict()))
    code, _, err = run(capsys, "cone", "analyze", str(path), "--node-budget", "5")
    assert code == 3
    assert "search exceeded its budget of 5 nodes" in err


def test_molien_cap_exit(capsys, monkeypatch, tmp_path):
    # S_6, 720 elements, listed past a cap of 100
    path = tmp_path / "s6.json"
    path.write_text(json.dumps({"degree": 6, "generators": [[2, 1, 3, 4, 5, 6], [2, 3, 4, 5, 6, 1]]}))
    monkeypatch.setattr(agstab.perms, "DEFAULT_CAP", 100)
    code, _, err = run(capsys, "molien", str(path))
    assert code == 3
    assert "closure exceeded its cap of 100 elements" in err


def test_cone_analyze_sums_a_span_without_listing_its_group(capsys, monkeypatch, tmp_path):
    # three squares: a non-basic cone with 384 automorphisms, whose span
    # Molien sum reads H alone, under a cap of 100
    square = agstab.cones.ConeSpec("square", 2, ((1, 0), (0, 1), (1, -1), (1, 1)))
    cubed = agstab.cones.direct_sum(agstab.cones.direct_sum(square, square), square, "square^3")
    path = tmp_path / "square3.json"
    path.write_text(json.dumps(cubed.to_json_dict()))
    uncapped = run(capsys, "cone", "analyze", str(path))
    monkeypatch.setattr(agstab.perms, "DEFAULT_CAP", 100)
    assert run(capsys, "cone", "analyze", str(path)) == uncapped
    assert uncapped[0] == 0
    assert json.loads(uncapped[1])["aut_order"] == 384


def _one_cone_manifest(tmp_path, payload) -> str:
    (tmp_path / "cone.json").write_text(json.dumps(payload))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"family": "one", "cones": ["cone.json"]}))
    return str(manifest)


@pytest.mark.parametrize("generators, declared, aut_order", [
    ([[1000000000]], None, 1),
    ([[1, 0], [1, 1000000000]], [[2, 1]], 2),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 999999937]], [[1, 3, 2], [2, 1, 3]], 6),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 999999937], [0, 1, 1]], None, 2),
])
def test_large_index_cone_is_analyzed_promptly(capsys, tmp_path, generators, declared, aut_order):
    # the generators span a sublattice of index up to 10^9 of its saturation
    payload = {"name": "big", "ambient": len(generators[0]), "generators": generators}
    if declared:
        payload["aut_generators"] = declared
    manifest = _one_cone_manifest(tmp_path, payload)
    start = time.perf_counter()
    code, out, _ = run(capsys, "cone", "analyze", str(tmp_path / "cone.json"), "--order", "4")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["aut_order"] == aut_order
    # the declared generators are checked against the search just as promptly
    start = time.perf_counter()
    assert run(capsys, "validate", "--dataset", manifest)[0] == 0
    assert time.perf_counter() - start < 5


def test_validate_verification_exit(capsys, tmp_path):
    # a loop generator can never trade places with a path generator;
    # cone analyze ignores the claim, validate rejects it
    bad = {
        "name": "claim",
        "ambient": 3,
        "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, -1], [0, 1, -1]],
        "aut_generators": [[1, 2, 4, 3, 5]],
    }
    manifest = _one_cone_manifest(tmp_path, bad)
    code, _, _ = run(capsys, "cone", "analyze", str(tmp_path / "cone.json"))
    assert code == 0
    code, _, err = run(capsys, "validate", "--dataset", manifest)
    assert code == 1
    assert "cone 'claim': declared automorphism Permutation((3 4), n=5) is not realizable" in err


def test_under_declared_cone_gets_its_searched_group(capsys, tmp_path, matroidal_specs):
    # C_7 declaring only its 7-cycle: the group and the series come from
    # the search, and validate names the cone whose generators fall short
    c7 = matroidal_specs["C_7"]
    cycle = Permutation.from_cycles(7, [tuple(range(1, 8))])
    short = agstab.cones.ConeSpec(c7.name, c7.ambient, c7.generators, (cycle,), c7.tags)
    result = agstab.cones.analyze(short, order=5)
    assert result.aut.order == 5040
    assert result.poincare.integer_coefficients() == [1, 1, 2, 3, 5, 7]
    manifest = _one_cone_manifest(tmp_path, short.to_json_dict())
    code, out, _ = run(capsys, "cone", "analyze", str(tmp_path / "cone.json"), "--order", "5")
    assert code == 0
    assert json.loads(out)["aut_order"] == 5040
    code, _, err = run(capsys, "validate", "--dataset", manifest)
    assert code == 1
    assert "cone 'C_7': declared automorphisms generate 7 of 5040" in err
    with pytest.raises(SystemExit) as info:
        main(["cone", "analyze", str(tmp_path / "cone.json"), "--no-declared"])
    assert info.value.code == 2


def test_verify_suite_output(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "matroidal16")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS") for line in lines)


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "unknown"])
    assert exc.value.code == 2


def test_validate_dataset(capsys):
    code, out, _ = run(capsys, "validate", "--dataset", "matroidal")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["violations"] == []


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "cone", "analyze", "/nonexistent/cone.json")
    assert code == 2


@pytest.mark.parametrize("content", [b'{"name": "\xe9"}', b"[" * 100000], ids=["latin-1", "deep"])
def test_undecodable_json_is_input_error(capsys, monkeypatch, tmp_path, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    for argv in (["cone", "analyze"], ["molien"], ["betti", "--dataset"]):
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2
        assert "is not valid JSON" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(content.decode("latin-1")))
    assert run(capsys, "series", "exp")[0] == 2


def test_negative_order_is_input_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["betti", "--dataset", "matroidal", "--order", "-3"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "order must be non-negative" in err


def test_order_zero_gives_constant_row(capsys):
    code, out, _ = run(capsys, "betti", "--dataset", "matroidal", "--order", "0",
                       "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == ["k,coefficient,valid", "0,1,true"]


@pytest.mark.parametrize("argv, filename, payload", [
    (["molien"], "group.json", {"degree": 0, "generators": []}),
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 1, "generators": [[1]], "aut_generators": [5]}),
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 1, "generators": [[1]], "tags": 5}),
    # a string or an object was read as its characters or keys
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 1, "generators": [[1]], "tags": "ab"}),
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 1, "generators": [[1]], "tags": {"a": 1}}),
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 1, "generators": [[1]], "tags": ["a", 1]}),
    (["series", "exp"], None, {"order": 1, "coefficients": ["0", "1/0"]}),
    (["series", "exp"], None, {"order": -1, "coefficients": []}),
    # numbers that are not JSON integers, and strings where lists belong
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 1.5, "generators": [[1]]}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": True, "generators": [[1]]}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 2, "generators": [[1, 0.5]]}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 2, "generators": [[1, "2"]]}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 2, "generators": ["12"]}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 1, "generators": "1"}),
    (["cone", "analyze"], "cone.json",
     {"name": "x", "ambient": 2, "generators": [[1, 0], [0, 1]], "aut_generators": [[2, 1.0]]}),
    (["molien"], "group.json", {"degree": "2", "generators": [[2, 1]]}),
    (["molien"], "group.json", {"degree": 2, "generators": [[2, True]]}),
    (["molien"], "group.json", {"degree": 2, "generators": ["21"]}),
    (["series", "exp"], None, {"order": 1, "coefficients": "01"}),
    (["series", "exp"], None, {"order": 1.5, "coefficients": ["0", "1"]}),
    (["cone", "analyze"], "cone.json", {"name": 5, "ambient": 1, "generators": [[1]]}),
    # manifests: each was coerced (7.9 to 7, true to 1, a dict to its keys) or checked late
    (["betti", "--dataset"], "manifest.json", {"family": "x", "completeness_dim": 7.9, "cones": []}),
    (["betti", "--dataset"], "manifest.json", {"family": "x", "completeness_dim": "8", "cones": []}),
    (["betti", "--dataset"], "manifest.json",
     {"family": "x", "cones": [], "count_only": [{"dimension": 1, "rank": 1, "count": 2.5}]}),
    (["betti", "--dataset"], "manifest.json",
     {"family": "x", "cones": [], "count_only": [{"dimension": 1, "rank": 1, "count": True}]}),
    (["betti", "--dataset"], "manifest.json",
     {"family": "x", "cones": [], "count_only": [{"dimension": 3.7, "rank": 1, "count": 1}]}),
    (["betti", "--dataset"], "manifest.json", {"family": "x", "cones": {}}),
    (["betti", "--dataset"], "manifest.json", {"family": "x", "cones": [5]}),
    (["betti", "--dataset"], "manifest.json", {"family": ["a"], "cones": []}),
    (["betti", "--dataset"], "manifest.json", {"family": "x", "cones": [], "count_only": "x"}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 2, "generators": []}),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 2, "generators": [[1, 0], [0, 1, 0]]}),
    (["molien"], "group.json", {"degree": 2, "generators": [[2, 1], [2, 3, 1]]}),
    (["series", "exp", "--order", "5"], None, {"order": 2, "coefficients": ["0", "1", "1"]}),
    (["series", "plethysm", "--degree", "-1"], None, {"order": 2, "coefficients": ["0", "1", "1"]}),
], ids=["group-degree-0", "cone-aut-int", "cone-tags-int", "cone-tags-str", "cone-tags-dict",
        "cone-tags-entry-int", "series-1/0", "series-order-neg",
        "cone-ambient-float", "cone-ambient-bool", "cone-entry-float", "cone-entry-str",
        "cone-vector-str", "cone-generators-str", "cone-aut-float", "group-degree-str",
        "group-image-bool", "group-images-str", "series-coefficients-str", "series-order-float",
        "cone-name-int", "manifest-completeness-float", "manifest-completeness-str",
        "manifest-count-float", "manifest-count-bool", "manifest-dimension-float",
        "manifest-cones-dict", "manifest-cones-entry-int", "manifest-family-list",
        "manifest-count-only-str", "cone-generators-empty", "cone-vector-length",
        "group-generator-degree", "series-exp-past-order", "series-plethysm-degree-neg"])
def test_malformed_input_is_input_error(capsys, monkeypatch, tmp_path, argv, filename, payload):
    if filename is None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    else:
        path = tmp_path / filename
        path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ("betti", "validate"))
@pytest.mark.parametrize("cones", ([], ["cone.json"]))
def test_negative_completeness_dim_is_input_error(capsys, tmp_path, command, cones):
    # -1 was accepted, and betti reported its rows valid up to t^-1
    (tmp_path / "cone.json").write_text(json.dumps({"name": "s", "ambient": 1, "generators": [[1]]}))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"family": "x", "completeness_dim": -1, "cones": cones}))
    code, out, err = run(capsys, command, "--dataset", str(path))
    assert (code, out) == (2, "")
    assert err == "error: dataset 'x': completeness_dim must be a non-negative integer, got -1\n"


def _packaged_manifest_with(old: str, new: str) -> dict:
    payload = json.loads(resources.files("agstab").joinpath("data/matroidal.json").read_text())
    payload[new] = payload.pop(old)
    return payload


@pytest.mark.parametrize("argv, filename, payload, where, key", [
    # ignored, the renamed key left t^9 and t^10 of the matroidal rows marked valid
    (["betti", "--dataset"], "manifest.json", _packaged_manifest_with("completeness_dim", "completeness"),
     "dataset manifest", "completeness"),
    (["betti", "--dataset"], "manifest.json", {"family": "x", "cones": [], "count_onyl": []},
     "dataset manifest", "count_onyl"),
    (["betti", "--dataset"], "manifest.json",
     {"family": "x", "cones": [], "count_only": [{"dimension": 1, "rank": 1, "count": 1, "multiplicity": 2}]},
     "a count_only entry", "multiplicity"),
    (["cone", "analyze"], "cone.json", {"name": "x", "ambient": 1, "generators": [[1]], "tag": ["a"]},
     "cone 'x'", "tag"),
    (["molien"], "group.json", {"degree": 2, "generators": [[2, 1]], "order": 2}, "group file", "order"),
    (["series", "exp"], None, {"order": 1, "coefficients": ["0", "1"], "degree": 2}, "series payload", "degree"),
], ids=["manifest-renamed", "manifest-misspelled", "count-only", "cone", "group", "series"])
def test_unknown_key_is_input_error(capsys, monkeypatch, tmp_path, argv, filename, payload, where, key):
    if filename is None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    else:
        path = tmp_path / filename
        path.write_text(json.dumps(payload))
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert where in err and f"has an unknown key {key!r}" in err


@pytest.mark.parametrize("command", ["betti", "validate"])
@pytest.mark.parametrize("cone, why", [
    (direct_sum(cyclic_cone(1), cyclic_cone(1), "sigma_1+sigma_1"), "is reducible: it splits into 2 components"),
    (ConeSpec("square", 2, ((1, 0), (0, 1), (1, 1), (1, -1))),
     "is not simplicial: its 4 forms span only dimension 3"),
], ids=["reducible", "dependent-forms"])
def test_dataset_rejects_wrong_members(capsys, tmp_path, command, cone, why):
    # cone analyze takes both; a dataset record stands for an irreducible simplicial cone
    manifest = _one_cone_manifest(tmp_path, cone.to_json_dict())
    assert run(capsys, "cone", "analyze", str(tmp_path / "cone.json"))[0] == 0
    code, out, err = run(capsys, command, "--dataset", manifest)
    assert (code, out) == (2, "")
    assert f"dataset 'one': cone {cone.name!r} {why}" in err


def test_non_positive_node_budget_is_input_error(capsys, tmp_path):
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(cyclic_cone(3).to_json_dict()))
    for budget in ("0", "-1"):
        with pytest.raises(SystemExit) as info:
            main(["cone", "analyze", str(path), "--node-budget", budget])
        assert info.value.code == 2
        assert "node budget must be positive" in capsys.readouterr().err


# -- fuzzing: malformed JSON never escapes as a traceback ----------------------

_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.floats(-3, 5), st.text(max_size=3)
)
# integers, then lists with a non-integer among integers, then anything
_number = st.one_of(st.integers(-2, 4), st.floats(-2, 4), st.booleans(), st.sampled_from(["1"]))
_images = st.one_of(st.lists(st.integers(0, 4), max_size=4), st.lists(_number, max_size=4), _junk)


def _maybe(valid):
    return st.one_of(valid, _junk)


_vector = st.one_of(st.lists(st.integers(-2, 2), max_size=4), st.lists(_number, max_size=4), _junk)
_cone = st.fixed_dictionaries(
    {
        "name": _maybe(st.text(max_size=3)),
        "ambient": _maybe(st.integers(-1, 3)),
        "generators": _maybe(st.lists(_vector, max_size=4)),
    },
    optional={"aut_generators": _maybe(st.lists(_images, max_size=2)), "tags": _maybe(st.lists(_junk, max_size=2))},
)
_group = st.fixed_dictionaries(
    {"degree": _maybe(st.integers(-1, 4)), "generators": _maybe(st.lists(_images, max_size=3))}
)
_coefficient = st.one_of(st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x"]), _junk)
_series = st.fixed_dictionaries(
    {"order": _maybe(st.integers(-2, 4)), "coefficients": _maybe(st.lists(_coefficient, max_size=6))}
)


# valid payloads with one integer or list swapped for a JSON look-alike
_valid_cone = st.integers(1, 3).map(lambda n: {
    "name": "x", "ambient": n, "generators": [[int(i == j) for j in range(n)] for i in range(n)],
    "aut_generators": [[*range(2, n + 1), 1]],
})
_valid_group = st.integers(1, 3).map(lambda n: {"degree": n, "generators": [[*range(2, n + 1), 1]]})
_valid_series = st.integers(0, 3).map(lambda k: {"order": k, "coefficients": ["0"] + ["1"] * k})
_valid_manifest = st.integers(1, 3).map(lambda n: {
    "family": "x", "completeness_dim": n, "cones": [],
    "count_only": [{"dimension": n, "rank": n, "count": 2}],
})


def _typed_paths(value, path=()):
    """Paths to every integer and list of a payload, except names and coefficient entries."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key != "name":
                yield from _typed_paths(item, path + (key,))
    elif isinstance(value, list):
        yield path
        if path != ("coefficients",):
            for i, item in enumerate(value):
                yield from _typed_paths(item, path + (i,))
    elif type(value) is int:
        yield path


def _look_alike(value):
    if isinstance(value, list):
        return st.just("".join(map(str, value)))
    return st.sampled_from([float(value), str(value)] + ([bool(value)] if value in (0, 1) else []))


@st.composite
def _mistyped(draw, valid):
    payload = draw(valid)
    *head, last = draw(st.sampled_from(list(_typed_paths(payload))))
    holder = payload
    for key in head:
        holder = holder[key]
    holder[last] = draw(_look_alike(holder[last]))
    return payload


# misspellings and near misses of the allowed keys, none of them allowed anywhere
_STRAY_KEYS = ("completeness", "count_onyl", "generator", "tag", "Order")


@st.composite
def _with_stray_key(draw, valid):
    """A valid payload with one unknown key added to it or to one of its count_only entries."""
    payload = draw(valid)
    holder = draw(st.sampled_from([payload] + payload.get("count_only", [])))
    holder[draw(st.sampled_from(_STRAY_KEYS))] = draw(_junk)
    return payload


def _has_stray_key(value) -> bool:
    if isinstance(value, dict):
        return any(key in _STRAY_KEYS or _has_stray_key(item) for key, item in value.items())
    return isinstance(value, list) and any(map(_has_stray_key, value))


def _is_int(x) -> bool:
    return type(x) is int


def _int_lists(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(row, list) and all(map(_is_int, row)) for row in value
    )


def _ill_typed(kind, cone, group, series, manifest) -> bool:
    """A non-integer where an integer belongs, or a non-list where a list belongs."""
    if kind == "manifest":
        entries = manifest["count_only"]
        return not (
            _is_int(manifest["completeness_dim"])
            and isinstance(manifest["cones"], list)
            and isinstance(entries, list)
            and all(isinstance(e, dict) and all(map(_is_int, e.values())) for e in entries)
        )
    if kind == "cone":
        return isinstance(cone, dict) and not (
            _is_int(cone["ambient"])
            and _int_lists(cone["generators"])
            and _int_lists(cone.get("aut_generators", []))
        )
    if kind == "group":
        return isinstance(group, dict) and not (
            _is_int(group["degree"]) and _int_lists(group["generators"])
        )
    return isinstance(series, dict) and not (
        _is_int(series["order"]) and isinstance(series["coefficients"], list)
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["cone", "group", "manifest", "exp", "plethysm"]),
    cone=st.one_of(_maybe(_cone), _mistyped(_valid_cone), _with_stray_key(_valid_cone)),
    group=st.one_of(_maybe(_group), _mistyped(_valid_group), _with_stray_key(_valid_group)),
    series=st.one_of(_maybe(_series), _mistyped(_valid_series), _with_stray_key(_valid_series)),
    manifest=st.one_of(_mistyped(_valid_manifest), _with_stray_key(_valid_manifest)),
    order=st.integers(0, 4),
    degree=st.integers(-1, 3),
)
def test_fuzzed_json_exits_with_input_or_budget_code(kind, cone, group, series, manifest, order, degree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if kind == "manifest":
            path.write_text(json.dumps(manifest))
            argv = ["betti", "--dataset", str(path)]
        elif kind == "cone":
            path.write_text(json.dumps(cone))
            argv = ["cone", "analyze", str(path), "--node-budget", "50"]
        elif kind == "group":
            path.write_text(json.dumps(group))
            argv = ["molien", str(path)]
        else:
            argv = ["series", kind] + (["--degree", str(degree)] if kind == "plethysm" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(sys, "stdin", io.StringIO(json.dumps(series))):
            code = main(argv + ["--order", str(order)])
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
    if _ill_typed(kind, cone, group, series, manifest):
        assert code == 2, err.getvalue()
    if _has_stray_key({"cone": cone, "group": group, "manifest": manifest}.get(kind, series)):
        assert code == 2 and "has an unknown key" in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_traceback(child_env, unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout fails, buffered or not
    env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "agstab", "betti", "--dataset", "perfect", "--order", "8"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    stderr = done.stderr.decode()
    assert done.returncode == 141, stderr
    assert "Traceback" not in stderr
