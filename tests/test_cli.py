import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

from qchar.circle import TRUNCATION_CAP
from qchar.cli import canonical_json, main
from qchar.elimination import SQUARE_RADIUS_CAP
from qchar.scenarios import (
    DOCUMENT_SCHEMA,
    ScenarioFormatError,
    make_rng,
    run_scenario,
    run_sweep,
)

DATA = Path(__file__).parent / "data"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


# -- canonical serialization -----------------------------------------------


def test_canonical_json_sorts_and_formats():
    doc = {"b": 1, "a": [1.5, "x", True, None]}
    assert canonical_json(doc) == '{"a":[1.5,"x",true,null],"b":1}'


def test_canonical_json_full_float_precision():
    x = 0.1 + 0.2
    assert canonical_json(x) == format(x, ".17g")


def test_canonical_json_numpy_scalars():
    assert canonical_json(np.int64(3)) == "3"
    assert canonical_json(np.float64(2.5)) == "2.5"


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json(math.nan)
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})


def _recursive_emit(obj, out: list):
    """The recursive isinstance emitter that canonical_json replaced, kept as its oracle."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in report")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _recursive_emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"non-string report key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _recursive_emit(obj[key], out)
        out.append("}")
    else:
        item = getattr(obj, "item", None)
        if item is not None:
            _recursive_emit(item(), out)
        else:
            raise ValueError(f"unserializable report value {type(obj).__name__}")


def _recursive_json(obj) -> str:
    parts: list[str] = []
    _recursive_emit(obj, parts)
    return "".join(parts)


def test_canonical_json_matches_the_recursive_emitter_on_every_golden_report():
    golden = json.loads((Path(__file__).parent / "golden" / "reports.json").read_text("utf-8"))
    texts = [r["stdout"].rstrip("\n") for r in golden["run"].values() if r["stdout"]]
    assert len(texts) == 6
    for text in texts:
        payload = json.loads(text)
        assert canonical_json(payload) == _recursive_json(payload) == text
        for report in payload.get("reports", [payload]):
            assert canonical_json(report) == _recursive_json(report)


def test_canonical_json_matches_the_recursive_emitter_on_other_types():
    from collections import OrderedDict

    class Name(str):
        pass

    report = {
        "numpy": [np.float64(0.1), np.float64(-0.0), np.int64(-7), np.bool_(True),
                  np.bool_(False), np.float32(1.5), np.uint8(200)],
        "tuple": (1, (2.5, "x"), ()),
        "text": ["\u03a9m\u00e9ga \u2713", "quote \" back \\ tab \t nul \x00", "\U0001f600", Name("sub")],
        "empty": [{}, [], "", OrderedDict()],
        "floats": [5e-324, 1e308, -1.0, 0.1 + 0.2, 1 / 3, 2.0 ** 60],
        "ints": [0, -1, 10 ** 30, True, False, None],
        Name("\u00e9"): OrderedDict([("b", 1), ("a", [None])]),
    }
    assert canonical_json(report) == _recursive_json(report)
    for value in report.values():
        assert canonical_json(value) == _recursive_json(value)


def _typed_emit(obj, out: list):
    """The type-dispatch emitter that canonical_json replaced (an index test per
    item and format(x, ".17g")), kept as its oracle."""
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError("non-finite float in report")
        out.append(format(obj, ".17g"))
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is dict:
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError(f"non-string report key {key!r}")
            if i:
                out.append(",")
            out.append(encode_basestring_ascii(key) + ":")
            _typed_emit(obj[key], out)
        out.append("}")
    elif kind is list or kind is tuple:
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _typed_emit(item, out)
        out.append("]")
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        _typed_emit(float(obj), out)
    elif isinstance(obj, (list, tuple)):
        _typed_emit(list(obj), out)
    elif isinstance(obj, dict):
        _typed_emit(dict(obj), out)
    elif hasattr(obj, "item"):
        _typed_emit(obj.item(), out)
    else:
        raise ValueError(f"unserializable report value {type(obj).__name__}")


def _typed_json(obj) -> str:
    parts: list[str] = []
    _typed_emit(obj, parts)
    return "".join(parts)


def _golden_texts() -> list[str]:
    """Every canonical text under tests/golden: run reports and chain traces."""
    golden = Path(__file__).parent / "golden"
    reports = json.loads((golden / "reports.json").read_text("utf-8"))["run"].values()
    texts = [r["stdout"].rstrip("\n") for r in reports if r["stdout"]]
    for name in ("chain_traces.json", "constant_chain_traces.json"):
        texts += json.loads((golden / name).read_text("utf-8")).values()
    return texts


def test_canonical_json_matches_the_typed_emitter_on_every_golden_text():
    texts = _golden_texts()
    assert len(texts) > 6
    for text in texts:
        payload = json.loads(text)
        assert canonical_json(payload) == _typed_json(payload) == text


@pytest.mark.parametrize("kind", ["independence-collapse", "convolution"])
def test_canonical_json_matches_the_typed_emitter_on_the_readme_sweeps(kind):
    report = run_sweep(kind, seed=7, count=50, max_order=12)
    assert canonical_json(report) == _typed_json(report)


def test_canonical_json_matches_the_typed_emitter_on_edge_values():
    floats = [-0.0, 5e-324, 1e-17, 2.0 ** 53 + 2, 0.1, -1.5e300]
    assert ["%.17g" % x for x in floats] == [format(x, ".17g") for x in floats]
    values = [*floats, *map(np.float64, floats), np.int64(-7), np.int64(2 ** 62), np.bool_(True),
              np.bool_(False), (), [], {}, "", (1, (2.5, "x"), ()), [[[]], [{}]],
              {"a": {"b": [(), {"c": None}]}, "": [True, False, None]}]
    for value in values:
        assert canonical_json(value) == _typed_json(value)
    assert canonical_json(values) == _typed_json(values)
    assert canonical_json({"v": tuple(values)}) == _typed_json({"v": tuple(values)})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 [0.5, {"x": -math.inf}], {1: "x"}, {"a": {(1,): 2}},
                                 {"x": object()}, [b"bytes"], {1, 2}])
def test_canonical_json_raises_the_typed_emitter_errors(bad):
    with pytest.raises(ValueError) as want:
        _typed_json(bad)
    with pytest.raises(ValueError) as got:
        canonical_json(bad)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [math.nan, -math.inf, np.float64(math.inf), [1.0, math.nan],
                                 {1: "x"}, {"a": {"b": (2,)}, "c": {3: 4}}, {"a": 1, 2: "b"},
                                 {"x": object()}, [{1, 2}], b"bytes"])
def test_canonical_json_raises_what_the_recursive_emitter_raised(bad):
    with pytest.raises(Exception) as want:
        _recursive_json(bad)
    with pytest.raises(want.type) as got:
        canonical_json(bad)
    assert str(got.value) == str(want.value)


# -- run subcommand ---------------------------------------------------------


def test_run_single_scenario_passes(capsys):
    code, out, _ = run_cli(["run", DATA / "heyde_pass.json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == "qchar-report-1"
    assert rep["verdict"] == "pass"
    assert rep["matched"] is True


def test_run_expected_counterexample(capsys):
    code, out, _ = run_cli(["run", DATA / "heyde_counterexample.json"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "counterexample"
    assert rep["details"]["kernel_element"] == [1]
    assert "identically distributed" in rep["details"]["hint"]


def test_run_mismatch_exits_one(capsys):
    code, out, _ = run_cli(["run", DATA / "mismatch.json"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert rep["matched"] is False


def _named(kind):
    """Name each case by its kind and the path of the bad field below the payload."""
    return lambda value: kind + value[len("$.payload"):] if isinstance(value, str) else None


def test_run_invalid_kind_exits_two(capsys):
    code, _, err = run_cli(["run", DATA / "bad_kind.json"], capsys)
    assert code == 2
    assert "invalid input" in err
    assert "$.kind" in err


def _full_surface(name):
    doc = json.load(open(DATA / "full_surface.json"))
    return next(s for s in doc["scenarios"] if s["name"] == name)


@pytest.mark.parametrize("edit, where", [
    (lambda p: p.update(r_degree="x"), "$.payload.r_degree"),
    (lambda p: p.update(r_degree=math.nan), "$.payload.r_degree"),
    (lambda p: p.update(r_degree=1.5), "$.payload.r_degree"),
    (lambda p: p.update(r_degree=True), "$.payload.r_degree"),
    (lambda p: p["terms"][1].update(b=math.inf), "$.payload.terms[1].b"),
    (lambda p: p["terms"][0]["psi"].update(radius="40"), "$.payload.terms[0].psi.radius"),
    (lambda p: p["terms"][0]["psi"].update(dim=1.25), "$.payload.terms[0].psi.dim"),
    (lambda p: p["terms"][0]["psi"].update(radius=-3), "$.payload.terms[0].psi"),
], ids=_named("pexider-chain"))
def test_run_bad_chain_integer_exits_two(tmp_path, capsys, edit, where):
    scn = _full_surface("window-two-terms")
    edit(scn["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scn))
    code, out, err = run_cli(["run", path], capsys)
    assert code == 2
    assert out == ""
    assert where in err


def test_integral_float_chain_fields_are_accepted():
    scn = _full_surface("window-two-terms")
    want = run_scenario(scn)
    scn["payload"]["r_degree"] = 3.0
    scn["payload"]["terms"][0]["psi"]["radius"] = 40.0
    assert canonical_json(run_scenario(scn)) == canonical_json(want)


def test_group_chain_over_size_cap_is_a_fail_verdict():
    values = [0.5] * 65
    pexider = {"schema": "qchar-scenario-1", "kind": "pexider-chain", "payload": {
        "group": {"orders": [65]}, "terms": [{"values": values, "b": {"scalar": 1}}],
        "r_degree": 0}}
    heyde = {"schema": "qchar-scenario-1", "kind": "heyde-chain", "payload": {
        "group": {"orders": [65]}, "psi1": values, "psi2": values, "b": {"scalar": 2},
        "r_degree": 0}}
    for scn in (pexider, heyde):
        rep = run_scenario(scn)
        assert rep["verdict"] == "fail"
        assert "exceeds the exhaustive-operation cap" in rep["details"]["reason"]


def test_window_chain_runs_at_the_square_cap(tmp_path, capsys):
    # b = 1 gives both terms |a| + |c| = 4, so psi radius 4095 makes the square radius 1023
    scn = _full_surface("window-quadratics")
    for key in ("psi1", "psi2"):
        scn["payload"][key]["radius"] = 4 * SQUARE_RADIUS_CAP + 3
    code, out, _ = _run_edited(tmp_path, capsys, scn)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    for key in ("psi1", "psi2"):
        scn["payload"][key]["radius"] += 1
    rep = run_scenario(scn)
    assert rep["verdict"] == "fail"
    assert rep["details"]["reason"] == "square radius 1024 exceeds the cap 1023"


_EVEN_50 = {str(2 * k): 1.0 for k in range(50)}


@pytest.mark.parametrize("payload, report", [
    ({"psi1": {"radius": 2095104, "coefficients": _EVEN_50},
      "psi2": {"radius": 2095104, "coefficients": {"2": 1.0}}, "b": 1},
     '{"details":{"reason":"square radius 523776 exceeds the cap 1023"},"expected":"pass",'
     '"kind":"heyde-chain","matched":false,"name":"cap","schema":"qchar-report-1",'
     '"verdict":"fail"}'),
    ({"terms": [{"psi": {"radius": 2095104, "coefficients": _EVEN_50}, "b": 1},
                {"psi": {"radius": 2095104, "coefficients": {"2": 1.0}}, "b": 2}]},
     '{"details":{"reason":"square radius 698368 exceeds the cap 1023"},"expected":"pass",'
     '"kind":"pexider-chain","matched":false,"name":"cap","schema":"qchar-report-1",'
     '"verdict":"fail"}'),
], ids=["heyde", "pexider"])
def test_square_cap_is_decided_before_coefficient_windows(payload, report):
    # evaluating these windows fills 4.2M points each, about 20 s
    kind = "heyde-chain" if "b" in payload else "pexider-chain"
    scn = {"schema": "qchar-scenario-1", "kind": kind, "name": "cap", "payload": payload}
    Draft202012Validator(DOCUMENT_SCHEMA).validate(scn)
    start = time.perf_counter()
    assert canonical_json(run_scenario(scn)) == report
    assert time.perf_counter() - start < 1.0


def test_kernel_and_zero_coefficient_outrank_the_square_cap():
    big = {"radius": 2095104, "coefficients": _EVEN_50}
    for b in (0, -1):
        rep = run_scenario({"schema": "qchar-scenario-1", "kind": "heyde-chain",
                            "payload": {"psi1": big, "psi2": big, "b": b}})
        assert rep["verdict"] == "counterexample"
        assert rep["details"]["kernel_element"] == b
    # with b = 0 allowed, the square radius would be 4096 // 2 = 2048, past the cap
    wide = {"radius": 4096, "coefficients": {"2": 1.0}}
    rep = run_scenario({"schema": "qchar-scenario-1", "kind": "pexider-chain", "payload": {
        "terms": [{"psi": wide, "b": 0}, {"psi": wide, "b": 1}]}})
    assert rep["details"] == {"reason": "zero coefficient is not invertible"}
    # a given R sets the square radius, here inside the cap
    rep = run_scenario({"schema": "qchar-scenario-1", "kind": "pexider-chain", "payload": {
        "terms": [{"psi": {"radius": 8, "coefficients": {"2": 1.0}}, "b": 1}],
        "R": {"radius": 1, "dim": 2, "coefficients": {}}}})
    assert "below chain requirement" in rep["details"]["reason"]


@pytest.mark.parametrize("name, edit, where", [
    ("window-two-terms", lambda p: p.update(R={"radius": 1024, "dim": 2, "coefficients": {}}),
     "$.payload.R.radius: 1024 is greater than the maximum of 1023"),
    ("window-quadratics", lambda p: p["psi1"].update(radius=2095105),
     "$.payload.psi1.radius: 2095105 is greater than the maximum of 2095104"),
], ids=["R", "psi1"])
def test_window_over_the_square_points_exits_two(tmp_path, capsys, name, edit, where):
    scn = _full_surface(name)
    edit(scn["payload"])
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert where in err


@pytest.mark.parametrize("edit, where", [
    (lambda p: p["alpha"].update(scalar=2.5), "$.payload.alpha.scalar"),
    (lambda p: p["alpha"].update(scalar="2"), "$.payload.alpha.scalar"),
    (lambda p: p["alpha"].update(scalar=True), "$.payload.alpha.scalar"),
    (lambda p: p.update(alpha={"table": [0, 2, 4, 1, 3.0001]}), "$.payload.alpha.table[4]"),
    (lambda p: p["joint"]["factors"][0].update(point=["3"]),
     "$.payload.joint.factors[0].point[0]"),
], ids=_named("heyde"))
def test_run_bad_hom_integer_exits_two(tmp_path, capsys, edit, where):
    scn = json.load(open(DATA / "heyde_pass.json"))
    edit(scn["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scn))
    code, out, err = run_cli(["run", path], capsys)
    assert code == 2
    assert out == ""
    assert f"{where}: " in err


def test_run_bad_subgroup_coordinate_exits_two(tmp_path, capsys):
    doc = json.load(open(DATA / "kb_and_circle.json"))
    scn = doc["scenarios"][0]
    scn["payload"]["first"]["subgroup"]["generators"] = [[2.5]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scn))
    code, out, err = run_cli(["run", path], capsys)
    assert code == 2
    assert "$.payload.first.subgroup.generators[0][0]: " in err


def test_run_non_finite_probability_exits_two(tmp_path, capsys):
    scn = {"schema": "qchar-scenario-1", "kind": "q-witness", "payload": {
        "group": {"orders": [2]}, "joint": {"probs": [math.nan, 0.25, 0.25, 0.25]}}}
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(scn))
    assert "NaN" in path.read_text()
    code, out, err = run_cli(["run", path], capsys)
    assert code == 2
    assert out == ""
    assert "$.payload.joint.probs[0]: " in err


@pytest.mark.parametrize("key", ["phi", "pair_phi"])
def test_non_summable_construction_is_a_fail_verdict(tmp_path, capsys, key):
    payload = {"phi": {"even_coeffs": {"4": 1.0}}, "pair_phi": {"even_coeffs": {"4": 1.0}}}
    payload[key] = {"even_coeffs": {"2": -1.0}}
    scn = {"schema": "qchar-scenario-1", "kind": "circle-construct", "expect": "fail",
           "payload": payload}
    path = tmp_path / "diverges.json"
    path.write_text(json.dumps(scn))
    code, out, err = run_cli(["run", path], capsys)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert "diverges" in rep["details"]["reason"]


def _run_edited(tmp_path, capsys, scn):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(scn))
    return run_cli(["run", path], capsys)


@pytest.mark.parametrize("orders", [[5.5], ["5"], 5, [True]])
def test_run_non_integer_group_orders_exit_two(tmp_path, capsys, orders):
    scn = json.load(open(DATA / "heyde_pass.json"))
    scn["payload"]["group"]["orders"] = orders
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert "$.payload.group.orders" in err


def test_run_non_integer_joint_arity_exits_two(tmp_path, capsys):
    scn = {"schema": "qchar-scenario-1", "kind": "q-witness", "payload": {
        "group": {"orders": [2]}, "joint": {"arity": 2.7, "probs": [0.25] * 4}}}
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert "$.payload.joint.arity: " in err


@pytest.mark.parametrize("edit, where", [
    (lambda p: p.update(radius="x"), "$.payload.radius"),
    (lambda p: p.update(radius=0), "$.payload.radius"),
    (lambda p: p.update(radius=500), "$.payload.radius"),
    (lambda p: p.update(min_truncation=12.5), "$.payload.min_truncation"),
    (lambda p: p["target"].update(sigma="abc"), "$.payload.target.sigma"),
    (lambda p: p["target"].update(sigma=-1.0), "$.payload.target.sigma"),
    (lambda p: p["factors"][1].update(shift=[]), "$.payload.factors[1].shift"),
    (lambda p: p["factors"][0]["perturb"].update(offset="1"),
     "$.payload.factors[0].perturb.offset"),
    (lambda p: p["factors"][0]["perturb"].update(offset=9), "$.payload.factors[0].perturb.offset"),
    (lambda p: p["factors"][0]["perturb"].update(amount="x"),
     "$.payload.factors[0].perturb.amount"),
    (lambda p: p["factors"][1].update(sigma="-1/2"), "$.payload.factors[1].sigma"),
    (lambda p: p["factors"][1].update(sigma="0"), "$.payload.factors[1].sigma"),
    (lambda p: p["factors"][1].update(sigma=0), "$.payload.factors[1].sigma"),
], ids=_named("cramer"))
def test_run_bad_circle_cramer_field_exits_two(tmp_path, capsys, edit, where):
    scn = _full_surface("circle-perturbed-factor")
    edit(scn["payload"])
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert f"{where}: " in err


def test_circle_sigma_takes_rational_strings(tmp_path, capsys):
    scn = _full_surface("circle-gaussian-split")
    _, want, _ = _run_edited(tmp_path, capsys, scn)
    scn["payload"]["target"]["sigma"] = "1"
    for factor in scn["payload"]["factors"]:
        factor["sigma"] = "1/2"
    code, out, _ = _run_edited(tmp_path, capsys, scn)
    assert code == 0
    assert out == want


def test_circle_cramer_without_exact_logs_runs_to_a_verdict(monkeypatch, capsys):
    # a perturbed target drops its exact logs: a spectrum that vanishes on the
    # window fails, one that does not goes through the unwrapped log
    from qchar import witnesses

    unwrapped = []
    real = witnesses._continuous_log
    monkeypatch.setattr(witnesses, "_continuous_log",
                        lambda values: unwrapped.append(values.shape) or real(values))
    vanish, perturbed = json.loads((DATA / "circle_logs.json").read_text("utf-8"))["scenarios"]
    report = run_scenario(vanish)
    assert (report["verdict"], report["matched"]) == ("fail", True)
    assert report["details"] == {"reason": "spectral values vanish on the window"}
    assert unwrapped == []
    report = run_scenario(perturbed)
    assert (report["verdict"], report["matched"]) == ("pass", True)
    assert unwrapped == [(7,)]
    assert run_cli(["run", DATA / "circle_logs.json"], capsys)[0] == 0


def test_heyde_with_vanishing_transforms_stops_at_the_log_route():
    # Haar laws on Z_5 pass the symmetry and factorization checks, and their
    # transforms vanish off 0, so the log route is refused as a violated hypothesis
    haar = {"kind": "haar"}
    rep = run_scenario({"schema": "qchar-scenario-1", "kind": "heyde", "payload": {
        "group": {"orders": [5]}, "alpha": {"scalar": 2},
        "joint": {"kind": "product", "factors": [haar, haar]}}})
    assert rep["verdict"] == "hypothesis-violated"
    assert rep["details"] == {
        "reason": "a characteristic function vanishes; the logarithmic route is unavailable",
        "residual": None}


def test_circle_cramer_at_the_radius_cap_is_bounded(tmp_path, capsys):
    # the largest schema-valid circle window; quadratic_check's pairs are the rest
    scn = _full_surface("circle-gaussian-split")
    scn["payload"].update(radius=TRUNCATION_CAP, min_truncation=TRUNCATION_CAP)
    start = time.perf_counter()
    code, out, _ = _run_edited(tmp_path, capsys, scn)
    assert time.perf_counter() - start <= 5.0
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_circle_cramer_at_the_radius_cap_allocates_no_pair_array(tmp_path, capsys):
    scn = _full_surface("circle-gaussian-split")
    scn["payload"].update(radius=TRUNCATION_CAP, min_truncation=TRUNCATION_CAP)
    tracemalloc.start()
    try:
        code, out, _ = _run_edited(tmp_path, capsys, scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # quadratic_check's window holds 2049^2 pairs; their (u, v) index arrays
    # alone took 16 bytes a pair
    assert peak < 4096 * 4096 // 4


@pytest.mark.parametrize("radius, why", [
    (500, "500 outside [1, 6]"),
    (7, "7 outside [1, 6]"),
    (0, "0 is less than the minimum of 1"),
    (-1, "-1 is less than the minimum of 1"),
], ids=["500", "7", "0", "-1"])
def test_run_construct_radius_outside_window_exits_two(tmp_path, capsys, radius, why):
    scn = json.load(open(DATA / "kb_and_circle.json"))["scenarios"][2]
    scn["payload"]["radius"] = radius
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert f"$.payload.radius: {why}" in err


def test_run_multi_scenario_order_and_worker_determinism(capsys):
    args = ["run", DATA / "full_surface.json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    names = [r["name"] for r in doc["reports"]]
    src = json.load(open(DATA / "full_surface.json"))
    assert names == [s["name"] for s in src["scenarios"]]


def test_run_out_flag_writes_canonical_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["run", DATA / "heyde_pass.json", "--out", target], capsys)
    assert code == 0
    body = target.read_text()
    rep = json.loads(body)
    assert body.strip() == canonical_json(rep)


def test_strict_profile_still_passes_exact_cases(capsys):
    code, _, _ = run_cli(
        ["run", DATA / "heyde_pass.json", "--tolerance-profile", "strict"], capsys
    )
    assert code == 0


def _kb_z6(eps):
    """A kb document on Z_6: Haar on 1 + <2> with eps of mass moved from 1 to 5,
    and Haar on <2>. Its sum/difference residual is about 1.73 eps."""
    return {"schema": "qchar-scenario-1", "kind": "kb", "name": "z6-kb-boundary", "payload": {
        "group": {"orders": [6]},
        "first": {"probs": [0, 1 / 3 - eps, 0, 1 / 3, 0, 1 / 3 + eps]},
        "second": {"kind": "shifted-haar", "point": [2], "subgroup": {"generators": [[2]]}},
    }}


def test_strict_profile_rejects_a_kb_residual_the_default_passes():
    default = run_scenario(_kb_z6(1e-12))
    assert default["verdict"] == "pass"
    residual = default["details"]["equation_residual"]
    assert 1e-12 < residual < 1e-9  # strict's and default's documented tolerances
    assert residual == pytest.approx(1.73e-12, rel=0.01)
    strict = run_scenario(_kb_z6(1e-12), "strict")
    assert strict["verdict"] == "hypothesis-violated"
    assert strict["details"]["residual"] == residual


@pytest.mark.parametrize("eps, residual", [(2.9e-10, 5.0e-10), (1e-9, 1.7e-9)],
                         ids=["half", "twice"])
def test_default_profile_decides_the_kb_identity_at_1e_9(eps, residual):
    # strict rejects both at the identity, so its report carries the residual
    measured = run_scenario(_kb_z6(eps), "strict")["details"]["residual"]
    assert measured == pytest.approx(residual, rel=0.05)
    report = run_scenario(_kb_z6(eps))
    reason = report["details"].get("reason", "")
    rejected = reason.startswith("sum/difference identity fails")
    assert rejected == (report["verdict"] == "hypothesis-violated") == (measured > 1e-9)


# -- other subcommands ------------------------------------------------------


def test_sweep_deterministic_per_seed(capsys):
    args = ["sweep", "convolution", "--seed", "5", "--count", "3", "--max-order", "6"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["details"]["failures"] == []
    assert doc["details"]["worst_residual"] < 1e-12


def test_sweep_seed_changes_cases(capsys):
    _, out1, _ = run_cli(["sweep", "convolution", "--seed", "1", "--count", "2"], capsys)
    _, out2, _ = run_cli(["sweep", "convolution", "--seed", "2", "--count", "2"], capsys)
    assert out1 != out2


@pytest.mark.parametrize("args, message", [
    (["--arities", "4"], "--max-order 12 with --arities 4: the largest swept group Z_12^4 "
                         "exceeds the order cap 4096"),
    (["--max-order", "20"], "--max-order 20 with --arities 2,3: the largest swept group "
                            "Z_20^3 exceeds the order cap 4096"),
    (["--arities", "2", "--max-order", "70"], "--max-order 70 with --arities 2: the largest "
                                              "swept group Z_70^2 exceeds the order cap 4096"),
    (["--arities", "1000000000"], "--max-order 12 with --arities 1000000000: the largest swept "
                                  "group Z_12^1000000000 exceeds the order cap 4096"),
    (["--arities", "2,,3"], "--arities: invalid literal for int() with base 10: ''"),
    (["--arities", "1"], "--arities: 1 is below 2; a one-factor joint is always a product"),
    (["--arities", "3,0"], "--arities: 0 is below 2; a one-factor joint is always a product"),
    (["--count", "-3"], "--count: -3 is negative"),
    (["--seed", "-1"], "--seed: -1 is negative"),
])
def test_sweep_bad_arguments_exit_two(capsys, args, message):
    code, out, err = run_cli(["sweep", "independence-collapse", *args], capsys)
    assert (code, out, err) == (2, "", f"qchar: invalid input: {message}\n")


def test_convolution_sweep_above_the_order_cap_exits_two(capsys):
    code, out, err = run_cli(["sweep", "convolution", "--max-order", "5000"], capsys)
    assert (code, out) == (2, "")
    assert err == ("qchar: invalid input: --max-order 5000: the largest swept group Z_5000 "
                   "exceeds the order cap 4096\n")
    # the arities do not bound a convolution sweep
    code, _, _ = run_cli(["sweep", "convolution", "--count", "1", "--max-order", "70"], capsys)
    assert code == 0


@pytest.mark.parametrize("kind", ["independence-collapse", "convolution"])
def test_sweep_of_zero_cases_passes(capsys, kind):
    code, out, _ = run_cli(["sweep", kind, "--count", "0", "--arities", "2",
                            "--max-order", "64"], capsys)
    assert code == 0
    assert json.loads(out)["details"]["cases"] == 0


def test_construct_gate_pass_and_reject(capsys):
    ok, out, _ = run_cli(["construct", "--phi", '{"even_coeffs": {"4": 1.0}}'], capsys)
    assert ok == 0
    doc = json.loads(out)
    assert doc["details"]["gate_sum"] == pytest.approx(1.7357591074132341)
    bad, out, _ = run_cli(["construct", "--phi", '{"even_coeffs": {"2": 0.01}}'], capsys)
    assert bad == 1
    doc = json.loads(out)
    assert doc["verdict"] == "hypothesis-violated"


def test_inspect_group(capsys):
    code, out, _ = run_cli(["inspect", "group", "--orders", "2,4"], capsys)
    assert code == 0
    doc = json.loads(out)
    d = doc["details"]
    assert d["order"] == 8
    assert d["rank"] == 2
    assert d["exponent"] == 4
    assert d["corwin"] is False
    assert d["subgroup_count"] == 8


def test_console_script_entry_point(qchar_script):
    proc = subprocess.run(
        ["qchar", "run", str(DATA / "heyde_pass.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"{proc.args} exited {proc.returncode}:\n{proc.stderr}"
    assert json.loads(proc.stdout)["verdict"] == "pass"


def test_python_dash_m_qchar_is_quiet(monkeypatch):
    src = str(Path(__file__).resolve().parent.parent / "src")
    rest = os.environ.get("PYTHONPATH")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, rest]) if rest else src)
    for module in ("qchar", "qchar.cli"):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", module, "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{proc.args} exited {proc.returncode}:\n{proc.stderr}"
        assert proc.stderr == ""
        assert "usage:" in proc.stdout


def test_run_has_no_workers_option(qchar_script):
    proc = subprocess.run(
        ["qchar", "run", "--workers", "2", str(DATA / "heyde_pass.json")],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error: unrecognized arguments: --workers" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_jsonschema_loads_only_to_validate_a_document(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"""
import contextlib, io, json, sys
import qchar.cli
assert "jsonschema" not in sys.modules, "import"
assert "concurrent.futures" not in sys.modules, "import"
with contextlib.redirect_stdout(io.StringIO()):
    qchar.cli.main(["sweep", "independence-collapse", "--count", "2", "--max-order", "4"])
assert "jsonschema" not in sys.modules, "sweep"
from qchar.scenarios import check_document
check_document(json.load(open({str(DATA / "heyde_pass.json")!r})))
assert "jsonschema" in sys.modules, "check_document"
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


# -- python api parity ------------------------------------------------------


def test_run_scenario_rejects_bad_expect():
    scn = json.load(open(DATA / "heyde_pass.json"))
    scn["expect"] = "definitely"
    with pytest.raises(ScenarioFormatError):
        run_scenario(scn)


def test_run_sweep_api_matches_seeded_rng():
    rep1 = run_sweep("independence-collapse", seed=11, count=2, max_order=5)
    rep2 = run_sweep("independence-collapse", seed=11, count=2, max_order=5)
    assert canonical_json(rep1) == canonical_json(rep2)
    assert rep1["details"]["failures"] == []


def test_make_rng_is_philox():
    rng = make_rng(4)
    assert "Philox" in type(rng.bit_generator).__name__
    assert make_rng(4).random() == rng.random()


@pytest.mark.parametrize("name, edit, where", [
    ("window-two-terms", lambda p: p.update(R={"radius": 30, "values": [0.0] * 61}),
     "$.payload.R: 'dim' is a required property"),
    ("window-two-terms",
     lambda p: p["terms"][0].update(psi={"radius": 40, "dim": 2, "coefficients": {"2,0": 1}}),
     "$.payload.terms[0].psi.dim: 1 was expected"),
    ("window-quadratics",
     lambda p: p.update(psi1={"radius": 112, "dim": 2, "coefficients": {"2,0": 1}}),
     "$.payload.psi1.dim: 1 was expected"),
    ("window-quadratics",
     lambda p: p.update(psi2={"radius": 112, "dim": 2, "coefficients": {"0,2": 2}}),
     "$.payload.psi2.dim: 1 was expected"),
], ids=["R", "term-psi", "psi1", "psi2"])
def test_run_window_chain_wrong_dim_exits_two(tmp_path, capsys, name, edit, where):
    scn = _full_surface(name)
    edit(scn["payload"])
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert code == 2
    assert out == ""
    assert where in err


def test_document_schema_is_valid():
    Draft202012Validator.check_schema(DOCUMENT_SCHEMA)


_PROBES = [
    ("window-two-terms", lambda p: p["terms"][0]["psi"].update(coefficients={"x": 1}),
     "$.payload.terms[0].psi.coefficients"),
    ("window-two-terms", lambda p: p["terms"][0]["psi"].update(coefficients={"-1": 1}),
     "$.payload.terms[0].psi.coefficients"),
    ("window-two-terms", lambda p: p["terms"].__setitem__(0, 5), "$.payload.terms[0]"),
    ("z7-two-degenerate", lambda p: p["components"].__setitem__(0, 5),
     "$.payload.components[0]"),
    ("z6-product-has-witness", lambda p: p["joint"]["factors"][0]["probs"].__setitem__(0, "1e400"),
     "$.payload.joint.factors[0].probs[0]"),
    ("circle-gaussian-split", lambda p: p["factors"][0].update(shift=1e308),
     "$.payload.factors[0].shift"),
    ("circle-gaussian-split", lambda p: p["target"].update(sigma=1e-6), "$.payload.target.sigma"),
    ("circle-gaussian-split", lambda p: p["target"].update(sigma=1e-300),
     "$.payload.target.sigma"),
    ("circle-gaussian-split", lambda p: p.update(min_truncation=2000),
     "$.payload.min_truncation"),
]
_PROBE_IDS = ["coefficient-key-x", "coefficient-key-minus-1", "pexider-term", "sd-component",
              "rational-overflow", "shift-1e308", "sigma-1e-6", "sigma-1e-300", "truncation-2000"]


@pytest.mark.parametrize("name, edit, where", _PROBES, ids=_PROBE_IDS)
def test_run_probe_exits_two_at_its_path(tmp_path, capsys, name, edit, where):
    scn = _full_surface(name)
    edit(scn["payload"])
    with np.errstate(all="ignore"):
        code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert f"{where}: " in err


def test_run_even_coeffs_list_exits_two(tmp_path, capsys):
    scn = json.load(open(DATA / "kb_and_circle.json"))["scenarios"][2]
    scn["payload"]["phi"]["even_coeffs"] = [1, 2]
    code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, out) == (2, "")
    assert "$.payload.phi.even_coeffs: " in err


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_run_non_finite_json_number_exits_two_at_its_path(tmp_path, capsys, text):
    body = (DATA / "heyde_pass.json").read_text().replace('"scalar": 2', f'"scalar": {text}')
    path = tmp_path / "edited.json"
    path.write_text(body)
    code, out, err = run_cli(["run", path], capsys)
    assert (code, out) == (2, "")
    assert "$.payload.alpha.scalar: " in err


def test_run_error_names_the_scenario_index(tmp_path, capsys):
    doc = json.load(open(DATA / "full_surface.json"))
    doc["scenarios"][5]["payload"]["radius"] = 500
    code, out, err = _run_edited(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    assert "$.scenarios[5].payload.radius: 500 beyond the truncation 12" in err
    doc["scenarios"][5]["payload"]["radius"] = "x"
    code, out, err = _run_edited(tmp_path, capsys, doc)
    assert "$.scenarios[5].payload.radius: " in err


def test_overflowing_residual_is_a_fail_verdict_that_names_it(tmp_path, capsys):
    scn = _full_surface("window-two-terms")
    scn["payload"]["terms"][1]["psi"]["coefficients"] = {"3": 1e308, "1": 1}
    scn["expect"] = "fail"
    with np.errstate(all="ignore"):
        code, out, err = _run_edited(tmp_path, capsys, scn)
    assert (code, err) == (0, "")
    rep = json.loads(out)
    assert rep["verdict"] == "fail"
    assert rep["details"]["reason"].startswith("non-finite residual: identity residual nan")


def _overflowing_residual(p):
    p["terms"][1]["psi"]["coefficients"] = {"3": 1e308, "1": 1}


@pytest.mark.parametrize("name, edit, where", _PROBES + [
    ("window-two-terms", _overflowing_residual, None),
], ids=_PROBE_IDS + ["overflowing-residual"])
def test_run_writes_no_numpy_warning_to_stderr(tmp_path, capsys, name, edit, where):
    scn = _full_surface(name)
    edit(scn["payload"])
    scn["expect"] = "fail"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out, err = _run_edited(tmp_path, capsys, scn)
    assert [str(w.message) for w in seen] == []
    if where is None:  # a "fail" verdict, as expected
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "fail"
    else:  # exactly the one exit-2 line
        assert code == 2 and err.count("\n") == 1 and f"{where}: " in err


def test_construct_and_inspect_validate_their_scenario(capsys):
    code, out, err = run_cli(["construct", "--phi", '{"even_coeffs": {"3": 1.0}}'], capsys)
    assert (code, out) == (2, "")
    assert "$.payload.phi.even_coeffs: '3' does not match" in err
    code, out, err = run_cli(["inspect", "group", "--orders", "2,5000"], capsys)
    assert (code, out) == (2, "")
    assert "$.payload.group.orders[1]: 5000 is greater than the maximum of 4096" in err
