import collections
import copy
import functools
import hashlib
import importlib.util
import json
import math
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compapprox
from compapprox import epca
from compapprox.epca import EpcaConfig, run_epca
from compapprox.errors import ConfigError
from compapprox.harness.cli import main as cli_main
from compapprox.harness.config import (EPCA_DEFAULTS, config_from_dict, load_config,
                                       load_network_model, validate_config)
from compapprox.harness.families import build_stages, perturb_support_points
from compapprox.harness.fixtures import (FIXTURE_ORDER, fixture_config,
                                         fixture_document, fixture_path,
                                         list_fixtures)
from compapprox.harness.runner import run_experiment, verify_summary
from compapprox.rng import stream


def test_fixture_count_and_names():
    pairs = list_fixtures()
    assert len(pairs) == 11
    names = [n for n, _ in pairs]
    assert "aug_lagrangian" in names
    assert set(names) == set(FIXTURE_ORDER)


def test_every_fixture_round_trips_through_loader():
    for name in FIXTURE_ORDER:
        doc = fixture_document(name)
        assert validate_config(doc) == []
        assert isinstance(doc["description"], str) and doc["description"].strip()
        assert fixture_config(name).name == name


def test_goal_softplus_fixture_schedule():
    cfg = fixture_config("goal_softplus")
    _, stages = build_stages(cfg)
    assert len(stages) == 20
    assert [s.parameter for s in stages[:4]] == [2.0, 4.0, 8.0, 16.0]


def test_sigma_range_error():
    doc = fixture_document("goal_softplus")
    doc["epca"]["sigma"] = 1.5
    errors = validate_config(doc)
    assert any("sigma" in e and "(0, 1)" in e for e in errors)


def test_tau_length_mismatch_is_dimension_error():
    doc = fixture_document("goal_softplus")
    doc["problem"]["outer"]["tau"] = [1.0, 2.0]
    doc["problem"]["outer"]["alpha"] = [1.0, 1.0]
    errors = validate_config(doc)
    assert any("dimension" in e for e in errors)


def test_validation_collects_all_errors():
    doc = fixture_document("goal_softplus")
    doc["epca"]["sigma"] = 1.5
    doc["epca"]["tau"] = 0.5
    doc["family"]["theta0"] = -1.0
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    assert len(err.value.errors) >= 3


def test_unknown_variant_reported():
    doc = fixture_document("goal_softplus")
    doc["problem"]["outer"]["variant"] = "mystery"
    errors = validate_config(doc)
    assert any("unknown variant" in e for e in errors)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")


def test_load_config_parse_error_has_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json }")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "line" in err.value.errors[0]


def test_network_model_loader(tmp_path):
    doc = {"networks": [{"layers": [
        {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0], "shape": [2, 2]}
    ]}], "activation": {"kind": "softplus", "theta": 3.0}}
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    nets, act = load_network_model(p)
    assert len(nets) == 1 and act.kind == "softplus" and act.theta == 3.0
    doc["networks"][0]["layers"][0]["shape"] = [3, 2]
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_network_model(p)


def test_network_weights_loadable_from_file(tmp_path):
    model = {"networks": [{"layers": [
        {"weights": [[1.0], [2.0]], "bias": [0.0, 0.5], "shape": [2, 1]},
        {"weights": [[1.0, -1.0]], "bias": [0.0], "shape": [1, 2]},
    ]}], "activation": {"kind": "softplus", "theta": 6.0}}
    (tmp_path / "model.json").write_text(json.dumps(model))
    doc = fixture_document("network_inverse")
    doc["problem"]["set"] = {"kind": "box", "lower": [-2.0], "upper": [2.0]}
    doc["problem"]["inner"] = {"variant": "network", "file": "model.json"}
    doc["problem"]["outer"] = {"variant": "squared_error", "target": [0.3]}
    doc["epca"]["x0"] = [0.0]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(p)
    assert cfg.F.n == cfg.X.n == 1 and cfg.F.m == 1
    assert build_stages(cfg)[0].m == 1


def test_perturb_support_points_excess():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    for alpha in (1e-1, 1e-3):
        moved = perturb_support_points(pts, alpha)
        assert np.allclose(np.linalg.norm(moved - pts, axis=1), alpha)
        assert np.allclose(moved.sum(axis=1), 1.0)
        assert np.all(moved >= 0)


def test_rng_streams_are_deterministic_and_distinct():
    a = stream(1, "x").random(4)
    b = stream(1, "x").random(4)
    c = stream(1, "y").random(4)
    d = stream(2, "x").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_run_twice_byte_identical(tmp_path):
    cfg = fixture_config("exact_penalty")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg, output_dir=out1) == 0
    assert run_experiment(cfg, output_dir=out2) == 0
    for suffix in ("_trace.csv", "_rates.csv", "_summary.json"):
        b1 = (out1 / f"exact_penalty{suffix}").read_bytes()
        b2 = (out2 / f"exact_penalty{suffix}").read_bytes()
        assert b1 == b2


def test_verify_passes_and_detects_tampering(tmp_path):
    cfg = fixture_config("exact_penalty")
    assert run_experiment(cfg, output_dir=tmp_path) == 0
    summary = tmp_path / "exact_penalty_summary.json"
    assert verify_summary(summary) == 0
    # tamper with the rates artifact: exactness must now fail
    rates = tmp_path / "exact_penalty_rates.csv"
    lines = rates.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[3] = "0.125"
    lines[-1] = ",".join(cols)
    rates.write_text("\n".join(lines) + "\n")
    assert verify_summary(summary) == 1
    # restore rates, break a trace certificate instead
    run_experiment(cfg, output_dir=tmp_path)
    trace = tmp_path / "exact_penalty_trace.csv"
    lines = trace.read_text().splitlines()
    cols = lines[1].split(",")
    cols[7] = "99.0"
    lines[1] = ",".join(cols)
    trace.write_text("\n".join(lines) + "\n")
    assert verify_summary(summary) == 1


def test_verify_missing_artifacts(tmp_path):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"name": "x", "artifacts": {"trace": "gone.csv"}}))
    assert verify_summary(p) == 3


def _without(key):
    return lambda s: {k: v for k, v in s.items() if k != key}


def _set(**values):
    return lambda s: {**s, **values}


def _first_assertion_without_measured(s):
    first = next(iter(s["assertions"]))
    record = {k: v for k, v in s["assertions"][first].items() if k != "measured"}
    return {**s, "assertions": {**s["assertions"], first: record}}


def _with_check(check):
    return lambda s: {**s, "artifact_checks": [*s["artifact_checks"], check]}


#: edits of a complete exact_penalty summary that make it malformed
_MALFORMED_SUMMARIES = {
    "no-name": _without("name"),
    "no-name-nonconvergence": lambda s: _set(status="nonconvergence")(_without("name")(s)),
    "assertion-without-measured": _first_assertion_without_measured,
    "slope-check-without-fields": _with_check({"kind": "slope"}),
    "assertions-list": _set(assertions=[]),
    "slope-on-missing-column": _with_check({"kind": "slope", "file": "rates",
                                            "param": "parameter", "column": "absent",
                                            "target": 1.0, "tol": 0.1}),
    "root-list": lambda s: [s],
}


@pytest.mark.parametrize("case", list(_MALFORMED_SUMMARIES))
def test_verify_malformed_summary_exits_3(fixture_runs, tmp_path, capsys, case):
    source = fixture_runs.summary_path("exact_penalty")
    summary = json.loads(source.read_text())
    for rel in summary["artifacts"].values():
        (tmp_path / rel).write_bytes((source.parent / rel).read_bytes())
    path = tmp_path / source.name
    path.write_text(json.dumps(_MALFORMED_SUMMARIES[case](summary)))
    capsys.readouterr()
    assert verify_summary(path) == 3
    assert capsys.readouterr().out.startswith(f"verify: cannot check {source.name}: ")


def test_cli_fixtures_and_exit_codes(tmp_path, capsys, monkeypatch):
    assert cli_main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "aug_lagrangian" in out and len(out.strip().splitlines()) == 11
    assert cli_main(["run", "definitely_not_a_fixture"]) == 3
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(fixture_path("exact_penalty"))]) == 0
    assert (tmp_path / "exact_penalty_summary.json").exists()
    assert cli_main(["verify", str(tmp_path / "exact_penalty_summary.json")]) == 0


def test_cli_reports_all_config_errors(tmp_path, capsys):
    doc = fixture_document("goal_softplus")
    doc["epca"]["sigma"] = 1.5
    doc["family"]["theta0"] = -2.0
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    assert cli_main(["run", str(p)]) == 3
    err = capsys.readouterr().err
    assert "sigma" in err and "theta0" in err


def test_cli_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("COMPAPPROX_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert cli_main(["run", "exact_penalty"]) == 0
    assert (tmp_path / "env_out" / "exact_penalty_summary.json").exists()


def test_nonconvergence_exit_code_with_partial_artifacts(tmp_path):
    doc = fixture_document("exact_penalty")
    doc["epca"]["inner_iteration_cap"] = 1
    doc["family"]["delta0"] = 1e-12
    cfg = config_from_dict(doc)
    status = run_experiment(cfg, output_dir=tmp_path)
    assert status == 2
    assert (tmp_path / "exact_penalty_trace.csv").exists()
    summary = json.loads((tmp_path / "exact_penalty_summary.json").read_text())
    assert summary["status"] == "nonconvergence"


def test_verify_rejects_nonconvergent_summary(tmp_path, capsys):
    doc = fixture_document("exact_penalty")
    doc["epca"]["inner_iteration_cap"] = 1
    doc["family"]["delta0"] = 1e-12
    assert run_experiment(config_from_dict(doc), output_dir=tmp_path) == 2
    capsys.readouterr()
    assert verify_summary(tmp_path / "exact_penalty_summary.json") == 2
    assert "'nonconvergence'" in capsys.readouterr().out


def test_subproblem_cap_names_outer_index(tmp_path, capsys):
    # delta0 = 1e-300 is below what the dual solver's certificate resolves:
    # stage 1's solves reach a certificate of exactly 0, but the first solve
    # of stage 2 gets no lower than about 1e-16 and runs to the iteration cap.
    # A ball takes no face polish; on the fixture's box the polished solves
    # certify even at this delta.
    doc = fixture_document("exact_penalty")
    doc["family"]["delta0"] = 1e-300
    doc["problem"]["set"] = {"kind": "ball", "center": [0.0], "radius": 5.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert ("at outer index 2 (parameter 2): dual accelerated subproblem hit its "
            "iteration cap") in out


def test_start_outside_dom_h_exits_2_without_traceback(tmp_path):
    # the log barrier's x - 1 < 0 fails at x0 = 2: the first subproblem cannot start
    doc = fixture_document("log_barrier")
    doc["epca"]["x0"] = [2.0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(compapprox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "compapprox.harness.cli", *args],
                              capture_output=True, text=True, env=env)

    run = cli("run", str(cfg), "--output-dir", str(tmp_path))
    assert run.returncode == 2, run.stderr
    assert "Traceback" not in run.stderr
    assert "EvaluationError at outer index 1" in run.stdout
    summary = tmp_path / "log_barrier_summary.json"
    assert json.loads(summary.read_text())["status"] == "nonconvergence"
    assert cli("verify", str(summary)).returncode == 2


def test_epca_defaults_have_one_source():
    cfg = EpcaConfig(x0=[0.0], delta_schedule=(0.1,))
    assert EPCA_DEFAULTS == {"inner_iteration_cap": cfg.inner_iteration_cap,
                             "subproblem_tolerance_factor": cfg.subproblem_tolerance_factor}
    assert EPCA_DEFAULTS["inner_iteration_cap"] == 300


def _cli_run_doc(tmp_path, doc):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return cli_main(["run", str(p), "--output-dir", str(tmp_path)])


@pytest.mark.parametrize("samples", [-5, 0, 2.5, True])
def test_cli_rejects_bad_diagnostics_samples(tmp_path, capsys, samples):
    doc = fixture_document("goal_softplus")
    doc["diagnostics"]["samples"] = samples
    assert _cli_run_doc(tmp_path, doc) == 3
    assert "samples must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "goal_softplus_summary.json").exists()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cli_rejects_nonfinite_x0(tmp_path, capsys, bad):
    doc = fixture_document("goal_softplus")
    doc["epca"]["x0"][0] = bad
    assert _cli_run_doc(tmp_path, doc) == 3
    assert "x0 entries must be finite" in capsys.readouterr().err


def _edit(fixture, value, *path):
    """The bundled document (or the given one) with the node at path set to value."""
    doc = fixture_document(fixture) if isinstance(fixture, str) else fixture
    *parents, last = path
    functools.reduce(operator.getitem, parents, doc)[last] = value
    return doc


def _family_edit(fixture, **values):
    doc = fixture_document(fixture)
    doc["family"].update(values)
    return doc


#: schedules whose last term leaves the positive floats: (doc, start key, rate key)
_OUT_OF_RANGE = {
    "theta-overflow": (_family_edit("exact_penalty", theta_growth=10, length=400),
                       "theta0", "theta_growth"),
    "theta-inf": (_family_edit("quad_penalty", theta0=1e200, theta_growth=1e150, length=3),
                  "theta0", "theta_growth"),
    "theta-inf-at-two": (_family_edit("exact_penalty", theta0=1e200, theta_growth=1e150,
                                      length=2), "theta0", "theta_growth"),
    "count-overflow": (_family_edit("sample_average", count_growth=1e300, length=3),
                       "count0", "count_growth"),
    "count-past-intp": (_family_edit("sample_average", count_growth=1e300, length=2),
                        "count0", "count_growth"),
    "delta-underflow": (_family_edit("goal_softplus", delta0=1e-300, delta_decay=1e-300,
                                     length=3), "delta0", "delta_decay"),
    "lam-underflow": (_family_edit("homotopy", lam_decay=1e-300, length=3),
                      "lam0", "lam_decay"),
}


@pytest.mark.parametrize("doc", [
    *(doc for doc, _, _ in _OUT_OF_RANGE.values()),
    _family_edit("distributionally_robust", alphas=[0.1, 0.01, 0.0, 1e-4, 1e-5]),
    _family_edit("distributionally_robust", alphas=[0.1, 0.01, -1e-3, 1e-4, 1e-5]),
    _family_edit("distributionally_robust", alphas=[1e-5, 1e-4, 1e-3, 0.01, 0.1]),
    _family_edit("distributionally_robust", alphas=[0.1, 0.01]),
    _family_edit("goal_softplus", theta_growth="2"),
    _family_edit("goal_softplus", theta_growth=0.5),
    _family_edit("goal_softplus", theta0=True),
    _family_edit("homotopy", lam0="x"),
    _family_edit("homotopy", lam_decay=1.5),
    _family_edit("exact_penalty", delta_decay=2.0),
    _family_edit("exact_penalty", delta_decay="0.5"),
    _family_edit("exact_penalty", length=0),
    _family_edit("sample_average", count_growth=None),
], ids=[*_OUT_OF_RANGE, "alphas-zero", "alphas-negative", "alphas-increasing",
        "alphas-short", "theta_growth-string", "theta-decreasing", "theta0-bool", "lam0-string",
        "lam-increasing", "delta-increasing", "delta_decay-string", "empty-schedule",
        "count_growth-null"])
def test_cli_rejects_bad_family_parameters(tmp_path, capsys, doc):
    assert _cli_run_doc(tmp_path, doc) == 3
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", list(_OUT_OF_RANGE))
def test_schedule_leaving_the_float_range_names_its_keys(case):
    doc, start, rate = _OUT_OF_RANGE[case]
    errors = validate_config(doc)
    assert [e for e in errors if f"{start} * {rate}**k" in e], errors


@pytest.mark.parametrize("key, value", [
    ("tau", "2"), ("subproblem_tolerance_factor", "0.1"), ("lambda0", "x"),
    ("lambda_bar", True)])
def test_cli_rejects_non_numeric_epca_settings(tmp_path, capsys, key, value):
    doc = fixture_document("exact_penalty")
    doc["epca"][key] = value
    assert _cli_run_doc(tmp_path, doc) == 3
    err = capsys.readouterr().err
    assert "config error:" in err and key in err


_BAD_INPUTS = {
    "set-not-object": ("exact_penalty", [], "problem", "set"),
    "outer-not-object": ("exact_penalty", [], "problem", "outer"),
    "inner-not-object": ("exact_penalty", "affine", "problem", "inner"),
    "halfspace-normals-string": ("exact_penalty", {"kind": "halfspaces", "normals": "ab",
                                                   "offsets": [1.0]}, "problem", "set"),
    "halfspaces-empty": ("exact_penalty", {"kind": "halfspaces", "normals": [],
                                           "offsets": []}, "problem", "set"),
    "inner_iteration_cap-string": ("exact_penalty", "x", "epca", "inner_iteration_cap"),
    "output-number": ("exact_penalty", 5, "output"),
    "aug_lagrangian-first_linear": ("aug_lagrangian", False, "problem", "outer",
                                    "first_linear"),
    "quad_penalty-first_linear": ("quad_penalty", False, "problem", "outer",
                                  "first_linear"),
    "exact_penalty-first_linear": ("exact_penalty", False, "problem", "outer",
                                   "first_linear"),
    "inner_iteration_cap-zero": ("exact_penalty", 0, "epca", "inner_iteration_cap"),
    "box-lower-nan": ("goal_softplus", [math.nan], "problem", "set", "lower"),
    "ball-radius-nan": ("goal_softplus", {"kind": "ball", "center": [0.0],
                                          "radius": math.nan}, "problem", "set"),
    "box-infinite": ("exact_penalty", {"kind": "box", "lower": [math.inf],
                                       "upper": [math.inf]}, "problem", "set"),
    "sample_average-dist-short": ("sample_average", ["uniform", 0], "problem", "inner", "dist"),
    "sample_average-dist-string": ("sample_average", "uniform", "problem", "inner", "dist"),
    "rho-nan": ("exact_penalty", math.nan, "diagnostics", "rho"),
    "rho-inf": ("exact_penalty", math.inf, "diagnostics", "rho"),
    "rho-bool": ("exact_penalty", True, "diagnostics", "rho"),
    "grid_resolution-zero": ("exact_penalty", 0, "diagnostics", "grid_resolution"),
    "probe_tolerance-string": ("exact_penalty", "x", "diagnostics", "probe_tolerance"),
    "seed-bool": ("exact_penalty", True, "seed"),
    "log_barrier-first_linear": ("log_barrier", False, "problem", "outer", "first_linear"),
    # non-finite parameters of the outer function and the inner mapping
    "goal-alpha-nan": ("goal_softplus", math.nan, "problem", "outer", "alpha", 0),
    "goal-tau-inf": ("goal_softplus", math.inf, "problem", "outer", "tau", 0),
    "linear-p-nan": ("homotopy", math.nan, "problem", "outer", "p", 0),
    "squared_error-target-inf": ("network_inverse", -math.inf, "problem", "outer",
                                 "target", 0),
    "squared_error-weight-nan": ("network_inverse", math.nan, "problem", "outer", "weight"),
    "support-points-nan": ("distributionally_robust", math.nan, "problem", "outer",
                           "points", 0, 0),
    "affine-A-nan": ("quad_penalty", math.nan, "problem", "inner", "A", 0, 0),
    "affine-b-inf": ("convex_sanity", math.inf, "problem", "inner", "b", 0),
    "quadratic-c-nan": ("exact_penalty", math.nan, "problem", "inner", "components", 0, "c"),
    "quadratic-Q-inf": ("goal_softplus", math.inf, "problem", "inner", "components", 0,
                        "Q", 0, 0),
    "min_smooth-q-nan": ("min_smoothing", math.nan, "problem", "inner", "components", 0, 0,
                         "q", 0),
    # Qx + q is the gradient of x'Qx/2 + q'x only for a symmetric Q
    "min_smooth-Q-nonsymmetric": (
        _edit(_edit("min_smoothing", {"kind": "box", "lower": [-1.0, -1.0],
                                      "upper": [1.0, 1.0]}, "problem", "set"),
              [0.5, 0.5], "epca", "x0"),
        [[{"Q": [[0.0, 2.0], [0.0, 0.0]], "q": [0.0, 0.0], "c": 0.0},
          {"Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0], "c": 1.0}]],
        "problem", "inner", "components"),
    "sample_average-A1-inf": ("sample_average", math.inf, "problem", "inner", "A1", 0, 0),
    "network-weight-nan": ("network_inverse", math.nan, "problem", "inner", "networks", 0,
                           "weights", 0, 0, 0),
    "network-bias-inf": ("network_inverse", math.inf, "problem", "inner", "networks", 0,
                         "biases", 1, 0),
    # output prefixes that would write outside the output directory or name no file
    "output-empty": ("exact_penalty", "", "output"),
    "output-absolute": ("exact_penalty", "/abs/exact_penalty", "output"),
    "output-dotdot": ("exact_penalty", "runs/../../exact_penalty", "output"),
    "output-dot": ("exact_penalty", ".", "output"),
    # preconditions of the certificate and the rate diagnostics
    "homotopy-support-outer": ("homotopy", {"variant": "support", "points": [[1.0]]},
                               "problem", "outer"),
    "homotopy-rho-below-half-lam0": ("homotopy", 0.1, "diagnostics", "rho"),
    "min_smoothing-set-outside-rho-ball": (
        _edit("min_smoothing", [5.5], "epca", "x0"),
        {"kind": "box", "lower": [5.0], "upper": [6.0]}, "problem", "set"),
    "sample_average-set-outside-rho-ball": (
        _edit("sample_average", {"kind": "box", "lower": [0.5], "upper": [1.0]},
              "problem", "set"), 0.1, "diagnostics", "rho"),
    "network_softplus-set-outside-rho-ball": (
        _edit("network_inverse", [1.5, 0.0], "epca", "x0"),
        {"kind": "box", "lower": [1.5, -2.0], "upper": [2.0, 2.0]}, "problem", "set"),
}


@pytest.mark.parametrize("fixture, value, path",
                         [(f, v, p) for f, v, *p in _BAD_INPUTS.values()],
                         ids=list(_BAD_INPUTS))
def test_cli_rejects_bad_input(tmp_path, capsys, fixture, value, path):
    assert _cli_run_doc(tmp_path, _edit(fixture, value, *path)) == 3
    assert "config error:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("case, message", [
    ("box-infinite", "problem.set: empty box"),
    ("sample_average-dist-short", 'problem.inner: dist must be ["two_point"] or ["uniform", lo, hi]'),
    ("sample_average-dist-string", 'problem.inner: dist must be ["two_point"] or ["uniform", lo, hi]'),
])
def test_cli_bad_input_names_the_problem(tmp_path, capsys, case, message):
    fixture, value, *path = _BAD_INPUTS[case]
    assert _cli_run_doc(tmp_path, _edit(fixture, value, *path)) == 3
    assert message in capsys.readouterr().err


def test_nested_output_prefix_creates_its_directory(tmp_path, capsys):
    doc = _edit("exact_penalty", "runs/a/exact_penalty", "output")
    assert _cli_run_doc(tmp_path, doc) == 0
    summary = tmp_path / "runs" / "a" / "exact_penalty_summary.json"
    assert sorted(p.name for p in summary.parent.iterdir()) == [
        "exact_penalty_rates.csv", "exact_penalty_summary.json", "exact_penalty_trace.csv"]
    assert verify_summary(summary) == 0


def _paths(node, prefix=()):
    """The path of every node below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_FUZZ_DOCS = {name: fixture_document(name) for name in FIXTURE_ORDER}
_FUZZ_SITES = [(name, path) for name, doc in _FUZZ_DOCS.items() for path in _paths(doc)]
_FUZZ_VALUES = (None, True, "x", [], {}, math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.5)


@st.composite
def _fuzzed_documents(draw):
    """A bundled document with one node replaced, or one key deleted."""
    name, path = draw(st.sampled_from(_FUZZ_SITES))
    doc = copy.deepcopy(_FUZZ_DOCS[name])
    *parents, last = path
    parent = functools.reduce(operator.getitem, parents, doc)
    if isinstance(last, str) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = copy.deepcopy(draw(st.sampled_from(_FUZZ_VALUES)))
    return doc


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_fuzzed_documents())
def test_config_fuzz_fails_only_with_config_errors(doc):
    errors = validate_config(doc)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        assert errors
        return
    assert errors == []
    build_stages(cfg)


def test_family_needs_its_problem_variants():
    doc = fixture_document("goal_softplus")
    doc["family"]["name"] = "exact_penalty"
    errors = validate_config(doc)
    assert any("family exact_penalty" in e and "equality_indicator" in e
               for e in errors)


@pytest.mark.parametrize("name, fixture", [
    ("exact_penalty", "quad_penalty"), ("network_inverse", "goal_softplus"),
    ("convex_sanity", "goal_softplus"), ("goal_softplus", "homotopy")])
def test_fixture_assertions_only_for_the_bundled_document(tmp_path, name, fixture):
    doc = fixture_document(fixture)
    doc["name"] = name
    assert run_experiment(config_from_dict(doc), output_dir=tmp_path) == 0
    summary = json.loads((tmp_path / f"{doc['output']}_summary.json").read_text())
    assert summary["name"] == name and summary["assertions"] == {}


def test_trace_csv_schema(tmp_path):
    cfg = fixture_config("exact_penalty")
    run_experiment(cfg, output_dir=tmp_path)
    header = (tmp_path / "exact_penalty_trace.csv").read_text().splitlines()[0]
    assert header == ("nu,theta,lambda_final,inner_iters,res_u,res_v,res_w,"
                      "res_combined,delta,phi_approx,phi_actual,exit_step")
    header = (tmp_path / "exact_penalty_rates.csv").read_text().splitlines()[0]
    assert header == ("nu,parameter,excess_lower,excess_upper,paper_bound,"
                      "eta0,eta,solution_error_bound")


def test_summary_assertions_map_to_criteria(fixture_runs):
    for name in FIXTURE_ORDER:
        status, outdir = fixture_runs.run(name)
        with open(outdir / f"{name}_summary.json") as fh:
            summary = json.load(fh)
        for key in summary["assertions"]:
            assert key.startswith("criterion_"), key


#: the assertions each bundled fixture's summary records: only checks that read
#: the run (its trace, stages or rate rows); library properties are gated by
#: tests/test_acceptance.py, so moving a criterion in or out is an edit here
FIXTURE_ASSERTION_KEYS = {
    "goal_softplus": {"criterion_08_epca_softplus_goal"},
    "aug_lagrangian": set(),
    "quad_penalty": {"criterion_10_quad_penalty_epi"},
    "exact_penalty": {"criterion_04_exact_penalty_exactness.zero_for_theta_ge_2rho",
                      "criterion_04_exact_penalty_exactness.positive_at_theta_1"},
    "log_barrier": set(),
    "homotopy": set(),
    "distributionally_robust": {"criterion_06_distributionally_robust_rate.gap_bound",
                                "criterion_06_distributionally_robust_rate.sqrt_slope"},
    "min_smoothing": set(),
    "sample_average": set(),
    "network_inverse": {"criterion_11_network_lift.neuron_gap",
                        "criterion_11_network_lift.monotone_objective"},
    "convex_sanity": {"criterion_09_convex_sanity_oracle"},
}


@pytest.mark.parametrize("name", FIXTURE_ORDER)
def test_fixture_assertion_keys_are_pinned(fixture_runs, name):
    with open(fixture_runs.summary_path(name)) as fh:
        summary = json.load(fh)
    assert set(summary["assertions"]) == FIXTURE_ASSERTION_KEYS[name]


#: sha256 over every fixture's trace, rates and summary artifacts, in
#: FIXTURE_ORDER; a change to the algorithm made on purpose updates it and says so
FIXTURE_ARTIFACTS_SHA256 = "5d59b73c394ddbd282059647f660655ce8a7443aef0b32596eb2e68485f2fc65"


def test_fixture_artifacts_byte_identical(fixture_runs):
    digest = hashlib.sha256()
    for name in FIXTURE_ORDER:
        _, outdir = fixture_runs.run(name)
        for suffix in ("trace.csv", "rates.csv", "summary.json"):
            digest.update((outdir / f"{name}_{suffix}").read_bytes())
    assert digest.hexdigest() == FIXTURE_ARTIFACTS_SHA256


@pytest.mark.parametrize("name", FIXTURE_ORDER)
def test_fixture_trace_rows_certified_at_delta(name):
    cfg = fixture_config(name)
    ecfg = cfg.epca_config()
    trace = run_epca(build_stages(cfg)[1], ecfg)
    assert trace.entries
    for e in trace.entries:
        assert e.residual.combined <= e.delta * (1.0 + ecfg.subproblem_tolerance_factor)
        if e.exit == "step5":
            u_norm, w_norm, r_sub = e.certificate
            assert max(u_norm, w_norm + r_sub) <= e.delta


def _spy_tolerances(monkeypatch):
    """Record, in order, stage starts and the EPCA calls the tolerance rule reads."""
    events = []

    def spy(name, record):
        original = getattr(epca, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            events.append(record(args, result))
            return result

        monkeypatch.setattr(epca, name, wrapped)

    # the level-boundedness probe runs once, first, in every stage
    spy("_level_boundedness_probe", lambda a, r: ("stage",))
    spy("solve_subproblem", lambda a, r: (
        "solve", a[6], r.residual, bool(epca._at_centre(r.x, np.asarray(a[4], dtype=float)))))
    spy("sufficient_decrease_test", lambda a, r: ("decrease", r))
    spy("step5_residuals", lambda a, r: (
        "step5", float(np.linalg.norm(r[0])), float(np.linalg.norm(r[1]))))
    spy("extract_multipliers_step4", lambda a, r: ("step4", a[2]))
    return events


def _check_tolerance_rule(events, ecfg):
    """Replay the events against tol = factor * max(delta, w_last); count what ran."""
    factor, seen = ecfg.subproblem_tolerance_factor, collections.Counter()
    nu, resolve, last_tol, r_sub = 0, False, None, None
    for event in events:
        kind = event[0]
        if kind == "stage":
            delta = ecfg.delta_schedule[nu]
            nu, subtol, w_last = nu + 1, factor * delta, 0.0
        elif kind == "solve":
            _, last_tol, r_sub, at_centre = event
            if resolve:
                # a solve looser than subtol that lands on the centre is
                # repeated at subtol before Step 4 may certify
                assert last_tol == subtol
                seen["resolve"] += 1
            else:
                assert last_tol == factor * max(delta, w_last)
                seen["loose" if last_tol > subtol else "tight"] += 1
            resolve = last_tol > subtol and at_centre
        elif kind == "step4":
            assert not resolve and event[1] == last_tol == subtol
            seen["step4"] += 1
        elif kind == "decrease":
            assert not resolve
            if not event[1]:
                # a reset that moves the next tolerance back to factor * delta
                seen["reset"] += w_last > delta
                w_last = 0.0
        else:
            _, u_norm, w_norm = event
            if max(u_norm, w_norm + r_sub) > delta:
                w_last = w_norm
    assert not resolve
    return seen


def test_subproblem_tolerance_follows_the_last_step(monkeypatch):
    seen = collections.Counter()
    # exact_penalty n = 10 over the unit ball fails a decrease test right
    # after a long step; the ball takes no face polish, which spares the box
    # instance those failures
    configs = [fixture_config(name) for name in FIXTURE_ORDER]
    doc = _perfbench_workloads().exact_penalty_config(1, 10)
    doc["problem"]["set"] = {"kind": "ball", "center": [0.0] * 10, "radius": 1.0}
    configs.append(config_from_dict(doc))
    for cfg in configs:
        ecfg = cfg.epca_config()
        events = _spy_tolerances(monkeypatch)
        trace = run_epca(build_stages(cfg)[1], ecfg)
        monkeypatch.undo()
        counts = _check_tolerance_rule(events, ecfg)
        assert counts["step4"] == sum(e.exit == "step4" for e in trace.entries)
        for e in trace.entries:
            if e.exit == "step5":
                u_norm, w_norm, r_sub = e.certificate
                assert max(u_norm, w_norm + r_sub) <= e.delta
        seen.update(counts)
    # every branch of the rule ran on some instance
    assert min(seen[k] for k in ("loose", "tight", "resolve", "step4", "reset")) > 0, seen


def test_epca_evaluates_the_outer_once_per_point(monkeypatch):
    # exact_penalty takes the dual branch, which calls no h.value, on a bounded
    # box, where the level-boundedness probe calls none either: every call is
    # EPCA's own, one per stage start, two per Step-3 test (x* and its model
    # point), one per extrapolation safeguard and one per Step-4 objective
    cfg = fixture_config("exact_penalty")
    stages = build_stages(cfg)[1]
    calls = []
    for cls in {type(stage.h) for stage in stages}:
        def counted(self, z, _value=cls.value):
            calls.append(z)
            return _value(self, z)
        monkeypatch.setattr(cls, "value", counted)
    run_epca(stages, cfg.epca_config())
    assert len(calls) == 22


def _perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_penalty_n50_certifies_with_few_dual_iterations(tmp_path, monkeypatch):
    # primal-dual splitting needs about 126k subproblem iterations here, so
    # the bound fails if finite-lambda solves fall back to it
    solve, iterations = epca.solve_subproblem, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(epca, "solve_subproblem", counted)
    cfg = config_from_dict(_perfbench_workloads().exact_penalty_config(1, 50))
    assert run_experiment(cfg, output_dir=tmp_path) == 0
    rows = (tmp_path / f"{cfg.output}_trace.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.family["length"] == 6
    assert verify_summary(tmp_path / f"{cfg.output}_summary.json") == 0
    assert sum(iterations) < 20_000


def test_face_polish_certifies_exact_penalty_n200(monkeypatch):
    # The dual solver's points sit within KINK_TOL of the penalty's kinks,
    # not on them, so their model values carry roundoff; without the face
    # polish, stage 5's decrease tests compared it and its inner loop hit the
    # cap of 300 (exit 2). Polished, every stage certifies at the generator's
    # own lambda_bar = 1, and stage 5 fails no decrease test.
    from test_epca import _recomputed_residual
    cfg = config_from_dict(_perfbench_workloads().exact_penalty_config(1, 200))
    ecfg = cfg.epca_config()
    polish, faces = epca._face_polish, []

    def recorded(*args):
        faces.append(polish(*args))
        return faces[-1]

    solve, solves, polished = epca.solve_subproblem, [], []

    def checked(X, h, c, J, x_bar, lam, tol, **kwargs):
        r = solve(X, h, c, J, x_bar, lam, tol, **kwargs)
        solves.append(r)
        if faces[-1] is not None and r.x is faces[-1][0]:
            assert _recomputed_residual(X, h, c, J, x_bar, lam, r) == r.residual <= tol
            # mu of each pinned row lies in [left(k), right(k)]; y_N is a branch's a
            left, right = h._at_kink
            assert np.all((left <= r.y) & (r.y <= right))
            polished.append(r)
        return r

    monkeypatch.setattr(epca, "_face_polish", recorded)
    monkeypatch.setattr(epca, "solve_subproblem", checked)
    events = _spy_tolerances(monkeypatch)
    trace = run_epca(build_stages(cfg)[1], ecfg)
    assert len(trace.entries) == cfg.family["length"] == 6
    for e in trace.entries:
        assert e.residual.combined <= e.delta * (1.0 + ecfg.subproblem_tolerance_factor)
        if e.exit == "step5":
            u_norm, w_norm, r_sub = e.certificate
            assert max(u_norm, w_norm + r_sub) <= e.delta
    assert len(polished) == len(solves) > 0
    starts = [i for i, event in enumerate(events) if event == ("stage",)]
    assert ("decrease", False) not in events[starts[4]:starts[5]]


def test_softplus_goal_n200_certifies_with_few_smooth_iterations(tmp_path, monkeypatch):
    # a count, not a timing: with every subproblem solved to 0.1 delta the
    # smooth solver took 6,371 iterations here
    solve, iterations = epca.solve_subproblem, []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(epca, "solve_subproblem", counted)
    cfg = config_from_dict(_perfbench_workloads().softplus_goal_config(1, 200))
    assert run_experiment(cfg, output_dir=tmp_path) == 0
    rows = (tmp_path / f"{cfg.output}_trace.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.family["length"] == 8
    assert verify_summary(tmp_path / f"{cfg.output}_summary.json") == 0
    assert sum(iterations) < 5_000


#: total EPCA inner iterations of bench_softplus_goal_n50 (seed 1) with the
#: prox centre always at the last accepted x*, before extrapolation
N50_INNER_ITERATIONS_PLAIN = 339


def test_extrapolated_centres_keep_objective_monotone_and_save_iterations():
    cfg = config_from_dict(_perfbench_workloads().softplus_goal_config(1, 50))
    trace = run_epca(build_stages(cfg)[1], cfg.epca_config())
    assert len(trace.entries) == cfg.family["length"]
    for e in trace.entries:
        path = e.objective_path
        for a, b in zip(path, path[1:]):
            assert b <= a + 1e-12 * (1.0 + abs(a)), e.nu
        assert e.residual.combined <= e.delta
    total = sum(e.inner_iterations for e in trace.entries)
    assert total < N50_INNER_ITERATIONS_PLAIN
