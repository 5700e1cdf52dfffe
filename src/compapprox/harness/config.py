"""Experiment configuration: JSON schema, validation, and instantiation.

A configuration declares the actual problem (set, outer function, inner
mapping), the approximation family with its schedule parameters, the solver
settings, and the diagnostics options. Validation collects every error it can
find before raising, so a broken file reports all problems at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..geometry import Ball, Box, HalfspaceIntersection, WholeSpace
from ..inner import (Activation, AffineMapping, MinSmoothMapping,
                     NetworkForwardMapping, QuadraticArrayMapping,
                     SampleAverageMapping)
from ..model import CompositeProblem
from ..outer import (EqualityIndicatorOuter, GoalOuter, InequalityIndicatorOuter,
                     LinearOuter, SquaredErrorOuter, SupportOuter)
from .families import FAMILIES, check_number, is_number

FAMILY_NAMES = tuple(FAMILIES)

SET_KINDS = ("whole", "box", "ball", "halfspaces")
OUTER_VARIANTS = ("goal", "linear", "support", "equality_indicator",
                  "inequality_indicator", "squared_error")
INNER_VARIANTS = ("affine", "quadratic", "min_smooth", "sample_average", "network")


@dataclass
class Diagnostics:
    rho: float = 1.0
    samples: int = 2000
    grid_resolution: float = 1e-3
    probe_tolerance: float = 1e-6


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    problem: dict
    family: dict
    epca: dict
    diagnostics: Diagnostics
    output: str
    description: str = ""
    base_dir: str = "."
    raw: dict = field(default_factory=dict, repr=False)

    # -- instantiation -------------------------------------------------------
    def build_set(self):
        return _build_set(self.problem["set"])

    def build_outer(self):
        return _build_outer(self.problem["outer"])

    def build_inner(self):
        return _build_inner(self.problem["inner"], self.seed, self.base_dir)

    def build_problem(self) -> CompositeProblem:
        return CompositeProblem(self.build_set(), self.build_outer(), self.build_inner())

    def delta_schedule(self):
        fam = self.family
        return tuple(fam["delta0"] * fam.get("delta_decay", 0.5) ** k
                     for k in range(fam["length"]))


def _build_set(spec):
    kind = spec["kind"]
    if kind == "whole":
        return WholeSpace(spec["n"])
    if kind == "box":
        return Box(spec["lower"], spec["upper"])
    if kind == "ball":
        return Ball(spec["center"], spec["radius"])
    return HalfspaceIntersection(spec["normals"], spec["offsets"])


def _build_outer(spec):
    variant = spec["variant"]
    if variant == "goal":
        return GoalOuter(spec["alpha"], spec["tau"])
    if variant == "linear":
        return LinearOuter(spec["p"])
    if variant == "support":
        return SupportOuter(spec["points"])
    if variant == "equality_indicator":
        return EqualityIndicatorOuter(spec["m"], spec.get("first_linear", True))
    if variant == "inequality_indicator":
        return InequalityIndicatorOuter(spec["m"], spec.get("first_linear", True))
    return SquaredErrorOuter(spec["target"], spec.get("weight", 1.0))


def _build_inner(spec, seed, base_dir="."):
    variant = spec["variant"]
    if variant == "affine":
        return AffineMapping(spec["A"], spec["b"])
    if variant == "quadratic":
        return QuadraticArrayMapping([(c["Q"], c["q"], c["c"]) for c in spec["components"]])
    if variant == "min_smooth":
        comps = [[(p["Q"], p["q"], p["c"]) for p in comp] for comp in spec["components"]]
        return MinSmoothMapping(comps, spec.get("theta"))
    if variant == "sample_average":
        return SampleAverageMapping(spec["A0"], spec["b0"], spec["A1"], spec["b1"],
                                    dist=tuple(spec.get("dist", ["two_point"])),
                                    count=spec.get("count", 1), seed=seed)
    if "file" in spec:
        import pathlib
        path = pathlib.Path(spec["file"])
        if not path.is_absolute():
            path = pathlib.Path(base_dir) / path
        nets, act = load_network_model(path)
        return NetworkForwardMapping(nets, act)
    nets = [(net["weights"], net["biases"]) for net in spec["networks"]]
    act = spec.get("activation", {"kind": "relu"})
    return NetworkForwardMapping(nets, Activation(act["kind"], act.get("theta")))


def load_network_model(path):
    """Read network weights from the JSON model format.

    Schema: {"networks": [{"layers": [{"weights": [[...]], "bias": [...],
    "shape": [out, in]}, ...]}, ...], "activation": {"kind": ..., "theta": ...}}
    with row-major nested weight arrays and explicit shape fields.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    nets = []
    for net in doc["networks"]:
        weights, biases = [], []
        for layer in net["layers"]:
            W = np.asarray(layer["weights"], dtype=float)
            if "shape" in layer and tuple(layer["shape"]) != W.shape:
                raise ConfigError([f"layer shape field {layer['shape']} does not match "
                                   f"weights of shape {list(W.shape)}"])
            weights.append(W)
            biases.append(np.asarray(layer["bias"], dtype=float))
        nets.append((weights, biases))
    act = doc.get("activation", {"kind": "relu"})
    return nets, Activation(act["kind"], act.get("theta"))


# ---------------------------------------------------------------------------
# validation


def _vec(doc, key, errors, ctx):
    v = doc.get(key)
    if not isinstance(v, list) or not all(isinstance(t, (int, float)) for t in v):
        errors.append(f"{ctx}: {key} must be a numeric list")
        return None
    return v


def _validate_problem(problem, errors, outer_dim_offset=0, base_dir="."):
    if not isinstance(problem, dict):
        errors.append("problem: must be an object")
        return None, None
    sspec = problem.get("set", {})
    kind = sspec.get("kind")
    n = None
    if kind not in SET_KINDS:
        errors.append(f"problem.set: unknown kind {kind!r} (expected one of {SET_KINDS})")
    elif kind == "whole":
        n = sspec.get("n") if isinstance(sspec.get("n"), int) and sspec.get("n", 0) > 0 else None
        if n is None:
            errors.append("problem.set: whole-space needs a positive integer n")
    elif kind == "box":
        lo = _vec(sspec, "lower", errors, "problem.set")
        hi = _vec(sspec, "upper", errors, "problem.set")
        if lo is not None and hi is not None:
            if len(lo) != len(hi):
                errors.append("problem.set: lower/upper lengths differ")
            elif any(a > b for a, b in zip(lo, hi)):
                errors.append("problem.set: empty box (lower > upper)")
            else:
                n = len(lo)
    elif kind == "ball":
        c = _vec(sspec, "center", errors, "problem.set")
        if not isinstance(sspec.get("radius"), (int, float)) or sspec.get("radius", -1) < 0:
            errors.append("problem.set: ball needs radius >= 0")
        if c is not None:
            n = len(c)
    else:
        if "normals" not in sspec or "offsets" not in sspec:
            errors.append("problem.set: halfspaces need normals and offsets")
        else:
            n = len(sspec["normals"][0]) if sspec["normals"] else None

    ispec = problem.get("inner", {})
    m = None
    ivar = ispec.get("variant")
    if ivar not in INNER_VARIANTS:
        errors.append(f"problem.inner: unknown variant {ivar!r}")
    else:
        try:
            F = _build_inner(ispec, seed=0, base_dir=base_dir)
            m = F.m
            if n is not None and F.n != n:
                errors.append(f"problem.inner: maps dimension {F.n}, but the set has dimension {n}")
        except (KeyError, ValueError, TypeError, OSError, ConfigError) as exc:
            errors.append(f"problem.inner: {exc}")

    ospec = problem.get("outer", {})
    ovar = ospec.get("variant")
    if ovar not in OUTER_VARIANTS:
        errors.append(f"problem.outer: unknown variant {ovar!r}")
    else:
        try:
            h = _build_outer(ospec)
            expected = None if m is None else m - outer_dim_offset
            if expected is not None and h.m != expected:
                errors.append(f"problem.outer: dimension {h.m} does not match the "
                              f"inner mapping's {expected} relevant components")
        except (KeyError, ValueError, TypeError) as exc:
            errors.append(f"problem.outer: {exc}")
    return n, m


def _validate_family(family, entry, problem, errors):
    if not isinstance(family, dict):
        errors.append("family: must be an object")
        return
    length = family.get("length")
    if not isinstance(length, int) or isinstance(length, bool) or length < 1:
        errors.append("family: length must be a positive integer")
    check_number(family, "delta0", errors, "family", 0)
    check_number(family, "delta_decay", errors, "family", 0, 1, default=0.5)
    if entry is None:
        errors.append(f"family: unknown name {family.get('name')!r} "
                      f"(expected one of {FAMILY_NAMES})")
    else:
        entry.validate(family, problem, errors)


def _family_entry(family):
    name = family.get("name") if isinstance(family, dict) else None
    return FAMILIES.get(name) if isinstance(name, str) else None


def _validate_epca(epca, n, errors):
    if not isinstance(epca, dict):
        errors.append("epca: must be an object")
        return
    x0 = epca.get("x0")
    if not isinstance(x0, list):
        errors.append("epca: x0 must be a numeric list")
    elif n is not None and len(x0) != n:
        errors.append(f"epca: x0 has length {len(x0)}, problem dimension is {n}")
    elif not all(is_number(v) for v in x0):
        errors.append("epca: x0 entries must be finite numbers")
    check_number(epca, "tau", errors, "epca", 1)
    check_number(epca, "sigma", errors, "epca", 0, 1)
    check_number(epca, "lambda_bar", errors, "epca", 0)
    check_number(epca, "subproblem_tolerance_factor", errors, "epca", 0, 1, default=0.1)
    lam_bar, lam0 = epca.get("lambda_bar"), epca.get("lambda0")
    if not (is_number(lam0) and lam0 > 0
            and (not is_number(lam_bar) or lam_bar <= 0 or lam0 <= lam_bar)):
        errors.append("epca: lambda0 must lie in (0, lambda_bar]")


def validate_config(doc, base_dir=".") -> list:
    """Return the list of all validation errors (empty when valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["configuration root must be a JSON object"]
    for key in ("name", "problem", "family", "epca", "output"):
        if key not in doc:
            errors.append(f"missing required field {key!r}")
    if "name" in doc and not isinstance(doc["name"], str):
        errors.append("name must be a string")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        errors.append("seed must be an integer")
    n = m = None
    entry = _family_entry(doc.get("family"))
    if "problem" in doc:
        offset = entry.outer_dim_offset if entry is not None else 0
        n, m = _validate_problem(doc["problem"], errors, outer_dim_offset=offset,
                                 base_dir=base_dir)
    if "family" in doc:
        _validate_family(doc["family"], entry, doc.get("problem"), errors)
    if "epca" in doc:
        _validate_epca(doc["epca"], n, errors)
    diag = doc.get("diagnostics", {})
    if not isinstance(diag, dict):
        errors.append("diagnostics: must be an object")
        return errors
    rho = diag.get("rho", 1.0)
    if not isinstance(rho, (int, float)) or rho <= 0:
        errors.append("diagnostics: rho must be positive")
    samples = diag.get("samples", 2000)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 1:
        errors.append("diagnostics: samples must be an integer >= 1")
    return errors


def config_from_dict(doc, source="<dict>", base_dir=".") -> ExperimentConfig:
    errors = validate_config(doc, base_dir=base_dir)
    if errors:
        raise ConfigError([f"{source}: {e}" for e in errors])
    diag = doc.get("diagnostics", {})
    return ExperimentConfig(
        name=doc["name"],
        seed=doc.get("seed", 0),
        problem=doc["problem"],
        family=doc["family"],
        epca=doc["epca"],
        diagnostics=Diagnostics(
            rho=diag.get("rho", 1.0),
            samples=diag.get("samples", 2000),
            grid_resolution=diag.get("grid_resolution", 1e-3),
            probe_tolerance=diag.get("probe_tolerance", 1e-6),
        ),
        output=doc["output"],
        description=doc.get("description", ""),
        base_dir=base_dir,
        raw=doc,
    )


def load_config(path) -> ExperimentConfig:
    """Load and fully validate a configuration file."""
    import pathlib
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"{path}: file not found"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    return config_from_dict(doc, source=str(path),
                            base_dir=str(pathlib.Path(path).parent))
