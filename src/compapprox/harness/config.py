"""Experiment configuration: JSON schema, validation, and instantiation.

A configuration declares the actual problem (X, h, F), the approximation
family with its schedule parameters, the solver settings and the diagnostics
options. Each part of the problem names its constructor by ``kind`` (the set)
or ``variant`` (the outer function and the inner mapping) in one table per
part: ``SETS``, ``OUTERS`` and ``INNERS``. Validation builds each part once,
with the config's own seed, so the constructors' own checks are the schema;
the built parts are kept on the config as ``X``, ``h`` and ``F`` and the run
uses them. Validation collects every error it can find before raising, so a
broken file reports all problems at once.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from ..epca import EpcaConfig
from ..errors import ConfigError
from ..geometry import Ball, Box, ClosedSet, WholeSpace
from ..inner import (Activation, AffineMapping, InnerMapping, MinSmoothMapping,
                     NetworkForwardMapping, QuadraticArrayMapping,
                     SampleAverageMapping)
from ..outer import (EqualityIndicatorOuter, GoalOuter, InequalityIndicatorOuter,
                     LinearOuter, OuterFunction, SquaredErrorOuter, SupportOuter)
from .families import (FAMILIES, check_count, check_number, check_schedule, geometric,
                       is_number)

FAMILY_NAMES = tuple(FAMILIES)

#: family.delta_decay when the config leaves it out
DELTA_DECAY = 0.5
#: epca settings a config may leave out, with EpcaConfig's defaults
EPCA_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EpcaConfig)
                 if f.name in ("inner_iteration_cap", "subproblem_tolerance_factor")}


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
    X: ClosedSet
    h: OuterFunction
    F: InnerMapping
    raw: dict = field(default_factory=dict, repr=False)

    def delta_schedule(self):
        return tuple(geometric(self.family, "delta0", "delta_decay", DELTA_DECAY))

    def epca_config(self) -> EpcaConfig:
        e = self.epca
        return EpcaConfig(x0=np.asarray(e["x0"], dtype=float), tau=e["tau"],
                          sigma=e["sigma"], lam_bar=e["lambda_bar"], lam0=e["lambda0"],
                          delta_schedule=self.delta_schedule(),
                          **{key: e.get(key, value) for key, value in EPCA_DEFAULTS.items()})


def _network(spec, seed, base_dir):
    if "file" in spec:
        path = pathlib.Path(spec["file"])
        nets, act = load_network_model(path if path.is_absolute()
                                       else pathlib.Path(base_dir) / path)
        return NetworkForwardMapping(nets, act)
    nets = [(net["weights"], net["biases"]) for net in spec["networks"]]
    act = spec.get("activation", {"kind": "relu"})
    return NetworkForwardMapping(nets, Activation(act["kind"], act.get("theta")))


def _quadratics(pieces):
    return [(p["Q"], p["q"], p["c"]) for p in pieces]


# One table per part of the problem: kind or variant -> constructor call.
SETS = {
    "whole": lambda s: WholeSpace(s["n"]),
    "box": lambda s: Box(s["lower"], s["upper"]),
    "ball": lambda s: Ball(s["center"], s["radius"]),
}
OUTERS = {
    "goal": lambda s: GoalOuter(s["alpha"], s["tau"]),
    "linear": lambda s: LinearOuter(s["p"]),
    "support": lambda s: SupportOuter(s["points"]),
    "equality_indicator":
        lambda s: EqualityIndicatorOuter(s["m"], s.get("first_linear", True)),
    "inequality_indicator":
        lambda s: InequalityIndicatorOuter(s["m"], s.get("first_linear", True)),
    "squared_error": lambda s: SquaredErrorOuter(s["target"], s.get("weight", 1.0)),
}
INNERS = {
    "affine": lambda s, seed, base_dir: AffineMapping(s["A"], s["b"]),
    "quadratic": lambda s, seed, base_dir: QuadraticArrayMapping(
        _quadratics(s["components"])),
    "min_smooth": lambda s, seed, base_dir: MinSmoothMapping(
        [_quadratics(comp) for comp in s["components"]], s.get("theta")),
    "sample_average": lambda s, seed, base_dir: SampleAverageMapping(
        s["A0"], s["b0"], s["A1"], s["b1"], dist=s.get("dist", ["two_point"]),
        count=s.get("count", 1), seed=seed),
    "network": _network,
}


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


def _build_part(problem, part, key, table, errors, *args):
    """Build problem[part] from its table entry; on failure append an error."""
    spec = problem.get(part)
    if not isinstance(spec, dict):
        errors.append(f"problem.{part}: must be an object")
        return None
    name = spec.get(key)
    if not isinstance(name, str) or name not in table:
        errors.append(f"problem.{part}: unknown {key} {name!r} "
                      f"(expected one of {tuple(table)})")
        return None
    try:
        return table[name](spec, *args)
    except (LookupError, ValueError, TypeError, OSError) as exc:
        errors.append(f"problem.{part}: {exc}")
        return None


def _validate_problem(problem, errors, outer_dim_offset, seed, base_dir):
    """The built (X, h, F), None for each part that failed to build."""
    if not isinstance(problem, dict):
        errors.append("problem: must be an object")
        return None, None, None
    X = _build_part(problem, "set", "kind", SETS, errors)
    h = _build_part(problem, "outer", "variant", OUTERS, errors)
    F = _build_part(problem, "inner", "variant", INNERS, errors, seed, base_dir)
    if X is not None and F is not None and F.n != X.n:
        errors.append(f"problem.inner: maps dimension {F.n}, "
                      f"but the set has dimension {X.n}")
    if h is not None and F is not None and h.m != F.m - outer_dim_offset:
        errors.append(f"problem.outer: dimension {h.m} does not match the "
                      f"inner mapping's {F.m - outer_dim_offset} relevant components")
    return X, h, F


def _validate_family(family, entry, problem, built, errors):
    if not isinstance(family, dict):
        errors.append("family: must be an object")
        return
    check_count(family, "length", errors, "family")
    check_number(family, "delta0", errors, "family", 0)
    check_number(family, "delta_decay", errors, "family", 0, 1, default=DELTA_DECAY)
    check_schedule(family, "delta0", "delta_decay", errors, "family", default=DELTA_DECAY)
    if entry is None:
        errors.append(f"family: unknown name {family.get('name')!r} "
                      f"(expected one of {FAMILY_NAMES})")
    else:
        entry.validate(family, problem, built, errors)


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
    check_number(epca, "subproblem_tolerance_factor", errors, "epca", 0, 1,
                 default=EPCA_DEFAULTS["subproblem_tolerance_factor"])
    check_count(epca, "inner_iteration_cap", errors, "epca",
                default=EPCA_DEFAULTS["inner_iteration_cap"])
    lam_bar, lam0 = epca.get("lambda_bar"), epca.get("lambda0")
    if not (is_number(lam0) and lam0 > 0
            and (not is_number(lam_bar) or lam_bar <= 0 or lam0 <= lam_bar)):
        errors.append("epca: lambda0 must lie in (0, lambda_bar]")


def _validate_diagnostics(diag, errors):
    if not isinstance(diag, dict):
        errors.append("diagnostics: must be an object")
        return None
    given = {f.name: diag[f.name] for f in dataclasses.fields(Diagnostics)
             if f.name in diag}
    diagnostics = Diagnostics(**given)
    fields = vars(diagnostics)
    check_count(fields, "samples", errors, "diagnostics")
    for key in ("rho", "grid_resolution", "probe_tolerance"):
        check_number(fields, key, errors, "diagnostics", 0)
    return diagnostics


def _validate(doc, base_dir):
    """(errors, built): every validation error, and the parts built on the way."""
    if not isinstance(doc, dict):
        return ["configuration root must be a JSON object"], {}
    errors = []
    for key in ("name", "problem", "family", "epca", "output"):
        if key not in doc:
            errors.append(f"missing required field {key!r}")
    for key in ("name", "output"):
        if key in doc and not isinstance(doc[key], str):
            errors.append(f"{key} must be a string")
    if isinstance(doc.get("output"), str):
        # a prefix below the output directory: no escape, and a file name to extend
        path = pathlib.PurePath(doc["output"])
        if not path.name or path.is_absolute() or ".." in path.parts:
            errors.append("output must be a relative path prefix ending in a file "
                          "name, with no '..' component")
    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed must be an integer")
        seed = 0
    X = h = F = None
    entry = _family_entry(doc.get("family"))
    if "problem" in doc:
        offset = entry.outer_dim_offset if entry is not None else 0
        X, h, F = _validate_problem(doc["problem"], errors, offset, seed, base_dir)
    diagnostics = _validate_diagnostics(doc.get("diagnostics", {}), errors)
    built = {"X": X, "h": h, "F": F, "diagnostics": diagnostics}
    if "family" in doc:
        _validate_family(doc["family"], entry, doc.get("problem"), built, errors)
    if "epca" in doc:
        _validate_epca(doc["epca"], None if X is None else X.n, errors)
    return errors, built


def validate_config(doc, base_dir=".") -> list:
    """Return the list of all validation errors (empty when valid)."""
    return _validate(doc, base_dir)[0]


def config_from_dict(doc, source="<dict>", base_dir=".") -> ExperimentConfig:
    errors, built = _validate(doc, base_dir)
    if errors:
        raise ConfigError([f"{source}: {e}" for e in errors])
    return ExperimentConfig(
        name=doc["name"],
        seed=doc.get("seed", 0),
        problem=doc["problem"],
        family=doc["family"],
        epca=doc["epca"],
        output=doc["output"],
        raw=doc,
        **built,
    )


def load_config(path) -> ExperimentConfig:
    """Load and fully validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"{path}: file not found"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    return config_from_dict(doc, source=str(path),
                            base_dir=str(pathlib.Path(path).parent))
