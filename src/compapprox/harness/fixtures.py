"""Bundled reproduction suites.

Eleven experiment configurations covering every approximation family in the
catalogue. Each is defined only by its JSON file in ``fixtures/`` next to this
module and loads through the ordinary config loader, so the bundled suites
double as schema examples.

network_inverse: weights drawn from stream(20260811, "fixture", "network-inverse")
rounded to 4 decimals; target = the relu net at x = (0.7, -0.4), so optimum 0.
"""

from __future__ import annotations

import importlib.resources
import json

from .config import ExperimentConfig, load_config

FIXTURE_ORDER = ("goal_softplus", "aug_lagrangian", "quad_penalty", "exact_penalty",
                 "log_barrier", "homotopy", "distributionally_robust", "min_smoothing",
                 "sample_average", "network_inverse", "convex_sanity")


def _resource(name):
    return importlib.resources.files("compapprox.harness") / "fixtures" / f"{name}.json"


def fixture_document(name: str) -> dict:
    """The bundled JSON document of a fixture, freshly parsed."""
    return json.loads(_resource(name).read_text(encoding="utf-8"))


def list_fixtures():
    """(name, one-line description) pairs for every bundled suite."""
    return [(name, fixture_document(name)["description"]) for name in FIXTURE_ORDER]


def fixture_config(name: str) -> ExperimentConfig:
    """Load a bundled fixture through the ordinary config loader."""
    with importlib.resources.as_file(_resource(name)) as path:
        return load_config(path)


def fixture_path(name: str):
    with importlib.resources.as_file(_resource(name)) as path:
        return path
