"""Workload definitions: the instances each benchmark workload runs.

An instance is a (name, config document) pair. Bundled fixtures carry no
document (``None``) and are loaded with ``fixture_config``; synthetic
instances are plain JSON documents generated from named ``rng.stream``s of
the benchmark seed and loaded with ``config_from_dict``, the same path a user
config takes.

Synthetic names all start with ``bench_``, so they never select a fixture's
assertion builder in the runner, which is keyed by config name.
"""

from __future__ import annotations

import numpy as np

from compapprox.harness.fixtures import FIXTURE_ORDER
from compapprox.rng import stream

WORKLOADS = ("fixtures", "solver_scaled", "network_scaled")
# the reference kernel (run.py) whose work is closest to the workload's own:
# scalar outer/inner calls in the diagnostics, or matrix-vector products
REFERENCE_KERNEL = {"fixtures": "python", "solver_scaled": "blas",
                    "network_scaled": "python"}
SYNTHETIC_PREFIX = "bench_"

# (family, n) pairs of the scaled solver tier; exact_penalty uses m = n/2 + 1.
# Left out on cost: exact_penalty n = 50 and n = 200 (see NOTES.md).
SOLVER_INSTANCES = (("softplus_goal", 10), ("softplus_goal", 50),
                    ("softplus_goal", 200), ("exact_penalty", 10),
                    ("exact_penalty", 20))
# layer widths of the relu nets inverted by network_scaled
NETWORK_WIDTHS = ((2, 64, 64, 2), (3, 128, 128, 3), (4, 128, 128, 4))

_EPCA = {"tau": 2.0, "sigma": 0.5, "lambda0": 1.0, "inner_iteration_cap": 300,
         "subproblem_tolerance_factor": 0.1}

# Each synthetic instance is a fixed base problem, drawn once from BASE_SEED,
# seen through a symmetry drawn from the benchmark seed: sign flips of the
# coordinates of x (the box [-1, 1]^n is invariant under them), of the
# equality rows, and for networks permutations of the hidden units. Sign
# flips are exact in floating point, so every seed gives other inputs but the
# same arithmetic and the same work. Instances drawn afresh per seed differ in
# cost by up to 15x (see NOTES.md), which no run-to-run bound could absorb.
BASE_SEED = 7


def _box(n):
    return {"kind": "box", "lower": [-1.0] * n, "upper": [1.0] * n}


def _affine(A, b):
    return {"variant": "affine", "A": A.tolist(), "b": b.tolist()}


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def softplus_goal_config(seed, n):
    """Goal programme min sum_i alpha_i max{0, a_i.x + b_i - tau_i} over [-1, 1]^n."""
    base = stream(BASE_SEED, "perfbench", "softplus_goal", str(n))
    m = n
    A = base.normal(size=(m, n)) / n ** 0.5
    b = base.normal(scale=0.5, size=m)
    tau = base.uniform(-0.5, 0.5, size=m)
    alpha = base.uniform(0.5, 1.5, size=m)
    x0 = base.uniform(-0.5, 0.5, size=n)
    sym = stream(seed, "perfbench", "softplus_goal", str(n))
    signs = _signs(sym, n)
    name = f"{SYNTHETIC_PREFIX}softplus_goal_n{n}"
    return {
        "name": name, "output": name, "seed": seed,
        "problem": {"set": _box(n),
                    "outer": {"variant": "goal", "alpha": alpha.tolist(),
                              "tau": tau.tolist()},
                    "inner": _affine(A * signs, b)},
        "family": {"name": "softplus_goal", "length": 8, "theta0": 2.0,
                   "theta_growth": 2.0, "delta0": 1e-4, "delta_decay": 0.5},
        "epca": dict(_EPCA, x0=(x0 * signs).tolist(), lambda_bar=100.0),
        "diagnostics": {},
    }


def exact_penalty_config(seed, n):
    """LP min c.x s.t. E x = E x_feas over [-1, 1]^n; F stacks (c, E), m = n/2 + 1."""
    base = stream(BASE_SEED, "perfbench", "exact_penalty", str(n))
    k = n // 2
    c = base.normal(size=n) / n ** 0.5
    E = base.normal(size=(k, n)) / n ** 0.5
    x_feas = base.uniform(-0.5, 0.5, size=n)
    x0 = base.uniform(-0.5, 0.5, size=n)
    sym = stream(seed, "perfbench", "exact_penalty", str(n))
    signs = _signs(sym, n)
    rows = np.concatenate([[1.0], _signs(sym, k)])
    A = rows[:, None] * np.vstack([c, E]) * signs
    b = rows * np.concatenate([[0.0], -(E @ x_feas)])
    name = f"{SYNTHETIC_PREFIX}exact_penalty_n{n}"
    return {
        "name": name, "output": name, "seed": seed,
        "problem": {"set": _box(n),
                    "outer": {"variant": "equality_indicator", "m": k + 1},
                    "inner": _affine(A, b)},
        "family": {"name": "exact_penalty", "length": 6, "theta0": 1.0,
                   "theta_growth": 2.0, "delta0": 1e-3, "delta_decay": 0.5},
        "epca": dict(_EPCA, x0=(x0 * signs).tolist(), lambda_bar=1.0),
        "diagnostics": {},
    }


def network_config(seed, widths):
    """Invert a relu net: match net(x_true) over [-1, 1]^d, x_true in [-0.5, 0.5]^d."""
    label = "-".join(str(w) for w in widths)
    base = stream(BASE_SEED, "perfbench", "network", label)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(base.normal(scale=(2.0 / fan_in) ** 0.5, size=(fan_out, fan_in)))
        biases.append(base.normal(scale=0.1, size=fan_out))
    x_true = base.uniform(-0.5, 0.5, size=widths[0])
    target = x_true
    for W, bias in zip(weights, biases):
        target = np.maximum(W @ target + bias, 0.0)
    sym = stream(seed, "perfbench", "network", label)
    weights[0] = weights[0] * _signs(sym, widths[0])
    for k, width in enumerate(widths[1:-1]):
        units = sym.permutation(width)
        weights[k], biases[k] = weights[k][units], biases[k][units]
        weights[k + 1] = weights[k + 1][:, units]
    d = widths[0]
    name = f"{SYNTHETIC_PREFIX}network_{label}"
    return {
        "name": name, "output": name, "seed": seed,
        "problem": {"set": _box(d),
                    "outer": {"variant": "squared_error", "target": target.tolist(),
                              "weight": 1.0},
                    "inner": {"variant": "network",
                              "networks": [{"weights": [W.tolist() for W in weights],
                                            "biases": [bb.tolist() for bb in biases]}],
                              "activation": {"kind": "relu"}}},
        "family": {"name": "network_softplus", "length": 10, "theta0": 4.0,
                   "theta_growth": 2.0, "delta0": 1e-2, "delta_decay": 0.5},
        "epca": dict(_EPCA, x0=[0.0] * d, lambda_bar=1.0),
        "diagnostics": {},
    }


def instances(workload, seed):
    """[(name, doc or None), ...] for the workload at this seed."""
    if workload == "fixtures":
        return [(name, None) for name in FIXTURE_ORDER]
    if workload == "solver_scaled":
        make = {"softplus_goal": softplus_goal_config,
                "exact_penalty": exact_penalty_config}
        docs = [make[family](seed, n) for family, n in SOLVER_INSTANCES]
    elif workload == "network_scaled":
        docs = [network_config(seed, widths) for widths in NETWORK_WIDTHS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(doc["name"], doc) for doc in docs]
