import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import compapprox
from compapprox import consistency
from compapprox.consistency import (_graph_distances, _graph_nearest_1d, _halton_unit,
                                    _sample_product_arrays,
                                    epi_probe, estimate_eta, fit_loglog_slope,
                                    graph_excess_measured,
                                    graph_excess_separable,
                                    homotopy_graph_excess, low_discrepancy_points,
                                    near_solution_transfer,
                                    solution_error_bound,
                                    support_set_excess, uniform_outer_gap)
from compapprox.errors import CapabilityError
from compapprox.geometry import Box, WholeSpace
from compapprox.harness.config import config_from_dict
from compapprox.harness.families import FAMILIES, build_stages
from compapprox.harness.fixtures import fixture_config, fixture_document
from compapprox.inner import (Activation, AffineMapping, MinSmoothMapping,
                              NetworkForwardMapping, QuadraticArrayMapping)
from compapprox.model import CompositeProblem, StationarityTriple
from compapprox.outer import (AugLagrangianOuter, EqualityIndicatorOuter,
                              ExactPenaltyOuter, GoalOuter,
                              InequalityIndicatorOuter, LinearOuter,
                              QuadPenaltyOuter, SoftplusGoalOuter,
                              SquaredErrorOuter, SupportOuter, clip_graph, softplus)
from compapprox.rng import stream


# ---------------------------------------------------------------------------
# graph excesses


def test_aug_lagrangian_excess_example():
    rep = graph_excess_separable(AugLagrangianOuter([0.0], 10.0),
                                 EqualityIndicatorOuter(2), 1.0)
    assert rep.certified_upper == pytest.approx(0.2)
    assert rep.paper_bound == pytest.approx(0.2)
    # the true excess is sqrt(3)/10: |v_2| <= sqrt((2rho)^2 - 1) on the graph
    assert rep.measured_lower == pytest.approx(math.sqrt(3.0) / 10.0, abs=2e-3)
    assert rep.measured_lower <= rep.certified_upper + 1e-10


def test_exact_penalty_excess_zero_iff_theta_ge_two_rho():
    rep = graph_excess_separable(ExactPenaltyOuter(5.0, 2),
                                 EqualityIndicatorOuter(2), 2.0)
    assert rep.measured_lower == 0.0 and rep.certified_upper == 0.0
    rep = graph_excess_separable(ExactPenaltyOuter(1.0, 2),
                                 EqualityIndicatorOuter(2), 2.0)
    assert rep.measured_lower > 0.5
    assert rep.certified_upper <= 4.0 + 1e-12


def test_identical_pair_zero_excess():
    h = GoalOuter([1.0], [0.0])
    rep = graph_excess_separable(h, GoalOuter([1.0], [0.0]), 1.0)
    assert rep.measured_lower == 0.0 and rep.certified_upper == 0.0


def test_quad_penalty_excess_rate():
    uppers = []
    thetas = [10.0, 100.0, 1000.0]
    for th in thetas:
        rep = graph_excess_separable(QuadPenaltyOuter(th, 2),
                                     InequalityIndicatorOuter(2), 1.0)
        assert rep.measured_lower <= rep.certified_upper + 1e-10
        uppers.append(rep.certified_upper)
    assert fit_loglog_slope(thetas, uppers) == pytest.approx(-1.0, abs=0.05)


def test_unsupported_pair_raises():
    with pytest.raises(CapabilityError):
        graph_excess_separable(GoalOuter([1.0], [0.0]), LinearOuter([1.0]), 1.0)
    with pytest.raises(CapabilityError):
        graph_excess_separable(SupportOuter([[1.0, 0.0], [0.0, 1.0]]),
                               SupportOuter([[1.0, 0.0], [0.0, 1.0]]), 1.0)


def test_excess_monotone_in_rho():
    # v_1 = 1 on the linear coordinate: at rho = 0.25 the graph misses the
    # 2 rho window, so the excess is 0; at rho = 0.5 no sample lands in it,
    # so nothing is measured
    measured = [graph_excess_separable(AugLagrangianOuter([0.0], 10.0),
                                       EqualityIndicatorOuter(2), rho).measured_lower
                for rho in (0.25, 0.5, 1.0, 2.0)]
    assert measured[0] == 0.0 and math.isnan(measured[1])
    assert 0.0 < measured[2] <= measured[3]


def test_truncated_hausdorff_dominates_one_sided():
    a = ExactPenaltyOuter(1.0, 2)
    b = EqualityIndicatorOuter(2)
    e_ab = graph_excess_measured(a, b, 1.0)
    e_ba = graph_excess_measured(b, a, 1.0)
    dl = max(e_ab, e_ba)
    assert dl >= e_ab and dl >= e_ba


def test_homotopy_excess_hand_example():
    rep = homotopy_graph_excess(LinearOuter([1.0]), 0.1, 1.0)
    assert rep.measured_lower == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-9)
    assert rep.certified_upper == pytest.approx(0.1 * math.sqrt(2.0), abs=1e-12)
    beta = math.sqrt(1.0 + (4.0 - 0.01) / 0.81)
    assert rep.paper_bound == pytest.approx(beta * 0.1)


def test_homotopy_excess_vanishes_with_lambda():
    values = []
    for lam in (0.5, 0.1, 0.01):
        rep = homotopy_graph_excess(LinearOuter([1.0]), lam, 1.0)
        assert rep.measured_lower <= rep.paper_bound + 1e-10
        values.append(rep.measured_lower)
    assert values[0] > values[1] > values[2]
    rep = homotopy_graph_excess(LinearOuter([1.0]), 0.0, 1.0)
    assert rep.measured_lower == 0.0 and rep.certified_upper == 0.0


def test_homotopy_excess_over_staircase_base():
    # goal base: the scaled staircase must stay within the certified bound
    base = GoalOuter([1.0], [0.0])
    for lam in (0.4, 0.05):
        rep = homotopy_graph_excess(base, lam, 1.0)
        assert rep.measured_lower <= rep.certified_upper + 1e-10
        assert rep.certified_upper <= rep.paper_bound + 1e-9


def test_homotopy_requires_rho_ge_half_lambda():
    with pytest.raises(ValueError):
        homotopy_graph_excess(LinearOuter([1.0]), 0.5, 0.2)


def test_sampling_includes_breakpoints():
    g = GoalOuter([1.0], [0.5]).graph_1d(0)
    Z, V = _sample_product_arrays([g], 2.0, 50)
    assert any(z[0] == 0.5 and v[0] in (0.0, 1.0) for z, v in zip(Z, V))


# ---------------------------------------------------------------------------
# support sets


def test_support_set_excess_examples():
    A = [[1.0, 0.0], [0.0, 1.0]]
    assert support_set_excess(A, A) == 0.0
    assert support_set_excess([[1.0, 0.0]], [[0.9, 0.1]]) == pytest.approx(
        math.sqrt(0.02))
    assert support_set_excess(A, [[1.0, 0.0]]) == pytest.approx(math.sqrt(2.0))


def test_probability_vector_perturbation_gap_and_probe():
    # stochastic-optimization style: h^nu(z) = <p_nu, z> with p_nu -> p
    p = np.array([0.3, 0.7])
    perturbations = [np.array([0.3 + d, 0.7 - d]) for d in (0.1, 0.01, 0.001)]
    actual = LinearOuter(p)
    for p_nu in perturbations:
        gap = uniform_outer_gap(LinearOuter(p_nu), actual, 2.0, samples=500)
        assert gap <= np.linalg.norm(p_nu - p) * 2.0 + 1e-12
    fams = [(lambda z, q=q: float(q @ z)) for q in perturbations]
    report = epi_probe(fams, actual.value, [np.array([1.0, -2.0])], tol=1e-2,
                       tail=1)
    assert report.passed


def test_support_gap_bounded_by_rho_alpha():
    A = SupportOuter([[1.0, 0.0], [0.0, 1.0]])
    Ap = SupportOuter([[0.95, 0.05], [0.05, 0.95]])
    alpha = support_set_excess(A.points, Ap.points)
    gap = uniform_outer_gap(A, Ap, 1.0, samples=3000)
    assert gap <= 1.0 * alpha + 1e-12


# ---------------------------------------------------------------------------
# eta estimates


def test_eta_identical_mappings():
    F = AffineMapping([[1.0]], [0.0])
    rep = estimate_eta(F, AffineMapping([[1.0]], [0.0]), WholeSpace(1), 2.0)
    assert rep.eta0 == 0.0 and rep.eta == 0.0


def test_eta_constant_offset():
    F = AffineMapping([[1.0], [0.0]], [0.0, 0.0])
    G = AffineMapping([[1.0], [0.0]], [0.3, -0.4])
    rep = estimate_eta(F, G, WholeSpace(1), 2.0)
    assert rep.eta0 == pytest.approx(0.5)


def test_eta_min_smoothing_bound():
    Z = np.zeros((1, 1))
    exact = MinSmoothMapping([[(Z, np.array([1.0]), 0.0),
                               (Z, np.array([-1.0]), 0.0)]], None)
    smooth = exact.with_theta(10.0)
    rep = estimate_eta(smooth, exact, WholeSpace(1), 5.0, samples=2000)
    assert rep.eta0_certified == pytest.approx(math.log(2.0) / 10.0)
    assert rep.eta0 <= rep.eta0_certified + 1e-12
    # the tie point x = 0 attains the bound; Halton hits dyadic points exactly
    assert rep.eta0 == pytest.approx(math.log(2.0) / 10.0, rel=1e-6)


def test_eta_requires_ball_intersection():
    with pytest.raises(ValueError):
        estimate_eta(AffineMapping([[1.0]], [0.0]), AffineMapping([[1.0]], [0.0]),
                     Box([10.0], [11.0]), 1.0)


def test_solution_error_bound_examples():
    assert solution_error_bound(0.0, 0.0, 0.0, 1.0, 3) == 0.0
    assert solution_error_bound(0.1, 0.0, 0.2, 1.0, 3) == pytest.approx(0.3)
    assert solution_error_bound(0.0, 1.0, 0.0, 2.0, 4) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        solution_error_bound(-0.1, 0.0, 0.0, 1.0, 1)


# ---------------------------------------------------------------------------
# epi probes


def test_epi_probe_softplus_family():
    alphas, taus = np.array([1.0]), np.array([0.0])
    actual = GoalOuter(alphas, taus)
    thetas = [2.0**k for k in range(1, 25)]
    fams = [(lambda z, th=th: SoftplusGoalOuter(alphas, taus, th).value(z))
            for th in thetas]
    points = [np.array([0.0]), np.array([1.0]), np.array([-2.0])]
    report = epi_probe(fams, actual.value, points, tol=1e-6)
    assert report.passed
    for row in report.rows:
        assert row.liminf_deficit <= 1e-6 and row.limsup_deficit <= 1e-6


def test_epi_probe_divergence_counts_as_pass():
    thetas = [10.0**k for k in range(1, 9)]
    fams = [(lambda z, th=th: z[0] + th * max(0.0, z[1]) ** 2) for th in thetas]

    def actual(z):
        return z[0] if z[1] <= 0 else math.inf

    report = epi_probe(fams, actual, [np.array([1.0, 1.0])], tol=1e-4)
    assert report.passed
    assert not report.rows[0].inconclusive


def test_epi_probe_both_infinite_inconclusive_pass():
    fams = [lambda z: math.inf] * 4
    report = epi_probe(fams, lambda z: math.inf, [np.array([0.0])])
    assert report.passed and report.rows[0].inconclusive


def test_epi_probe_constant_family():
    f = lambda z: float(z[0] ** 2)
    report = epi_probe([f] * 5, f, [np.array([0.7])])
    assert report.passed
    assert report.rows[0].liminf_deficit == 0.0
    assert report.rows[0].limsup_deficit == 0.0


def test_epi_probe_interior_path_scenario():
    # barrier family needs caller-supplied interior approach paths
    from compapprox.outer import LogBarrierOuter
    thetas = [4.0**k for k in range(1, 9)]
    F = AffineMapping([[-1.0], [1.0]], [0.0, -1.0])
    fams = [(lambda x, th=th: LogBarrierOuter(th, 2).value(F.eval(x)))
            for th in thetas]

    def actual(x):
        z = F.eval(x)
        return z[0] if z[1] <= 0 else math.inf

    paths = [[np.array([1.0 - 1.0 / th]) for th in thetas]]
    report = epi_probe(fams, actual, [np.array([1.0])], paths=paths, tol=1e-2)
    assert report.passed


# ---------------------------------------------------------------------------
# near-solution transfer


def test_transfer_identity_family_zero_displacement():
    h = GoalOuter([1.0], [0.0])
    F = AffineMapping([[1.0]], [0.0])
    actual = CompositeProblem(Box([-2.0], [2.0]), h, F)
    triple = StationarityTriple([-1.0], [0.0], [-1.0])
    report = near_solution_transfer([(triple, 0.0)], actual, 5.0, 0.0)
    assert report.passed
    assert report.rows[0].displacement <= 1e-12


def test_transfer_exact_penalty_triple_is_actual_solution():
    # theta >= 2 rho: the approximate stationary triple itself satisfies the
    # actual optimality condition with eps = delta
    h_actual = EqualityIndicatorOuter(2)
    F = QuadraticArrayMapping([([[2.0]], [-4.0], 4.0), ([[0.0]], [1.0], 0.0)])
    actual = CompositeProblem(Box([-10.0], [10.0]), h_actual, F)
    # stationary point of the theta = 6 exact-penalty problem: x = 0 exactly,
    # multipliers y = (1, 4), z = F(0) = (4, 0)
    triple = StationarityTriple([0.0], [1.0, 4.0], [4.0, 0.0])
    report = near_solution_transfer([(triple, 1e-9)], actual, 6.0, 0.0)
    assert report.passed
    assert report.rows[0].displacement <= 1e-9


def test_transfer_aug_lagrangian_displacement_bound():
    theta = 1e3
    h_nu = AugLagrangianOuter([0.0], theta)
    h_actual = EqualityIndicatorOuter(2)
    F = QuadraticArrayMapping([([[2.0]], [-4.0], 4.0), ([[0.0]], [1.0], 0.0)])
    X = Box([-10.0], [10.0])
    actual = CompositeProblem(X, h_actual, F)
    # stationary point of the approximating problem: 2(x-2) + theta x = 0
    x = 4.0 / (2.0 + theta)
    z = F.eval(np.array([x]))
    y = h_nu.grad(z)
    triple = StationarityTriple([x], y, z)
    rho = 6.0
    rep = graph_excess_separable(h_nu, h_actual, rho)
    report = near_solution_transfer([(triple, 1e-9)], actual, rho,
                                    rep.certified_upper, grid_resolution=1e-3)
    row = report.rows[0]
    assert not row.counterexample
    assert row.displacement <= rep.certified_upper + 1e-3


def test_transfer_sloped_actual_outer_closed_form_displacement():
    # actual: h(z) = (z - 1)^2, whose graph v = 2z - 2 is one sloped piece,
    # composed with the constant F(x) = 0.3, so moving x never helps. The triple's own
    # residual |y - h'(0.3)| = 0.28 exceeds the bound 0.1; what is admissible
    # is its (z, y) moved to the nearest graph point under max(|dz|, |dv|),
    # where |dz| = |dv|, at distance |2z - y - 2| / 3.
    F = AffineMapping([[0.0]], [0.3])
    actual = CompositeProblem(Box([-1.0], [1.0]), SquaredErrorOuter([1.0]), F)
    y = SquaredErrorOuter([1.0], 1.2).grad(np.array([0.3]))
    triple = StationarityTriple([0.0], y, [0.3])
    report = near_solution_transfer([(triple, 1e-9)], actual, 6.0, 0.1)
    row = report.rows[0]
    assert report.passed and not row.counterexample
    assert row.displacement == pytest.approx(abs(2.0 * 0.3 - y[0] - 2.0) / 3.0, abs=1e-12)


def test_transfer_counterexample_flagged():
    # an arbitrary far-from-stationary triple with zero tolerance is reported,
    # not dropped
    h = GoalOuter([1.0], [0.0])
    F = AffineMapping([[1.0]], [0.0])
    actual = CompositeProblem(Box([-2.0], [2.0]), h, F)
    triple = StationarityTriple([1.5], [5.0], [-3.0])
    report = near_solution_transfer([(triple, 0.0)], actual, 6.0, 0.0)
    assert not report.passed
    assert report.rows[0].counterexample


# ---------------------------------------------------------------------------
# rate shapes


def test_rate_shapes():
    thetas = [10.0**k for k in range(1, 7)]
    # augmented Lagrangian: slope -1 in theta
    uppers = [graph_excess_separable(AugLagrangianOuter([0.0], th),
                                     EqualityIndicatorOuter(2), 1.0,
                                     samples=500).certified_upper
              for th in thetas]
    assert fit_loglog_slope(thetas, uppers) == pytest.approx(-1.0, abs=0.05)
    # softplus-goal subgradient proxy: slope -1/2 in theta
    proxies = [math.sqrt(math.log(2.0) / th) for th in thetas]
    assert fit_loglog_slope(thetas, proxies) == pytest.approx(-0.5, abs=0.05)
    # exact penalty: identically zero once theta >= 2 rho
    for th in (4.0, 8.0, 16.0):
        rep = graph_excess_separable(ExactPenaltyOuter(th, 2),
                                     EqualityIndicatorOuter(2), 2.0, samples=500)
        assert rep.certified_upper == 0.0 and rep.measured_lower == 0.0


def test_excess_report_ordering_invariant():
    for th in (10.0, 1000.0):
        rep = graph_excess_separable(AugLagrangianOuter([0.5], th),
                                     EqualityIndicatorOuter(2), 1.0)
        assert rep.measured_lower <= rep.certified_upper + 1e-10
        if rep.paper_bound is not None:
            assert rep.certified_upper <= rep.paper_bound + 1e-9


# ---------------------------------------------------------------------------
# golden values: the batched diagnostics reproduce the per-sample evaluation
# bit for bit (reprs recorded from the per-sample implementation)


_EXCESS_GOLDEN = [
    # pairs the bundled fixtures use
    (lambda: (AugLagrangianOuter([0.0], 10.0), EqualityIndicatorOuter(2), 1.0, 2000),
     "0.1731138545953361"),
    (lambda: (AugLagrangianOuter([0.0], 1e3), EqualityIndicatorOuter(2), 1.0, 2000),
     "0.0017311385459533608"),
    (lambda: (AugLagrangianOuter([0.0], 1e6), EqualityIndicatorOuter(2), 1.0, 2000),
     "1.7311385459533608e-06"),
    (lambda: (AugLagrangianOuter([0.37], 100.0), EqualityIndicatorOuter(2), 1.0, 2000),
     "0.02101138545953361"),
    (lambda: (AugLagrangianOuter([-0.2], 1e3), EqualityIndicatorOuter(2), 6.0, 2000),
     "0.012156104252400546"),
    (lambda: (AugLagrangianOuter(np.zeros(3), 10.0), EqualityIndicatorOuter(4), 1.0, 2000),
     "0.17312236059535027"),
    (lambda: (AugLagrangianOuter(np.zeros(3), 1e4), EqualityIndicatorOuter(4), 1.0, 2000),
     "0.00017312236059535026"),
    (lambda: (ExactPenaltyOuter(1.0, 2), EqualityIndicatorOuter(2), 2.0, 2000),
     "3.9771376314586178"),
    (lambda: (ExactPenaltyOuter(2.0, 2), EqualityIndicatorOuter(2), 2.0, 2000),
     "3.972565157750342"),
    (lambda: (ExactPenaltyOuter(8.0, 2), EqualityIndicatorOuter(2), 2.0, 2000), "0.0"),
    (lambda: (QuadPenaltyOuter(10.0, 3), InequalityIndicatorOuter(3), 1.0, 2000),
     "0.08659005197943304"),
    (lambda: (QuadPenaltyOuter(1e3, 3), InequalityIndicatorOuter(3), 1.0, 2000),
     "0.0008655605610173051"),
    # sloped targets
    (lambda: (EqualityIndicatorOuter(2), AugLagrangianOuter([0.0], 10.0), 1.0, 2000),
     "0.15737623145030555"),
    (lambda: (AugLagrangianOuter([0.3, -0.1], 5.0), AugLagrangianOuter([-0.2, 0.4], 2.0),
              1.5, 2000),
     "0.7449244985313755"),
    (lambda: (InequalityIndicatorOuter(3), QuadPenaltyOuter(4.0, 3), 1.0, 2000),
     "0.19234678376767209"),
    (lambda: (SquaredErrorOuter([0.2, -0.5], 0.7), SquaredErrorOuter([0.0, 0.3], 2.0), 1.0, 500),
     "1.3952897445407701"),
    # staircase targets
    (lambda: (GoalOuter([1.0, 0.5], [0.0, 0.3]), GoalOuter([1.2, 0.8], [0.1, -0.4]), 1.0, 2000),
     "0.7071067811865475"),
    (lambda: (AugLagrangianOuter([0.2], 3.0), GoalOuter([1.0, 0.6], [0.2, 0.0]), 1.0, 2000),
     "1.936328125"),
    (lambda: (ExactPenaltyOuter(0.7, 3), GoalOuter([1.0, 0.5, 2.0], [0.0, 0.1, -0.2]), 1.0, 600),
     "1.47648230602334"),
    # no sample lies in the 2 rho window at m = 26: not measured, not 0.0
    (lambda: (ExactPenaltyOuter(1.0, 26), EqualityIndicatorOuter(26), 1.0, 2000), "nan"),
    # v_1 = 1 on the linear coordinate misses the window 0.5: the product
    # graph misses it too, so the excess is exactly 0.0
    pytest.param(lambda: (AugLagrangianOuter([0.0], 10.0), EqualityIndicatorOuter(2), 0.25, 2000),
                 "0.0", id="graph-misses-window"),
]


@pytest.mark.parametrize("case, expected", _EXCESS_GOLDEN)
def test_graph_excess_golden(case, expected):
    h_from, h_to, rho, samples = case()
    assert repr(graph_excess_measured(h_from, h_to, rho, samples)) == expected


@pytest.mark.parametrize("base, lam, expected", [
    (LinearOuter([1.0]), 0.5, "0.7071067811865476"),
    (LinearOuter([1.0]), 0.1, "0.1414213562373095"),
    (LinearOuter([1.0]), 0.01, "0.014142135623730958"),
    (GoalOuter([1.0], [0.0]), 0.4, "0.5656854249492381"),
    (GoalOuter([1.0], [0.0]), 0.05, "0.07071067811865478"),
])
def test_homotopy_excess_golden(base, lam, expected):
    assert repr(homotopy_graph_excess(base, lam, 1.0).measured_lower) == expected


def sampler_digest(m):
    """sha256 of the product-graph samples and measured excesses of every table member.

    Each separable member with a graph, at rho 0.5, 1 and 3: the shape and
    bytes of Z and V from ``_sample_product_arrays`` in the 2 rho window
    (from m = 26 on no row lies in it), then the repr of
    ``graph_excess_measured`` to the equality indicator and to a sloped
    squared error, both one piece per coordinate (``0.0`` where a
    coordinate's graph misses the window, ``nan`` where no sample lands in
    it otherwise).
    """
    from test_outer import separable_members
    rng = stream(m, "sampler-golden")
    targets = [EqualityIndicatorOuter(m, first_linear=m > 1),
               SquaredErrorOuter(rng.normal(size=m), 0.8)]
    digest = hashlib.sha256()
    for h in separable_members(m, rng):
        try:
            graphs = [h.graph_1d(i) for i in range(m)]
        except CapabilityError:
            continue
        for rho in (0.5, 1.0, 3.0):
            Z, V = _sample_product_arrays(graphs, 2.0 * rho, 2000)
            digest.update(repr(Z.shape).encode() + Z.tobytes() + V.tobytes())
            for h_to in targets:
                digest.update(repr(graph_excess_measured(h, h_to, rho)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("m, expected", [
    (1, "2cdc6790f8365a9d"),
    (2, "896d7032629dbac5"),
    (3, "6590f5388a3c72dd"),
    (6, "a773808c1bed8788"),
    (11, "bace12b2d4666c39"),
    (26, "2c2d275cd35d2b8d"),
    (101, "b2f6b308552a801f"),
])
def test_product_graph_samples_and_excesses_are_pinned(m, expected):
    assert sampler_digest(m) == expected


_SIMPLEX = [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("case, expected", [
    (lambda: (SoftplusGoalOuter([1.0], [1.0], 2.0), GoalOuter([1.0], [1.0]), 1.0, 2000),
     "0.34559798145368276"),
    (lambda: (SoftplusGoalOuter([1.0], [1.0], 64.0), GoalOuter([1.0], [1.0]), 1.0, 2000),
     "0.009884359926830765"),
    (lambda: (SoftplusGoalOuter([1.0], [1.0], 1024.0), GoalOuter([1.0], [1.0]), 1.0, 2000),
     "0.00012395313578415283"),
    (lambda: (SoftplusGoalOuter([1.0, 0.5, 2.0], [0.2, -0.1, 0.4], 7.0),
              GoalOuter([1.0, 0.5, 2.0], [0.2, -0.1, 0.4]), 1.5, 1500),
     "0.2862313430763602"),
    (lambda: (SupportOuter(_SIMPLEX), SupportOuter([[0.9, 0.1], [0.1, 0.9]]), 1.0, 2000),
     "0.14111363847450842"),
    (lambda: (SupportOuter(_SIMPLEX), SupportOuter([[0.999, 0.001], [0.001, 0.999]]), 1.0, 2000),
     "0.0014111363847451042"),
    (lambda: (SupportOuter([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]]),
              SupportOuter([[0.25, 0.25, 0.5], [0.5, 0.2, 0.3], [1.0, 0.0, 0.0]]), 2.0, 1000),
     "0.9402697894375858"),
    (lambda: (EqualityIndicatorOuter(2), LinearOuter([1.0, 0.0]), 1.0, 100), "inf"),
    (lambda: (InequalityIndicatorOuter(2), InequalityIndicatorOuter(2), 1.0, 100), "0.0"),
])
def test_uniform_outer_gap_golden(case, expected):
    h_a, h_b, rho, samples = case()
    assert repr(uniform_outer_gap(h_a, h_b, rho, samples)) == expected


def test_graph_distances_do_not_depend_on_batching():
    h_from, h_to = AugLagrangianOuter([0.3, -0.1], 5.0), GoalOuter([1.2, 0.8, 0.5], [0.1, -0.4, 0.0])
    graphs_to = [h_to.graph_1d(i) for i in range(h_to.m)]
    Z, V = _sample_product_arrays([h_from.graph_1d(i) for i in range(h_from.m)], 2.0, 64)
    batch = _graph_distances(Z, V, graphs_to)
    one_by_one = [_graph_distances(Z[k:k + 1], V[k:k + 1], graphs_to)[0] for k in range(len(Z))]
    assert batch.tobytes() == np.array(one_by_one).tobytes()


# exact distances against a dense discretisation of the target graph


def _separable_kinds(rng, m):
    """Random separable outers of dimension m: sloped, staircase and vertical pieces."""
    kinds = [lambda: GoalOuter(rng.uniform(0.2, 2.0, m), rng.uniform(-1.0, 1.0, m)),
             lambda: SquaredErrorOuter(rng.uniform(-1.0, 1.0, m), rng.uniform(0.2, 3.0)),
             lambda: EqualityIndicatorOuter(m, first_linear=False)]
    if m >= 2:
        kinds += [lambda: AugLagrangianOuter(rng.uniform(-1.0, 1.0, m - 1), rng.uniform(0.5, 5.0)),
                  lambda: QuadPenaltyOuter(rng.uniform(0.5, 5.0), m),
                  lambda: EqualityIndicatorOuter(m)]
    return kinds


def _graph_grid(graph, bound, step):
    """Points of the graph within |z|, |v| <= bound, neighbours at most step apart."""
    zs, vs = [], []
    for z_lo, z_hi, v_lo, v_hi, slope, intercept in clip_graph(graph, bound).tolist():
        count = int(math.ceil(math.hypot(z_hi - z_lo, v_hi - v_lo) / step)) + 1
        t = np.linspace(0.0, 1.0, count)
        if z_lo == z_hi:
            z, v = np.full(count, z_lo), v_lo + t * (v_hi - v_lo)
        else:
            z = z_lo + t * (z_hi - z_lo)
            v = np.full(count, v_lo) if v_lo == v_hi else intercept + slope * z
        zs.append(z)
        vs.append(v)
    return np.concatenate(zs), np.concatenate(vs)


def _grid_distance(z, v, grids):
    """Distance from (z, v) to the product of per-coordinate point grids.

    Under max{||z - z'||_2, ||v - v'||_2}, by brute force over every product point.
    """
    qz, qv = np.zeros(()), np.zeros(())
    for i, (gz, gv) in enumerate(grids):
        qz = qz[..., None] + (z[i] - gz) ** 2
        qv = qv[..., None] + (v[i] - gv) ** 2
    return math.sqrt(np.min(np.maximum(qz, qv)))


@pytest.mark.parametrize("seed", range(24))
def test_graph_distances_match_dense_oracle(seed):
    # every target kind comes up, against a random source kind
    rng = np.random.default_rng(seed)
    m = 1 + seed % 2
    kinds = _separable_kinds(rng, m)
    h_to = kinds[(seed // 2) % len(kinds)]()
    h_from = kinds[rng.integers(len(kinds))]()
    Z, V = _sample_product_arrays([h_from.graph_1d(i) for i in range(m)],
                                  rng.uniform(1.5, 3.0), 24)
    assert len(Z) > 0
    graphs_to = [h_to.graph_1d(i) for i in range(m)]
    d = _graph_distances(Z, V, graphs_to)
    # a nearest point lies within |z|, |v| <= bound whenever d is not too small;
    # if d is too small, the oracle (an upper bound) exposes it all the same
    bound = max(np.max(np.abs(Z)), np.max(np.abs(V))) + np.max(d) + 1.0
    step = 0.02
    grids = [_graph_grid(g, bound, step) for g in graphs_to]
    for k in range(len(Z)):
        oracle = _grid_distance(Z[k], V[k], grids)
        assert oracle - step <= d[k] <= oracle + 1e-12


@pytest.mark.parametrize("seed", range(9))
def test_graph_nearest_sloped_not_farther_than_brute_force(seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, 8.0)
    graph = [SquaredErrorOuter([rng.uniform(-1.0, 1.0)], theta).graph_1d(0),
             QuadPenaltyOuter(theta, 2).graph_1d(1),
             AugLagrangianOuter([rng.uniform(-1.0, 1.0)], theta).graph_1d(1)][seed % 3]
    clip = rng.uniform(1.0, 5.0)
    gz, gv = _graph_grid(graph, clip, 1e-4)
    for zb, vb in rng.uniform(-4.0, 4.0, (20, 2)):
        zp, vp = _graph_nearest_1d(clip_graph(graph, clip), zb, vb)
        brute = np.min(np.maximum(np.abs(zb - gz), np.abs(vb - gv)))
        assert max(abs(zb - zp), abs(vb - vp)) <= brute + 1e-12
        # the point returned lies on the clipped graph
        assert np.min(np.maximum(np.abs(zp - gz), np.abs(vp - gv))) <= 1e-4


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 21, 40])
def test_halton_points_equal_scipy_bit_for_bit(d):
    from scipy.stats import qmc
    for count in (0, 1, 2, 7, 64, 1000, 4097, 20_000):
        expected = qmc.Halton(d=d, scramble=False).random(count)
        assert _halton_unit(d, count).tobytes() == expected.tobytes()


def _last_line_after(code):
    """The last line a fresh interpreter, with the package on its path, prints."""
    src = os.path.dirname(os.path.dirname(compapprox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def _scipy_modules_after(code):
    """The scipy modules a fresh interpreter has loaded after running code."""
    return _last_line_after(
        code + "; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")


def test_package_import_does_not_load_scipy():
    assert _scipy_modules_after("import sys, compapprox.harness.runner") == "[]"


#: one small spec per set kind of the configuration schema, in dimension 2
_SET_SPECS = {"whole": {"n": 2}, "box": {"lower": [-1.0, 0.0], "upper": [1.0, 2.0]},
              "ball": {"center": [0.5, 0.5], "radius": 1.0}}


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import raising, each set
    # kind builds and answers, and a fixture runs and verifies
    code = f"""import sys
sys.modules["scipy"] = None
from compapprox.harness.config import SETS
from compapprox.harness.fixtures import fixture_config
from compapprox.harness.runner import run_experiment, verify_summary
for kind, build in SETS.items():
    X = build({_SET_SPECS!r}[kind])
    assert X.contains(X.project([3.0, -4.0])), kind
    assert X.contains([3.0, -4.0]) == (kind == "whole"), kind
    assert X.is_bounded() == (kind != "whole"), kind
assert run_experiment(fixture_config("exact_penalty"), {str(tmp_path)!r}) == 0
assert verify_summary({str(tmp_path / "exact_penalty_summary.json")!r}) == 0
print(sorted(SETS))"""
    assert _last_line_after(code) == str(sorted(_SET_SPECS))


def test_convex_sanity_run_does_not_load_scipy(tmp_path):
    # criterion 9's direct solves run on every pass of the fixtures; an
    # oracle that imported scipy.optimize would add about 40 MB to its peak RSS
    code = ("import sys; from compapprox.harness.fixtures import fixture_config; "
            "from compapprox.harness.runner import run_experiment; "
            f"assert run_experiment(fixture_config('convex_sanity'), {str(tmp_path)!r}) == 0")
    assert _scipy_modules_after(code) == "[]"


def test_ball_points_are_cached_and_read_only():
    pts = low_discrepancy_points(3, 1.5, 200)
    assert pts is low_discrepancy_points(3, 1.5, 200)
    assert not pts.flags.writeable
    assert np.all(np.linalg.norm(pts, axis=1) <= 1.5)
    assert 0 < len(pts) < 200


# estimate_eta on every stage of the fixtures that report eta, and on a relu
# net of the scaled benchmark's shape (reprs recorded from the per-point
# implementation)
_ETA_GOLDEN = {
    "min_smoothing": [
        "EtaReport(eta0=0.3465735902799727, eta=1.9687525428831822, eta0_certified=0.34657359027997264, samples_used=501)",
        "EtaReport(eta0=0.17328679513998635, eta=1.9375203371079377, eta0_certified=0.17328679513998632, samples_used=501)",
        "EtaReport(eta0=0.08664339756999317, eta=1.875162506504975, eta0_certified=0.08664339756999316, samples_used=501)",
        "EtaReport(eta0=0.043321698784996476, eta=1.7512939964568077, eta0_certified=0.04332169878499658, samples_used=501)",
        "EtaReport(eta0=0.02166084939249835, eta=1.5101626751925816, eta0_certified=0.02166084939249829, samples_used=501)",
        "EtaReport(eta0=0.010830424696249175, eta=1.0757656854799804, eta0_certified=0.010830424696249145, samples_used=501)",
        "EtaReport(eta0=0.005415212348124587, eta=0.4768116880884705, eta0_certified=0.0054152123481245725, samples_used=501)",
        "EtaReport(eta0=0.0027076061740622936, eta=0.0719448398483662, eta0_certified=0.0027076061740622863, samples_used=501)",
        "EtaReport(eta0=0.0013538030870310358, eta=0.001341400521865932, eta0_certified=0.0013538030870311431, samples_used=501)",
        "EtaReport(eta0=0.0006769015435155179, eta=4.5014064831150336e-07, eta0_certified=0.0006769015435155716, samples_used=501)",
        "EtaReport(eta0=0.00033845077175786997, eta=5.062616992290714e-14, eta0_certified=0.0003384507717577858, samples_used=501)",
        "EtaReport(eta0=0.00016922538587893499, eta=0.0, eta0_certified=0.0001692253858788929, samples_used=501)",
        "EtaReport(eta0=8.461269293946749e-05, eta=0.0, eta0_certified=8.461269293944645e-05, samples_used=501)",
        "EtaReport(eta0=4.2306346469622724e-05, eta=0.0, eta0_certified=4.230634646972322e-05, samples_used=501)",
    ],
    "sample_average": [
        "EtaReport(eta0=0.5, eta=0.5, eta0_certified=0.5, samples_used=501)",
        "EtaReport(eta0=0.125, eta=0.125, eta0_certified=0.125, samples_used=501)",
        "EtaReport(eta0=0.0625, eta=0.0625, eta0_certified=0.0625, samples_used=501)",
        "EtaReport(eta0=0.0078125, eta=0.0078125, eta0_certified=0.0078125, samples_used=501)",
        "EtaReport(eta0=0.029296875, eta=0.029296875, eta0_certified=0.029296875, samples_used=501)",
        "EtaReport(eta0=0.03173828125, eta=0.03173828125, eta0_certified=0.03173828125, samples_used=501)",
    ],
    "network_inverse": [
        "EtaReport(eta0=0.1452053810063999, eta=0.5340659505855063, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.08081272569680223, eta=0.45467577350128363, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.04067517708785361, eta=0.4194570297793846, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.01916952004103872, eta=0.3995792807429332, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.008446525829706475, eta=0.3639096815996342, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.003240722091868445, eta=0.29589044635388945, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.0009160424327203914, eta=0.1821683960870615, eta0_certified=None, samples_used=156)",
        "EtaReport(eta0=0.0001318658418720817, eta=0.05689437138372323, eta0_certified=None, samples_used=156)",
    ],
}


@pytest.mark.parametrize("name", list(_ETA_GOLDEN))
def test_estimate_eta_golden_fixture_stages(name):
    cfg = fixture_config(name)
    actual, stages = build_stages(cfg)
    rho, samples = cfg.diagnostics.rho, min(cfg.diagnostics.samples, 500)
    got = [repr(estimate_eta(st.F, actual.F, st.X, rho, samples=samples)) for st in stages]
    assert got == _ETA_GOLDEN[name]


@pytest.mark.parametrize("name", list(_ETA_GOLDEN))
def test_family_eta_rate_evaluates_the_actual_side_once(name, monkeypatch):
    # the family's rate shares one eta_reference across its stages and gives
    # the per-stage estimates bit for bit
    cfg = fixture_config(name)
    actual, stages = build_stages(cfg)
    rho, samples = cfg.diagnostics.rho, cfg.diagnostics.samples
    calls = []
    original = consistency.eta_reference
    monkeypatch.setattr(consistency, "eta_reference",
                        lambda *args: calls.append(args) or original(*args))
    rows = FAMILIES[cfg.family["name"]].rate(stages, actual, rho, samples)
    assert len(calls) == 1
    expected = [estimate_eta(st.F, actual.F, st.X, rho, min(samples, 500)) for st in stages]
    assert [(r[3], r[4]) for r in rows] == [(e.eta0, e.eta) for e in expected]


def _relu_net(widths):
    rng = stream(5, "test-eta", "-".join(str(w) for w in widths))
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(rng.normal(scale=(2.0 / fan_in) ** 0.5, size=(fan_out, fan_in)))
        biases.append(rng.normal(scale=0.1, size=fan_out))
    return [(weights, biases)]


@pytest.mark.parametrize("theta, expected", [
    (4.0, "EtaReport(eta0=0.3884632793150056, eta=2.0831699496025835, eta0_certified=None, samples_used=261)"),
    (32.0, "EtaReport(eta0=0.02956869353862955, eta=0.9960325282670577, eta0_certified=None, samples_used=261)"),
    (256.0, "EtaReport(eta0=0.0020589712465561715, eta=0.6301493865453296, eta0_certified=None, samples_used=261)"),
    (2048.0, "EtaReport(eta0=9.382075987911385e-05, eta=0.15070444065134453, eta0_certified=None, samples_used=261)"),
])
def test_estimate_eta_golden_relu_net(theta, expected):
    nets = _relu_net((3, 128, 128, 3))
    relu = NetworkForwardMapping(nets, Activation("relu"))
    soft = NetworkForwardMapping(nets, Activation("softplus", theta))
    rep = estimate_eta(soft, relu, Box([-1.0] * 3, [1.0] * 3), 1.0, samples=500)
    assert repr(rep) == expected


def _network_softplus_family(widths):
    """(actual, stages, rho, samples) of network_inverse's family on a relu net of these widths."""
    doc = fixture_document("network_inverse")
    (weights, biases), = _relu_net(widths)
    doc["problem"]["inner"]["networks"] = [{"weights": [W.tolist() for W in weights],
                                            "biases": [b.tolist() for b in biases]}]
    doc["problem"]["outer"]["target"] = [0.25] * widths[-1]
    doc["problem"]["set"] = {"kind": "box", "lower": [-1.0] * widths[0],
                             "upper": [1.0] * widths[0]}
    doc["epca"]["x0"] = [0.0] * widths[0]
    doc["family"]["length"] = 10
    cfg = config_from_dict(doc)
    actual, stages = build_stages(cfg)
    return actual, stages, cfg.diagnostics.rho, cfg.diagnostics.samples


def test_eta_calls_one_linearization_per_point_set(monkeypatch):
    actual, stages, rho, samples = _network_softplus_family((3, 16, 16, 3))
    calls = []
    for attr in ("eval_batch", "jacobian_batch", "linearize_batch"):
        original = getattr(NetworkForwardMapping, attr)

        def spy(self, P, attr=attr, original=original):
            calls.append((attr, self.activation.kind))
            return original(self, P)

        monkeypatch.setattr(NetworkForwardMapping, attr, spy)
    ref = consistency.eta_reference(actual.F, actual.X, rho, samples)
    assert calls == [("linearize_batch", "relu")]
    calls.clear()
    estimate_eta(stages[0].F, actual.F, stages[0].X, rho, samples, reference=ref)
    assert calls == [("linearize_batch", "softplus")]


#: sha256 over the bytes of (eta0, eta) of every stage of
#: _network_softplus_family((3, 16, 16, 3)), recorded with eval_batch and
#: jacobian_batch as two passes
NETWORK_SOFTPLUS_ETA_SHA256 = "ff02943dc6fa97ae54a4a01f78143ec8795b03aeae68e9b971712a58e2cbd7e4"


def test_network_softplus_eta_rates_match_recorded_digest():
    actual, stages, rho, samples = _network_softplus_family((3, 16, 16, 3))
    rows = FAMILIES["network_softplus"].rate(stages, actual, rho, samples)
    assert len(rows) == 10
    digest = hashlib.sha256()
    for *_, eta0, eta in rows:
        digest.update(np.array([eta0, eta]).tobytes())
    assert digest.hexdigest() == NETWORK_SOFTPLUS_ETA_SHA256
