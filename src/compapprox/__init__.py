"""Composite-optimization approximation toolkit.

Builds approximating problems i_X + h^nu(F^nu(x)) for an actual composite
problem i_X + h(F(x)), solves them by an enhanced proximal composite
algorithm, certifies near-stationarity of the resulting multiplier triples,
and measures approximation consistency (uniform gaps, subdifferential-graph
excesses, solution-error bounds) against closed-form rate bounds.
"""

from .epca import (EpcaConfig, EpcaTrace, Stage, run_epca, solve_affine_composite,
                   solve_subproblem)
from .errors import (CapabilityError, CertificationError, ConfigError,
                     EvaluationError, NonconvergenceError)
from .geometry import Ball, Box, ClosedSet, WholeSpace, normal_cone_residual
from .inner import (Activation, AffineMapping, InnerMapping, MinSmoothMapping,
                    NetworkForwardMapping, NetworkLiftMapping,
                    QuadraticArrayMapping, SampleAverageMapping,
                    build_network_lift, resample)
from .model import (CompositeProblem, ResidualTriple, StationarityTriple, eval_phi,
                    stationarity_residual)
from .outer import (AugLagrangianOuter, BlockSeparableOuter, EqualityIndicatorOuter,
                    ExactPenaltyOuter, GoalOuter, HomotopyOuter,
                    InequalityIndicatorOuter, LinearOuter, LogBarrierOuter,
                    OuterFunction, QuadPenaltyOuter, SoftplusGoalOuter,
                    SquaredErrorOuter, SupportOuter, softplus, softplus_grad)

__version__ = "0.1.0"
