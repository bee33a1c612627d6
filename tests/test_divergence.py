"""Divergence has one shape: a started run either completes its K epochs with a
finite objective or ends in ``OptimizeAbort(k, s, reason)`` with 0 <= k < K,
whatever the stepsize, the algorithm, the trace mode or the epoch-start
logs.  Stepsizes up to 1e308 drive every family past its float range: an
exponent or a rotation angle overflows, a factorization meets a singular
input, a balancing stalls.  Each run here is a few epochs at tiny sizes."""

import math

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.bench import _setup
from manifold_cd.manifolds.base import FAMILIES
from manifold_cd.optimize import (
    ALGORITHMS,
    TRACES,
    Objective,
    OptimizeAbort,
    OptimizerConfig,
    optimize,
)
from manifold_cd.problems import PROBLEMS
from manifold_cd.rng import SplitMix64

EPOCHS = 4


# every trace mode, and the untraced run that still computes the epoch-start
# gradient-norm and feasibility logs on a point no record has checked
MODES = [(trace, 0) for trace in TRACES] + [("none", 1)]


def _assert_one_shape(solve, cfg):
    try:
        _, trace = solve(cfg)
    except OptimizeAbort as exc:
        assert 0 <= exc.k < cfg.epochs, exc
    else:
        assert math.isfinite(trace.final_f())


CLI_SIZES = {"procrustes": (4, 2), "pca": (4, 2), "nearest-symplectic": (2, 1),
             "weighted-ls": (4, 2), "ds-quadratic": (3, 3), "lorentz": (3, 6)}


def _configuration_error(problem: str, algo: str, selection: str) -> bool:
    """The combinations a runner refuses before its first step."""
    if problem == "lorentz":
        return algo != "rcdlin"
    # time-cyclic labels exist only on the hyperboloid; tsd is Stiefel-only
    return selection == "time-cyclic" or (algo == "tsd" and problem not in ("procrustes", "pca"))


def test_cli_sizes_cover_every_problem():
    assert set(CLI_SIZES) == set(PROBLEMS)


@pytest.mark.parametrize("selection", ["cyclic", "time-cyclic"])
@pytest.mark.parametrize("algo", ALGORITHMS)
@pytest.mark.parametrize("problem", sorted(CLI_SIZES))
def test_cli_problem_runs_end_finite_or_abort(problem, algo, selection):
    solve = _setup(problem, *CLI_SIZES[problem], 0)[-1]
    base = OptimizerConfig(algorithm=algo, selection=selection, epochs=EPOCHS)
    if _configuration_error(problem, algo, selection):
        with pytest.raises(ValueError):
            solve(base)
        pytest.skip("configuration error")
    for trace, logs in MODES:
        for eta in (0.5, 1e3, 1e8, 1e30, 1e160, 1e300, 1e308):
            _assert_one_shape(solve, OptimizerConfig(
                algorithm=algo, selection=selection, epochs=EPOCHS, eta=eta, trace=trace,
                grad_log_every=logs, feas_log_every=logs))


FAMILY_DIMS = {"stiefel": (4, 2), "grassmann": (4, 2), "hyperbolic": (4, 1),
               "symplectic": (2, 1), "doubly_stochastic": (3, 3), "multinomial": (3, 3),
               "spsd_factored": (3, 2), "spd_bures_wasserstein": (3, 3)}


def _distance_objective(man) -> Objective:
    """||x - a||^2 with a = 5 * gaussian, symmetrized on the SPD families;
    ||Y Y' - a||^2 on the factored one."""
    a = 5.0 * SplitMix64(2).gaussian(*man.gradient_shape)
    if man.family in ("spsd_factored", "spd_bures_wasserstein"):
        a = 0.5 * (a + a.T)
    if man.family == "spsd_factored":
        return Objective(lambda y: float(np.sum((y @ y.T - a) ** 2)),
                         lambda y: 2.0 * (y @ y.T - a))
    return Objective(lambda x: float(np.sum((x - a) ** 2)), lambda x: 2.0 * (x - a))


def test_family_dims_cover_every_family():
    assert set(FAMILY_DIMS) == set(FAMILIES)


@pytest.mark.parametrize("algo", ["rcd", "rcdlin", "rgd"])
@pytest.mark.parametrize("family", FAMILIES)
def test_family_runs_end_finite_or_abort(family, algo):
    man = make_manifold(ManifoldDescriptor(family, FAMILY_DIMS[family]))
    obj = _distance_objective(man)
    x0 = man.random_point(SplitMix64(1))
    for trace, logs in MODES:
        for eta in (0.5, 1e3, 1e30, 1e300, 1e308):
            _assert_one_shape(lambda cfg: optimize(man, obj, x0, cfg), OptimizerConfig(
                algorithm=algo, epochs=EPOCHS, eta=eta, trace=trace,
                grad_log_every=logs, feas_log_every=logs))
