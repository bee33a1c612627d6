"""Divergence has one shape: a started run either completes its K epochs with a
finite objective or ends in ``OptimizeAbort(k, s, reason)`` with 0 <= k < K,
whatever the stepsize, the algorithm, the trace mode or the epoch-start
logs.  Stepsizes up to 1e308 drive every family past its float range: an
exponent or a rotation angle overflows, a factorization meets a singular
input, a balancing stalls.  Each run here is a few epochs at tiny sizes.

Each case also hashes every run's outcome to a recorded SHA-256, so a
refactor of the epoch loop cannot move an abort or change a completed run
unnoticed.  An outcome is ``(k, s, reason)`` for an abort; for a completed
run it is the final f and the ledger (the three flop totals, the oracle
calls and the clamped steps).  The digests were recorded with Python 3.11.7
and numpy 2.4.6 on x86-64 Linux, like those of ``test_trace_digests.py``."""

import hashlib
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


def _outcome(solve, cfg) -> tuple:
    """Run once and check the one shape; return what the digest hashes."""
    try:
        _, trace = solve(cfg)
    except OptimizeAbort as exc:
        assert 0 <= exc.k < cfg.epochs, exc
        return exc.k, exc.s, exc.reason
    assert math.isfinite(trace.final_f())
    return (trace.final_f().hex(), trace.oracle_flops, trace.update_flops,
            trace.instrumentation_flops, trace.oracle_calls, trace.clamped_steps)


def _digest(outcomes: list) -> str:
    return hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()


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
    outcomes = [_outcome(solve, OptimizerConfig(
        algorithm=algo, selection=selection, epochs=EPOCHS, eta=eta, trace=trace,
        grad_log_every=logs, feas_log_every=logs))
        for trace, logs in MODES for eta in (0.5, 1e3, 1e8, 1e30, 1e160, 1e300, 1e308)]
    assert _digest(outcomes) == CLI_OUTCOMES[problem, algo, selection]


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
    outcomes = [_outcome(lambda cfg: optimize(man, obj, x0, cfg), OptimizerConfig(
        algorithm=algo, epochs=EPOCHS, eta=eta, trace=trace,
        grad_log_every=logs, feas_log_every=logs))
        for trace, logs in MODES for eta in (0.5, 1e3, 1e30, 1e300, 1e308)]
    assert _digest(outcomes) == FAMILY_OUTCOMES[family, algo]


# recorded with the Python and numpy named in the module docstring
CLI_OUTCOMES = {
    ('ds-quadratic', 'rcd', 'cyclic'):
        '9501350b64f59f273eb3f42cde2b773a404784abab9b17c9479a85a3d5195c2c',
    ('ds-quadratic', 'rcdlin', 'cyclic'):
        '3e63049c17ce74c4ac9446f88840e1abe1d3bbf756137ede90fc83cf3754f70c',
    ('ds-quadratic', 'rgd', 'cyclic'):
        'd76dc03bc125a111d5da0eaaef36531838bd8224b74d705c276f9ce76d413a94',
    ('lorentz', 'rcdlin', 'cyclic'):
        'd34c540f5877499e11c9ec8ce9c7405d8a4b57b6daf7328c68728760dac33c86',
    ('lorentz', 'rcdlin', 'time-cyclic'):
        'ec7c38ef60568e4800787c53261b859fec89f0e6fbae015684d403d397f85d7f',
    ('nearest-symplectic', 'rcd', 'cyclic'):
        '43dca97a2c035f86590c95b41ac75621cfd14557a80ef02488946c1154086245',
    ('nearest-symplectic', 'rcdlin', 'cyclic'):
        'f5c2f81b9ad29c64662b2073c6ae5e6d46d154b2f87b85fde49beb8329b7d322',
    ('nearest-symplectic', 'rgd', 'cyclic'):
        '04178d287999d43dce27d13318ec9a29a989b22657cdb3e44f09aa410bf15a4b',
    ('pca', 'rcd', 'cyclic'):
        'aa2fc1a37aad656dec11946df3d9438aea204c7188eae27c7015f8715a550c00',
    ('pca', 'rcdlin', 'cyclic'):
        '1f0061dbcce5df8d7c5813672404209f8c12358504fbff62d69debd7a8ce1802',
    ('pca', 'rgd', 'cyclic'):
        '91064ef9d3ac6644ff264682ccaf34e308b5f9a60a7618d47d41cbdee08854cd',
    ('pca', 'tsd', 'cyclic'):
        '89670f572177ab3e4b0f0a3e467904ae3c7c2b27bdcf66ccdf195247f883c8fd',
    ('procrustes', 'rcd', 'cyclic'):
        'fefb793964995dbce744d703dffdc5befdf885cbe984f4baa1b8327cd99c4162',
    ('procrustes', 'rcdlin', 'cyclic'):
        '59caeb3a2b131d3375e06a889f632f8259e5ba0bdb4b1e2aae5aac02291436ac',
    ('procrustes', 'rgd', 'cyclic'):
        '138ca34e36a8c89c39a82741f31c74eb81551d071c0819fe84f4d1e910c4e25f',
    ('procrustes', 'tsd', 'cyclic'):
        '5c85ce6a728a46e2f5494914569a8429ebe2cb32b471643d10477e6ad6629a92',
    ('weighted-ls', 'rcd', 'cyclic'):
        '2daba39f43bfd57049e6858cd0ec4cbd566bc33b4010fd567e5e46ed0b2da65f',
    ('weighted-ls', 'rcdlin', 'cyclic'):
        '1f2a99d2198533fde6f7ef5b5361aaf05c2ba19690097efefe67769b671bf325',
    ('weighted-ls', 'rgd', 'cyclic'):
        'b09d8d3ee4c3e4be905cd71c63738d23454bbccbc9610086cb2efa26703296ca',
}

FAMILY_OUTCOMES = {
    ('stiefel', 'rcd'):
        '72fbbf5e10dc621d66eba347e153ae1082881e53152f91db75b090a8c7ed97f8',
    ('stiefel', 'rcdlin'):
        '3b749f38bec6142db5a21e0a986abd30c9216f1a80cd53008c15b8a3e69703d6',
    ('stiefel', 'rgd'):
        '98c9f741c26e67ce7ed4b9a2f12ee5e4825fc0668995b885cea918dee82a0585',
    ('grassmann', 'rcd'):
        '72fbbf5e10dc621d66eba347e153ae1082881e53152f91db75b090a8c7ed97f8',
    ('grassmann', 'rcdlin'):
        '3b749f38bec6142db5a21e0a986abd30c9216f1a80cd53008c15b8a3e69703d6',
    ('grassmann', 'rgd'):
        'cec67ed8949380a680659d5c2233b4d71ef6d7d5d872d3b82104a779d254856a',
    ('hyperbolic', 'rcd'):
        '2917a888e348113ae3653864810b5cf73eb0986079da369e84ae45aa04087323',
    ('hyperbolic', 'rcdlin'):
        'c016d74a87ecd5b8713f59e014d317aaad5315e01527d49f61c4435033e4845b',
    ('hyperbolic', 'rgd'):
        '54d264fc631596b43f24de6f2834786c50da9d41912177d18e903a406eee75dc',
    ('symplectic', 'rcd'):
        '4e8288fd81c9748766841eae8b150da04091d8d09fd0e2e17c680db74118ef6a',
    ('symplectic', 'rcdlin'):
        '68208e9a2a064bed3d3ad589ce552a3efcb80401d41084bec787525ecf0746ab',
    ('symplectic', 'rgd'):
        'ff7e43c763be8c49a9599f02173fa00841683993ef85a62754599aebc0a8b0a6',
    ('doubly_stochastic', 'rcd'):
        '1f3d890357aa5c1dab333e376440acac962b646983fbfdf9afca5878dae45a9f',
    ('doubly_stochastic', 'rcdlin'):
        '1ab3220861412dd2bf59b067fc0bc84a2651f55290154fa9b6e011a33b84a3b6',
    ('doubly_stochastic', 'rgd'):
        '3e0778bbbfa0500d96f1ebacc92329b337aa182cfd7a4226397534f2946c32fb',
    ('multinomial', 'rcd'):
        '9f3f9b1cfb0e1167ab16fede8cb24466762f64b80f69919800b5552573f652ad',
    ('multinomial', 'rcdlin'):
        'ba23ee2a47933afb8b4b9646eaae7d033e2bf2edda5cbe6360437068076c125c',
    ('multinomial', 'rgd'):
        'bd1e77407f78b978ba806ca2ffb667d4234906861eb9edb9bca6966d0f345942',
    ('spsd_factored', 'rcd'):
        'c047a03d4c5eb0f2a4e41afe1ef48e65b626b83322ab66b6f30f92e155bff395',
    ('spsd_factored', 'rcdlin'):
        '83ac352b256f51642f922157252e7ba340f5ecc2f800dd463db27868942c7298',
    ('spsd_factored', 'rgd'):
        '45c359881578309bd1a980bfdaff5866668b13ca7996835ac7673f83e2ef23e3',
    ('spd_bures_wasserstein', 'rcd'):
        'a92f73d4c6f62512d0ec118aa06d1203db61922cc9688cc99b4dfd88f7e2a863',
    ('spd_bures_wasserstein', 'rcdlin'):
        '42ca8fdc4707412655e13c9054f08de84710eaecb5f1e13b9a6a4524f81e6965',
    ('spd_bures_wasserstein', 'rgd'):
        '23beeafebd2da9b6abaa7a1cdcde1abe401b4128ffd441dac22bd61ad1e388fb',
}
