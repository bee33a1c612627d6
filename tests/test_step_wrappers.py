"""A single descent step composed from the Manifold contract, as the engine
composes it: theta from the closed form, then the cheap retraction with
parameter -step_scale * eta * theta."""

import numpy as np

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.indices import Entry, Pair
from manifold_cd.optimize import Objective, OptimizerConfig, run_rcd
from manifold_cd.rng import SplitMix64


def _descent_step(man, x, l, eta, g):
    theta = man.coordinate_derivative(x, g, l)
    out, _clamped = man.coordinate_retract(x, l, -man.step_scale * eta * theta)
    return out, theta


def test_hyperbolic_wrapper_feasibility():
    man = make_manifold(ManifoldDescriptor("hyperbolic", (5, 1)))
    x = man.random_point(SplitMix64(4))
    g = SplitMix64(5).gaussian(5, 1)
    out, theta = _descent_step(man, x, Pair(0, 2), 0.05, g)
    assert man.feasibility_residual(out) <= 1e-12
    assert theta != 0.0


def test_symplectic_wrapper_feasibility():
    man = make_manifold(ManifoldDescriptor("symplectic", (3, 2)))
    x = man.random_point(SplitMix64(6))
    g = SplitMix64(7).gaussian(6, 4)
    for pair in ((0, 0), (0, 3), (1, 4), (4, 5)):
        out, _ = _descent_step(man, x, Pair(*pair), 0.02, g)
        assert man.feasibility_residual(out) <= 1e-10


def test_ds_wrapper_and_gradient():
    mu = np.full(4, 0.25)
    nu = np.full(5, 0.2)
    man = make_manifold(ManifoldDescriptor("doubly_stochastic", (4, 5), mu=mu, nu=nu))
    x = man.random_point(SplitMix64(8))
    g = SplitMix64(9).gaussian(4, 5)
    out, _ = _descent_step(man, x, Entry(1, 2), 0.1, g)
    assert man.feasibility_residual(out) <= 1e-12
    u = man.riemannian_gradient(x, g)
    assert np.max(np.abs(u.sum(axis=1))) <= 1e-10


def test_multinomial_wrapper():
    man = make_manifold(ManifoldDescriptor("multinomial", (4, 3)))
    x = man.random_point(SplitMix64(10))
    g = SplitMix64(11).gaussian(4, 3)
    out, _ = _descent_step(man, x, Entry(2, 0), 0.1, g)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-14


def test_generic_step_zero_gradient_skips():
    man = make_manifold(ManifoldDescriptor("stiefel", (5, 2)))
    x0 = man.random_point(SplitMix64(16))
    obj = Objective(value=lambda x: 0.0,
                    euclid_grad=lambda x: np.zeros((5, 2)))
    cfg = OptimizerConfig(algorithm="rcd", epochs=1, inner=1, eta=0.3,
                          selection="cyclic", seed=0)
    x, trace = run_rcd(man, obj, x0, cfg)
    assert np.array_equal(x, x0)
    assert trace.update_flops == man.flop_parts(Pair(0, 1))[0]
