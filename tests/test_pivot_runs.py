"""Pivot-row runs: the anchored cyclic sweep on the Stiefel and Grassmann
families (``manifolds.stiefel.pivot_row_sweep``) against ``coordinate_step``, its
sequential reference.

An ``rcdlin`` run with cyclic selection takes the run path unless it records
every step; the same config at ``trace="step"`` takes the sequential path.
The two must agree bitwise: the point, the oracle-call count, the three flop
totals, the clamped steps and every epoch-end objective value, and an abort
must name the same (k, s), the sweep's as a ``StepRefused`` cause that
names the step.
"""

import importlib
import math

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.flops import StepRefused
from manifold_cd.indices import Pair
from manifold_cd.manifolds.stiefel import Stiefel
from manifold_cd.optimize import Objective, OptimizeAbort, OptimizerConfig, optimize as run
from manifold_cd.problems import initial_point, make_pca
from manifold_cd.rng import SplitMix64

# the module that holds the sweep the Stiefel family's hook returns
engine = importlib.import_module("manifold_cd.manifolds.stiefel")

SIZES = [(3, 1), (5, 2), (9, 4), (14, 10), (52, 50), (150, 150)]


def _target_problem(family, n, p, seed=1):
    """f = ||x - a||^2 / 2: a gradient that moves with x, at the cost of one
    elementwise pass, so the sequential path's per-step records stay cheap."""
    man = make_manifold(ManifoldDescriptor(family, (n, p)))
    a = SplitMix64(seed).gaussian(n, p)
    obj = Objective(value=lambda x: 0.5 * float(np.sum((x - a) ** 2)),
                    euclid_grad=lambda x: x - a, grad_flops=2 * n * p)
    return man, obj, man.random_point(SplitMix64(seed + 1))


def _run_both(man, obj, x0, **kw):
    """(x, trace) from the run path (trace="epoch") and the sequential path
    (trace="step").  The run path must not reach the per-step derivative."""
    cfg = dict(algorithm="rcdlin", selection="cyclic", seed=0, **kw)

    def forbidden(*args):
        raise AssertionError("the run path called coordinate_derivative_from_carrier")

    man.coordinate_derivative_from_carrier = forbidden
    try:
        fast = run(man, obj, x0, OptimizerConfig(trace="epoch", **cfg))
    finally:
        del man.coordinate_derivative_from_carrier
    slow = run(man, obj, x0, OptimizerConfig(trace="step", **cfg))
    return fast, slow


def _assert_bitwise(fast, slow):
    (xf, tf), (xs, ts) = fast, slow
    assert xf.tobytes() == xs.tobytes()
    assert tf.oracle_calls == ts.oracle_calls
    assert (tf.oracle_flops, tf.update_flops, tf.instrumentation_flops) == \
        (ts.oracle_flops, ts.update_flops, ts.instrumentation_flops)
    assert tf.clamped_steps == ts.clamped_steps
    # every epoch-end record of the step trace, the final step's f included
    ends = {r.k: r for r in ts.records}
    assert [(r.k, r.s, r.f, r.flops) for r in tf.records] == \
        [(r.k, r.s, r.f, r.flops) for r in ends.values()]


def _assert_sweep_named_the_step(cause, s):
    """The sweep's abort comes from a ``StepRefused`` that names its step s."""
    assert isinstance(cause, StepRefused) and cause.s == s


class TestRuns:
    """Runs the sweep finds in an epoch's positions, each against the
    sequential path: a repeated label, an epoch that ends mid-row or wraps,
    and epochs of every length around |I| = 21."""

    @pytest.mark.parametrize("n, p, inner", [
        (2, 1, 3),  # the one label (0, 1) repeats, so every run is one step
        (4, 2, 2),  # the epoch ends inside the first pivot row
        (4, 2, 8),  # the epoch wraps and ends inside the first row again
        (7, 3, 1), (7, 3, 5), (7, 3, 21), (7, 3, 22), (7, 3, 50),
    ])
    def test_runs_match_sequential(self, n, p, inner):
        man, obj, x0 = _target_problem("stiefel", n, p)
        _assert_bitwise(*_run_both(man, obj, x0, epochs=3, inner=inner, eta=0.3))


class TestParity:
    @pytest.mark.parametrize("family", ["stiefel", "grassmann"])
    @pytest.mark.parametrize("n, p", SIZES)
    @pytest.mark.parametrize("inner", [None, 1, 7, "wrap"])
    def test_run_path_matches_sequential(self, family, n, p, inner):
        man, obj, x0 = _target_problem(family, n, p)
        if inner == "wrap":
            inner = len(man.enumerate_basis()) + 3
        epochs = 2 if n >= 50 else 4
        _assert_bitwise(*_run_both(man, obj, x0, epochs=epochs, inner=inner, eta=0.3))

    @pytest.mark.parametrize("n, p", [(12, 4), (20, 4)])
    def test_pca_with_logs(self, n, p):
        spec, obj, _ = make_pca(n, p, 1e3, 3)
        man = make_manifold(spec.descriptor)
        _assert_bitwise(*_run_both(man, obj, initial_point(spec), epochs=12, eta=0.2,
                                   grad_log_every=2, feas_log_every=3))

    def test_zero_rows_skip_steps(self):
        # rows 2..5 of a constant gradient are zero, so every label inside
        # them has theta = 0 exactly and skips its rotation
        man = make_manifold(ManifoldDescriptor("stiefel", (8, 3)))
        c = SplitMix64(4).gaussian(8, 3)
        c[2:6] = 0.0
        obj = Objective(value=lambda x: float(np.sum(c * x)), euclid_grad=lambda x: c)
        x0 = man.random_point(SplitMix64(5))
        fast, slow = _run_both(man, obj, x0, epochs=3, eta=0.4)
        _assert_bitwise(fast, slow)
        steps = 3 * len(man.enumerate_basis())
        dflops, uflops = man.flop_parts(Pair(0, 1))
        assert fast[1].update_flops < steps * (dflops + uflops)

    @pytest.mark.parametrize("inner", [None, 7])
    def test_nan_gradient_aborts_at_same_step(self, inner):
        # the gradient turns NaN in row 5 at the second epoch's oracle call
        man, obj, x0 = _target_problem("stiefel", 8, 2)
        calls = {"n": 0}
        grad = obj.euclid_grad

        def nan_later(x):
            calls["n"] += 1
            g = grad(x)
            if calls["n"] >= 2:
                g[5, 1] = math.nan
            return g

        obj.euclid_grad = nan_later
        where, causes = [], []
        for trace in ("epoch", "step"):
            calls["n"] = 0
            cfg = OptimizerConfig(algorithm="rcdlin", selection="cyclic", epochs=3,
                                  inner=inner, eta=0.3, trace=trace)
            with pytest.raises(OptimizeAbort, match="non-finite coordinate derivative") as err:
                run(man, obj, x0, cfg)
            where.append((err.value.k, err.value.s))
            causes.append(err.value.__cause__)
        assert where[0] == where[1]
        assert where[0][0] == 1
        _assert_sweep_named_the_step(causes[0], where[0][1])

    def test_infinite_angle_aborts_at_same_step(self):
        # a far target's finite derivative times eta 1e308 overflows the
        # angle to inf
        man, _, x0 = _target_problem("stiefel", 8, 2)
        a = 50.0 * SplitMix64(1).gaussian(8, 2)
        obj = Objective(value=lambda x: 0.5 * float(np.sum((x - a) ** 2)),
                        euclid_grad=lambda x: x - a)
        ends, causes = [], []
        for trace in ("epoch", "step"):
            cfg = OptimizerConfig(algorithm="rcdlin", selection="cyclic", epochs=3,
                                  eta=1e308, trace=trace)
            with pytest.raises(OptimizeAbort) as err:
                run(man, obj, x0, cfg)
            ends.append((err.value.k, err.value.s, err.value.reason))
            causes.append(err.value.__cause__)
        assert ends[0] == ends[1]
        assert ends[0][2] == "coordinate step overflow (|t|=inf)"
        _assert_sweep_named_the_step(causes[0], ends[0][1])


class TestSequentialPathKept:
    """Every config outside the run path's reach still steps label by label."""

    @pytest.mark.parametrize("family, p, algo, selection, trace", [
        ("stiefel", 2, "rcd", "cyclic", "epoch"),
        ("stiefel", 2, "rcdlin", "random", "epoch"),
        ("grassmann", 2, "rcdlin", "without-replacement", "none"),
        ("stiefel", 2, "rcdlin", "cyclic", "step"),
        ("hyperbolic", 1, "rcdlin", "cyclic", "epoch"),
        ("symplectic", 2, "rcdlin", "cyclic", "epoch"),
    ])
    def test_no_sweep(self, monkeypatch, family, p, algo, selection, trace):
        def forbidden(*args):
            raise AssertionError("pivot_row_sweep used")

        monkeypatch.setattr(engine, "pivot_row_sweep", forbidden)
        man = make_manifold(ManifoldDescriptor(family, (4, p)))
        obj = Objective(value=lambda x: float(np.sum(x * x)), euclid_grad=lambda x: 2.0 * x)
        cfg = OptimizerConfig(algorithm=algo, selection=selection, trace=trace,
                              epochs=2, eta=0.01)
        run(man, obj, man.random_point(SplitMix64(3)), cfg)

    def test_an_empty_basis_asks_for_no_sweep(self, monkeypatch):
        # Stiefel(1, 1) has no coordinate pairs, so its epochs take no step
        def forbidden(*args):
            raise AssertionError("anchored_sweep asked for an epoch without steps")

        monkeypatch.setattr(Stiefel, "anchored_sweep", forbidden)
        man, obj, x0 = _target_problem("stiefel", 1, 1)
        x, trace = run(man, obj, x0, OptimizerConfig(algorithm="rcdlin", trace="epoch",
                                                     epochs=3))
        assert x.tobytes() == x0.tobytes()
        assert trace.oracle_calls == 0 and trace.records == []
        assert trace.final_f() == obj.value(x0)

    def test_cyclic_epoch_rcdlin_uses_sweep(self, monkeypatch):
        used = []
        real = engine.pivot_row_sweep
        monkeypatch.setattr(engine, "pivot_row_sweep",
                            lambda *a: used.append(a) or real(*a))
        man, obj, x0 = _target_problem("grassmann", 5, 2)
        run(man, obj, x0, OptimizerConfig(algorithm="rcdlin", trace="none", epochs=2))
        assert len(used) == 1
