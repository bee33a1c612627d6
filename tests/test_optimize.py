"""Optimizer engine: selection rules, determinism, flop audit, trace
semantics, abort policy, and the baselines."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.indices import Pair
from manifold_cd.optimize import (
    SELECTIONS,
    Objective,
    OptimizeAbort,
    OptimizerConfig,
    coordinate_basis,
    epoch_positions,
    flop_audit,
    run_rcd,
    run_rcdlin,
    run_rgd,
    run_tsd,
)
from manifold_cd.linalg import RankDeficiencyError
from manifold_cd.problems import (
    initial_point,
    make_ds_quadratic,
    make_pca,
    make_procrustes,
    make_weighted_ls,
    optimality_gap,
)
from manifold_cd.rng import SplitMix64


def _pca_setup(n=12, p=3, seed=5):
    spec, obj, ref = make_pca(n, p, 1e3, seed)
    man = make_manifold(spec.descriptor)
    return man, obj, initial_point(spec), ref


def epoch_labels(rule, basis, n_inner, rng):
    """The labels an epoch steps, as the step path indexes them."""
    return [basis[p] for p in epoch_positions(rule, len(basis), n_inner, rng)]


class TestSelection:
    def test_cyclic_positions(self):
        basis = [Pair(0, 1), Pair(0, 2), Pair(1, 2)]
        assert epoch_labels("cyclic", basis, 6, SplitMix64(1)) == basis + basis

    def test_random_is_deterministic(self):
        basis = [Pair(i, j) for i in range(6) for j in range(i + 1, 6)]
        a = epoch_labels("random", basis, 40, SplitMix64(7))
        b = epoch_labels("random", basis, 40, SplitMix64(7))
        assert a == b

    def test_without_replacement_is_permutation_per_epoch(self):
        basis = [Pair(i, j) for i in range(5) for j in range(i + 1, 5)]
        rng = SplitMix64(9)
        for _ in range(100):
            picks = epoch_labels("without-replacement", basis, len(basis), rng)
            assert sorted(picks) == sorted(basis)

    def test_time_cyclic_pairs(self):
        man = make_manifold(ManifoldDescriptor("hyperbolic", (5, 1)))
        basis = coordinate_basis(man, "time-cyclic")
        assert basis == [Pair(0, 1), Pair(0, 2), Pair(0, 3), Pair(0, 4)]
        assert coordinate_basis(man, "cyclic") == man.enumerate_basis()
        picks = epoch_labels("time-cyclic", basis, 8, SplitMix64(1))
        assert picks == basis + basis

    def test_positions_are_one_array_per_epoch(self):
        m = 6
        # n_inner = 2.5 |I|: two full permutation blocks, then half a fresh one
        pos = epoch_positions("without-replacement", m, 5 * m // 2, SplitMix64(3))
        ref = SplitMix64(3)
        blocks = [ref.permutation(m).tolist() for _ in range(3)]
        assert pos.dtype == np.intp
        assert pos.tolist() == blocks[0] + blocks[1] + blocks[2][:m // 2]
        # random: the scalar below stream, leaving the generator where it does
        rng, ref = SplitMix64(5), SplitMix64(5)
        pos = epoch_positions("random", m, 40, rng)
        assert pos.dtype == np.intp and pos.tolist() == [ref.below(m) for _ in range(40)]
        assert rng._state == ref._state
        for rule in ("cyclic", "time-cyclic"):
            rng = SplitMix64(5)
            assert epoch_positions(rule, m, 15, rng).tolist() == [s % m for s in range(15)]
            assert rng._state == 5

    @pytest.mark.parametrize("rule", SELECTIONS)
    def test_an_empty_epoch_draws_nothing(self, rule):
        rng = SplitMix64(5)
        for m in (0, 3):
            pos = epoch_positions(rule, m, 0, rng)
            assert pos.dtype == np.intp and pos.size == 0
        assert rng._state == 5

    def test_time_cyclic_rejected_off_hyperbolic(self):
        man, obj, x0, _ = _pca_setup()
        for algo, runner in (("rcd", run_rcd), ("rcdlin", run_rcdlin),
                             ("rgd", run_rgd), ("tsd", run_tsd)):
            cfg = OptimizerConfig(algorithm=algo, epochs=1, eta=0.1,
                                  selection="time-cyclic", seed=0)
            with pytest.raises(ValueError):
                runner(man, obj, x0, cfg)


class TestEngine:
    def test_zero_gradient_is_stationary_bitwise(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (6, 2)))
        x0 = man.random_point(SplitMix64(3))
        obj = Objective(value=lambda x: 1.5,
                        euclid_grad=lambda x: np.zeros((6, 2)))
        cfg = OptimizerConfig(algorithm="rcd", epochs=5, eta=0.3,
                              selection="cyclic", seed=0)
        x, trace = run_rcd(man, obj, x0, cfg)
        assert np.array_equal(x, x0)
        assert all(r.f == 1.5 for r in trace.records)

    def test_identical_runs_bitwise(self):
        man, obj, x0, _ = _pca_setup()
        cfg = OptimizerConfig(algorithm="rcd", epochs=8, eta=0.2,
                              selection="random", seed=42)
        xa, ta = run_rcd(man, obj, x0, cfg)
        xb, tb = run_rcd(man, obj, x0, cfg)
        assert np.array_equal(xa, xb)
        assert ta.records == tb.records

    def test_records_in_lexicographic_order_with_nondecreasing_flops(self):
        man, obj, x0, _ = _pca_setup()
        cfg = OptimizerConfig(algorithm="rcd", epochs=4, inner=7, eta=0.2,
                              selection="random", seed=1)
        _, trace = run_rcd(man, obj, x0, cfg)
        keys = [(r.k, r.s) for r in trace.records]
        assert keys == sorted(keys)
        flops = [r.flops for r in trace.records]
        assert all(b >= a for a, b in zip(flops, flops[1:]))

    def test_nan_objective_aborts_with_location(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (6, 2)))
        x0 = man.random_point(SplitMix64(3))
        calls = {"n": 0}

        def bad_value(x):
            calls["n"] += 1
            return float("nan") if calls["n"] > 3 else 0.0

        obj = Objective(value=bad_value,
                        euclid_grad=lambda x: SplitMix64(4).gaussian(6, 2))
        cfg = OptimizerConfig(algorithm="rcd", epochs=5, eta=0.05,
                              selection="cyclic", seed=0)
        with pytest.raises(OptimizeAbort) as err:
            run_rcd(man, obj, x0, cfg)
        assert err.value.k == 0 and err.value.s == 3

    @pytest.mark.parametrize("algo, runner, family, dims, scale, eta, s, reason", [
        pytest.param("rcd", run_rcd, "hyperbolic", (5, 1), 5.0, 0.7, 1,
                     "hyperbolic rotation overflow", id="rcd-run_rcd"),
        pytest.param("rcdlin", run_rcdlin, "hyperbolic", (5, 1), 5.0, 0.7, 1,
                     "hyperbolic rotation overflow", id="rcdlin-run_rcdlin"),
        pytest.param("rcd", run_rcd, "symplectic", (3, 1), 50.0, 5.0, 3,
                     "scaling step overflow", id="symplectic-rcd-run_rcd"),
        pytest.param("rcdlin", run_rcdlin, "symplectic", (3, 1), 50.0, 5.0, 3,
                     "scaling step overflow", id="symplectic-rcdlin-run_rcdlin"),
    ])
    def test_hyperbolic_rotation_overflow_aborts_with_location(
            self, algo, runner, family, dims, scale, eta, s, reason):
        # a far target and a large stepsize drive the hyperbolic angle on
        # the second step, and the first symplectic scaling pair (step 3),
        # past |t| = MAX_EXP_STEP
        man = make_manifold(ManifoldDescriptor(family, dims))
        x0 = man.random_point(SplitMix64(0))
        a = scale * SplitMix64(1).gaussian(*man.ambient_shape)
        obj = Objective(value=lambda x: float(np.sum((x - a) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - a))
        cfg = OptimizerConfig(algorithm=algo, epochs=50, eta=eta,
                              selection="cyclic", seed=0)
        with pytest.raises(OptimizeAbort, match=f"epoch 0, inner step {s}") as err:
            runner(man, obj, x0, cfg)
        assert err.value.k == 0 and err.value.s == s
        assert isinstance(err.value.__cause__, OverflowError)
        # the message names the overflow, not a non-finite value
        message = str(err.value)
        assert message.startswith(f"{reason} (|t|=") and "non-finite" not in message
        assert err.value.reason == str(err.value.__cause__)

    def test_clamped_steps_counted(self):
        # eta 1 on a far target drives multinomial exponents into the clamp
        man = make_manifold(ManifoldDescriptor("multinomial", (4, 3)))
        a = SplitMix64(5).gaussian(4, 3)
        obj = Objective(value=lambda x: float(np.sum((x - a) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - a))
        clamped = []
        retract = man.coordinate_retract

        def counted(*args, **kwargs):
            out = retract(*args, **kwargs)
            clamped.append(out[1])
            return out

        man.coordinate_retract = counted
        cfg = OptimizerConfig(algorithm="rcd", epochs=3, eta=1.0, trace="epoch")
        _, trace = run_rcd(man, obj, man.random_point(SplitMix64(1)), cfg)
        assert trace.clamped_steps == sum(clamped) > 0

    def test_returned_iterate_feasible(self):
        man, obj, x0, _ = _pca_setup()
        cfg = OptimizerConfig(algorithm="rcdlin", epochs=30, eta=0.2,
                              selection="cyclic", seed=6)
        x, _ = run_rcdlin(man, obj, x0, cfg)
        assert man.feasibility_residual(x) <= 1e-6

    def test_eta_decay_schedule(self):
        man, obj, x0, _ = _pca_setup()
        a = OptimizerConfig(algorithm="rcd", epochs=3, inner=4, eta=0.4,
                            eta_decay=0.5, selection="cyclic", seed=0, trace="epoch")
        b = OptimizerConfig(algorithm="rcd", epochs=3, inner=4, eta=0.4,
                            selection="cyclic", seed=0, trace="epoch")
        xa, _ = run_rcd(man, obj, x0, a)
        xb, _ = run_rcd(man, obj, x0, b)
        assert not np.array_equal(xa, xb)

    def test_grad_log_cadence(self):
        man, obj, x0, _ = _pca_setup()
        cfg = OptimizerConfig(algorithm="rcd", epochs=6, inner=3, eta=0.2,
                              selection="cyclic", seed=0, grad_log_every=2,
                              feas_log_every=3)
        _, trace = run_rcd(man, obj, x0, cfg)
        logged = [r.k for r in trace.records if r.grad_norm is not None]
        assert logged == [0, 2, 4]
        feas = [r.k for r in trace.records if r.feasibility is not None]
        assert feas == [0, 3]
        # instrumentation is off the main ledger
        assert trace.instrumentation_flops == 3 * obj.grad_flops
        # rgd logs through its own gradient call, also off the ledger
        cfg = OptimizerConfig(algorithm="rgd", epochs=6, eta=0.2, seed=0,
                              grad_log_every=2, feas_log_every=3)
        _, trace = run_rgd(man, obj, x0, cfg)
        assert [r.k for r in trace.records if r.grad_norm is not None] == [0, 2, 4]
        assert [r.k for r in trace.records if r.feasibility is not None] == [0, 3]
        assert trace.instrumentation_flops == 3 * obj.grad_flops
        assert trace.oracle_calls == 6
        assert trace.oracle_flops == 6 * obj.grad_flops


class TestEquivalences:
    def test_s1_random_bitwise(self):
        man, obj, x0, _ = _pca_setup()
        kw = dict(epochs=50, inner=1, eta=0.25, selection="random", seed=9)
        xa, ta = run_rcd(man, obj, x0, OptimizerConfig(algorithm="rcd", **kw))
        xb, tb = run_rcdlin(man, obj, x0, OptimizerConfig(algorithm="rcdlin", **kw))
        assert np.array_equal(xa, xb)
        assert ta.records == tb.records

    def test_constant_gradient_bitwise_any_inner(self):
        spec, obj, _ = make_procrustes(10, 4, 3)
        man = make_manifold(spec.descriptor)
        x0 = initial_point(spec)
        for sel in ("cyclic", "random", "without-replacement"):
            kw = dict(epochs=9, inner=17, eta=0.1, selection=sel, seed=4)
            xa, ta = run_rcd(man, obj, x0, OptimizerConfig(algorithm="rcd", **kw))
            xb, tb = run_rcdlin(man, obj, x0, OptimizerConfig(algorithm="rcdlin", **kw))
            assert np.array_equal(xa, xb)
            assert ta.records == tb.records


class TestFlopAudit:
    def test_oracle_call_counts(self):
        man, obj, x0, _ = _pca_setup()
        for algo, runner, expected in (("rcd", run_rcd, 10 * 50),
                                       ("rcdlin", run_rcdlin, 10)):
            cfg = OptimizerConfig(algorithm=algo, epochs=10, inner=50, eta=0.1,
                                  selection="random", seed=3, trace="epoch")
            _, trace = runner(man, obj, x0, cfg)
            audit = flop_audit(trace, man, cfg)
            assert trace.oracle_calls == audit.expected_oracle_calls == expected
            assert audit.ok
        # time-cyclic sweeps the n - 1 time pairs, not the whole basis
        man = make_manifold(ManifoldDescriptor("hyperbolic", (5, 1)))
        obj = Objective(value=lambda x: float(x[1, 0]),
                        euclid_grad=lambda x: np.eye(5, 1, -1))
        cfg = OptimizerConfig(algorithm="rcd", epochs=3, eta=0.1,
                              selection="time-cyclic", seed=0)
        _, trace = run_rcd(man, obj, man.random_point(SplitMix64(2)), cfg)
        audit = flop_audit(trace, man, cfg)
        assert trace.oracle_calls == 12
        assert audit.ok and audit.inner == 4

    def test_stiefel_update_flops_linear_in_p(self):
        costs = {}
        for p in (8, 16, 32):
            man = make_manifold(ManifoldDescriptor("stiefel", (64, p)))
            costs[p] = man.flop_cost(Pair(0, 1))
        assert costs[16] == 2 * costs[8]
        assert costs[32] == 2 * costs[16]

    def test_rgd_epoch_flops_match_model(self):
        spec, obj, _ = make_procrustes(16, 6, 2)
        man = make_manifold(spec.descriptor)
        x0 = initial_point(spec)
        cfg = OptimizerConfig(algorithm="rgd", epochs=5, eta=0.05, seed=0,
                              trace="epoch")
        _, trace = run_rgd(man, obj, x0, cfg)
        assert trace.update_flops == 5 * man.rgd_flops()
        assert trace.oracle_calls == 5

    def test_zero_derivative_steps_charge_only_derivative(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (6, 3)))
        x0 = man.random_point(SplitMix64(12))
        obj = Objective(value=lambda x: 0.0,
                        euclid_grad=lambda x: np.zeros((6, 3)))
        cfg = OptimizerConfig(algorithm="rcd", epochs=1, inner=10, eta=0.1,
                              selection="cyclic", seed=0)
        _, trace = run_rcd(man, obj, x0, cfg)
        dflops, _ = man.flop_parts(Pair(0, 1))
        assert trace.update_flops == 10 * dflops


class TestBaselines:
    def test_rgd_converges_on_procrustes(self):
        spec, obj, ref = make_procrustes(14, 6, 7)
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="rgd", epochs=800, eta=0.12, seed=7,
                              trace="epoch")
        _, trace = run_rgd(man, obj, initial_point(spec), cfg)
        gap, _ = optimality_gap(trace.final_f(), ref.value)
        assert gap <= 1e-8

    def test_rgd_stationary_at_zero_gradient(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (6, 2)))
        x0 = man.random_point(SplitMix64(5))
        obj = Objective(value=lambda x: 2.0,
                        euclid_grad=lambda x: np.zeros((6, 2)))
        cfg = OptimizerConfig(algorithm="rgd", epochs=5, eta=0.1, seed=0)
        x, _ = run_rgd(man, obj, x0, cfg)
        assert np.max(np.abs(x - x0)) <= 1e-12

    def test_tsd_runs_and_stays_feasible(self):
        spec, obj, ref = make_procrustes(12, 4, 5)
        man = make_manifold(spec.descriptor)
        cfg = OptimizerConfig(algorithm="tsd", epochs=60, eta=0.05,
                              selection="cyclic", seed=5, trace="epoch")
        x, trace = run_tsd(man, obj, initial_point(spec), cfg)
        assert man.feasibility_residual(x) <= 1e-10
        gap, _ = optimality_gap(trace.final_f(), ref.value)
        assert gap < 0.5
        audit = flop_audit(trace, man, cfg)
        assert audit.ok

    def test_tsd_rejected_off_stiefel(self):
        man = make_manifold(ManifoldDescriptor("symplectic", (3, 2)))
        obj = Objective(value=lambda x: 0.0,
                        euclid_grad=lambda x: np.zeros((6, 4)))
        cfg = OptimizerConfig(algorithm="tsd", epochs=1, eta=0.1, seed=0)
        with pytest.raises(ValueError):
            run_tsd(man, obj, man.random_point(SplitMix64(0)), cfg)

    def test_bw_sane_stepsize_keeps_definiteness_and_descends(self):
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (4, 4)))
        x0 = np.eye(4)
        target = np.diag([5.0, 4.0, 3.0, 2.0])
        obj = Objective(value=lambda x: 0.5 * float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: x - target)
        cfg = OptimizerConfig(algorithm="rcd", epochs=200, eta=1e-3,
                              selection="cyclic", seed=0, trace="epoch")
        x, trace = run_rcd(man, obj, x0, cfg)
        assert man.min_eigenvalue(x) > 0.0
        assert trace.final_f() < 1e-8

    def test_bw_halving_retry_charges_each_epoch_log_once(self):
        # eta 4 fails the definiteness probe and is halved 8 times; a retried
        # epoch's gradient-norm log replaces the failed attempt's
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (4, 4)))
        target = np.diag([5.0, 4.0, 3.0, 2.0])
        obj = Objective(value=lambda x: float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - target), grad_flops=16)
        cfg = OptimizerConfig(algorithm="rcd", epochs=5, eta=4.0, selection="random",
                              seed=0, trace="epoch", grad_log_every=1)
        _, trace = run_rcd(man, obj, np.eye(4), cfg)
        assert trace.eta_used == 4.0 / 2**8
        assert trace.instrumentation_flops == 5 * 16

    @pytest.mark.parametrize("mode", ["step", "epoch"])
    @pytest.mark.parametrize("algo, runner", [("rcd", run_rcd), ("rcdlin", run_rcdlin)])
    def test_bw_retry_restores_the_whole_ledger(self, algo, runner, mode):
        # the probe is forced to fail twice at epoch 2: the retried epoch
        # leaves the ledger and the records as if it had run once, at eta / 4
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (3, 3)))
        probe = man.min_eigenvalue
        forced = [1.0, 1.0, -1.0, -1.0]
        man.min_eigenvalue = lambda x: forced.pop(0) if forced else probe(x)
        target = np.array([[3.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.2, 0.3, 1.0]])
        obj = Objective(value=lambda x: float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - target),
                        grad_flops=16, setup_flops=7)
        epochs, basis = 4, man.enumerate_basis()
        cfg = OptimizerConfig(algorithm=algo, epochs=epochs, eta=0.01, selection="cyclic",
                              seed=0, trace=mode, grad_log_every=1)
        _, trace = runner(man, obj, np.eye(3), cfg)
        calls = epochs * (len(basis) if algo == "rcd" else 1)
        assert not forced and trace.eta_used == 0.01 / 4
        assert trace.oracle_calls == calls
        assert trace.oracle_flops == 7 + calls * (16 + man.carrier_flops())
        assert trace.update_flops == epochs * sum(map(man.flop_cost, basis))
        assert trace.instrumentation_flops == epochs * 16
        inner = range(len(basis)) if mode == "step" else [len(basis) - 1]
        assert [(r.k, r.s) for r in trace.records] == list(itertools.product(
            range(epochs), inner))

    def test_bw_divergent_stepsize_aborts_cleanly(self):
        # coordinate steps are congruences, so definiteness survives any
        # finite step; a wildly large stepsize diverges instead, and the
        # probe's halving ladder ends in a clean abort
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (4, 4)))
        x0 = np.eye(4)
        target = np.diag([5.0, 4.0, 3.0, 2.0])
        obj = Objective(value=lambda x: 0.5 * float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: x - target)
        cfg = OptimizerConfig(algorithm="rcd", epochs=30, eta=0.9,
                              selection="cyclic", seed=0, trace="epoch")
        with pytest.raises(OptimizeAbort):
            run_rcd(man, obj, x0, cfg)

    def test_bw_ladder_gives_up_after_30_halvings(self):
        # a probe that always fails climbs the whole ladder at the first
        # epoch: the first try, 30 halvings, then the abort
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (3, 3)))
        calls = []
        man.min_eigenvalue = lambda x: calls.append(x) or -1.0
        target = np.diag([3.0, 2.0, 1.0])
        obj = Objective(value=lambda x: float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - target))
        cfg = OptimizerConfig(algorithm="rcd", epochs=2, eta=0.01, trace="epoch")
        with pytest.raises(OptimizeAbort) as err:
            run_rcd(man, obj, np.eye(3), cfg)
        assert (err.value.k, err.value.s) == (0, 0)
        assert err.value.reason == "definiteness probe failed after 30 stepsize halvings"
        assert len(calls) == 31

    @pytest.mark.parametrize("selection, algo, inner, seed, bound, halvings, digest", [
        ("random", "rcd", 5, 3, math.inf, 30,
         "aa684a58b87d6b2d366eef97c24906849633ba06f16daacb381926ed3be56f3d"),
        ("without-replacement", "rcdlin", 13, 0, 10.0, 12,
         "67d6f1e561769492fa738bdea8e91ea80a91860647ed166f74891d4f544d9a70"),
    ], ids=["random", "without-replacement"])
    def test_bw_retry_rewinds_the_generator(self, selection, algo, inner, seed, bound,
                                            halvings, digest):
        # a retried epoch that aborted at step s keeps only the draws of steps
        # 0..s: these runs were recorded while positions were drawn one per
        # step, and without the rewind they end at 4 * 2**-23 and 4 * 2**-10.
        # f is +inf outside |x| < bound, so the second run aborts mid-epoch
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (3, 3)))
        target = np.diag([4.0, 3.0, 2.0])

        def value(x):
            return float(np.sum((x - target) ** 2)) if np.abs(x).max() < bound else math.inf

        obj = Objective(value=value, euclid_grad=lambda x: 2.0 * (x - target))
        cfg = OptimizerConfig(algorithm=algo, epochs=6, eta=4.0, inner=inner,
                              selection=selection, seed=seed, trace="step", grad_log_every=2)
        x, trace = {"rcd": run_rcd, "rcdlin": run_rcdlin}[algo](man, obj, np.eye(3), cfg)
        assert trace.eta_used == 4.0 / 2**halvings
        assert len(trace.records) == 6 * inner
        h = hashlib.sha256(x.tobytes())
        for r in trace.records:
            h.update(repr(dataclasses.astuple(r)).encode())
        h.update(repr((trace.oracle_calls, trace.oracle_flops, trace.update_flops)).encode())
        assert h.hexdigest() == digest


class TestRefusedSteps:
    """A step that a family cannot take raises an ArithmeticError or a
    LinAlgError; the epoch loop reports it as OptimizeAbort at that step,
    the family's exception as its cause."""

    @staticmethod
    def _abort(runner, problem, cfg):
        spec, obj, _ = problem
        with pytest.raises(OptimizeAbort) as err:
            runner(make_manifold(spec.descriptor), obj, initial_point(spec), cfg)
        return err.value

    def test_ds_rgd_step_that_leaves_the_positive_orthant(self):
        # exp(t u / x) under- and overflows at eta 1e8: full_sinkhorn's
        # ValueError becomes the family's FloatingPointError
        abort = self._abort(run_rgd, make_ds_quadratic(5, 4, 0),
                            OptimizerConfig(algorithm="rgd", epochs=6, eta=1e8))
        assert (abort.k, abort.s) == (0, 0)
        assert abort.reason == "full_sinkhorn needs a strictly positive finite matrix"
        assert isinstance(abort.__cause__, FloatingPointError)
        assert isinstance(abort.__cause__.__cause__, ValueError)

    @pytest.mark.parametrize("eta, k, residual", [(0.5, 2, "1.125e-11"), (1.0, 1, "2.887e-08")])
    def test_ds_rgd_step_whose_balancing_stalls(self, eta, k, residual):
        man = make_manifold(ManifoldDescriptor("doubly_stochastic", (3, 3)))
        a = 5.0 * SplitMix64(2).gaussian(3, 3)
        obj = Objective(value=lambda x: float(np.sum((x - a) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - a))
        cfg = OptimizerConfig(algorithm="rgd", epochs=5, eta=eta)
        with pytest.raises(OptimizeAbort) as err:
            run_rgd(man, obj, man.random_point(SplitMix64(1)), cfg)
        assert (err.value.k, err.value.s) == (k, 0)
        assert err.value.reason == f"sinkhorn stalled: residual {residual}"
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert isinstance(err.value.__cause__.__cause__, RuntimeError)

    def test_tsd_sphere_step_overflow(self):
        # the projected gradient's norm overflows, where math.cos(inf)
        # would raise a bare ValueError
        abort = self._abort(run_tsd, make_procrustes(6, 3, 0),
                            OptimizerConfig(algorithm="tsd", epochs=6, eta=1e160))
        assert (abort.k, abort.s) == (0, 3)
        assert abort.reason == "sphere step overflow on column 0 (|v|=inf)"
        assert isinstance(abort.__cause__, OverflowError)

    def test_stiefel_rgd_rank_deficient_step(self):
        abort = self._abort(run_rgd, make_pca(6, 3, 1e3, 0),
                            OptimizerConfig(algorithm="rgd", epochs=6, eta=1e160))
        assert (abort.k, abort.s) == (0, 0)
        assert abort.reason == "input is numerically rank deficient"
        assert isinstance(abort.__cause__, RankDeficiencyError)

    def test_bw_probe_fails_on_a_non_finite_point(self):
        # under "epoch" a record's non-finite f fails the probe mid-epoch;
        # under "none" only the end-of-epoch probe sees the point, so the
        # ladder gives up one epoch later, but both runs end in the ladder
        man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (4, 4)))
        target = np.diag([5.0, 4.0, 3.0, 2.0])
        obj = Objective(value=lambda x: float(np.sum((x - target) ** 2)),
                        euclid_grad=lambda x: 2.0 * (x - target))
        assert man.epoch_probe(np.full((4, 4), np.nan)) is False
        for trace, k in (("epoch", 3), ("none", 4)):
            cfg = OptimizerConfig(algorithm="rgd", epochs=5, eta=1e3, trace=trace)
            with pytest.raises(OptimizeAbort) as err:
                run_rgd(man, obj, np.eye(4), cfg)
            assert (err.value.k, err.value.s) == (k, 0)
            assert err.value.reason == "definiteness probe failed after 30 stepsize halvings"


class TestConfigValidation:
    def test_bad_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(algorithm="nope")
        with pytest.raises(ValueError):
            OptimizerConfig(epochs=0)
        with pytest.raises(ValueError):
            OptimizerConfig(eta=-1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(selection="sometimes")
        with pytest.raises(ValueError):
            OptimizerConfig(inner=0)
        with pytest.raises(ValueError):
            OptimizerConfig(trace="epochs")

    @pytest.mark.parametrize("field, value", [
        ("eta", 0.0), ("eta", math.nan), ("eta", math.inf),
        ("eta_decay", -1.0), ("eta_decay", -0.6), ("eta_decay", math.nan),
        ("eta_decay", math.inf), ("grad_log_every", -1), ("feas_log_every", -1),
    ])
    def test_out_of_range_values(self, field, value):
        with pytest.raises(ValueError):
            OptimizerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "inner", "seed", "grad_log_every",
                                       "feas_log_every"])
    @pytest.mark.parametrize("value, accepted", [(2.5, False), (np.int64(3), True)],
                             ids=["fraction", "numpy-int"])
    def test_counts_are_integers(self, field, value, accepted):
        # a fractional count once ran a rounded-up number of epochs, failed at
        # the first step or logged at a stretched cadence
        if not accepted:
            with pytest.raises(TypeError):
                OptimizerConfig(**{field: value})
            return
        got = getattr(OptimizerConfig(**{field: value}), field)
        assert got == 3 and type(got) is int


@pytest.mark.parametrize("algo, runner", [("rcd", run_rcd), ("rcdlin", run_rcdlin),
                                          ("rgd", run_rgd), ("tsd", run_tsd)])
def test_final_f_under_every_trace_mode(algo, runner):
    """A run that keeps no record still reports its final f: the objective at
    its final point, evaluated off the ledger, so the ledger and x do not
    depend on the trace mode."""
    man, obj, x0, _ = _pca_setup(n=8, p=2)
    runs = {mode: runner(man, obj, x0, OptimizerConfig(
                algorithm=algo, epochs=3, eta=0.1, seed=2, grad_log_every=2, trace=mode))
            for mode in ("step", "epoch", "none")}
    x, none = runs["none"]
    assert none.records == [] and none.final_f() == obj.value(x)
    for mode in ("step", "epoch"):
        xm, trace = runs[mode]
        assert np.array_equal(xm, x) and trace.final_f() == none.final_f()
        assert trace.unrecorded_f is None
        assert ((trace.oracle_calls, trace.oracle_flops, trace.update_flops,
                 trace.instrumentation_flops)
                == (none.oracle_calls, none.oracle_flops, none.update_flops,
                    none.instrumentation_flops))


@pytest.mark.parametrize("algo, runner", [("rcd", run_rcd), ("rgd", run_rgd)])
def test_untraced_run_checks_its_final_f(algo, runner):
    """Under trace "none" a non-finite final objective aborts at the last
    step taken, (K-1, S-1), as the last record's check does under "epoch"."""
    man, obj, x0, _ = _pca_setup(n=6, p=2)
    obj = dataclasses.replace(obj, value=lambda x: math.nan)
    cfg = OptimizerConfig(algorithm=algo, epochs=3, eta=0.1, trace="none")
    with pytest.raises(OptimizeAbort, match="non-finite objective") as err:
        runner(man, obj, x0, cfg)
    s = 0 if algo == "rgd" else man.index_count() - 1
    assert (err.value.k, err.value.s) == (2, s)
    with pytest.raises(OptimizeAbort) as epoch_err:
        runner(man, obj, x0, dataclasses.replace(cfg, trace="epoch"))
    assert (epoch_err.value.k, epoch_err.value.s) == (0, s)


def test_final_f_of_a_run_with_no_label_to_step():
    # Stiefel(1, 1) has no coordinate pair, so no epoch takes a step or records
    spec, obj, _ = make_procrustes(1, 1, 0)
    x0 = initial_point(spec)
    for mode in ("step", "epoch"):
        x, trace = run_rcd(make_manifold(spec.descriptor), obj, x0,
                           OptimizerConfig(epochs=2, trace=mode))
        assert trace.records == [] and np.array_equal(x, x0)
        assert trace.final_f() == obj.value(x0)


@pytest.mark.parametrize("setup", [0, 777])
def test_flop_ledger_arithmetic_exact(setup):
    """Cumulative flops equal the hand-computed model totals; an objective's
    one-time setup charge shows once in the oracle flops and in every
    record's flops, and never as an oracle call."""
    spec, obj, _ = make_pca(9, 2, 1e3, 4)
    obj = dataclasses.replace(obj, setup_flops=setup)
    man = make_manifold(spec.descriptor)
    x0 = initial_point(spec)
    epochs, inner = 3, 5
    basis = man.enumerate_basis()
    per_step = [man.flop_cost(basis[s % len(basis)]) for s in range(inner)]
    for (algo, runner), mode in itertools.product(
            (("rcd", run_rcd), ("rcdlin", run_rcdlin)), ("step", "epoch")):
        cfg = OptimizerConfig(algorithm=algo, epochs=epochs, inner=inner,
                              eta=0.05, selection="cyclic", seed=0,
                              trace=mode)
        _, trace = runner(man, obj, x0, cfg)
        calls_per_epoch = inner if algo == "rcd" else 1
        per_call = obj.grad_flops + man.carrier_flops()
        assert trace.oracle_calls == epochs * calls_per_epoch
        assert trace.update_flops == epochs * sum(per_step)
        assert trace.oracle_flops == setup + epochs * calls_per_epoch * per_call
        for r in trace.records:
            calls = r.k * calls_per_epoch + (r.s + 1 if algo == "rcd" else 1)
            steps = r.k * sum(per_step) + sum(per_step[:r.s + 1])
            assert r.flops == setup + calls * per_call + steps
        assert trace.records[-1].flops == trace.total_flops
