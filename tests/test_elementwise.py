"""Doubly stochastic / multinomial / factored SPSD / BW specifics: the 2x2
closed form against iterative balancing, gradient pinning invariance, local
vs global retraction, single-entry updates, and the dense-formula oracle for
the BW quadratic step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.indices import Entry, Pair
from manifold_cd.manifolds.doubly_stochastic import full_sinkhorn, sinkhorn_2x2
from manifold_cd.rng import SplitMix64
from reference import rank_ok

_entry = st.floats(1e-6, 1e6)
_marg = st.floats(0.05, 0.95)


class TestSinkhorn2x2:
    def test_uniform_case(self):
        out = sinkhorn_2x2(np.ones((2, 2)), (0.5, 0.5), (0.5, 0.5))
        assert np.allclose(out, 0.25, atol=1e-14)

    def test_balanced_input_is_fixed_point(self):
        block = np.array([[0.3, 0.2], [0.1, 0.4]])
        p = block.sum(axis=1)
        q = block.sum(axis=0)
        out = sinkhorn_2x2(block, tuple(p), tuple(q))
        assert np.max(np.abs(out - block)) <= 1e-12

    def test_matches_iterative_balancing(self):
        rng = SplitMix64(3001)
        for _ in range(200):
            block = np.exp(np.array([[rng.normal(), rng.normal()],
                                     [rng.normal(), rng.normal()]]))
            p = np.array([0.2 + rng.uniform(), 0.2 + rng.uniform()])
            p /= p.sum()
            q = np.array([0.2 + rng.uniform(), 0.2 + rng.uniform()])
            q /= q.sum()
            closed = sinkhorn_2x2(block, tuple(p), tuple(q))
            it = full_sinkhorn(block, p, q, tol=1e-14, max_iters=100_000)
            assert np.max(np.abs(closed - it)) <= 1e-10

    def test_marginals_met(self):
        rng = SplitMix64(3002)
        block = np.exp(np.array([[3 * rng.normal(), 3 * rng.normal()],
                                 [3 * rng.normal(), 3 * rng.normal()]]))
        p = (0.7, 0.3)
        q = (0.4, 0.6)
        out = sinkhorn_2x2(block, p, q)
        assert np.max(np.abs(out.sum(axis=1) - p)) <= 1e-12
        assert np.max(np.abs(out.sum(axis=0) - q)) <= 1e-12
        assert np.all(out > 0.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sinkhorn_2x2(np.array([[1.0, -1.0], [1.0, 1.0]]), (0.5, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            sinkhorn_2x2(np.ones((2, 2)), (0.8, 0.4), (0.5, 0.5))

    @given(_entry, _entry, _entry, _entry, _marg, _marg)
    @settings(max_examples=150, deadline=None)
    def test_property_marginals_positivity_scaling(self, a, b, c, d, pm, qm):
        block = np.array([[a, b], [c, d]])
        p = (pm, 1.0 - pm)
        q = (qm, 1.0 - qm)
        out = sinkhorn_2x2(block, p, q)
        assert np.all(out > 0.0)
        assert np.max(np.abs(out.sum(axis=1) - p)) <= 1e-12
        assert np.max(np.abs(out.sum(axis=0) - q)) <= 1e-12
        # the balanced matrix is a diagonal scaling of the input:
        # cross-ratios are preserved
        r = out / block
        lhs = r[0, 0] * r[1, 1]
        rhs = r[0, 1] * r[1, 0]
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)


class TestFullSinkhorn:
    def test_balanced_input_short_circuit(self):
        mu = np.array([0.5, 0.5])
        nu = np.array([0.25, 0.75])
        x = np.outer(mu, nu)
        assert np.max(np.abs(full_sinkhorn(x, mu, nu) - x)) <= 1e-12

    def test_product_coupling(self):
        mu = np.array([0.3, 0.7])
        nu = np.array([0.2, 0.3, 0.5])
        out = full_sinkhorn(np.outer(mu, nu), mu, nu)
        assert np.max(np.abs(out - np.outer(mu, nu))) <= 1e-12

    def test_diagonal_scaling_structure(self):
        rng = SplitMix64(3003)
        u = np.exp(0.7 * rng.gaussian(5, 4))
        mu = np.full(5, 0.2)
        nu = np.full(4, 0.25)
        out = full_sinkhorn(u, mu, nu)
        ratio = out / u
        # rank-1 test: ratio_ij * ratio_kl == ratio_il * ratio_kj
        for i in range(5):
            for k in range(5):
                lhs = ratio[i, 0] * ratio[k, 1]
                rhs = ratio[i, 1] * ratio[k, 0]
                assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))

    def test_max_iters_sweeps_then_one_last_test(self):
        # below the sweeps convergence needs it stalls; from there on it
        # returns the same matrix, bitwise
        u = np.exp(0.7 * SplitMix64(3004).gaussian(5, 4))
        mu, nu = np.full(5, 0.2), np.full(4, 0.25)
        out = full_sinkhorn(u, mu, nu)

        def converges(max_iters):
            try:
                return np.array_equal(full_sinkhorn(u, mu, nu, max_iters=max_iters), out)
            except RuntimeError as exc:
                assert str(exc).startswith("sinkhorn stalled: residual ")
                return False

        verdicts = list(map(converges, range(60)))
        needed = verdicts.index(True)
        assert 0 < needed < 50 and all(verdicts[needed:])

    def test_nonconvergence_raises(self):
        with pytest.raises(ValueError):
            full_sinkhorn(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([0.5, 0.5]), np.array([0.5, 0.5]))


class TestDoublyStochastic:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("doubly_stochastic", (5, 4)))
        self.x = self.man.random_point(SplitMix64(91))

    def test_gradient_of_constant_matrix_vanishes(self):
        g = 3.7 * np.ones((5, 4))
        assert np.linalg.norm(self.man.riemannian_gradient(self.x, g)) <= 1e-10

    def test_gradient_of_rank_one_shift_vanishes(self):
        alpha = SplitMix64(92).gaussian(5, 1).reshape(-1)
        beta = SplitMix64(93).gaussian(4, 1).reshape(-1)
        g = alpha[:, None] + beta[None, :]
        assert np.linalg.norm(self.man.riemannian_gradient(self.x, g)) <= 1e-10

    def test_gradient_is_tangent(self):
        g = SplitMix64(94).gaussian(5, 4)
        u = self.man.riemannian_gradient(self.x, g)
        assert np.max(np.abs(u.sum(axis=1))) <= 1e-10
        assert np.max(np.abs(u.sum(axis=0))) <= 1e-10
        fisher = float(np.sum(u * u / self.x))
        assert fisher >= 0.0

    def test_pinning_choice_does_not_matter(self):
        """Pinning a different potential shifts (alpha, beta) but leaves the
        gradient unchanged."""
        g = SplitMix64(95).gaussian(5, 4)
        u = self.man.riemannian_gradient(self.x, g)
        alpha, beta = self.man._dual_potentials(self.x, g)
        shift = 0.83
        alpha2 = alpha + shift
        beta2 = beta - shift
        u2 = self.x * (g - alpha2[:, None] - beta2[None, :])
        assert np.max(np.abs(u - u2)) <= 1e-10

    def test_step_touches_only_block(self):
        out, _ = self.man.coordinate_retract(self.x, Entry(1, 2), 0.05)
        mask = np.ones((5, 4), dtype=bool)
        mask[1:3, 2:4] = False
        assert np.array_equal(out[mask], self.x[mask])
        assert self.man.feasibility_residual(out) <= 1e-12

    def test_whole_matrix_block_when_two_by_two(self):
        desc = ManifoldDescriptor("doubly_stochastic", (2, 2))
        man = make_manifold(desc)
        x = np.full((2, 2), 0.25)
        out, _ = man.coordinate_retract(x, Entry(0, 0), 0.3)
        assert man.feasibility_residual(out) <= 1e-12

    def test_clamped_step_reported(self):
        out, clamped = self.man.coordinate_retract(self.x, Entry(0, 0), 50.0)
        assert clamped is True
        _, unclamped = self.man.coordinate_retract(self.x, Entry(0, 0), 1e-3)
        assert unclamped is False
        assert np.all(out > 0.0)
        assert self.man.feasibility_residual(out) <= 1e-12

    def test_derivative_formula(self):
        g = SplitMix64(96).gaussian(5, 4)
        th = self.man.coordinate_derivative(self.x, g, Entry(2, 1))
        want = g[2, 1] - g[2, 2] - g[3, 1] + g[3, 2]
        assert th == pytest.approx(want, abs=1e-15)


class TestMultinomial:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("multinomial", (4, 3)))
        self.x = self.man.random_point(SplitMix64(97))

    def test_two_entry_formula(self):
        x = self.x.copy()
        x[1] = [0.5, 0.5, 0.0 + x[1, 2]]
        x[1] = x[1] / x[1].sum()
        # exact closed form on a (1/2, 1/2) pair
        x[1, 0] = x[1, 1] = 0.5 * (x[1, 0] + x[1, 1])
        tprime = -0.07
        out, _ = self.man.coordinate_retract(x, Entry(1, 0), tprime)
        pair = x[1, 0] + x[1, 1]
        e = 2.0 * tprime / pair
        w = np.array([math.exp(e), math.exp(-e)])
        want = pair * w / w.sum()
        assert np.max(np.abs(out[1, :2] - want)) <= 1e-14

    def test_only_row_i_changes_bitwise(self):
        out, _ = self.man.coordinate_retract(self.x, Entry(2, 1), 0.04)
        mask = np.ones(4, dtype=bool)
        mask[2] = False
        assert np.array_equal(out[mask], self.x[mask])

    def test_row_sums_after_many_steps(self):
        y = self.x.copy()
        rng = SplitMix64(98)
        basis = self.man.enumerate_basis()
        for _ in range(10_000):
            l = basis[rng.below(len(basis))]
            y, _ = self.man.coordinate_retract(y, l, 0.2 * rng.uniform() - 0.1,
                                               inplace=True)
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) <= 1e-10
        assert np.all(y > 0.0)


class TestFactoredSpsd:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("spsd_factored", (6, 2)))
        self.y = self.man.random_point(SplitMix64(99))

    def test_zero_gradient_fixes_factor(self):
        g = np.zeros((6, 6))
        for l in self.man.enumerate_basis():
            assert self.man.coordinate_derivative(self.y, g, l) == 0.0

    def test_global_optimum_has_zero_derivatives(self):
        # f = 0.5 |YY' - B|^2 with B = YY': gradient vanishes identically
        b = self.y @ self.y.T
        g = (self.y @ self.y.T) - b
        for l in self.man.enumerate_basis():
            assert self.man.coordinate_derivative(self.y, g, l) == 0.0

    def test_single_entry_moves_bitwise(self):
        out, _ = self.man.coordinate_retract(self.y, Entry(3, 1), 0.2)
        mask = np.ones((6, 2), dtype=bool)
        mask[3, 1] = False
        assert np.array_equal(out[mask], self.y[mask])
        assert out[3, 1] == self.y[3, 1] + 0.2

    def test_finite_difference_on_factor_entry(self):
        c = SplitMix64(100).gaussian(6, 6)
        c = 0.5 * (c + c.T)
        th = self.man.coordinate_derivative(self.y, c, Entry(2, 0))
        h = 1e-6
        yp = self.y.copy()
        yp[2, 0] += h
        ym = self.y.copy()
        ym[2, 0] -= h
        fd = (np.sum(c * (yp @ yp.T)) - np.sum(c * (ym @ ym.T))) / (2 * h)
        assert abs(th - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_carrier_maintenance_is_exact(self):
        g = SplitMix64(101).gaussian(6, 6)
        carrier = self.man.derivative_carrier(self.y, g)
        y = self.y.copy()
        l = Entry(4, 1)
        t = 0.31
        y[l.i, l.j] += t
        self.man.update_carrier(carrier, y, l, t)
        fresh = self.man.derivative_carrier(y, g)
        assert np.max(np.abs(carrier[0] - fresh[0])) <= 1e-12

    def test_rank_monitor(self):
        assert rank_ok(self.man, self.y)
        degenerate = np.zeros((6, 2))
        degenerate[:, 0] = 1.0
        assert not rank_ok(self.man, degenerate)


class TestBuresWasserstein:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("spd_bures_wasserstein", (6, 6)))
        self.x = self.man.random_point(SplitMix64(102))

    def test_zero_gradient_identity(self):
        out, _ = self.man.coordinate_retract(self.x, Pair(1, 4), 0.0)
        assert np.array_equal(out, self.x)

    def _dense_step(self, x, i, j, t):
        e = np.zeros_like(x)
        if i == j:
            e[i, i] = 2.0
        else:
            e[i, j] = e[j, i] = 1.0
        return x + t * (e @ x + x @ e) + t * t * (e @ x @ e)

    @pytest.mark.parametrize("pair", [(0, 0), (1, 4), (2, 3), (5, 5)])
    def test_structured_update_matches_dense_formula(self, pair):
        i, j = pair
        t = -0.137
        got, _ = self.man.coordinate_retract(self.x, Pair(i, j), t)
        want = self._dense_step(self.x, i, j, t)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_descent_step_matches_published_update(self):
        """A descent step with stepsize eta retracts by -2 eta theta, giving
        X - 2 eta theta (E X + X E) + 4 eta^2 theta^2 E X E."""
        g = SplitMix64(103).gaussian(6, 6)
        eta = 0.01
        theta = self.man.coordinate_derivative(self.x, g, Pair(1, 3))
        out, _ = self.man.coordinate_retract(
            self.x, Pair(1, 3), -self.man.step_scale * eta * theta)
        e = np.zeros((6, 6))
        e[1, 3] = e[3, 1] = 1.0
        x = self.x
        want = (x - 2 * eta * theta * (e @ x + x @ e)
                + 4 * eta * eta * theta * theta * (e @ x @ e))
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_update_touches_only_rows_cols(self):
        out, _ = self.man.coordinate_retract(self.x, Pair(1, 3), 0.05)
        mask = np.ones((6, 6), dtype=bool)
        mask[[1, 3], :] = False
        mask[:, [1, 3]] = False
        assert np.array_equal(out[mask].reshape(4, 4), self.x[np.ix_([0, 2, 4, 5], [0, 2, 4, 5])])

    def test_result_exactly_symmetric(self):
        out, _ = self.man.coordinate_retract(self.x, Pair(0, 2), 0.4)
        assert np.array_equal(out, out.T)

    def test_small_steps_keep_positive_definite_and_descend(self):
        b = self.man.random_point(SplitMix64(103))
        f = lambda m: 0.5 * float(np.sum((m - b) ** 2))
        x = self.x.copy()
        rng = SplitMix64(104)
        basis = self.man.enumerate_basis()
        eta = 1e-3
        for _ in range(200):
            l = basis[rng.below(len(basis))]
            th = self.man.coordinate_derivative(x, x - b, l)
            f0 = f(x)
            x, _ = self.man.coordinate_retract(x, l, -2.0 * eta * th, inplace=True)
            assert f(x) <= f0 + 1e-12
        assert self.man.min_eigenvalue(x) > 0.0
        assert f(x) < f(self.x)

    def test_full_retract_matches_quadratic_update(self):
        g = SplitMix64(105).gaussian(6, 6)
        g = 0.5 * (g + g.T)
        eta = 0.01
        grad = self.man.riemannian_gradient(self.x, g)
        got = self.man.full_retract(self.x, grad, -eta)
        want = (self.x - 2 * eta * (g @ self.x + self.x @ g)
                + 4 * eta * eta * (g @ self.x @ g))
        assert np.max(np.abs(got - want)) <= 1e-10
