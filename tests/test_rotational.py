"""Stiefel / Grassmann / hyperbolic / symplectic specifics: explicit update
oracles, metric independence of the derivative, the Cayley and canonical
machinery, block updates, and the column-wise baseline."""

import math

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.flops import MAX_EXP_STEP
from manifold_cd.linalg import apply_rotation
from manifold_cd.manifolds.hyperbolic import (
    apply_j,
    lift_to_hyperboloid,
    tangent_skew_parameter,
)
from manifold_cd.manifolds.stiefel import (
    tsd_column_step,
    tsd_enumerate,
    tsd_pair_step,
)
from manifold_cd.manifolds.symplectic import (
    omega_apply,
    omega_matrix,
    symplectic_block_step,
    symplectic_cross_derivatives,
    tangent_symmetric_parameter,
)
from manifold_cd.indices import Column, Pair
from manifold_cd.rng import SplitMix64
from reference import (
    frobenius_inner,
    grassmann_distance,
    hyperbolic_canonical_gradient,
    hyperbolic_cayley_retract,
    random_tangent,
    stiefel_canonical_gradient,
    stiefel_canonical_inner,
)


class TestStiefel:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("stiefel", (8, 3)))
        self.x = self.man.random_point(SplitMix64(31))

    def test_gradient_in_normal_direction_gives_zero_theta(self):
        s = SplitMix64(32).gaussian(3, 3)
        g = self.x @ (0.5 * (s + s.T))
        for l in self.man.enumerate_basis():
            assert abs(self.man.coordinate_derivative(self.x, g, l)) <= 1e-13

    def test_gradient_equal_to_point_is_fixed_point(self):
        for l in self.man.enumerate_basis():
            theta = self.man.coordinate_derivative(self.x, self.x, l)
            assert abs(theta) <= 1e-14
            out, _ = self.man.coordinate_retract(self.x, l, -0.5 * theta)
            assert np.max(np.abs(out - self.x)) <= 1e-14

    def test_explicit_two_by_two_rotation(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (2, 1)))
        x = np.array([[1.0], [0.0]])
        g = np.array([[0.0], [1.0]])
        theta = man.coordinate_derivative(x, g, Pair(0, 1))
        assert theta == -1.0
        out, _ = man.coordinate_retract(x, Pair(0, 1), -1.0 * theta)
        assert np.allclose(out, [[math.cos(1.0)], [-math.sin(1.0)]])

    def test_retract_equals_rotation_kernel(self):
        out, _ = self.man.coordinate_retract(self.x, Pair(1, 4), 0.37)
        assert np.array_equal(out, apply_rotation(self.x, 1, 4, 0.37))

    def test_theta_metric_independent(self):
        """The derivative agrees under the Euclidean and canonical metrics
        and equals the plain Euclidean pairing."""
        g = SplitMix64(33).gaussian(8, 3)
        grad_e = self.man.riemannian_gradient(self.x, g)
        grad_c = stiefel_canonical_gradient(self.x, g)
        for l in self.man.enumerate_basis():
            b = self.man.materialize_basis(self.x, l)
            te = frobenius_inner(grad_e, b)
            tc = stiefel_canonical_inner(self.x, grad_c, b)
            tg = frobenius_inner(g, b)
            assert abs(te - tg) <= 1e-12 * max(1.0, abs(tg))
            assert abs(tc - tg) <= 1e-12 * max(1.0, abs(tg))

    def test_full_retract_is_qr(self):
        u = random_tangent(self.man, self.x, SplitMix64(34))
        out = self.man.full_retract(self.x, u, 0.1)
        assert np.linalg.norm(out.T @ out - np.eye(3)) <= 1e-12


class TestGrassmann:
    def test_distance_same_subspace(self):
        man = make_manifold(ManifoldDescriptor("grassmann", (6, 2)))
        x = man.random_point(SplitMix64(41))
        assert grassmann_distance(x, x) <= 1e-12
        q, _ = np.linalg.qr(SplitMix64(42).gaussian(2, 2))
        assert grassmann_distance(x, x @ q) <= 1e-10

    def test_orthogonal_lines(self):
        e1 = np.eye(4)[:, :1]
        e2 = np.eye(4)[:, 1:2]
        assert np.isclose(grassmann_distance(e1, e2), math.pi / 2)

    def test_distance_invariant_under_representative_change(self):
        man = make_manifold(ManifoldDescriptor("grassmann", (7, 3)))
        x = man.random_point(SplitMix64(43))
        y = man.random_point(SplitMix64(44))
        q1, _ = np.linalg.qr(SplitMix64(45).gaussian(3, 3))
        q2, _ = np.linalg.qr(SplitMix64(46).gaussian(3, 3))
        d0 = grassmann_distance(x, y)
        d1 = grassmann_distance(x @ q1, y @ q2)
        assert abs(d0 - d1) <= 1e-10

    def test_equivariance_of_coordinate_step(self):
        man = make_manifold(ManifoldDescriptor("grassmann", (8, 3)))
        for trial in range(20):
            x = man.random_point(SplitMix64(500 + trial))
            g = SplitMix64(600 + trial).gaussian(8, 3)
            q, _ = np.linalg.qr(SplitMix64(700 + trial).gaussian(3, 3))
            l = man.enumerate_basis()[trial % man.index_count()]
            th = man.coordinate_derivative(x, g, l)
            sx, _ = man.coordinate_retract(x, l, -0.1 * th)
            th_q = man.coordinate_derivative(x @ q, g @ q, l)
            sxq, _ = man.coordinate_retract(x @ q, l, -0.1 * th_q)
            assert np.max(np.abs(sxq - sx @ q)) <= 1e-12


class TestHyperbolic:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("hyperbolic", (5, 1)))
        self.x = self.man.random_point(SplitMix64(51))

    def test_zero_gradient_fixes_point(self):
        g = np.zeros((5, 1))
        for l in self.man.enumerate_basis():
            th = self.man.coordinate_derivative(self.x, g, l)
            assert th == 0.0

    def test_space_pair_is_plain_givens(self):
        out, _ = self.man.coordinate_retract(self.x, Pair(1, 3), 0.21)
        assert np.array_equal(out, apply_rotation(self.x, 1, 3, 0.21))

    def test_time_pair_preserves_constraint(self):
        x = np.array([[1.0], [0.0], [0.0]])
        man = make_manifold(ManifoldDescriptor("hyperbolic", (3, 1)))
        g = SplitMix64(52).gaussian(3, 1)
        th = man.coordinate_derivative(x, g, Pair(0, 1))
        out, _ = man.coordinate_retract(x, Pair(0, 1), -th)
        assert man.feasibility_residual(out) <= 1e-14

    def test_finite_difference_on_time_pair(self):
        c = SplitMix64(53).gaussian(3, 1)
        man = make_manifold(ManifoldDescriptor("hyperbolic", (3, 1)))
        x = np.array([[1.0], [0.0], [0.0]])
        th = man.coordinate_derivative(x, c, Pair(0, 1))
        h = 1e-6
        xp, _ = man.coordinate_retract(x, Pair(0, 1), h)
        xm, _ = man.coordinate_retract(x, Pair(0, 1), -h)
        fd = float(np.sum(c * (xp - xm))) / (2 * h)
        assert abs(th - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_cayley_retraction(self):
        u = random_tangent(self.man, self.x, SplitMix64(54))
        assert np.max(np.abs(hyperbolic_cayley_retract(self.x, u, 0.0) - self.x)) <= 1e-15
        out = hyperbolic_cayley_retract(self.x, u, 0.2)
        assert self.man.feasibility_residual(out) <= 1e-10
        prev = None
        for t in (1e-3, 1e-4, 1e-5):
            xt = hyperbolic_cayley_retract(self.x, u, t)
            resid = np.linalg.norm((xt - self.x) / t - u)
            if prev is not None:
                assert resid <= 0.2 * prev + 1e-10
            prev = resid

    def test_cayley_preserves_form_on_wide_inputs(self):
        # the transform preserves X'JX for any input, which is what makes it
        # a retraction on the feasible locus
        z = SplitMix64(55).gaussian(5, 2)
        w = SplitMix64(56).gaussian(5, 5)
        u = (w - w.T) @ apply_j(z)
        out = hyperbolic_cayley_retract(z, u, 0.3)
        form = lambda m: m.T @ apply_j(m)
        assert np.linalg.norm(form(out) - form(z)) <= 1e-12

    def test_canonical_gradient_identities(self):
        g = SplitMix64(57).gaussian(5, 1)
        assert np.array_equal(hyperbolic_canonical_gradient(self.x, np.zeros((5, 1))),
                              np.zeros((5, 1)))
        cg = hyperbolic_canonical_gradient(self.x, g)
        jg = apply_j(g)
        alt = (jg @ self.x.T - self.x @ jg.T) @ apply_j(self.x)
        assert np.linalg.norm(cg - alt) <= 1e-12
        tang = cg.T @ apply_j(self.x) + self.x.T @ apply_j(cg)
        assert np.linalg.norm(tang) <= 1e-12

    def test_skew_parameter_maps_tangent(self):
        u = random_tangent(self.man, self.x, SplitMix64(58))
        w = tangent_skew_parameter(self.x, u)
        assert np.linalg.norm(w + w.T) <= 1e-12
        assert np.linalg.norm(w @ apply_j(self.x) - u) <= 1e-12

    def test_lift_is_feasible(self):
        v = SplitMix64(59).gaussian(6, 1)
        v[0, 0] = 0.0
        x = lift_to_hyperboloid(v)
        man = make_manifold(ManifoldDescriptor("hyperbolic", (6, 1)))
        assert man.feasibility_residual(x) <= 1e-12

    def test_only_a_time_pair_refuses_a_large_step(self):
        # past MAX_EXP_STEP (well short of cosh's overflow near 710) a time
        # pair raises before any write; a space pair takes any angle
        y = self.x.copy()
        with pytest.raises(OverflowError, match=r"hyperbolic rotation overflow \(\|t\|=600\)"):
            self.man.coordinate_retract(y, Pair(0, 2), -600.0, inplace=True)
        assert np.array_equal(y, self.x)
        self.man.coordinate_retract(y, Pair(0, 2), MAX_EXP_STEP, inplace=True)
        out, _ = self.man.coordinate_retract(self.x, Pair(1, 3), 1e300)
        assert np.array_equal(out, apply_rotation(self.x, 1, 3, 1e300))

    def test_random_point_rejects_wide(self):
        man = make_manifold(ManifoldDescriptor("hyperbolic", (5, 2)))
        with pytest.raises(ValueError):
            man.random_point(SplitMix64(1))

    def test_lorentz_drift_over_many_steps(self):
        y = self.x.copy()
        rng = SplitMix64(60)
        basis = self.man.enumerate_basis()
        for _ in range(10_000):
            l = basis[rng.below(len(basis))]
            y, _ = self.man.coordinate_retract(y, l, 0.2 * rng.uniform() - 0.1,
                                               inplace=True)
        assert self.man.feasibility_residual(y) <= 1e-10


class TestSymplectic:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("symplectic", (3, 2)))
        x = self.man.random_point(SplitMix64(61))
        rng = SplitMix64(62)
        for l in self.man.enumerate_basis():
            x, _ = self.man.coordinate_retract(x, l, 0.1 * rng.normal(), inplace=True)
        self.x = x

    def test_canonical_point_feasible(self):
        x0 = self.man.random_point(SplitMix64(1))
        assert self.man.feasibility_residual(x0) == 0.0

    def test_scaling_pair_identity(self):
        man = make_manifold(ManifoldDescriptor("symplectic", (1, 1)))
        x = np.eye(2)
        for t in (0.3, -1.2):
            out, _ = man.coordinate_retract(x, Pair(0, 1), t)
            assert np.allclose(out, np.diag([math.exp(-t), math.exp(t)]))
            assert man.feasibility_residual(out) <= 1e-14

    def test_scaling_overflow_leaves_point_untouched(self):
        # a cross-pair step past |t| = 500 overflows before any write
        y = self.x.copy()
        with pytest.raises(OverflowError):
            self.man.coordinate_retract(y, Pair(1, 4), -600.0, inplace=True)
        assert np.array_equal(y, self.x)

    def test_omega_matrix_consistency(self):
        m = SplitMix64(63).gaussian(6, 4)
        assert np.array_equal(omega_apply(m), omega_matrix(3) @ m)

    def test_theta_matches_matrix_formula(self):
        g = SplitMix64(64).gaussian(6, 4)
        ox = omega_apply(self.x)
        full = g @ ox.T * -1.0  # G X' Omega' = -G (Omega X)'... sign check below
        # theta_ij = [G X' O' + O X G']_ij; build both terms densely
        om = omega_matrix(3)
        dense = g @ self.x.T @ om.T + om @ self.x @ g.T
        for l in self.man.enumerate_basis():
            th = self.man.coordinate_derivative(self.x, g, l)
            assert abs(th - dense[l.i, l.j]) <= 1e-12 * max(1.0, abs(th))

    def test_feasibility_drift_over_many_steps(self):
        y = self.x.copy()
        rng = SplitMix64(65)
        basis = self.man.enumerate_basis()
        for _ in range(5000):
            l = basis[rng.below(len(basis))]
            y, _ = self.man.coordinate_retract(y, l, 0.2 * rng.uniform() - 0.1,
                                               inplace=True)
        assert self.man.feasibility_residual(y) <= 1e-10

    def test_symmetric_parameter(self):
        u = random_tangent(self.man, self.x, SplitMix64(66))
        s = tangent_symmetric_parameter(self.x, u)
        assert np.linalg.norm(s - s.T) == 0.0
        assert np.linalg.norm(s @ omega_apply(self.x) - u) <= 1e-10

    def test_block_steps_feasible_and_descending(self):
        a = SplitMix64(67).gaussian(6, 4)
        f = lambda m: float(np.sum((m - a) ** 2))
        g = 2.0 * (self.x - a)
        for blk in ("upper_left", "lower_right", "diag_cross"):
            out = symplectic_block_step(self.x.copy(), blk, 1e-3, g)
            assert self.man.feasibility_residual(out) <= 1e-10
            assert f(out) < f(self.x)

    def test_block_zero_coefficients(self):
        g = np.zeros((6, 4))
        for blk in ("upper_left", "lower_right", "diag_cross"):
            out = symplectic_block_step(self.x.copy(), blk, 0.1, g)
            assert np.max(np.abs(out - self.x)) == 0.0

    def test_cross_derivatives_match_pairs(self):
        g = SplitMix64(69).gaussian(6, 4)
        w = symplectic_cross_derivatives(self.x, g)
        for i in range(3):
            th = self.man.coordinate_derivative(self.x, g, Pair(i, i + 3))
            assert abs(w[i] - th) <= 1e-12 * max(1.0, abs(th))


class TestColumnwiseBaseline:
    def setup_method(self):
        self.man = make_manifold(ManifoldDescriptor("stiefel", (7, 3)))
        self.x = self.man.random_point(SplitMix64(81))

    def test_enumeration(self):
        labels = tsd_enumerate(3)
        assert labels == [Pair(0, 1), Pair(0, 2), Pair(1, 2),
                          Column(0), Column(1), Column(2)]

    def test_pair_step_skew_vanishes_for_gradient_x(self):
        out, theta = tsd_pair_step(self.x.copy(), 0, 2, 0.1, self.x)
        assert abs(theta) <= 1e-14
        assert np.array_equal(out, self.x)

    def test_column_step_zero_projected_gradient(self):
        s = SplitMix64(82).gaussian(3, 3)
        g = self.x @ s  # columns in the span: projected gradient is 0
        out, moved = tsd_column_step(self.x.copy(), 1, 0.1, g)
        assert moved == 0.0
        assert np.array_equal(out[:, 1], self.x[:, 1])

    def test_column_step_overflow_raises_before_writing(self):
        # the step's norm overflows, where math.cos(inf) would be a bare ValueError
        y = self.x.copy()
        g = SplitMix64(85).gaussian(7, 3)
        with np.errstate(over="ignore"), pytest.raises(
                OverflowError, match=r"sphere step overflow on column 2 \(\|v\|=inf\)"):
            tsd_column_step(y, 2, 1e308, g)
        assert np.array_equal(y, self.x)

    def test_feasibility_after_mixed_steps(self):
        y = self.x.copy()
        rng = SplitMix64(83)
        labels = tsd_enumerate(3)
        for k in range(1000):
            l = labels[rng.below(len(labels))]
            g = SplitMix64(9000 + k).gaussian(7, 3)
            if isinstance(l, Pair):
                y, _ = tsd_pair_step(y, l.i, l.j, 0.05, g)
            else:
                y, _ = tsd_column_step(y, l.k, 0.05, g)
        assert self.man.feasibility_residual(y) <= 1e-12

    def test_pair_step_descends_linear_objective(self):
        c = SplitMix64(84).gaussian(7, 3)
        f0 = float(np.sum(c * self.x))
        out, theta = tsd_pair_step(self.x.copy(), 0, 1, 1e-3, c)
        if abs(theta) > 1e-12:
            assert float(np.sum(c * out)) < f0


class TestGradientCrossChecks:
    def test_grassmann_horizontal_gradient_passthrough(self):
        man = make_manifold(ManifoldDescriptor("grassmann", (8, 3)))
        x = man.random_point(SplitMix64(201))
        z = SplitMix64(202).gaussian(8, 3)
        g = z - x @ (x.T @ z)  # already horizontal
        assert np.max(np.abs(man.riemannian_gradient(x, g) - g)) <= 1e-12

    def test_hyperbolic_gradient_is_projected_metric_gradient(self):
        man = make_manifold(ManifoldDescriptor("hyperbolic", (3, 1)))
        x = man.random_point(SplitMix64(203))
        g = SplitMix64(204).gaussian(3, 1)
        grad = man.riemannian_gradient(x, g)
        jg = apply_j(g)
        proj = jg + x @ (0.5 * (x.T @ apply_j(jg) + apply_j(jg).T @ x))
        assert np.max(np.abs(grad - proj)) <= 1e-12


class TestDenseFormulaCrossChecks:
    def test_stiefel_theta_matches_matrix_entry_formula(self):
        man = make_manifold(ManifoldDescriptor("stiefel", (7, 3)))
        x = man.random_point(SplitMix64(301))
        g = SplitMix64(302).gaussian(7, 3)
        dense = g @ x.T - x @ g.T
        for l in man.enumerate_basis():
            th = man.coordinate_derivative(x, g, l)
            assert abs(th - dense[l.i, l.j]) <= 1e-13 * max(1.0, abs(th))

    def test_hyperbolic_theta_matches_matrix_entry_formula(self):
        man = make_manifold(ManifoldDescriptor("hyperbolic", (6, 1)))
        x = man.random_point(SplitMix64(303))
        g = SplitMix64(304).gaussian(6, 1)
        jmat = np.diag([-1.0] + [1.0] * 5)
        dense = g @ x.T @ jmat - jmat @ x @ g.T
        for l in man.enumerate_basis():
            th = man.coordinate_derivative(x, g, l)
            assert abs(th - dense[l.i, l.j]) <= 1e-13 * max(1.0, abs(th))
