import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manifold_cd.linalg import (
    RankDeficiencyError,
    apply_disjoint_rotations,
    apply_rotation,
    sym_eig,
    thin_qr,
    thin_svd,
)
from manifold_cd.rng import SplitMix64
from reference import frobenius_inner


class TestApplyRotation:
    def test_zero_angle_is_identity(self):
        x = np.eye(2)
        assert np.array_equal(apply_rotation(x, 0, 1, 0.0), x)

    def test_quarter_turn(self):
        out = apply_rotation(np.eye(2), 0, 1, math.pi / 2)
        assert np.allclose(out, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)

    @pytest.mark.parametrize("t", [0.3, -1.7])
    def test_hyperbolic_preserves_lorentz_form(self, t):
        out = apply_rotation(np.eye(2), 0, 1, t, kind="hyperbolic")
        j = np.diag([-1.0, 1.0])
        assert np.allclose(out.T @ j @ out, j, atol=1e-12)

    def test_untouched_rows_bitwise(self):
        x = SplitMix64(3).gaussian(7, 4)
        out = apply_rotation(x, 2, 5, 0.8)
        mask = np.ones(7, dtype=bool)
        mask[[2, 5]] = False
        assert np.array_equal(out[mask], x[mask])
        assert not np.array_equal(out[2], x[2])

    def test_right_side_touches_columns(self):
        x = SplitMix64(4).gaussian(5, 6)
        out = apply_rotation(x, 1, 4, -0.4, side="right")
        mask = np.ones(6, dtype=bool)
        mask[[1, 4]] = False
        assert np.array_equal(out[:, mask], x[:, mask])

    def test_index_errors(self):
        x = np.eye(3)
        with pytest.raises(IndexError):
            apply_rotation(x, 1, 1, 0.3)
        with pytest.raises(IndexError):
            apply_rotation(x, 0, 3, 0.3)

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_circular_orthogonality(self, theta):
        c, s = math.cos(theta), math.sin(theta)
        g = np.array([[c, s], [-s, c]])
        assert np.linalg.norm(g.T @ g - np.eye(2)) <= 1e-14

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_hyperbolic_form_invariance(self, theta):
        x = apply_rotation(np.eye(2), 0, 1, theta, kind="hyperbolic")
        j = np.diag([-1.0, 1.0])
        # the direct cosh/sinh evaluation cannot beat the float64 rounding of
        # cosh(theta)^2, which crosses 1e-12 just below |theta| = 5
        floor = 8.0 * np.finfo(float).eps * math.cosh(theta) ** 2
        assert np.linalg.norm(x.T @ j @ x - j) <= max(1e-12, floor)


class TestDisjointBatch:
    def test_matches_sequential_bitwise(self):
        rng = SplitMix64(11)
        x = rng.gaussian(16, 4)
        perm = rng.permutation(16)
        batch = []
        for k in range(8):
            i, j = sorted((int(perm[2 * k]), int(perm[2 * k + 1])))
            kind = "hyperbolic" if k % 2 else "circular"
            batch.append((i, j, rng.normal(), kind))
        got = apply_disjoint_rotations(x, batch)
        want = x.copy()
        for i, j, th, kind in batch:
            want = apply_rotation(want, i, j, th, kind=kind)
        assert np.array_equal(got, want)

    def test_order_invariance(self):
        rng = SplitMix64(12)
        x = rng.gaussian(8, 3)
        batch = [(0, 1, 0.3), (2, 3, -0.7), (4, 7, 1.2)]
        assert np.array_equal(
            apply_disjoint_rotations(x, batch),
            apply_disjoint_rotations(x, batch[::-1]),
        )

    def test_empty_batch(self):
        x = SplitMix64(13).gaussian(4, 2)
        assert np.array_equal(apply_disjoint_rotations(x, []), x)

    def test_overlap_rejected(self):
        x = np.eye(4)
        with pytest.raises(ValueError):
            apply_disjoint_rotations(x, [(0, 1, 0.1), (1, 2, 0.2)])

    def test_unknown_kind_rejected_before_any_write(self):
        x = SplitMix64(14).gaussian(4, 2)
        before = x.copy()
        for batch in ([(0, 1, 0.3, "hyperbolc"), (2, 3, 0.2)],
                      [(2, 3, 0.2), (0, 1, 0.3, "hyperbolc")]):
            with pytest.raises(ValueError, match="unknown rotation kind"):
                apply_disjoint_rotations(x, batch)
            assert np.array_equal(x, before)


class TestFrobeniusInner:
    def test_identity(self):
        assert frobenius_inner(np.eye(3), np.eye(3)) == 3.0

    def test_zero(self):
        a = SplitMix64(5).gaussian(3, 2)
        assert frobenius_inner(a, np.zeros_like(a)) == 0.0

    def test_known_value(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[4.0, 3.0], [2.0, 1.0]])
        assert frobenius_inner(a, b) == 20.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_inner(np.eye(2), np.eye(3))


class TestThinQr:
    def test_orthonormal_input_fixed_point(self):
        a = np.eye(5)[:, :3]
        q, r = thin_qr(a)
        assert np.array_equal(q, a)
        assert np.allclose(r, np.eye(3))

    def test_diagonal_rectangle(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        q, r = thin_qr(a)
        assert np.allclose(q, np.eye(3)[:, :2])
        assert np.allclose(r, np.diag([2.0, 3.0]))

    def test_reconstruction_seed1(self):
        a = SplitMix64(1).gaussian(6, 3)
        q, r = thin_qr(a)
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a) + 1e-13
        assert np.all(np.diagonal(r) >= 0.0)
        assert np.allclose(r, np.triu(r))

    def test_rank_deficiency(self):
        a = np.ones((4, 2))
        with pytest.raises(RankDeficiencyError):
            thin_qr(a)

    @pytest.mark.parametrize("pivot, full_rank", [(1e-10, True), (1e-13, False)])
    def test_rank_threshold_is_1e_12_of_the_norm(self, pivot, full_rank):
        # the threshold is 1e-12 * ||a|| = 1.4e-12 here
        a = np.eye(4)[:, :3]
        a[2, 2] = pivot
        if full_rank:
            q, r = thin_qr(a)
            assert np.array_equal(np.abs(np.diagonal(r)), [1.0, 1.0, pivot])
        else:
            with pytest.raises(RankDeficiencyError):
                thin_qr(a)

    def test_rank_deficiency_is_a_linalg_error(self):
        # the epoch loop reports a LinAlgError as a refused step; existing
        # ``except ValueError`` callers still catch it
        assert issubclass(RankDeficiencyError, np.linalg.LinAlgError)
        assert issubclass(RankDeficiencyError, ValueError)

    def test_large_random_reconstruction(self):
        a = SplitMix64(9).gaussian(200, 200)
        q, r = thin_qr(a)
        assert np.linalg.norm(q @ r - a) <= 1e-10 * np.linalg.norm(a)


class TestSymEig:
    def test_diagonal(self):
        v, lam = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(lam, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_identity(self):
        _, lam = sym_eig(np.eye(4))
        assert np.allclose(lam, 1.0)

    def test_construct_then_recover(self):
        q, _ = thin_qr(SplitMix64(21).gaussian(3, 3))
        lam_true = np.array([1.0, 10.0, 100.0])
        a = q @ np.diag(lam_true) @ q.T
        v, lam = sym_eig(0.5 * (a + a.T))
        assert np.max(np.abs(lam - lam_true)) <= 1e-10
        assert np.linalg.norm(a @ v - v @ np.diag(lam)) <= 1e-10

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_large_reconstruction(self):
        z = SplitMix64(22).gaussian(150, 150)
        a = 0.5 * (z + z.T)
        v, lam = sym_eig(a)
        assert np.linalg.norm(v @ np.diag(lam) @ v.T - a) <= 1e-10 * np.linalg.norm(a)


class TestThinSvd:
    def test_diagonal(self):
        u, s, v = thin_svd(np.diag([5.0, 2.0]))
        assert np.allclose(s, [5.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2))
        assert np.allclose(np.abs(v), np.eye(2))

    def test_zero_matrix(self):
        u, s, v = thin_svd(np.zeros((3, 2)))
        assert np.array_equal(s, np.zeros(2))
        assert np.array_equal(u, np.eye(3, 2))
        assert np.array_equal(v, np.eye(2))

    def test_reconstruction_seed2(self):
        a = SplitMix64(2).gaussian(8, 5)
        u, s, v = thin_svd(a)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - a) <= 1e-10
        assert np.linalg.norm(u.T @ u - np.eye(5)) <= 1e-11
        assert np.linalg.norm(v.T @ v - np.eye(5)) <= 1e-11
        assert np.all(np.diff(s) <= 0.0)
        assert np.all(s >= 0.0)
