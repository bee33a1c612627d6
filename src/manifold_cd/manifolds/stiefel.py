"""Stiefel and Grassmann manifolds with row-rotation coordinate updates.

Points are n x p matrices with orthonormal columns.  The coordinate basis is
the family of row-pair skew directions: B_(i,j) has row i equal to row j of X
and row j equal to minus row i of X.  Retracting along B_(i,j) is a plane
rotation of rows i and j, so a coordinate step touches 2p entries.

A Grassmann point is a Stiefel representative of its column span; the
coordinate update commutes with the right action of the orthogonal group, so
the same step functions serve both families (only the Riemannian gradient
differs: horizontal projection instead of tangent projection).

The column-wise baseline (tsd_* functions) uses the alternative basis of
column-pair rotations plus per-column sphere steps; it is kept for benchmark
comparisons only.
"""

from __future__ import annotations

import math

import numpy as np

from ..indices import Column, CoordinateIndex, Pair
from ..linalg import apply_rotation, thin_qr
from ..rng import SplitMix64
from .base import Manifold


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def enumerate_pairs(n: int) -> list[Pair]:
    return [Pair(i, j) for i in range(n) for j in range(i + 1, n)]


class Stiefel(Manifold):
    family = "stiefel"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n, self.p = descriptor.dims
        self._basis = enumerate_pairs(self.n)

    def feasibility_residual(self, x):
        self.check_shape(x)
        return float(np.linalg.norm(x.T @ x - np.eye(self.p)))

    def riemannian_gradient(self, x, g):
        return g - x @ _sym(x.T @ g)

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        return float(d[i].dot(x[j]) - d[j].dot(x[i]))

    def _retract(self, out, l, t):
        i, j = l
        apply_rotation(out, i, j, t, "left", "circular", inplace=True)
        return False

    def full_retract(self, x, u, t):
        q, _ = thin_qr(x + t * u)
        return q

    def flop_parts(self, l):
        return 4 * self.p, 6 * self.p

    def rgd_flops(self):
        n, p = self.n, self.p
        # tangent projection 4np^2 + p^2 + np, step 2np, thin QR 2np^2
        return 6 * n * p * p + p * p + 3 * n * p

    def materialize_basis(self, x, l):
        i, j = l
        b = np.zeros_like(x)
        b[i] = x[j]
        b[j] = -x[i]
        return b

    def random_point(self, rng: SplitMix64):
        q, _ = thin_qr(rng.gaussian(self.n, self.p))
        return q


class Grassmann(Stiefel):
    family = "grassmann"

    def riemannian_gradient(self, x, g):
        return g - x @ (x.T @ g)


# -- column-wise baseline ----------------------------------------------------


def tsd_enumerate(p: int) -> list[CoordinateIndex]:
    """Column-pair rotations first, then the p sphere columns."""
    out: list[CoordinateIndex] = [Pair(i, j) for i in range(p) for j in range(i + 1, p)]
    out.extend(Column(k) for k in range(p))
    return out


def tsd_pair_derivative(x: np.ndarray, g: np.ndarray, i: int, j: int) -> float:
    return float(np.dot(g[:, j], x[:, i]) - np.dot(g[:, i], x[:, j]))


def tsd_pair_step(x, i, j, eta, g):
    """Column-pair rotation step on ``x``, in place."""
    theta = tsd_pair_derivative(x, g, i, j)
    if theta == 0.0:
        return x, theta
    # X @ G_ij(-eta*theta) recombines columns with the opposite sign convention
    return apply_rotation(x, i, j, eta * theta, "right", "circular", inplace=True), theta


def tsd_column_step(x, k, eta, g):
    """Sphere step on column k along the projected gradient, in place.

    Skipped when the projected gradient norm is below 1e-14 (the sphere
    exponential is singular at zero).
    """
    gk = g[:, k]
    v = -eta * (gk - x @ (x.T @ gk))
    r = float(np.linalg.norm(v))
    if r < 1e-14:
        return x, 0.0
    x[:, k] = math.cos(r) * x[:, k] + (math.sin(r) / r) * v
    return x, r


def tsd_flop_parts(l: CoordinateIndex, n: int, p: int) -> tuple[int, int]:
    if isinstance(l, Pair):
        return 4 * n, 6 * n
    return 4 * n * p + n, 6 * n + 9
