"""Generalized hyperbolic manifold: -X' J X = I with J = diag(-1, 1, ..., 1).

Row 0 is the time row; J is never materialized (formulas flip the sign of
row 0 where needed).  The coordinate basis pairs rows (i, j): for i >= 1 the
retraction is an ordinary plane rotation, for i = 0 a hyperbolic rotation
(cosh/sinh), so every coordinate step touches 2p entries and preserves the
Lorentz constraint exactly up to roundoff.

Note on dimensions: the Lorentz form has a single timelike direction, so the
constraint -X' J X = I_p admits real solutions only for p = 1 (no two
J-orthogonal columns can both be timelike-normalized).  The formulas below
are valid for any (n, p) -- the rotations preserve X' J X whatever its
value -- and the feasible family is exercised at p = 1.  ``random_point``
therefore refuses p > 1.

scipy is imported inside ``Hyperbolic.full_retract``, the only caller of
``expm``, so coordinate-descent runs never pay for loading it.
"""

from __future__ import annotations

import numpy as np

from ..flops import MAX_EXP_STEP
from ..indices import Pair
from ..linalg import apply_rotation
from ..rng import SplitMix64
from .base import Manifold
from .stiefel import _sym, enumerate_pairs


def apply_j(m: np.ndarray) -> np.ndarray:
    """J @ m: flip the sign of row 0."""
    out = m.copy()
    out[0] = -out[0]
    return out


class Hyperbolic(Manifold):
    family = "hyperbolic"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n, self.p = descriptor.dims
        self._basis = enumerate_pairs(self.n)

    def feasibility_residual(self, x):
        self.check_shape(x)
        return float(np.linalg.norm(-x.T @ apply_j(x) - np.eye(self.p)))

    def riemannian_gradient(self, x, g):
        return apply_j(g) + x @ _sym(x.T @ g)

    def gradient_norm(self, x, g):
        u = self.riemannian_gradient(x, g)
        val = float(np.sum(u * apply_j(u)))
        return float(np.sqrt(max(val, 0.0)))

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        if i == 0:
            return float(d[0].dot(x[j]) + d[j].dot(x[0]))
        return float(d[i].dot(x[j]) - d[j].dot(x[i]))

    def _retract(self, out, l, t):
        i, j = l
        if i == 0 and abs(t) > MAX_EXP_STEP:
            raise OverflowError(f"hyperbolic rotation overflow (|t|={abs(t):.3g})")
        kind = "hyperbolic" if i == 0 else "circular"
        apply_rotation(out, i, j, t, "left", kind, inplace=True)
        return False

    def full_retract(self, x, u, t):
        from scipy.linalg import expm

        w = tangent_skew_parameter(x, u)
        wj = w * _j_diag(self.n)[np.newaxis, :]
        return expm(t * wj) @ x

    def flop_parts(self, l):
        return 4 * self.p, 6 * self.p

    def rgd_flops(self):
        n, p = self.n, self.p
        # projection 4np^2 + n p + p^2, skew parameter ~6n^2 p, expm ~20 n^3
        return 4 * n * p * p + n * p + p * p + 6 * n * n * p + 20 * n**3

    def materialize_basis(self, x, l):
        i, j = l
        jx = apply_j(x)
        b = np.zeros_like(x)
        b[i] = jx[j]
        b[j] = -jx[i]
        return b

    def random_point(self, rng: SplitMix64):
        if self.p != 1:
            raise ValueError(
                "the Lorentz constraint admits feasible points only for p = 1"
            )
        v = rng.gaussian(self.n, 1)
        v[0, 0] = 0.0
        return lift_to_hyperboloid(v)

    def time_cyclic_basis(self):
        return [Pair(0, j) for j in range(1, self.n)]


def _j_diag(n: int) -> np.ndarray:
    d = np.ones(n)
    d[0] = -1.0
    return d


def lift_to_hyperboloid(v: np.ndarray) -> np.ndarray:
    """Map a spatial tangent vector at (1, 0, ..., 0) onto the hyperboloid."""
    base = np.zeros_like(v)
    base[0] = 1.0
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return base
    return np.cosh(r) * base + (np.sinh(r) / r) * v


def tangent_skew_parameter(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The skew matrix W with W J x = u for a tangent u at x."""
    n = x.shape[0]
    jx = apply_j(x)
    p_x = np.eye(n) + 0.5 * jx @ x.T
    return x @ u.T @ p_x - p_x.T @ u @ x.T
