"""Symplectic manifold: 2n x 2p matrices with X' O X = O_p, O the canonical
skew form [[0, I], [-I, 0]].

Rows 0..n-1 are the "q" block and rows n..2n-1 the "p" block; the form is
applied by swap-and-negate, never materialized.  The coordinate basis is the
symmetric pair family over 0 <= i <= j < 2n.  A coordinate step is additive
(exactly symplectic: the generating matrix squares to zero so the matrix
exponential truncates) except when j = i + n, which exponentiates to a
reciprocal scaling of rows i and i + n.  The cross-pair test is exact integer
equality.

scipy is imported inside ``Symplectic.full_retract``, the only caller of
``expm``, so coordinate-descent runs never pay for loading it.
"""

from __future__ import annotations

import math

import numpy as np

from ..flops import MAX_EXP_STEP
from ..indices import Pair
from ..linalg import sym_eig
from ..rng import SplitMix64
from .base import Manifold


def omega_apply(m: np.ndarray) -> np.ndarray:
    """O_k @ m for a 2k-row matrix: (top, bottom) -> (bottom, -top)."""
    k = m.shape[0] // 2
    return np.vstack((m[k:], -m[:k]))


def omega_matrix(k: int) -> np.ndarray:
    out = np.zeros((2 * k, 2 * k))
    out[:k, k:] = np.eye(k)
    out[k:, :k] = -np.eye(k)
    return out


class Symplectic(Manifold):
    family = "symplectic"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n, self.p = descriptor.dims
        self._basis = [
            Pair(i, j) for i in range(2 * self.n) for j in range(i, 2 * self.n)
        ]
        self._omega_p = omega_matrix(self.p)

    @property
    def ambient_shape(self):
        return (2 * self.n, 2 * self.p)

    def feasibility_residual(self, x):
        self.check_shape(x)
        return float(np.linalg.norm(x.T @ omega_apply(x) - self._omega_p))

    def riemannian_gradient(self, x, g):
        """Euclidean-metric gradient g - O x W, with W the skew solution of
        the Lyapunov equation (x'x) W + W (x'x) = 2 skew(x' O' g)."""
        xtx = x.T @ x
        q = x.T @ omega_apply(g)  # x' O g; note O' = -O
        rhs = -(q - q.T)  # 2 skew(x' O' g)
        v, lam = sym_eig(xtx)
        denom = lam[:, None] + lam[None, :]
        if np.min(np.abs(denom)) < 1e-14 * max(1.0, float(lam[-1])):
            raise np.linalg.LinAlgError("Lyapunov system for the gradient is singular")
        w = v @ ((v.T @ rhs @ v) / denom) @ v.T
        return g - omega_apply(x) @ w

    def _orow(self, x, k):
        """Row k of O x without forming the product."""
        n = self.n
        return x[k + n] if k < n else -x[k - n]

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        if i == j:
            return 2.0 * float(np.dot(d[i], self._orow(x, i)))
        return float(np.dot(d[i], self._orow(x, j)) + np.dot(d[j], self._orow(x, i)))

    def _retract(self, out, l, t):
        i, j = l
        if j == i + self.n:
            if abs(t) > MAX_EXP_STEP:
                raise OverflowError(f"scaling step overflow (|t|={abs(t):.3g})")
            out[i] = math.exp(-t) * out[i]
            out[j] = math.exp(t) * out[j]
        elif i == j:
            out[i] = out[i] + (2.0 * t) * self._orow(out, i)
        else:
            new_i = out[i] + t * self._orow(out, j)
            new_j = out[j] + t * self._orow(out, i)
            out[i] = new_i
            out[j] = new_j
        return False

    def full_retract(self, x, u, t):
        from scipy.linalg import expm

        s = tangent_symmetric_parameter(x, u)
        s_omega = np.hstack((-s[:, self.n:], s[:, :self.n]))  # s @ O
        return expm(t * s_omega) @ x

    def flop_parts(self, l):
        i, j = l
        p2 = 2 * self.p
        if i == j:
            return 2 * p2 + 1, 2 * p2 + 1
        if j == i + self.n:
            return 4 * p2, 2 * p2 + 17
        return 4 * p2, 4 * p2

    def rgd_flops(self):
        n, p = 2 * self.n, 2 * self.p
        # Lyapunov solve ~ 12 p^3 + 4 n p^2, projection 4 n p^2 + n p,
        # symmetric parameter ~ 6 n^2 p, expm ~ 20 n^3
        return 12 * p**3 + 8 * n * p * p + n * p + 6 * n * n * p + 20 * n**3

    def materialize_basis(self, x, l):
        i, j = l
        ox = omega_apply(x)
        b = np.zeros_like(x)
        if i == j:
            b[i] = 2.0 * ox[i]
        else:
            b[i] = ox[j]
            b[j] = ox[i]
        return b

    def random_point(self, rng: SplitMix64):
        """Canonical embedding: columns (e_0..e_{p-1}, e_n..e_{n+p-1}) of I."""
        n, p = self.n, self.p
        x = np.zeros((2 * n, 2 * p))
        for k in range(p):
            x[k, k] = 1.0
            x[n + k, p + k] = 1.0
        return x


def tangent_symmetric_parameter(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The symmetric S with S O x = u for a tangent u at x.

    Built from m0 = u O_p' x' (a non-symmetric solution) and the idempotent
    pi = O x O_p' x': S = m0 + m0'(I - pi) is symmetric exactly when u is
    tangent; a final symmetrization absorbs roundoff.
    """
    p = u.shape[1] // 2
    # u @ O_p' : (left, right) -> (right, -left) on column blocks
    u_opt = np.hstack((u[:, p:], -u[:, :p]))
    m0 = u_opt @ x.T
    ox = omega_apply(x)
    x_opt = np.hstack((-x[:, p:], x[:, :p]))
    pi = ox @ x_opt.T
    s = m0 + m0.T @ (np.eye(x.shape[0]) - pi)
    return 0.5 * (s + s.T)


def symplectic_cross_derivatives(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coordinate derivatives along the n cross pairs (i, i + n)."""
    n = x.shape[0] // 2
    return np.sum(g[n:] * x[n:], axis=1) - np.sum(g[:n] * x[:n], axis=1)


def symplectic_block_step(
    x: np.ndarray,
    block,
    eta: float,
    g: np.ndarray,
):
    """One block coordinate step on ``x``, in place.

    ``block`` is "upper_left", "lower_right" or "diag_cross".  Corner blocks
    move additively along E O x with E the matrix of coordinate derivatives
    over the block (exactly symplectic: the generator is nilpotent).  The
    cross-diagonal block applies the reciprocal scaling diag(exp(-t u),
    exp(t u)) with u the cross-pair derivative vector, so feasibility is
    exact.
    """
    n = x.shape[0] // 2
    t = -eta
    if block == "upper_left":
        m = g[:n] @ x[n:].T  # upper-left block of G (O X)'
        x[:n] = x[:n] + t * ((m + m.T) @ x[n:])
        return x
    if block == "lower_right":
        m = -(g[n:] @ x[:n].T)  # lower-right block of G (O X)'
        x[n:] = x[n:] - t * ((m + m.T) @ x[:n])
        return x
    if block != "diag_cross":
        raise ValueError(f"unknown block {block!r}")
    u = symplectic_cross_derivatives(x, g)
    x[:n] = np.exp(-t * u)[:, None] * x[:n]
    x[n:] = np.exp(t * u)[:, None] * x[n:]
    return x
