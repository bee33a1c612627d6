"""Doubly stochastic and multinomial manifolds (Fisher metric).

A doubly stochastic point is a strictly positive m x n matrix with row sums
mu and column sums nu.  The coordinate basis is the difference-pattern
B_(i,j) = (e_i - e_{i+1})(e_j - e_{j+1})', so a coordinate retraction
perturbs one 2x2 sub-matrix multiplicatively and rebalances it to its own
row/column sums -- a two-by-two Sinkhorn problem with a closed-form solution
(the positive root of a quadratic).  Everything outside the sub-matrix is
untouched, so global feasibility is preserved to roundoff.

The multinomial manifold (rows are independent positive simplex points) uses
B_(i,j) = e_i (e_j - e_{j+1})': a step reweights two entries of one row and
renormalizes the pair to its previous mass.

Positivity protection: exponent magnitudes are clamped at EXP_CLAMP before
exponentiation, and perturbed entries are floored at POSITIVITY_FLOOR times
the local block/pair mass before rebalancing (entries otherwise underflow
after long random walks toward the polytope boundary); a retraction that
clamps or floors returns ``clamped`` True.
"""

from __future__ import annotations

import math

import numpy as np

from ..indices import Entry
from ..rng import SplitMix64
from .base import Manifold

EXP_CLAMP = 30.0
POSITIVITY_FLOOR = 1e-12  # relative to the local (block or pair) mass

_BLOCK_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def sinkhorn_2x2(block: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """Balance a positive 2x2 matrix to row sums p and column sums q.

    The scaling ratio kappa solves
        q2*a*c*kappa^2 + ((b*c + a*d)*q2 - b*c*p1 - a*d*p2)*kappa - b*d*q1 = 0
    and the balanced matrix is [[c11*a, c12*b], [c21*c, c22*d]] with
    c12 = p1/(kappa*a + b), c22 = p2/(kappa*c + d), c11 = kappa*c12,
    c21 = kappa*c22.  The quadratic is solved in the cancellation-stable
    form; if the leading coefficient underflows relative to the linear one
    the equation is treated as linear.
    """
    a, b = float(block[0, 0]), float(block[0, 1])
    c, d = float(block[1, 0]), float(block[1, 1])
    p1, p2 = float(p[0]), float(p[1])
    q1, q2 = float(q[0]), float(q[1])
    if min(a, b, c, d) <= 0.0:
        raise ValueError("sinkhorn_2x2 needs strictly positive entries")
    if min(p1, p2, q1, q2) <= 0.0:
        raise ValueError("sinkhorn_2x2 needs strictly positive marginals")
    if abs((p1 + p2) - (q1 + q2)) > 1e-12 * (p1 + p2):
        raise ValueError("marginal masses disagree")
    qa = q2 * a * c
    qb = (b * c + a * d) * q2 - b * c * p1 - a * d * p2
    qc = -b * d * q1
    if qb > 0.0 and qa < 1e-14 * qb:
        kappa = -qc / qb
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            raise ValueError("no positive root: marginals are infeasible")
        sign = 1.0 if qb >= 0.0 else -1.0
        hold = -(qb + sign * math.sqrt(disc)) / 2.0
        roots = (hold / qa, qc / hold) if hold != 0.0 else (0.0, 0.0)
        kappa = max(roots)
    if kappa <= 0.0:
        raise ValueError("no positive root: marginals are infeasible")
    c12 = p1 / (kappa * a + b)
    c22 = p2 / (kappa * c + d)
    out = np.array([
        [kappa * c12 * a, c12 * b],
        [kappa * c22 * c, c22 * d],
    ])
    # normalization sweeps polish away the precision the root computation
    # loses to cancellation on near-balanced inputs; those are exactly the
    # inputs where alternate scaling contracts fastest, so this exits early
    pv = np.array([p1, p2])
    qv = np.array([q1, q2])
    for _ in range(50):
        out *= (pv / out.sum(axis=1))[:, None]
        out *= qv / out.sum(axis=0)
        if np.max(np.abs(out.sum(axis=1) - pv)) <= 1e-15 * (p1 + p2):
            break
    return out


def full_sinkhorn(
    u: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    tol: float = 1e-12,
    max_iters: int = 10_000,
) -> np.ndarray:
    """Alternating row/column normalization to the prescribed marginals."""
    if not np.all((u > 0.0) & (u < math.inf)):
        raise ValueError("full_sinkhorn needs a strictly positive finite matrix")
    x = u.copy()
    for sweeps in range(max_iters + 1):
        row_err = np.max(np.abs(x.sum(axis=1) - mu))
        col_err = np.max(np.abs(x.sum(axis=0) - nu))
        if row_err <= tol and col_err <= tol:
            return x
        if sweeps == max_iters:
            raise RuntimeError(f"sinkhorn stalled: residual {max(row_err, col_err):.3e}")
        x *= (mu / x.sum(axis=1))[:, None]
        x *= nu / x.sum(axis=0)


def _fisher_gradient_norm(man: Manifold, x: np.ndarray, g: np.ndarray) -> float:
    """Fisher-metric norm sqrt(sum(u^2 / x)) of the Riemannian gradient u:
    both families' ``gradient_norm``."""
    u = man.riemannian_gradient(x, g)
    return float(math.sqrt(np.sum(u * u / x)))


class DoublyStochastic(Manifold):
    family = "doubly_stochastic"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.m, self.n = descriptor.dims
        self.mu = descriptor.mu
        self.nu = descriptor.nu
        self._basis = [
            Entry(i, j) for i in range(self.m - 1) for j in range(self.n - 1)
        ]

    def feasibility_residual(self, x):
        self.check_shape(x)
        row = x.sum(axis=1) - self.mu
        col = x.sum(axis=0) - self.nu
        neg = np.minimum(x, 0.0)
        return float(math.sqrt(row @ row + col @ col + np.sum(neg * neg)))

    def riemannian_gradient(self, x, g):
        """Fisher-metric gradient x * (g - alpha 1' - 1 beta'), where
        (alpha, beta) solve the marginal system with beta[-1] pinned to 0
        (the system is rank-deficient by one; any pinning yields the same
        gradient because the two shifts cancel)."""
        alpha, beta = self._dual_potentials(x, g)
        return x * (g - alpha[:, None] - beta[None, :])

    def _dual_potentials(self, x, g):
        m, n = self.m, self.n
        a = x * g
        rhs = np.concatenate([a.sum(axis=1), a.sum(axis=0)[:-1]])
        sys = np.zeros((m + n - 1, m + n - 1))
        sys[:m, :m] = np.diag(self.mu)
        sys[:m, m:] = x[:, :-1]
        sys[m:, :m] = x[:, :-1].T
        sys[m:, m:] = np.diag(self.nu[:-1])
        sol = np.linalg.solve(sys, rhs)
        alpha = sol[:m]
        beta = np.concatenate([sol[m:], [0.0]])
        return alpha, beta

    gradient_norm = _fisher_gradient_norm

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        return float(d[i, j] - d[i, j + 1] - d[i + 1, j] + d[i + 1, j + 1])

    def _retract(self, out, l, t):
        i, j = l
        block = out[i:i + 2, j:j + 2]
        expo = t * _BLOCK_SIGNS / block
        clamped = bool(np.max(np.abs(expo)) > EXP_CLAMP)
        if clamped:
            expo = np.clip(expo, -EXP_CLAMP, EXP_CLAMP)
        p = block.sum(axis=1)
        q = block.sum(axis=0)
        w = block * np.exp(expo)
        floor = POSITIVITY_FLOOR * float(p[0] + p[1])
        if np.min(w) < floor:
            w = np.maximum(w, floor)
            clamped = True
        out[i:i + 2, j:j + 2] = sinkhorn_2x2(w, p, q)
        return clamped

    def full_retract(self, x, u, t):
        try:
            return full_sinkhorn(x * np.exp(t * u / x), self.mu, self.nu)
        except (ValueError, RuntimeError) as exc:  # an entry under/overflowed, or a stall
            raise FloatingPointError(str(exc)) from exc

    def flop_parts(self, l):
        return 3, 122

    def rgd_flops(self):
        m, n = self.m, self.n
        k = m + n - 1
        # dual-potential solve ~ (2/3)k^3 + assembly, projection 4mn,
        # retraction (exp + two balancing passes) ~ 12mn
        return (2 * k**3) // 3 + 4 * m * n + 12 * m * n

    def materialize_basis(self, x, l):
        i, j = l
        b = np.zeros_like(x)
        b[i:i + 2, j:j + 2] = _BLOCK_SIGNS
        return b

    def random_point(self, rng: SplitMix64):
        u = np.exp(0.3 * rng.gaussian(self.m, self.n))
        return full_sinkhorn(u, self.mu, self.nu)


class Multinomial(Manifold):
    family = "multinomial"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n, self.p = descriptor.dims
        self._basis = [
            Entry(i, j) for i in range(self.n) for j in range(self.p - 1)
        ]

    def feasibility_residual(self, x):
        self.check_shape(x)
        return float(np.linalg.norm(x.sum(axis=1) - 1.0))

    def riemannian_gradient(self, x, g):
        a = x * g
        return a - a.sum(axis=1, keepdims=True) * x

    gradient_norm = _fisher_gradient_norm

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        return float(d[i, j] - d[i, j + 1])

    def _retract(self, out, l, t):
        i, j = l
        x1, x2 = out[i, j], out[i, j + 1]
        e1, e2 = t / x1, -t / x2
        clamped = bool(max(abs(e1), abs(e2)) > EXP_CLAMP)
        if clamped:
            e1 = min(max(e1, -EXP_CLAMP), EXP_CLAMP)
            e2 = min(max(e2, -EXP_CLAMP), EXP_CLAMP)
        w1 = x1 * math.exp(e1)
        w2 = x2 * math.exp(e2)
        floor = POSITIVITY_FLOOR * (x1 + x2)
        if w1 < floor or w2 < floor:
            w1 = max(w1, floor)
            w2 = max(w2, floor)
            clamped = True
        scale = (x1 + x2) / (w1 + w2)
        out[i, j] = w1 * scale
        out[i, j + 1] = w2 * scale
        return clamped

    def full_retract(self, x, u, t):
        w = x * np.exp(t * u / x)
        return w / w.sum(axis=1, keepdims=True)

    def flop_parts(self, l):
        return 1, 26

    def rgd_flops(self):
        n, p = self.n, self.p
        return 4 * n * p + 12 * n * p

    def materialize_basis(self, x, l):
        i, j = l
        b = np.zeros_like(x)
        b[i, j] = 1.0
        b[i, j + 1] = -1.0
        return b

    def random_point(self, rng: SplitMix64):
        w = np.exp(0.5 * rng.gaussian(self.n, self.p))
        return w / w.sum(axis=1, keepdims=True)
