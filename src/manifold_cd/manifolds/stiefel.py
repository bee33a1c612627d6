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

from ..flops import NONFINITE_DERIVATIVE, ZERO_DERIVATIVE_SKIP, StepRefused, step_overflow
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

    def anchored_sweep(self, labels, n_inner, selection):
        return pivot_row_sweep(self, labels) if selection == "cyclic" else None


class Grassmann(Stiefel):
    family = "grassmann"

    def riemannian_gradient(self, x, g):
        return g - x @ (x.T @ g)


def pivot_row_sweep(man: Manifold, labels: list):
    """One anchored cyclic epoch on the Stiefel or Grassmann family, run by
    run: ``coordinate_step``'s arithmetic, bitwise, in fewer numpy calls.
    ``rcdlin`` with cyclic selection takes each epoch so unless the trace
    records every step; every other config steps label by label through
    ``coordinate_step``, the reference this path is tested against.

    A run is a maximal stretch of the epoch's positions that steps the labels
    (i, j0), (i, j0+1), ..., (i, j1-1): it breaks where a position does not
    follow the one before it (the cyclic order's wrap, or a repeated label at
    n = 2) and where a label opens a new pivot row or skips a partner.
    Within a run every partner row is read before it moves and moves once,
    and the anchored carrier d does not move.  So d[i].x[j] is one
    ``np.vecdot`` for the run, a step updates only the pivot row, and the
    partners' halves c*x[j] - s*x[i] (x[i] as it was before that step) are
    written as one batch when the run ends: the same products and sums in the
    same order, and ``np.vecdot`` of contiguous rows rounds as the per-row
    ``ndarray.dot`` does (``@`` does not).  A non-finite derivative or angle
    inside a run raises ``StepRefused`` with ``coordinate_step``'s reason and
    the step s it reached.  The anchored carrier needs no upkeep."""
    # opens[m]: label m does not continue label m-1's pivot row
    opens = np.array([True] + [l.i != prev.i or l.j != prev.j + 1
                               for prev, l in zip(labels, labels[1:])])
    dflops, uflops = man.flop_parts(labels[0])
    scale = man.step_scale

    def sweep(x, d, pos, eta):
        breaks = opens[pos]
        breaks[1:] |= pos[1:] != pos[:-1] + 1
        breaks[0] = True
        firsts = breaks.nonzero()[0]
        starts = firsts.tolist()
        t_per_theta = -scale * eta
        moving = 0
        for s0, s1, m in zip(starts, starts[1:] + [len(pos)], pos[firsts].tolist()):
            i, j0 = labels[m]
            j1 = j0 + s1 - s0
            partners = x[j0:j1]
            a = np.vecdot(d[i], partners).tolist()
            xi = x[i]
            moved, cs, ss, pivots = [], [], [], []
            for s, j, aj, dj, xj in zip(range(s0, s1), range(j0, j1), a,
                                        d[j0:j1], partners):
                theta = aj - float(dj.dot(xi))
                if not math.isfinite(theta):
                    raise StepRefused(NONFINITE_DERIVATIVE, s)
                if abs(theta) >= ZERO_DERIVATIVE_SKIP:
                    moving += 1
                    t = t_per_theta * theta
                    if not math.isfinite(t):
                        raise StepRefused(step_overflow(t), s)
                    if t != 0.0:
                        c, sn = math.cos(t), math.sin(t)
                        moved.append(j)
                        cs.append(c)
                        ss.append(sn)
                        pivots.append(xi)
                        xi = c * xi + sn * xj
            if moved:
                c = np.array(cs)[:, None]
                sn = np.array(ss)[:, None]
                x[moved] = c * x[moved] - sn * np.array(pivots)
                x[i] = xi
        return x, len(pos) * dflops + moving * uflops, 0, 0

    return sweep


# -- column-wise baseline ----------------------------------------------------


def tsd_enumerate(p: int) -> list[CoordinateIndex]:
    """Column-pair rotations first, then the p sphere columns."""
    out: list[CoordinateIndex] = [Pair(i, j) for i in range(p) for j in range(i + 1, p)]
    out.extend(Column(k) for k in range(p))
    return out


def tsd_pair_derivative(x: np.ndarray, g: np.ndarray, i: int, j: int) -> float:
    return float(np.dot(g[:, j], x[:, i]) - np.dot(g[:, i], x[:, j]))


def tsd_pair_step(x, i, j, eta, g):
    """Column-pair rotation step on ``x``, in place; an infinite angle
    raises OverflowError before the write."""
    theta = tsd_pair_derivative(x, g, i, j)
    if theta == 0.0:
        return x, theta
    if not math.isfinite(eta * theta):
        raise OverflowError(f"rotation angle overflow on columns {i}, {j} "
                            f"(|t|={abs(eta * theta):.3g})")
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
    if not math.isfinite(r):
        raise OverflowError(f"sphere step overflow on column {k} (|v|={r:.3g})")
    if r < 1e-14:
        return x, 0.0
    x[:, k] = math.cos(r) * x[:, k] + (math.sin(r) / r) * v
    return x, r


def tsd_flop_parts(l: CoordinateIndex, n: int, p: int) -> tuple[int, int]:
    if isinstance(l, Pair):
        return 4 * n, 6 * n
    return 4 * n * p + n, 6 * n + 9
