"""Fixed-rank SPSD matrices (factored) and the SPD manifold under the
Bures-Wasserstein metric.

The factored family represents X = Y Y' by its full-column-rank factor Y;
the factor space is open, so the retraction is plain addition and the
entry basis e_i e_j' is orthonormal.  The coordinate derivative is the
(i, j) entry of the factored gradient (g + g') y; a coordinate step changes
exactly one entry of Y.

Under an anchored gradient a step at (i, j) reads r[i, j] of the carrier
r = 2 sym(g) y and writes y[i, j] and column j of r, so the columns are
independent chains, and of r an epoch only ever reads the entries r[i_f, j]
of a column's later steps f.  ``column_chain_sweep`` keeps just those, as
Python floats, and adds the earlier steps' fix-ups to them in step order:
each is the correctly rounded product and sum that ``update_carrier``'s
column update makes of that element, so the sweep is bitwise the
label-by-label path while the rest of r, which nothing reads before the
next re-anchor, is never updated.  Of sym(g) the sweep converts only the
entries gs[i_f, i_u] that pair a step f with an earlier step u of its
column, so its work per step follows the column's chain, not n.

The sweep costs a fixed set-up per epoch plus, per step, an interpreted
multiply-add for each earlier moving step of its column: an epoch of S steps
over p columns does about S^2 / (2p) of them, against S n-element column
updates on the label path.  So the family offers it only for epochs of at
least ``SWEEP_MIN_STEPS`` steps whose mean column chain S / p is at most
``SWEEP_MAX_CHAIN`` steps, bounds set from the crossovers measured against
the label path (``BENCH_23.json``, ``crossover``); past them the label path
is the faster.

The BW family works on the SPD matrix itself.  The basis direction for the
pair (i, j) is B = E_ij X + X E_ij (E_ij the symmetric unit pair, with
E_ii = 2 e_i e_i'); the retraction along t B is the metric exponential
X + t B + t^2 E_ij X E_ij = (I + t E_ij) X (I + t E_ij), which touches only
rows and columns i and j and stays positive definite whenever I + t E_ij is
nonsingular.  The published descent update uses parameter -2 eta theta, so
``step_scale`` is 2.
"""

from __future__ import annotations

import math

import numpy as np

from ..flops import NONFINITE_DERIVATIVE, ZERO_DERIVATIVE_SKIP, StepRefused, step_overflow
from ..indices import Entry, Pair
from ..linalg import sym_eig
from ..rng import SplitMix64
from .base import Manifold

# When the column-chain sweep beats the label-by-label path (module docstring)
SWEEP_MIN_STEPS = 32
SWEEP_MAX_CHAIN = 32


class FactoredSpsd(Manifold):
    family = "spsd_factored"

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n, self.p = descriptor.dims
        self._basis = [Entry(i, j) for i in range(self.n) for j in range(self.p)]

    @property
    def gradient_shape(self):
        return (self.n, self.n)

    def feasibility_residual(self, x):
        self.check_shape(x)
        return 0.0

    def riemannian_gradient(self, y, g):
        """Factored gradient (g + g') y of f(Y Y') for ambient gradient g."""
        return (g + g.T) @ y

    def derivative_carrier(self, y, g):
        """(Y-space gradient matrix, symmetrized ambient gradient).

        The matrix is linear in Y for a fixed ambient gradient, so an
        anchored carrier stays exact under single-entry updates via the
        column fix-up in ``update_carrier``; reads are then O(1)."""
        gs = 0.5 * (g + g.T)
        return 2.0 * (gs @ y), gs

    def carrier_flops(self):
        n, p = self.n, self.p
        return n * n + 2 * n * n * p

    def update_carrier(self, carrier, y, l, t):
        r, gs = carrier
        r[:, l.j] += (2.0 * t) * gs[:, l.i]
        return self.carrier_update_flops()

    def carrier_update_flops(self):
        """Flops of one ``update_carrier`` column fix-up."""
        return 2 * self.n + 1

    def coordinate_derivative_from_carrier(self, y, d, l):
        i, j = l
        return float(d[0][i, j])

    def _retract(self, y, l, t):
        y[l] += t
        return False

    def full_retract(self, y, u, t):
        return y + t * u

    def flop_parts(self, l):
        return 1, 2

    def rgd_flops(self):
        n, p = self.n, self.p
        # gradient projection n^2 + 2n^2 p, additive step 2np
        return n * n + 2 * n * n * p + 2 * n * p

    def materialize_basis(self, y, l):
        i, j = l
        b = np.zeros_like(y)
        b[i, j] = 1.0
        return b

    def random_point(self, rng: SplitMix64):
        y = rng.gaussian(self.n, self.p)
        return y / np.linalg.norm(y)

    def anchored_sweep(self, labels, n_inner, selection):
        if not SWEEP_MIN_STEPS <= n_inner <= SWEEP_MAX_CHAIN * self.p:
            return None
        return column_chain_sweep(self, labels)


def column_chain_sweep(man: FactoredSpsd, labels: list):
    """One anchored epoch on the factored family, column chain by column
    chain (see the module docstring): ``coordinate_step``'s arithmetic,
    bitwise, without its per-step column fix-up.  ``rcdlin`` takes each epoch
    so, under every drawn rule, unless the trace records every step or the
    epoch is outside the sweep's crossovers; ``pos`` holds the positions the
    epoch loop drew.  A step whose t underflows to zero writes nothing to y
    (a -0.0 keeps its sign) but still feeds its chain, and a skipped step
    touches nothing.
    A refused step raises ``StepRefused`` with ``coordinate_step``'s reason
    and the step s it reached."""
    rows = np.array([l.i for l in labels], dtype=np.intp)
    cols = np.array([l.j for l in labels], dtype=np.intp)
    dflops, uflops = man.flop_parts(labels[0])
    upkeep = man.carrier_update_flops()
    scale = man.step_scale
    p = man.p

    def sweep(y, d, pos, eta):
        r, gs = d
        n_inner = len(pos)
        ii, jj = rows[pos], cols[pos]
        # slot[s]: how many of the epoch's earlier steps share step s's column
        order = np.argsort(jj, kind="stable")
        count = np.bincount(jj, minlength=p)
        start = np.cumsum(count) - count
        slot = np.empty(n_inner, np.intp)
        slot[order] = np.arange(n_inner) - start[jj[order]]
        # near[head[s] + q] = gs[i_s, i_u], u the q-th earlier step of s's column
        head = np.cumsum(slot) - slot
        rank = np.arange(head[-1] + slot[-1]) - np.repeat(head, slot)
        earlier = order[np.repeat(start[jj], slot) + rank]
        near = gs[np.repeat(ii, slot), ii[earlier]].tolist()
        chains = [[] for _ in range(p)]  # (2t, slot) of each column's moving steps
        t_per_theta = -scale * eta
        moved, ts = [], []
        for s, j, q, h, theta in zip(range(n_inner), jj.tolist(), slot.tolist(),
                                     head.tolist(), r[ii, jj].tolist()):
            chain = chains[j]
            for c, qu in chain:
                theta += c * near[h + qu]
            if not math.isfinite(theta):
                raise StepRefused(NONFINITE_DERIVATIVE, s)
            if abs(theta) >= ZERO_DERIVATIVE_SKIP:
                t = t_per_theta * theta
                if not math.isfinite(t):
                    raise StepRefused(step_overflow(t), s)
                chain.append((2.0 * t, q))
                if t != 0.0:
                    moved.append(s)
                    ts.append(t)
        # np.add.at adds in index order, so a repeated entry sums as the steps did
        np.add.at(y, (ii[moved], jj[moved]), ts)
        moving = sum(map(len, chains))
        # theta is the last step's, whose fix-up coordinate_step never makes
        return (y, n_inner * dflops + moving * uflops,
                (moving - (abs(theta) >= ZERO_DERIVATIVE_SKIP)) * upkeep, 0)

    return sweep


class SpdBuresWasserstein(Manifold):
    family = "spd_bures_wasserstein"
    step_scale = 2.0

    def __init__(self, descriptor):
        super().__init__(descriptor)
        self.n = descriptor.dims[0]
        self._basis = [Pair(i, j) for i in range(self.n) for j in range(i, self.n)]

    def feasibility_residual(self, x):
        self.check_shape(x)
        return float(np.linalg.norm(x - x.T))

    def riemannian_gradient(self, x, g):
        gs = 0.5 * (g + g.T)
        return 2.0 * (gs @ x + x @ gs)

    def derivative_carrier(self, x, g):
        return 0.5 * (g + g.T)

    def carrier_flops(self):
        return 2 * self.n * self.n

    def coordinate_derivative_from_carrier(self, x, d, l):
        i, j = l
        if i == j:
            return 4.0 * float(np.dot(x[i], d[i]))
        return 2.0 * (float(np.dot(x[j], d[i])) + float(np.dot(x[i], d[j])))

    def _retract(self, out, l, t):
        i, j = l
        # (I + t E_ij) X (I + t E_ij): rows are built once and mirrored onto
        # the columns, so the result is symmetric exactly, not on average.
        if i == j:
            a = 1.0 + 2.0 * t
            xii = out[i, i]
            new_row = a * out[i]
            new_row[i] = (a * a) * xii
            out[i] = new_row
            out[:, i] = new_row
        else:
            row_i = out[i].copy()
            row_j = out[j].copy()
            xii, xij, xjj = row_i[i], row_i[j], row_j[j]
            t2 = t * t
            new_i = row_i + t * row_j
            new_j = row_j + t * row_i
            new_i[i] = xii + (2.0 * t) * xij + t2 * xjj
            new_i[j] = xij + t * (xii + xjj) + t2 * xij
            new_j[i] = new_i[j]
            new_j[j] = xjj + (2.0 * t) * xij + t2 * xii
            out[i] = new_i
            out[j] = new_j
            out[:, i] = new_i
            out[:, j] = new_j
        return False

    def full_retract(self, x, u, t):
        """BW exponential: X + tU + S X S with S solving S X + X S = t U."""
        v, lam = sym_eig(x)
        s_tilde = (v.T @ (t * u) @ v) / (lam[:, None] + lam[None, :])
        s = v @ s_tilde @ v.T
        return x + t * u + s @ x @ s

    def flop_parts(self, l):
        n = self.n
        if l.i == l.j:
            return 2 * n + 1, n + 4
        return 4 * n + 2, 4 * n + 17

    def rgd_flops(self):
        n = self.n
        # gradient 4n^3 + 2n^2, closed-form quadratic update 6n^3 + 4n^2
        return 10 * n**3 + 6 * n * n

    def materialize_basis(self, x, l):
        i, j = l
        e = np.zeros_like(x)
        if i == j:
            e[i, i] = 2.0
        else:
            e[i, j] = 1.0
            e[j, i] = 1.0
        return e @ x + x @ e

    def random_point(self, rng: SplitMix64):
        a = rng.gaussian(self.n, self.n)
        return (a @ a.T) / self.n + np.eye(self.n)

    def min_eigenvalue(self, x) -> float:
        _, lam = sym_eig(0.5 * (x + x.T))
        return float(lam[0])

    def epoch_probe(self, x) -> bool:
        return bool(np.isfinite(x).all()) and self.min_eigenvalue(x) > 0.0
