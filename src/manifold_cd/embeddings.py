"""Hyperbolic embeddings of a synthetic hierarchy (hyperboloid model).

Each word is a point on the n-dimensional hyperboloid (one column of the
embedding matrix); related pairs come from a seeded random tree and each
word carries a fixed seeded negative sample.  The loss is the
softmax-over-negatives log-loss

    sum over related (u, v) of  d(u, v) + log sum over v' in Neg(u) of e^(-d(u, v'))

with d the hyperboloid distance arccosh(-<x_u, x_v>_L) and the candidate set
of each softmax containing the related word v itself along with Neg(u), which
keeps the loss bounded below by zero.  Training is anchored-gradient
coordinate descent on the shared epoch loop: each sweep rotates every word at
once (plane rotations, and cosh/sinh rotations on pairs touching the time row).

The arccosh derivative 1/sqrt(z^2 - 1) blows up as z -> 1 (coincident
points); pair contributions with z < 1 + GRAD_GUARD are dropped from the
gradient and their distance is treated as 0 below z = 1 + 1e-12.

The oracle is vectorized over a pair table built once per problem: one
gather and one batched Minkowski product for every (edge, candidate) term,
one ordered np.add.at scatter for the gradient.  Its transcendentals
(acosh, exp, log) and softmax sums stay scalar Python on purpose: numpy's
versions round differently, and the loss and gradient are bitwise equal to
the per-pair loop they replace, so traces do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flops import MAX_EXP_STEP, ZERO_DERIVATIVE_SKIP
from .linalg import ROTATIONS, rotate_rows
from .manifolds import Hyperbolic, Manifold, ManifoldDescriptor, lift_to_hyperboloid
from .optimize import Objective, OptimizerConfig, coordinate_basis, run_epochs
from .rng import SplitMix64

GRAD_GUARD = 1e-8
NEGATIVES_PER_WORD = 5


@dataclass
class HierarchyProblem:
    n_dim: int
    n_words: int
    seed: int
    edges: list[tuple[int, int]]                 # (child, parent)
    negatives: dict[int, list[int]] = field(default_factory=dict)
    pair_table: tuple | None = field(default=None, init=False, repr=False, compare=False)


def make_lorentz_embed(n_dim: int, n_words: int, seed: int) -> HierarchyProblem:
    """Seeded random tree over n_words nodes plus per-word negative samples."""
    if n_dim < 2:
        raise ValueError("need n_dim >= 2")
    if n_words < 2:
        raise ValueError("need n_words >= 2: a hierarchy needs at least one edge")
    rng = SplitMix64(seed)
    parent = [0] * n_words
    edges = []
    for v in range(1, n_words):
        parent[v] = rng.below(v)
        edges.append((v, parent[v]))
    adjacent = {u: set() for u in range(n_words)}
    for c, p in edges:
        adjacent[c].add(p)
        adjacent[p].add(c)
    prob = HierarchyProblem(n_dim, n_words, seed, edges)
    for u in range(n_words):
        pool = [w for w in range(n_words) if w != u and w not in adjacent[u]]
        chosen: list[int] = []
        k = min(NEGATIVES_PER_WORD, len(pool))
        while len(chosen) < k:
            cand = pool[rng.below(len(pool))]
            if cand not in chosen:
                chosen.append(cand)
        prob.negatives[u] = chosen
    return prob


def initial_embedding(prob: HierarchyProblem) -> np.ndarray:
    """Columns lifted from small seeded Gaussian tangents at (1, 0, ..., 0)."""
    rng = SplitMix64(prob.seed ^ 0x10F7)
    x = np.empty((prob.n_dim, prob.n_words))
    for u in range(prob.n_words):
        v = 0.1 * rng.gaussian(prob.n_dim, 1)
        v[0, 0] = 0.0
        x[:, u] = lift_to_hyperboloid(v).reshape(-1)
    return x


def _pair_table(prob: HierarchyProblem):
    """(us, cs, sizes): the u and candidate index of every pair term in loss
    order (each edge (u, v): v, then Neg(u)) and each edge's candidate count.
    Built on first use and cached on the problem."""
    if prob.pair_table is None:
        sizes = [1 + len(prob.negatives[u]) for u, _ in prob.edges]
        us = [u for (u, _), k in zip(prob.edges, sizes) for _ in range(k)]
        cs = [c for u, v in prob.edges for c in [v] + prob.negatives[u]]
        prob.pair_table = (np.array(us), np.array(cs), sizes)
    return prob.pair_table


def _pair_products(x: np.ndarray, us: np.ndarray, cs: np.ndarray):
    """(z, xu, xc): z = -<x_u, x_c>_L for every pair term, with the gathered
    columns.  The spatial dot is a batched matmul over the transposed rows
    of C-order gathers, whose inner stride is not 1: that rounds as np.dot on
    the strided columns x[1:, u] does, while einsum or a contiguous gather do
    not.  Verified bitwise with numpy 2.4.6; numpy 1.x is unchecked."""
    xu = np.ascontiguousarray(x[:, us])
    xc = np.ascontiguousarray(x[:, cs])
    d = (xu[1:].T[:, None, :] @ xc[1:].T[:, :, None])[:, 0, 0]
    return -(-xu[0] * xc[0] + d), xu, xc


def _distances(z: np.ndarray) -> list[float]:
    # math.acosh: np.arccosh rounds differently
    return [0.0 if zi < 1.0 + 1e-12 else math.acosh(zi) for zi in z.tolist()]


def loss(prob: HierarchyProblem, x: np.ndarray) -> float:
    us, cs, sizes = _pair_table(prob)
    dist = _distances(_pair_products(x, us, cs)[0])
    e = [math.exp(-d) for d in dist]
    total = 0.0
    lo = 0
    for k in sizes:
        acc = e[lo]
        for i in range(lo + 1, lo + k):
            acc += e[i]
        total += dist[lo] + math.log(acc)
        lo += k
    return total


def euclid_grad(prob: HierarchyProblem, x: np.ndarray) -> np.ndarray:
    """Ambient gradient of the loss in every word simultaneously.  Each pair
    term past the guard adds weight * -J x_c / sqrt(z^2 - 1) to word u and the
    mirrored term to the candidate, scattered in pair order."""
    us, cs, sizes = _pair_table(prob)
    z, xu, xc = _pair_products(x, us, cs)
    weights = [math.exp(-d) for d in _distances(z)]
    coef = []
    lo = 0
    for k in sizes:
        denom = sum(weights[lo:lo + k])
        coef.append(1.0 - weights[lo] / denom)
        coef += [-wt / denom for wt in weights[lo + 1:lo + k]]
        lo += k
    keep = ~(z < 1.0 + GRAD_GUARD)
    z, w = z[keep], np.array(coef)[keep]
    ju, jc = xu[:, keep], xc[:, keep]  # J x: the time row negated
    ju[0], jc[0] = -ju[0], -jc[0]
    root = np.sqrt(z * z - 1.0)
    vals = np.empty((x.shape[0], 2 * z.size))
    vals[:, 0::2] = w * (-jc / root)
    vals[:, 1::2] = w * (-ju / root)
    idx = np.empty(2 * z.size, dtype=np.intp)
    idx[0::2], idx[1::2] = us[keep], cs[keep]
    g = np.zeros_like(x)
    np.add.at(g.T, idx, vals.T)
    return g


def grad_flop_model(prob: HierarchyProblem) -> int:
    """Per-oracle cost: each pair term needs one Lorentz inner product (2n),
    an arccosh + sqrt (16), and two guarded column updates (4n)."""
    n = prob.n_dim
    pair_terms = sum(1 + len(prob.negatives[u]) for u, _ in prob.edges)
    return pair_terms * (2 * n + 16 + 4 * n)


class HyperboloidColumns:
    """W points of Hyperbolic(n, 1) as the columns of an n x W array: what the
    epoch loop needs of a manifold, column by column from Hyperbolic(n, 1)'s
    own methods (norms and residuals combine as a Frobenius norm)."""

    epoch_probe = None
    check_shape = Manifold.check_shape

    def __init__(self, n_dim: int, n_words: int):
        self.ambient_shape = (n_dim, n_words)
        self.point = Hyperbolic(ManifoldDescriptor("hyperbolic", (n_dim, 1)))

    def gradient_norm(self, x: np.ndarray, g: np.ndarray) -> float:
        w = x.shape[1]
        return math.hypot(*map(self.point.gradient_norm, np.hsplit(x, w), np.hsplit(g, w)))

    def feasibility_residual(self, x: np.ndarray) -> float:
        return math.hypot(*map(self.point.feasibility_residual, np.hsplit(x, x.shape[1])))


def objective(prob: HierarchyProblem) -> Objective:
    """The training loss and gradient, looked up in this module when called."""
    return Objective(lambda x: loss(prob, x), lambda x: euclid_grad(prob, x),
                     grad_flop_model(prob))


def _sweep(pairs: list):
    """The engine step: one pass over the row pairs, rotating every word at
    once.  Under the anchored gradient the words are independent columns, each
    seeing a word-by-word sweep's operations in order.  A pair costs 4 flops
    per word and 6 per moving word; a hyperbolic angle above MAX_EXP_STEP, or
    an infinite circular one, raises OverflowError before the pair is
    written, naming the word."""

    def step(x, g, _l, eta, _s):
        flops = 0
        for i, j in pairs:
            theta = g[0] * x[j] + g[j] * x[0] if i == 0 else g[i] * x[j] - g[j] * x[i]
            angle = -eta * theta
            moving = ~(np.abs(theta) < ZERO_DERIVATIVE_SKIP)
            # a circular angle overflows only to inf
            bad = np.abs(angle) > MAX_EXP_STEP if i == 0 else np.isinf(angle)
            overflow = np.flatnonzero(moving & bad)
            if overflow.size:
                w = int(overflow[0])
                raise OverflowError(f"rotation angle overflow on word {w} "
                                    f"(|angle|={abs(angle[w]):.3g})")
            m = np.flatnonzero(moving)
            flops += 4 * x.shape[1] + 6 * m.size
            # time-row pairs rotate hyperbolically; linalg's kernel and its
            # math trig per moving word (np.cosh/np.sinh round differently)
            cos, sin = ROTATIONS["hyperbolic" if i == 0 else "circular"]
            am = angle[m].tolist()
            c, sn = np.array(list(map(cos, am))), np.array(list(map(sin, am)))
            rotate_rows(x, (i, m), (j, m), c, sn, i == 0)
        return x, flops, 0, 0

    return step


def train(prob: HierarchyProblem, cfg: OptimizerConfig):
    """Anchored-gradient coordinate descent over the product of hyperboloids:
    one ``run_epochs`` run, one oracle per epoch and ``inner`` (default 1)
    sweeps through the selected row pairs (time-cyclic: (0, 1) ... (0, n-1);
    cyclic: all pairs).  Every loop setting is honoured; only ``rcdlin`` with
    those two selections is implemented, any other raises ValueError."""
    if cfg.algorithm != "rcdlin" or cfg.selection not in ("cyclic", "time-cyclic"):
        raise ValueError(
            "hyperbolic embedding training runs rcdlin with cyclic or time-cyclic "
            f"selection, not {cfg.algorithm} with {cfg.selection}")
    points = HyperboloidColumns(prob.n_dim, prob.n_words)
    return run_epochs(points, objective(prob), initial_embedding(prob), cfg, [None],
                      _sweep(coordinate_basis(points.point, cfg.selection)),
                      fresh_oracle=False)

