"""Hyperbolic embeddings of a synthetic hierarchy (hyperboloid model).

Each word is a point on the n-dimensional hyperboloid (one column of the
embedding matrix); related pairs come from a seeded random tree and each
word carries a fixed seeded negative sample.  The loss is the
softmax-over-negatives log-loss

    sum over related (u, v) of  d(u, v) + log sum over v' in Neg(u) of e^(-d(u, v'))

with d the hyperboloid distance arccosh(-<x_u, x_v>_L) and the candidate set
of each softmax containing the related word v itself along with Neg(u), which
keeps the loss bounded below by zero.  Training updates one word at a time
with anchored-gradient coordinate steps (plane rotations, and the cosh/sinh
rotation on pairs touching the time row), with a linearly decaying stepsize.

The arccosh derivative 1/sqrt(z^2 - 1) blows up as z -> 1 (coincident
points); pair contributions with z < 1 + GRAD_GUARD are dropped from the
gradient and their distance is treated as 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .flops import ZERO_DERIVATIVE_SKIP
from .indices import Pair
from .linalg import apply_rotation
from .manifolds.hyperbolic import lift_to_hyperboloid
from .optimize import IterationRecord, OptimizerConfig, Trace, _eta_at
from .rng import SplitMix64

GRAD_GUARD = 1e-8


@dataclass
class HierarchyProblem:
    n_dim: int
    n_words: int
    seed: int
    edges: list[tuple[int, int]]                 # (child, parent)
    negatives: dict[int, list[int]] = field(default_factory=dict)


def make_lorentz_embed(n_dim: int, n_words: int, seed: int,
                       negatives_per_word: int = 5) -> HierarchyProblem:
    """Seeded random tree over n_words nodes plus per-word negative samples."""
    if n_dim < 2:
        raise ValueError("need n_dim >= 2")
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
        k = min(negatives_per_word, len(pool))
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


def _lorentz_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(-a[0] * b[0] + np.dot(a[1:], b[1:]))


def hyperbolic_distance(a: np.ndarray, b: np.ndarray) -> float:
    z = -_lorentz_inner(a, b)
    if z < 1.0 + 1e-12:
        return 0.0
    return math.acosh(z)


def _dist_and_grad(a: np.ndarray, b: np.ndarray):
    """Distance and its ambient gradient in the first argument (guarded)."""
    z = -_lorentz_inner(a, b)
    if z < 1.0 + GRAD_GUARD:
        return (0.0 if z < 1.0 + 1e-12 else math.acosh(max(z, 1.0))), None
    jb = b.copy()
    jb[0] = -jb[0]
    return math.acosh(z), -jb / math.sqrt(z * z - 1.0)


def loss(prob: HierarchyProblem, x: np.ndarray) -> float:
    total = 0.0
    for u, v in prob.edges:
        d_uv = hyperbolic_distance(x[:, u], x[:, v])
        acc = math.exp(-d_uv)
        for w in prob.negatives[u]:
            acc += math.exp(-hyperbolic_distance(x[:, u], x[:, w]))
        total += d_uv + math.log(acc)
    return total


def euclid_grad(prob: HierarchyProblem, x: np.ndarray) -> np.ndarray:
    """Ambient gradient of the loss in every word simultaneously."""
    g = np.zeros_like(x)

    def add_pair(u, v, weight):
        _, du = _dist_and_grad(x[:, u], x[:, v])
        if du is not None:
            g[:, u] += weight * du
            _, dv = _dist_and_grad(x[:, v], x[:, u])
            g[:, v] += weight * dv

    for u, v in prob.edges:
        d_uv = hyperbolic_distance(x[:, u], x[:, v])
        candidates = [v] + prob.negatives[u]
        weights = [math.exp(-d_uv)]
        weights += [
            math.exp(-hyperbolic_distance(x[:, u], x[:, w]))
            for w in prob.negatives[u]
        ]
        denom = sum(weights)
        add_pair(u, v, 1.0 - weights[0] / denom)
        for w, wt in zip(candidates[1:], weights[1:]):
            add_pair(u, w, -wt / denom)
    return g


def grad_flop_model(prob: HierarchyProblem) -> int:
    """Per-oracle cost: each pair term needs one Lorentz inner product (2n),
    an arccosh + sqrt (16), and two guarded column updates (4n)."""
    n = prob.n_dim
    pair_terms = sum(1 + len(prob.negatives[u]) for u, _ in prob.edges)
    return pair_terms * (2 * n + 16 + 4 * n)


def train(prob: HierarchyProblem, cfg: OptimizerConfig):
    """Anchored-gradient coordinate descent over the product of hyperboloids.

    Per epoch: one gradient oracle, then for every word the selected row
    pairs are rotated in sequence (time-cyclic selection loops over the
    pairs (0, 1) ... (0, n-1); cyclic over all row pairs), and one record
    (k, 0) unless ``trace`` is "none"; ``log_wall`` adds the wall time.
    Only this anchored algorithm (``rcdlin``) with those two selections is
    implemented; any other configuration, and any inner count, log cadence,
    early stop or renormalization cadence, raises ValueError.
    """
    if cfg.algorithm != "rcdlin" or cfg.selection not in ("cyclic", "time-cyclic"):
        raise ValueError(
            "hyperbolic embedding training runs rcdlin with cyclic or time-cyclic "
            f"selection, not {cfg.algorithm} with {cfg.selection}")
    unsupported = [f for f in ("inner", "grad_log_every", "feas_log_every",
                               "stop_grad_tol", "renormalize_every") if getattr(cfg, f)]
    if unsupported:
        raise ValueError(f"lorentz training does not support {', '.join(unsupported)}")
    t0 = time.monotonic_ns() if cfg.log_wall else None
    x = initial_embedding(prob)
    n = prob.n_dim
    if cfg.selection == "time-cyclic":
        pairs = [Pair(0, j) for j in range(1, n)]
    else:
        pairs = [Pair(i, j) for i in range(n) for j in range(i + 1, n)]
    trace = Trace(eta_used=cfg.eta)
    oracle_flops = grad_flop_model(prob)
    for k in range(cfg.epochs):
        eta_k = _eta_at(cfg, k)
        g = euclid_grad(prob, x)
        trace.oracle_calls += 1
        trace.oracle_flops += oracle_flops
        for u in range(prob.n_words):
            col = x[:, u].copy().reshape(-1, 1)
            gu = g[:, u]
            for (i, j) in pairs:
                if i == 0:
                    theta = gu[0] * col[j, 0] + gu[j] * col[0, 0]
                    kind = "hyperbolic"
                else:
                    theta = gu[i] * col[j, 0] - gu[j] * col[i, 0]
                    kind = "circular"
                trace.update_flops += 4
                if abs(theta) < ZERO_DERIVATIVE_SKIP:
                    continue
                angle = -eta_k * theta
                if abs(angle) > 500.0:
                    raise RuntimeError(
                        f"rotation angle overflow at epoch {k}, word {u}: "
                        f"reduce the stepsize"
                    )
                apply_rotation(col, i, j, angle, "left", kind, inplace=True)
                trace.update_flops += 6
            x[:, u] = col.reshape(-1)
        if cfg.trace != "none":
            wall = time.monotonic_ns() - t0 if cfg.log_wall else None
            trace.records.append(IterationRecord(
                k, 0, loss(prob, x), None, None, trace.total_flops, wall))
    return x, trace


def edge_separation(prob: HierarchyProblem, x: np.ndarray) -> tuple[float, float]:
    """(mean distance over tree edges, mean distance over the negative pairs)."""
    edge_d = [hyperbolic_distance(x[:, u], x[:, v]) for u, v in prob.edges]
    neg_d = [
        hyperbolic_distance(x[:, u], x[:, w])
        for u in prob.negatives
        for w in prob.negatives[u]
    ]
    return float(np.mean(edge_d)), float(np.mean(neg_d))
