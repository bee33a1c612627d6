"""Reference helpers the tests check the package against.

Dense and closed-form formulas that the engine never runs: the Frobenius
pairing with a materialized basis, seeded tangent draws, the canonical
metrics, the Cayley retraction, subspace and hyperboloid distances, and the
factor rank monitor.  The package's own code paths are in ``src/``."""

from __future__ import annotations

import math

import numpy as np

from manifold_cd.embeddings import HierarchyProblem
from manifold_cd.indices import CoordinateIndex
from manifold_cd.linalg import thin_svd
from manifold_cd.manifolds import Manifold
from manifold_cd.manifolds.hyperbolic import _j_diag, apply_j, tangent_skew_parameter
from manifold_cd.rng import SplitMix64

# -- any family --------------------------------------------------------------


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def reference_gradient(man: Manifold, x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Array whose Frobenius pairing with the materialized basis gives
    theta (the gradient in the point's own representation space): the
    ambient gradient, or the factored gradient (g + g') y for the factored
    family, which is its Riemannian gradient."""
    if man.family == "spsd_factored":
        return man.riemannian_gradient(x, g)
    return g


def coordinate_derivative_reference(
    man: Manifold, x: np.ndarray, g: np.ndarray, l: CoordinateIndex
) -> float:
    return frobenius_inner(reference_gradient(man, x, g), man.materialize_basis(x, l))


def random_tangent(man: Manifold, x: np.ndarray, rng: SplitMix64) -> np.ndarray:
    """Seeded tangent vector at x: the Riemannian gradient of a Gaussian."""
    return man.riemannian_gradient(x, rng.gaussian(*man.gradient_shape))


# -- Stiefel and Grassmann ---------------------------------------------------


def stiefel_canonical_gradient(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient under the canonical metric <u, (I - xx'/2) v>."""
    return g - x @ (g.T @ x)


def stiefel_canonical_inner(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    return float(np.sum(u * v) - 0.5 * np.sum((x.T @ u) * (x.T @ v)))


def grassmann_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Subspace distance: 2-norm of the principal angles between spans.

    Small angles come from the sine (singular values of the residual
    Y - X X'Y), large ones from the cosine; arccos alone loses half the
    digits near zero angle.
    """
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    c = x.T @ y
    _, cos_sig, _ = thin_svd(c)
    _, sin_sig, _ = thin_svd(y - x @ c)
    cos_sig = np.clip(cos_sig, -1.0, 1.0)
    sin_asc = np.clip(sin_sig[::-1], 0.0, 1.0)
    angles = np.where(cos_sig >= math.sqrt(0.5),
                      np.arcsin(sin_asc), np.arccos(cos_sig))
    return float(np.linalg.norm(angles))


# -- hyperbolic --------------------------------------------------------------


def hyperbolic_cayley_retract(x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray:
    """Cayley-transform retraction (I - t/2 WJ)^-1 (I + t/2 WJ) x."""
    from scipy.linalg import lu_factor, lu_solve

    n = x.shape[0]
    w = tangent_skew_parameter(x, u)
    wj = w * _j_diag(n)[np.newaxis, :]
    a = np.eye(n) - 0.5 * t * wj
    b = (np.eye(n) + 0.5 * t * wj) @ x
    # dense LU with partial pivoting; reject near-singular systems
    lu, piv = lu_factor(a)
    if np.min(np.abs(np.diagonal(lu))) < 1e-12:
        raise np.linalg.LinAlgError("Cayley step rejected: system is singular")
    return lu_solve((lu, piv), b)


def hyperbolic_canonical_gradient(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient under the canonical-type metric: -J g - x g' x."""
    return -apply_j(g) - x @ (g.T @ x)


def hyperbolic_distance(a: np.ndarray, b: np.ndarray) -> float:
    z = -float(-a[0] * b[0] + np.dot(a[1:], b[1:]))
    if z < 1.0 + 1e-12:
        return 0.0
    return math.acosh(z)


def edge_separation(prob: HierarchyProblem, x: np.ndarray) -> tuple[float, float]:
    """(mean distance over tree edges, mean distance over the negative pairs)."""
    edge_d = [hyperbolic_distance(x[:, u], x[:, v]) for u, v in prob.edges]
    neg_d = [
        hyperbolic_distance(x[:, u], x[:, w])
        for u in prob.negatives
        for w in prob.negatives[u]
    ]
    return float(np.mean(edge_d)), float(np.mean(neg_d))


# -- factored SPSD -----------------------------------------------------------


def rank_ok(man: Manifold, y: np.ndarray, rtol: float = 1e-10) -> bool:
    """Construction-time rank monitor for the factor."""
    _, sigma, _ = thin_svd(y)
    return bool(sigma[-1] > rtol * sigma[0])
