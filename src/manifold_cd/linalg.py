"""Dense kernels: structured two-row/two-column rotations and small
factorizations.

Matrices are C-contiguous float64 numpy arrays (row-major, matching the
two-row access pattern of the rotation updates).  Rotation kernels touch
exactly the two selected rows or columns and leave every other entry
bitwise unchanged.  Factorizations are thin wrappers over LAPACK with the
sign conventions fixed so results are deterministic.

Rotation conventions (side="left", rows i and j, angle theta):

    circular     row_i' =  cos(theta)*row_i + sin(theta)*row_j
                 row_j' = -sin(theta)*row_i + cos(theta)*row_j
    hyperbolic   row_i' = cosh(theta)*row_i + sinh(theta)*row_j
                 row_j' = sinh(theta)*row_i + cosh(theta)*row_j

side="right" applies the same recombination to columns i and j.  One kernel,
``rotate_rows``, holds the update for every caller, and one table,
``ROTATIONS``, the coefficients: math's functions, since np.cosh and np.sinh
round differently.  The one exception is the Stiefel sweep hook
(``pivot_row_sweep``): it applies the circular update's two rows at different
times (pivot row per step, partner rows in a batch), same products and sums.
"""

from __future__ import annotations

import math

import numpy as np


class RankDeficiencyError(np.linalg.LinAlgError):
    """A factorization met a (numerically) rank-deficient input; also a ValueError."""


def _check_pair(i: int, j: int, limit: int) -> None:
    if not (0 <= i < j < limit):
        raise IndexError(f"need 0 <= i < j < {limit}, got ({i}, {j})")


ROTATIONS = {"circular": (math.cos, math.sin), "hyperbolic": (math.cosh, math.sinh)}


def _check_kind(kind: str) -> None:
    if kind not in ROTATIONS:
        raise ValueError(f"unknown rotation kind {kind!r}")


def rotate_rows(out: np.ndarray, i, j, c, s, hyperbolic: bool) -> None:
    """Rotate rows ``out[i]``, ``out[j]`` in place by coefficients ``c``, ``s``
    that broadcast against them; ``i``/``j`` may be ints, index arrays or index
    tuples.  Both new rows are computed first, since ``out[i]`` may be a view."""
    ri, rj = out[i], out[j]
    new_i = c * ri + s * rj
    new_j = s * ri + c * rj if hyperbolic else c * rj - s * ri
    out[i] = new_i
    out[j] = new_j


def apply_rotation(
    x: np.ndarray,
    i: int,
    j: int,
    theta: float,
    side: str = "left",
    kind: str = "circular",
    inplace: bool = False,
) -> np.ndarray:
    """Mix rows (or columns) i and j of ``x`` by a plane rotation."""
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    _check_pair(i, j, x.shape[0] if side == "left" else x.shape[1])
    _check_kind(kind)
    cos, sin = ROTATIONS[kind]
    out = x if inplace else x.copy()
    rotate_rows(out if side == "left" else out.T, i, j, cos(theta), sin(theta),
                kind == "hyperbolic")
    return out


def apply_disjoint_rotations(
    x: np.ndarray,
    batch: list[tuple],
) -> np.ndarray:
    """A copy of ``x`` with a batch of left rotations applied, their index
    pairs pairwise disjoint.

    Disjoint rows commute exactly in floating point, so the result is bitwise
    identical to sequential application in any order; each kind's entries
    are executed as one vectorized gather/scatter.  Batch entries are
    (i, j, theta) or (i, j, theta, kind); kind defaults to "circular".
    """
    groups: dict[str, list] = {kind: [] for kind in ROTATIONS}
    seen: set[int] = set()
    for entry in batch:
        i, j = entry[0], entry[1]
        kind = entry[3] if len(entry) > 3 else "circular"
        _check_pair(i, j, x.shape[0])
        if i in seen or j in seen:
            raise ValueError(f"rotation indices overlap at pair ({i}, {j})")
        _check_kind(kind)
        seen.add(i)
        seen.add(j)
        groups[kind].append(entry)
    out = x.copy()
    for kind, group in groups.items():
        cos, sin = ROTATIONS[kind]
        ii = np.array([e[0] for e in group], dtype=np.intp)
        jj = np.array([e[1] for e in group], dtype=np.intp)
        c = np.array([cos(e[2]) for e in group])[:, None]
        s = np.array([sin(e[2]) for e in group])[:, None]
        rotate_rows(out, ii, jj, c, s, kind == "hyperbolic")
    return out


def thin_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the R diagonal forced non-negative (unique for full rank)."""
    m, n = a.shape
    if m < n:
        raise ValueError("thin_qr needs rows >= cols")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r).copy()
    signs = np.where(d < 0.0, -1.0, 1.0)
    q = q * signs[np.newaxis, :]
    r = r * signs[:, np.newaxis]
    threshold = 1e-12 * np.linalg.norm(a)
    if np.any(np.abs(np.diagonal(r)) < threshold):
        raise RankDeficiencyError("input is numerically rank deficient")
    return q, r


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    if a.shape[0] != a.shape[1]:
        raise ValueError("sym_eig needs a square matrix")
    asym = np.linalg.norm(a - a.T)
    if asym > 1e-12 * max(1.0, np.linalg.norm(a)):
        raise ValueError(f"input is not symmetric (asymmetry {asym:.3e})")
    lam, v = np.linalg.eigh(a)
    return v, lam


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD a = u @ diag(sigma) @ v.T with sigma descending >= 0.

    The zero matrix maps to (leading identity columns, zeros, leading
    identity columns) so the output is fully determined.
    """
    m, n = a.shape
    k = min(m, n)
    if not a.any():
        return np.eye(m, k), np.zeros(k), np.eye(n, k)
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return u, sigma, vt.T
