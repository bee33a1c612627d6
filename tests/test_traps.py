"""The numpy equalities the bitwise fast paths rely on (ROADMAP, "Traps").

The pivot-row sweep reads a run's derivatives with ``np.vecdot`` where the
label path calls ``ndarray.dot`` per row, and takes ``np.cos`` and ``np.sin``
where the label path's rotation takes ``math``; a replica axis would stack
``@`` over problems.  Each equality is checked here on its own, at scales
1e-8 to 1e6, so a numpy that breaks one fails here by name rather than as
dozens of parity failures.  Only the equalities are asserted: the known
inequalities (gemv ``@``, ``einsum``, ``np.cosh``) depend on the input."""

import math

import numpy as np
import pytest

from manifold_cd.rng import SplitMix64

SCALES = [1e-8, 1e-3, 1.0, 1e3, 1e6]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 10, 50, 129])
def test_vecdot_of_rows_is_the_row_dot(scale, width):
    rng = SplitMix64(width)
    a = scale * rng.gaussian(40, width)
    b = scale * rng.gaussian(40, width)
    rows = np.vecdot(a, b)
    assert rows.tobytes() == np.array([a[i].dot(b[i]) for i in range(40)]).tobytes()
    # one row against every row, as a pivot row against its partners
    pivot = np.vecdot(a[3], b)
    assert pivot.tobytes() == np.array([a[3].dot(b[i]) for i in range(40)]).tobytes()


@pytest.mark.parametrize("scale", SCALES)
def test_stacked_matmul_is_the_per_slice_product(scale):
    rng = SplitMix64(20)
    a = scale * rng.gaussian(400, 20).reshape(20, 20, 20)
    for cols in (4, 20):
        x = scale * rng.gaussian(20 * 20, cols).reshape(20, 20, cols)
        stacked = a @ x
        assert stacked.tobytes() == np.stack([a[r] @ x[r] for r in range(20)]).tobytes()


@pytest.mark.parametrize("scale", SCALES)
def test_numpy_cos_and_sin_are_math(scale):
    t = (scale * SplitMix64(5).gaussian(1, 2000)).ravel()
    angles = t.tolist()
    assert np.cos(t).tobytes() == np.array(list(map(math.cos, angles))).tobytes()
    assert np.sin(t).tobytes() == np.array(list(map(math.sin, angles))).tobytes()
