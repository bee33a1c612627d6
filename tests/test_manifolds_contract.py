"""Cross-family contract tests: every manifold implements the same surface
and satisfies the shared invariants (derivative closed forms vs materialized
bases, retraction axioms, feasibility preservation, descent steps)."""

import math

import numpy as np
import pytest

from manifold_cd import ManifoldDescriptor, make_manifold
from manifold_cd.indices import Pair
from manifold_cd.manifolds import Manifold
from manifold_cd.optimize import Objective, OptimizerConfig, flop_audit, optimize
from manifold_cd.rng import SplitMix64
from reference import coordinate_derivative_reference, random_tangent

CASES = [
    ("stiefel", (9, 4)),
    ("grassmann", (9, 4)),
    ("hyperbolic", (7, 1)),
    ("symplectic", (4, 2)),
    ("doubly_stochastic", (5, 4)),
    ("multinomial", (5, 4)),
    ("spsd_factored", (7, 3)),
    ("spd_bures_wasserstein", (5, 5)),
]

EXPECTED_BASIS_SIZE = {
    "stiefel": lambda n, p: n * (n - 1) // 2,
    "grassmann": lambda n, p: n * (n - 1) // 2,
    "hyperbolic": lambda n, p: n * (n - 1) // 2,
    "symplectic": lambda n, p: 2 * n * (2 * n + 1) // 2,
    "doubly_stochastic": lambda m, n: (m - 1) * (n - 1),
    "multinomial": lambda n, p: n * (p - 1),
    "spsd_factored": lambda n, p: n * p,
    "spd_bures_wasserstein": lambda n, p: n * (n + 1) // 2,
}


@pytest.fixture(params=CASES, ids=[c[0] for c in CASES])
def family_case(request):
    family, dims = request.param
    man = make_manifold(ManifoldDescriptor(family, dims))
    x = man.random_point(SplitMix64(71))
    return man, x


def test_basis_size(family_case):
    man, _ = family_case
    dims = man.descriptor.dims
    assert man.index_count() == EXPECTED_BASIS_SIZE[man.family](*dims)


DRAWN = ("random", "without-replacement")
SWEEPS = {  # the selections under which a family's anchored sweep exists
    "stiefel": ("cyclic",),
    "grassmann": ("cyclic",),
    "spsd_factored": ("cyclic", *DRAWN),
}


def test_engine_hooks_belong_to_their_family(family_case):
    """Time-cyclic labels are hyperbolic, the anchored sweep is the Stiefel
    family's under cyclic selection and the factored family's under every
    rule, and the epoch probe is BW's; every other family keeps the base
    default, which the engine reads as "no such hook"."""
    man, x = family_case
    if man.family == "hyperbolic":
        n = man.ambient_shape[0]
        assert man.time_cyclic_basis() == [Pair(0, j) for j in range(1, n)]
    else:
        with pytest.raises(ValueError, match="only valid on the hyperbolic family"):
            man.time_cyclic_basis()
    labels = man.enumerate_basis()
    n_inner = 2 * len(labels)  # inside the factored sweep's crossovers at (7, 3)
    for selection in ("cyclic", *DRAWN):
        sweep = man.anchored_sweep(labels, n_inner, selection)
        assert (sweep is None) == (selection not in SWEEPS.get(man.family, ()))
    assert (man.epoch_probe is None) == (man.family != "spd_bures_wasserstein")
    assert man.epoch_probe is None or man.epoch_probe(x) is True


def test_random_point_feasible(family_case):
    man, x = family_case
    assert man.feasibility_residual(x) <= 1e-10


def test_derivative_matches_materialized_basis(family_case):
    man, x = family_case
    g = SplitMix64(72).gaussian(*man.gradient_shape)
    for l in man.enumerate_basis():
        theta = man.coordinate_derivative(x, g, l)
        ref = coordinate_derivative_reference(man, x, g, l)
        assert abs(theta - ref) <= 1e-13 * max(1.0, abs(ref))


def test_zero_gradient_gives_zero_derivative(family_case):
    man, x = family_case
    g = np.zeros(man.gradient_shape)
    for l in man.enumerate_basis():
        assert man.coordinate_derivative(x, g, l) == 0.0


def test_retract_t0_bitwise(family_case):
    man, x = family_case
    for l in man.enumerate_basis():
        out, _ = man.coordinate_retract(x, l, 0.0)
        assert np.array_equal(out, x)
    u = random_tangent(man, x, SplitMix64(73))
    assert np.max(np.abs(man.full_retract(x, u, 0.0) - x)) <= 1e-14


def test_retraction_first_order(family_case):
    man, x = family_case
    basis = man.enumerate_basis()
    for l in (basis[0], basis[len(basis) // 2], basis[-1]):
        b = man.materialize_basis(x, l)
        prev = None
        for t in (1e-3, 1e-4, 1e-5):
            xt, _ = man.coordinate_retract(x, l, t)
            resid = np.linalg.norm((xt - x) / t - b)
            if prev is not None:
                assert resid <= 0.2 * prev + 1e-11
            prev = resid


def test_feasibility_preserved_under_random_steps(family_case):
    man, x = family_case
    rng = SplitMix64(74)
    basis = man.enumerate_basis()
    y = x.copy()
    for _ in range(500):
        l = basis[rng.below(len(basis))]
        t = 0.2 * rng.uniform() - 0.1
        y, _ = man.coordinate_retract(y, l, t, inplace=True)
    if man.family == "spd_bures_wasserstein":
        assert man.feasibility_residual(y) <= 1e-10  # symmetry only
    else:
        assert man.feasibility_residual(y) <= 1e-8


def _linear_objective(man, seed):
    """(f, C) with f = <C, x>, or <C, Y Y'> on the factored family; C is
    symmetric on the families whose gradient is square."""
    c = SplitMix64(seed).gaussian(*man.gradient_shape)
    if man.family in ("spsd_factored", "spd_bures_wasserstein"):
        c = 0.5 * (c + c.T)
    if man.family == "spsd_factored":
        return (lambda y: float(np.sum(c * (y @ y.T)))), c
    return (lambda y: float(np.sum(c * y))), c


def test_descent_direction(family_case):
    """f(Retr(-eta*theta*B)) <= f(X) for small eta whenever theta != 0."""
    man, x = family_case
    f, c = _linear_objective(man, 75)
    eta = 1e-4
    f0 = f(x)
    for l in man.enumerate_basis():
        theta = man.coordinate_derivative(x, c, l)
        if abs(theta) < 1e-12:
            continue
        xt, _ = man.coordinate_retract(x, l, -eta * theta)
        assert f(xt) <= f0 + 1e-12


def test_riemannian_gradient_projection_idempotent(family_case):
    """Projecting the Riemannian gradient again leaves it unchanged (it is
    already tangent)."""
    man, x = family_case
    g = SplitMix64(76).gaussian(*man.gradient_shape)
    u = man.riemannian_gradient(x, g)
    if man.family == "spsd_factored":
        return  # the factor space is unconstrained
    if man.family in ("stiefel", "hyperbolic", "symplectic", "grassmann",
                      "doubly_stochastic", "multinomial"):
        # re-projecting through the gradient formula with the metric-matched
        # ambient representative must reproduce u
        if man.family == "stiefel":
            v = u - x @ (0.5 * (x.T @ u + u.T @ x))
        elif man.family == "grassmann":
            v = u - x @ (x.T @ u)
        else:
            return
        assert np.linalg.norm(v - u) <= 1e-12 * max(1.0, np.linalg.norm(u))


def test_inplace_matches_pure(family_case):
    man, x = family_case
    l = man.enumerate_basis()[0]
    pure, _ = man.coordinate_retract(x, l, 0.03)
    y = x.copy()
    inp, _ = man.coordinate_retract(y, l, 0.03, inplace=True)
    assert inp is y
    assert np.array_equal(pure, inp)


def test_flop_parts_positive(family_case):
    man, _ = family_case
    for l in man.enumerate_basis():
        d, u = man.flop_parts(l)
        assert d > 0 and u > 0
        assert man.flop_cost(l) == d + u


@pytest.mark.parametrize("algo", ["rgd", "rcd", "rcdlin"])
def test_every_algorithm_runs_with_every_log(family_case, algo):
    """Each family runs rgd, rcd and rcdlin with both logs every epoch: the
    audit holds, rgd charges K full steps, every logged norm is finite and
    the final point is feasible."""
    man, x0 = family_case
    f, c = _linear_objective(man, 77)
    cfg = OptimizerConfig(algorithm=algo, epochs=3, eta=1e-3, trace="epoch",
                          grad_log_every=1, feas_log_every=1)
    x, trace = optimize(man, Objective(f, lambda _: c), x0, cfg)
    assert flop_audit(trace, man, cfg).ok
    if algo == "rgd":
        assert trace.update_flops == cfg.epochs * man.rgd_flops()
    logs = [(r.grad_norm, r.feasibility) for r in trace.records]
    assert len(logs) == cfg.epochs and all(map(math.isfinite, sum(logs, ())))
    assert man.feasibility_residual(x) <= 1e-10


def test_enumeration_order_examples():
    st3 = make_manifold(ManifoldDescriptor("stiefel", (3, 2)))
    assert [tuple(l) for l in st3.enumerate_basis()] == [(0, 1), (0, 2), (1, 2)]
    ds = make_manifold(ManifoldDescriptor("doubly_stochastic", (2, 3)))
    assert [tuple(l) for l in ds.enumerate_basis()] == [(0, 0), (0, 1)]
    sp = make_manifold(ManifoldDescriptor("symplectic", (1, 1)))
    assert [tuple(l) for l in sp.enumerate_basis()] == [(0, 0), (0, 1), (1, 1)]


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ManifoldDescriptor("stiefel", (3, 5))
    with pytest.raises(ValueError):
        ManifoldDescriptor("nope", (3, 2))
    with pytest.raises(ValueError):
        ManifoldDescriptor("doubly_stochastic", (3, 3),
                           mu=np.array([0.5, 0.5, 0.5]), nu=np.array([1 / 3] * 3))
    with pytest.raises(ValueError):
        ManifoldDescriptor("spd_bures_wasserstein", (4, 3))


def test_feasibility_residual_examples():
    st = make_manifold(ManifoldDescriptor("stiefel", (6, 3)))
    x = np.eye(6)[:, :3]
    assert st.feasibility_residual(x) == 0.0
    assert np.isclose(st.feasibility_residual(1.1 * x), 0.21 * np.sqrt(3.0))
    hy = make_manifold(ManifoldDescriptor("hyperbolic", (2, 1)))
    assert hy.feasibility_residual(np.array([[1.0], [0.0]])) == 0.0


def test_families_write_only_their_own_update():
    """The copy, the zero step, the basis list, the tangent draw and the
    shape live once, in ``Manifold``; a family supplies ``_retract``."""
    classes = {type(make_manifold(ManifoldDescriptor(f, d))) for f, d in CASES}
    for cls in classes:
        for klass in cls.__mro__[:cls.__mro__.index(Manifold)]:
            own = set(vars(klass))
            assert not own & {"coordinate_retract", "enumerate_basis", "random_tangent"}, klass
            assert ("ambient_shape" in own) == (klass.family == "symplectic"), klass


def test_list_dims_give_tuple_shape():
    desc = ManifoldDescriptor("stiefel", [6, 2])
    assert desc.dims == (6, 2)
    man = make_manifold(desc)
    assert man.ambient_shape == (6, 2)
    man.check_shape(man.random_point(SplitMix64(1)))
