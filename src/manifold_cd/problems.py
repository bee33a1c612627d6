"""Benchmark problem definitions: objectives, gradients, seeded generators,
reference optima, the problem flags, and named experiment presets.

Every generator is a pure function of (dims, seed): data is drawn from one
SplitMix64 stream in a fixed documented order, so regenerating a problem
yields bitwise-identical matrices.

Reference values carry their provenance: ``closed_form`` (an SVD, a
planted spectrum or a planted optimum) or ``long_run_baseline`` (a
full-gradient run with a 10x budget, used where no closed form exists).  The
optimality gap is |f(X) - f*| / |f*| when f* is nonzero; planted problems
with f* = 0 report the absolute gap and flag it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import thin_qr, thin_svd
from .manifolds import ManifoldDescriptor, make_manifold
from .optimize import Objective, OptimizerConfig, run_rgd
from .rng import SplitMix64

PROBLEMS = (
    "procrustes",
    "pca",
    "nearest-symplectic",
    "weighted-ls",
    "ds-quadratic",
    "lorentz",
)

# problem flags read by one problem only: flag -> (that problem, default)
PROBLEM_FLAGS = {
    "cond": ("pca", 1e3),
    "density": ("weighted-ls", 1.0),
    "planted": ("nearest-symplectic", False),
}


def check_problem_flags(problem: str, **flags) -> None:
    """Reject a problem flag set away from its default on a problem that
    does not read it, rather than ignore it silently, and an unknown flag."""
    for name, val in flags.items():
        if name not in PROBLEM_FLAGS:
            raise TypeError(f"unknown problem flag {name!r}")
        owner, default = PROBLEM_FLAGS[name]
        if problem != owner and val != default:
            raise ValueError(f"--{name} applies only to --problem {owner}, "
                             f"not {problem}")


@dataclass
class Reference:
    value: float | None
    provenance: str              # "closed_form" | "long_run_baseline" | "none"


@dataclass
class ProblemSpec:
    name: str
    descriptor: ManifoldDescriptor
    seed: int
    params: dict = field(default_factory=dict)


def optimality_gap(f_final: float, f_star: float) -> tuple[float, bool]:
    """Relative gap |f - f*|/|f*|; absolute (flagged) when f* = 0."""
    if f_star != 0.0:
        return abs(f_final - f_star) / abs(f_star), False
    return abs(f_final), True


# -- orthogonal Procrustes ---------------------------------------------------


def make_procrustes(n: int, p: int, seed: int):
    """min over Stiefel of |XA - B|^2, in the equivalent linear form
    f(X) = -<XA, B> = <X, C> with the constant gradient C = -B A'.

    The optimum is the polar factor U V' of B A' (thin SVD), so f* is known
    in closed form.
    """
    rng = SplitMix64(seed)
    a = rng.gaussian(p, p)
    b = rng.gaussian(n, p)
    c = -b @ a.T
    u, _, v = thin_svd(b @ a.T)
    x_star = u @ v.T
    f_star = float(np.sum(x_star * c))
    spec = ProblemSpec("procrustes", ManifoldDescriptor("stiefel", (n, p)), seed)
    obj = Objective(
        value=lambda x: float((x * c).sum()),
        euclid_grad=lambda x: c,
        grad_flops=0,
    )
    return spec, obj, Reference(f_star, "closed_form")


# -- PCA on the Grassmann manifold -------------------------------------------


def make_pca(n: int, p: int, cond: float, seed: int):
    """min over Grassmann of -tr(X' A X), A = Q diag(lam) Q' with a geometric
    spectrum lam_i = cond^(-i/(n-1)) (so lam_1/lam_n = cond).

    The optimum is the span of the top-p eigenvectors, so f* is minus the
    sum of the top-p eigenvalues, read off the planted spectrum.
    """
    if n < 2:
        raise ValueError("pca needs n >= 2: the spectrum spreads cond over n - 1 steps")
    if not cond >= 1.0:
        raise ValueError(f"pca needs cond >= 1 (largest over smallest eigenvalue), got {cond}")
    rng = SplitMix64(seed)
    q, _ = thin_qr(rng.gaussian(n, n))
    lam = np.array([cond ** (-i / (n - 1)) for i in range(n)])
    a = q @ np.diag(lam) @ q.T
    a = 0.5 * (a + a.T)
    spec = ProblemSpec("pca", ManifoldDescriptor("grassmann", (n, p)), seed)
    grad_flops = 2 * n * n * p + n * p
    obj = Objective(
        value=lambda x: -float(np.sum(x * (a @ x))),
        euclid_grad=lambda x: -2.0 * (a @ x),
        grad_flops=grad_flops,
    )
    f_star = -float(np.sum(lam[:p]))  # lam is descending: the top-p sum
    return spec, obj, Reference(f_star, "closed_form")


# -- nearest symplectic matrix -----------------------------------------------


def make_nearest_symplectic(n: int, p: int, seed: int,
                            planted: bool = PROBLEM_FLAGS["planted"][1]):
    """min over Sp(n, p) of |X - A|^2 with A a seeded Gaussian (or, for the
    planted variant, a feasible point, making f* = 0 exactly).

    The non-planted reference comes from a long full-gradient run (10x
    budget), resolved lazily by ``long_run_reference``.
    """
    rng = SplitMix64(seed)
    desc = ManifoldDescriptor("symplectic", (n, p))
    man = make_manifold(desc)
    if planted:
        a = man.random_point(rng)
        for l in man.enumerate_basis():
            a, _ = man.coordinate_retract(a, l, 0.15 * rng.normal(), inplace=True)
        ref = Reference(0.0, "closed_form")
    else:
        a = rng.gaussian(2 * n, 2 * p)
        ref = Reference(None, "long_run_baseline")
    spec = ProblemSpec("nearest-symplectic", desc, seed)
    np4 = 4 * n * p
    obj = Objective(
        value=lambda x: float(np.sum((x - a) ** 2)),
        euclid_grad=lambda x: 2.0 * (x - a),
        grad_flops=2 * np4,
    )
    return spec, obj, ref


def long_run_reference(spec: ProblemSpec, obj: Objective, x0: np.ndarray,
                       base_epochs: int, eta: float) -> float:
    """f* substitute: a full-gradient run with 10x the epoch budget."""
    man = make_manifold(spec.descriptor)
    cfg = OptimizerConfig(algorithm="rgd", epochs=10 * base_epochs, eta=eta,
                          seed=spec.seed, trace="epoch")
    _, trace = run_rgd(man, obj, x0, cfg)
    return min(r.f for r in trace.records)


# -- weighted least squares on the factored SPSD manifold ---------------------


def make_weighted_ls(n: int, p: int, density: float, seed: int):
    """min over factored SPSD of |A o (Y Y') - B|^2 with B = A o X*,
    X* = Y* Y*' planted with exponentially decaying singular values
    (sigma_i(Y*) = 10^(-i/(p-1)), a two-decade spread in the eigenvalues of
    X*), and A a symmetric 0/1 mask with the given density (density 1.0
    means the all-ones mask).
    """
    if not (0.0 < density <= 1.0):
        raise ValueError("density must be in (0, 1]")
    rng = SplitMix64(seed)
    uy, _ = thin_qr(rng.gaussian(n, p))
    vy, _ = thin_qr(rng.gaussian(p, p))
    sig = np.array([10.0 ** (-i / max(p - 1, 1)) for i in range(p)])
    y_star = uy @ np.diag(sig) @ vy.T
    x_star = y_star @ y_star.T
    if density >= 1.0:
        mask = np.ones((n, n))
    else:
        mask = np.zeros((n, n))
        i, j = np.triu_indices(n)  # row-major: (0, 0), (0, 1), ..., (n-1, n-1)
        keep = rng.uniform_vector(i.size) < density
        mask[i, j] = keep
        mask[j, i] = keep
    desc = ManifoldDescriptor("spsd_factored", (n, p))
    spec = ProblemSpec("weighted-ls", desc, seed,
                       {"density": density, "x_star": x_star, "mask": mask})
    return spec, weighted_ls_objective(spec), Reference(0.0, "closed_form")


def weighted_ls_objective(spec: ProblemSpec) -> Objective:
    """|A o (Y Y') - B|^2 for the mask A and planted X* of a weighted-ls spec."""
    mask = spec.params["mask"]
    b = mask * spec.params["x_star"]
    n, p = spec.descriptor.dims
    return Objective(
        value=lambda y: float(np.sum((mask * (y @ y.T) - b) ** 2)),
        euclid_grad=lambda y: 2.0 * (mask * (y @ y.T) - b),
        grad_flops=2 * n * n * p + 3 * n * n,
    )


# -- doubly stochastic smoke objective ----------------------------------------


def make_ds_quadratic(m: int, n: int, seed: int):
    """min over the transport polytope of 0.5 |X - T|^2 with a feasible
    seeded target T (smoke-test objective for the elementwise family)."""
    rng = SplitMix64(seed)
    mu = 0.5 + rng.uniform_vector(m)
    mu /= mu.sum()
    nu = 0.5 + rng.uniform_vector(n)
    nu /= nu.sum()
    desc = ManifoldDescriptor("doubly_stochastic", (m, n), mu=mu, nu=nu)
    man = make_manifold(desc)
    target = man.random_point(rng)
    spec = ProblemSpec("ds-quadratic", desc, seed)
    obj = Objective(
        value=lambda x: 0.5 * float(np.sum((x - target) ** 2)),
        euclid_grad=lambda x: x - target,
        grad_flops=m * n,
    )
    return spec, obj, Reference(None, "none")


# -- initial points ------------------------------------------------------------


def initial_point(spec: ProblemSpec) -> np.ndarray:
    """Deterministic initializer: a fixed function of the problem seed.

    The transport polytope starts at the product coupling mu nu'; every other
    family at its ``random_point`` drawn from the seed (the q-factor of a
    Gaussian on Stiefel/Grassmann, the canonical column selection of the
    identity on the symplectic family, a unit-norm Gaussian factor on the
    factored family).
    """
    if spec.descriptor.family == "doubly_stochastic":
        return np.outer(spec.descriptor.mu, spec.descriptor.nu)
    return make_manifold(spec.descriptor).random_point(SplitMix64(spec.seed ^ 0x5EED))


def build_problem(name: str, n: int, p: int, seed: int, **flags):
    """(spec, objective, reference) of the named problem; ``flags`` are
    problem flags, each at its ``PROBLEM_FLAGS`` default unless given."""
    check_problem_flags(name, **flags)
    flags = {key: default for key, (_, default) in PROBLEM_FLAGS.items()} | flags
    if name == "procrustes":
        return make_procrustes(n, p, seed)
    if name == "pca":
        return make_pca(n, p, flags["cond"], seed)
    if name == "nearest-symplectic":
        return make_nearest_symplectic(n, p, seed, planted=flags["planted"])
    if name == "weighted-ls":
        return make_weighted_ls(n, p, flags["density"], seed)
    if name == "ds-quadratic":
        return make_ds_quadratic(n, p, seed)
    raise ValueError(f"unknown problem {name!r}")


# -- named experiment configurations -------------------------------------------

# Stepsizes were picked by cli `grid` over the recorded log-2 grid (best
# final objective, smallest stepsize among ties); desk presets are the
# acceptance-scale runs, large presets the full-size problems.
PRESETS: dict[str, dict] = {
    "procrustes-desk": {
        "problem": "procrustes", "n": 20, "p": 10, "seed": 7,
        "algo": "rcd", "select": "cyclic", "epochs": 500,
        "eta": 0.0625, "grid": "2^-10..2^3",
    },
    "procrustes-large-p150": {
        "problem": "procrustes", "n": 200, "p": 150, "seed": 7,
        "algo": "rcd", "select": "cyclic", "epochs": 200,
        "eta": 0.0078125, "grid": "2^-10..2^3",
    },
    "procrustes-large-p50": {
        "problem": "procrustes", "n": 200, "p": 50, "seed": 7,
        "algo": "rcd", "select": "cyclic", "epochs": 200,
        "eta": 0.03125, "grid": "2^-10..2^3",
    },
    "pca-desk": {
        "problem": "pca", "n": 20, "p": 4, "seed": 3, "cond": 1e3,
        "algo": "rcdlin", "select": "cyclic", "epochs": 2000,
        "eta": 0.125, "grid": "2^-10..2^3",
    },
    "pca-large": {
        "problem": "pca", "n": 200, "p": 50, "seed": 3, "cond": 1e3,
        "algo": "rcdlin", "select": "cyclic", "epochs": 500,
        "eta": 2.0, "grid": "2^-10..2^3",
    },
    "nearest-symplectic-desk": {
        "problem": "nearest-symplectic", "n": 20, "p": 20, "seed": 11,
        "algo": "rcd", "select": "cyclic", "epochs": 200,
        "eta": 0.0078125, "grid": "2^-10..2^3",
    },
    "nearest-symplectic-large": {
        "problem": "nearest-symplectic", "n": 200, "p": 200, "seed": 11,
        "algo": "rcd", "select": "cyclic", "epochs": 50,
        "eta": 0.0078125, "grid": "2^-10..2^3",
    },
    "weighted-ls-desk-dense": {
        "problem": "weighted-ls", "n": 40, "p": 40, "seed": 19, "density": 1.0,
        "algo": "rcdlin", "select": "without-replacement", "epochs": 400,
        "inner": 320, "eta": 0.5, "grid": "2^-10..2^3",
    },
    "weighted-ls-desk-sparse": {
        "problem": "weighted-ls", "n": 40, "p": 8, "seed": 19, "density": 0.7,
        "algo": "rcdlin", "select": "without-replacement", "epochs": 400,
        "inner": 64, "eta": 0.5, "grid": "2^-10..2^3",
    },
    "lorentz-desk": {
        "problem": "lorentz", "n": 3, "p": 30, "seed": 29,
        "algo": "rcdlin", "select": "time-cyclic", "epochs": 50,
        "eta": 0.05, "eta_decay": 0.1, "grid": "2^-10..2^3",
    },
}
