"""The uniform contract every manifold family implements.

A manifold object bundles, for one family and fixed dimensions:

* ``feasibility_residual``: Frobenius norm of the constraint violation;
* ``riemannian_gradient``: metric-dependent projection of the Euclidean
  gradient to the tangent space;
* ``enumerate_basis``: the fixed total order over coordinate labels;
* ``coordinate_derivative``: theta = <gradient, B_l> in the family's closed
  form, without materializing B_l;
* ``coordinate_retract``: the cheap structured retraction along B_l,
  returning ``(x, clamped)``; ``clamped`` is True only when an elementwise
  family had to clamp an exponent or floor an entry to stay positive;
* ``full_retract``: the full-gradient retraction used by the RGD baseline;
* ``flop_parts``: the published (derivative, update) flop counts per label.

Derivative carriers.  For most families the object theta is paired with is
the ambient Euclidean gradient itself.  The factored-SPSD family pairs it
with the factored gradient (g + g.T) @ y, and the BW family with the
symmetrized gradient; ``derivative_carrier`` computes that object once so
optimizers that reuse a gradient across many inner steps (the linearized
variant) pay for it once per refresh.  ``coordinate_derivative_from_carrier``
then reads theta from the carrier and the current point.

``materialize_basis`` builds B_l densely for the retraction-axiom and
locality checks (acceptance criteria 4 and 5) and for checking the closed
forms against the Frobenius pairing of the gradient with B_l; it is never on
the hot path.

All operations are pure unless ``inplace=True`` is passed to a retraction,
in which case the caller must hold the array exclusively.  With t = 0 the
retractions return the input bitwise unchanged.  ``coordinate_retract`` keeps
both promises here, once; a family implements only ``_retract(out, l, t)``,
which updates ``out`` in place for t != 0 and returns ``clamped``.  A step that
cannot be taken raises: ``_retract`` an ``OverflowError`` before any write,
``full_retract`` and ``riemannian_gradient`` an ArithmeticError or LinAlgError;
the epoch loop reports it as ``optimize.OptimizeAbort`` with its epoch and
step.  No family raises the engine's exception or imports from the engine.

Engine hooks.  The epoch loop names no family: the hooks below bring what one
family needs of it, and their defaults keep every other family out.
``time_cyclic_basis`` gives the hyperbolic family its time-cyclic labels,
``epoch_probe`` gives BW its definiteness check and halving retry, and
``anchored_sweep`` gives two families an ``rcdlin`` epoch in one call when
no step is recorded: the pivot-row sweep of Stiefel and Grassmann under
cyclic selection, and the column-chain sweep of the factored SPSD family
under every drawn rule, for epochs whose column chains are short.  A sweep
is an epoch kernel, ``sweep(x, d, pos, eta)``, a function of its inputs only:
it takes the positions the loop drew and returns what a step returns, for the
loop to charge, and it refuses a step as ``flops.StepRefused`` naming the step.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..indices import CoordinateIndex
from ..rng import SplitMix64

FAMILIES = (
    "stiefel",
    "grassmann",
    "hyperbolic",
    "symplectic",
    "doubly_stochastic",
    "multinomial",
    "spsd_factored",
    "spd_bures_wasserstein",
)


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Family tag plus dimensions (and marginals for the transport polytope).

    dims is (n, p) for the rotation and factored families ((m, n) for the
    doubly stochastic family); the symplectic ambient is (2n, 2p).
    """

    family: str
    dims: tuple[int, int]
    mu: np.ndarray | None = field(default=None)
    nu: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        object.__setattr__(self, "dims", tuple(map(operator.index, self.dims)))
        a, b = self.dims
        if a < 1 or b < 1:
            raise ValueError(f"dims must be positive, got {self.dims}")
        if self.family in ("stiefel", "grassmann", "hyperbolic", "symplectic",
                           "spsd_factored"):
            if b > a:
                raise ValueError(f"{self.family} needs p <= n, got {self.dims}")
        if self.family == "spd_bures_wasserstein" and a != b:
            raise ValueError("SPD descriptor needs square dims")
        if self.family == "multinomial" and b < 2:
            raise ValueError("multinomial needs at least two columns")
        if self.family == "doubly_stochastic":
            m, n = self.dims
            mu = np.full(m, 1.0 / m) if self.mu is None else np.asarray(self.mu, dtype=float)
            nu = np.full(n, 1.0 / n) if self.nu is None else np.asarray(self.nu, dtype=float)
            if mu.shape != (m,) or nu.shape != (n,):
                raise ValueError("marginal lengths must match dims")
            if np.any(mu <= 0.0) or np.any(nu <= 0.0):
                raise ValueError("marginals must be strictly positive")
            if abs(mu.sum() - 1.0) > 1e-12 or abs(nu.sum() - 1.0) > 1e-12:
                raise ValueError("marginals must sum to one")
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "nu", nu)


class Manifold(ABC):
    family: str = ""
    _basis: list[CoordinateIndex]

    def __init__(self, descriptor: ManifoldDescriptor):
        self.descriptor = descriptor

    @property
    def ambient_shape(self) -> tuple[int, int]:
        return self.descriptor.dims

    @property
    def gradient_shape(self) -> tuple[int, int]:
        """Shape of the Euclidean gradient the objective supplies (same as
        the point shape, except the factored family whose objective is a
        function of Y Y' and hands over its n x n ambient gradient)."""
        return self.ambient_shape

    def check_shape(self, x: np.ndarray) -> None:
        if x.shape != self.ambient_shape:
            raise ValueError(f"{type(self).__name__} point must have shape "
                             f"{self.ambient_shape}, got {x.shape}")

    @abstractmethod
    def feasibility_residual(self, x: np.ndarray) -> float: ...

    @abstractmethod
    def riemannian_gradient(self, x: np.ndarray, g: np.ndarray) -> np.ndarray: ...

    def gradient_norm(self, x: np.ndarray, g: np.ndarray) -> float:
        """Metric norm of the Riemannian gradient (Frobenius by default)."""
        return float(np.linalg.norm(self.riemannian_gradient(x, g)))

    def enumerate_basis(self) -> list[CoordinateIndex]:
        return self._basis

    def index_count(self) -> int:
        return len(self.enumerate_basis())

    # -- coordinate derivatives ------------------------------------------

    def derivative_carrier(self, x: np.ndarray, g: np.ndarray):
        """The object theta is read from: the gradient itself for most
        families; the factored family bundles its Y-space gradient matrix.
        Optimizers that anchor a gradient across inner steps build the
        carrier once per refresh and keep it consistent via
        ``update_carrier``."""
        return g

    def carrier_flops(self) -> int:
        return 0

    def update_carrier(self, carrier, x: np.ndarray, l: CoordinateIndex, t: float) -> int:
        """Keep an anchored carrier consistent after a coordinate step at
        label l with parameter t; returns the flops spent (0 for families
        whose carrier does not involve the moving point)."""
        return 0

    @abstractmethod
    def coordinate_derivative_from_carrier(
        self, x: np.ndarray, d, l: CoordinateIndex
    ) -> float: ...

    def coordinate_derivative(self, x: np.ndarray, g: np.ndarray, l: CoordinateIndex) -> float:
        return self.coordinate_derivative_from_carrier(x, self.derivative_carrier(x, g), l)

    # -- retractions ------------------------------------------------------

    def coordinate_retract(
        self, x: np.ndarray, l: CoordinateIndex, t: float, inplace: bool = False
    ) -> tuple[np.ndarray, bool]:
        out = x if inplace else x.copy()
        if t == 0.0:
            return out, False
        return out, self._retract(out, l, t)

    @abstractmethod
    def _retract(self, out: np.ndarray, l: CoordinateIndex, t: float) -> bool:
        """Retract ``out`` along B_l with parameter t != 0, in place; return
        ``clamped``.  Raise ``OverflowError`` before any write when the step
        cannot be taken."""

    @abstractmethod
    def full_retract(self, x: np.ndarray, u: np.ndarray, t: float) -> np.ndarray: ...

    # -- cost model --------------------------------------------------------

    @abstractmethod
    def flop_parts(self, l: CoordinateIndex) -> tuple[int, int]:
        """(derivative flops, update flops) for one coordinate step."""

    def flop_cost(self, l: CoordinateIndex) -> int:
        d, u = self.flop_parts(l)
        return d + u

    def rgd_flops(self) -> int:
        """Published model cost of one full-gradient step (projection plus
        full retraction), excluding the gradient oracle."""
        raise NotImplementedError

    # A descent step retracts with parameter -step_scale * eta * theta; the
    # BW family uses 2.0 so its quadratic two-row update comes out in the
    # documented form.
    step_scale: float = 1.0

    # -- engine hooks ------------------------------------------------------

    def time_cyclic_basis(self) -> list[CoordinateIndex]:
        """The labels a time-cyclic epoch sweeps."""
        raise ValueError("time-cyclic selection is only valid on the hyperbolic family")

    def anchored_sweep(self, labels: list, n_inner: int, selection: str):
        """``sweep(x, d, pos, eta) -> (x, update flops, carrier upkeep
        flops, clamped steps)``: an anchored epoch of ``n_inner`` steps in
        one call, bitwise the steps ``coordinate_step`` takes, or None to
        step label by label (also where a sweep would be the slower, which
        the family decides from ``n_inner`` and its dimensions).  The engine
        asks only for epochs that take a step.
        ``pos`` is the array of ``n_inner`` label positions that the epoch
        loop drew (``optimize.epoch_positions``) and the step path would
        index too; the loop charges what the sweep returns, so a sweep never
        sees the trace, the generator or the epoch.  A refused step raises
        ``flops.StepRefused`` with ``coordinate_step``'s reason and the step s
        it reached, which the loop reports at (k, s)."""
        return None

    # epoch_probe(x) False: the epoch is retried at half the stepsize
    epoch_probe = None

    @abstractmethod
    def materialize_basis(self, x: np.ndarray, l: CoordinateIndex) -> np.ndarray: ...

    @abstractmethod
    def random_point(self, rng: SplitMix64) -> np.ndarray: ...


def make_manifold(descriptor: ManifoldDescriptor) -> Manifold:
    from .doubly_stochastic import DoublyStochastic, Multinomial
    from .hyperbolic import Hyperbolic
    from .spsd import FactoredSpsd, SpdBuresWasserstein
    from .stiefel import Grassmann, Stiefel
    from .symplectic import Symplectic

    classes = {
        "stiefel": Stiefel,
        "grassmann": Grassmann,
        "hyperbolic": Hyperbolic,
        "symplectic": Symplectic,
        "doubly_stochastic": DoublyStochastic,
        "multinomial": Multinomial,
        "spsd_factored": FactoredSpsd,
        "spd_bures_wasserstein": SpdBuresWasserstein,
    }
    return classes[descriptor.family](descriptor)
