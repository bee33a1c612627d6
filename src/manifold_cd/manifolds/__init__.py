from .base import Manifold, ManifoldDescriptor, make_manifold
from .doubly_stochastic import DoublyStochastic, Multinomial, full_sinkhorn, sinkhorn_2x2
from .hyperbolic import (
    Hyperbolic,
    hyperbolic_canonical_gradient,
    hyperbolic_cayley_retract,
    lift_to_hyperboloid,
)
from .spsd import FactoredSpsd, SpdBuresWasserstein
from .stiefel import (
    Grassmann,
    Stiefel,
    grassmann_distance,
    stiefel_canonical_gradient,
    stiefel_canonical_inner,
    tsd_enumerate,
)
from .symplectic import Symplectic, symplectic_block_step, symplectic_cross_derivatives

__all__ = [
    "Manifold",
    "ManifoldDescriptor",
    "make_manifold",
    "DoublyStochastic",
    "Multinomial",
    "full_sinkhorn",
    "sinkhorn_2x2",
    "Hyperbolic",
    "hyperbolic_canonical_gradient",
    "hyperbolic_cayley_retract",
    "lift_to_hyperboloid",
    "FactoredSpsd",
    "SpdBuresWasserstein",
    "Grassmann",
    "Stiefel",
    "grassmann_distance",
    "stiefel_canonical_gradient",
    "stiefel_canonical_inner",
    "tsd_enumerate",
    "Symplectic",
    "symplectic_block_step",
    "symplectic_cross_derivatives",
]
