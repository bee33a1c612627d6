from .base import Manifold, ManifoldDescriptor, make_manifold
from .doubly_stochastic import DoublyStochastic, Multinomial, full_sinkhorn, sinkhorn_2x2
from .hyperbolic import (
    Hyperbolic,
    lift_to_hyperboloid,
)
from .spsd import FactoredSpsd, SpdBuresWasserstein
from .stiefel import (
    Grassmann,
    Stiefel,
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
    "lift_to_hyperboloid",
    "FactoredSpsd",
    "SpdBuresWasserstein",
    "Grassmann",
    "Stiefel",
    "tsd_enumerate",
    "Symplectic",
    "symplectic_block_step",
    "symplectic_cross_derivatives",
]
