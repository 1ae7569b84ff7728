"""curvlab: a numerical laboratory for Hermitian-geometry curvature identities.

Chart-based Hermitian metrics with exact analytic jets, complexified
curvature tensors with an independent real-coordinate oracle, conformal
Gauduchon factors and sign-based classification verdicts, conformal
quotient descent, and exact-rational characteristic-class algebra.
"""

__version__ = "0.1.0"

from .catalog import ManifoldSpec, build_manifold, rng_from_seed
from .gauduchon import ConformalFactor, Verdict, classify, conformal_metric
from .geometry import (
    DerivativeEngine,
    HermitianMetricField,
    QuadratureGrid,
    hermitian_to_real,
    integrate,
    real_to_hermitian,
)
from .tensors import (
    ScalarReport,
    chern_ricci,
    christoffel,
    curvature_complexified,
    dbar_star_omega,
    riemannian_ricci,
    riemannian_scalar,
    riemannian_scalar_real_oracle,
    scalar_identity_residual,
    torsion,
)

__all__ = [
    "ManifoldSpec",
    "build_manifold",
    "rng_from_seed",
    "ConformalFactor",
    "Verdict",
    "classify",
    "conformal_metric",
    "DerivativeEngine",
    "HermitianMetricField",
    "QuadratureGrid",
    "hermitian_to_real",
    "integrate",
    "real_to_hermitian",
    "ScalarReport",
    "chern_ricci",
    "christoffel",
    "curvature_complexified",
    "dbar_star_omega",
    "riemannian_ricci",
    "riemannian_scalar",
    "riemannian_scalar_real_oracle",
    "scalar_identity_residual",
    "torsion",
]
