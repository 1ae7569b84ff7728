"""Exception types shared across the package."""


class CurvlabError(Exception):
    """Base class for all package errors."""


class NotJInvariant(CurvlabError):
    """Real metric is not invariant under the complex structure."""


class NotPositive(CurvlabError):
    """Matrix expected to be positive definite has a non-positive eigenvalue."""


class NotPositiveDefinite(NotPositive):
    """Catalog metric failed positive-definiteness screening."""


class SingularMetric(CurvlabError):
    """Metric matrix is not invertible to working tolerance."""


class StencilOutOfDomain(CurvlabError):
    """A finite-difference stencil node leaves the chart domain."""


class CrossCheckFailed(CurvlabError):
    """A numerical consistency check failed beyond its tolerance."""


class NonFiniteIntegrand(CurvlabError):
    """Integrand evaluated to a non-finite value at a quadrature node."""

    def __init__(self, node_index, value):
        self.node_index = int(node_index)
        self.value = value
        super().__init__(f"non-finite integrand at node {node_index}: {value!r}")


class QuadratureUnsupported(CurvlabError):
    """Manifold supports pointwise evaluation only, no global quadrature."""


class NoPositiveNullVector(CurvlabError):
    """Discrete Gauduchon null vector changes sign beyond tolerance."""


class NonConvergence(CurvlabError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class ConfigError(CurvlabError):
    """A command's flags or configuration cannot be run as given."""


class MissingMonomial(CurvlabError):
    """A required characteristic-number monomial was not supplied."""


class UnknownId(CurvlabError):
    """Unknown catalog identifier."""


class IoFailure(CurvlabError):
    """Report serialization failed."""


class NonIntegerSpinWarning(UserWarning):
    """Spin flag is set but the computed genus is not an integer."""
