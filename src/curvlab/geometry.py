"""Chart-based manifold geometry.

Points are plain complex arrays of shape (..., n) holding the chart
coordinates z^1..z^n; all evaluators broadcast over leading batch axes.
The module owns the frame conversion between real J-invariant metrics and
Hermitian matrix fields, Wirtinger differentiation (analytic jets or a
fourth-order central stencil), and quadrature over fundamental domains.

Volume convention, fixed globally: the volume form equals
det(h) * 2^n times the Lebesgue measure of the real chart coordinates.
Every integral and global norm in the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CrossCheckFailed,
    NonFiniteIntegrand,
    NotJInvariant,
    NotPositive,
    StencilOutOfDomain,
)
from .jets import Jet2

NODE_CHUNK = 1024  # nodes per call of every chunked map over grid nodes


def map_nodes(fn, nodes):
    """fn over chunks of at most NODE_CHUNK rows of `nodes`, joined along axis 0.

    fn returns an array or a tuple of arrays, each with the chunk's nodes
    along its first axis.  Each chunk's result is written into one output
    per array, allocated at the first chunk; no per-chunk list is joined.
    A pass that accumulates instead (fn returns None) returns None.
    """
    N = len(nodes)
    out = None
    for lo in range(0, max(N, 1), NODE_CHUNK):
        hi = min(lo + NODE_CHUNK, N)
        res = fn(nodes[lo:hi])
        if res is None:
            continue
        parts = res if isinstance(res, tuple) else (res,)
        if out is None:
            out = [np.empty((N,) + p.shape[1:], dtype=p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[lo:hi] = p
    if out is None:
        return None
    return tuple(out) if isinstance(res, tuple) else out[0]


# ---------------------------------------------------------------------------
# chart domains
# ---------------------------------------------------------------------------


class ChartDomain:
    """Region on which a metric field may be evaluated."""

    def contains(self, z, margin: float = 0.0):
        raise NotImplementedError

    def require(self, z, margin: float = 0.0):
        ok = self.contains(z, margin)
        if not np.all(ok):
            raise StencilOutOfDomain(
                f"point (or stencil of extent {margin:g}) leaves the chart domain"
            )


class FullDomain(ChartDomain):
    def contains(self, z, margin: float = 0.0):
        z = np.asarray(z)
        return np.all(np.isfinite(z), axis=-1)


class PeriodicDomain(ChartDomain):
    """Torus chart: every finite point is admissible."""

    def __init__(self, periods: Sequence[float]):
        self.periods = tuple(float(p) for p in periods)

    def contains(self, z, margin: float = 0.0):
        z = np.asarray(z)
        return np.all(np.isfinite(z), axis=-1)


class PuncturedDomain(ChartDomain):
    """Complement of a ball around the origin (Hopf chart |z| > 0)."""

    def __init__(self, min_radius: float = 1e-6):
        self.min_radius = float(min_radius)

    def contains(self, z, margin: float = 0.0):
        z = np.asarray(z)
        r = np.linalg.norm(z, axis=-1)
        return r > self.min_radius + margin


class UpperHalfFirstDomain(ChartDomain):
    """Product chart {Im w > 0} x C^(n-1), w the first coordinate."""

    def contains(self, z, margin: float = 0.0):
        z = np.asarray(z)
        return np.imag(z[..., 0]) > margin


# ---------------------------------------------------------------------------
# metric fields and their jets
# ---------------------------------------------------------------------------


class MetricJet:
    """Value and Wirtinger derivatives of h_{i jbar} at a batch of points.

    H     : (..., n, n)            entries h_{i jbar}
    d1    : (..., 2n, n, n)        d1[A] = d_A H
    d2    : (..., 2n, 2n, n, n)    d2[A, B] = d_A d_B H, symmetric in (A, B)
    mixed : (..., n, n, n, n)      mixed[k, l] = d_k d_lbar H = d2[k, n + l]

    `d2` may be pending: a zero-argument callable, run on the first read
    of `d2` and kept.  A pending jet carries `mixed` eagerly, so the
    consumers that read only the mixed block (the Gauduchon operator, the
    Chern-Ricci form) never force it.
    """

    __slots__ = ("H", "d1", "_d2", "_mixed")

    def __init__(self, H, d1, d2, mixed=None):
        self.H = H
        self.d1 = d1
        self._d2 = d2
        self._mixed = mixed

    @property
    def n(self) -> int:
        return self.H.shape[-1]

    @property
    def d2(self) -> np.ndarray:
        if callable(self._d2):
            self._d2 = self._d2()
        return self._d2

    @property
    def pending(self) -> bool:
        """True while the full second derivatives have not been computed."""
        return callable(self._d2)

    @property
    def mixed(self) -> np.ndarray:
        if self._mixed is not None:
            return self._mixed
        n = self.n
        return self.d2[..., :n, n:, :, :]


def metric_jet_from_entries(entries) -> MetricJet:
    """Stack an n x n nested list of Jet2 entries into a MetricJet."""
    n = len(entries)
    H = np.stack([np.stack([entries[i][j].val for j in range(n)], axis=-1) for i in range(n)], axis=-2)
    d1 = np.stack(
        [np.stack([entries[i][j].d1 for j in range(n)], axis=-1) for i in range(n)], axis=-2
    )  # (..., 2n, i, j): the derivative slot rides third-from-last
    d2 = np.stack(
        [np.stack([entries[i][j].d2 for j in range(n)], axis=-1) for i in range(n)], axis=-2
    )
    return MetricJet(H, d1, d2)


@dataclass
class HermitianMetricField:
    """Chart-local Hermitian metric h_{i jbar}(z) with derivative evaluators.

    jet_fn returns exact analytic derivatives when the catalog provides
    closures; value_fn alone serves the finite-difference route.  `engine`
    is the route every jet of this metric takes: the analytic one unless
    the metric is bound to another (`dataclasses.replace(metric, engine=...)`).
    """

    n: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    jet_fn: Optional[Callable[[np.ndarray], MetricJet]] = None
    domain: ChartDomain = field(default_factory=FullDomain)
    name: str = "metric"
    engine: DerivativeEngine = field(default_factory=lambda: DEFAULT_ENGINE)

    @property
    def has_analytic(self) -> bool:
        return self.jet_fn is not None

    def value(self, z) -> np.ndarray:
        return self.value_fn(np.asarray(z, dtype=complex))

    def jet(self, z) -> MetricJet:
        """The jet by the metric's route; with engine.crosscheck and both
        routes present, the analytic and finite-difference jets are compared."""
        z = np.asarray(z, dtype=complex)
        eng = self.engine
        if eng.mode == "analytic" and self.jet_fn is None:
            raise ValueError(f"metric {self.name!r} has no analytic derivatives")
        check = eng.crosscheck and self.jet_fn is not None
        ana = self.jet_fn(z) if eng.mode == "analytic" or check else None
        fd = eng.matrix_jet(self.value_fn, z, self.domain) if eng.mode == "fd" or check else None
        if check:
            err = np.max([
                _maxabs(ana.H - fd.H),
                _maxabs(ana.d1 - fd.d1),
                _maxabs(ana.d2 - fd.d2) * eng.step,  # second-derivative roundoff scales as eps/h^2
            ])  # np.max keeps a NaN, where the builtin max may drop it
            if not err <= eng.crosscheck_tol:
                raise CrossCheckFailed(
                    f"analytic vs finite-difference jet mismatch {err:.3e} on {self.name!r}"
                )
        return ana if eng.mode == "analytic" else fd

    def check_positive(self, z, tol: float = 1e-12):
        """Hermitian symmetry and positive-definiteness screen at points z."""
        H = self.value(z)
        herm = _maxabs(H - np.conj(np.swapaxes(H, -1, -2)))
        if herm > 1e-10:
            raise NotPositive(f"{self.name}: Hermitian symmetry violated by {herm:.3e}")
        w = np.linalg.eigvalsh(H)
        if np.min(w) <= tol:
            raise NotPositive(f"{self.name}: smallest eigenvalue {np.min(w):.3e}")
        return float(np.min(w))


def _maxabs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


# ---------------------------------------------------------------------------
# frame conversion (real J-invariant metric <-> Hermitian matrix)
# ---------------------------------------------------------------------------


def standard_complex_structure(n: int) -> np.ndarray:
    """J with J d/dx^i = d/dy^i for the ordering (x^1..x^n, y^1..y^n)."""
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    return J


def _adapted_basis(J: np.ndarray) -> np.ndarray:
    """Basis B with J B = B J_std, built by pairing vectors with their J-images."""
    m = J.shape[0]
    n = m // 2
    cols = []
    for e in np.eye(m):
        cand = cols + [e]
        if np.linalg.matrix_rank(np.column_stack(cand + [J @ c for c in cand])) == 2 * len(cand):
            cols.append(e)
        if len(cols) == n:
            break
    B = np.column_stack(cols + [J @ c for c in cols])
    return B


def real_to_hermitian(g_real: np.ndarray, J: Optional[np.ndarray] = None, tol: float = 1e-12):
    """Convert a J-invariant real metric to the Hermitian matrix h_{i jbar}.

    In the induced complex frame h_{i jbar} = (g_ij + i g_iJ) / 2 where the
    second block pairs d/dx^i with J d/dx^j.
    """
    g = np.asarray(g_real, dtype=float)
    m = g.shape[0]
    if m % 2:
        raise ValueError("real metric must have even dimension")
    n = m // 2
    if J is None:
        J = standard_complex_structure(n)
    J = np.asarray(J, dtype=float)
    if _maxabs(J @ J + np.eye(m)) > 1e-10:
        raise ValueError("J is not a complex structure (J^2 != -Id)")
    scale = _maxabs(g)
    if _maxabs(J.T @ g @ J - g) > tol * max(scale, 1.0):
        raise NotJInvariant(
            f"|g(J.,J.) - g| = {_maxabs(J.T @ g @ J - g):.3e} exceeds {tol:g}"
        )
    if _maxabs(J - standard_complex_structure(n)) > 0:
        B = _adapted_basis(J)
        g = B.T @ g @ B
    h = 0.5 * (g[:n, :n] + 1j * g[:n, n:])
    w = np.linalg.eigvalsh(h)
    if np.min(w) <= 0:
        raise NotPositive(f"converted Hermitian matrix has eigenvalue {np.min(w):.3e}")
    return h


def hermitian_to_real(h: np.ndarray) -> np.ndarray:
    """Inverse frame change: g = [[2 Re h, 2 Im h], [-2 Im h, 2 Re h]]."""
    h = np.asarray(h, dtype=complex)
    A = 2.0 * np.real(h)
    B = 2.0 * np.imag(h)
    top = np.concatenate([A, B], axis=-1)
    bot = np.concatenate([-B, A], axis=-1)
    return np.concatenate([top, bot], axis=-2)


# ---------------------------------------------------------------------------
# Wirtinger differentiation
# ---------------------------------------------------------------------------

_C1 = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0  # offsets -2,-1,1,2
_O1 = np.array([-2.0, -1.0, 1.0, 2.0])
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0  # offsets -2..2
_O2 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _wirtinger_matrix(n: int) -> np.ndarray:
    """U[A, a]: Wirtinger slot A as combination of real partials a."""
    U = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        U[i, i] = 0.5
        U[i, n + i] = -0.5j
        U[n + i, i] = 0.5
        U[n + i, n + i] = 0.5j
    return U


@dataclass
class DerivativeEngine:
    """Derivative evaluation policy.

    mode 'analytic' uses supplied closures; 'fd' uses fourth-order central
    differences in the underlying real coordinates with the given step.
    When crosscheck is set and both routes exist, they are compared.
    """

    mode: str = "analytic"
    step: float = 1e-4
    crosscheck: bool = False
    crosscheck_tol: float = 1e-4

    def __post_init__(self):
        if self.mode not in ("analytic", "fd"):
            raise ValueError(f"unknown derivative mode {self.mode!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")

    # real displacement of coordinate a (x^i for a<n, y^i for a>=n)
    @staticmethod
    def _shift(z, a: int, t: float):
        z = np.array(z, dtype=complex, copy=True)
        n = z.shape[-1]
        if a < n:
            z[..., a] += t
        else:
            z[..., a - n] += 1j * t
        return z

    def real_jet(self, fn, z, domain: Optional[ChartDomain] = None):
        """Value plus first/second real-coordinate derivatives of fn."""
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        h = self.step
        if domain is not None:
            domain.require(z, margin=2.0 * h * np.sqrt(2.0))
        f0 = np.asarray(fn(z), dtype=complex)
        comp = f0.shape[len(z.shape) - 1 :]
        batch = z.shape[:-1]
        d1 = np.zeros(batch + (2 * n,) + comp, dtype=complex)
        d2 = np.zeros(batch + (2 * n, 2 * n) + comp, dtype=complex)
        for a in range(2 * n):
            acc1 = np.zeros_like(f0)
            for c, o in zip(_C1, _O1):
                acc1 = acc1 + c * np.asarray(fn(self._shift(z, a, o * h)))
            d1[(..., a) + (slice(None),) * len(comp)] = acc1 / h
            acc2 = np.zeros_like(f0)
            for c, o in zip(_C2, _O2):
                if o == 0.0:
                    acc2 = acc2 + c * f0
                else:
                    acc2 = acc2 + c * np.asarray(fn(self._shift(z, a, o * h)))
            d2[(..., a, a) + (slice(None),) * len(comp)] = acc2 / h**2
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                acc = np.zeros_like(f0)
                for ca, oa in zip(_C1, _O1):
                    for cb, ob in zip(_C1, _O1):
                        zz = self._shift(self._shift(z, a, oa * h), b, ob * h)
                        acc = acc + ca * cb * np.asarray(fn(zz))
                mixed = acc / h**2
                d2[(..., a, b) + (slice(None),) * len(comp)] = mixed
                d2[(..., b, a) + (slice(None),) * len(comp)] = mixed
        return f0, d1, d2

    def scalar_jet(self, fn, z, domain: Optional[ChartDomain] = None) -> Jet2:
        """Finite-difference Jet2 of a scalar field."""
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        f0, d1r, d2r = self.real_jet(fn, z, domain)
        U = _wirtinger_matrix(n)
        d1 = np.einsum("Aa,...a->...A", U, d1r)
        d2 = np.einsum("Aa,Bb,...ab->...AB", U, U, d2r)
        return Jet2(n, f0, d1, d2)

    def matrix_jet(self, fn, z, domain: Optional[ChartDomain] = None) -> MetricJet:
        """Finite-difference MetricJet of a matrix field."""
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        f0, d1r, d2r = self.real_jet(fn, z, domain)
        U = _wirtinger_matrix(n)
        d1 = np.einsum("Aa,...aij->...Aij", U, d1r)
        d2 = np.einsum("Aa,Bb,...abij->...ABij", U, U, d2r)
        return MetricJet(f0, d1, d2)


DEFAULT_ENGINE = DerivativeEngine()
FD_ENGINE = DerivativeEngine(mode="fd")


def wirtinger(fld, point, order: int = 1, engine: Optional[DerivativeEngine] = None):
    """Wirtinger derivatives of a scalar or matrix field at a chart point.

    Returns a dict with 'value', 'holo' (d_i), 'anti' (d_ibar) and, for
    order 2, 'second' with all mixed Wirtinger second derivatives indexed
    over the 2n letters.  `fld` is either a plain evaluator z -> value or
    an object with analytic jets (Jet2 factory / HermitianMetricField).  A
    given `engine` overrides a metric's own route on a copy of the metric.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    z = np.asarray(point, dtype=complex)

    if isinstance(fld, HermitianMetricField):
        eng = engine or (fld.engine if fld.has_analytic else FD_ENGINE)
        jet = replace(fld, engine=eng).jet(z)
        val, d1, d2 = jet.H, jet.d1, jet.d2
    else:
        probe = fld(z)
        if isinstance(probe, Jet2):
            eng = engine or DEFAULT_ENGINE
            val, d1, d2 = probe.val, probe.d1, probe.d2
            if eng.mode == "fd" or eng.crosscheck:
                fd = eng.scalar_jet(lambda p: fld(p).val, z)
                if eng.crosscheck:
                    # np.max keeps a NaN, where the builtin max may drop it
                    err = np.max([_maxabs(fd.d1 - d1), _maxabs(fd.d2 - d2) * eng.step])
                    if not err <= eng.crosscheck_tol:
                        raise CrossCheckFailed(f"jet cross-check failed: {err:.3e}")
                if eng.mode == "fd":
                    d1, d2 = fd.d1, fd.d2
        else:
            eng = engine or FD_ENGINE
            if np.shape(probe) == z.shape[:-1]:
                jet = eng.scalar_jet(fld, z)
                val, d1, d2 = jet.val, jet.d1, jet.d2
            else:
                jet = eng.matrix_jet(fld, z)
                val, d1, d2 = jet.H, jet.d1, jet.d2

    # the derivative slot follows the batch axes, for scalar and matrix fields
    holo, anti = np.split(d1, 2, axis=z.ndim - 1)
    out = {"value": val, "holo": holo, "anti": anti}
    if order == 2:
        out["second"] = d2
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def volume_weights(metric: HermitianMetricField, grid: QuadratureGrid) -> np.ndarray:
    """Node weights of the volume form: Lebesgue weights times det(h) 2^n."""
    H = metric.value(grid.nodes)
    return grid.lebesgue_w * (np.real(np.linalg.det(H)) * 2.0**metric.n)


@dataclass
class QuadratureGrid:
    """Quadrature nodes with weights for the declared volume convention.

    lebesgue_w are weights for the real-coordinate Lebesgue measure of the
    fundamental domain; the volume weights of a metric multiply in its
    det(h) 2^n (`volume_weights`).  Structured-grid metadata (`axes`)
    supports nodal derivative operators where a manifold provides them.
    """

    nodes: np.ndarray  # (N, n) complex
    lebesgue_w: np.ndarray  # (N,)
    axes: Optional[dict] = None  # structured-grid info for diff ops
    # smooth function basis for the Gauduchon solver (catalog.TorusBasis or
    # catalog.HopfBasis)
    basis: Optional[object] = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=complex)
        self.lebesgue_w = np.asarray(self.lebesgue_w, dtype=float)
        if self.nodes.ndim != 2 or len(self.lebesgue_w) != len(self.nodes):
            raise ValueError("nodes and weights must align")
        if len(self.nodes) == 0:
            raise ValueError("a quadrature grid needs at least one node")
        if np.any(self.lebesgue_w <= 0):
            raise ValueError("quadrature weights must be positive")

    def basis_batch(self, z):
        """The whole basis at a node chunk (BasisJets).  A method, so a copy
        `replace(grid, basis=...)` evaluates the copy's basis."""
        return self.basis(z)


def integrate(metric: HermitianMetricField, grid: QuadratureGrid, integrand) -> float:
    """Integral of a pointwise scalar against the volume weights of `metric` on `grid`."""
    if callable(integrand):
        vals = np.asarray(integrand(grid.nodes), dtype=float)
    else:
        vals = np.asarray(integrand, dtype=float)
    if vals.shape != (len(grid.nodes),):
        raise ValueError("integrand values must be one scalar per node")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise NonFiniteIntegrand(idx, vals[idx])
    return float(np.sum(volume_weights(metric, grid) * vals))
