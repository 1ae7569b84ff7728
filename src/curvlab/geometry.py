"""Chart-based manifold geometry.

Points are plain complex arrays of shape (..., n) holding the chart
coordinates z^1..z^n; all evaluators broadcast over leading batch axes.
The module owns the frame conversion between real J-invariant metrics and
Hermitian matrix fields, Wirtinger differentiation (analytic jets or a
fourth-order central stencil), quadrature over fundamental domains, and
nodal derivatives on their product grids.

Volume convention, fixed globally: the volume form equals
det(h) * 2^n times the Lebesgue measure of the real chart coordinates.
Every integral and global norm in the package uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
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
    """Every finite point is admissible (the whole plane and the torus charts)."""

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

    As for `jets.Jet2`, `H`, `d1` and `mixed` are formed at construction
    and `d2` may be pending: a zero-argument callable, run on the first
    read of `d2` and kept.  `mixed` is given with a pending `d2` and
    sliced once from an eager one, so the consumers that read only the
    mixed block (the Gauduchon operator, the Chern-Ricci form) never
    force it.  A forced `d2` takes the block in its mixed slots [k, n + l]
    and [n + l, k], so `mixed` reads the same before and after forcing.
    """

    __slots__ = ("H", "d1", "_d2", "mixed")

    def __init__(self, H, d1, d2, mixed=None):
        self.H = H
        self.d1 = d1
        self._d2 = d2
        n = H.shape[-1]
        self.mixed = d2[..., :n, n:, :, :] if mixed is None else mixed

    @property
    def n(self) -> int:
        return self.H.shape[-1]

    @property
    def d2(self) -> np.ndarray:
        if callable(self._d2):
            n, d2 = self.n, self._d2()
            d2[..., :n, n:, :, :] = self.mixed
            d2[..., n:, :n, :, :] = np.swapaxes(self.mixed, -4, -3)
            self._d2 = d2
        return self._d2

    @property
    def pending(self) -> bool:
        """True while the full second derivatives have not been computed."""
        return callable(self._d2)


def _stack_entries(entries, part):
    """The part of an n x n nested list of Jet2 entries, matrix axes last."""
    n = len(entries)
    return np.stack([np.stack([getattr(entries[i][j], part) for j in range(n)], axis=-1)
                     for i in range(n)], axis=-2)


def metric_jet_from_entries(entries) -> MetricJet:
    """Stack an n x n nested list of Jet2 entries into a MetricJet whose
    mixed block is the entries' blocks and whose d2 stays pending.  The
    derivative slots ride ahead of the matrix axes."""
    return MetricJet(_stack_entries(entries, "val"), _stack_entries(entries, "d1"),
                     lambda: _stack_entries(entries, "d2"), _stack_entries(entries, "mixed"))


@dataclass
class HermitianMetricField:
    """Chart-local Hermitian metric h_{i jbar}(z) with derivative evaluators.

    `engine` is the one route every jet of this metric takes: the exact
    closures `jet_fn` by default, or the stencil of `value_fn` for a metric
    bound to an 'fd' engine (`dataclasses.replace(metric, engine=...)`).
    The two routes are never mixed or compared at run time; the tests
    compare them on every catalog metric.
    """

    n: int
    value_fn: Callable[[np.ndarray], np.ndarray]
    jet_fn: Optional[Callable[[np.ndarray], MetricJet]] = None
    domain: ChartDomain = field(default_factory=FullDomain)
    name: str = "metric"
    engine: DerivativeEngine = field(default_factory=lambda: DEFAULT_ENGINE)

    def value(self, z) -> np.ndarray:
        return self.value_fn(np.asarray(z, dtype=complex))

    def jet(self, z) -> MetricJet:
        """The jet by the metric's route: the stencil of value_fn under an
        'fd' engine, the analytic closures otherwise."""
        z = np.asarray(z, dtype=complex)
        if self.engine.mode == "fd":
            return self.engine.matrix_jet(self.value_fn, z, self.domain)
        if self.jet_fn is None:
            raise ValueError(f"metric {self.name!r} has no analytic derivatives")
        return self.jet_fn(z)

    def check_positive(self, z, tol: float = 1e-12):
        """Hermitian symmetry and positive-definiteness screen at points z."""
        H = self.value(z)
        herm = _maxabs(H - np.conj(np.swapaxes(H, -1, -2)))
        if herm > 1e-10:
            raise NotPositive(f"Hermitian symmetry violated by {herm:.3e}")
        w = np.linalg.eigvalsh(H)
        if np.min(w) <= tol:
            raise NotPositive(f"smallest eigenvalue {np.min(w):.3e}")
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


def hermitian_to_real(h: np.ndarray, axis: int = -2) -> np.ndarray:
    """Inverse frame change: g = [[2 Re h, 2 Im h], [-2 Im h, 2 Re h]], with
    the matrix on axes (axis, axis + 1), by default the last two."""
    h = np.asarray(h, dtype=complex)
    row = axis % h.ndim
    n = h.shape[row]
    shape = list(h.shape)
    shape[row : row + 2] = (2 * n, 2 * n)
    g = np.empty(shape)
    lead = (slice(None),) * row
    A = 2.0 * np.real(h)
    B = 2.0 * np.imag(h)
    g[lead + (slice(None, n), slice(None, n))] = A
    g[lead + (slice(None, n), slice(n, None))] = B
    g[lead + (slice(n, None), slice(None, n))] = -B
    g[lead + (slice(n, None), slice(n, None))] = A
    return g


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
    """The derivative route of a metric (`HermitianMetricField.engine`).

    mode 'analytic' uses the metric's closures; 'fd' uses fourth-order
    central differences in the underlying real coordinates with the given
    step.  The stencil methods (`scalar_jet`, `matrix_jet`) also serve on
    their own as the reference for analytic jets.
    """

    mode: str = "analytic"
    step: float = 1e-4

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


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def volume_weights(metric: HermitianMetricField, grid: QuadratureGrid) -> np.ndarray:
    """Node weights of the volume form: Lebesgue weights times det(h) 2^n."""
    H = metric.value(grid.nodes)
    return grid.lebesgue_w * (np.real(np.linalg.det(H)) * 2.0**metric.n)


CELL_TOL = 1e-12  # distance of a node from its lattice node, relative to |z| or a period


def lattice_nodes(axes: dict) -> np.ndarray:
    """The (N, n) nodes of the product grid `axes` in C order over its
    chart axes: x = k * spacing on the torus, z1 = e^t cos(alpha) e^{i beta}
    and z2 = e^t sin(alpha) e^{i gamma} on Hopf."""
    if axes["kind"] == "torus":
        steps = [np.arange(N) * h for N, h in zip(axes["shape"], axes["spacings"])]
        x = np.stack([m.ravel() for m in np.meshgrid(*steps, indexing="ij")], axis=-1)
        n = x.shape[1] // 2
        return x[:, :n] + 1j * x[:, n:]
    T, A, B, G = np.meshgrid(axes["t"], axes["alpha"], axes["beta"], axes["gamma"], indexing="ij")
    r = np.exp(T)
    z1 = r * np.cos(A) * np.exp(1j * B)
    z2 = r * np.sin(A) * np.exp(1j * G)
    return np.stack([z1.ravel(), z2.ravel()], axis=-1)


@dataclass
class QuadratureGrid:
    """Quadrature nodes with weights for the declared volume convention.

    lebesgue_w are weights for the real-coordinate Lebesgue measure of the
    fundamental domain; the volume weights of a metric multiply in its
    det(h) 2^n (`volume_weights`).

    `axes` lays out a product grid over its chart axes: `kind` ("torus" or
    "hopf") and `shape` (nodes per axis), then on the torus `spacings`,
    the periodic step along each of x^1..x^n, y^1..y^n, and on Hopf the
    node arrays `t` (period log 2), `alpha` (Gauss-Legendre on (0, pi/2)),
    `beta` and `gamma` (period 2 pi).  Node i of such a grid is the
    lattice node at flat index i in C order (`lattice_nodes`), so a
    node's cell is its index: `NodalDerivatives` reshapes node values to
    `shape`, and the Galerkin assembly sums the node fields per t-plane.
    Construction checks it once: the node count is prod(shape), and each
    node lies within CELL_TOL of its lattice node (relative to |z| on
    Hopf, to the period on the torus); the first node that does not, and
    an unknown kind, raise ValueError.
    """

    nodes: np.ndarray  # (N, n) complex
    lebesgue_w: np.ndarray  # (N,)
    axes: Optional[dict] = None  # product-grid layout, keys as above
    # smooth function basis for the Gauduchon solver (catalog.TorusBasis or
    # catalog.HopfBasis)
    basis: Optional[object] = None
    # Always None: the basis wrapper of perfbench/tracing.py still reads this name.
    basis_batch = None

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=complex)
        self.lebesgue_w = np.asarray(self.lebesgue_w, dtype=float)
        if self.nodes.ndim != 2 or len(self.lebesgue_w) != len(self.nodes):
            raise ValueError("nodes and weights must align")
        if len(self.nodes) == 0:
            raise ValueError("a quadrature grid needs at least one node")
        if np.any(self.lebesgue_w <= 0):
            raise ValueError("quadrature weights must be positive")
        if self.axes is not None:
            self._check_layout()

    def _check_layout(self):
        """ValueError unless node i sits at lattice node i of `axes`."""
        kind, shape = self.axes["kind"], tuple(self.axes["shape"])
        if kind not in ("torus", "hopf"):
            raise ValueError(f"unknown grid kind {kind!r}")
        if len(self.nodes) != np.prod(shape):
            raise ValueError(f"{len(self.nodes)} nodes on a {shape} grid")
        z, lattice = self.nodes, lattice_nodes(self.axes)
        if kind == "hopf":
            off = np.max(np.abs(z - lattice), axis=1) / np.linalg.norm(z, axis=1)
        else:
            diff = z - lattice
            periods = np.multiply(shape, self.axes["spacings"])
            off = np.max(np.abs(np.concatenate([diff.real, diff.imag], axis=1)) / periods, axis=1)
        bad = ~(off <= CELL_TOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"node {i} (z = {z[i]}) lies off lattice node {i} of the grid")


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


# ---------------------------------------------------------------------------
# nodal derivatives on structured grids
# ---------------------------------------------------------------------------


def _fourier_diff_matrix(N: int, period: float) -> np.ndarray:
    k = np.fft.fftfreq(N, d=1.0 / N)
    F = np.fft.fft(np.eye(N), axis=0)
    D = np.fft.ifft((2j * np.pi / period) * k[:, None] * F, axis=0)
    return np.real(D)


def _barycentric_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial differentiation matrix on arbitrary nodes, from the
    barycentric weights 1 / c_j, c_j = prod_{k != j} (x_j - x_k)."""
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    c = np.prod(diff, axis=1)
    D = (c[:, None] / c[None, :]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _along(M: np.ndarray, v: np.ndarray, axis: int) -> np.ndarray:
    """M applied along one axis of the node array v, flattened back to nodes.

    v is read as (pre, N_a, post) in place, so the product needs no copy of
    the input; on the last axis (post = 1) it is one matrix product from the
    right, since a stack of matrix-vector products is several times slower.
    """
    pre = int(np.prod(v.shape[:axis], dtype=int))
    if axis == v.ndim - 1:
        return (v.reshape(pre, -1) @ M.T).reshape(-1)
    return np.matmul(M, v.reshape(pre, v.shape[axis], -1)).reshape(-1)


def _hopf_jacobian(z: np.ndarray) -> np.ndarray:
    """J[p, a, mu] = dx_a / dxi_mu at Hopf nodes, chart (t, alpha, beta, gamma),
    real coordinates (x1, x2, y1, y2), read off the nodes themselves:
    dz/dt = z, dz/dalpha = (-|z2| z1/|z1|, |z1| z2/|z2|), dz/dbeta = (i z1, 0)
    and dz/dgamma = (0, i z2)."""
    z1, z2 = z[:, 0], z[:, 1]
    r1, r2 = np.abs(z1), np.abs(z2)
    zero = np.zeros_like(z1)
    dz = np.stack([
        np.stack([z1, -r2 * z1 / r1, 1j * z1, zero], axis=-1),
        np.stack([z2, r1 * z2 / r2, zero, 1j * z2], axis=-1),
    ], axis=-2)
    return np.concatenate([np.real(dz), np.imag(dz)], axis=-2)


class NodalDerivatives:
    """Chart partials of node values on a structured grid (`grid.axes`,
    nodes in its C order), by one dense matrix per chart axis: Fourier on
    periodic axes, barycentric on the Gauss-Legendre alpha axis of the
    Hopf grid.

    `jacobian[p, a, mu] = dx_a / dxi_mu` relates them to the real
    coordinates (x^1..x^n, y^1..y^n); it is the identity on the torus.
    On a periodic axis of even size the Fourier matrix annihilates the
    Nyquist mode (-1)^j: that mode has zero nodal gradient, and no
    quadratic form in these partials sees it.  `project` removes it, and
    `riesz` inverts a weighted H^1 operator on the rest; both work on the
    Fourier modes of the periodic axes, each matrix of which is circulant.
    """

    def __init__(self, grid: QuadratureGrid):
        axes = grid.axes
        if axes is None:
            raise ValueError("grid carries no structured-axes metadata")
        self.shape = tuple(axes["shape"])
        dim = len(self.shape)
        if axes["kind"] == "torus":
            self.D = [_fourier_diff_matrix(N, N * h) for N, h in zip(self.shape, axes["spacings"])]
            self.jacobian = np.broadcast_to(np.eye(dim), (len(grid.nodes), dim, dim))
            self.periodic = tuple(range(dim))
        else:  # hopf: the grid's construction refused any other kind
            nt, _, nb, ng = self.shape
            self.D = [
                _fourier_diff_matrix(nt, np.log(2.0)),
                _barycentric_diff_matrix(np.asarray(axes["alpha"])),
                _fourier_diff_matrix(nb, 2.0 * np.pi),
                _fourier_diff_matrix(ng, 2.0 * np.pi),
            ]
            self.jacobian = _hopf_jacobian(grid.nodes)
            self.periodic = (0, 2, 3)
        self.DT = [np.ascontiguousarray(D.T) for D in self.D]
        # the Fourier layout of `_modes`: the rfftn bins of the periodic axes,
        # then the nodes of the rest (alpha on Hopf); `keep` is Pi, 0 on the
        # Nyquist bin of an even axis
        self.fixed = tuple(a for a in range(dim) if a not in self.periodic)
        *full, last = (self.shape[a] for a in self.periodic)
        self.bins = (*full, last // 2 + 1)
        masks = [np.arange(b) != self.shape[a] / 2 for a, b in zip(self.periodic, self.bins)]
        self.keep = np.prod(np.meshgrid(*masks, indexing="ij"), axis=0)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """(N, 2n) partials of node values along the chart axes, stored
        axis-major: `.T` is a contiguous (2n, N) array, one row per axis."""
        v = values.reshape(self.shape)
        return np.stack([_along(D, v, a) for a, D in enumerate(self.D)]).T

    def adjoint(self, fields: np.ndarray) -> np.ndarray:
        """(N,) node values sum_mu D_mu^T fields[:, mu] of (N, 2n) chart fields."""
        return sum(_along(DT, fields[:, a].reshape(self.shape), a) for a, DT in enumerate(self.DT))

    def _modes(self, values: np.ndarray) -> np.ndarray:
        """Fourier coefficients (bins..., m) of node values over the
        periodic axes, Nyquist bins zeroed; m counts the other nodes."""
        c = np.fft.rfftn(values.reshape(self.shape), axes=self.periodic)
        c = np.moveaxis(c, self.fixed, range(len(self.periodic), len(self.shape)))
        return c.reshape(self.bins + (-1,)) * self.keep[..., None]

    def _nodes(self, c: np.ndarray) -> np.ndarray:
        """(N,) node values of Fourier coefficients laid out as `_modes`'s."""
        c = c.reshape(self.bins + tuple(self.shape[a] for a in self.fixed))
        c = np.moveaxis(c, range(len(self.periodic), len(self.shape)), self.fixed)
        return np.fft.irfftn(c, [self.shape[a] for a in self.periodic], axes=self.periodic).reshape(-1)

    def project(self, values: np.ndarray) -> np.ndarray:
        """(N,) node values Pi values: the Nyquist mode (-1)^j removed along
        every periodic axis of even size, whatever the other axes carry."""
        return self._nodes(self._modes(values))

    def riesz(self, w: np.ndarray, wK: np.ndarray, kappa: float) -> Callable[[np.ndarray], np.ndarray]:
        """The map g -> Pi Abar^-1 g, factored here once.

        Abar = Wbar + kappa sum_{mu,nu} D_mu^T (wK)bar_{mu nu} D_nu, with
        W = diag(w) and the (2n, 2n, N) coefficient field wK each averaged
        along the periodic axes.  Abar then commutes with shifts along
        those axes and with Pi, so it is block diagonal in their Fourier
        modes: D_mu acts on a mode as its circulant eigenvalue
        fft(D_mu[:, 0]) on a periodic axis and as D_alpha itself on the
        alpha axis, and each mode's block is a dense n_alpha x n_alpha
        matrix on Hopf and a scalar on the torus.
        """
        dim, m = len(self.shape), int(np.prod([self.shape[a] for a in self.fixed]))
        wbar = w.reshape(self.shape).mean(axis=self.periodic).reshape(m)
        coeff = wK.reshape((dim, dim) + self.shape).mean(axis=tuple(2 + a for a in self.periodic))
        coeff = coeff.reshape(dim, dim, m)
        lams = [np.fft.fft(self.D[a][:, 0])[:b] for a, b in zip(self.periodic, self.bins)]
        S = np.zeros(self.bins + (dim, m, m), dtype=complex)  # each partial on each mode
        for a, lam in zip(self.periodic, np.meshgrid(*lams, indexing="ij")):
            S[..., a, :, :] = lam[..., None, None] * np.eye(m)
        for a in self.fixed:  # at most one: alpha
            S[..., a, :, :] = self.D[a]
        A = kappa * np.einsum("...aji,abj,...bjl->...il", S.conj(), coeff, S, optimize=True)
        A[..., range(m), range(m)] += wbar
        Ainv = np.linalg.inv(A)
        return lambda g: self._nodes(np.einsum("...ij,...j->...i", Ainv, self._modes(g)))
