"""Manifold and metric catalog.

Every entry ships a Hermitian metric field with exact analytic jets, a
point sampler for pointwise checks, and (torus, Hopf) a quadrature grid
with a smooth function basis for the Gauduchon solver and conformal
descent.  The Inoue chart is pointwise-only.

Catalog identifiers: torus-flat, torus-kahler-potential,
torus-hermitian-perturbed, hopf-standard, hopf-conformal, inoue-chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotPositiveDefinite, UnknownId
from .fields import (
    BasisJets,
    ExponentTable,
    HopfTerms,
    OneFormField,
    ScalarField,
    constant_field,
    coordinate_slots,
    hopf_radial_frequency,
    plus_conj,
    random_hopf_oneform,
    random_hopf_scalar,
    random_torus_oneform,
    random_torus_scalar,
    torus_mode,
    torus_mode_vectors,
)
from .geometry import (
    FullDomain,
    HermitianMetricField,
    MetricJet,
    PeriodicDomain,
    PuncturedDomain,
    QuadratureGrid,
    UpperHalfFirstDomain,
    metric_jet_from_entries,
)
from .jets import Jet2, MixedJet, coordinate_jets, exp_linear, squared_radius

CATALOG_IDS = (
    "torus-flat",
    "torus-kahler-potential",
    "torus-hermitian-perturbed",
    "hopf-standard",
    "hopf-conformal",
    "inoue-chart",
)


@dataclass
class ManifoldSpec:
    """Catalog identifier plus the structured parameter record."""

    id: str
    dim: int = 2
    potential_amplitude: float = 0.1
    perturbation_amplitude: float = 0.1
    conformal_t: float = 0.1
    periods: Optional[tuple] = None
    resolution: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.id not in CATALOG_IDS:
            raise UnknownId(f"unknown manifold id {self.id!r}")
        if self.id.startswith("hopf") or self.id == "inoue-chart":
            self.dim = 2


@dataclass
class CatalogEntry:
    spec: ManifoldSpec
    metric: HermitianMetricField
    grid: Optional[QuadratureGrid]
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    kahler: bool
    gauduchon_by_construction: bool
    notes: str = ""

    def random_points(self, rng, count: int) -> np.ndarray:
        return self.sampler(rng, count)

    def random_scalar(self, rng, amplitude: float = 0.1) -> ScalarField:
        if self.spec.id.startswith("torus"):
            n = self.metric.n
            return random_torus_scalar(rng, n, _periods(self.spec, n), amplitude)
        if self.spec.id.startswith("hopf"):
            return random_hopf_scalar(rng, amplitude)
        raise UnknownId(f"no random fields for {self.spec.id}")

    def random_oneform(self, rng, amplitude: float = 0.1) -> OneFormField:
        if self.spec.id.startswith("torus"):
            n = self.metric.n
            return random_torus_oneform(rng, n, _periods(self.spec, n), amplitude)
        if self.spec.id.startswith("hopf"):
            return random_hopf_oneform(rng, amplitude)
        raise UnknownId(f"no random fields for {self.spec.id}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """All randomness flows from one 64-bit seed via a counter-based engine."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _periods(spec: ManifoldSpec, n: int):
    if spec.periods is not None:
        return tuple(float(p) for p in spec.periods)
    return (1.0,) * n


# ---------------------------------------------------------------------------
# torus metrics
# ---------------------------------------------------------------------------


def _flat_torus_metric(n: int, periods) -> HermitianMetricField:
    eye = np.eye(n, dtype=complex)

    def value(z):
        z = np.asarray(z, dtype=complex)
        return np.broadcast_to(eye, z.shape[:-1] + (n, n)).copy()

    def jet(z):
        z = np.asarray(z, dtype=complex)
        batch = z.shape[:-1]
        H = np.broadcast_to(eye, batch + (n, n)).copy()
        d1 = np.zeros(batch + (2 * n, n, n), dtype=complex)
        d2 = np.zeros(batch + (2 * n, 2 * n, n, n), dtype=complex)
        return MetricJet(H, d1, d2)

    return HermitianMetricField(n, value, jet, PeriodicDomain(periods), "torus-flat")


# fixed low-frequency mode sets so catalog metrics are parameter-deterministic
_POTENTIAL_MODES = [
    ((1, 0), (0, 0), 1.0 + 0.3j),
    ((0, 1), (0, 0), 0.8 - 0.2j),
    ((1, 1), (0, -1), 0.5 + 0.5j),
]

_PERTURBATION_MODES = {
    (0, 0): [((0, 1), (0, 0), 1.0 + 0.0j)],
    (1, 1): [((1, 0), (0, 1), 0.6 - 0.4j)],
    (0, 1): [((1, 1), (0, 0), 0.4 + 0.3j)],
}


# A torus metric's entries are one formula evaluated in either of two
# arithmetics: Jet2 entries for `jet`, plain complex arrays for `value`,
# so that reading H does not build every derivative.  Both run the same
# operations in the same order, so value(z) equals jet(z).H bit for bit.
_JET_OPS = (Jet2.constant, exp_linear)


def _value_constant(n, c, batch):
    return np.full(batch, c, dtype=complex)


def _value_mode(z, a, b, coeff):
    return coeff * np.exp(z @ a + np.conj(z) @ b)


_VALUE_OPS = (_value_constant, _value_mode)


def _stack_values(ent):
    n = len(ent)
    return np.stack([np.stack([ent[i][j] for j in range(n)], axis=-1) for i in range(n)], axis=-2)


def _entry_metric(n: int, entries, periods, name: str) -> HermitianMetricField:
    """The metric whose entries `entries(z, ops)` builds with ops = (constant, mode)."""

    def value(z):
        return _stack_values(entries(np.asarray(z, dtype=complex), _VALUE_OPS))

    def jet(z):
        return metric_jet_from_entries(entries(np.asarray(z, dtype=complex), _JET_OPS))

    return HermitianMetricField(n, value, jet, PeriodicDomain(periods), name)


def _kahler_potential_metric(n: int, periods, amplitude: float) -> HermitianMetricField:
    """h = Id + d dbar(phi) for a fixed real periodic potential phi.

    Mode coefficients are normalized by the derivative magnitude so that
    `amplitude` bounds the metric perturbation itself, not the potential.
    """
    modes = [(np.array(m + (0,) * (n - 2))[:n], np.array(l + (0,) * (n - 2))[:n], c)
             for (m, l, c) in _POTENTIAL_MODES]

    def entries(z, ops):
        constant, mode = ops
        batch = z.shape[:-1]
        ent = [[constant(n, 1.0 if i == j else 0.0, batch) for j in range(n)] for i in range(n)]
        for m, l, c in modes:
            a, b = torus_mode_vectors(m, l, periods)
            scale = amplitude / (len(modes) * max(np.linalg.norm(a) * np.linalg.norm(b), 1.0))
            E = mode(z, a, b, scale * c)
            Ec = mode(z, np.conj(b), np.conj(a), scale * np.conj(c))
            for i in range(n):
                for j in range(n):
                    ent[i][j] = ent[i][j] + E * (a[i] * b[j]) + Ec * (np.conj(b[i]) * np.conj(a[j]))
        return ent

    return _entry_metric(n, entries, periods, "torus-kahler-potential")


def _perturbed_torus_metric(n: int, periods, amplitude: float) -> HermitianMetricField:
    """Hermitian positive-definite, deliberately non-Kahler perturbation."""

    def entries(z, ops):
        constant, mode = ops
        batch = z.shape[:-1]
        ent = [[constant(n, 1.0 if i == j else 0.0, batch) for j in range(n)] for i in range(n)]
        for (i, j), modes in _PERTURBATION_MODES.items():
            if max(i, j) >= n:
                continue
            for m, l, c in modes:
                a, b = torus_mode_vectors(np.array(m + (0,) * (n - 2))[:n],
                                          np.array(l + (0,) * (n - 2))[:n], periods)
                E = mode(z, a, b, amplitude * c)
                if i == j:
                    ent[i][j] = ent[i][j] + (E + E.conj()) * 0.5  # Re E
                else:
                    half = E * 0.5
                    ent[i][j] = ent[i][j] + half
                    ent[j][i] = ent[j][i] + half.conj()
        return ent

    return _entry_metric(n, entries, periods, "torus-hermitian-perturbed")


# ---------------------------------------------------------------------------
# Hopf and Inoue metrics
# ---------------------------------------------------------------------------


def _hopf_standard_metric() -> HermitianMetricField:
    n = 2

    def value(z):
        z = np.asarray(z, dtype=complex)
        r2 = np.sum(np.abs(z) ** 2, axis=-1)
        return np.einsum("...,ij->...ij", 1.0 / r2, np.eye(n, dtype=complex))

    def jet(z):
        inv = squared_radius(z).reciprocal()
        zero = Jet2.constant(n, 0.0, np.asarray(z).shape[:-1])
        return metric_jet_from_entries(
            [[inv if i == j else zero for j in range(n)] for i in range(n)]
        )

    return HermitianMetricField(n, value, jet, PuncturedDomain(), "hopf-standard")


def hopf_conformal_direction() -> ScalarField:
    """The fixed smooth invariant field g used by the conformal Hopf family.

    g = 0.25 cos(beta_1 t) + 0.2 cos(beta_1 t) 2 Re(z1 zbar2) / |z|^2 with
    t = log |z|, that is T + conj(T) for the one term table
    T = R_1 (0.125 + 0.1 z1 zbar2 / |z|^2 + 0.1 z2 zbar1 / |z|^2) and
    R_1 = |z|^(i beta_1), the radial mode `hopf_radial_mode(1)`.
    """
    p = 0.5j * hopf_radial_frequency(1)
    terms = HopfTerms(
        [0.125, 0.1, 0.1],
        [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0)],  # exponents of z1, z2, zbar1, zbar2
        [p, p - 1.0, p - 1.0],
    )
    return plus_conj(terms, terms, "hopf-conformal-direction")


def _hopf_conformal_metric(t: float):
    from .gauduchon import conformal_metric  # local import avoids a cycle

    base = _hopf_standard_metric()
    g = hopf_conformal_direction()
    metric = conformal_metric(base, g * (-t))
    metric.name = f"hopf-conformal(t={t:g})"
    return metric


def _inoue_chart_metric() -> HermitianMetricField:
    """Diagonal Gauduchon-type metric on the half-plane chart (w, z)."""
    n = 2

    def entries(z):
        zs, zbs = coordinate_jets(z)
        imw = (zs[0] - zbs[0]) * (-0.5j)
        zero = Jet2.constant(n, 0.0, np.asarray(z).shape[:-1])
        return [[imw.reciprocal() ** 2, zero], [zero, imw]]

    def value(z):
        return metric_jet_from_entries(entries(z)).H

    def jet(z):
        return metric_jet_from_entries(entries(z))

    return HermitianMetricField(n, value, jet, UpperHalfFirstDomain(), "inoue-chart")


def inoue_bundle_metric() -> HermitianMetricField:
    """The 1x1 canonical-bundle metric (Im w)^2 on the half-plane w-chart."""

    def entries(z):
        zs, zbs = coordinate_jets(z)
        imw = (zs[0] - zbs[0]) * (-0.5j)
        return [[imw * imw]]

    def value(z):
        return metric_jet_from_entries(entries(z)).H

    def jet(z):
        return metric_jet_from_entries(entries(z))

    return HermitianMetricField(1, value, jet, UpperHalfFirstDomain(), "inoue-bundle")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def torus_grid(metric: HermitianMetricField, periods, resolution: int) -> QuadratureGrid:
    """Uniform periodic lattice, `resolution` points per real dimension."""
    n = metric.n
    axes_1d = []
    spacings = []
    for i in range(2 * n):
        p = periods[i % n]
        axes_1d.append(np.arange(resolution) * (p / resolution))
        spacings.append(p / resolution)
    mesh = np.meshgrid(*axes_1d, indexing="ij")
    x = np.stack([m.ravel() for m in mesh], axis=-1)  # (N, 2n), order (x, y)
    z = x[:, :n] + 1j * x[:, n:]
    w = np.full(len(z), float(np.prod(spacings)))
    axes = {
        "kind": "torus",
        "shape": (resolution,) * (2 * n),
        "spacings": spacings,
    }
    return QuadratureGrid(metric.name, z, w, metric, axes=axes, basis=_torus_basis(n, periods))


def _torus_basis(n: int, periods, kmax: int = 1):
    """Real Fourier basis up to |k|_inf <= kmax (constant first)."""
    basis = [constant_field(1.0)]
    seen = set()
    from itertools import product

    for vec in product(range(-kmax, kmax + 1), repeat=2 * n):
        if not any(vec):
            continue
        key = vec if (vec > tuple(-v for v in vec)) else tuple(-v for v in vec)
        if key in seen:
            continue
        seen.add(key)
        m, l = np.array(key[:n]), np.array(key[n:])
        mode = torus_mode(m, l, periods)
        basis.append(mode.real())
        basis.append(mode.imag())
    return basis


def hopf_grid(
    metric: HermitianMetricField,
    nt: int = 8,
    nalpha: int = 12,
    nbeta: int = 12,
    ngamma: int = 12,
) -> QuadratureGrid:
    """Product quadrature on the annulus 1 <= |z| < 2: log-radius x sphere.

    Sphere coordinates: z1 = r cos(a) e^{ib}, z2 = r sin(a) e^{ic} with
    Gauss-Legendre nodes in a and uniform periodic nodes in b, c.
    """
    log2 = np.log(2.0)
    tvals = np.arange(nt) * (log2 / nt)
    wt = log2 / nt
    xa, wa = np.polynomial.legendre.leggauss(nalpha)
    avals = (xa + 1.0) * (np.pi / 4.0)
    wavals = wa * (np.pi / 4.0)
    bvals = np.arange(nbeta) * (2.0 * np.pi / nbeta)
    wb = 2.0 * np.pi / nbeta
    gvals = np.arange(ngamma) * (2.0 * np.pi / ngamma)
    wg = 2.0 * np.pi / ngamma

    T, A, B, G = np.meshgrid(tvals, avals, bvals, gvals, indexing="ij")
    r = np.exp(T)
    z1 = r * np.cos(A) * np.exp(1j * B)
    z2 = r * np.sin(A) * np.exp(1j * G)
    z = np.stack([z1.ravel(), z2.ravel()], axis=-1)
    WA = np.broadcast_to(wavals[None, :, None, None], T.shape)
    leb = (r**4 * np.cos(A) * np.sin(A) * wt * WA * wb * wg).ravel()
    axes = {
        "kind": "hopf",
        "shape": (nt, nalpha, nbeta, ngamma),
        "t": tvals,
        "alpha": avals,
        "beta": bvals,
        "gamma": gvals,
    }
    return QuadratureGrid(
        metric.name, z, leb, metric, axes=axes,
        basis=HopfBasis(),
    )


def _hopf_basis_spec(kmax_t: int = 2, max_degree: int = 4):
    """(k, alpha, beta, part) tuples; part 're'/'im', constant first.

    The sphere monomials skip those divisible by z1 zbar1: on the sphere
    z1 zbar1 m = m - z2 zbar2 m, so they add nothing to the span.  At k = 0
    one of each conjugate pair is kept (conj(m) gives the same real and
    imaginary parts up to sign); at k > 0 both are, since R_k conj(m) is
    the conjugate of R_-k m, not of R_k m.
    """
    monos = []
    for a in range(max_degree + 1):
        for b in range(max_degree + 1 - a):
            for c in range(max_degree + 1 - a - b):
                for d in range(max_degree + 1 - a - b - c):
                    if a + b + c + d == 0 or (a and c):
                        continue
                    monos.append(((a, b), (c, d)))
    spec = [(0, (0, 0), (0, 0), "re")]  # the constant function
    for k in range(kmax_t + 1):
        if k > 0:
            spec.append((k, (0, 0), (0, 0), "re"))
            spec.append((k, (0, 0), (0, 0), "im"))
        for (ab, cd) in monos:
            if k == 0 and ab < cd:
                continue  # conjugate representative only
            spec.append((k, ab, cd, "re"))
            if ab != cd or k > 0:
                spec.append((k, ab, cd, "im"))
    return spec


class HopfBasis:
    """Radial Fourier modes times scaling-invariant sphere monomials.

    Every basis function is the real or imaginary part of a complex
    product phi = R_k m_j (`_hopf_basis_spec` gives the order): a radial
    mode R_k = exp(i beta_k t) = s^p_k, with t = log |z|, s = |z|^2 and
    p_k = i beta_k / 2, times a sphere monomial m_j = w^e_j / |z|^|e_j|,
    w = (z1, z2, zbar1, zbar2).  So phi = s^q_kj w^e_j with
    q_kj = p_k - |e_j| / 2 (p_0 = 0): a polynomial times a radial power.
    One call evaluates the F polynomials w^e_j at a node chunk (value,
    gradient and mixed Hessian block) by gathers from one table of
    monomials (`fields.ExponentTable`), and declares the exponents q_kj
    in its BasisJets; the solver applies L to the polynomials once and
    lifts L P_j to L(s^q P_j) by the Leibniz rule
    (`gauduchon.lift_radial_modes`).  A solved combination (`field`) is one
    `fields.HopfTerms` table over the same exponents.

    The functions are linearly independent: no kept monomial is divisible
    by z1 zbar1, the normal form for |z1|^2 + |z2|^2 = |z|^2, so the Gram
    matrix has full rank.  The solver still prunes through it before
    assembling the operator.
    """

    def __init__(self, kmax_t: int = 2, max_degree: int = 4):
        spec = _hopf_basis_spec(kmax_t, max_degree)
        monos = sorted({ab + cd for _, ab, cd, _ in spec}, key=lambda m: (sum(m), m))
        pos = {m: j for j, m in enumerate(monos)}
        self.expo = np.array(monos)  # (F, 4): exponents of z1, z2, zbar1, zbar2
        self._table = ExponentTable(np.arange(len(monos)), np.ones(len(monos)), self.expo)
        radial = 0.5j * np.array([hopf_radial_frequency(k) for k in range(kmax_t + 1)])
        # exponent q_kj of complex function k F + j
        self.powers = (radial[:, None] - 0.5 * self.expo.sum(axis=1)).ravel()
        self.index = np.array([k * len(monos) + pos[ab + cd] for k, ab, cd, _ in spec])
        self.imag = np.array([part == "im" for *_, part in spec])

    def __len__(self) -> int:
        return len(self.index)

    def __call__(self, z) -> BasisJets:
        z = np.asarray(z, dtype=complex)
        val, d1 = self._table(coordinate_slots(z), "first")  # d1: gradient and mixed block
        polys = MixedJet(2, val, np.moveaxis(d1[:, :4], 1, -1),
                         np.moveaxis(d1[:, 4:], 1, -1).reshape(val.shape + (2, 2)))
        return BasisJets(polys, self.index, self.imag, self.powers)

    def field(self, coeffs, name: str) -> ScalarField:
        """u = sum c_s phi_s as one HopfTerms table: Re sum W_i s^q_i w^e_i.

        Row s adds c_s Re(phi) or c_s Im(phi) = Re(-i c_s phi) to the weight
        W of its complex function; the functions with a nonzero weight are
        the terms (W / 2) s^q w^e of a table T, and u = T + conj(T).  Its jets
        carry value, gradient and mixed block with the Hessian pending, and
        its values come from the table alone.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        W = np.zeros(len(self.powers), dtype=complex)
        np.add.at(W, self.index, np.where(self.imag, -1j * coeffs, coeffs))
        used = np.flatnonzero(W)
        terms = HopfTerms(0.5 * W[used], self.expo[used % len(self.expo)], self.powers[used])
        return plus_conj(terms, terms, name)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _torus_sampler(n, periods):
    p = np.asarray(periods, dtype=float)

    def sample(rng, count):
        x = rng.uniform(0.0, 1.0, size=(count, n)) * p
        y = rng.uniform(0.0, 1.0, size=(count, n)) * p
        return x + 1j * y

    return sample


def _hopf_sampler():
    def sample(rng, count):
        t = rng.uniform(0.0, np.log(2.0), size=count)
        v = rng.normal(size=(count, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return np.exp(t)[:, None] * (v[:, :2] + 1j * v[:, 2:])

    return sample


def _inoue_sampler():
    def sample(rng, count):
        w = rng.uniform(-1.0, 1.0, size=count) + 1j * rng.uniform(0.5, 2.5, size=count)
        z = rng.uniform(-0.7, 0.7, size=count) + 1j * rng.uniform(-0.7, 0.7, size=count)
        return np.stack([w, z], axis=-1)

    return sample


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_manifold(spec: ManifoldSpec) -> CatalogEntry:
    """Instantiate a catalog metric plus its grid or pointwise sampler."""
    mid = spec.id
    if mid.startswith("torus"):
        n = spec.dim
        periods = _periods(spec, n)
        res = spec.resolution or (32 if n == 1 else 12)
        if mid == "torus-flat":
            metric = _flat_torus_metric(n, periods)
            kahler, gbc = True, True
        elif mid == "torus-kahler-potential":
            metric = _kahler_potential_metric(n, periods, spec.potential_amplitude)
            kahler, gbc = True, True
        else:
            metric = _perturbed_torus_metric(n, periods, spec.perturbation_amplitude)
            kahler, gbc = False, False
        grid = torus_grid(metric, periods, res)
        _screen(metric, grid.nodes)
        return CatalogEntry(spec, metric, grid, _torus_sampler(n, periods), kahler, gbc)

    if mid in ("hopf-standard", "hopf-conformal"):
        if mid == "hopf-standard":
            metric = _hopf_standard_metric()
            gbc = True
        else:
            metric = _hopf_conformal_metric(spec.conformal_t)
            gbc = False
        r = spec.resolution
        if r is None:
            grid = hopf_grid(metric)
        else:
            grid = hopf_grid(metric, nt=max(4, r), nalpha=max(12, r),
                             nbeta=max(12, r), ngamma=max(12, r))
        _screen(metric, grid.nodes)
        return CatalogEntry(spec, metric, grid, _hopf_sampler(), False, gbc)

    if mid == "inoue-chart":
        metric = _inoue_chart_metric()
        sampler = _inoue_sampler()
        _screen(metric, sampler(rng_from_seed(spec.seed), 256))
        return CatalogEntry(
            spec,
            metric,
            None,
            sampler,
            False,
            True,
            notes="pointwise chart only; no global quadrature",
        )

    raise UnknownId(f"unknown manifold id {mid!r}")


def _screen(metric: HermitianMetricField, points: np.ndarray):
    try:
        metric.check_positive(points)
    except Exception as exc:  # noqa: BLE001 - rewrap with catalog context
        raise NotPositiveDefinite(f"{metric.name}: {exc}") from exc
