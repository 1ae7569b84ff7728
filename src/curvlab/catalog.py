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
from itertools import product
from typing import Callable, Optional

import numpy as np

from .errors import NotPositiveDefinite, UnknownId
from .fields import (
    BasisJets,
    ExponentTable,
    HopfTerms,
    OneFormField,
    ScalarField,
    TorusTerms,
    coordinate_slots,
    hopf_radial_frequency,
    plus_conj,
    random_hopf_oneform,
    random_hopf_scalar,
    random_torus_oneform,
    random_torus_scalar,
    torus_mode_vectors,
)
from .geometry import (
    FullDomain,
    HermitianMetricField,
    MetricJet,
    PuncturedDomain,
    QuadratureGrid,
    UpperHalfFirstDomain,
    lattice_nodes,
    metric_jet_from_entries,
)
from .jets import Jet2, MixedJet, coordinate_jets, squared_radius

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
    perturbation_amplitude: float = 0.1
    conformal_t: float = 0.1
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

    def random_points(self, rng, count: int) -> np.ndarray:
        return self.sampler(rng, count)

    def random_scalar(self, rng, amplitude: float = 0.1) -> ScalarField:
        if self.spec.id.startswith("torus"):
            n = self.metric.n
            return random_torus_scalar(rng, n, (1.0,) * n, amplitude)
        if self.spec.id.startswith("hopf"):
            return random_hopf_scalar(rng, amplitude)
        raise UnknownId(f"no random fields for {self.spec.id}")

    def random_oneform(self, rng, amplitude: float = 0.1) -> OneFormField:
        if self.spec.id.startswith("torus"):
            n = self.metric.n
            return random_torus_oneform(rng, n, (1.0,) * n, amplitude)
        if self.spec.id.startswith("hopf"):
            return random_hopf_oneform(rng, amplitude)
        raise UnknownId(f"no random fields for {self.spec.id}")


def rng_from_seed(seed: int) -> np.random.Generator:
    """All randomness flows from one 64-bit seed via a counter-based engine."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# ---------------------------------------------------------------------------
# torus metrics
# ---------------------------------------------------------------------------


_POTENTIAL_AMPLITUDE = 0.1  # bound of the torus-kahler-potential perturbation

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


def _mode_vectors(m, l, n: int, periods):
    """torus_mode_vectors of the catalog mode (m, l), padded with zeros to n."""
    return torus_mode_vectors(np.array(m + (0,) * (n - 2))[:n],
                              np.array(l + (0,) * (n - 2))[:n], periods)


def _torus_metric(n: int, terms, name: str) -> HermitianMetricField:
    """h = S + S^H with S = Id / 2 + sum_t C_t e_t and e_t = exp(a_t.z + b_t.zbar),
    for `terms` (C_t, a_t, b_t): one TorusTerms table whose first term is
    Id / 2 at a = b = 0.

    Its `values` give the metric's value and its `parts` the metric's jet,
    with the mixed block formed and the full second derivatives pending.
    Every part of S^H is the part of S conjugated, with the holomorphic
    and antiholomorphic slots swapped and the matrix axes transposed, so
    the table forms one exponential per term.  V + V^H is Hermitian bit
    for bit, as a finite-difference stencil over the values needs: a
    rounding asymmetry would turn into a curvature asymmetry of order
    eps / step^2.
    """
    coeffs, avs, bvs = [0.5 * np.eye(n)], [np.zeros(n)], [np.zeros(n)]
    for C, a, b in terms:
        coeffs.append(C)
        avs.append(a)
        bvs.append(b)
    table = TorusTerms(coeffs, avs, bvs)
    # where each entry of a part of S^H sits in the same part of S, flat over
    # its trailing axes: a slot reads its conjugate slot (the mixed block
    # d_k d_lbar reads d_l d_kbar) and the matrix axes are transposed
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    idx = np.arange(4 * n**4)
    orders = {
        "value": idx[: n * n].reshape(n, n),
        "d1": idx[: 2 * n**3].reshape(2 * n, n, n)[swap],
        "d2": idx.reshape(2 * n, 2 * n, n, n)[swap][:, swap],
        "mixed": np.swapaxes(idx[: n**4].reshape(n, n, n, n), 0, 1),
    }
    orders = {part: np.swapaxes(o, -1, -2).ravel() for part, o in orders.items()}

    def plus_adjoint(X, part):
        """X + X^H for a part X of S: each entry pair is a + conj(b) and
        b + conj(a), conjugates bit for bit."""
        flat = X.reshape(-1, len(orders[part]))
        out = np.take(flat, orders[part], axis=1)
        np.conj(out, out=out)
        out += flat
        return out.reshape(X.shape)

    def jet(z):
        S, d1, d2, mixed = table.parts(z)
        return MetricJet(plus_adjoint(S, "value"), plus_adjoint(d1, "d1"),
                         lambda: plus_adjoint(d2(), "d2"), plus_adjoint(mixed, "mixed"))

    return HermitianMetricField(n, lambda z: plus_adjoint(table.values(z), "value"), jet,
                                FullDomain(), name)


def _kahler_potential_metric(n: int, periods) -> HermitianMetricField:
    """h = Id + d dbar(phi) for a fixed real periodic potential phi.

    phi = sum over modes of 2 Re(s c e), and d_i d_jbar (s c e) = s c a_i b_j e:
    each mode adds the term s c (a b^T) e and its conjugate transpose.  The
    scales s normalize by the derivative magnitude so that
    _POTENTIAL_AMPLITUDE bounds the metric perturbation itself, not the
    potential.
    """
    terms = []
    for m, l, c in _POTENTIAL_MODES:
        a, b = _mode_vectors(m, l, n, periods)
        norm = max(np.linalg.norm(a) * np.linalg.norm(b), 1.0)
        scale = _POTENTIAL_AMPLITUDE / (len(_POTENTIAL_MODES) * norm)
        terms.append((scale * c * np.outer(a, b), a, b))
    return _torus_metric(n, terms, "torus-kahler-potential")


def _perturbed_torus_metric(n: int, periods, amplitude: float) -> HermitianMetricField:
    """Hermitian positive-definite, deliberately non-Kahler perturbation.

    Entry (i, j) gains E / 2 and entry (j, i) its conjugate, so a diagonal
    entry gains Re E, for each mode E = amplitude c e of that entry.
    """
    terms = []
    for (i, j), modes in _PERTURBATION_MODES.items():
        if max(i, j) >= n:
            continue
        for m, l, c in modes:
            C = np.zeros((n, n), dtype=complex)
            C[i, j] = 0.5 * amplitude * c
            terms.append((C,) + _mode_vectors(m, l, n, periods))
    return _torus_metric(n, terms, "torus-hermitian-perturbed")


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


def torus_grid(n: int, periods, resolution: int) -> QuadratureGrid:
    """Uniform periodic lattice on C^n, `resolution` points per real dimension."""
    spacings = [periods[i % n] / resolution for i in range(2 * n)]
    axes = {
        "kind": "torus",
        "shape": (resolution,) * (2 * n),
        "spacings": spacings,
    }
    z = lattice_nodes(axes)
    w = np.full(len(z), float(np.prod(spacings)))
    return QuadratureGrid(z, w, axes=axes, basis=TorusBasis(n, periods))


def hopf_grid(
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

    axes = {
        "kind": "hopf",
        "shape": (nt, nalpha, nbeta, ngamma),
        "t": tvals,
        "alpha": avals,
        "beta": bvals,
        "gamma": gvals,
    }
    z = lattice_nodes(axes)
    r, A = np.exp(tvals)[:, None, None, None], avals[:, None, None]
    leb = r**4 * np.cos(A) * np.sin(A) * wt * wavals[:, None, None] * wb * wg
    leb = np.broadcast_to(leb, axes["shape"]).ravel()
    return QuadratureGrid(z, leb, axes=axes, basis=HopfBasis())


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


class _ModeBasis:
    """Real basis functions as the real or imaginary parts of complex modes:
    real function s is Re phi_index[s], or Im phi_index[s] where imag[s].

    Complex function i is s^powers[i] times the monomial P_j, j = poly[i],
    or its conjugate where conj[i].  The Galerkin assembly reads the
    monomials through their integer exponents alone (`expo`, one row per
    P_j): a product of monomials adds exponents, the conjugate's exponent
    is `conj_expo` of the monomial's, and a first derivative is a monomial
    again, d_A P_j = d1_weight[j, A] times the monomial of exponent
    expo[j] + d1_shift[A].
    """

    def __len__(self) -> int:
        return len(self.index)

    def _half_weights(self, coeffs, modes: int):
        """The complex modes with a nonzero weight W, and W / 2 on them.

        Row s adds c_s Re(phi) or c_s Im(phi) = Re(-i c_s phi) to the weight
        of its mode, so sum c_s phi_s = Re sum W phi = T + conj(T) for the
        table T of the terms (W / 2) phi.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        W = np.zeros(modes, dtype=complex)
        np.add.at(W, self.index, np.where(self.imag, -1j * coeffs, coeffs))
        used = np.flatnonzero(W)
        return used, 0.5 * W[used]


class TorusBasis(_ModeBasis):
    """Real Fourier basis up to |k|_inf <= kmax, constant first.

    The complex modes exp(2 pi i (m.x/p + l.y/p)) = exp(a.z + b.zbar) are
    one `fields.TorusTerms` table with unit coefficients: the constant
    (a = b = 0) first, then one mode of each pair +-(m, l).  The real
    functions are the constant, then Re and Im of every other mode.  A call
    gives the modes' value, gradient and mixed block at a node chunk as
    stacked rows (`TorusTerms.rows`); a solved combination (`field`) is one
    table over the same modes, u = T + conj(T), as on the Hopf basis.

    The modes are the monomials of the assembly: the exponent of a mode is
    its frequency (m, l), which a product adds and the conjugate negates,
    and d_A of a mode is (a, b)_A times the mode itself.  No mode carries a
    radial power or a conjugation flag.
    """

    def __init__(self, n: int, periods, kmax: int = 1):
        # of each pair +-v, product order meets the one with a negative
        # leading entry first; the mode is its negation
        keys = [tuple(-v for v in vec) for vec in product(range(-kmax, kmax + 1), repeat=2 * n)
                if vec < tuple(-v for v in vec)]
        a, b = zip(*[torus_mode_vectors(k[:n], k[n:], periods) for k in keys])
        self.terms = TorusTerms(np.ones(len(keys) + 1), (np.zeros(n),) + a, (np.zeros(n),) + b)
        self.index = np.concatenate([[0], np.repeat(np.arange(1, len(keys) + 1), 2)])
        self.imag = np.concatenate([[False], np.tile([False, True], len(keys))])
        self.expo = np.array([(0,) * (2 * n)] + keys)  # the frequencies (m, l)
        self.d1_weight = self.terms.ab
        self.d1_shift = np.zeros((2 * n, 2 * n), dtype=int)
        self.powers = np.zeros(len(self.expo), dtype=complex)
        self.poly = np.arange(len(self.expo))
        self.conj = np.zeros(len(self.expo), dtype=bool)

    @staticmethod
    def conj_expo(expo):
        return -np.asarray(expo)

    def __call__(self, z) -> BasisJets:
        return BasisJets(self.terms.rows(z), self.index, self.imag)

    def field(self, coeffs, name: str) -> ScalarField:
        """u = sum c_s phi_s as one TorusTerms table T, u = T + conj(T)."""
        used, half = self._half_weights(coeffs, len(self.terms.a))
        terms = TorusTerms(half, self.terms.a[used], self.terms.b[used])
        return plus_conj(terms, terms, name)


class HopfBasis(_ModeBasis):
    """Radial Fourier modes times scaling-invariant sphere monomials.

    Every basis function is the real or imaginary part of a complex
    product phi = R_k m_j (`_hopf_basis_spec` gives the order): a radial
    mode R_k = exp(i beta_k t) = s^p_k, with t = log |z|, s = |z|^2 and
    p_k = i beta_k / 2, times a sphere monomial m_j = w^e_j / |z|^|e_j|,
    w = (z1, z2, zbar1, zbar2).  So phi = s^q_kj w^e_j with
    q_kj = p_k - |e_j| / 2 (p_0 = 0): a polynomial times a radial power.
    The complex functions that the real functions read are listed once
    each, as (exponent q, polynomial j) pairs in `powers` and `poly`
    (`index` points into that list).  The polynomials come in conjugate
    pairs w^e, conj(w^e) = w^(c, d, a, b) for e = (a, b, c, d), and the F
    rows of `expo` hold one representative of each, the one with
    (a, b) >= (c, d): 29 for the default 55 polynomials, 72 for 140 at
    HopfBasis(4, 6) and 145 for 285 at HopfBasis(5, 8).  Where `conj[i]`,
    function i reads the partner conj(P_j) of its representative P_j; k = 0
    keeps representatives only, so only k > 0 sets the flag.  The flag is
    valid only for a real operator, which maps conj(P) to the conjugate of
    its value on P.  A product of polynomials adds exponents, the
    conjugate swaps the z and zbar halves (`conj_expo`), and
    d_A w^e = e_A w^(e - 1_A).

    The Galerkin assembly reads the representatives through those
    exponents alone (`gauduchon.galerkin_matrices`): on the node
    (t, alpha, beta, gamma) of the grid, w^T is
    e^(|T| t) cos^A(alpha) sin^B(alpha) e^(i (K_b beta + K_g gamma)) with
    A = T1 + T3, B = T2 + T4, K_b = T1 - T3 and K_g = T2 - T4, so every
    node sum is an FFT moment of a node field over every axis of the grid,
    and no function is evaluated at a node.  A call evaluates the F
    representatives w^e_j at a node chunk (value, gradient and mixed
    Hessian block) by gathers from one table of monomials
    (`fields.ExponentTable`), and declares the pairs and flags in its
    BasisJets: the independent reference that the tests form s^q P_j
    from.  A solved combination (`field`) is one `fields.HopfTerms` table
    over the same pairs, with each function's own exponents.

    The functions are linearly independent on the annulus: no kept
    monomial is divisible by z1 zbar1, the normal form for
    |z1|^2 + |z2|^2 = |z|^2.  Their samples on a grid need not be.  A
    monomial of degree d carries the frequencies -d..d in beta and gamma
    (R_k the frequency k in t), so two of them alias on at most 2d points
    per axis (2 kmax_t t-planes) and the Gram matrix loses rank, 2 of 140
    eigenvalues of HopfBasis(0, 6) on hopf_grid(4, 12, 12, 12) below 1e-9
    of the largest: the solver refuses such grids.
    """

    def __init__(self, kmax_t: int = 2, max_degree: int = 4):
        spec = _hopf_basis_spec(kmax_t, max_degree)
        # the declared (k, e) pairs in order of k, then degree, then e
        funcs = sorted({(k, ab + cd) for k, ab, cd, _ in spec},
                       key=lambda f: (f[0], sum(f[1]), f[1]))
        at = {f: i for i, f in enumerate(funcs)}
        k, expo = zip(*funcs)
        self.conj = np.array([e[:2] < e[2:] for e in expo])  # conj(w^e) swaps z and zbar
        reps = [e[2:] + e[:2] if flip else e for e, flip in zip(expo, self.conj)]
        monos = sorted(set(reps), key=lambda m: (sum(m), m))
        pos = {m: j for j, m in enumerate(monos)}
        self.expo = np.array(monos)  # (F, 4): exponents of z1, z2, zbar1, zbar2
        self._table = ExponentTable(np.arange(len(monos)), np.ones(len(monos)), self.expo)
        self.poly = np.array([pos[e] for e in reps])
        radial = 0.5j * np.array([hopf_radial_frequency(r) for r in range(kmax_t + 1)])
        self.powers = radial[np.array(k)] - 0.5 * self.expo[self.poly].sum(axis=1)  # q_kj
        self.index = np.array([at[k, ab + cd] for k, ab, cd, _ in spec])
        self.imag = np.array([part == "im" for *_, part in spec])
        self.d1_weight = self.expo
        self.d1_shift = -np.eye(4, dtype=int)

    @staticmethod
    def conj_expo(expo):
        return np.asarray(expo)[..., [2, 3, 0, 1]]

    def __call__(self, z) -> BasisJets:
        z = np.asarray(z, dtype=complex)
        val, d1 = self._table(coordinate_slots(z), "first")  # d1: gradient and mixed block
        polys = MixedJet(2, val, np.moveaxis(d1[:, :4], 1, -1),
                         np.moveaxis(d1[:, 4:], 1, -1).reshape(val.shape + (2, 2)))
        return BasisJets(polys, self.index, self.imag, self.powers, self.poly, self.conj)

    def field(self, coeffs, name: str) -> ScalarField:
        """u = sum c_s phi_s as one HopfTerms table: Re sum W_i s^q_i w^e_i,
        u = T + conj(T) for the terms (W / 2) s^q w^e of a table T.  Its jets
        carry value, gradient and mixed block with the Hessian pending, and
        its values come from the table alone.
        """
        used, half = self._half_weights(coeffs, len(self.powers))
        expo = self.expo[self.poly[used]]
        flip = self.conj[used]
        expo[flip] = self.conj_expo(expo[flip])  # the partner's own exponents
        terms = HopfTerms(half, expo, self.powers[used])
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
        periods = (1.0,) * n
        res = spec.resolution or (32 if n == 1 else 12)
        if mid == "torus-flat":
            metric = _torus_metric(n, [], "torus-flat")
            kahler, gbc = True, True
        elif mid == "torus-kahler-potential":
            metric = _kahler_potential_metric(n, periods)
            kahler, gbc = True, True
        else:
            metric = _perturbed_torus_metric(n, periods, spec.perturbation_amplitude)
            kahler, gbc = False, False
        grid = torus_grid(n, periods, res)
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
            grid = hopf_grid()
        else:
            grid = hopf_grid(nt=max(5, r), nalpha=max(12, r),
                             nbeta=max(12, r), ngamma=max(12, r))
        _screen(metric, grid.nodes)
        return CatalogEntry(spec, metric, grid, _hopf_sampler(), False, gbc)

    if mid == "inoue-chart":
        metric = _inoue_chart_metric()
        sampler = _inoue_sampler()
        _screen(metric, sampler(rng_from_seed(spec.seed), 256))
        return CatalogEntry(spec, metric, None, sampler, False, True)

    raise UnknownId(f"unknown manifold id {mid!r}")


def _screen(metric: HermitianMetricField, points: np.ndarray):
    try:
        metric.check_positive(points)
    except Exception as exc:  # noqa: BLE001 - rewrap with catalog context
        raise NotPositiveDefinite(f"{metric.name}: {exc}") from exc
