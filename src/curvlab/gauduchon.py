"""Conformal changes, the Gauduchon factor equation, and verdicts.

The Gauduchon condition for e^f omega is linear in u = e^((n-1) f): the
top-form i d dbar (u omega^(n-1)) must vanish.  The solver discretizes
that operator over a basis of smooth functions on the manifold (Galerkin,
with quadrature inner products), finds the near-null vector by shifted
inverse-power iteration, and enforces positivity of u.

The operator L is real (it maps real u to real densities), so
L(Re phi) = Re(L phi) and L(Im phi) = Im(L phi): it is applied once per
complex function phi of the basis and both real basis functions are read
off.

On the Hopf grid the complex functions are products phi = R_k m_j of a
radial mode R_k = s^p_k (s = |z|^2) and a sphere monomial m_j, that is
phi = s^q P_j with the polynomial P_j = w^e_j in w = (z, zbar) and
q = p_k - |e_j| / 2.  The basis lists one representative w^e,
(a, b) >= (c, d) for e = (a, b, c, d), of each conjugate pair w^e,
conj(w^e): 29 polynomials stand for the 55 that the default basis reads.
It declares one (q, j) pair per complex function that a real function
reads, flagged where the function's polynomial is conj(P_j).  The
Leibniz rule splits L(s^q P) = s^q (X0 + q X1 + q^2 X2), and every row
X_k of a monomial P is a sum of terms kappa C_f w^T s^-sigma over the
node fields C_f in {1, c, b_holo_i, b_anti_i, a_ij} of the operator
(`OperatorTerms`).  L is real, so the rows of conj(P) are the conjugates
of those of P.  A basis without radial exponents (the torus Fourier
modes, whose exponents are their frequencies) has q = 0, no flag, and
reads P and X0 = L P alone.

So every entry of the Gram and operator matrices is a quadrature sum of
weighted node fields W_f = w C_f times monomials, and the assembly is a
transform (`galerkin_matrices`): the chunked walk keeps only the W_f,
checked for non-finite values on the way, in node order, which is the C
order of the product grid (`QuadratureGrid` checks it at construction).
Per t-plane each node sum is read as a moment of their FFT over the
periodic axes (Orszag's sum factorisation; a frequency is taken modulo
its axis, as the quadrature aliases it), and no basis function is
evaluated at a node.  s^q is e^(i beta_1 k t) times a real power that
the degree of P cancels, so the planes fold into radial-frequency bins,
and each matrix entry is read once from the bins with the weights q^k,
conjugated for a flagged function since Re(D conj X) = Re(conj(D) X).
A solve never holds an m x N matrix.  The grid's `basis_batch` still
evaluates the basis as stacked jets at a node chunk; the tests read it
as the independent reference of the assembly.

The assembly is the one walk of a command over the metric jets of the
grid.  Its pass keeps, per node in node order, what the rest of the
command reads of the metric (`NodeFields`): the volume weights, the
operator coefficients and, for `theorem-t` and `classify` only, s_C and
s/2 + |T|^2/4 from the same `CxBlocks`: about 2 MB on the 13 824 nodes
of the default Hopf grid.  The input residual is the max |Re c| of the
kept c.  The solved residual reads them through the exact conformal law
c(e^f omega) = e^(-n f) L_omega(e^((n-1) f)) = e^(-f) L_omega(u) / u
(`solved_residual`), so no jet of the solved metric is composed, and the
Gauduchon total reads them with the jet of f alone (`_total_identity`).

The solved u is kept as basis coefficients; on the Hopf grid it is one
term table (u = Re sum W s^q w^e over the surviving functions,
`fields.HopfTerms`) with rows keyed by the distinct powers q, evaluated
from the same kind of monomial table as the basis rows, with its value,
gradient and mixed block; its full Hessian stays pending until something
reads it.  Its node values go through the table's value-only path, and
the solved residual reads its jet once per chunk; `classify` derives the
jet of f from that same jet of u, so it too evaluates u once per chunk.

The operator coefficients come from one `CxBlocks` of the metric jet, the
Hermitian path that the scalar identity reads: P = H^-1, the torsion
one-form theta = dbar*(omega) and the adjoint term i d* dbar* omega
(`gauduchon_operator_coefficients`).  omega is Gauduchon exactly when
theta is co-closed, so the zeroth-order coefficient c, which the residual
reads alone, is (n-1)! times the adjoint term.  The Chern side of the
total for e^f omega is e^((n-1) f) (s_C - n tr i d dbar f) against the
base volume, with H^-1 read off the kept a.  Every step reads mixed
second derivatives d_i d_jbar only, so nothing on the way to the total
forms a full Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from math import factorial
from typing import Optional

import numpy as np

from .errors import (
    NonConvergence,
    NonFiniteIntegrand,
    NoPositiveNullVector,
    QuadratureUnsupported,
)
from .fields import ScalarField, hopf_radial_frequency
from .geometry import (
    HermitianMetricField,
    MetricJet,
    QuadratureGrid,
    map_nodes,
    volume_weights,
)
from .tensors import (
    CxBlocks,
    _dbar_star_omega_components,
    grad_norm_sq,
    scalar_and_torsion,
    trace_i_ddbar,
)


# ---------------------------------------------------------------------------
# conformal machinery
# ---------------------------------------------------------------------------


@dataclass
class ConformalFactor:
    """Mean-zero scalar factor f with omega_f = e^f omega.

    Carries the node values on a grid and, when produced by the solver, a
    smooth evaluator with analytic jets.
    """

    values: np.ndarray
    field: Optional[ScalarField] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        _check_finite(0, self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))


def compose_conformal_jet(base: MetricJet, uj) -> MetricJet:
    """Jet of u * h from the jets of the positive factor u and of h.

    The mixed block d_k d_lbar (u h) is formed now; the full second
    derivatives are pending, built from those of u and h on first read.
    """
    n = base.n
    H = uj.val[..., None, None] * base.H
    d1 = (
        uj.d1[..., :, None, None] * base.H[..., None, :, :]
        + uj.val[..., None, None, None] * base.d1
    )
    mixed = (
        uj.mixed[..., :, :, None, None] * base.H[..., None, None, :, :]
        + uj.d1[..., :n, None, None, None] * base.d1[..., None, n:, :, :]
        + uj.d1[..., None, n:, None, None] * base.d1[..., :n, None, :, :]
        + uj.val[..., None, None, None, None] * base.mixed
    )

    def d2():
        return (
            uj.d2[..., :, :, None, None] * base.H[..., None, None, :, :]
            + uj.d1[..., :, None, None, None] * base.d1[..., None, :, :, :]
            + uj.d1[..., None, :, None, None] * base.d1[..., :, None, :, :]
            + uj.val[..., None, None, None, None] * base.d2
        )

    return MetricJet(H, d1, d2, mixed)


def conformal_metric(metric: HermitianMetricField, factor) -> HermitianMetricField:
    """The metric e^f h with derivative evaluators composed by product rule,
    on the derivative route of `metric`."""
    fld = factor.field if isinstance(factor, ConformalFactor) else factor
    if fld is None:
        raise ValueError("conformal factor lacks a smooth field evaluator")

    def value(z):
        u = np.exp(np.real(fld.values(z)))
        return u[..., None, None] * metric.value(z)

    jet_fn = None
    if metric.jet_fn is not None:

        def jet_fn(z):
            return compose_conformal_jet(metric.jet_fn(z), fld(z).exp())

    # the copy keeps n, the domain and the derivative route of `metric`
    return replace(metric, value_fn=value, jet_fn=jet_fn, name=f"conformal({metric.name})")


# ---------------------------------------------------------------------------
# the Gauduchon operator u -> density of i d dbar (u omega^(n-1))
# ---------------------------------------------------------------------------


def gauduchon_operator_coefficients(jet):
    """Pointwise coefficients (a, b_holo, b_anti, c) of the scalar operator

    L u = sum a[i,j] d_i d_jbar u + sum b_holo[i] d_i u
          + sum b_anti[j] d_jbar u + c u,

    where L u is the density of i d dbar (u omega^(n-1)) against the
    volume form.  All four come from one `CxBlocks` of the jet (`jet` is a
    MetricJet or its `CxBlocks`): with P = H^-1 and theta = dbar*(omega),

    a = (n-1)! P^T,   b_anti = -i (n-1)! P theta,   b_holo = conj(b_anti),
    c = (n-1)! i d* dbar* omega,

    the adjoint term of the scalar identity (`tensors.CxBlocks.adjoint_term`):
    omega is Gauduchon exactly when its torsion one-form theta is co-closed.
    """
    cx = jet if isinstance(jet, CxBlocks) else CxBlocks(jet)
    n = cx.n
    if n < 2:
        raise ValueError("the Gauduchon equation degenerates for n = 1")
    scale = factorial(n - 1)
    theta = _dbar_star_omega_components(cx)
    b_anti = (-1j * scale) * np.einsum("...ia,...a->...i", cx.Hinv, theta)
    return scale * np.swapaxes(cx.Hinv, -1, -2), np.conj(b_anti), b_anti, scale * cx.adjoint_term()


def apply_gauduchon_operator(coeffs, ujet):
    """L u from precomputed coefficients and the jet of u.

    `ujet` is a Jet2 or a MixedJet; a stacked family (leading axis before
    the node axis) gets L applied to every member at once.
    """
    a, b_holo, b_anti, c = coeffs
    n = a.shape[-1]
    d1, mixed = ujet.d1, ujet.mixed
    # one multiply-add per slot: a family's slot slices stay whole arrays
    out = c * ujet.val
    for i in range(n):
        out += b_holo[..., i] * d1[..., i]
        out += b_anti[..., i] * d1[..., n + i]
        for j in range(n):
            out += a[..., i, j] * mixed[..., i, j]
    return out


def coefficient_fields(coeffs) -> np.ndarray:
    """The node fields C_f that the operator's terms read, stacked along a
    leading axis (2 + 2n + n^2, ...): 1, c, b_holo_i, b_anti_i and a_ij
    (i-major), the field order of `OperatorTerms`."""
    a, b_holo, b_anti, c = coeffs
    return np.stack([np.ones_like(c), c, *np.moveaxis(b_holo, -1, 0), *np.moveaxis(b_anti, -1, 0),
                     *np.moveaxis(a.reshape(a.shape[:-2] + (-1,)), -1, 0)])


class OperatorTerms:
    """The terms of L(s^q P) for the monomials P of a basis, as one table.

    With s = |z|^2, ds = (zbar, z) and d_i d_jbar s = delta_ij, the Leibniz
    rule gives

        L(s^q P) = s^q (X0 + q X1 + q^2 X2),
        X0 = L P,  X1 = (A_P + P B) / s - P C / s^2,  X2 = P C / s^2,

    A_P = sum a_il (zbar_i d_lbar P + z_l d_i P),  B = tr a + b.zbar + b~.z,
    C = zbar^T a z.  For a monomial P of exponent e whose derivatives are
    monomials, d_A P = g_A w^(e + h_A) (a basis's `d1_weight` g and
    `d1_shift` h), every row is a sum of terms

        kappa C_f w^(e + shift) s^-sigma

    over the node fields C_f of `coefficient_fields`.  Row 0 is P itself (1
    term), row 1 is X0 (c, b_holo, b_anti and a: 1 + 2n + n^2 terms), row 2
    is X1 (A_P, P B and -P C / s: 2n^2 + 3n + n^2) and row 3 is X2 (n^2).
    A term's shift sums the h_A of its derivatives and the unit exponents
    of the slots zbar_i and z_l that multiply it, which exist only where
    the exponents are those of the slots w = (z, zbar), so rows 2 and 3 are
    tabulated for a basis with radial powers only; without them q = 0 and
    L P = X0.  kappa is the term's sign times the g of its derivatives
    (`kappa`); the mixed derivative d_i d_jbar P reads g_i g_(n+j), as d_i
    and d_jbar act on distinct slots.  A term with kappa = 0 is absent,
    and its exponent may be negative.

    `row`, `field`, `sigma` and `coef` hold one entry per term, `shift`
    its exponent shift, `slots` its two derivative slots (2n where there
    is none) and `starts` the first term of each row.
    """

    def __init__(self, n: int, d1_shift, radial: bool):
        d1_shift = np.asarray(d1_shift, dtype=int)
        unit = np.eye(d1_shift.shape[1], dtype=int)
        c, b_holo, b_anti = 1, 2 + np.arange(n), 2 + n + np.arange(n)
        a = 2 + 2 * n + np.arange(n * n).reshape(n, n)
        pairs = [(i, l) for i in range(n) for l in range(n)]
        # (row, field, derivative slots, multiplying slots, coef, sigma)
        terms = [(0, 0, (), (), 1, 0), (1, c, (), (), 1, 0)]
        terms += [(1, b_holo[i], (i,), (), 1, 0) for i in range(n)]
        terms += [(1, b_anti[i], (n + i,), (), 1, 0) for i in range(n)]
        terms += [(1, a[i, j], (i, n + j), (), 1, 0) for i, j in pairs]
        if radial:
            terms += [(2, a[i, l], (n + l,), (n + i,), 1, 1) for i, l in pairs]
            terms += [(2, a[i, l], (i,), (l,), 1, 1) for i, l in pairs]
            terms += [(2, a[i, i], (), (), 1, 1) for i in range(n)]
            terms += [(2, b_holo[i], (), (n + i,), 1, 1) for i in range(n)]
            terms += [(2, b_anti[i], (), (i,), 1, 1) for i in range(n)]
            terms += [(2, a[i, l], (), (n + i, l), -1, 2) for i, l in pairs]
            terms += [(3, a[i, l], (), (n + i, l), 1, 2) for i, l in pairs]
        row, field, deriv, mult, coef, sigma = zip(*terms)
        self.row = np.array(row)
        self.field = np.array(field)
        self.coef = np.array(coef)
        self.sigma = np.array(sigma)
        self.shift = np.array([d1_shift[list(d)].sum(axis=0) + unit[list(m)].sum(axis=0)
                               for d, m in zip(deriv, mult)])
        self.slots = np.array([d + (2 * n,) * (2 - len(d)) for d in deriv])
        self.starts = np.flatnonzero(np.diff(self.row, prepend=-1))

    def kappa(self, d1_weight) -> np.ndarray:
        """The weights kappa (monomials, terms) of monomials whose first
        derivatives carry the weights d1_weight (monomials, 2n)."""
        g = np.concatenate([d1_weight, np.ones((len(d1_weight), 1))], axis=1)
        return self.coef * g[:, self.slots[:, 0]] * g[:, self.slots[:, 1]]


def gauduchon_residual(metric: HermitianMetricField, where):
    """Normalized density of i d dbar omega^(n-1): the real part of the
    zeroth-order coefficient c = (n-1)! i d* dbar* omega.

    On a quadrature grid the max over nodes is returned; for a plain point
    array (pointwise-only charts) the per-point values come back instead.
    """

    def density(pts):
        return np.real(gauduchon_operator_coefficients(metric.jet(pts))[3])

    if isinstance(where, QuadratureGrid):
        return float(np.max(np.abs(map_nodes(density, where.nodes))))
    return map_nodes(density, np.asarray(where, dtype=complex))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass
class NodeFields:
    """What the assembly keeps of the metric, per grid node in node order:
    the volume weights, the operator coefficients (a, b_holo, b_anti, c)
    and, when asked for, the Chern scalar s_C and the Riemannian bulk
    s/2 + |T|^2/4 that the total-curvature identity reads."""

    weights: np.ndarray
    coeffs: tuple
    chern: Optional[np.ndarray] = None
    bulk: Optional[np.ndarray] = None


@dataclass
class GauduchonSolution:
    """The solved factor, with u = e^((n-1) f) as node values, as basis
    coefficients (zero below the 1e-14 relative cut) and as a field, and
    the node fields of the metric that the assembly kept."""

    factor: ConformalFactor
    u_nodes: np.ndarray
    iterations: int
    coeffs: np.ndarray
    u_field: ScalarField
    fields: NodeFields

    @property
    def input_residual(self) -> float:
        """The residual of the input metric, max |Re c| over the nodes
        (`gauduchon_residual` on the grid)."""
        return float(np.max(np.abs(np.real(self.fields.coeffs[3]))))


def galerkin_matrices(metric: HermitianMetricField, grid: QuadratureGrid, w: np.ndarray,
                      curvature: bool = False):
    """Gram and operator matrices of the grid's basis, (m, m) each, and the
    `NodeFields` of `metric` with the weights `w`: the operator coefficients
    of every node, and its s_C and s/2 + |T|^2/4 if `curvature`, all read
    from the one `CxBlocks` per chunk that the assembly builds.

    gram[s, t] = sum_nodes w phi_s phi_t and op[s, t] = sum_nodes w phi_s L phi_t.
    Real function s is Re(rho s^q P_j), rho = 1 for a real part and -i for
    an imaginary part, both conjugated with q for a partner conj(P_j) (as
    Re(D conj X) = Re(conj(D) X) for the real L), and L of it is
    Re(rho s^q (X0 + q X1 + q^2 X2)) (`OperatorTerms`).  s^q P_j is
    e^(i beta_1 k t) P_j / |z|^|e_j| with the signed radial index k
    (`_radial_index`), so by Re a Re b = Re(ab + conj(a) b) / 2

        gram[s, t] = Re(rho_s rho_t B1[k_s + k_t] + conj(rho_s) rho_t B2[k_t - k_s]) / 2

    at (j_s, j_t) and the row P, and op[s, t] is the same on the rows X_r
    weighted by q_t^r.  The bins B_c[Delta] = sum_p e^(i beta_1 Delta t_p) S_c(p),
    Delta = -2K..2K, fold the t-planes' sums S1 = sum w P_j Y and
    S2 = sum w conj(P_j) Y, which are moments of the weighted node fields
    W_f = w C_f (`coefficient_fields`, `_MomentPlan`).  The chunked walk
    keeps only those fields, in node order: node i is cell i of `_Lattice`
    (`QuadratureGrid` checks it), and no basis function is evaluated at a
    node.  Each matrix is written once, a block of rows with equal k at a
    time, by one gather from its bins; the Gram matrix is symmetrized
    exactly.  The torus takes the same path with k = 0 on its one plane.

    The first chunk with a non-finite weight or coefficient raises
    NonFiniteIntegrand at its first bad node.  A grid without axes raises
    ValueError.
    """
    basis = grid.basis
    lattice = _Lattice(grid)
    m, N, n = len(basis), len(grid.nodes), metric.n
    kept = tuple(np.empty((N,) + (n,) * k, dtype=complex) for k in (2, 1, 1, 0))  # a, b, b~, c
    chern = np.empty(N) if curvature else None
    bulk = np.empty(N) if curvature else None
    weighted = np.empty((2 + 2 * n + n * n, N), dtype=complex)  # W_f at the nodes

    def accumulate(idx):
        pts = grid.nodes[idx]
        cx = CxBlocks(metric.jet(pts))
        coeffs = gauduchon_operator_coefficients(cx)
        fields = coefficient_fields(coeffs) * w[idx]
        _check_finite(idx, fields)
        for k, c in zip(kept, coeffs):
            k[idx] = c
        if curvature:  # after the check: the symmetry check of s would name no node
            s, tsq = scalar_and_torsion(cx)
            chern[idx] = cx.chern_ricci()[1]
            bulk[idx] = 0.5 * s + 0.25 * tsq
        weighted[:, idx] = fields

    map_nodes(accumulate, np.arange(N))
    plan = _MomentPlan(lattice, basis, OperatorTerms(n, basis.d1_shift, np.any(basis.powers)))
    F, rows = len(basis.expo), len(plan.starts)  # P, then X0 alone or X0, X1 and X2
    i = basis.index  # the complex function of each real function
    j, imag = basis.poly[i], basis.imag
    rho, q = (np.where(basis.conj[i], np.conj(x), x)
              for x in (np.where(imag, -1j, 1.0), basis.powers[i]))
    k = _radial_index(q)
    K = np.abs(k).max()
    bins = np.zeros((4 * K + 1, 2, F, F, rows), dtype=complex)  # (Delta, c, j, j', row)
    delta = np.arange(-2 * K, 2 * K + 1)
    for p, t_p in enumerate(lattice.t):
        S = plan.sums(lattice.fourier(weighted, p), t_p)
        for b, phase in zip(bins, np.exp(1j * hopf_radial_frequency(1) * t_p * delta)):
            b += phase * S
    qr = np.zeros((rows - 1, 2 * K + 1, F), dtype=complex)  # q^r of each (k, j) read
    qr[:, k + K, j] = q ** np.arange(rows - 1)[:, None]
    gram, op = np.empty((m, m)), np.empty((m, m))
    for k_s in np.unique(k):
        at = k == k_s
        # per k_t = -K..K, B1 at k_s + k_t and B2 at k_t - k_s; rho B1 + conj(rho) B2
        # is B1 + B2 for rho = 1 and rho (B1 - B2) for rho = +-i
        B1, B2 = bins[k_s + K : k_s + 3 * K + 1, 0], bins[K - k_s : 3 * K + 1 - k_s, 1]
        B = np.stack([B1 + B2, B1 - B2])  # (imag_s, k_t, j_s, j_t, row)
        cell = ((imag[at, None] * (2 * K + 1) + k + K) * F + j[at, None]) * F + j
        weight = 0.5 * rho[at, None] * rho
        gram[at] = np.real(weight * B[..., 0].ravel()[cell])
        op[at] = np.real(weight * np.einsum("iksjr,rkj->iksj", B[..., 1:], qr).ravel()[cell])
    return 0.5 * (gram + gram.T), op, NodeFields(w, kept, chern, bulk)


class _Lattice:
    """The cells of a product grid (`grid.axes`) and the node sums of
    monomials over them.

    A cell is (plane, profile node, periodic nodes), flat in C order, and
    cell i holds node i of the grid (`QuadratureGrid` checks the layout).  On
    the Hopf grid it is (p, j, k_beta, k_gamma): the t-plane, the
    Gauss-Legendre alpha node and the two angles.  There the monomial w^T,
    w = (z1, z2, zbar1, zbar2), is e^(|T| t) cos^A(alpha) sin^B(alpha)
    e^(i (K_b beta + K_g gamma)) with A = T1 + T3, B = T2 + T4,
    K_b = T1 - T3 and K_g = T2 - T4.  On the torus there is one plane
    (t = 0), no profile axis and 2n periodic axes, and the mode of
    frequency T is e^(2 pi i T.k / N) at the node k.  `coords` maps an
    exponent to its (degree, profile exponents, frequencies), linearly.

    So the node sum of a field W times a monomial over one plane is a sum
    over the profile nodes of the profile times the DFT of W over the
    periodic axes at the monomial's frequencies: the same sum, regrouped.
    A frequency is read modulo its axis size, which is exactly the
    quadrature's own aliasing.
    """

    def __init__(self, grid: QuadratureGrid):
        axes = grid.axes
        if axes is None:
            raise ValueError("a grid without axes has no cells: no t-planes and no periodic "
                             "axes for the assembly to sum over")
        self.kind = axes["kind"]
        if self.kind == "hopf":
            self.t = np.asarray(axes["t"], dtype=float)
            self.alpha = np.asarray(axes["alpha"], dtype=float)
            self.periodic = (len(axes["beta"]), len(axes["gamma"]))
            self.shape = (len(self.t), len(self.alpha)) + self.periodic
            # rows: the slots z1, z2, zbar1, zbar2; columns: |T|, A, B, K_b, K_g
            self.coords = np.array([[1, 1, 0, 1, 0], [1, 0, 1, 0, 1],
                                    [1, 1, 0, -1, 0], [1, 0, 1, 0, -1]])
            self.profiles = 2
        else:  # torus: the grid's construction refused any other kind
            self.t = np.zeros(1)
            self.periodic = tuple(axes["shape"])
            self.shape = (1, 1) + self.periodic
            dim = len(self.periodic)
            self.coords = np.concatenate([np.zeros((dim, 1), dtype=int), np.eye(dim, dtype=int)],
                                         axis=1)
            self.profiles = 0

    def fourier(self, weighted, p: int) -> np.ndarray:
        """The sums over the periodic nodes of W e^(-i K.theta), for every
        field W of plane p and every frequency bin K: (fields, profile
        nodes, bins)."""
        fields = weighted.reshape((len(weighted),) + self.shape)[:, p]
        out = np.fft.fftn(fields, axes=tuple(range(2, fields.ndim)))
        return out.reshape(len(weighted), self.shape[1], -1)

    def profile(self, coords) -> np.ndarray:
        """The profiles of monomials at the profile nodes, (monomials,
        nodes), from their profile exponents (monomials, `profiles`)."""
        if self.kind == "torus":
            return np.ones((len(coords), 1))
        top = np.arange(coords.max(initial=0) + 1)[:, None]
        cos, sin = np.cos(self.alpha) ** top, np.sin(self.alpha) ** top
        return cos[coords[:, 0]] * sin[coords[:, 1]]


class _MomentPlan:
    """Which moments the plane sums of a basis read, and how.

    Entry (c, j, k, t) is term t of `OperatorTerms` on the monomial P_k,
    times P_j (c = 0) or conj(P_j) (c = 1): kappa[k, t] times the moment
    M_f(T, sigma) = sum_plane W_f w^T s^-sigma of the term's field f at the
    exponent T = e_j + e_k + shift_t, e_j read through `conj_expo` for
    c = 1, less the degree |e_j| + |e_k| that the radial powers of the two
    functions cancel.  Only the distinct moments of the entries with
    kappa != 0 are computed, each once per plane.  With s = e^(2t) and the
    profile and frequencies K of T (`_Lattice`), such a moment is

        e^((|shift_t| - 2 sigma) t_p) sum_alpha profile(T) DFT(W_f)(alpha, -K),

    the DFT taken with e^(-i K.theta).  An entry's terms summed per row
    give S1 = sum w P_j Y (c = 0) and S2 = sum w conj(P_j) Y (c = 1), each
    times |z|^-(|e_j| + |e_k|): the conjugate products read the same fields
    at the conjugate exponent, so no conjugate field is formed.
    """

    def __init__(self, lattice: _Lattice, basis, terms: OperatorTerms):
        expo = np.asarray(basis.expo)
        F, T = len(expo), len(terms.row)
        self.kappa = terms.kappa(basis.d1_weight)  # (F, T)
        self.starts = terms.starts
        # every entry's coordinates, (2, F, F, T) each: they are linear in
        # the exponent, so those of e_j (or conj_expo(e_j)), e_k and shift_t add
        lead = np.stack([expo, basis.conj_expo(expo)]) @ lattice.coords
        own, shift = expo @ lattice.coords, terms.shift @ lattice.coords
        coords = [lead[:, :, None, None, a] + own[:, None, a] + shift[:, a]
                  for a in range(1, lattice.coords.shape[1])]
        freqs = [(-K) % size for K, size in zip(coords[lattice.profiles :], lattice.periodic)]
        parts = np.broadcast_arrays(terms.field, shift[:, 0] - 2 * terms.sigma,
                                    np.ravel_multi_index(freqs, lattice.periodic),
                                    *coords[: lattice.profiles])
        low = [x.min() for x in parts]
        dims = [int(x.max() - lo) + 1 for x, lo in zip(parts, low)]
        key = np.ravel_multi_index([x - lo for x, lo in zip(parts, low)], dims)
        live = self.kappa != 0  # broadcast over (c, j)
        moments, inverse = np.unique(key[:, :, live], return_inverse=True)
        self.field, self.nu, self.bin, *profile = (x + lo for x, lo in
                                                   zip(np.unravel_index(moments, dims), low))
        self.profile = lattice.profile(np.array(profile, dtype=int).reshape(-1, len(moments)).T)
        self.index = np.full((2, F, F, T), len(moments))  # the zero moment where kappa = 0
        self.index[:, :, live] = inverse.reshape(2, F, -1)

    def sums(self, dft, t_p: float) -> np.ndarray:
        """S1 and S2 of one plane from the DFT of its weighted fields
        (`_Lattice.fourier`), (2, j, k, row)."""
        moments = np.einsum("uj,uj->u", dft[self.field, :, self.bin], self.profile)
        moments = np.append(moments * np.exp(self.nu * t_p), 0.0)
        return np.add.reduceat(moments[self.index] * self.kappa, self.starts, axis=-1)


def _check_finite(nodes, *rows):
    """NonFiniteIntegrand at the first node where one of `rows` (arrays with
    the node axis last) is not finite.  `nodes` is the node index of each
    column, or of the first column when they are consecutive."""
    if all(np.all(np.isfinite(r)) for r in rows):
        return
    columns = np.vstack([part for r in rows for part in (np.real(r), np.imag(r))])  # (rows, nodes)
    at = nodes if np.ndim(nodes) else nodes + np.arange(columns.shape[1])
    bad = np.flatnonzero(~np.all(np.isfinite(columns), axis=0))
    i = bad[np.argmin(at[bad])]
    col = columns[:, i]
    raise NonFiniteIntegrand(int(at[i]), float(col[np.argmax(~np.isfinite(col))]))


def _check_resolves(grid: QuadratureGrid):
    """QuadratureUnsupported where an axis of `grid` has at most 2K nodes, K
    the largest frequency of the grid's basis on it: two of its frequencies
    then alias, and the Gram matrix can lose rank.  K of a periodic axis is
    read off the exponents (`_Lattice.coords`), and K of the Hopf t-axis
    (period log 2) is the largest |k| of its radial indices (`_radial_index`)."""
    basis, lattice = grid.basis, _Lattice(grid)
    names = (("beta", "gamma") if lattice.kind == "hopf"
             else [c + str(i) for c in "xy" for i in range(1, len(lattice.periodic) // 2 + 1)])
    K = np.abs(np.asarray(basis.expo) @ lattice.coords).max(axis=0)[1 + lattice.profiles:]
    k_max = np.abs(_radial_index(basis.powers)).max()
    for name, nodes, k in [("t", len(lattice.t), k_max), *zip(names, lattice.periodic, K)]:
        if nodes <= 2 * k:
            raise QuadratureUnsupported(f"the {name} axis has {nodes} nodes, and the basis "
                                        f"needs at least {2 * k + 1} (frequencies up to {k})")


def _radial_index(q) -> np.ndarray:
    """The signed radial index k of each power q = i beta_k / 2 - d / 2 of a
    basis: Im q / (beta_1 / 2), rounded (0 without radial powers)."""
    return np.rint(np.imag(q) / (0.5 * hopf_radial_frequency(1))).astype(int)


def solve_gauduchon(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    curvature: bool = False,
) -> GauduchonSolution:
    """Gauduchon factor of the conformal class of `metric` on `grid`.

    The positive null vector of the discretized operator gives
    u = e^((n-1) f); the factor f is mean-zero over the grid nodes.  The
    Gram and operator matrices are streamed over node chunks
    (`galerkin_matrices`), so the solve holds O(m^2) plus one chunk, the
    weighted node fields and the kept node fields (s_C and
    s/2 + |T|^2/4 too if `curvature`); a non-finite weight or operator
    coefficient raises NonFiniteIntegrand at its node, before any linear
    algebra; a grid too coarse for the basis raises QuadratureUnsupported
    before assembly (`_check_resolves`).  The node values of u
    (positivity, the sign of the null vector, f) come from the solved
    field's value-only path; a non-finite one raises NonFiniteIntegrand.
    """
    if grid is None or grid.basis is None:
        raise QuadratureUnsupported("manifold provides no quadrature grid / basis")
    n = metric.n
    if n < 2:
        raise ValueError("the Gauduchon factor is only determined for n >= 2")

    _check_resolves(grid)
    w = volume_weights(metric, grid)
    gram, op, fields = galerkin_matrices(metric, grid, w, curvature)
    # inverse iteration on the pencil (op, gram) (Golub and Van Loan, 4th ed., 8.7): in
    # coordinates orthonormal for gram, the shifted iteration on the operator itself
    A = op + (1e-12 * np.linalg.norm(op, np.inf) / np.linalg.norm(gram, np.inf)) * gram
    x = (np.arange(len(gram)) == 0) / np.sqrt(gram[0, 0])  # basis function 0 is the constant
    for it in range(1, MAX_ITER + 1):
        gx = gram @ x
        y = np.linalg.solve(A, gx)
        y *= np.copysign(1.0 / np.sqrt(y @ gram @ y), y @ gx)  # unit gram norm, no sign flip
        step, x = y - x, y
        if np.sqrt(step @ gram @ step) <= DRIFT_TOL:
            break
    else:
        raise NonConvergence(f"inverse-power iteration did not stabilize in {MAX_ITER} iterations")

    coeffs = np.where(np.abs(x) > 1e-14 * np.max(np.abs(x)), x, 0.0)
    u_field = grid.basis.field(coeffs, "gauduchon-u")
    u_nodes = np.real(u_field.values(grid.nodes))
    _check_finite(0, u_nodes)
    if u_nodes[np.argmax(np.abs(u_nodes))] < 0:
        # negating the coefficients negates every value exactly
        coeffs, u_nodes = -coeffs, -u_nodes
        u_field = grid.basis.field(coeffs, "gauduchon-u")
    if np.min(u_nodes) <= POSITIVITY_TOL * np.max(np.abs(u_nodes)):
        raise NoPositiveNullVector(
            f"null vector changes sign (min {np.min(u_nodes):.3e}, max {np.max(u_nodes):.3e}); "
            "discretization too coarse"
        )

    f_nodes = np.log(u_nodes) / (n - 1)
    mean = float(np.mean(f_nodes))
    f_field = u_field.log() * (1.0 / (n - 1)) - mean
    factor = ConformalFactor(f_nodes - mean, f_field)
    return GauduchonSolution(factor, u_nodes, it, coeffs, u_field, fields)


def solved_residual(sol: GauduchonSolution, grid: QuadratureGrid) -> float:
    """max |c| over the nodes for the solved metric e^f omega: the value of
    `gauduchon_residual(conformal_metric(metric, sol.factor), grid)`, read
    from the kept coefficients and one jet of u per chunk.

    By the conformal law c(e^f omega) = e^(-n f) L_omega(e^((n-1) f)), and
    e^((n-1) f) is u times the constant e^((n-1) f) / u (f is log u / (n-1)
    less its mean), so c(e^f omega) = e^(-f) L_omega(u) / u at each node.
    """
    density = map_nodes(lambda idx: _solved_density(sol, idx, sol.u_field(grid.nodes[idx])),
                        np.arange(len(grid.nodes)))
    return float(np.max(np.abs(density)))


def _solved_density(sol: GauduchonSolution, idx, uj) -> np.ndarray:
    """c(e^f omega) at the nodes idx from the jet uj of u there."""
    lu = apply_gauduchon_operator(tuple(c[idx] for c in sol.fields.coeffs), uj)
    return np.real(lu) * (np.exp(-sol.factor.values[idx]) / sol.u_nodes[idx])


# ---------------------------------------------------------------------------
# totals and the conformal total-curvature identity
# ---------------------------------------------------------------------------


@dataclass
class TotalCurvatureCheck:
    lhs: float
    rhs: float
    residual: float
    gradient_term: float
    factor: ConformalFactor


def _total_identity(grid: QuadratureGrid, f: ConformalFactor, fields: NodeFields):
    """Both routes to the Gauduchon total: Chern side and Riemannian side.

    lhs = integral of s_C(omega_f) against the volume of omega_f;
    rhs = integral of e^((n-1) f) (s/2 + |T|^2/4) against the base volume
          plus (n-1)^2 ||df||^2 taken with respect to omega_f.
    Also returns the volume of omega_f.  Since log det (e^f h) =
    n f + log det h, the lhs integrand is e^((n-1) f) (s_C - n tr_h i d dbar f)
    against the base volume.  The base metric enters through the kept
    `fields` of the assembly alone (s_C, s/2 + |T|^2/4, the weights, and
    H^-1 = a^T / (n-1)!), so only the jet of f is evaluated here.
    """
    fval, lap, df2 = map_nodes(
        lambda idx: _identity_integrands(fields, idx, f.field(grid.nodes[idx])),
        np.arange(len(grid.nodes)))
    return _identity_totals(fields, fval, lap, df2)


def _identity_integrands(fields: NodeFields, idx, fj):
    """f, tr_h i d dbar f and |d f|^2_h (real parts) at the nodes idx from
    the jet fj of f there."""
    a = fields.coeffs[0][idx]
    Hinv = np.swapaxes(a, -1, -2) / factorial(a.shape[-1] - 1)
    return np.real(fj.val), np.real(trace_i_ddbar(Hinv, fj)), np.real(grad_norm_sq(Hinv, fj))


def _identity_totals(fields: NodeFields, fval, lap, df2):
    """(lhs, rhs, gradient term, volume of omega_f) of `_total_identity`
    from its node integrands."""
    n = fields.coeffs[0].shape[-1]
    w = fields.weights
    w_u = w * np.exp((n - 1) * fval)  # base weights times u = e^((n-1) f)
    lhs = float(np.sum(w_u * (fields.chern - n * lap)))
    vol_f = float(np.sum(w * np.exp(n * fval)))  # the volume of omega_f
    grad_term = float(np.sum(w_u * df2)) * (n - 1) ** 2
    rhs = float(np.sum(w_u * fields.bulk)) + grad_term
    return lhs, rhs, grad_term, vol_f


def theorem_t_check(metric: HermitianMetricField, grid: QuadratureGrid) -> TotalCurvatureCheck:
    """Total Chern scalar curvature of the Gauduchon representative vs the
    conformally weighted Riemannian scalar / torsion integral.
    """
    sol = solve_gauduchon(metric, grid, curvature=True)
    lhs, rhs, grad_term, _ = _total_identity(grid, sol.factor, sol.fields)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    return TotalCurvatureCheck(lhs, rhs, residual, grad_term, sol.factor)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


EPS_SIGN_SCALE = 1e-6  # sign band per unit volume
FACTOR_TOL = 1e-6  # max |f| of a Gauduchon factor that counts as trivial
DRIFT_TOL = 1e-10  # gram norm of the inverse-power step at which the null vector has settled
MAX_ITER = 60  # inverse-power steps before NonConvergence
POSITIVITY_TOL = 1e-8  # min u below this fraction of max |u| is a sign change
TORSION_TOL = 1e-8  # max |T|^2 of a torsion-free (Kahler) metric
CERTIFY_TOL = 1e-3  # relative identity gap above which a total is not certified


class KodairaStatement(str, Enum):
    NOT_PSEF = "NotPseudoEffective_KappaMinusInfinity"
    KAHLER_CY = "KahlerCalabiYau_RicciFlat"
    INDETERMINATE = "Indeterminate"


@dataclass
class Verdict:
    """Classification record driven by the Gauduchon total curvature sign.

    `total_chern_scalar` is the Chern-side total as computed.  `sign` is
    "positive", "zero" or "negative" for a certified total, and
    "uncertified" when the two sides of the total-curvature identity
    disagree beyond CERTIFY_TOL: the total is then reported but carries no
    sign, and the statement is Indeterminate.
    """

    manifold: str
    total_chern_scalar: float
    sign: str  # positive | zero | negative | uncertified
    kodaira_statement: KodairaStatement
    notes: str = ""

    def __post_init__(self):
        if (self.kodaira_statement == KodairaStatement.NOT_PSEF) != (self.sign == "positive"):
            raise ValueError("verdict/sign invariant violated")
        if self.kodaira_statement == KodairaStatement.KAHLER_CY and self.sign != "zero":
            raise ValueError("Calabi-Yau verdict requires zero total curvature")


def classify(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    kahler_flag: bool,
    torsion_max: float,
    manifold: str = "",
) -> Verdict:
    """Sign-based verdict for the conformal class of `metric`.

    The total is computed along the Chern route and certified against the
    independently computed Riemannian route (the two sides of the
    total-curvature identity); a sign must clear both the band
    EPS_SIGN_SCALE * volume and twice the measured identity gap.  An
    uncertified total (relative gap above CERTIFY_TOL) stays
    Indeterminate with the sign "uncertified" and the computed total: the
    discretization cannot support a sign claim there.  The notes end with
    the solved residual (`solved_residual`), which no gate reads.
    """
    sol = solve_gauduchon(metric, grid, curvature=True)
    f = sol.factor
    n = metric.n
    mean = float(np.mean(np.log(sol.u_nodes) / (n - 1)))

    def chunk(idx):
        # one jet of u per chunk serves both reads: f's jet follows from it by
        # the operations of `f.field`, log u * (1 / (n-1)) - mean
        uj = sol.u_field(grid.nodes[idx])
        fj = uj.log() * (1.0 / (n - 1)) - mean
        return (_solved_density(sol, idx, uj),) + _identity_integrands(sol.fields, idx, fj)

    density, *integrands = map_nodes(chunk, np.arange(len(grid.nodes)))
    total, rhs, _, vol = _identity_totals(sol.fields, *integrands)
    gap = abs(total - rhs)
    residual = float(np.max(np.abs(density)))
    if gap > CERTIFY_TOL * (1.0 + abs(total)):
        return Verdict(
            manifold or metric.name,
            total,
            "uncertified",
            KodairaStatement.INDETERMINATE,
            f"total not certified: identity gap {gap:.3e} vs total {total:.3e}; "
            f"refine the basis or grid; solved_residual={residual:.3e}",
        )
    eps = max(EPS_SIGN_SCALE * vol, 2.0 * gap)
    if total > eps:
        sign = "positive"
    elif total < -eps:
        sign = "negative"
    else:
        sign = "zero"

    f_variation = float(np.max(np.abs(f.values)))
    notes = (
        f"total={total:.6e}, vol={vol:.6e}, identity_gap={gap:.3e}, "
        f"f_variation={f_variation:.3e}, torsion_max={torsion_max:.3e}, "
        f"solved_residual={residual:.3e}"
    )
    if sign == "positive":
        statement = KodairaStatement.NOT_PSEF
    elif (
        sign == "zero"
        and kahler_flag
        and torsion_max <= TORSION_TOL
        and f_variation <= FACTOR_TOL
    ):
        statement = KodairaStatement.KAHLER_CY
    else:
        statement = KodairaStatement.INDETERMINATE
    return Verdict(manifold or metric.name, total, sign, statement, notes)
