"""Conformal changes, the Gauduchon factor equation, and verdicts.

The Gauduchon condition for e^f omega is linear in u = e^((n-1) f): the
top-form i d dbar (u omega^(n-1)) must vanish.  The solver discretizes
that operator over a basis of smooth functions on the manifold (Galerkin,
with quadrature inner products), finds the near-null vector by shifted
inverse-power iteration, and enforces positivity of u.

The basis is evaluated one node chunk at a time as stacked jets (the
grid's `basis_batch` method calls its basis): complex functions m along
a leading axis, carrying the value, gradient and mixed Hessian block
that the operator reads.  The operator L is real (it maps real u to real
densities), so L(Re phi) = Re(L phi) and L(Im phi) = Im(L phi): it is
applied once per complex function and both real basis rows are read off.

On the Hopf grid the complex functions are products phi = R_k m_j of a
radial mode R_k = s^p_k (s = |z|^2) and a sphere monomial m_j, that is
phi = s^q P_j with the polynomial P_j = w^e_j in w = (z, zbar) and
q = p_k - |e_j| / 2.  The basis gathers the polynomials from one table
of monomials per chunk and declares one (q, j) pair per complex function
that a real function reads; `lift_radial_modes` applies L to the
polynomials once and splits L(s^q P) = s^q (X0 + q X1 + q^2 X2) by the
Leibniz rule, with the derivatives of s shared by all of them, so no
function s^q P_j is formed.  A basis without radial exponents (the torus
Fourier modes) has q = 0 and reads P and X0 = L P alone.

The Gram and operator matrices are summed chunk by chunk
(`galerkin_matrices`) and per t-plane of the grid, where s is one number
s_p: a chunk contracts its F polynomial rows P and X0, X1, X2 (real and
imaginary parts) against the weighted rows of P into one small block per
plane, F^2 N work in all, and is dropped; each chunk is checked for
non-finite entries on the way.  Once every node is summed, the factors
s_p^q and q^k are applied to each plane's block by gathers (m^2 work per
plane), so a solve never holds an m x N matrix and never forms the m x N
products.

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
the solved residual reads its jet once per chunk.

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
from .fields import ScalarField
from .geometry import (
    HermitianMetricField,
    MetricJet,
    QuadratureGrid,
    map_nodes,
    volume_weights,
)
from .tensors import CxBlocks, _dbar_star_omega_components, scalar_and_torsion


# ---------------------------------------------------------------------------
# conformal machinery
# ---------------------------------------------------------------------------


@dataclass
class ConformalFactor:
    """Mean-zero scalar factor f with omega_f = e^f omega.

    Carries both the node values on a grid and, when produced by the
    solver or built from a field, a smooth evaluator with analytic jets.
    """

    values: np.ndarray
    field: Optional[ScalarField] = None

    @classmethod
    def from_field(cls, grid: QuadratureGrid, fld: ScalarField):
        vals = np.real(fld.values(grid.nodes))
        mean = float(np.mean(vals))
        return cls(vals - mean, fld - mean)

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


def lift_radial_modes(coeffs, batch, z):
    """The polynomial values P and the radial terms X0, X1, X2, (F, N) each.

    L is applied once, to the F stacked functions P = batch.jet.  For a
    function s^q P_j of the batch, with s = |z|^2, ds = (zbar, z) and
    d_i d_jbar s = delta_ij, the Leibniz rule gives

        L(s^q P) = s^q (X0 + q X1 + q^2 X2),
        X0 = L P,  X1 = (A_P + P B) / s - P C / s^2,  X2 = P C / s^2,

    A_P = sum a_il (zbar_i d_lbar P + z_l d_i P),  B = tr a + b.zbar + b~.z,
    C = zbar^T a z.  B and C are shared by every polynomial, so no function
    s^q P_j is formed here: the assembly applies s^q and q per t-plane.  A
    batch without radial exponents (every q = 0) reads X0 alone; its X1 and
    X2 are zero.
    """
    P = batch.jet
    x0 = apply_gauduchon_operator(coeffs, P)
    if not np.any(batch.powers):
        zero = np.zeros_like(x0)
        return P.val, x0, zero, zero
    a, b_holo, b_anti, _ = coeffs
    n = a.shape[-1]
    zb = np.conj(z)
    s = np.sum(z.real**2 + z.imag**2, axis=-1)
    u = np.einsum("...il,...i->...l", a, zb)  # weight of d_lbar P in A_P
    v = np.einsum("...il,...l->...i", a, z)  # weight of d_i P in A_P
    B = (
        np.einsum("...ii->...", a)
        + np.einsum("...i,...i->...", b_holo, zb)
        + np.einsum("...i,...i->...", b_anti, z)
    )
    C = np.einsum("...l,...l->...", u, z)
    A = v[..., 0] * P.d1[..., 0] + u[..., 0] * P.d1[..., n]
    for i in range(1, n):
        A += v[..., i] * P.d1[..., i] + u[..., i] * P.d1[..., n + i]
    x2 = P.val * (C / s**2)
    x1 = (A + P.val * B) / s - x2
    return P.val, x0, x1, x2


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
    eigen_residual: float
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
    Real function s is Re(d_s s^q P_j), d_s = 1 for a real part and -i for
    an imaginary part, and L of it is Re(d_s s^q (X0 + q X1 + q^2 X2))
    (`lift_radial_modes`).  On a t-plane of the grid s is one number s_p, so
    s_p^q leaves the node sum: a chunk contracts only its F polynomial rows,
    in the real split Y = [Re P, Im P, Re X0, Im X0, ..., Im X2], into the
    (2F, 8F) block sum_nodes w Y[:2F] Y^T of each plane it meets, with its
    nodes grouped by plane.  When every chunk is summed, each plane's block
    is read by gathers with the weights d_s s_p^q q^k and added to the two
    m x m matrices, and the Gram matrix is symmetrized exactly.  A basis
    without radial exponents (q = 0) reads X0 alone, and a grid without
    t-planes is one plane, which only such a basis may use.

    The first chunk with a non-finite weight or row raises
    NonFiniteIntegrand at its first bad node, and a node on no t-plane
    raises ValueError.
    """
    m, N = len(grid.basis), len(grid.nodes)
    t = (grid.axes or {}).get("t")
    planes = np.ones(1) if t is None else np.exp(2.0 * np.asarray(t, dtype=float))
    blocks = layout = None
    n = metric.n
    kept = tuple(np.empty((N,) + (n,) * k, dtype=complex) for k in (2, 1, 1, 0))  # a, b, b~, c
    chern = np.empty(N) if curvature else None
    bulk = np.empty(N) if curvature else None

    def accumulate(idx):
        nonlocal blocks, layout
        plane = _plane_of(grid.nodes[idx], planes if t is not None else None, int(idx[0]))
        order = np.argsort(plane, kind="stable")  # one product per plane the chunk meets
        idx, plane = idx[order], plane[order]
        pts = grid.nodes[idx]
        cx = CxBlocks(metric.jet(pts))
        coeffs = gauduchon_operator_coefficients(cx)
        batch = grid.basis_batch(pts)
        layout = batch.index, batch.imag, batch.powers, batch.poly  # not the chunk's jets
        radial = np.any(batch.powers)
        if radial and t is None:
            raise ValueError("a basis with radial exponents needs a grid with t-planes")
        P, *X = lift_radial_modes(coeffs, batch, pts)
        rows = [P] + X[: 3 if radial else 1]  # X1 and X2 vanish at q = 0
        wc = w[idx]
        _check_finite(idx, wc, *rows)
        for k, c in zip(kept, coeffs):
            k[idx] = c
        if curvature:  # after the check: the symmetry check of s would name no node
            s, tsq = scalar_and_torsion(cx)
            chern[idx] = cx.chern_ricci()[1]
            bulk[idx] = 0.5 * s + 0.25 * tsq
        F, nodes = P.shape
        Y = np.empty((len(rows), 2, F, nodes))
        for y, x in zip(Y, rows):
            y[0], y[1] = x.real, x.imag
        Y = Y.reshape(-1, nodes)
        Y *= np.sqrt(wc)
        if blocks is None:
            blocks = np.zeros((len(planes), 2 * F, len(Y)))
        cuts = np.flatnonzero(np.diff(plane)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, nodes]):
            V, Yp = Y[: 2 * F, lo:hi], Y[:, lo:hi]
            block = blocks[plane[lo]]
            block[:, : 2 * F] += V @ V.T  # a symmetric rank-k product
            block[:, 2 * F :] += V @ Yp[2 * F :].T

    map_nodes(accumulate, np.arange(N))
    F = blocks.shape[1] // 2
    terms = blocks.shape[2] // (2 * F) - 1  # X0 alone, or X0, X1 and X2
    i, imag, powers, poly = layout  # i: the complex function of each real function
    q, j = powers[i], poly[i]
    rot = np.where(imag, -1j, 1.0)  # Im x = Re(-i x)
    re_at = j + 2 * F * np.arange(terms + 1)[:, None]  # Re rows of P, X0, ...; Im is F on
    both = np.zeros((m, 2 * m))  # [gram | op]
    for s_p, block in zip(planes, blocks):
        d = rot * np.exp(q * np.log(s_p))  # d_s s_p^q
        e = d * q ** np.arange(terms)[:, None]  # d_s s_p^q q^k, (terms, m)
        # columns: Re(d P_j) = Re d Re P_j - Im d Im P_j, and its L-value
        cols = block[:, re_at[0]] * d.real - block[:, re_at[0] + F] * d.imag
        lcols = sum(block[:, re_at[k + 1]] * e[k].real - block[:, re_at[k + 1] + F] * e[k].imag
                    for k in range(terms))
        cols = np.concatenate([cols, lcols], axis=1)  # (2F, 2m)
        # rows: the same weights d on the Re and Im rows of each P_j
        both += d.real[:, None] * cols[j]
        both -= d.imag[:, None] * cols[j + F]
    gram = both[:, :m]
    return 0.5 * (gram + gram.T), both[:, m:].copy(), NodeFields(w, kept, chern, bulk)


def _plane_of(z, planes, first):
    """Index of the t-plane of each node of the chunk z, from its |z|^2 and
    the |z|^2 of each plane (`planes`).

    Without t-planes (None) every node is on the one plane; a node more
    than PLANE_TOL (relative in |z|^2) from every plane of the grid raises
    ValueError, naming its index (node `first` at position 0).
    """
    if planes is None:
        return np.zeros(len(z), dtype=int)
    s = np.sum(z.real**2 + z.imag**2, axis=-1)
    plane = np.argmin(np.abs(s[:, None] - planes), axis=1)
    off = ~(np.abs(s - planes[plane]) <= PLANE_TOL * planes[plane])
    if np.any(off):
        k = int(np.argmax(off))
        raise ValueError(f"node {first + k} (|z|^2 = {s[k]!r}) lies on no t-plane of the grid")
    return plane


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


def solve_gauduchon(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    tol: float = 1e-10,
    max_iter: int = 60,
    curvature: bool = False,
) -> GauduchonSolution:
    """Gauduchon factor of the conformal class of `metric` on `grid`.

    The positive null vector of the discretized operator gives
    u = e^((n-1) f); the factor f is mean-zero over the grid nodes.  The
    Gram and operator matrices are streamed over node chunks
    (`galerkin_matrices`), so the solve holds O(m^2) plus one chunk and
    the kept node fields (s_C and s/2 + |T|^2/4 too if `curvature`); a
    non-finite weight, basis value or L-value raises NonFiniteIntegrand at
    its node, before any eigen-solve or iteration.  The node values of u
    (positivity, the sign of the null vector, f) come from the solved
    field's value-only path; a non-finite one raises NonFiniteIntegrand.
    """
    if grid is None or grid.basis is None:
        raise QuadratureUnsupported("manifold provides no quadrature grid / basis")
    n = metric.n
    if n < 2:
        raise ValueError("the Gauduchon factor is only determined for n >= 2")

    w = volume_weights(metric, grid)
    gram, op, fields = galerkin_matrices(metric, grid, w, curvature)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > PRUNE_TOL * np.max(evals)
    T = (evecs[:, keep] / np.sqrt(evals[keep])).T  # orthonormalizing transform
    M = T @ op @ T.T

    scale = np.linalg.norm(M, ord=np.inf) or 1.0
    shift = 1e-12 * scale
    x = T @ gram[:, 0]  # start at the projection of the constant function
    x /= np.linalg.norm(x)
    A = M + shift * np.eye(M.shape[0])
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        try:
            y = np.linalg.solve(A, x)
        except np.linalg.LinAlgError:
            A = M + (10.0 * shift) * np.eye(M.shape[0])
            y = np.linalg.solve(A, x)
        x_new = y / np.linalg.norm(y)
        if x_new @ x < 0:
            x_new = -x_new
        drift = float(np.linalg.norm(x_new - x))
        x = x_new
        if drift <= max(tol, 1e-13):
            converged = True
            break
    if not converged:
        raise NonConvergence(
            f"inverse-power iteration did not stabilize in {max_iter} iterations"
        )
    res = float(np.linalg.norm(M @ x)) / scale

    coeffs = np.asarray(T.T @ x, dtype=float)
    coeffs = np.where(np.abs(coeffs) > 1e-14 * np.max(np.abs(coeffs)), coeffs, 0.0)
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
    return GauduchonSolution(factor, u_nodes, res, it, coeffs, u_field, fields)


def solved_residual(sol: GauduchonSolution, grid: QuadratureGrid) -> float:
    """max |c| over the nodes for the solved metric e^f omega: the value of
    `gauduchon_residual(conformal_metric(metric, sol.factor), grid)`, read
    from the kept coefficients and one jet of u per chunk.

    By the conformal law c(e^f omega) = e^(-n f) L_omega(e^((n-1) f)), and
    e^((n-1) f) is u times the constant e^((n-1) f) / u (f is log u / (n-1)
    less its mean), so c(e^f omega) = e^(-f) L_omega(u) / u at each node.
    """
    coeffs = sol.fields.coeffs

    def density(idx):
        lu = apply_gauduchon_operator(tuple(c[idx] for c in coeffs), sol.u_field(grid.nodes[idx]))
        return np.real(lu) * (np.exp(-sol.factor.values[idx]) / sol.u_nodes[idx])

    return float(np.max(np.abs(map_nodes(density, np.arange(len(grid.nodes))))))


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
    a = fields.coeffs[0]
    n = a.shape[-1]

    def integrands(idx):
        fj = f.field(grid.nodes[idx])
        Hinv = np.swapaxes(a[idx], -1, -2) / factorial(n - 1)
        lap = np.real(np.einsum("...ij,...ji->...", fj.mixed, Hinv))
        df2 = np.real(
            np.einsum("...i,...ji,...j->...", fj.d1[..., :n], Hinv, fj.d1[..., n:])
        )
        return np.real(fj.val), lap, df2

    fval, lap, df2 = map_nodes(integrands, np.arange(len(grid.nodes)))
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
PRUNE_TOL = 1e-9  # Gram eigenvalues below this fraction of the largest are pruned
PLANE_TOL = 1e-12  # relative |z|^2 distance of a node from its t-plane
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
    total, rhs, _, vol = _total_identity(grid, f, sol.fields)
    gap = abs(total - rhs)
    residual = solved_residual(sol, grid)
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
