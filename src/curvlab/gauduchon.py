"""Conformal changes, the Gauduchon factor equation, and verdicts.

The Gauduchon condition for e^f omega is linear in u = e^((n-1) f): the
top-form i d dbar (u omega^(n-1)) must vanish.  The solver discretizes
that operator over a basis of smooth functions on the manifold (Galerkin,
with quadrature inner products), finds the near-null vector by shifted
inverse-power iteration, and enforces positivity of u.

The basis is evaluated one node chunk at a time as stacked jets
(`QuadratureGrid.basis_batch`): complex functions m along a leading
axis, carrying the value, gradient and mixed Hessian block that the
operator reads.  The operator L is real (it maps real u to real
densities), so L(Re phi) = Re(L phi) and L(Im phi) = Im(L phi): it is
applied once per complex function and both real basis rows are read off.

On the Hopf grid the complex functions are products phi = R_k m_j of a
radial mode R_k = s^p_k (s = |z|^2) and a sphere monomial m_j.  The
basis stacks the monomials only and declares the exponents p_k;
`lift_radial_modes` applies L to the monomials once and lifts the result
to every product by the Leibniz rule, with the derivatives of s shared
by all of them, so no product jet is formed.  A basis without radial
exponents (a plain field list) gives m and L m as they are.

The Gram and operator matrices are summed chunk by chunk
(`galerkin_matrices`): a chunk's value and L-value rows are added to the
two m x m matrices and dropped, and checked for non-finite entries on the
way, so a solve never holds an m x N matrix.  The solved u is kept as
basis coefficients, regrouped per radial mode on the Hopf grid
(u = Re sum_k R_k sum_j W_kj m_j), and evaluated over the surviving modes
and monomials only, with its value, gradient and mixed block; its full
Hessian stays pending until something reads it.  Its node values, and
every value read of the solved metric (the finite-difference stencil),
go through a value-only path that runs the same recurrence on values
alone.

Every step to the Gauduchon total reads mixed second derivatives d_i d_jbar
only: the operator coefficients (`_alpha_tower`), the Chern-Ricci form and
the conformal composition e^f h (`compose_conformal_jet`), which forms the
mixed block of its jet now and leaves the full second derivatives
pending.  Only the Riemannian side (s and |T|^2) forces them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from . import forms
from .errors import (
    NonConvergence,
    NonFiniteIntegrand,
    NoPositiveNullVector,
    NotGauduchon,
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
from .tensors import chern_ricci, chern_ricci_from_jet, scalar_and_torsion_from_jet


# ---------------------------------------------------------------------------
# conformal machinery
# ---------------------------------------------------------------------------


@dataclass
class ConformalFactor:
    """Mean-zero scalar factor f with omega_f = e^f omega.

    Carries both the node values on its grid and, when produced by the
    solver or built from a field, a smooth evaluator with analytic jets.
    """

    grid: Optional[QuadratureGrid]
    values: np.ndarray
    field: Optional[ScalarField] = None

    @classmethod
    def from_field(cls, grid: QuadratureGrid, fld: ScalarField):
        vals = np.real(fld.values(grid.nodes))
        mean = float(np.mean(vals))
        return cls(grid, vals - mean, fld - mean)

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


def _alpha_tower(jet: MetricJet):
    """Coefficient arrays of omega^(n-1) and its d, dbar, d dbar."""
    n = jet.n
    if n < 2:
        raise ValueError("the Gauduchon equation degenerates for n = 1")
    H, d1H = jet.H, jet.d1
    w = forms.omega_array(H)  # (1,1)
    dw = 1j * (d1H[..., :n, :, :] - np.einsum("...kij->...ikj", d1H[..., :n, :, :]))
    # dbar omega, stored (1,2): arr[i, l, j] = -i (d_lbar H[i,j] - d_jbar H[i,l])
    dbw = -1j * (
        np.einsum("...lij->...ilj", d1H[..., n:, :, :])
        - np.einsum("...jil->...ilj", d1H[..., n:, :, :])
    )
    # d dbar omega, stored (2,2): arr[k, i, l, j]
    M = jet.mixed  # M[k, l, i, j] = d_k d_lbar H[i, j]
    ddbw = -1j * (
        np.einsum("...klij->...kilj", M)
        - np.einsum("...ilkj->...kilj", M)
        - np.einsum("...kjil->...kilj", M)
        + np.einsum("...ijkl->...kilj", M)
    )

    if n == 2:
        alpha, pa, qa = w, 1, 1
        d_alpha, dbar_alpha, ddbar_alpha = dw, dbw, ddbw
        d_p, db_p, dd_p = (2, 1), (1, 2), (2, 2)
    else:
        wk, pk, qk = forms.wedge_power(w, 1, 1, n - 2)
        alpha = forms.wedge(w, 1, 1, wk, pk, qk)
        pa = qa = n - 1
        d_alpha = (n - 1) * forms.wedge(dw, 2, 1, wk, pk, qk)
        dbar_alpha = (n - 1) * forms.wedge(dbw, 1, 2, wk, pk, qk)
        first = forms.wedge(ddbw, 2, 2, wk, pk, qk)
        if n == 3:
            cross = forms.wedge(dbw, 1, 2, dw, 2, 1)
        else:
            wk3, p3, q3 = forms.wedge_power(w, 1, 1, n - 3)
            cross = forms.wedge(forms.wedge(dbw, 1, 2, dw, 2, 1), 3, 3, wk3, p3, q3)
        ddbar_alpha = (n - 1) * (first - (n - 2) * cross)
        d_p, db_p, dd_p = (pa + 1, qa), (pa, qa + 1), (pa + 1, qa + 1)
    return {
        "alpha": (alpha, pa, qa),
        "d": (d_alpha,) + d_p,
        "dbar": (dbar_alpha,) + db_p,
        "ddbar": (ddbar_alpha,) + dd_p,
    }


def gauduchon_operator_coefficients(jet: MetricJet):
    """Pointwise coefficients (a, b_holo, b_anti, c) of the scalar operator

    L u = sum a[i,j] d_i d_jbar u + sum b_holo[i] d_i u
          + sum b_anti[j] d_jbar u + c u,

    where L u is the density of i d dbar (u omega^(n-1)) against the
    volume form.
    """
    n = jet.n
    tower = _alpha_tower(jet)
    H = jet.H
    alpha, pa, qa = tower["alpha"]
    d_alpha, pd, qd = tower["d"]
    db_alpha, pb, qb = tower["dbar"]
    dd_alpha, _, _ = tower["ddbar"]

    batch = H.shape[:-2]
    vol = forms.volume_top(H)

    def density(arr):
        # forms.density with the volume form computed once for all nine ratios
        return forms.top_component(arr, n) / vol

    a = np.zeros(batch + (n, n), dtype=complex)
    b_holo = np.zeros(batch + (n,), dtype=complex)
    b_anti = np.zeros(batch + (n,), dtype=complex)
    for i in range(n):
        ei = np.zeros(n, dtype=complex)
        ei[i] = 1.0
        for j in range(n):
            ej = np.zeros(n, dtype=complex)
            ej[j] = 1.0
            unit = 1j * np.einsum("i,j->ij", ei, ej)  # i dz^i ^ dzbar^j
            a[..., i, j] = density(forms.wedge(unit, 1, 1, alpha, pa, qa))
        # i dz^i ^ dbar(alpha)
        b_holo[..., i] = density(forms.wedge(1j * ei, 1, 0, db_alpha, pb, qb))
        # -i dzbar^i ^ d(alpha)
        b_anti[..., i] = density(forms.wedge(-1j * ei, 0, 1, d_alpha, pd, qd))
    c = 1j * density(dd_alpha)
    return a, b_holo, b_anti, c


def apply_gauduchon_operator(coeffs, ujet):
    """L u from precomputed coefficients and the jet of u.

    `ujet` is a Jet2 or a MixedJet; a stacked family (leading axis before
    the node axis) gets L applied to every member at once.
    """
    a, b_holo, b_anti, c = coeffs
    n = a.shape[-1]
    d1 = ujet.d1
    out = (
        np.einsum("...ij,...ij->...", a, ujet.mixed)
        + np.einsum("...i,...i->...", b_holo, d1[..., :n])
        + np.einsum("...i,...i->...", b_anti, d1[..., n:])
        + c * ujet.val
    )
    return out


def lift_radial_modes(coeffs, batch, z):
    """Values and L-values of every complex function of `batch`, ((K + 1) F, N) each.

    L is applied once, to the F stacked functions m = batch.jet.  For a
    radial exponent p of the batch, the function g m with g = s^p and
    s = |z|^2 follows by the Leibniz rule, with ds = (zbar, z) and
    d_i d_jbar s = delta_ij:

        L(g m) = g [L m + (p / s)(A_m + m B) + (p (p - 1) / s^2) m C],

    A_m = sum a_il (zbar_i d_lbar m + z_l d_i m),  B = tr a + b.zbar + b~.z,
    C = zbar^T a z.  B and C are shared by every function.  A batch
    without radial exponents gives m and L m unchanged.
    """
    m = batch.jet
    lm = apply_gauduchon_operator(coeffs, m)
    if not len(batch.powers):
        return m.val, lm
    a, b_holo, b_anti, _ = coeffs
    n = a.shape[-1]
    zb = np.conj(z)
    s = np.sum(z * zb, axis=-1)
    u = np.einsum("...il,...i->...l", a, zb)  # weight of d_lbar m in A_m
    v = np.einsum("...il,...l->...i", a, z)  # weight of d_i m in A_m
    B = (
        np.einsum("...ii->...", a)
        + np.einsum("...i,...i->...", b_holo, zb)
        + np.einsum("...i,...i->...", b_anti, z)
    )
    C = np.einsum("...l,...l->...", u, z)
    A = np.einsum("...i,...i->...", v, m.d1[..., :n]) + np.einsum(
        "...l,...l->...", u, m.d1[..., n:]
    )
    first = (A + m.val * B) / s
    second = m.val * (C / s**2)
    vals, lvals = [m.val], [lm]
    for p in batch.powers:
        g = s**p
        vals.append(g * m.val)
        lvals.append(g * (lm + p * first + (p * (p - 1.0)) * second))
    return np.concatenate(vals), np.concatenate(lvals)


def gauduchon_residual(metric: HermitianMetricField, where):
    """Normalized density of i d dbar omega^(n-1).

    On a quadrature grid the max over nodes is returned; for a plain point
    array (pointwise-only charts) the per-point values come back instead.
    """

    def density(pts):
        jet = metric.jet(pts)
        dd_alpha, _, _ = _alpha_tower(jet)["ddbar"]
        return np.real(1j * forms.density(dd_alpha, jet.H))

    if isinstance(where, QuadratureGrid):
        return float(np.max(np.abs(map_nodes(density, where.nodes))))
    return map_nodes(density, np.asarray(where, dtype=complex))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@dataclass
class GauduchonSolution:
    """The solved factor, with u = e^((n-1) f) as node values, as basis
    coefficients (zero below the 1e-14 relative cut) and as a field."""

    factor: ConformalFactor
    u_nodes: np.ndarray
    eigen_residual: float
    iterations: int
    coeffs: np.ndarray
    u_field: ScalarField


def galerkin_matrices(metric: HermitianMetricField, grid: QuadratureGrid, w: np.ndarray):
    """Gram and operator matrices of the grid's basis, (m, m) each.

    gram[s, t] = sum_nodes w phi_s phi_t and op[s, t] = sum_nodes w phi_s L phi_t,
    accumulated in one pass over node chunks: a chunk's value rows V and
    L-value rows adds B B^T with B = V sqrt(w) to the Gram matrix (a
    symmetric rank-k product) and (V w) L^T to the operator, and is then
    dropped, so no (m, N) matrix is kept.  The first chunk with a
    non-finite weight, value or L-value raises NonFiniteIntegrand at its
    first bad node.
    """
    m = len(grid.basis)
    gram = np.zeros((m, m))
    op = np.zeros((m, m))

    def accumulate(idx):
        pts = grid.nodes[idx]
        coeffs = gauduchon_operator_coefficients(metric.jet(pts))
        batch = grid.basis_batch(pts)
        val, lval = lift_radial_modes(coeffs, batch, pts)
        vals, lvals = batch.rows(val), batch.rows(lval)
        wc = w[idx]
        _check_finite(int(idx[0]), wc, vals, lvals)
        B = vals * np.sqrt(wc)
        np.add(gram, B @ B.T, out=gram)
        np.add(op, (vals * wc) @ lvals.T, out=op)

    map_nodes(accumulate, np.arange(len(grid.nodes)))
    return gram, op


def _check_finite(first, *rows):
    """NonFiniteIntegrand at the first node where one of `rows` (arrays with
    the node axis last, node `first` at position 0) is not finite."""
    if all(np.all(np.isfinite(r)) for r in rows):
        return
    columns = np.vstack(rows)  # (rows, nodes)
    i = int(np.argmax(~np.all(np.isfinite(columns), axis=0)))
    col = columns[:, i]
    raise NonFiniteIntegrand(first + i, float(col[np.argmax(~np.isfinite(col))]))


def solve_gauduchon(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    tol: float = 1e-10,
    max_iter: int = 60,
    prune_tol: float = 1e-9,
    positivity_tol: float = 1e-8,
) -> GauduchonSolution:
    """Gauduchon factor of the conformal class of `metric` on `grid`.

    The positive null vector of the discretized operator gives
    u = e^((n-1) f); the factor f is mean-zero over the grid nodes.  The
    Gram and operator matrices are streamed over node chunks
    (`galerkin_matrices`), so the solve holds O(m^2) plus one chunk; a
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
    gram, op = galerkin_matrices(metric, grid, w)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > prune_tol * np.max(evals)
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
    if np.min(u_nodes) <= positivity_tol * np.max(np.abs(u_nodes)):
        raise NoPositiveNullVector(
            f"null vector changes sign (min {np.min(u_nodes):.3e}, max {np.max(u_nodes):.3e}); "
            "discretization too coarse"
        )

    f_nodes = np.log(u_nodes) / (n - 1)
    mean = float(np.mean(f_nodes))
    f_field = u_field.log() * (1.0 / (n - 1)) - mean
    factor = ConformalFactor(grid, f_nodes - mean, f_field)
    return GauduchonSolution(factor, u_nodes, res, it, coeffs, u_field)


# ---------------------------------------------------------------------------
# totals and the conformal total-curvature identity
# ---------------------------------------------------------------------------


def total_chern_scalar(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    residual_tol: float = 1e-4,
) -> float:
    """Integral of the Chern scalar curvature over the grid.

    Guarded by the Gauduchon residual: the total is the verdict-driving
    quantity only on a Gauduchon representative.
    """
    res = gauduchon_residual(metric, grid)
    if res > residual_tol:
        raise NotGauduchon(f"residual {res:.3e} exceeds {residual_tol:g}")
    w = volume_weights(metric, grid)
    s_c = map_nodes(lambda pts: chern_ricci(metric, pts)[1], grid.nodes)
    return float(np.sum(w * s_c))


@dataclass
class TotalCurvatureCheck:
    lhs: float
    rhs: float
    residual: float
    gradient_term: float
    factor: ConformalFactor


def _total_identity(metric, grid, f: ConformalFactor):
    """Both routes to the Gauduchon total: Chern side and Riemannian side.

    lhs = integral of s_C(omega_f) against the volume of omega_f;
    rhs = integral of e^((n-1) f) (s/2 + |T|^2/4) against the base volume
          plus (n-1)^2 ||df||^2 taken with respect to omega_f.
    Also returns the volume of omega_f.
    """
    n = metric.n

    def integrands(pts):
        fj = f.field(pts)
        base_jet = metric.jet(pts)
        _, s_c_f = chern_ricci_from_jet(compose_conformal_jet(base_jet, fj.exp()))
        s, tsq = scalar_and_torsion_from_jet(base_jet)
        Hinv = np.linalg.inv(base_jet.H)
        df2 = np.real(
            np.einsum("...i,...ji,...j->...", fj.d1[..., :n], Hinv, fj.d1[..., n:])
        )
        return np.real(fj.val), s_c_f, 0.5 * s + 0.25 * tsq, df2

    fval, s_c_f, bulk, df2 = map_nodes(integrands, grid.nodes)
    w = volume_weights(metric, grid)
    w_f = w * np.exp(n * fval)  # volume weights of omega_f
    w_u = w * np.exp((n - 1) * fval)  # base weights times u = e^((n-1) f)
    lhs = float(np.sum(w_f * s_c_f))
    vol_f = float(np.sum(w_f))
    grad_term = float(np.sum(w_u * df2)) * (n - 1) ** 2
    rhs = float(np.sum(w_u * bulk)) + grad_term
    return lhs, rhs, grad_term, vol_f


def theorem_t_check(metric: HermitianMetricField, grid: QuadratureGrid) -> TotalCurvatureCheck:
    """Total Chern scalar curvature of the Gauduchon representative vs the
    conformally weighted Riemannian scalar / torsion integral.
    """
    sol = solve_gauduchon(metric, grid)
    lhs, rhs, grad_term, _ = _total_identity(metric, grid, sol.factor)
    residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    return TotalCurvatureCheck(lhs, rhs, residual, grad_term, sol.factor)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


EPS_SIGN_SCALE = 1e-6  # sign band per unit volume
FACTOR_TOL = 1e-6  # max |f| of a Gauduchon factor that counts as trivial
TORSION_TOL = 1e-8  # max |T|^2 of a torsion-free (Kahler) metric
CERTIFY_TOL = 1e-3  # relative identity gap above which a total is not certified


class KodairaStatement(str, Enum):
    NOT_PSEF = "NotPseudoEffective_KappaMinusInfinity"
    KAHLER_CY = "KahlerCalabiYau_RicciFlat"
    INDETERMINATE = "Indeterminate"


@dataclass
class Verdict:
    """Classification record driven by the Gauduchon total curvature sign."""

    manifold: str
    total_chern_scalar: float
    sign: str  # positive | zero | negative
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
    Indeterminate: the discretization cannot support a sign claim there.
    """
    sol = solve_gauduchon(metric, grid)
    f = sol.factor
    total, rhs, _, vol = _total_identity(metric, grid, f)
    gap = abs(total - rhs)
    if gap > CERTIFY_TOL * (1.0 + abs(total)):
        return Verdict(
            manifold or metric.name,
            0.0,
            "zero",
            KodairaStatement.INDETERMINATE,
            f"total not certified: identity gap {gap:.3e} vs total {total:.3e}; "
            "refine the basis or grid",
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
        f"f_variation={f_variation:.3e}, torsion_max={torsion_max:.3e}"
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
