"""Conformal quotient evaluation and descent within a fixed conformal class.

The quotient is total Riemannian scalar curvature over volume to the power
1 - 1/n with n the complex dimension (the complex-geometry normalization;
the classical functional would use the real dimension -- reports carry a
note to that effect).  After integrating the Laplacian term by parts the
total curvature of e^f g needs first derivatives of f only:

    E(f) = integral of e^((n-1) f) (s + (m-1)(m-2)/4 |grad f|^2) dV,

with m = 2n and all metric quantities taken in the base metric.  The
descent is projected gradient on nodal values of f with Armijo
backtracking; accepted steps never increase the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import (
    HermitianMetricField,
    QuadratureGrid,
    hermitian_to_real,
    map_nodes,
    volume_weights,
)
from .tensors import (
    CxBlocks,
    _real_from_wirtinger,
    _scalar_from_blocks,
    real_metric_first_jets,
    riemannian_scalar,
)

EXPONENT_NOTE = "volume exponent 1 - 1/n uses the complex dimension n"

GTOL = 1e-8  # gradient norm at which the descent has converged
INITIAL_STEP = 0.5
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking


@dataclass
class YamabeTrace:
    iteration: int
    quotient: float
    step: float
    gradient_norm: float


@dataclass
class DescentResult:
    estimate: float
    trace: List[YamabeTrace]
    converged: bool
    note: str = EXPONENT_NOTE


# ---------------------------------------------------------------------------
# pointwise conformal transformation law
# ---------------------------------------------------------------------------


def conformal_scalar_riemannian(metric: HermitianMetricField, f, point):
    """Scalar curvature of e^f g via the real-dimension-m conformal law.

    s(e^f g) = e^-f [ s - (m-1) Lap_g f - (m-1)(m-2)/4 |grad f|^2_g ],
    m = 2n, with the Laplace-Beltrami operator of the base metric.
    """
    z = np.asarray(point, dtype=complex)
    n = metric.n
    m = 2 * n
    jet = metric.jet(z)
    G, dG = real_metric_first_jets(jet)
    Ginv = np.linalg.inv(G)
    fj = f(z)
    V = _real_from_wirtinger(n)
    df = np.real(np.einsum("aA,...A->...a", V, fj.d1))
    d2f = np.real(np.einsum("aA,bB,...AB->...ab", V, V, fj.d2))

    lap = _laplace_beltrami(Ginv, dG, df, d2f)
    grad2 = np.einsum("...ab,...a,...b->...", Ginv, df, df)
    s, _ = _scalar_from_blocks(CxBlocks(jet))
    fval = np.real(fj.val)
    return np.exp(-fval) * (s - (m - 1) * lap - (m - 1) * (m - 2) / 4.0 * grad2)


def _laplace_beltrami(Ginv, dG, df, d2f):
    """(1/sqrt G) d_a (sqrt G G^{ab} d_b f) from metric first derivatives."""
    dGinv = -np.einsum("...ae,...ceg,...gb->...cab", Ginv, dG, Ginv)
    dlogdet = np.einsum("...ab,...cba->...c", Ginv, dG)  # d_c log det G
    return (
        np.einsum("...ab,...ab->...", Ginv, d2f)
        + np.einsum("...aab,...b->...", dGinv, df)
        + 0.5 * np.einsum("...a,...ab,...b->...", dlogdet, Ginv, df)
    )


def yamabe_quotient(metric: HermitianMetricField, f, grid: QuadratureGrid) -> float:
    """Total scalar curvature of e^f g over volume^(1 - 1/n)."""
    n = metric.n
    w = volume_weights(metric, grid)
    fval = np.real(f(grid.nodes).val)
    stilde = map_nodes(lambda pts: conformal_scalar_riemannian(metric, f, pts), grid.nodes)
    E = float(np.sum(w * np.exp(n * fval) * stilde))
    V = float(np.sum(w * np.exp(n * fval)))
    return E / V ** (1.0 - 1.0 / n)


# ---------------------------------------------------------------------------
# nodal differentiation on structured grids
# ---------------------------------------------------------------------------


def _fourier_diff_matrix(N: int, period: float) -> np.ndarray:
    k = np.fft.fftfreq(N, d=1.0 / N)
    F = np.fft.fft(np.eye(N), axis=0)
    D = np.fft.ifft((2j * np.pi / period) * k[:, None] * F, axis=0)
    return np.real(D)


def _barycentric_diff_matrix(x: np.ndarray) -> np.ndarray:
    """Polynomial differentiation matrix on arbitrary nodes."""
    N = len(x)
    c = np.ones(N)
    for j in range(N):
        c[j] = np.prod(x[j] - np.delete(x, j))
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j:
                D[i, j] = (c[i] / c[j]) / (x[i] - x[j])
    D[np.diag_indices(N)] = -np.sum(D, axis=1)
    return D


class NodalDerivatives:
    """Real-coordinate partials of nodal fields on a structured grid."""

    def __init__(self, grid: QuadratureGrid):
        axes = grid.axes
        if axes is None:
            raise ValueError("grid carries no structured-axes metadata")
        self.kind = axes["kind"]
        self.shape = tuple(axes["shape"])
        self.nvars = len(self.shape)
        if self.kind == "torus":
            self.D = [
                _fourier_diff_matrix(self.shape[a], self.shape[a] * axes["spacings"][a])
                for a in range(self.nvars)
            ]
            self.jinv = None
        elif self.kind == "hopf":
            self.D = [
                _fourier_diff_matrix(self.shape[0], np.log(2.0)),
                _barycentric_diff_matrix(np.asarray(axes["alpha"])),
                _fourier_diff_matrix(self.shape[2], 2.0 * np.pi),
                _fourier_diff_matrix(self.shape[3], 2.0 * np.pi),
            ]
            self.jinv = _hopf_inverse_jacobian(axes)  # (N, mu, a)
        else:
            raise ValueError(f"no nodal derivatives for grid kind {self.kind!r}")

    def chart_partials(self, values: np.ndarray) -> np.ndarray:
        """(N, nvars) array of partials along the grid axes."""
        v = values.reshape(self.shape)
        outs = []
        for a in range(self.nvars):
            outs.append(np.moveaxis(
                np.tensordot(self.D[a], np.moveaxis(v, a, 0), axes=(1, 0)), 0, a
            ).reshape(-1))
        return np.stack(outs, axis=-1)

    def chart_partials_adjoint(self, fields: np.ndarray) -> np.ndarray:
        """Adjoint of chart_partials: sum_mu D_mu^T fields[:, mu]."""
        out = np.zeros(int(np.prod(self.shape)))
        for a in range(self.nvars):
            v = fields[:, a].reshape(self.shape)
            out += np.moveaxis(
                np.tensordot(self.D[a].T, np.moveaxis(v, a, 0), axes=(1, 0)), 0, a
            ).reshape(-1)
        return out

    def real_partials(self, values: np.ndarray) -> np.ndarray:
        """(N, 2n) partials with respect to the real chart coordinates."""
        dchart = self.chart_partials(values)
        if self.jinv is None:
            return dchart
        return np.einsum("pma,pm->pa", self.jinv, dchart)

    def real_partials_adjoint(self, fields: np.ndarray) -> np.ndarray:
        if self.jinv is None:
            return self.chart_partials_adjoint(fields)
        return self.chart_partials_adjoint(np.einsum("pma,pa->pm", self.jinv, fields))


def _hopf_inverse_jacobian(axes) -> np.ndarray:
    t, a, b, g = (np.asarray(axes[k]) for k in ("t", "alpha", "beta", "gamma"))
    T, A, B, G = np.meshgrid(t, a, b, g, indexing="ij")
    r = np.exp(T.ravel())
    A, B, G = A.ravel(), B.ravel(), G.ravel()
    z1 = r * np.cos(A) * np.exp(1j * B)
    z2 = r * np.sin(A) * np.exp(1j * G)
    # columns: d(x1, x2, y1, y2)/d(t, alpha, beta, gamma)
    dz1 = np.stack([z1, -r * np.sin(A) * np.exp(1j * B), 1j * z1, np.zeros_like(z1)], axis=-1)
    dz2 = np.stack([z2, r * np.cos(A) * np.exp(1j * G), np.zeros_like(z2), 1j * z2], axis=-1)
    J = np.stack([np.real(dz1), np.real(dz2), np.imag(dz1), np.imag(dz2)], axis=-2)
    # J[p, a, mu] = dx_a / dxi_mu; invert to get dxi_mu / dx_a
    return np.linalg.inv(J)  # (N, mu, a)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def minimize_quotient(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    max_iters: int = 200,
    f0: Optional[np.ndarray] = None,
) -> DescentResult:
    """Projected gradient descent over mean-zero nodal conformal factors.

    Returns the terminal quotient (an upper bound for the class invariant)
    together with the monotone trace.  Non-convergence is reported through
    the flag, with the best-so-far estimate.
    """
    n = metric.n
    m = 2 * n
    c = (m - 1) * (m - 2) / 4.0
    w = volume_weights(metric, grid)
    nodal = NodalDerivatives(grid)
    s = map_nodes(lambda pts: riemannian_scalar(metric, pts)[0], grid.nodes)
    Ginv = np.linalg.inv(hermitian_to_real(metric.value(grid.nodes)))

    if f0 is None:
        f = np.zeros(len(grid.nodes))
    else:
        f = np.array(f0, dtype=float)
    f -= np.sum(w * f) / np.sum(w)

    def energy_volume(fv):
        df = nodal.real_partials(fv)
        grad2 = np.einsum("pab,pa,pb->p", Ginv, df, df)
        E = float(np.sum(w * np.exp((n - 1) * fv) * (s + c * grad2)))
        V = float(np.sum(w * np.exp(n * fv)))
        return E, V, df, grad2

    def quotient(fv):
        E, V, _, _ = energy_volume(fv)
        return E / V ** (1.0 - 1.0 / n)

    def grad_quotient(fv):
        E, V, df, grad2 = energy_volume(fv)
        dE = (n - 1) * w * np.exp((n - 1) * fv) * (s + c * grad2)
        flux = 2.0 * c * (w * np.exp((n - 1) * fv))[:, None] * np.einsum(
            "pab,pb->pa", Ginv, df
        )
        dE = dE + nodal.real_partials_adjoint(flux)
        dV = n * w * np.exp(n * fv)
        q = E / V ** (1.0 - 1.0 / n)
        gq = (dE - (1.0 - 1.0 / n) * (E / V) * dV) / V ** (1.0 - 1.0 / n)
        gq -= np.sum(w * gq) / np.sum(w)  # project onto mean-zero directions
        return q, gq

    trace: List[YamabeTrace] = []
    step = INITIAL_STEP
    q, g = grad_quotient(f)
    gnorm = float(np.linalg.norm(g))
    trace.append(YamabeTrace(0, q, 0.0, gnorm))
    converged = gnorm <= GTOL
    for it in range(1, max_iters + 1):
        if gnorm <= GTOL:
            converged = True
            break
        accepted = False
        while step > 1e-14:
            f_try = f - step * g
            f_try -= np.sum(w * f_try) / np.sum(w)
            q_try = quotient(f_try)
            if q_try <= q - ARMIJO * step * gnorm**2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        f = f_try
        q_prev = q
        q, g = grad_quotient(f)
        gnorm = float(np.linalg.norm(g))
        trace.append(YamabeTrace(it, q, step, gnorm))
        step = min(step * 2.0, 1e3)
        if abs(q_prev - q) <= 1e-15 * (1.0 + abs(q)):
            converged = gnorm <= 1e3 * GTOL
            break
    else:
        converged = gnorm <= GTOL
    return DescentResult(q, trace, converged)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass
class YamabeVerdict:
    lambda_sign: str  # positive | nonpositive
    spin: bool
    statements: tuple
    note: str = EXPONENT_NOTE


def lambda_c_verdict(sign: str, spin: bool) -> YamabeVerdict:
    """Statements implied by a positive conformal-class estimate.

    A positive lower-bound certificate for the class invariant forces
    Kodaira dimension -infinity; with a spin structure the A-hat genus
    vanishes as well.  Non-positive estimates support no conclusion.
    """
    if sign == "positive":
        statements = ("kodaira_dimension = -infinity",)
        if spin:
            statements = statements + ("A-hat genus = 0",)
        return YamabeVerdict(sign, spin, statements)
    return YamabeVerdict(sign, spin, ("no conclusion",))


def lebrun_consistency(lambda_sign: str, kappa) -> bool:
    """Kahler-surface trichotomy: sign of the Yamabe invariant vs kappa."""
    if kappa not in (-np.inf, 0, 1, 2):
        raise ValueError(f"kappa must be in {{-inf, 0, 1, 2}}, got {kappa!r}")
    if lambda_sign == "positive":
        return kappa == -np.inf
    if lambda_sign == "zero":
        return kappa in (0, 1)
    if lambda_sign == "negative":
        return kappa == 2
    raise ValueError(f"unknown sign {lambda_sign!r}")
