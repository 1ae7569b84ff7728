"""Conformal quotient evaluation and descent within a fixed conformal class.

The quotient is total Riemannian scalar curvature over volume to the power
1 - 1/n with n the complex dimension (the complex-geometry normalization;
the classical functional would use the real dimension -- reports carry a
note to that effect).  After integrating the Laplacian term by parts the
total curvature of e^f g needs first derivatives of f only:

    E(f) = integral of e^((n-1) f) (s + (m-1)(m-2)/4 |grad f|^2) dV,

with m = 2n and all metric quantities taken in the base metric.  The
descent is a Sobolev gradient descent on nodal values of f, in the H^1
inner product of the quotient's own principal part, with Armijo
backtracking from the natural step V^(1 - 1/n); accepted steps never
increase the quotient, and it has converged when the gradient norm is
within GTOL.
It works in the grid's chart coordinates: |grad f|^2 contracts the chart
partials of `geometry.NodalDerivatives` with the chart inverse metric
(J^T G J)^-1, J the chart Jacobian and G the real metric at the nodes.
Every iterate and gradient lies in the Nyquist-free subspace of
`NodalDerivatives.project`, on which the discrete quotient is coercive.
One iteration evaluates one `NodalDerivatives` call (the partials of the
search direction), one `.adjoint` (the gradient's flux term), one
`.project` of the gradient and one application of the Riesz map; the
Armijo trials and the accepted point read their partials by linearity.

The pointwise law for s(e^f g) (`conformal_scalar_riemannian`) reads
the Hermitian blocks of the base metric, to second order through
`CxBlocks` for s, and the value, gradient and mixed Hessian block of f:
Lap_g f = -d* d f and |grad f|^2_g = 2 |d f|^2_h are the contractions
`tensors.laplacian_d` and `tensors.grad_norm_sq` that the adjoint suite
and the Gauduchon total read too.  No real-frame jet of the metric is
formed, and a pending full Hessian of the metric or of f stays pending.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .geometry import (
    HermitianMetricField,
    NodalDerivatives,
    QuadratureGrid,
    hermitian_to_real,
    map_nodes,
    volume_weights,
)
from .tensors import (
    CxBlocks,
    _scalar_from_blocks,
    grad_norm_sq,
    laplacian_d,
    riemannian_scalar,
)

EXPONENT_NOTE = "volume exponent 1 - 1/n uses the complex dimension n"

GTOL = 1e-8  # gradient norm at which the descent has converged
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking
STALL = 1e-15  # relative predicted decrease at which a step only rounds


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
    m = 2n, read on the Hermitian blocks of the base metric with
    Lap_g f = -d* d f and |grad f|^2_g = 2 |d f|^2_h.
    """
    z = np.asarray(point, dtype=complex)
    m = 2 * metric.n
    cx = CxBlocks(metric.jet(z))
    fj = f(z)
    s, _ = _scalar_from_blocks(cx)
    grad2 = 2.0 * np.real(grad_norm_sq(cx.Hinv, fj))
    bracket = s + (m - 1) * laplacian_d(cx, fj) - (m - 1) * (m - 2) / 4.0 * grad2
    return np.exp(-np.real(fj.val)) * bracket


def yamabe_quotient(metric: HermitianMetricField, f, grid: QuadratureGrid) -> float:
    """Total scalar curvature of e^f g over volume^(1 - 1/n)."""
    n = metric.n
    w = volume_weights(metric, grid)
    fval = np.real(f.values(grid.nodes))
    stilde = map_nodes(lambda pts: conformal_scalar_riemannian(metric, f, pts), grid.nodes)
    E = float(np.sum(w * np.exp(n * fval) * stilde))
    V = float(np.sum(w * np.exp(n * fval)))
    return E / V ** (1.0 - 1.0 / n)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def minimize_quotient(
    metric: HermitianMetricField,
    grid: QuadratureGrid,
    max_iters: int = 200,
    f0: Optional[np.ndarray] = None,
) -> DescentResult:
    """Sobolev gradient descent over mean-zero, Nyquist-free nodal
    conformal factors.

    Returns the discrete quotient at the last accepted step, the lowest of
    the monotone trace, together with that trace; non-convergence is
    reported through the flag.  f0, every step and the gradient lie in the
    subspace Pi of `NodalDerivatives.project`, which drops the Nyquist mode
    (-1)^j of every periodic axis of even size: the nodal partials do not
    see that mode, and along it the quotient would be unbounded below.  The
    gradient g is the projected gradient, and `gradient_norm` in the trace
    is its norm, which GTOL bounds.  The search direction is
    d = Pi Abar^-1 g, Abar = W + kappa D^T W K D (`NodalDerivatives.riesz`,
    W = diag(w), w and w K averaged along the periodic axes), and a trial
    step is accepted when it lowers the quotient by ARMIJO step (g . d).
    kappa = 2c = (m-1)(m-2)/2 and the step V^(1 - 1/n), V = sum(w), come
    from the quotient's Hessian at f = 0, whose principal part is
    2c D^T W K D / V^(1 - 1/n): so step d is a Newton step on the high
    modes.  Every iteration's first trial step is that natural step.  The
    descent has converged when the gradient norm is within GTOL, whichever
    exit ends it.  Besides that and the budget, an accepted step whose
    predicted decrease step (g . d) is within STALL (1 + |q|) stops it: the
    quotient then moves by little more than the rounding of its node sum,
    so the measured decrease q_prev - q would stop at a step rounding
    picks, and further Armijo tests would be decided by rounding too.

    One iteration differentiates once and integrates by parts once: it forms
    the partials dd of the search direction d and K dd, each Armijo trial
    f - step d reads its partials df - step dd and K df - step K dd by
    linearity (the mean projection's constant shift is annihilated by the
    partials to rounding), and the accepted trial hands them, with its
    exponentials, to the gradient, whose one `NodalDerivatives.adjoint`
    takes the flux term.  The partials are held axis-major, (2n, N), so
    |grad f|^2 = df . K df sums whole rows.
    """
    n = metric.n
    m = 2 * n
    c = (m - 1) * (m - 2) / 4.0
    w = volume_weights(metric, grid)
    wsum = np.sum(w)
    nodal = NodalDerivatives(grid)
    s = map_nodes(lambda pts: riemannian_scalar(metric, pts)[0], grid.nodes)
    J = nodal.jacobian
    K = np.linalg.inv(np.swapaxes(J, 1, 2) @ hermitian_to_real(metric.value(grid.nodes)) @ J)
    K = np.ascontiguousarray(np.moveaxis(K, 0, -1))  # K[a, b, p]
    riesz = nodal.riesz(w, w * K, 2.0 * c)

    def partials(fv):
        """Chart partials df[a, p] of node values and K df."""
        df = nodal(fv).T
        return df, np.einsum("abp,bp->ap", K, df)

    def energy(fv, df, Kdf):
        """Quotient at fv, with the terms its gradient reads."""
        ew1 = w * np.exp((n - 1) * fv)
        ewn = w * np.exp(n * fv)
        density = s + c * np.sum(df * Kdf, axis=0)
        E = float(np.sum(ew1 * density))
        V = float(np.sum(ewn))
        return E / V ** (1.0 - 1.0 / n), (E, V, ew1, ewn, density)

    def gradient(Kdf, E, V, ew1, ewn, density):
        dE = (n - 1) * ew1 * density + nodal.adjoint((2.0 * c) * (ew1 * Kdf).T)
        dV = n * ewn
        gq = (dE - (1.0 - 1.0 / n) * (E / V) * dV) / V ** (1.0 - 1.0 / n)
        gq -= np.sum(w * gq) / wsum  # project onto mean-zero directions
        return nodal.project(gq)

    if f0 is None:
        f = np.zeros(len(grid.nodes))
    else:
        f = nodal.project(np.asarray(f0, dtype=float))
    f -= np.sum(w * f) / wsum
    df, Kdf = partials(f)

    natural = wsum ** (1.0 - 1.0 / n)
    q, terms = energy(f, df, Kdf)
    g = gradient(Kdf, *terms)
    gnorm = float(np.linalg.norm(g))
    trace = [YamabeTrace(0, q, 0.0, gnorm)]
    for it in range(1, max_iters + 1):
        if gnorm <= GTOL:
            break
        d = riesz(g)
        step = natural
        slope = float(g @ d)
        dd, Kdd = partials(d)
        while step > 1e-14:
            f_try = f - step * d
            f_try -= np.sum(w * f_try) / wsum
            df_try = df - step * dd
            Kdf_try = Kdf - step * Kdd
            q_try, terms = energy(f_try, df_try, Kdf_try)
            if q_try <= q - ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no step above the floor lowers the quotient
        f, df, Kdf, q = f_try, df_try, Kdf_try, q_try
        g = gradient(Kdf, *terms)
        gnorm = float(np.linalg.norm(g))
        trace.append(YamabeTrace(it, q, step, gnorm))
        if step * slope <= STALL * (1.0 + abs(q)):
            break
    return DescentResult(q, trace, gnorm <= GTOL)


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
