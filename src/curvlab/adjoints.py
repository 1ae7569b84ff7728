"""Closed-form adjoint operators and their identity suite.

The formal adjoints of d and dbar on low-degree forms are realized as
divergence expressions; their defining integration-by-parts property is
checked weakly under quadrature, and eight pointwise identities relating
them across conformal changes are checked with closed forms on randomized
smooth fields.  Residuals are normalized by 1 + |dominant term|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .errors import QuadratureUnsupported
from .gauduchon import conformal_metric
from .geometry import QuadratureGrid, volume_weights
from .tensors import (
    CxBlocks,
    _dbar_star_omega_components,
    _dbar_star_omega_dbar,
    grad_norm_sq,
    laplacian_d,
    p_star_oneform,
    trace_i_ddbar,
)


# ---------------------------------------------------------------------------
# pointwise ingredients
# ---------------------------------------------------------------------------


def inner_oneform(Hinv, a, b):
    """<a, b> for (1, 0)-forms: sum a_i conj(b_j) Hinv[j, i]."""
    return np.einsum("...i,...j,...ji->...", a, np.conj(b), Hinv)


def inner_11(Hinv, B, C):
    """<B, C> for (1, 1)-coefficient matrices (plain dz^i ^ dzbar^j)."""
    return np.einsum("...ij,...kl,...ki,...jl->...", B, np.conj(C), Hinv, Hinv)


def dbar_star_scalar_omega(cx: CxBlocks, u, du_holo):
    """dbar*(u omega) componentwise from the divergence closed form.

    u is the scalar multiplier, du_holo[..., l] = d_l u.  Realizes
    theta = H psi with psi_k = (i / det h) d_l (u Hinv[k, l] det h).
    """
    Hinv, d1H = cx.Hinv, cx.d1H
    n = cx.n
    dHinv_holo = -np.einsum("...ab,...lbc,...cd->...lad", Hinv, d1H[..., :n, :, :], Hinv)
    dlogdet_holo = np.einsum("...ab,...lba->...l", Hinv, d1H[..., :n, :, :])
    psi = 1j * (
        np.einsum("...l,...kl->...k", du_holo, Hinv)
        + u[..., None] * np.einsum("...lkl->...k", dHinv_holo)
        + u[..., None] * np.einsum("...kl,...l->...k", Hinv, dlogdet_holo)
    )
    return np.einsum("...ik,...k->...i", cx.H, psi)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass
class AdjointReport:
    """Max normalized residual per identity over the sampled triples."""

    manifold: str
    seed: int
    triples: int
    residuals: Dict[str, float]

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))


def _rel(lhs, rhs):
    num = np.max(np.abs(lhs - rhs))
    den = 1.0 + max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(num / den)


POINTS_PER_TRIPLE = 40  # random chart points per triple for the pointwise identities
AMPLITUDE = 0.1  # amplitude of the random fields f, eta and phi


def _accumulate(res: Dict[str, float], key: str, value) -> None:
    """Running maximum that keeps a NaN (Python's max would drop it)."""
    res[key] = float(np.maximum(res[key], value))


def verify_adjoint_identities(
    entry,
    seed: int = 0,
    triples: int = 20,
) -> AdjointReport:
    """Pointwise and weak residuals of the eight adjoint identities.

    For each seeded triple (f, eta, phi) the closed-form identities are
    evaluated at random chart points, and the two defining adjoint
    properties are integrated over the quadrature grid.
    """
    if triples < 1:
        raise ValueError(f"the adjoint suite needs at least one triple, got {triples}")
    if entry.grid is None:
        raise QuadratureUnsupported(f"{entry.spec.id} supports pointwise evaluation only")
    from .catalog import rng_from_seed  # local import; catalog pulls fields too

    rng = rng_from_seed(seed)
    metric = entry.metric
    grid = entry.grid
    res: Dict[str, float] = {k: 0.0 for k in
                             ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8",
                              "weak_p_star", "weak_dbar_star"]}

    cx_nodes = CxBlocks(metric.jet(grid.nodes), need_second=False)
    w = volume_weights(metric, grid)
    for _ in range(triples):
        f = entry.random_scalar(rng, AMPLITUDE)
        eta = entry.random_oneform(rng, AMPLITUDE)
        phi = entry.random_scalar(rng, AMPLITUDE)
        pts = entry.random_points(rng, POINTS_PER_TRIPLE)
        _pointwise_identities(
            metric, f, eta, pts, res, gauduchon_base=entry.gauduchon_by_construction
        )
        _weak_identities(grid, w, f, eta, phi, res, cx_nodes)
    if not entry.gauduchon_by_construction:
        res.pop("c3")  # specialization only applies to a Gauduchon base
    return AdjointReport(entry.spec.id, seed, triples, res)


def _pointwise_identities(metric, f, eta, pts, res, gauduchon_base=False):
    n = metric.n
    cx = CxBlocks(metric.jet(pts))
    fj = f(pts)
    fval = np.real(fj.val)
    df_holo = fj.d1[..., :n]

    theta = _dbar_star_omega_components(cx)  # dbar* omega
    dtheta = _dbar_star_omega_dbar(cx)

    # (c1)  dbar*(f omega) = f dbar* omega + i d f
    lhs = dbar_star_scalar_omega(cx, fval.astype(complex), df_holo)
    rhs = fval[..., None] * theta + 1j * df_holo
    _accumulate(res, "c1", _rel(lhs, rhs))

    # (c2)  <dbar dbar* omega, omega> = |dbar* omega|^2 - i d* dbar* omega
    C = -np.einsum("...li->...il", dtheta)  # coefficients of dbar(theta)
    lhs2 = inner_11(cx.Hinv, C, 1j * cx.H)
    adj = np.real(cx.adjoint_term())
    rhs2 = inner_oneform(cx.Hinv, theta, theta) - adj
    _accumulate(res, "c2", _rel(lhs2, rhs2))

    # conformal metric and blocks
    metric_f = conformal_metric(metric, f)
    cxf = CxBlocks(metric_f.jet(pts))

    # (c4)  dbar*_f omega_f = dbar* omega + (n - 1) i d f
    theta_f = _dbar_star_omega_components(cxf)
    rhs4 = theta + (n - 1) * 1j * df_holo
    _accumulate(res, "c4", _rel(theta_f, rhs4))

    # (c5)  d*(f eta) = f d* eta - <eta, d f>
    ev, deta = eta.values_and_dbar(pts)
    feta = fval[..., None] * ev
    dfeta = fval[..., None, None] * deta + np.einsum("...j,...i->...ji", fj.d1[..., n:], ev)
    lhs5 = p_star_oneform(cx, feta, dfeta)
    rhs5 = fval * p_star_oneform(cx, ev, deta) - inner_oneform(cx.Hinv, ev, df_holo)
    _accumulate(res, "c5", _rel(lhs5, rhs5))

    # (c6)  i d*_f dbar*_f omega_f
    #       = e^-f (i d* dbar* omega - (n-1)(Delta_d f + tr i d dbar f)
    #               + (n-1)^2 |d f|^2)
    adj_f = np.real(cxf.adjoint_term())
    lap = laplacian_d(cx, fj)
    trf = np.real(trace_i_ddbar(cx.Hinv, fj))
    g2 = np.real(grad_norm_sq(cx.Hinv, fj))
    rhs6 = np.exp(-fval) * (adj - (n - 1) * (lap + trf) + (n - 1) ** 2 * g2)
    _accumulate(res, "c6", _rel(adj_f, rhs6))

    # (c7)  d*_f eta = e^-f (d* eta - (n - 1) <eta, d f>)
    lhs7 = p_star_oneform(cxf, ev, deta)
    rhs7 = np.exp(-fval) * (
        p_star_oneform(cx, ev, deta) - (n - 1) * inner_oneform(cx.Hinv, ev, df_holo)
    )
    _accumulate(res, "c7", _rel(lhs7, rhs7))

    # (c8)  i <dbar* omega, d f> = dbar* dbar f + tr_omega i d dbar f
    lhs8 = 1j * inner_oneform(cx.Hinv, theta, df_holo)
    ddf_anti = np.swapaxes(fj.mixed, -1, -2)  # [..., j, i] = d_jbar d_i f
    dbar_star_dbar_f = np.conj(p_star_oneform(cx, df_holo, ddf_anti))
    rhs8 = dbar_star_dbar_f + trace_i_ddbar(cx.Hinv, fj)
    _accumulate(res, "c8", _rel(lhs8, rhs8))

    # (c3)  Gauduchon specialization of (c2): the adjoint term drops out
    if gauduchon_base:
        _accumulate(res, "c3", _rel(lhs2, inner_oneform(cx.Hinv, theta, theta)))


def _weak_identities(grid: QuadratureGrid, w, f, eta, phi, res, cx: CxBlocks):
    """The two defining adjoint properties, integrated with volume weights w."""
    nodes = grid.nodes
    n = cx.n
    H = cx.H

    fj = f(nodes)
    pj = phi(nodes)
    fval, pval = np.real(fj.val), np.real(pj.val)
    ev, deta = eta.values_and_dbar(nodes)

    # <d* eta, phi> = <eta, d phi>
    lhs = np.sum(w * p_star_oneform(cx, ev, deta) * pval)
    rhs = np.sum(w * inner_oneform(cx.Hinv, ev, pj.d1[..., :n]))
    _accumulate(res, "weak_p_star", abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))

    # <dbar*(f omega), eta> = <f omega, dbar eta>
    theta_f = dbar_star_scalar_omega(cx, fval.astype(complex), fj.d1[..., :n])
    lhs2 = np.sum(w * inner_oneform(cx.Hinv, theta_f, ev))
    C = -np.einsum("...li->...il", deta)  # dbar(eta) coefficients
    rhs2 = np.sum(w * fval * inner_11(cx.Hinv, 1j * H, C))
    _accumulate(res, "weak_dbar_star", abs(lhs2 - rhs2) / (1.0 + max(abs(lhs2), abs(rhs2))))
