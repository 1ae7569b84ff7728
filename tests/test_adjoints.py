"""The adjoint-operator identity suite: pointwise and weak residuals."""

import numpy as np
import pytest

from curvlab import tensors
from curvlab.adjoints import (
    dbar_star_scalar_omega,
    inner_oneform,
    verify_adjoint_identities,
)
from curvlab.errors import QuadratureUnsupported
from curvlab.fields import constant_field
from curvlab.gauduchon import conformal_metric
from curvlab.geometry import volume_weights
from curvlab.tensors import CxBlocks, _dbar_star_omega_components


def test_constant_factor_reduces_to_scaling(hopf, rng):
    # with f constant, dbar*(f omega) = f dbar* omega exactly
    pts = hopf.random_points(rng, 20)
    cx = CxBlocks(hopf.metric.jet(pts), need_second=False)
    c = 0.83
    cf = constant_field(c)(pts)
    lhs = dbar_star_scalar_omega(cx, cf.val, cf.d1[..., :2])
    theta = _dbar_star_omega_components(cx)
    assert np.max(np.abs(lhs - c * theta)) < 1e-10


def test_suite_torus_flat(flat_torus):
    rep = verify_adjoint_identities(flat_torus, seed=11, triples=5)
    assert rep.max_residual < 1e-6
    assert set(rep.residuals) == {
        "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "weak_p_star", "weak_dbar_star"
    }


def test_suite_torus_kahler(kahler_torus):
    rep = verify_adjoint_identities(kahler_torus, seed=3, triples=3)
    assert rep.max_residual < 1e-6


def test_suite_torus_perturbed(perturbed_torus):
    rep = verify_adjoint_identities(perturbed_torus, seed=5, triples=3)
    assert "c3" not in rep.residuals  # base metric is not Gauduchon
    assert rep.max_residual < 1e-6


def test_suite_hopf(hopf):
    rep = verify_adjoint_identities(hopf, seed=7, triples=5)
    assert rep.max_residual < 1e-5


def test_conformal_coclosure_shift_on_hopf(hopf, rng):
    # dbar*_f omega_f - dbar* omega - (n - 1) i d f vanishes pointwise
    f = hopf.random_scalar(rng, 0.15)
    pts = hopf.random_points(rng, 30)
    cx = CxBlocks(hopf.metric.jet(pts), need_second=False)
    cxf = CxBlocks(conformal_metric(hopf.metric, f).jet(pts), need_second=False)
    fj = f(pts)
    lhs = _dbar_star_omega_components(cxf)
    rhs = _dbar_star_omega_components(cx) + 1j * fj.d1[..., :2]
    assert np.max(np.abs(lhs - rhs)) < 1e-5


def test_weak_adjoint_property_directly(flat_torus, rng):
    # <d* eta, phi> = <eta, d phi> under the spectral torus quadrature
    from curvlab.tensors import p_star_oneform as p_star_of_form

    eta = flat_torus.random_oneform(rng, 0.2)
    phi = flat_torus.random_scalar(rng, 0.2)
    grid = flat_torus.grid
    cx = CxBlocks(flat_torus.metric.jet(grid.nodes), need_second=False)
    w = volume_weights(flat_torus.metric, grid)
    ev, deta = eta.values_and_dbar(grid.nodes)
    pj = phi(grid.nodes)
    lhs = np.sum(w * p_star_of_form(cx, ev, deta) * np.real(pj.val))
    rhs = np.sum(w * inner_oneform(cx.Hinv, ev, pj.d1[..., :2]))
    assert abs(lhs - rhs) / (1 + abs(lhs)) < 1e-6


def test_suite_needs_a_triple(flat_torus):
    with pytest.raises(ValueError):
        verify_adjoint_identities(flat_torus, seed=0, triples=0)


def test_inoue_unsupported(inoue):
    with pytest.raises(QuadratureUnsupported):
        verify_adjoint_identities(inoue, seed=0, triples=1)


def test_key11_vs_divergence_realization(hopf, perturbed_torus, rng):
    # the connection-contraction form of dbar* omega equals the divergence
    # realization of dbar*(u omega) at u = 1
    for entry in (hopf, perturbed_torus):
        pts = entry.random_points(rng, 25)
        cx = CxBlocks(entry.metric.jet(pts), need_second=False)
        one = constant_field(1.0)(pts)
        via_div = dbar_star_scalar_omega(cx, one.val, one.d1[..., : entry.metric.n])
        via_gamma = _dbar_star_omega_components(cx)
        assert np.max(np.abs(via_div - via_gamma)) < 1e-11
