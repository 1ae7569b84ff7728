"""Conformal quotient, descent contract, and the sign verdicts."""

import numpy as np
import pytest

from curvlab import tensors, yamabe
from curvlab.catalog import ManifoldSpec, build_manifold, rng_from_seed
from curvlab.fields import constant_field
from curvlab.gauduchon import conformal_metric
from curvlab.geometry import volume_weights


def test_zero_factor_recovers_scalar(hopf, rng):
    pts = hopf.random_points(rng, 20)
    s0, _ = tensors.riemannian_scalar(hopf.metric, pts)
    s1 = yamabe.conformal_scalar_riemannian(hopf.metric, constant_field(0.0), pts)
    assert np.max(np.abs(s1 - s0)) < 1e-10


def test_constant_factor_scales_scalar(hopf, rng):
    pts = hopf.random_points(rng, 20)
    c = 0.6
    s0, _ = tensors.riemannian_scalar(hopf.metric, pts)
    s1 = yamabe.conformal_scalar_riemannian(hopf.metric, constant_field(c), pts)
    assert np.max(np.abs(s1 - np.exp(-c) * s0)) < 1e-10


@pytest.mark.parametrize("fixture", ["flat_torus", "perturbed_torus", "hopf"])
def test_conformal_law_vs_real_oracle(fixture, request, rng):
    entry = request.getfixturevalue(fixture)
    f = entry.random_scalar(rng, 0.15)
    pts = entry.random_points(rng, 25)
    via_law = yamabe.conformal_scalar_riemannian(entry.metric, f, pts)
    via_oracle = tensors.riemannian_scalar_real_oracle(conformal_metric(entry.metric, f), pts)
    assert np.max(np.abs(via_law - via_oracle)) < 1e-5


def test_flat_quotient_zero(flat_torus):
    assert abs(yamabe.yamabe_quotient(flat_torus.metric, constant_field(0.0), flat_torus.grid)) < 1e-12
    assert abs(yamabe.yamabe_quotient(flat_torus.metric, constant_field(1.3), flat_torus.grid)) < 1e-12


def test_quotient_constant_invariance(flat_torus, rng):
    f = flat_torus.random_scalar(rng, 0.2)
    q1 = yamabe.yamabe_quotient(flat_torus.metric, f, flat_torus.grid)
    q2 = yamabe.yamabe_quotient(flat_torus.metric, f + 0.9, flat_torus.grid)
    assert abs(q1 - q2) < 1e-10 * (1 + abs(q1))


def test_hopf_quotient_cross_pipeline(hopf):
    # independent quadrature of the oracle scalar field
    q = yamabe.yamabe_quotient(hopf.metric, constant_field(0.0), hopf.grid)
    w = volume_weights(hopf.metric, hopf.grid)
    s = tensors.riemannian_scalar_real_oracle(hopf.metric, hopf.grid.nodes)
    expected = float(np.sum(w * s)) / float(np.sum(w)) ** 0.5
    assert abs(q - expected) / abs(expected) < 1e-4


def test_descent_stays_at_critical_point(flat_torus):
    res = yamabe.minimize_quotient(flat_torus.metric, flat_torus.grid, max_iters=30)
    assert res.estimate == pytest.approx(0.0, abs=1e-12)
    assert len(res.trace) == 1  # gradient vanishes immediately


def test_descent_reaches_flat_minimum(flat_torus, rng):
    f0 = np.real(flat_torus.random_scalar(rng, 0.05)(flat_torus.grid.nodes).val)
    res = yamabe.minimize_quotient(
        flat_torus.metric, flat_torus.grid, max_iters=400, f0=f0
    )
    qs = [t.quotient for t in res.trace]
    assert all(qs[i + 1] <= qs[i] + 1e-14 for i in range(len(qs) - 1))
    assert abs(res.estimate) < 1e-6


def test_descent_hopf_monotone(hopf, rng):
    f0 = np.real(hopf.random_scalar(rng, 0.1)(hopf.grid.nodes).val)
    res = yamabe.minimize_quotient(hopf.metric, hopf.grid, max_iters=25, f0=f0)
    qs = [t.quotient for t in res.trace]
    assert all(qs[i + 1] <= qs[i] + 1e-14 for i in range(len(qs) - 1))
    assert res.trace[0].gradient_norm > 1e-6
    assert res.estimate < qs[0]  # strict decrease recorded


def test_step_sizes_positive(flat_torus, rng):
    f0 = np.real(flat_torus.random_scalar(rng, 0.05)(flat_torus.grid.nodes).val)
    res = yamabe.minimize_quotient(flat_torus.metric, flat_torus.grid, max_iters=50, f0=f0)
    assert all(t.step > 0 for t in res.trace[1:])


def test_lambda_verdicts():
    v = yamabe.lambda_c_verdict("positive", True)
    assert "kodaira_dimension = -infinity" in v.statements
    assert "A-hat genus = 0" in v.statements
    v2 = yamabe.lambda_c_verdict("positive", False)
    assert v2.statements == ("kodaira_dimension = -infinity",)
    v3 = yamabe.lambda_c_verdict("nonpositive", True)
    assert v3.statements == ("no conclusion",)


def test_lebrun_trichotomy():
    assert yamabe.lebrun_consistency("positive", -np.inf)
    assert yamabe.lebrun_consistency("zero", 1)
    assert yamabe.lebrun_consistency("zero", 0)
    assert yamabe.lebrun_consistency("negative", 2)
    assert not yamabe.lebrun_consistency("positive", 2)
    assert not yamabe.lebrun_consistency("negative", -np.inf)
    assert not yamabe.lebrun_consistency("zero", 2)
    with pytest.raises(ValueError):
        yamabe.lebrun_consistency("positive", 3)


@pytest.mark.parametrize("mid, grid", [
    ("torus-flat", 8), ("torus-hermitian-perturbed", 12), ("hopf-standard", None),
    ("hopf-conformal", None),
])
def test_descent_quotient_matches_the_conformal_law(mid, grid):
    # the descent's nodal energy against the pointwise conformal law on the
    # same grid: two independent routes to the quotient of e^f g
    entry = build_manifold(ManifoldSpec(mid, resolution=grid, conformal_t=0.1))
    f = entry.random_scalar(rng_from_seed(5), 0.05)
    f0 = np.real(f.values(entry.grid.nodes))
    res = yamabe.minimize_quotient(entry.metric, entry.grid, max_iters=0, f0=f0)
    want = yamabe.yamabe_quotient(entry.metric, f, entry.grid)
    assert abs(res.trace[0].quotient - want) <= 1e-8 * abs(want)
