"""Conformal quotient, descent contract, and the sign verdicts."""

from dataclasses import replace

import numpy as np
import pytest

from curvlab import tensors, yamabe
from curvlab.catalog import ManifoldSpec, build_manifold, rng_from_seed
from curvlab.fields import ScalarField, constant_field
from curvlab.gauduchon import conformal_metric
from curvlab.geometry import (
    NodalDerivatives,
    hermitian_to_real,
    map_nodes,
    volume_weights,
)
from tests.conftest import averaged_operator, nyquist_free


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


@pytest.fixture(scope="module")
def hopf_conformal():
    return build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.2))


@pytest.mark.parametrize(
    "fixture", ["flat_torus", "kahler_torus", "perturbed_torus", "hopf", "hopf_conformal"]
)
def test_conformal_law_vs_real_oracle(fixture, request, rng):
    entry = request.getfixturevalue(fixture)
    f = entry.random_scalar(rng, 0.15)
    pts = entry.random_points(rng, 25)
    via_law = yamabe.conformal_scalar_riemannian(entry.metric, f, pts)
    via_oracle = tensors.riemannian_scalar_real_oracle(conformal_metric(entry.metric, f), pts)
    assert np.max(np.abs(via_law - via_oracle)) < 1e-5


def test_conformal_law_leaves_metric_hessian_pending(perturbed_torus, rng):
    # the law reads the mixed blocks of the metric and of the factor, never
    # a full Hessian of either
    jets, fjets = [], []

    def recording(z):
        jets.append(perturbed_torus.metric.jet_fn(z))
        return jets[-1]

    metric = replace(perturbed_torus.metric, jet_fn=recording)
    base = perturbed_torus.random_scalar(rng, 0.15)
    f = ScalarField(lambda z: fjets.append(base(z)) or fjets[-1], "recorded", base.values)
    yamabe.conformal_scalar_riemannian(metric, f, perturbed_torus.random_points(rng, 10))
    assert jets and all(jet.pending for jet in jets)
    assert fjets and all(jet.pending for jet in fjets)


def test_conformal_law_evaluates_the_metric_jet_once(perturbed_torus, rng):
    # the base scalar curvature is read from the jet the law already holds
    calls = []

    def counted(z):
        calls.append(1)
        return perturbed_torus.metric.jet_fn(z)

    metric = replace(perturbed_torus.metric, jet_fn=counted)
    pts = perturbed_torus.random_points(rng, 10)
    for f in (perturbed_torus.random_scalar(rng, 0.15), constant_field(0.0)):
        calls.clear()
        got = yamabe.conformal_scalar_riemannian(metric, f, pts)
        assert len(calls) == 1
    # with f = 0 the law is the base scalar curvature itself, bit for bit
    assert np.array_equal(got, tensors.riemannian_scalar(perturbed_torus.metric, pts)[0])


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


# Yamabe constant of the standard Hopf class
HOPF_YAMABE = 6.0 * np.sqrt(2.0 * np.pi**2 * np.log(2.0))


@pytest.mark.parametrize("kind, arg", [
    ("alternating", 0.5), ("alternating", 1), ("alternating", 3), ("alternating", 6),
    ("random", 0), ("random", 1), ("random", 2),
])
def test_quotient_is_coercive_on_the_default_hopf_grid(hopf, kind, arg):
    # the Nyquist mode of the even beta axis has zero nodal gradient: without
    # the projection f = 6 (-1)^{j_beta} read 15.6934, near Y / sqrt(2)
    if kind == "alternating":
        f0 = arg * (-1.0) ** np.indices(hopf.grid.axes["shape"])[2].ravel()
    else:
        f0 = np.real(hopf.random_scalar(rng_from_seed(arg), 0.05).values(hopf.grid.nodes))
    res = yamabe.minimize_quotient(hopf.metric, hopf.grid, max_iters=0, f0=f0)
    assert res.estimate >= HOPF_YAMABE * (1.0 - 1e-6)


# every torus descent takes the natural step V^(1 - 1/n) at every
# iteration and ends on GTOL in 4-7 steps
TORUS_STEPS = 7


def _seeded_descent(mid, grid, seed, max_iters=200):
    entry = build_manifold(ManifoldSpec(mid, resolution=grid, seed=seed))
    f0 = np.real(entry.random_scalar(rng_from_seed(seed), 0.05).values(entry.grid.nodes))
    return yamabe.minimize_quotient(entry.metric, entry.grid, max_iters=max_iters, f0=f0)


def test_flat_torus_descents_converge_on_every_seed(flat_torus):
    for seed in range(25):
        f0 = np.real(flat_torus.random_scalar(rng_from_seed(seed), 0.05).values(flat_torus.grid.nodes))
        res = yamabe.minimize_quotient(flat_torus.metric, flat_torus.grid, f0=f0)
        assert res.converged and res.trace[-1].gradient_norm <= yamabe.GTOL, seed
        assert len(res.trace) - 1 <= TORUS_STEPS, seed


@pytest.mark.parametrize("grid", [8, 12])
def test_perturbed_torus_descent_converges(grid):
    res = _seeded_descent("torus-hermitian-perturbed", grid, 11)
    assert res.converged
    assert len(res.trace) - 1 <= TORUS_STEPS


def test_flat_torus_descent_converges_on_the_default_grid():
    res = _seeded_descent("torus-flat", None, 110)
    assert res.converged and res.trace[-1].gradient_norm <= yamabe.GTOL
    assert len(res.trace) - 1 <= TORUS_STEPS


@pytest.mark.parametrize("mid, t", [("hopf-standard", 0.1), ("hopf-conformal", 0.1), ("hopf-conformal", 0.2)],
                         ids=["standard", "t0.1", "t0.2"])
def test_hopf_descents_converge(mid, t):
    # the default descent of the CLI on the class of the standard metric
    entry = build_manifold(ManifoldSpec(mid, conformal_t=t))
    f0 = np.real(entry.random_scalar(rng_from_seed(0), 0.05).values(entry.grid.nodes))
    res = yamabe.minimize_quotient(entry.metric, entry.grid, f0=f0)
    assert res.converged and res.trace[-1].gradient_norm <= yamabe.GTOL
    assert abs(res.estimate - HOPF_YAMABE) <= 1e-12 * HOPF_YAMABE


@pytest.mark.parametrize("exit_, gtol, max_iters", [
    ("budget", 1e-8, 3), ("gtol", 1e-8, 200), ("stall", 1e-13, 200),
])
def test_converged_reads_gtol_at_every_exit(monkeypatch, exit_, gtol, max_iters):
    # the stall case asks for a gradient below its rounding floor (2e-11
    # here): the descent stops on the predicted decrease, unconverged
    monkeypatch.setattr(yamabe, "GTOL", gtol)
    res = _seeded_descent("torus-flat", 8, 1, max_iters)
    assert res.converged == (res.trace[-1].gradient_norm <= yamabe.GTOL)
    assert (len(res.trace) - 1 == max_iters) == (exit_ == "budget")
    assert res.converged == (exit_ == "gtol")


def _riesz_direction(matvec, g):
    """The search direction by conjugate gradients on the averaged
    operator's matvec, for a Nyquist-free g: the route the per-mode solve
    must agree with."""
    d = np.zeros_like(g)
    r = g.copy()
    p = r.copy()
    rr = r @ r
    for _ in range(10 * len(g)):
        if rr <= (1e-15 * np.linalg.norm(g)) ** 2:
            break
        Ap = matvec(p)
        alpha = rr / (p @ Ap)
        d += alpha * p
        r -= alpha * Ap
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return d


def _reference_descent(metric, grid, max_iters, f0):
    """The descent with every Armijo trial and every gradient differentiating
    its own nodal values, the Nyquist projection taken axis by axis and the
    Riesz direction by conjugate gradients: the route the library's
    per-mode direction and linear reuse must follow."""
    n = metric.n
    c = (2 * n - 1) * (2 * n - 2) / 4.0
    w = volume_weights(metric, grid)
    nodal = NodalDerivatives(grid)
    s = map_nodes(lambda pts: tensors.riemannian_scalar(metric, pts)[0], grid.nodes)
    J = nodal.jacobian
    K = np.linalg.inv(np.swapaxes(J, 1, 2) @ hermitian_to_real(metric.value(grid.nodes)) @ J)
    matvec = averaged_operator(nodal, grid.axes, w, w * np.moveaxis(K, 0, -1), 2.0 * c)
    f = nyquist_free(f0, grid.axes)
    f -= np.sum(w * f) / np.sum(w)

    def energy_volume(fv):
        df = nodal(fv)
        grad2 = np.einsum("pab,pa,pb->p", K, df, df)
        E = float(np.sum(w * np.exp((n - 1) * fv) * (s + c * grad2)))
        V = float(np.sum(w * np.exp(n * fv)))
        return E, V, df, grad2

    def quotient(fv):
        E, V, _, _ = energy_volume(fv)
        return E / V ** (1.0 - 1.0 / n)

    def grad_quotient(fv):
        E, V, df, grad2 = energy_volume(fv)
        dE = (n - 1) * w * np.exp((n - 1) * fv) * (s + c * grad2)
        flux = 2.0 * c * (w * np.exp((n - 1) * fv))[:, None] * np.einsum("pab,pb->pa", K, df)
        dE = dE + nodal.adjoint(flux)
        dV = n * w * np.exp(n * fv)
        gq = (dE - (1.0 - 1.0 / n) * (E / V) * dV) / V ** (1.0 - 1.0 / n)
        gq -= np.sum(w * gq) / np.sum(w)
        return E / V ** (1.0 - 1.0 / n), nyquist_free(gq, grid.axes)

    q, g = grad_quotient(f)
    gnorm = float(np.linalg.norm(g))
    trace = [yamabe.YamabeTrace(0, q, 0.0, gnorm)]
    for it in range(1, max_iters + 1):
        if gnorm <= yamabe.GTOL:
            break
        d = _riesz_direction(matvec, g)
        step = np.sum(w) ** (1.0 - 1.0 / n)
        accepted = False
        while step > 1e-14:
            f_try = f - step * d
            f_try -= np.sum(w * f_try) / np.sum(w)
            q_try = quotient(f_try)
            if q_try <= q - yamabe.ARMIJO * step * (g @ d):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        f = f_try
        slope = g @ d
        q, g = grad_quotient(f)
        gnorm = float(np.linalg.norm(g))
        trace.append(yamabe.YamabeTrace(it, q, step, gnorm))
        if step * slope <= yamabe.STALL * (1.0 + abs(q)):
            break
    return yamabe.DescentResult(q, trace, gnorm <= yamabe.GTOL)


def _close(a, b, rel):
    return abs(a - b) <= max(rel * abs(b), 1e-15)


@pytest.mark.parametrize("mid, grid, seed, iters", [
    ("torus-flat", 8, 1, 200), ("torus-flat", 8, 4, 200), ("torus-flat", 8, 7, 200),
    ("torus-flat", 8, 11, 200), ("torus-hermitian-perturbed", 8, 11, 200),
    ("torus-hermitian-perturbed", 12, 11, 200), ("hopf-standard", None, 11, 25),
    ("hopf-conformal", None, 11, 25),
])
def test_descent_reuses_partials_without_moving_the_trace(mid, grid, seed, iters):
    # the trials and the next gradient read their partials by linearity from
    # one differentiation per step; the steps taken must be the reference's,
    # and the quotients may differ only by rounding carried along the trace
    entry = build_manifold(ManifoldSpec(mid, resolution=grid, seed=seed))
    f0 = np.real(entry.random_scalar(rng_from_seed(seed), 0.05).values(entry.grid.nodes))
    got = yamabe.minimize_quotient(entry.metric, entry.grid, max_iters=iters, f0=f0)
    want = _reference_descent(entry.metric, entry.grid, iters, f0)
    assert len(got.trace) == len(want.trace) > 1
    assert [t.step for t in got.trace] == [t.step for t in want.trace]
    assert got.converged == want.converged
    for a, b in zip(got.trace, want.trace):
        assert _close(a.quotient, b.quotient, 1e-9), (a.iteration, a.quotient, b.quotient)
    assert _close(got.estimate, want.estimate, 1e-12)
