"""Frame conversions, Wirtinger differentiation, and quadrature."""

from dataclasses import replace

import numpy as np
import pytest

from curvlab.errors import (
    CrossCheckFailed,
    NonFiniteIntegrand,
    NotJInvariant,
    NotPositive,
    StencilOutOfDomain,
)
from curvlab.geometry import (
    NODE_CHUNK,
    DerivativeEngine,
    HermitianMetricField,
    QuadratureGrid,
    UpperHalfFirstDomain,
    hermitian_to_real,
    integrate,
    map_nodes,
    real_to_hermitian,
    standard_complex_structure,
    volume_weights,
    wirtinger,
)
from curvlab.jets import coordinate_jets, squared_radius


# ---------------------------------------------------------------------------
# real <-> Hermitian frame change
# ---------------------------------------------------------------------------


def test_euclidean_gives_half_identity():
    h = real_to_hermitian(np.eye(4))
    assert np.allclose(h, 0.5 * np.eye(2))


def test_linear_scaling():
    h = real_to_hermitian(2.0 * np.eye(4))
    assert np.allclose(h, np.eye(2))


def random_j_invariant_spd(rng, n):
    J = standard_complex_structure(n)
    A = rng.normal(size=(2 * n, 2 * n))
    g = A @ A.T + 2 * n * np.eye(2 * n)
    return 0.5 * (g + J.T @ g @ J)


def test_round_trip_random(rng):
    for _ in range(10):
        g = random_j_invariant_spd(rng, 3)
        h = real_to_hermitian(g)
        assert np.max(np.abs(h - np.conj(h.T))) < 1e-12
        assert np.min(np.linalg.eigvalsh(h)) > 0
        back = hermitian_to_real(h)
        assert np.max(np.abs(back - g)) < 1e-12


def test_not_j_invariant_raises(rng):
    g = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(NotJInvariant):
        real_to_hermitian(g)


def test_negative_definite_raises():
    with pytest.raises(NotPositive):
        real_to_hermitian(-np.eye(4))


def test_bad_complex_structure_rejected():
    with pytest.raises(ValueError):
        real_to_hermitian(np.eye(4), J=np.eye(4))


# ---------------------------------------------------------------------------
# wirtinger derivatives
# ---------------------------------------------------------------------------


def test_ddbar_of_squared_radius(rng):
    z = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    out = wirtinger(lambda p: squared_radius(p), z, order=2)
    n = 2
    mixed = out["second"][..., :n, n:]
    assert np.allclose(mixed, np.eye(n), atol=1e-12)


def test_log_im_squared_coefficient():
    # mixed second derivative of log (Im w)^2 at w = i equals -1/2
    def field(z):
        zs, zbs = coordinate_jets(z)
        imw = (zs[0] - zbs[0]) * (-0.5j)
        return (imw * imw).log()

    z = np.array([[1j]])
    out = wirtinger(field, z, order=2, engine=DerivativeEngine(mode="analytic"))
    assert abs(out["second"][0, 0, 1] - (-0.5)) < 1e-12
    # finite differences agree
    outfd = wirtinger(field, z, order=2, engine=DerivativeEngine(mode="fd", step=1e-3))
    assert abs(outfd["second"][0, 0, 1] - (-0.5)) < 1e-8


def test_fd_matches_analytic_on_polynomial(rng):
    def field(z):
        zs, zbs = coordinate_jets(z)
        return zs[0] ** 3 * zbs[1] + zs[1] * zbs[0] ** 2 * 0.5 + zs[0] * zbs[0]

    z = rng.normal(size=(6, 2)) * 0.5 + 1j * rng.normal(size=(6, 2)) * 0.5
    ana = wirtinger(field, z, order=2, engine=DerivativeEngine(mode="analytic"))
    fd = wirtinger(field, z, order=2, engine=DerivativeEngine(mode="fd", step=1e-3))
    assert np.max(np.abs(ana["holo"] - fd["holo"])) < 1e-8
    assert np.max(np.abs(ana["anti"] - fd["anti"])) < 1e-8
    assert np.max(np.abs(ana["second"] - fd["second"])) < 1e-8


def test_fd_convergence_order(rng):
    def field(z):
        zs, zbs = coordinate_jets(z)
        return ((zs[0] * zbs[0] * 0.3).exp() + (zs[1] + zbs[1]) ** 2 * 0.1).exp()

    z = rng.normal(size=(4, 2)) * 0.3 + 1j * rng.normal(size=(4, 2)) * 0.3
    ana = field(z)
    errs = []
    for h in (0.08, 0.04):
        fd = DerivativeEngine(mode="fd", step=h).scalar_jet(lambda p: field(p).val, z)
        errs.append(max(np.max(np.abs(fd.d1 - ana.d1)), np.max(np.abs(fd.d2 - ana.d2))))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.5  # declared stencil order 4, allow half an order of slack


def test_stencil_out_of_domain():
    dom = UpperHalfFirstDomain()
    eng = DerivativeEngine(mode="fd", step=1e-2)
    z = np.array([[0.005j, 0.0]])
    with pytest.raises(StencilOutOfDomain):
        eng.real_jet(lambda p: np.imag(p[..., 0]) ** 2, z, domain=dom)


def test_crosscheck_failed_on_corrupted_jets(rng):
    def liar(z):
        j = squared_radius(z)
        j.d1 = j.d1 + 1.0  # corrupt the analytic gradient
        return j

    z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    eng = DerivativeEngine(mode="fd", step=1e-3, crosscheck=True, crosscheck_tol=1e-6)
    with pytest.raises(CrossCheckFailed):
        wirtinger(liar, z, order=1, engine=eng)


def test_crosscheck_fails_on_a_nan_in_the_analytic_jet(perturbed_torus, rng):
    metric = perturbed_torus.metric

    def nan_jet(z):
        jet = metric.jet_fn(z)
        jet.d1[0, 0, 0, 0] = np.nan  # one gradient entry at one point
        return jet

    eng = DerivativeEngine(mode="fd", step=1e-3, crosscheck=True)
    bad = HermitianMetricField(metric.n, metric.value_fn, nan_jet, metric.domain, "nan-jet", eng)
    with pytest.raises(CrossCheckFailed):
        bad.jet(perturbed_torus.random_points(rng, 4))


def test_scalar_crosscheck_fails_on_a_nan_in_the_analytic_jet(rng):
    def nan_jet(z):
        jet = squared_radius(z)
        jet.d1[0, 0] = np.nan  # one gradient entry at one point
        return jet

    z = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    with pytest.raises(CrossCheckFailed):
        wirtinger(nan_jet, z, order=1, engine=DerivativeEngine(crosscheck=True))


def test_crosscheck_in_analytic_mode(perturbed_torus, rng):
    metric = perturbed_torus.metric
    pts = perturbed_torus.random_points(rng, 4)
    eng = DerivativeEngine(mode="analytic", step=1e-3, crosscheck=True)
    jet = replace(metric, engine=eng).jet(pts)  # the analytic jet, checked against fd
    assert np.array_equal(jet.d2, metric.jet_fn(pts).d2)

    def shifted_jet(z):
        jet = metric.jet_fn(z)
        jet.d1 = jet.d1 + 1e-2
        return jet

    bad = HermitianMetricField(metric.n, metric.value_fn, shifted_jet, metric.domain, "shifted")
    with pytest.raises(CrossCheckFailed):
        replace(bad, engine=eng).jet(pts)
    with pytest.raises(CrossCheckFailed):
        wirtinger(bad, pts, engine=eng)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_flat_torus_volume(flat_torus):
    vol = integrate(flat_torus.metric, flat_torus.grid, np.ones(len(flat_torus.grid.nodes)))
    # det h = 1, so the volume is 2^n times the unit Euclidean cell
    assert vol == pytest.approx(4.0, abs=1e-12)


def test_hopf_annulus_volume(hopf):
    vol = integrate(hopf.metric, hopf.grid, np.ones(len(hopf.grid.nodes)))
    expected = 8.0 * np.pi**2 * np.log(2.0)
    assert abs(vol - expected) / expected < 1e-4


def test_a_grid_bound_to_another_metric_integrates_its_volume(hopf):
    # the grid holds no metric: each integral weighs by the metric it is
    # given, also after the grid has integrated once: det(3 h) = 9 det(h)
    # for n = 2
    from curvlab.fields import constant_field
    from curvlab.gauduchon import conformal_metric

    ones = np.ones(len(hopf.grid.nodes))
    vol = integrate(hopf.metric, hopf.grid, ones)
    scaled = conformal_metric(hopf.metric, constant_field(np.log(3.0)))
    assert integrate(scaled, hopf.grid, ones) == pytest.approx(9.0 * vol, rel=1e-12)


def test_divergence_theorem_on_torus(flat_torus, rng):
    from curvlab.fields import random_torus_scalar

    f = random_torus_scalar(rng, 2, (1.0, 1.0), amplitude=0.5)
    jets = f(flat_torus.grid.nodes)
    n = 2
    lap = 4.0 * np.real(np.einsum("...ii->...", jets.d2[..., :n, n:]))
    total = integrate(flat_torus.metric, flat_torus.grid, lap)
    assert abs(total) < 1e-10


def test_non_finite_integrand(flat_torus):
    vals = np.ones(len(flat_torus.grid.nodes))
    vals[17] = np.nan
    with pytest.raises(NonFiniteIntegrand) as err:
        integrate(flat_torus.metric, flat_torus.grid, vals)
    assert err.value.node_index == 17


@pytest.mark.parametrize("count", [1, NODE_CHUNK, 2 * NODE_CHUNK + 1])
def test_map_nodes_matches_the_unchunked_evaluation(count, rng):
    z = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    sizes = []

    def fn(pts):
        sizes.append(len(pts))
        r2 = np.sum(np.abs(pts) ** 2, axis=-1)
        return r2, pts[:, :, None] * np.conj(pts)[:, None, :]

    r2, outer = map_nodes(fn, z)
    want_r2, want_outer = fn(z)
    assert max(sizes[:-1]) <= NODE_CHUNK and sum(sizes[:-1]) == count
    assert np.array_equal(r2, want_r2) and np.array_equal(outer, want_outer)
    assert outer.dtype == complex and r2.dtype == float


def test_grid_weights_positive(flat_torus, hopf):
    for entry in (flat_torus, hopf):
        assert np.all(entry.grid.lebesgue_w > 0)
        assert np.all(volume_weights(entry.metric, entry.grid) > 0)


def test_grid_needs_a_node():
    with pytest.raises(ValueError, match="at least one node"):
        QuadratureGrid(np.zeros((0, 2), dtype=complex), np.zeros(0))

