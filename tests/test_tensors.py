"""Pointwise tensor calculus: closed forms, oracles, and the scalar identity."""

from dataclasses import replace

import numpy as np
import pytest

from curvlab import tensors
from curvlab.catalog import CATALOG_IDS, ManifoldSpec, build_manifold
from curvlab.errors import CrossCheckFailed
from curvlab.fields import constant_field
from curvlab.gauduchon import conformal_metric
from tests.conftest import hopf_points


def annulus_points(rng, count):
    return hopf_points(rng, count)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------


def test_flat_christoffel_zero(flat_torus, rng):
    pts = flat_torus.random_points(rng, 10)
    block = tensors.christoffel(flat_torus.metric, pts)
    assert np.max(np.abs(block.components)) < 1e-14


def test_kahler_mixed_symbol_vanishes(kahler_torus, rng):
    pts = kahler_torus.random_points(rng, 20)
    block = tensors.christoffel(kahler_torus.metric, pts)
    n = 2
    mixed = block.components[..., :n, n:, :n]  # Gamma^k_{ibar j}
    assert np.max(np.abs(mixed)) < 1e-8


def test_hopf_christoffel_closed_form(hopf, rng):
    pts = annulus_points(rng, 25)
    block = tensors.christoffel(hopf.metric, pts)
    n = 2
    r2 = np.sum(np.abs(pts) ** 2, axis=-1)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                expected = -0.5 * (
                    (k == i) * np.conj(pts[:, j]) + (k == j) * np.conj(pts[:, i])
                ) / r2
                got = block.components[:, k, i, j]
                assert np.max(np.abs(got - expected)) < 1e-12
                # the mixed block of this non-Kahler metric, Gamma^k_{i jbar},
                # and its conjugate Gamma^kbar_{ibar j}
                mixed = ((i == j) * pts[:, k] - (i == k) * pts[:, j]) / (2.0 * r2)
                assert np.max(np.abs(block.components[:, k, i, n + j] - mixed)) < 1e-12
                assert np.max(np.abs(block.components[:, n + k, n + i, j] - np.conj(mixed))) < 1e-12


def test_forbidden_slots_zero(perturbed_torus, rng):
    pts = perturbed_torus.random_points(rng, 10)
    block = tensors.christoffel(perturbed_torus.metric, pts)
    n = 2
    assert np.max(np.abs(block.components[..., :n, n:, n:])) == 0.0
    assert np.max(np.abs(block.components[..., n:, :n, :n])) == 0.0


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def test_kahler_torsion_vanishes(kahler_torus, rng):
    pts = kahler_torus.random_points(rng, 30)
    _, nsq = tensors.torsion(kahler_torus.metric, pts)
    assert np.max(np.abs(nsq)) < 1e-10


def test_hopf_torsion_norm(hopf, rng):
    pts = annulus_points(rng, 30)
    block, nsq = tensors.torsion(hopf.metric, pts)
    assert np.max(np.abs(nsq - 2.0)) < 1e-12
    # closed form at z = (1, 0)
    z0 = np.array([[1.0 + 0j, 0.0 + 0j]])
    block0, nsq0 = tensors.torsion(hopf.metric, z0)
    assert abs(block0.components[0, 1, 0, 1] + 1.0) < 1e-13
    assert abs(nsq0[0] - 2.0) < 1e-13


def test_torsion_antisymmetry(perturbed_torus, rng):
    pts = perturbed_torus.random_points(rng, 15)
    block, nsq = tensors.torsion(perturbed_torus.metric, pts)
    swap = np.einsum("...kij->...kji", block.components)
    assert np.max(np.abs(block.components + swap)) < 1e-12
    assert np.max(nsq) > 1e-3  # the perturbed catalog metric is genuinely non-Kahler


def test_torsion_conformal_covariance(perturbed_torus, rng):
    pts = perturbed_torus.random_points(rng, 15)
    c = 1.7
    scaled = conformal_metric(perturbed_torus.metric, constant_field(np.log(c)))
    b1, n1 = tensors.torsion(perturbed_torus.metric, pts)
    b2, n2 = tensors.torsion(scaled, pts)
    assert np.max(np.abs(b1.components - b2.components)) < 1e-10
    assert np.max(np.abs(n2 - n1 / c)) < 1e-10


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_flat_curvature_zero(flat_torus, rng):
    pts = flat_torus.random_points(rng, 5)
    block = tensors.curvature_complexified(flat_torus.metric, pts)
    assert np.max(np.abs(block.components)) < 1e-13


def test_curvature_hermitian_symmetry(hopf, rng):
    pts = annulus_points(rng, 10)
    cx = tensors.CxBlocks(hopf.metric.jet(pts))
    assert cx.hermitian_symmetry_residual() < 1e-10


@pytest.mark.parametrize(
    "spec",
    [ManifoldSpec(mid, resolution=4) for mid in CATALOG_IDS]
    + [ManifoldSpec("torus-hermitian-perturbed", dim=3, resolution=4)],
    ids=lambda spec: spec.id if spec.dim == 2 else f"{spec.id}-dim{spec.dim}",
)
def test_curvature_blocks_are_slices_of_the_all_letters_tensor(spec, rng):
    # the all-letters tensor comes from the real oracle, which shares no
    # intermediate code with the Hermitian blocks
    entry = build_manifold(spec)
    pts = entry.random_points(rng, 40)
    n = entry.metric.n
    R = tensors.curvature_complexified(entry.metric, pts).components
    cx = tensors.CxBlocks(entry.metric.jet(pts))
    gap = np.max(np.abs(cx.curvature_hermitian() - R[..., :n, n:, :n, n:]))
    assert gap <= 1e-13 * (1.0 + np.max(np.abs(R)))
    # the symmetry tolerance scales with the block it checks: never looser
    # than when it scaled with the whole tensor
    assert cx.hermitian_symmetry_scale() <= 1.0 + np.max(np.abs(R))


def test_symmetry_check_fails_on_a_nan(perturbed_torus, rng):
    jet = perturbed_torus.metric.jet(perturbed_torus.random_points(rng, 5))
    jet.mixed[0, 0, 0, 0, 0] = np.nan  # d_1 d_1bar h_{1 1bar}, one point
    with pytest.raises(CrossCheckFailed):
        tensors.scalar_and_torsion_from_jet(jet)


@pytest.mark.parametrize("mid", ["hopf-conformal", "torus-hermitian-perturbed"])
def test_riemannian_scalar_leaves_the_hessian_pending(mid, rng):
    entry = build_manifold(ManifoldSpec(mid, conformal_t=0.2, resolution=4))
    pts = entry.random_points(rng, 30)
    jets = []

    def recorded(z):
        jets.append(entry.metric.jet_fn(z))
        return jets[-1]

    metric = replace(entry.metric, jet_fn=recorded)
    tensors.scalar_and_torsion_from_jet(metric.jet(pts))
    tensors.riemannian_scalar(metric, pts)
    tensors.scalar_identity_residual(metric, pts)
    assert len(jets) == 3 and all(jet.pending for jet in jets)


# ---------------------------------------------------------------------------
# Chern Ricci and scalar curvatures
# ---------------------------------------------------------------------------


def test_flat_chern_zero(flat_torus, rng):
    pts = flat_torus.random_points(rng, 10)
    ric, s_c = tensors.chern_ricci(flat_torus.metric, pts)
    assert np.max(np.abs(ric)) < 1e-13
    assert np.max(np.abs(s_c)) < 1e-13


def test_hopf_chern_scalar_is_two(hopf, rng):
    pts = annulus_points(rng, 40)
    ric, s_c = tensors.chern_ricci(hopf.metric, pts)
    assert np.max(np.abs(s_c - 2.0)) < 1e-11
    # closed form of the Ricci form
    r2 = np.sum(np.abs(pts) ** 2, axis=-1)
    for i in range(2):
        for j in range(2):
            expected = 2.0 * ((i == j) * r2 - np.conj(pts[:, i]) * pts[:, j]) / r2**2
            assert np.max(np.abs(ric[:, i, j] - expected)) < 1e-11


def test_second_derivative_block_is_built_on_first_use(perturbed_torus, rng):
    jet = perturbed_torus.metric.jet(perturbed_torus.random_points(rng, 20))
    cx = tensors.CxBlocks(jet)
    ricci, s_c = cx.chern_ricci()
    ricci_jet, s_c_jet = tensors.chern_ricci_from_jet(jet)
    assert np.array_equal(ricci, ricci_jet) and np.array_equal(s_c, s_c_jet)
    again_ricci, again_s_c = cx.chern_ricci()
    assert np.array_equal(again_ricci, ricci) and np.array_equal(again_s_c, s_c)


def test_inoue_bundle_curvature_coefficient(rng):
    from curvlab.catalog import inoue_bundle_metric

    bundle = inoue_bundle_metric()
    w = rng.uniform(-1, 1, size=30) + 1j * rng.uniform(0.5, 2.5, size=30)
    ric, _ = tensors.chern_ricci(bundle, w[:, None])
    dual_coeff = -np.real(ric[:, 0, 0])
    assert np.max(np.abs(dual_coeff + 1.0 / (2.0 * np.imag(w) ** 2))) < 1e-10


def test_flat_scalar_zero(flat_torus, rng):
    pts = flat_torus.random_points(rng, 10)
    s, im = tensors.riemannian_scalar(flat_torus.metric, pts)
    assert np.max(np.abs(s)) < 1e-12 and im < 1e-12


def test_kahler_scalar_twice_chern(kahler_torus, rng):
    pts = kahler_torus.random_points(rng, 40)
    s, _ = tensors.riemannian_scalar(kahler_torus.metric, pts)
    _, s_c = tensors.chern_ricci(kahler_torus.metric, pts)
    assert np.max(np.abs(s - 2.0 * s_c)) < 1e-6


@pytest.mark.parametrize("fixture", ["hopf", "perturbed_torus", "kahler_torus", "inoue"])
def test_two_oracle_scalar(fixture, request, rng):
    entry = request.getfixturevalue(fixture)
    pts = entry.random_points(rng, 100)
    s, _ = tensors.riemannian_scalar(entry.metric, pts)
    oracle = tensors.riemannian_scalar_real_oracle(entry.metric, pts)
    assert np.max(np.abs(s - oracle)) < 1e-6


def test_hopf_scalar_is_three(hopf, rng):
    # round S^3 of radius sqrt(2) times a flat circle
    pts = annulus_points(rng, 30)
    s, _ = tensors.riemannian_scalar(hopf.metric, pts)
    assert np.max(np.abs(s - 3.0)) < 1e-11


# ---------------------------------------------------------------------------
# Ricci in real directions
# ---------------------------------------------------------------------------


def test_ricci_flat_zero(flat_torus, rng):
    X, Y = rng.normal(size=4), rng.normal(size=4)
    pts = flat_torus.random_points(rng, 5)
    assert np.max(np.abs(tensors.riemannian_ricci(flat_torus.metric, pts, X, Y))) < 1e-13


def test_ricci_symmetry(perturbed_torus, rng):
    pts = perturbed_torus.random_points(rng, 8)
    for _ in range(5):
        X, Y = rng.normal(size=4), rng.normal(size=4)
        a = tensors.riemannian_ricci(perturbed_torus.metric, pts, X, Y)
        b = tensors.riemannian_ricci(perturbed_torus.metric, pts, Y, X)
        assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# adjoint-type operators and the scalar identity
# ---------------------------------------------------------------------------


def test_dbar_star_omega_closed_form(hopf, flat_torus, kahler_torus, rng):
    pts = annulus_points(rng, 20)
    block = tensors.dbar_star_omega(hopf.metric, pts)
    r2 = np.sum(np.abs(pts) ** 2, axis=-1)
    expected = -1j * np.conj(pts) / r2[:, None]  # -(n-1) i zbar_i / |z|^2
    assert np.max(np.abs(block.components - expected)) < 1e-12

    for entry in (flat_torus, kahler_torus):
        p2 = entry.random_points(rng, 10)
        b2 = tensors.dbar_star_omega(entry.metric, p2)
        assert np.max(np.abs(b2.components)) < 1e-8


def test_scalar_identity_flat_exact(flat_torus, rng):
    pts = flat_torus.random_points(rng, 20)
    rep = tensors.scalar_identity_residual(flat_torus.metric, pts)
    assert np.max(np.abs(rep.identity_residual)) == 0.0


def test_scalar_identity_kahler(kahler_torus, rng):
    pts = kahler_torus.random_points(rng, 100)
    rep = tensors.scalar_identity_residual(kahler_torus.metric, pts)
    assert np.max(np.abs(rep.identity_residual)) < 1e-6
    assert np.max(np.abs(rep.adjoint_term)) < 1e-8
    assert np.max(rep.torsion_norm_sq) < 1e-10


@pytest.mark.parametrize("fixture", ["hopf", "inoue", "perturbed_torus"])
def test_scalar_identity_general(fixture, request, rng):
    entry = request.getfixturevalue(fixture)
    pts = entry.random_points(rng, 1000)
    rep = tensors.scalar_identity_residual(entry.metric, pts)
    rel = np.abs(rep.identity_residual) / (1.0 + np.abs(rep.s))
    assert np.max(rel) < 1e-6
    assert rep.imag_defect < 1e-10
    assert np.min(rep.torsion_norm_sq) > -1e-12


@pytest.mark.parametrize(
    "spec",
    [ManifoldSpec(mid, resolution=4) for mid in CATALOG_IDS]
    + [ManifoldSpec("torus-hermitian-perturbed", dim=3, resolution=4)],
    ids=lambda spec: f"{spec.id}-dim{spec.dim}",
)
def test_routes_agree_to_round_off(spec, rng):
    # the 1e-6 gates above would not see a rewrite that loses digits
    entry = build_manifold(spec)
    pts = entry.random_points(rng, 300)
    rep = tensors.scalar_identity_residual(entry.metric, pts)
    oracle = tensors.riemannian_scalar_real_oracle(entry.metric, pts)
    scale = 1.0 + np.abs(rep.s)
    assert np.all(np.abs(rep.s - oracle) <= 1e-12 * scale)
    assert np.all(np.abs(rep.identity_residual) <= 1e-12 * scale)
    n = entry.metric.n
    R = tensors.curvature_complexified(entry.metric, pts).components
    block = tensors.CxBlocks(entry.metric.jet(pts)).curvature_hermitian()
    gap = np.max(np.abs(block - R[..., :n, n:, :n, n:]))
    assert gap <= 1e-13 * (1.0 + np.max(np.abs(R)))


def test_hopf_identity_budget(hopf, rng):
    # s = 3, s_C = 2, |T|^2 = 2, adjoint term 0: 3 = 4 - 0 - 1
    pts = annulus_points(rng, 50)
    rep = tensors.scalar_identity_residual(hopf.metric, pts)
    assert np.max(np.abs(rep.s - 3.0)) < 1e-11
    assert np.max(np.abs(rep.s_c - 2.0)) < 1e-11
    assert np.max(np.abs(rep.torsion_norm_sq - 2.0)) < 1e-11
    assert np.max(np.abs(rep.adjoint_term)) < 1e-11


def test_singular_metric_raises(flat_torus):
    from curvlab.errors import SingularMetric
    from curvlab.geometry import HermitianMetricField, MetricJet

    def bad_value(z):
        H = np.zeros(z.shape[:-1] + (2, 2), dtype=complex)
        H[..., 0, 0] = 1.0  # rank deficient
        return H

    def bad_jet(z):
        H = bad_value(z)
        b = z.shape[:-1]
        return MetricJet(H, np.zeros(b + (4, 2, 2), complex), np.zeros(b + (4, 4, 2, 2), complex))

    bad = HermitianMetricField(2, bad_value, bad_jet, name="degenerate")
    with pytest.raises(SingularMetric):
        tensors.christoffel(bad, np.zeros((1, 2), dtype=complex))
