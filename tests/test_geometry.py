"""Frame conversions, Wirtinger differentiation, and quadrature."""

from dataclasses import replace

import numpy as np
import pytest

from curvlab.catalog import (
    CATALOG_IDS,
    ManifoldSpec,
    build_manifold,
    hopf_conformal_direction,
    hopf_grid,
    inoue_bundle_metric,
    rng_from_seed,
)
from curvlab.errors import (
    NonFiniteIntegrand,
    NotJInvariant,
    NotPositive,
    StencilOutOfDomain,
)
from curvlab.geometry import (
    NODE_CHUNK,
    DerivativeEngine,
    MetricJet,
    NodalDerivatives,
    QuadratureGrid,
    _barycentric_diff_matrix,
    UpperHalfFirstDomain,
    hermitian_to_real,
    integrate,
    lattice_nodes,
    map_nodes,
    real_to_hermitian,
    standard_complex_structure,
    volume_weights,
)
from curvlab.jets import coordinate_jets, squared_radius
from tests.conftest import averaged_operator, nyquist_free


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
# Wirtinger derivatives
# ---------------------------------------------------------------------------


def test_ddbar_of_squared_radius(rng):
    z = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    n = 2
    mixed = squared_radius(z).d2[..., :n, n:]
    assert np.allclose(mixed, np.eye(n), atol=1e-12)


def test_log_im_squared_coefficient():
    # mixed second derivative of log (Im w)^2 at w = i equals -1/2
    def field(z):
        zs, zbs = coordinate_jets(z)
        imw = (zs[0] - zbs[0]) * (-0.5j)
        return (imw * imw).log()

    z = np.array([[1j]])
    assert abs(field(z).d2[0, 0, 1] - (-0.5)) < 1e-12
    # finite differences agree
    fd = DerivativeEngine(mode="fd", step=1e-3).scalar_jet(lambda p: field(p).val, z)
    assert abs(fd.d2[0, 0, 1] - (-0.5)) < 1e-8


def test_fd_matches_analytic_on_polynomial(rng):
    def field(z):
        zs, zbs = coordinate_jets(z)
        return zs[0] ** 3 * zbs[1] + zs[1] * zbs[0] ** 2 * 0.5 + zs[0] * zbs[0]

    z = rng.normal(size=(6, 2)) * 0.5 + 1j * rng.normal(size=(6, 2)) * 0.5
    ana = field(z)
    fd = DerivativeEngine(mode="fd", step=1e-3).scalar_jet(lambda p: field(p).val, z)
    n = 2
    assert np.max(np.abs(ana.d1[:, :n] - fd.d1[:, :n])) < 1e-8  # holomorphic
    assert np.max(np.abs(ana.d1[:, n:] - fd.d1[:, n:])) < 1e-8  # antiholomorphic
    assert np.max(np.abs(ana.d2 - fd.d2)) < 1e-8


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


def _metric_and_points(which, rng, count):
    if which == "inoue-bundle":
        w = rng.uniform(-1.0, 1.0, size=count) + 1j * rng.uniform(0.5, 2.5, size=count)
        return inoue_bundle_metric(), w[:, None]
    entry = build_manifold(ManifoldSpec(which, resolution=4))
    return entry.metric, entry.random_points(rng, count)


@pytest.mark.parametrize("which", CATALOG_IDS + ("inoue-bundle",))
def test_analytic_and_stencil_metric_jets_agree(which, rng):
    metric, pts = _metric_and_points(which, rng, 20)
    ana = metric.jet(pts)
    fd = replace(metric, engine=DerivativeEngine(mode="fd")).jet(pts)

    def rel(a, b):
        return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))

    assert rel(ana.H, fd.H) <= 1e-14
    assert rel(ana.d1, fd.d1) <= 1e-10
    assert rel(ana.d2, fd.d2) <= 1e-6


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mid", ["torus-flat", "torus-kahler-potential",
                                 "torus-hermitian-perturbed", "hopf-conformal"])
def test_forced_metric_hessians_take_the_mixed_block(mid, rng):
    # a pending metric jet writes its eager block into both mixed slot orders
    # of its forced Hessian, as Jet2 does; the torus table forms each pair of
    # slots once, so those Hessians are exactly symmetric in their two slots
    entry = build_manifold(ManifoldSpec(mid))
    jet = entry.metric.jet(entry.random_points(rng, 7))
    mixed = jet.mixed
    assert jet.pending
    d2 = jet.d2
    assert jet.mixed is mixed
    assert np.array_equal(d2[..., :2, 2:, :, :], mixed)
    assert np.array_equal(d2[..., 2:, :2, :, :], np.swapaxes(mixed, -4, -3))
    if mid.startswith("torus"):
        assert np.array_equal(d2, np.swapaxes(d2, -4, -3))
    # any block given with a pending Hessian is the one it carries
    block = mixed + 1e-3
    forced = MetricJet(jet.H, jet.d1, lambda: d2.copy(), block).d2
    assert np.array_equal(forced[..., :2, 2:, :, :], block)
    assert np.array_equal(forced[..., 2:, :2, :, :], np.swapaxes(block, -4, -3))
    assert np.array_equal(forced[..., :2, :2, :, :], d2[..., :2, :2, :, :])


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


def test_grid_layout_is_checked_at_construction(flat_torus, hopf):
    grid = flat_torus.grid
    with pytest.raises(ValueError, match="unknown grid kind 'sphere'"):
        replace(grid, axes={**grid.axes, "kind": "sphere"})
    with pytest.raises(ValueError, match=r"4096 nodes on a \(8, 8, 8, 9\) grid"):
        replace(grid, axes={**grid.axes, "shape": (8, 8, 8, 9)})
    # one step along x^1 puts node 5 on the lattice node of node 517
    nodes = grid.nodes.copy()
    nodes[5, 0] += 0.125
    with pytest.raises(ValueError, match="node 5 "):
        replace(grid, nodes=nodes)
    assert np.array_equal(lattice_nodes(hopf.grid.axes), hopf.grid.nodes)



# ---------------------------------------------------------------------------
# nodal derivatives
# ---------------------------------------------------------------------------


def _analytic_real_gradient(f, z):
    """(N, 2n) real partials d_x, d_y of a real field from its Wirtinger jet."""
    d1 = f(z).d1
    n = z.shape[-1]
    return np.real(np.concatenate([d1[:, :n] + d1[:, n:], 1j * (d1[:, :n] - d1[:, n:])], axis=-1))


@pytest.mark.parametrize("resolution", [8, 12])
def test_torus_partials_equal_the_analytic_gradient(resolution):
    # the torus chart axes are the real coordinates, and the random field
    # is band-limited below the grid's Nyquist frequency
    entry = build_manifold(ManifoldSpec("torus-hermitian-perturbed", resolution=resolution))
    f = entry.random_scalar(rng_from_seed(3), 0.3)
    nodal = NodalDerivatives(entry.grid)
    want = _analytic_real_gradient(f, entry.grid.nodes)
    got = nodal(np.real(f.values(entry.grid.nodes)))
    assert np.array_equal(nodal.jacobian, np.broadcast_to(np.eye(4), nodal.jacobian.shape))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("nalpha, tol", [(8, 1e-4), (10, 1e-6), (12, 1e-8)])
def test_hopf_partials_converge_spectrally_in_alpha(nalpha, tol):
    # exact on the periodic axes; on the Gauss-Legendre alpha axis the
    # error falls by about two digits per two nodes
    grid = hopf_grid(nalpha=nalpha)
    g = hopf_conformal_direction()
    nodal = NodalDerivatives(grid)
    chart = nodal(np.real(g.values(grid.nodes)))
    # chart partials are J^T times the real gradient
    got = np.linalg.solve(np.swapaxes(nodal.jacobian, 1, 2), chart[..., None])[..., 0]
    want = _analytic_real_gradient(g, grid.nodes)
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("mid", ["torus-flat", "hopf-standard"])
def test_nodal_adjoint_is_the_transpose(mid, rng):
    grid = build_manifold(ManifoldSpec(mid, resolution=6 if mid.startswith("torus") else None)).grid
    nodal = NodalDerivatives(grid)
    v = rng.normal(size=len(grid.nodes))
    F = rng.normal(size=(len(grid.nodes), 4))
    lhs = np.sum(nodal(v) * F)
    assert abs(lhs - np.sum(v * nodal.adjoint(F))) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("mid, resolution", [("torus-hermitian-perturbed", 8), ("hopf-standard", None)])
def test_nodal_partials_are_linear_and_annihilate_constants(mid, resolution):
    # the descent reads a trial's partials as df - step dg and drops the
    # constant of its mean projection; on Hopf the barycentric alpha matrix
    # must kill constants as the Fourier ones do
    grid = build_manifold(ManifoldSpec(mid, resolution=resolution)).grid
    nodal = NodalDerivatives(grid)
    scale = max(np.max(np.abs(D)) for D in nodal.D)
    assert np.max(np.abs(nodal(np.ones(len(grid.nodes))))) <= 1e-13 * scale
    rng = rng_from_seed(3)
    a, b = rng.normal(size=(2, len(grid.nodes)))
    t = 0.37
    want = nodal(a) - t * nodal(b)
    got = nodal(a - t * b - 0.9)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kappa", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("mid, resolution", [
    ("torus-hermitian-perturbed", 8), ("torus-flat", 7), ("hopf-standard", None),
])
def test_sobolev_inverts_the_kronecker_sum(mid, resolution, kappa):
    # with unit coefficients the Riesz map is Pi (I + kappa sum D^T D)^-1:
    # d read back through the partials and their adjoint, against the
    # projection taken axis by axis
    grid = build_manifold(ManifoldSpec(mid, resolution=resolution)).grid
    nodal = NodalDerivatives(grid)
    dim, N = len(nodal.shape), len(grid.nodes)
    unit = np.broadcast_to(np.eye(dim)[..., None], (dim, dim, N))
    g = rng_from_seed(5).normal(size=N)
    d = nodal.riesz(np.ones(N), unit, kappa)(g)
    want = nyquist_free(g, grid.axes)
    got = averaged_operator(nodal, grid.axes, np.ones(N), unit, kappa)(d)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mid, resolution", [
    ("torus-hermitian-perturbed", 8), ("torus-flat", 7), ("hopf-standard", None),
    ("hopf-conformal", None),
])
def test_riesz_map_inverts_the_averaged_operator(mid, resolution):
    # the descent's map with the quotient's weights, w and w K averaged
    # along the periodic axes (on the perturbed torus and on hopf-conformal
    # they vary there), read back through the partials and their adjoint
    entry = build_manifold(ManifoldSpec(mid, resolution=resolution, conformal_t=0.2))
    grid, nodal = entry.grid, NodalDerivatives(entry.grid)
    w = volume_weights(entry.metric, grid)
    J = nodal.jacobian
    K = np.linalg.inv(np.swapaxes(J, 1, 2) @ hermitian_to_real(entry.metric.value(grid.nodes)) @ J)
    wK = w * np.moveaxis(K, 0, -1)
    g = rng_from_seed(5).normal(size=len(grid.nodes))
    d = nodal.riesz(w, wK, 3.0)(g)
    want = nyquist_free(g, grid.axes)
    got = averaged_operator(nodal, grid.axes, w, wK, 3.0)(d)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mid, resolution", [
    ("torus-hermitian-perturbed", 8), ("torus-flat", 7), ("hopf-standard", None),
])
def test_sobolev_projection_drops_exactly_the_nyquist_modes(mid, resolution):
    # the projection Pi: idempotent, keeps constants, and removes (-1)^j
    # along each periodic axis of even size, whatever the other axes
    # carry; on an odd torus grid and on the Gauss-Legendre alpha axis the
    # alternating mode is kept
    grid = build_manifold(ManifoldSpec(mid, resolution=resolution)).grid
    nodal = NodalDerivatives(grid)
    shape = nodal.shape
    rng = rng_from_seed(6)
    v = rng.normal(size=len(grid.nodes))
    once = nodal.project(v)
    assert np.max(np.abs(nodal.project(once) - once)) <= 1e-13 * np.max(np.abs(once))
    ones = np.ones(len(grid.nodes))
    assert np.max(np.abs(nodal.project(ones) - ones)) <= 1e-13
    periodic = range(len(shape)) if grid.axes["kind"] == "torus" else (0, 2, 3)
    for a in range(len(shape)):
        other = rng.normal(size=shape).mean(axis=a, keepdims=True)
        mode = ((-1.0) ** np.indices(shape)[a] * other).ravel()
        got = nodal.project(mode)
        if a in periodic and shape[a] % 2 == 0:
            assert np.max(np.abs(got)) <= 1e-13 * np.max(np.abs(mode)), a
        else:
            assert np.max(np.abs(got - nyquist_free(mode, grid.axes))) <= 1e-13 * np.max(np.abs(mode))
            assert np.max(np.abs(got)) >= 0.1 * np.max(np.abs(mode)), a


def _barycentric_loop(x):
    """The elementwise reference for the vectorised matrix."""
    N = len(x)
    c = [np.prod(x[j] - np.delete(x, j)) for j in range(N)]
    D = np.zeros((N, N))
    for i in range(N):
        for j in range(N):
            if i != j:
                D[i, j] = (c[i] / c[j]) / (x[i] - x[j])
    D[np.diag_indices(N)] = -np.sum(D, axis=1)
    return D


@pytest.mark.parametrize("N", [4, 8, 12])
def test_barycentric_matrix_is_exact_on_polynomials(N):
    x = (np.polynomial.legendre.leggauss(N)[0] + 1.0) * (np.pi / 4.0)
    D = _barycentric_diff_matrix(x)
    assert np.max(np.abs(D - _barycentric_loop(x))) <= 1e-14 * np.max(np.abs(D))
    for k in range(N):
        want = k * x ** (k - 1) if k else np.zeros(N)
        assert np.max(np.abs(D @ x**k - want)) <= 1e-10


def test_nodal_derivatives_need_grid_axes(flat_torus):
    with pytest.raises(ValueError, match="structured-axes"):
        NodalDerivatives(replace(flat_torus.grid, axes=None))
