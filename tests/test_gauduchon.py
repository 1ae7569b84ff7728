"""Conformal changes, the Gauduchon solver, totals, and verdicts."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curvlab import tensors
from curvlab.catalog import (
    HopfBasis,
    ManifoldSpec,
    _hopf_basis_spec,
    build_manifold,
    hopf_conformal_direction,
    rng_from_seed,
)
from curvlab.errors import NoPositiveNullVector, NonConvergence, NonFiniteIntegrand, NotGauduchon
from curvlab.fields import (
    ScalarField,
    constant_field,
    hopf_monomial,
    hopf_radial_frequency,
    hopf_radial_mode,
)
from curvlab.gauduchon import (
    ConformalFactor,
    KodairaStatement,
    Verdict,
    apply_gauduchon_operator,
    classify,
    compose_conformal_jet,
    conformal_metric,
    galerkin_matrices,
    gauduchon_operator_coefficients,
    gauduchon_residual,
    lift_radial_modes,
    solve_gauduchon,
    theorem_t_check,
    total_chern_scalar,
)
from curvlab.geometry import NODE_CHUNK, DerivativeEngine, map_nodes, volume_weights
from curvlab.jets import Jet2, MixedJet
from tests.conftest import hopf_points


def planted_direction():
    return ScalarField(
        lambda z: (hopf_radial_mode(1)(z) * hopf_monomial((1, 0), (0, 1))(z)).real() * 2.0
    )


# ---------------------------------------------------------------------------
# conformal_metric
# ---------------------------------------------------------------------------


def test_zero_factor_identity(hopf, rng):
    pts = hopf.random_points(rng, 10)
    m = conformal_metric(hopf.metric, constant_field(0.0))
    assert np.max(np.abs(m.value(pts) - hopf.metric.value(pts))) < 1e-15
    j1, j2 = m.jet(pts), hopf.metric.jet(pts)
    assert np.max(np.abs(j1.d2 - j2.d2)) < 1e-15


def test_conformal_metric_keeps_the_derivative_route(hopf, rng):
    fd_metric = replace(hopf.metric, engine=DerivativeEngine(mode="fd"))
    m_fd = conformal_metric(fd_metric, constant_field(0.3))
    m_ana = conformal_metric(hopf.metric, constant_field(0.3))
    assert m_fd.engine is fd_metric.engine
    assert m_ana.engine.mode == "analytic"
    pts = hopf.random_points(rng, 5)
    j_fd, j_ana = m_fd.jet(pts), m_ana.jet(pts)
    assert not np.array_equal(j_fd.d2, j_ana.d2)  # the stencil, not the composed closures
    assert np.max(np.abs(j_fd.d2 - j_ana.d2)) < 1e-5


def test_constant_factor_scales_determinant(kahler_torus, rng):
    pts = kahler_torus.random_points(rng, 10)
    c = 0.42
    m = conformal_metric(kahler_torus.metric, constant_field(c))
    n = 2
    det0 = np.linalg.det(kahler_torus.metric.value(pts))
    det1 = np.linalg.det(m.value(pts))
    assert np.max(np.abs(det1 - np.exp(n * c) * det0)) < 1e-12
    ric0, sc0 = tensors.chern_ricci(kahler_torus.metric, pts)
    ric1, _ = tensors.chern_ricci(m, pts)
    assert np.max(np.abs(ric1 - ric0)) < 1e-10  # log det shifts by a constant


def test_conformal_scalar_recompute(flat_torus, rng):
    # s_C of e^f h via composed jets vs a from-scratch entry construction
    f = flat_torus.random_scalar(rng, 0.2)
    pts = flat_torus.random_points(rng, 20)
    composed = conformal_metric(flat_torus.metric, f)

    from curvlab.geometry import HermitianMetricField, metric_jet_from_entries

    def fresh_jet(z):
        u = f(z).exp()
        zero = Jet2.constant(2, 0.0, np.asarray(z).shape[:-1])
        return metric_jet_from_entries([[u if i == j else zero for j in range(2)] for i in range(2)])

    fresh = HermitianMetricField(2, lambda z: fresh_jet(z).H, fresh_jet, name="fresh")
    _, sc1 = tensors.chern_ricci(composed, pts)
    _, sc2 = tensors.chern_ricci(fresh, pts)
    assert np.max(np.abs(sc1 - sc2)) < 1e-8


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_kahler_residual_zero(kahler_torus):
    assert gauduchon_residual(kahler_torus.metric, kahler_torus.grid) < 1e-8


def test_hopf_standard_residual_zero(hopf):
    assert gauduchon_residual(hopf.metric, hopf.grid) < 1e-6


def test_non_pluriharmonic_factor_breaks_gauduchon(hopf):
    planted = conformal_metric(hopf.metric, planted_direction() * (-0.3))
    assert gauduchon_residual(planted, hopf.grid) > 1e-3


def test_pointwise_residual_list_for_chart(inoue, rng):
    pts = inoue.random_points(rng, 17)
    vals = gauduchon_residual(inoue.metric, pts)
    assert vals.shape == (17,)
    assert np.max(np.abs(vals)) < 1e-10  # the chart metric is Gauduchon


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def conformal():
    return build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.1))


@pytest.fixture(scope="module")
def conformal_solution(conformal):
    return solve_gauduchon(conformal.metric, conformal.grid)


def _complex_mode(z, k, ab, cd):
    return hopf_radial_mode(k)(z) * hopf_monomial(ab, cd)(z)


def _reference_row(z, k, ab, cd, part):
    """One real Hopf basis function built on its own: Re/Im of R_k m_j."""
    phi = _complex_mode(z, k, ab, cd)
    return phi.real() if part == "re" else phi.imag()


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def test_stacked_hopf_basis_matches_per_function_reference(conformal):
    z = conformal.random_points(rng_from_seed(64), 64)
    coeffs = gauduchon_operator_coefficients(conformal.metric.jet(z))
    batch = conformal.grid.basis_batch(z)
    spec = _hopf_basis_spec()
    assert len(batch) == len(spec) == 222
    # derivatives of Re/Im phi mix conjugate slots, so a row carries its
    # value and L; the jets are compared on the sphere monomials m_j
    val, lval = lift_radial_modes(coeffs, batch, z)
    vals, lvals = batch.rows(val), batch.rows(lval)
    nmono = len(batch.jet.val)
    for s, entry in enumerate(spec):
        j = batch.index[s] % nmono
        m = hopf_monomial(*entry[1:3])(z)
        assert _rel(batch.jet.val[j], m.val) < 1e-13
        assert _rel(batch.jet.d1[j], m.d1) < 1e-13
        assert _rel(batch.jet.mixed[j], m.mixed) < 1e-13
        ref = _reference_row(z, *entry)
        assert _rel(vals[s], np.real(ref.val)) < 1e-13
        assert _rel(lvals[s], np.real(apply_gauduchon_operator(coeffs, ref))) < 1e-13


def _axis_points(rng, count):
    """Annulus points, a third with z1 = 0 and a third with z2 = 0."""
    z = hopf_points(rng, count)
    z[: count // 3, 0] = 0.0
    z[count // 3 : 2 * count // 3, 1] = 0.0
    return z


@pytest.mark.parametrize("kind", ["gauduchon", "random"])
def test_radial_lift_matches_the_formed_products(conformal, kind):
    rng = rng_from_seed(66)
    z = _axis_points(rng, 48)
    if kind == "gauduchon":
        coeffs = gauduchon_operator_coefficients(conformal.metric.jet(z))
    else:
        shapes = [(48, 2, 2), (48, 2), (48, 2), (48,)]
        coeffs = [rng.normal(size=sh) + 1j * rng.normal(size=sh) for sh in shapes]
    batch = conformal.grid.basis_batch(z)
    val, lval = lift_radial_modes(coeffs, batch, z)
    assert len(batch.powers) == 2
    m = batch.jet
    nmono = len(m.val)
    for k, p in enumerate(batch.powers, start=1):
        radial = hopf_radial_mode(k)(z)
        assert p == 0.5j * hopf_radial_frequency(k)
        phi = MixedJet.of(radial) * m
        block = slice(k * nmono, (k + 1) * nmono)
        assert _rel(val[block], phi.val) < 1e-13
        assert _rel(lval[block], apply_gauduchon_operator(coeffs, phi)) < 1e-13
    assert np.array_equal(val[:nmono], m.val)
    assert np.array_equal(lval[:nmono], apply_gauduchon_operator(coeffs, m))


def test_solved_factor_field_is_the_basis_combination(conformal, conformal_solution, hopf):
    # on hopf-standard only 6 of the 38 monomials carry a coefficient, so the
    # recurrence builds them and their parents alone
    standard = solve_gauduchon(hopf.metric, hopf.grid)
    for entry, sol in ((conformal, conformal_solution), (hopf, standard)):
        z = entry.random_points(rng_from_seed(65), 64)
        got = sol.u_field(z)
        want = None
        used = set()
        for c, spec in zip(sol.coeffs, _hopf_basis_spec()):
            if c != 0.0:
                term = _reference_row(z, *spec) * c
                want = term if want is None else want + term
                used.add(spec[1:3])
        for part in ("val", "d1", "d2"):
            assert _rel(getattr(got, part), getattr(want, part)) < 1e-13, part
        # a batch shape and a single point give the same jets
        batched = sol.u_field(z.reshape(8, 8, 2))
        assert np.array_equal(batched.d2.reshape(64, 4, 4), got.d2)
        assert _rel(sol.u_field(z[5]).d1, got.d1[5]) < 1e-15
    assert len(used) == 6


@pytest.fixture()
def factor_hessians(monkeypatch):
    """Count the recomputations of a solved Hopf factor's full Hessian."""
    calls = []
    original = HopfBasis._hessian

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(HopfBasis, "_hessian", counted)
    return calls


def test_solved_factor_is_evaluated_mixed_first(conformal, conformal_solution, factor_hessians):
    # value, gradient and mixed block by the MixedJet recurrence, against the
    # same combination evaluated with full Jet2s, on the grid and on the axes
    basis = conformal.grid.basis
    combination = basis._combination_of(conformal_solution.coeffs)
    for z in (conformal.grid.nodes, _axis_points(rng_from_seed(67), 48)):
        got = conformal_solution.u_field(z)
        want = basis._combination(z, Jet2, combination)
        assert _rel(got.val, want.val) < 1e-14
        assert _rel(got.d1, want.d1) < 1e-14
        assert _rel(got.mixed, want.mixed) < 1e-14
        assert got.pending
    assert not factor_hessians
    # the first read of d2 recomputes the Hessian once, from the points the
    # field was called with, and keeps the eager mixed block in its slots
    buf = _axis_points(rng_from_seed(68), 16)
    got = conformal_solution.u_field(buf)
    mixed = got.mixed
    want = basis._combination(buf.copy(), Jet2, combination)
    buf[:] = 1.0  # the caller reuses its buffer
    assert _rel(got.d2, want.d2) < 1e-14 and factor_hessians == [1]
    assert np.array_equal(got.d2[:, :2, 2:], mixed)
    assert np.array_equal(got.d2[:, 2:, :2], np.swapaxes(mixed, -1, -2))


@pytest.mark.parametrize("op", [lambda j: j.exp(), lambda j: j.log(), lambda j: j ** 0.5,
                                lambda j: j ** (0.3 - 1.2j), lambda j: j.reciprocal(),
                                lambda j: j * 0.25, lambda j: 1.5 - j, lambda j: -j,
                                lambda j: j.conj()])
def test_factor_jet_operations_keep_the_mixed_block_exact(conformal, conformal_solution, op):
    z = conformal.random_points(rng_from_seed(69), 32)
    got = op(conformal_solution.u_field(z))
    mixed = got.mixed
    assert got.pending
    assert np.array_equal(mixed, got.d2[..., :2, 2:])


def test_conformal_composition_forms_the_mixed_block_first(conformal, conformal_solution, hopf,
                                                           factor_hessians):
    z = conformal.random_points(rng_from_seed(70), 32)
    f = conformal_solution.factor.field
    for forced, base in enumerate((hopf.metric.jet(z), conformal.metric.jet(z))):  # eager, pending
        uj = f(z).exp()
        jet = compose_conformal_jet(base, uj)
        mixed = jet.mixed
        assert jet.pending and uj.pending
        # the mixed-only consumers leave the full second derivatives pending
        gauduchon_operator_coefficients(jet)
        tensors.chern_ricci_from_jet(jet)
        gauduchon_residual(conformal_metric(conformal.metric, conformal_solution.factor), z)
        assert jet.pending and uj.pending and len(factor_hessians) == forced
        assert np.array_equal(mixed, jet.d2[..., :2, 2:, :, :])
        assert len(factor_hessians) == forced + 1
    # a Riemannian consumer forces them
    tensors.scalar_and_torsion_from_jet(compose_conformal_jet(hopf.metric.jet(z), f(z).exp()))
    assert len(factor_hessians) == 3


def test_conformal_values_leave_the_factor_hessian_pending(conformal, conformal_solution,
                                                           factor_hessians):
    # the finite-difference route reads values only, at every stencil node
    z = conformal.grid.nodes[:512]
    metric = conformal_metric(conformal.metric, conformal_solution.factor)
    H = metric.value(z)
    u = conformal_solution.factor.field(z)
    assert np.all(np.isfinite(H)) and np.all(np.isfinite(u.val))
    assert u.pending and not factor_hessians


def _dense_matrices(metric, grid, w):
    """Gram and operator matrices from the full (m, N) value and L-value rows."""

    def rows(pts):
        coeffs = gauduchon_operator_coefficients(metric.jet(pts))
        batch = grid.basis_batch(pts)
        val, lval = lift_radial_modes(coeffs, batch, pts)
        return batch.rows(val), batch.rows(lval)

    vals, lvals = map_nodes(rows, grid.nodes, axis=-1)
    return (vals * w) @ vals.T, (vals * w) @ lvals.T


@pytest.mark.parametrize("which", ["hopf-conformal", "torus-kahler-potential"])
def test_streamed_matrices_equal_the_dense_products(conformal, kahler_torus, which):
    entry = conformal if which == "hopf-conformal" else kahler_torus
    assert len(entry.grid.nodes) > NODE_CHUNK  # more than one chunk is summed
    w = volume_weights(entry.metric, entry.grid)
    streamed = galerkin_matrices(entry.metric, entry.grid, w)
    for got, want in zip(streamed, _dense_matrices(entry.metric, entry.grid, w)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    gram = streamed[0]
    assert np.array_equal(gram, gram.T)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # from the planted NaN
@pytest.mark.parametrize("part", ["weight", "operator"])
def test_nan_past_the_first_chunk_is_reported_at_its_node(hopf, monkeypatch, part):
    node = hopf.grid.nodes[5000]
    metric = hopf.metric

    def plant(H, z):
        H = H.copy()
        H[..., 0, 0][np.all(z == node, axis=-1)] = np.nan
        return H

    if part == "weight":
        planted = replace(metric, value_fn=lambda z: plant(metric.value_fn(z), z))
    else:
        def jet(z):
            out = metric.jet_fn(z)
            out.H = plant(out.H, z)
            return out

        planted = replace(metric, jet_fn=jet)
    eigen_solves = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigen_solves.append(1) or eigh(a))
    with pytest.raises(NonFiniteIntegrand) as err:
        solve_gauduchon(planted, hopf.grid)
    assert err.value.node_index == 5000 and np.isnan(err.value.value)
    assert not eigen_solves


def test_value_path_equals_the_jet_value(conformal, conformal_solution, kahler_torus,
                                         factor_hessians, monkeypatch):
    # the solved fields' values, bit for bit, with no jet of the factor built
    combinations = []
    combination = HopfBasis._combination
    monkeypatch.setattr(HopfBasis, "_combination",
                        lambda self, *args: combinations.append(1) or combination(self, *args))
    torus = solve_gauduchon(kahler_torus.metric, kahler_torus.grid)
    cases = [(fld, z, fld.values(z))
             for entry, sol in ((conformal, conformal_solution), (kahler_torus, torus))
             for z in (entry.grid.nodes, _axis_points(rng_from_seed(71), 48))
             for fld in (sol.u_field, sol.factor.field)]
    assert not combinations
    for fld, z, vals in cases:
        assert np.array_equal(vals, fld(z).val)
    assert np.array_equal(conformal_solution.u_nodes,
                          np.real(conformal_solution.u_field.values(conformal.grid.nodes)))
    assert not factor_hessians


def test_solve_holds_no_value_matrix(conformal):
    tracemalloc.start()
    try:
        solve_gauduchon(conformal.metric, conformal.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (222, 13824) float64 matrix alone is 24.5 MB
    assert peak <= 40e6


def test_non_finite_factor_values_fail_as_a_check(hopf):
    values = np.zeros(len(hopf.grid.nodes))
    values[9] = np.inf
    with pytest.raises(NonFiniteIntegrand) as err:
        ConformalFactor(hopf.grid, values)
    assert err.value.node_index == 9


@pytest.mark.xfail(
    strict=True,
    reason="catalog._hopf_basis_spec keeps one conjugate representative (a,b) >= (c,d) "
    "at every radial frequency k; that pruning is valid only at k = 0, so the basis "
    "misses half of the cos(t) Re(z1 zbar2) mode of the exact factor",
)
def test_closed_form_conformal_factor(conformal, conformal_solution):
    # e^(-t g) h_standard is conformal to the Gauduchon h_standard: f = t g
    tg = 0.1 * np.real(hopf_conformal_direction()(conformal.grid.nodes).val)
    err = np.max(np.abs(conformal_solution.factor.values - (tg - tg.mean())))
    assert err <= 1e-4


def test_solver_trivial_on_gauduchon_input(hopf):
    factor = solve_gauduchon(hopf.metric, hopf.grid).factor
    assert np.max(np.abs(factor.values)) < 1e-6
    assert abs(factor.mean) < 1e-12


def test_solver_planted_factor_recovery(hopf):
    g = ScalarField(lambda z: (1.0 + planted_direction()(z) * 0.3).log())
    planted = conformal_metric(hopf.metric, g * (-1.0))
    sol = solve_gauduchon(planted, hopf.grid)
    g_nodes = np.real(g(hopf.grid.nodes).val)
    g_nodes -= g_nodes.mean()
    assert np.max(np.abs(sol.factor.values - g_nodes)) < 1e-3
    assert np.min(sol.u_nodes) > 0
    res = gauduchon_residual(conformal_metric(planted, sol.factor), hopf.grid)
    assert res < 1e-6


def test_solver_kahler_torus_trivial(kahler_torus):
    factor = solve_gauduchon(kahler_torus.metric, kahler_torus.grid).factor
    assert np.max(np.abs(factor.values)) < 1e-8


def test_solver_gauge_invariance(hopf):
    scaled = conformal_metric(hopf.metric, constant_field(0.9))
    f1 = solve_gauduchon(hopf.metric, hopf.grid).factor
    f2 = solve_gauduchon(scaled, hopf.grid).factor
    assert np.max(np.abs(f1.values - f2.values)) < 1e-10


def test_solver_rejects_sign_changing_space(hopf):
    import dataclasses

    sign_changer = ScalarField(lambda z: hopf_radial_mode(1)(z).real())
    bad_grid = dataclasses.replace(hopf.grid, basis=[sign_changer], basis_batch=None)
    with pytest.raises(NoPositiveNullVector):
        solve_gauduchon(hopf.metric, bad_grid)


def test_solver_iteration_budget(hopf):
    with pytest.raises(NonConvergence):
        solve_gauduchon(hopf.metric, hopf.grid, max_iter=0)


def test_factor_from_field_mean_zero(hopf, rng):
    f = hopf.random_scalar(rng, 0.2)
    factor = ConformalFactor.from_field(hopf.grid, f)
    assert abs(np.mean(factor.values)) < 1e-12


# ---------------------------------------------------------------------------
# totals and the conformal total-curvature identity
# ---------------------------------------------------------------------------


def test_total_chern_flat(flat_torus):
    assert abs(total_chern_scalar(flat_torus.metric, flat_torus.grid)) < 1e-12


def test_total_chern_hopf(hopf):
    expected = 2.0 * 8.0 * np.pi**2 * np.log(2.0)
    total = total_chern_scalar(hopf.metric, hopf.grid)
    assert abs(total - expected) / expected < 1e-3


def test_total_chern_kahler_torus_vanishes(kahler_torus):
    # the trace form is a divergence: zero total under spectral quadrature
    total = total_chern_scalar(kahler_torus.metric, kahler_torus.grid)
    assert abs(total) < 1e-6


def test_total_chern_gate(hopf):
    planted = conformal_metric(hopf.metric, planted_direction() * (-0.3))
    with pytest.raises(NotGauduchon):
        total_chern_scalar(planted, hopf.grid, residual_tol=1e-4)


def test_identity_on_gauduchon_input(hopf):
    chk = theorem_t_check(hopf.metric, hopf.grid)
    assert chk.residual < 1e-3
    assert abs(chk.gradient_term) < 1e-12  # factor is constant here


def test_identity_flat(flat_torus):
    chk = theorem_t_check(flat_torus.metric, flat_torus.grid)
    assert abs(chk.lhs) < 1e-10 and abs(chk.rhs) < 1e-10


@pytest.mark.parametrize("t", [0.1, 0.2])
def test_identity_conformal_family(t):
    from curvlab.catalog import ManifoldSpec, build_manifold

    entry = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=t))
    chk = theorem_t_check(entry.metric, entry.grid)
    assert chk.residual < 1e-3
    assert chk.gradient_term > 1e-6  # genuinely nonconstant factor


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_classify_hopf(hopf, rng):
    pts = hopf.random_points(rng, 50)
    _, tors = tensors.torsion(hopf.metric, pts)
    v = classify(hopf.metric, hopf.grid, False, float(np.max(tors)), manifold="hopf-standard")
    assert v.kodaira_statement == KodairaStatement.NOT_PSEF
    assert v.sign == "positive"


def test_classify_flat(flat_torus, rng):
    pts = flat_torus.random_points(rng, 50)
    _, tors = tensors.torsion(flat_torus.metric, pts)
    v = classify(flat_torus.metric, flat_torus.grid, True, float(np.max(tors)),
                 manifold="torus-flat")
    assert v.kodaira_statement == KodairaStatement.KAHLER_CY
    assert v.sign == "zero"


def test_classify_conformal_invariance(rng):
    from curvlab.catalog import ManifoldSpec, build_manifold

    entry = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.1))
    pts = entry.random_points(rng, 50)
    _, tors = tensors.torsion(entry.metric, pts)
    v = classify(entry.metric, entry.grid, False, float(np.max(tors)),
                 manifold="hopf-conformal")
    assert v.kodaira_statement == KodairaStatement.NOT_PSEF


def test_classify_refuses_uncertified_factor(perturbed_torus, rng):
    # the low-frequency torus basis cannot certify this genuinely
    # non-Kahler class; the verdict must stay indeterminate
    pts = perturbed_torus.random_points(rng, 30)
    _, tors = tensors.torsion(perturbed_torus.metric, pts)
    v = classify(perturbed_torus.metric, perturbed_torus.grid, False, float(np.max(tors)))
    assert v.kodaira_statement == KodairaStatement.INDETERMINATE
    assert "not certified" in v.notes


def test_verdict_invariant_enforced():
    with pytest.raises(ValueError):
        Verdict("x", 1.0, "positive", KodairaStatement.KAHLER_CY)
    with pytest.raises(ValueError):
        Verdict("x", 0.0, "zero", KodairaStatement.NOT_PSEF)
