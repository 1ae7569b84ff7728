"""Conformal changes, the Gauduchon solver, totals, and verdicts."""

import inspect
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curvlab import gauduchon, tensors
from curvlab.catalog import (
    HopfBasis,
    ManifoldSpec,
    _hopf_basis_spec,
    build_manifold,
    hopf_conformal_direction,
    hopf_grid,
    rng_from_seed,
    torus_grid,
)
from curvlab.cli import DEFAULT_TOLERANCES
from curvlab.errors import (
    NoPositiveNullVector,
    NonConvergence,
    NonFiniteIntegrand,
    QuadratureUnsupported,
)
from curvlab.fields import (
    HopfTerms,
    ScalarField,
    constant_field,
    hopf_monomial,
    hopf_radial_frequency,
    hopf_radial_mode,
    torus_mode,
)
from curvlab.gauduchon import (
    ConformalFactor,
    KodairaStatement,
    OperatorTerms,
    Verdict,
    _total_identity,
    apply_gauduchon_operator,
    classify,
    coefficient_fields,
    compose_conformal_jet,
    conformal_metric,
    galerkin_matrices,
    gauduchon_operator_coefficients,
    gauduchon_residual,
    solve_gauduchon,
    solved_residual,
    theorem_t_check,
)
from curvlab.geometry import (
    NODE_CHUNK,
    DerivativeEngine,
    QuadratureGrid,
    volume_weights,
)
from curvlab.jets import Jet2, coordinate_jets, exp_linear, squared_radius
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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # from the planted inf
def test_an_infinite_metric_entry_has_no_finite_residual(inoue, rng):
    # inv reads H with an infinite diagonal entry as a finite inverse, so
    # such a point read as Gauduchon, with residual 0
    metric = inoue.metric

    def jet(z):
        out = metric.jet_fn(z)
        out.H[:4, 1, 1] = np.inf
        return out

    pts = inoue.random_points(rng, 12)
    vals = gauduchon_residual(replace(metric, jet_fn=jet), pts)
    assert not np.any(np.isfinite(vals[:4])) and np.all(np.isfinite(vals[4:]))
    assert np.all(np.isnan(tensors.CxBlocks(jet(pts)).Hinv[:4]))


def _small_torus(mid, n):
    return build_manifold(ManifoldSpec(mid, dim=n, resolution=2))


@pytest.mark.parametrize("n", [2, 3])
def test_operator_on_a_conformally_flat_metric(n, rng):
    # h = e^phi I: i d dbar (omega^(n-1)) = i d dbar (e^((n-1) phi)) ^ omega_0^(n-1),
    # against e^(n phi) omega_0^n / n!, so c = e^(-n phi) (n-1)! sum_i d_i d_ibar e^((n-1) phi)
    entry = _small_torus("torus-flat", n)
    phi = entry.random_scalar(rng, 0.3)
    z = entry.random_points(rng, 40)
    a, _, _, c = gauduchon_operator_coefficients(conformal_metric(entry.metric, phi).jet(z))
    pj = phi(z)
    u = (pj * (n - 1.0)).exp()
    lap = sum(u.mixed[:, i, i] for i in range(n))
    want = np.exp(-n * np.real(pj.val)) * math.factorial(n - 1) * lap
    assert _rel(c, want) < 1e-12
    want_a = math.factorial(n - 1) * np.exp(-np.real(pj.val))[:, None, None] * np.eye(n)
    assert _rel(a, want_a) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_operator_is_conformally_covariant(n, rng):
    # L_omega(e^((n-1) f)) = e^(n f) c(e^f omega): both are i d dbar (e^f omega)^(n-1)
    entry = _small_torus("torus-hermitian-perturbed", n)
    f = entry.random_scalar(rng, 0.3)
    z = entry.random_points(rng, 40)
    fj = f(z)
    got = apply_gauduchon_operator(
        gauduchon_operator_coefficients(entry.metric.jet(z)), (fj * (n - 1.0)).exp()
    )
    c = gauduchon_operator_coefficients(conformal_metric(entry.metric, f).jet(z))[3]
    assert _rel(got, np.exp(n * np.real(fj.val)) * c) < 1e-12


@pytest.mark.parametrize("mid, params", [
    ("torus-hermitian-perturbed", {}),
    ("torus-hermitian-perturbed", {"dim": 3, "resolution": 2}),
    ("hopf-conformal", {"conformal_t": 0.2}),
    ("inoue-chart", {}),
], ids=["torus-n2", "torus-n3", "hopf-conformal", "inoue-chart"])
def test_residual_is_the_adjoint_term(mid, params, rng):
    # omega is Gauduchon iff its torsion one-form is co-closed: c is
    # (n-1)! i d* dbar* omega, read from the same arrays, bit for bit
    entry = build_manifold(ManifoldSpec(mid, **params))
    pts = entry.random_points(rng, 50)
    adj = tensors.scalar_identity_residual(entry.metric, pts).adjoint_term
    got = gauduchon_residual(entry.metric, pts)
    assert np.array_equal(got, math.factorial(entry.metric.n - 1) * adj)


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


def _polynomial(z, ab, cd):
    """The jet of z^ab zbar^cd, one coordinate product at a time."""
    out = Jet2.constant(2, 1.0, z.shape[:-1])
    for c, e in zip(sum(coordinate_jets(z), []), ab + cd):
        for _ in range(e):
            out = out * c
    return out


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


def _unforced():
    raise AssertionError("the reference reads no full Hessian")


def _lifted(coeffs, batch, z):
    """Values and L-values of every complex function s^q P_j of the batch,
    (functions, N) each: its jet formed by jet arithmetic, |z|^2 raised to
    q times the batch's polynomial P_j (its conjugate where flagged), and L
    applied to that jet."""
    P = batch.jet
    rows = Jet2(P.n, P.val[batch.poly], P.d1[batch.poly], _unforced, P.mixed[batch.poly])
    partner = rows.conj()

    def pick(part):
        a, b = getattr(partner, part), getattr(rows, part)
        return np.where(batch.conj.reshape((-1,) + (1,) * (a.ndim - 1)), a, b)

    phi = Jet2(P.n, pick("val"), pick("d1"), _unforced, pick("mixed"))
    if np.any(batch.powers):
        phi = squared_radius(z) ** batch.powers[:, None] * phi
    return phi.val, apply_gauduchon_operator(coeffs, phi)


def _term_rows(coeffs, expo, z, terms, kappa):
    """The rows P, X0, X1, X2 of the monomials w^e, e in `expo`, at the
    points z, (rows, monomials, N), summed from the term table:
    kappa C_f w^(e + shift) s^-sigma per term with kappa != 0."""
    w = np.concatenate([z, np.conj(z)], axis=1).T
    s = np.sum(np.abs(z) ** 2, axis=-1)
    fields = coefficient_fields(coeffs)
    out = np.zeros((len(terms.starts), len(expo), len(z)), dtype=complex)
    for k, e in enumerate(expo):
        for t in np.flatnonzero(kappa[k]):
            mono = np.prod(w ** (e + terms.shift[t])[:, None], axis=0)
            out[terms.row[t], k] += kappa[k, t] * fields[terms.field[t]] * mono / s ** terms.sigma[t]
    return out


def _tabulated(coeffs, basis, z):
    """Values and L-values of every complex function s^q P_j of a Hopf
    basis, (functions, N) each, from the term table: s^q P_j and
    s^q (X0 + q X1 + q^2 X2)_j.  A function flagged as the partner
    conj(P_j) reads the conjugates of the rows of P_j, which holds for a
    real operator only."""
    terms = OperatorTerms(2, basis.d1_shift, radial=True)
    rows = _term_rows(coeffs, basis.expo, z, terms, terms.kappa(basis.d1_weight))
    j, q, flip = basis.poly, basis.powers[:, None], basis.conj[:, None]
    P, x0, x1, x2 = (np.where(flip, np.conj(x[j]), x[j]) for x in rows)
    sq = np.sum(np.abs(z) ** 2, axis=-1) ** q
    return sq * P, sq * (x0 + q * x1 + q**2 * x2)


def _exponents(basis, i):
    """The exponents of complex function i's own polynomial: its
    representative's, with z and zbar swapped for a partner."""
    e = basis.expo[basis.poly[i]]
    return tuple(e[[2, 3, 0, 1]] if basis.conj[i] else e)


def _real_rows(batch, x):
    """Real function s of the batch: Re, or Im where imag[s], of row index[s] of x."""
    x = x[batch.index]
    return np.where(batch.imag[:, None], x.imag, x.real)


def test_stacked_hopf_basis_matches_per_function_reference(conformal):
    z = conformal.random_points(rng_from_seed(64), 64)
    coeffs = gauduchon_operator_coefficients(conformal.metric.jet(z))
    batch = conformal.grid.basis_batch(z)
    spec = _hopf_basis_spec()
    assert len(batch) == len(spec) == 275
    # derivatives of Re/Im phi mix conjugate slots, so a row carries its
    # value and L; the jets are compared on the polynomials w^e_j
    val, lval = _lifted(coeffs, batch, z)
    vals, lvals = _real_rows(batch, val), _real_rows(batch, lval)
    for s, entry in enumerate(spec):
        i = batch.index[s]
        j = batch.poly[i]
        P = _polynomial(z, *entry[1:3])  # the function's own monomial, formed directly
        if batch.conj[i]:  # a partner is evaluated as its representative conj(P)
            P = P.conj()
        assert _rel(batch.jet.val[j], P.val) < 1e-13
        assert _rel(batch.jet.d1[j], P.d1) < 1e-13
        assert _rel(batch.jet.mixed[j], P.mixed) < 1e-13
        ref = _reference_row(z, *entry)
        assert _rel(vals[s], np.real(ref.val)) < 1e-13
        assert _rel(lvals[s], np.real(apply_gauduchon_operator(coeffs, ref))) < 1e-13


def _axis_points(rng, count):
    """Annulus points, a third with z1 = 0 and a third with z2 = 0."""
    z = hopf_points(rng, count)
    z[: count // 3, 0] = 0.0
    z[count // 3 : 2 * count // 3, 1] = 0.0
    return z


def test_hopf_basis_rows_are_gathers_not_jet_products(conformal, monkeypatch):
    # the basis reads its polynomials from one exponent table: no jet
    # arithmetic runs while a chunk of rows is formed
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "_chain", "conj"):
        original = getattr(Jet2, name)
        monkeypatch.setattr(Jet2, name, lambda *a, _f=original: calls.append(1) or _f(*a))
    batch = conformal.grid.basis_batch(conformal.grid.nodes[:NODE_CHUNK])
    assert len(batch) == 275 and calls == []


def test_torus_rows_leave_the_mode_hessians_pending():
    # a 1024-node chunk of the default torus basis holds the stacked rows of
    # its 41 complex modes and no Hessian
    entry = build_manifold(ManifoldSpec("torus-kahler-potential"))
    z = entry.grid.nodes[:NODE_CHUNK]
    tracemalloc.start()
    try:
        batch = entry.grid.basis_batch(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batch) == 81 and len(batch.jet.val) == 41 and peak <= 20e6
    # the rows are the modes' mixed blocks, as their forced Hessians give them
    terms = entry.grid.basis.terms
    for s in (1, 2, 40):
        i = batch.index[s]
        want = exp_linear(z, terms.a[i], terms.b[i]).d2[:, :2, 2:]
        assert np.max(np.abs(batch.jet.mixed[i] - want)) < 1e-13


def _reference_torus_basis(n, periods, kmax=1):
    """The real Fourier basis as separate fields: the constant, then Re and
    Im of one mode of each pair +-(m, l), in order of first appearance."""
    basis, seen = [constant_field(1.0)], set()
    for vec in itertools.product(range(-kmax, kmax + 1), repeat=2 * n):
        key = max(vec, tuple(-v for v in vec))
        if any(vec) and key not in seen:
            seen.add(key)
            mode = torus_mode(key[:n], key[n:], periods)
            basis += [mode.real(), mode.imag()]
    return basis


def test_torus_basis_rows_match_per_mode_fields(perturbed_torus):
    z = perturbed_torus.random_points(rng_from_seed(65), 64)
    coeffs = gauduchon_operator_coefficients(perturbed_torus.metric.jet(z))
    batch = perturbed_torus.grid.basis_batch(z)
    val, lval = _lifted(coeffs, batch, z)
    vals, lvals = _real_rows(batch, val), _real_rows(batch, lval)
    reference = _reference_torus_basis(2, (1.0, 1.0))
    assert len(batch) == len(reference) == 81
    for s, phi in enumerate(reference):
        ref = phi(z)
        assert _rel(vals[s], np.real(ref.val)) < 1e-13
        assert _rel(lvals[s], np.real(apply_gauduchon_operator(coeffs, ref))) < 1e-13


def _random_coefficients(rng, count, real):
    """Random operator coefficients (a, b_holo, b_anti, c) at `count` nodes;
    if `real`, those of a real operator: Hermitian a, b_holo = conj(b_anti)
    and real c."""
    shapes = [(count, 2, 2), (count, 2), (count, 2), (count,)]
    a, b_holo, b_anti, c = [rng.normal(size=sh) + 1j * rng.normal(size=sh) for sh in shapes]
    if real:
        a, b_holo, c = a + np.conj(np.swapaxes(a, -1, -2)), np.conj(b_anti), c.real
    return a, b_holo, b_anti, c


@pytest.mark.parametrize("kind", ["gauduchon", "random", "random-real"])
def test_radial_lift_matches_the_formed_products(conformal, kind):
    # the term table of L(s^q P) = s^q (X0 + q X1 + q^2 X2), summed at random
    # points and on the axes z1 = 0 and z2 = 0, against L of the formed function
    rng = rng_from_seed(66)
    z = _axis_points(rng, 48)
    if kind == "gauduchon":
        coeffs = gauduchon_operator_coefficients(conformal.metric.jet(z))
    else:
        coeffs = _random_coefficients(rng, 48, real=kind == "random-real")
    basis = conformal.grid.basis
    val, lval = _tabulated(coeffs, basis, z)
    terms = OperatorTerms(2, basis.d1_shift, radial=True)
    assert [np.count_nonzero(terms.row == r) for r in range(4)] == [1, 9, 18, 4]
    # every declared function, k = 0 included: function i of the (q, j)
    # list is R_k m_j for the basis rows that read it, and each is read.  The
    # table is generic, so every representative is checked for any operator;
    # a partner conj(P_j) reads the conjugate rows of P_j, which is checked
    # for the real operators only
    assert len(basis.powers) == len(basis.poly) == len(val) == 139
    assert np.array_equal(np.unique(basis.index), np.arange(139))
    seen = set()
    for s, (k, ab, cd, _) in enumerate(_hopf_basis_spec()):
        i = basis.index[s]
        e = _exponents(basis, i)
        assert e == ab + cd
        assert basis.powers[i] == 0.5j * hopf_radial_frequency(k) - 0.5 * sum(e)
        if i in seen or (basis.conj[i] and kind == "random"):
            continue
        seen.add(i)
        phi = hopf_monomial(e[:2], e[2:])(z)
        if k:
            phi = hopf_radial_mode(k)(z) * phi
        assert _rel(val[i], phi.val) < 1e-13
        assert _rel(lval[i], apply_gauduchon_operator(coeffs, phi)) < 1e-13
    assert len(seen) == 139 - (np.count_nonzero(basis.conj) if kind == "random" else 0)


@pytest.mark.parametrize("level, count, self_conjugate", [((2, 4), 29, 3), ((4, 6), 72, 4),
                                                          ((5, 8), 145, 5)])
def test_hopf_basis_evaluates_each_conjugate_pair_once(conformal, hopf, level, count,
                                                       self_conjugate):
    # the table holds one representative e = (a, b, c, d), (a, b) >= (c, d),
    # of each conjugate pair of polynomials w^e; a partner reads it, flagged
    basis = HopfBasis(*level)
    reps = [tuple(e) for e in basis.expo]
    assert len(reps) == len(set(reps)) == count
    assert all(e[:2] >= e[2:] for e in reps)
    assert sum(e[:2] == e[2:] for e in reps) == self_conjugate
    assert not any(reps[j][:2] == reps[j][2:] for j in basis.poly[basis.conj])
    # the declared functions read all 55 / 140 / 285 polynomials, as before
    own = {_exponents(basis, i) for i in range(len(basis.poly))}
    assert len(own) == 2 * count - self_conjugate
    assert {e[2:] + e[:2] for e in own} == own
    # the fold's identity: for a real operator the tabulated rows of a
    # partner, at its own exponents, are the conjugates of its representative's
    z = _axis_points(rng_from_seed(73), 48)
    rows = [j for j in range(count) if reps[j][:2] != reps[j][2:]]
    partners = basis.conj_expo(basis.expo[rows])
    terms = OperatorTerms(2, basis.d1_shift, radial=True)
    t2 = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.2))
    for metric in (hopf.metric, conformal.metric, t2.metric):
        coeffs = gauduchon_operator_coefficients(metric.jet(z))
        got = _term_rows(coeffs, partners, z, terms, terms.kappa(partners))
        want = _term_rows(coeffs, basis.expo, z, terms, terms.kappa(basis.d1_weight))
        assert _rel(got, np.conj(want[:, rows])) <= 1e-14


def test_solved_factor_field_is_the_basis_combination(conformal, conformal_solution, hopf):
    # on hopf-standard u is constant, and the basis is independent, so only
    # the constant carries a coefficient and the solved table holds it alone
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
    assert len(used) == 1


def _table_of(u_field):
    """The HopfTerms table T of a solved u = T + conj(T)."""
    return inspect.getclosurevars(u_field.fn).nonlocals["plain"]


def _jet2_combination(basis, coeffs, z):
    """u = Re sum W_i s^q_i w^e_i with full Jet2 products, one term at a time."""
    W = np.zeros(len(basis.powers), dtype=complex)
    np.add.at(W, basis.index, np.where(basis.imag, -1j * coeffs, coeffs))
    r2 = squared_radius(z)
    total = None
    for i in np.flatnonzero(W):
        e = _exponents(basis, i)
        term = _polynomial(z, e[:2], e[2:]) * r2 ** basis.powers[i] * W[i]
        total = term if total is None else total + term
    return total.real()


@pytest.fixture()
def factor_hessians(monkeypatch, conformal_solution):
    """Count the computations of the solved Hopf factor's full Hessian."""
    calls = []
    table = _table_of(conformal_solution.u_field)
    original = HopfTerms.hessian

    def counted(self, z):
        if self is table:
            calls.append(1)
        return original(self, z)

    monkeypatch.setattr(HopfTerms, "hessian", counted)
    return calls


def test_solved_factor_is_evaluated_mixed_first(conformal, conformal_solution, factor_hessians):
    # value, gradient and mixed block from the exponent table, against the
    # same combination built with full Jet2 products, on the grid and the axes
    basis, coeffs = conformal.grid.basis, conformal_solution.coeffs
    for z in (conformal.grid.nodes, _axis_points(rng_from_seed(67), 48)):
        got = conformal_solution.u_field(z)
        want = _jet2_combination(basis, coeffs, z)
        assert _rel(got.val, want.val) < 1e-14
        assert _rel(got.d1, want.d1) < 1e-14
        assert _rel(got.mixed, want.mixed) < 1e-14
        assert got.pending
    assert not factor_hessians
    # the first read of d2 computes the Hessian once, from the points the
    # field was called with, and keeps the eager mixed block in its slots
    buf = _axis_points(rng_from_seed(68), 16)
    got = conformal_solution.u_field(buf)
    mixed = got.mixed
    want = _jet2_combination(basis, coeffs, buf.copy())
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
    for forced, base in enumerate((hopf.metric.jet(z), conformal.metric.jet(z))):  # products, composed
        uj = f(z).exp()
        jet = compose_conformal_jet(base, uj)
        mixed = jet.mixed
        assert jet.pending and uj.pending
        # the mixed-only consumers leave the full second derivatives pending
        gauduchon_operator_coefficients(jet)
        tensors.CxBlocks(jet).chern_ricci()
        gauduchon_residual(conformal_metric(conformal.metric, conformal_solution.factor), z)
        assert jet.pending and uj.pending and len(factor_hessians) == forced
        assert np.array_equal(mixed, jet.d2[..., :2, 2:, :, :])
        assert len(factor_hessians) == forced + 1
    # so does the Riemannian side, which reads the mixed block too
    tensors.scalar_and_torsion_from_jet(compose_conformal_jet(hopf.metric.jet(z), f(z).exp()))
    assert len(factor_hessians) == 2


def test_conformal_values_leave_the_factor_hessian_pending(conformal, conformal_solution,
                                                           factor_hessians):
    # the finite-difference route reads values only, at every stencil node
    z = conformal.grid.nodes[:512]
    metric = conformal_metric(conformal.metric, conformal_solution.factor)
    H = metric.value(z)
    u = conformal_solution.factor.field(z)
    assert np.all(np.isfinite(H)) and np.all(np.isfinite(u.val))
    assert u.pending and not factor_hessians


@pytest.mark.parametrize("mid", ["hopf-standard", "inoue-chart"])
def test_product_built_metric_jets_stay_pending(mid, rng):
    # these metrics stack Jet2 products into their jets; the solve and the
    # residual read the mixed block alone, so no full Hessian is formed
    entry = build_manifold(ManifoldSpec(mid, resolution=4))
    jets = []

    def recorded(z):
        jets.append(entry.metric.jet_fn(z))
        return jets[-1]

    metric = replace(entry.metric, jet_fn=recorded)
    if entry.grid is None:  # a pointwise chart
        gauduchon_residual(metric, entry.random_points(rng, 256))
    else:
        solve_gauduchon(metric, entry.grid)
        gauduchon_residual(metric, entry.grid)
    assert jets and all(jet.pending for jet in jets)


def _dense_matrices(metric, grid, w, chunk=256):
    """Gram and operator matrices as node sums of the formed value and
    L-value rows of every real function, (m, N) per chunk of nodes."""
    m = len(grid.basis)
    gram, op = np.zeros((m, m)), np.zeros((m, m))
    for lo in range(0, len(grid.nodes), chunk):
        pts, wc = grid.nodes[lo : lo + chunk], w[lo : lo + chunk]
        coeffs = gauduchon_operator_coefficients(metric.jet(pts))
        batch = grid.basis_batch(pts)
        val, lval = _lifted(coeffs, batch, pts)
        vals = _real_rows(batch, val)
        gram += (vals * wc) @ vals.T
        op += (vals * wc) @ _real_rows(batch, lval).T
    return gram, op


@pytest.mark.parametrize(
    "which", ["hopf-conformal", "torus-kahler-potential", "torus-hermitian-perturbed",
              "hopf-basis-3-4", "hopf-basis-4-6", "hopf-odd-angles", "hopf-odd-planes"]
)
def test_streamed_matrices_equal_the_dense_products(conformal, kahler_torus, perturbed_torus,
                                                    which):
    entry = {"torus-kahler-potential": kahler_torus,
             "torus-hermitian-perturbed": perturbed_torus}.get(which, conformal)
    grid = entry.grid
    if which == "hopf-basis-3-4":
        grid = replace(grid, basis=HopfBasis(3, 4))
    elif which == "hopf-basis-4-6":
        # degree-6 pairs and partners at k > 0 together
        grid = replace(hopf_grid(4, 12, 12, 12), basis=HopfBasis(4, 6))
    elif which == "hopf-odd-angles":
        # odd beta and gamma axes: no Nyquist bin, and the moments alias
        grid = hopf_grid(4, 12, 13, 13)
    elif which == "hopf-odd-planes":
        # radial bins -6..6 on 5 planes: bins 5 apart share their plane phases
        grid = replace(hopf_grid(5, 12, 13, 13), basis=HopfBasis(3, 4))
    assert len(grid.nodes) > NODE_CHUNK  # more than one chunk is summed
    w = volume_weights(entry.metric, grid)
    *streamed, _ = galerkin_matrices(entry.metric, grid, w)
    for got, want in zip(streamed, _dense_matrices(entry.metric, grid, w)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    gram = streamed[0]
    assert np.array_equal(gram, gram.T)


def test_a_node_off_its_t_plane_is_refused(conformal):
    nodes = conformal.grid.nodes.copy()
    nodes[3000] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="node 3000 "):
        replace(conformal.grid, nodes=nodes)
    # without t-planes the radial factors s^q have no plane to come from
    w = volume_weights(conformal.metric, conformal.grid)
    with pytest.raises(ValueError, match="t-planes"):
        galerkin_matrices(conformal.metric, replace(conformal.grid, axes=None), w)


def test_a_node_off_its_beta_line_is_refused(conformal):
    # on its t-plane and its alpha node, but 1e-9 rad from its beta node: the
    # moments read node i as cell i, so node i must sit there
    nodes = conformal.grid.nodes.copy()
    nodes[3000, 0] *= np.exp(1e-9j)
    with pytest.raises(ValueError, match="node 3000 "):
        replace(conformal.grid, nodes=nodes)


@pytest.mark.parametrize("which", ["hopf", "torus"])
def test_a_duplicated_node_is_refused(conformal, kahler_torus, which):
    # node 4000 repeats node 17 in place of its own: two nodes in one cell
    entry = conformal if which == "hopf" else kahler_torus
    nodes = entry.grid.nodes.copy()
    nodes[4000] = nodes[17]
    with pytest.raises(ValueError, match="node 4000 "):
        replace(entry.grid, nodes=nodes)


def test_a_permuted_grid_is_refused(hopf):
    # the same nodes and weights in another order: NodalDerivatives reshapes
    # node values to the grid's shape and the assembly sums them per t-plane,
    # so neither may see it
    grid = hopf.grid
    perm = rng_from_seed(72).permutation(len(grid.nodes))
    first = int(np.argmax(perm != np.arange(len(perm))))
    with pytest.raises(ValueError, match=f"node {first} "):
        QuadratureGrid(grid.nodes[perm], grid.lebesgue_w[perm], grid.axes, grid.basis)


def test_a_solve_evaluates_no_basis_rows(conformal, monkeypatch):
    # the assembly reads FFT moments of the node fields, not basis rows
    calls = []
    batch = QuadratureGrid.basis_batch
    monkeypatch.setattr(QuadratureGrid, "basis_batch",
                        lambda grid, z: calls.append(1) or batch(grid, z))
    sol = solve_gauduchon(conformal.metric, conformal.grid)
    assert np.min(sol.u_nodes) > 0 and calls == []


def test_a_grid_copied_with_another_basis_assembles_that_basis(conformal):
    # the copy evaluates its own basis, as a grid built with it does
    finer = replace(conformal.grid, basis=HopfBasis(3, 4))
    fresh = QuadratureGrid(conformal.grid.nodes, conformal.grid.lebesgue_w, conformal.grid.axes,
                           HopfBasis(3, 4))
    w = volume_weights(conformal.metric, conformal.grid)
    got, want = (galerkin_matrices(conformal.metric, g, w)[:2] for g in (finer, fresh))
    assert got[0].shape == got[1].shape == (385, 385)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    sol = solve_gauduchon(conformal.metric, finer)
    assert np.min(sol.u_nodes) > 0 and len(sol.coeffs) == 385


@pytest.mark.parametrize("which", ["hopf-conformal", "torus-hermitian-perturbed"])
def test_input_residual_is_read_from_the_assembly(conformal, conformal_solution,
                                                  perturbed_torus, which):
    if which == "hopf-conformal":
        entry, sol = conformal, conformal_solution
    else:
        entry, sol = perturbed_torus, solve_gauduchon(perturbed_torus.metric, perturbed_torus.grid)
    assert sol.input_residual == gauduchon_residual(entry.metric, entry.grid)
    assert sol.input_residual > 0.0


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
    linear_solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: linear_solves.append(1) or solve(a, b))
    with pytest.raises(NonFiniteIntegrand) as err:
        solve_gauduchon(planted, hopf.grid)
    assert err.value.node_index == 5000 and np.isnan(err.value.value)
    assert not linear_solves


def test_value_path_equals_the_jet_value(conformal, conformal_solution, kahler_torus,
                                         factor_hessians, monkeypatch):
    # the solved fields' values, bit for bit, with no jet of the factor built
    combinations = []
    jet = HopfTerms.jet
    monkeypatch.setattr(HopfTerms, "jet", lambda self, z: combinations.append(1) or jet(self, z))
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
    # one (275, 13824) float64 matrix alone is 30.4 MB
    assert peak <= 40e6


def test_non_finite_factor_values_fail_as_a_check(hopf):
    values = np.zeros(len(hopf.grid.nodes))
    values[9] = np.inf
    with pytest.raises(NonFiniteIntegrand) as err:
        ConformalFactor(values)
    assert err.value.node_index == 9


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


@pytest.mark.parametrize("which", ["hopf-conformal-0.1", "hopf-conformal-0.2",
                                   "torus-hermitian-perturbed", "hopf-standard",
                                   "torus-kahler-potential"])
def test_solved_residual_is_the_composed_metric_residual(conformal, conformal_solution, hopf,
                                                         perturbed_torus, kahler_torus, which):
    # the kept coefficients and the conformal law give the residual of
    # e^f omega that gauduchon_residual reads off the composed metric's jets
    entry, sol = {"hopf-conformal-0.1": (conformal, conformal_solution),
                  "torus-hermitian-perturbed": (perturbed_torus, None),
                  "hopf-standard": (hopf, None), "torus-kahler-potential": (kahler_torus, None),
                  }.get(which, (None, None))
    if entry is None:
        entry = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.2))
    sol = sol or solve_gauduchon(entry.metric, entry.grid)
    got = solved_residual(sol, entry.grid)
    want = gauduchon_residual(conformal_metric(entry.metric, sol.factor), entry.grid)
    if which in ("hopf-standard", "torus-kahler-potential"):  # u is constant: rounding
        assert abs(got - want) <= 1e-14
    else:
        assert want > 1e-6 and abs(got - want) <= 1e-12 * want


def test_solver_kahler_torus_trivial(kahler_torus):
    factor = solve_gauduchon(kahler_torus.metric, kahler_torus.grid).factor
    assert np.max(np.abs(factor.values)) < 1e-8


def test_solver_gauge_invariance(hopf):
    scaled = conformal_metric(hopf.metric, constant_field(0.9))
    f1 = solve_gauduchon(hopf.metric, hopf.grid).factor
    f2 = solve_gauduchon(scaled, hopf.grid).factor
    assert np.max(np.abs(f1.values - f2.values)) < 1e-10


def test_solver_rejects_sign_changing_space(hopf):
    # a one-function basis: Re R_1, the complex function with k = 1 and the
    # constant monomial j = 0
    basis = HopfBasis()
    r1 = (basis.poly == 0) & (basis.powers == 0.5j * hopf_radial_frequency(1))
    keep = r1[basis.index] & ~basis.imag
    assert np.count_nonzero(keep) == 1
    basis.index, basis.imag = basis.index[keep], basis.imag[keep]
    bad_grid = replace(hopf.grid, basis=basis)
    with pytest.raises(NoPositiveNullVector):
        solve_gauduchon(hopf.metric, bad_grid)


@pytest.mark.parametrize("axis, grid", [
    ("beta", lambda: replace(hopf_grid(4, 12, 12, 12), basis=HopfBasis(0, 6))),
    ("t", lambda: hopf_grid(4, 12, 13, 13)),
    ("x1", lambda: torus_grid(2, (1.0, 1.0), 2)),
], ids=["beta", "t", "torus"])
def test_solve_refuses_an_aliasing_grid(hopf, flat_torus, axis, grid):
    # degree-6 monomials carry beta/gamma frequencies -6..6, the default
    # radial modes t-frequencies -2..2 and the torus modes -1..1 per axis:
    # on at most twice as many nodes two of them alias
    grid = grid()
    metric = (flat_torus if axis == "x1" else hopf).metric
    with pytest.raises(QuadratureUnsupported, match=f"the {axis} axis has"):
        solve_gauduchon(metric, grid)
    # the assembly is a plain transform on any grid, and shows the lost rank
    gram, _, _ = galerkin_matrices(metric, grid, volume_weights(metric, grid))
    if axis == "beta":
        evals = np.linalg.eigvalsh(gram)
        assert len(evals) == 140
        assert np.count_nonzero(evals <= 1e-9 * np.max(evals)) == 2


def _pencil_reference(gram, op):
    """The eigenvector of gram^-1 op of the smallest |eigenvalue|, real and
    of unit gram norm."""
    evals, evecs = np.linalg.eig(np.linalg.solve(gram, op))
    v = evecs[:, np.argmin(np.abs(evals))]
    v = np.real(v / v[np.argmax(np.abs(v))])
    return v / np.sqrt(v @ gram @ v)


@pytest.mark.parametrize("spec", [ManifoldSpec("hopf-conformal", conformal_t=0.2),
                                  ManifoldSpec("torus-hermitian-perturbed")],
                         ids=["hopf-conformal", "torus-hermitian-perturbed"])
def test_null_vector_is_the_pencil_eigenvector(spec):
    entry = build_manifold(spec)
    gram, op, _ = galerkin_matrices(entry.metric, entry.grid,
                                    volume_weights(entry.metric, entry.grid))
    v = _pencil_reference(gram, op)
    c = solve_gauduchon(entry.metric, entry.grid).coeffs
    d = c - np.sign(v @ gram @ c) * v
    assert np.sqrt(d @ gram @ d) <= 1e-12


def test_solver_iteration_budget(hopf, monkeypatch):
    monkeypatch.setattr(gauduchon, "MAX_ITER", 0)
    with pytest.raises(NonConvergence):
        solve_gauduchon(hopf.metric, hopf.grid)


def _factor_from_field(grid, fld):
    """The mean-zero factor of a smooth field: node values and field shifted by
    the node mean."""
    vals = np.real(fld.values(grid.nodes))
    mean = float(np.mean(vals))
    return ConformalFactor(vals - mean, fld - mean)


def test_factor_from_field_mean_zero(hopf, rng):
    f = hopf.random_scalar(rng, 0.2)
    factor = _factor_from_field(hopf.grid, f)
    assert abs(factor.mean) < 1e-12
    # the shifted field still reads the kept node values
    assert np.max(np.abs(np.real(factor.field.values(hopf.grid.nodes)) - factor.values)) < 1e-14


# ---------------------------------------------------------------------------
# totals and the conformal total-curvature identity
# ---------------------------------------------------------------------------


def _kept_total(entry):
    """The Chern total of the Gauduchon representative from the kept fields."""
    sol = solve_gauduchon(entry.metric, entry.grid, curvature=True)
    return _total_identity(entry.grid, sol.factor, sol.fields)[0]


def test_total_chern_flat(flat_torus):
    assert abs(_kept_total(flat_torus)) < 1e-12


def test_total_chern_hopf(hopf):
    expected = 2.0 * 8.0 * np.pi**2 * np.log(2.0)
    total = _kept_total(hopf)
    assert abs(total - expected) / expected < 1e-3


def test_total_chern_kahler_torus_vanishes(kahler_torus):
    # the trace form is a divergence: zero total under spectral quadrature
    assert abs(_kept_total(kahler_torus)) < 1e-6


def test_a_plain_solve_keeps_no_curvature_fields(conformal, conformal_solution):
    # only the total identity asks for s_C and s/2 + |T|^2/4
    fields = conformal_solution.fields
    assert fields.chern is None and fields.bulk is None
    assert len(fields.weights) == len(conformal.grid.nodes)
    assert all(len(c) == len(conformal.grid.nodes) for c in fields.coeffs)


def test_identity_on_gauduchon_input(hopf):
    chk = theorem_t_check(hopf.metric, hopf.grid)
    assert chk.residual < 1e-3
    assert abs(chk.gradient_term) < 1e-12  # factor is constant here


def test_identity_flat(flat_torus):
    chk = theorem_t_check(flat_torus.metric, flat_torus.grid)
    assert abs(chk.lhs) < 1e-10 and abs(chk.rhs) < 1e-10


@pytest.mark.parametrize("t", [0.1, 0.2])
def test_identity_conformal_family(t):
    entry = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=t))
    chk = theorem_t_check(entry.metric, entry.grid)
    assert chk.residual < 1e-3
    assert chk.gradient_term > 1e-6  # genuinely nonconstant factor
    # e^(-t g) h_standard has the Gauduchon factor t g, and the total Chern
    # scalar of the Gauduchon representative is that of h_standard
    expected = 16.0 * np.pi**2 * np.log(2.0)
    assert abs(chk.lhs / expected - 1.0) < {0.1: 1e-10, 0.2: 1e-7}[t]
    tg = t * np.real(hopf_conformal_direction()(entry.grid.nodes).val)
    assert np.max(np.abs(chk.factor.values - (tg - tg.mean()))) <= 1e-4


def test_refined_level_meets_the_solver_gate_on_the_conformal_family(conformal):
    # HopfBasis(4, 6) read 1.717e-7 against the 1e-6 gate, and its total
    # 7.0e-11 relative to 16 pi^2 log 2
    grid = replace(hopf_grid(10, 12, 13, 13), basis=HopfBasis(4, 6))
    sol = solve_gauduchon(conformal.metric, grid, curvature=True)
    assert solved_residual(sol, grid) <= DEFAULT_TOLERANCES["solver_hopf"]
    total = _total_identity(grid, sol.factor, sol.fields)[0]
    assert abs(total / (16.0 * np.pi**2 * np.log(2.0)) - 1.0) <= 1e-9


@pytest.mark.parametrize("mid", ["hopf-conformal", "torus-hermitian-perturbed",
                                 "torus-kahler-potential"])
def test_total_identity_lhs_is_the_composed_chern_total(mid, monkeypatch):
    # the Chern side reads the fields that the assembly kept from its one
    # CxBlocks per chunk, and no metric jet of its own; the reference
    # composes e^f h and integrates its s_C against its volume
    entry = build_manifold(ManifoldSpec(mid, conformal_t=0.2))
    grid = entry.grid
    f = _factor_from_field(grid, entry.random_scalar(rng_from_seed(71), 0.3))
    built = []
    init, jet = tensors.CxBlocks.__init__, type(entry.metric).jet
    monkeypatch.setattr(tensors.CxBlocks, "__init__",
                        lambda cx, *args: built.append(1) or init(cx, *args))
    *_, fields = galerkin_matrices(entry.metric, grid, volume_weights(entry.metric, grid),
                                   curvature=True)
    assert len(built) == -(-len(grid.nodes) // NODE_CHUNK)
    monkeypatch.setattr(type(entry.metric), "jet", lambda m, z: built.append(1) or jet(m, z))
    built.clear()
    lhs, *_ = _total_identity(grid, f, fields)
    assert not built
    composed = conformal_metric(entry.metric, f)
    s_c = np.concatenate([tensors.chern_ricci(composed, grid.nodes[lo : lo + NODE_CHUNK])[1]
                          for lo in range(0, len(grid.nodes), NODE_CHUNK)])
    want = float(np.sum(volume_weights(composed, grid) * s_c))
    assert abs(lhs - want) <= max(1e-12 * abs(want), 1e-14)


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
    # the computed Chern-side total is reported, with no sign claimed
    assert v.sign == "uncertified"
    sol = solve_gauduchon(perturbed_torus.metric, perturbed_torus.grid, curvature=True)
    lhs, *_ = _total_identity(perturbed_torus.grid, sol.factor, sol.fields)
    assert v.total_chern_scalar != 0.0 and v.total_chern_scalar == lhs


def test_verdict_invariant_enforced():
    with pytest.raises(ValueError):
        Verdict("x", 1.0, "positive", KodairaStatement.KAHLER_CY)
    with pytest.raises(ValueError):
        Verdict("x", 0.0, "zero", KodairaStatement.NOT_PSEF)
