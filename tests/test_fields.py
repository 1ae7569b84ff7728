"""The random adjoint-suite fields against their term-by-term construction,
and the pending Hessians of their term tables."""

import numpy as np
import pytest

from curvlab.catalog import ManifoldSpec, build_manifold, hopf_conformal_direction, rng_from_seed
from curvlab.fields import (
    HopfTerms,
    OneFormField,
    ScalarField,
    TorusTerms,
    hopf_monomial,
    hopf_radial_mode,
    random_hopf_oneform,
    random_hopf_scalar,
    random_torus_oneform,
    random_torus_scalar,
    torus_mode,
)
from curvlab.geometry import volume_weights
from curvlab.jets import Jet2, coordinate_jets, squared_radius
from curvlab.tensors import CxBlocks

# ---------------------------------------------------------------------------
# reference: each term its own jet, summed with Jet2 arithmetic
# ---------------------------------------------------------------------------


def reference_torus_scalar(rng, n, periods, amplitude=0.1, kmax=2, modes=4):
    terms = []
    for _ in range(modes):
        while True:
            m = rng.integers(-kmax, kmax + 1, size=n)
            l = rng.integers(-kmax, kmax + 1, size=n)
            if np.any(m) or np.any(l):
                break
        c = (rng.normal() + 1j * rng.normal()) * amplitude / modes
        terms.append((m, l, c))

    def fn(z):
        out = None
        for m, l, c in terms:
            mode = torus_mode(m, l, periods, c)(z)
            out = mode if out is None else out + mode
        return out.real() * 2.0

    return ScalarField(fn)


def reference_torus_oneform(rng, n, periods, amplitude=0.1, kmax=2, modes=3):
    comps = []
    for _ in range(n):
        re = reference_torus_scalar(rng, n, periods, amplitude, kmax, modes)
        im = reference_torus_scalar(rng, n, periods, amplitude, kmax, modes)
        comps.append(ScalarField(lambda z, re=re, im=im: re(z) + im(z) * 1j))
    return OneFormField(comps)


def reference_hopf_scalar(rng, amplitude=0.1, kmax=2, modes=4):
    monos = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)),
             ((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (0, 0))]
    terms = []
    for _ in range(modes):
        k = int(rng.integers(-kmax, kmax + 1))
        a, b = monos[int(rng.integers(0, len(monos)))]
        c = (rng.normal() + 1j * rng.normal()) * amplitude / modes
        terms.append((k, a, b, c))

    def fn(z):
        out = None
        for k, a, b, c in terms:
            t = hopf_radial_mode(k)(z) * hopf_monomial(a, b)(z) * c
            out = t if out is None else out + t
        return out.real() * 2.0

    return ScalarField(fn)


def reference_hopf_oneform(rng, amplitude=0.1, kmax=2, modes=3):
    comps = []
    for i in range(2):
        fr = reference_hopf_scalar(rng, amplitude, kmax, modes)
        fi = reference_hopf_scalar(rng, amplitude, kmax, modes)

        def comp(z, i=i, fr=fr, fi=fi):
            weight = coordinate_jets(z)[1][i] * squared_radius(z).reciprocal()
            return (fr(z) + fi(z) * 1j) * weight

        comps.append(ScalarField(comp))
    return OneFormField(comps)


# ---------------------------------------------------------------------------
# the families under test, drawn as the adjoint suite draws a triple
# ---------------------------------------------------------------------------

PERIODS = (1.0, 1.0)

FAMILIES = {
    "torus": (
        lambda rng: random_torus_scalar(rng, 2, PERIODS, 0.1),
        lambda rng: random_torus_oneform(rng, 2, PERIODS, 0.1),
        lambda rng: reference_torus_scalar(rng, 2, PERIODS, 0.1),
        lambda rng: reference_torus_oneform(rng, 2, PERIODS, 0.1),
    ),
    "hopf": (
        lambda rng: random_hopf_scalar(rng, 0.1),
        lambda rng: random_hopf_oneform(rng, 0.1),
        lambda rng: reference_hopf_scalar(rng, 0.1),
        lambda rng: reference_hopf_oneform(rng, 0.1),
    ),
}


def _draw(scalar, oneform, rng):
    return scalar(rng), oneform(rng), scalar(rng)


def _triples(family, seed):
    scalar, oneform, ref_scalar, ref_oneform = FAMILIES[family]
    rng, ref_rng = rng_from_seed(seed), rng_from_seed(seed)
    return _draw(scalar, oneform, rng), _draw(ref_scalar, ref_oneform, ref_rng), rng, ref_rng


def _entry(family, flat_torus, hopf):
    return flat_torus if family == "torus" else hopf


def _close(got, want, tol=1e-13):
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    return float(np.max(err)) <= tol


def _jets(fields, z):
    f, eta, phi = fields
    return [f(z), phi(z)] + eta.jets(z)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_fields_match_term_by_term_reference_at_points(family, flat_torus, hopf):
    got, want, _, _ = _triples(family, seed=31)
    z = _entry(family, flat_torus, hopf).random_points(rng_from_seed(32), 64)
    for g, w in zip(_jets(got, z), _jets(want, z)):
        for part in ("val", "d1", "d2"):
            assert _close(getattr(g, part), getattr(w, part)), part


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_fields_match_term_by_term_reference_on_grid(family, flat_torus, hopf):
    got, want, _, _ = _triples(family, seed=33)
    nodes = _entry(family, flat_torus, hopf).grid.nodes
    for g, w in zip(_jets(got, nodes), _jets(want, nodes)):
        assert _close(g.val, w.val)
        assert _close(g.d1, w.d1)
    # the path the weak identities take
    ev, deta = got[1].values_and_dbar(nodes)
    ev_ref, deta_ref = want[1].values_and_dbar(nodes)
    assert _close(ev, ev_ref) and _close(deta, deta_ref)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_fields_consume_the_reference_draws(family):
    _, _, rng, ref_rng = _triples(family, seed=35)
    assert np.array_equal(rng.random(8), ref_rng.random(8))


def test_scalar_values_are_exactly_real(hopf, flat_torus):
    for family in FAMILIES:
        got, _, _, _ = _triples(family, seed=36)
        z = _entry(family, flat_torus, hopf).random_points(rng_from_seed(37), 16)
        assert np.all(got[0](z).val.imag == 0.0)


def test_hopf_fields_exact_where_a_coordinate_vanishes():
    # no coordinate is divided by, so z_i = 0 is an ordinary point
    got, want, _, _ = _triples("hopf", seed=38)
    z = np.array([[1.0 + 0.0j, 0.0], [0.0, 0.7 - 0.4j], [0.3j, 1.2]])
    for g, w in zip(_jets(got, z), _jets(want, z)):
        for part in ("val", "d1", "d2"):
            assert np.all(np.isfinite(getattr(g, part)))
            assert _close(getattr(g, part), getattr(w, part)), part


def test_single_point_keeps_its_shape(hopf, flat_torus):
    for family in FAMILIES:
        got, want, _, _ = _triples(family, seed=39)
        z = _entry(family, flat_torus, hopf).random_points(rng_from_seed(40), 1)[0]
        g, w = got[0](z), want[0](z)
        assert g.val.shape == () and g.d1.shape == (4,) and g.d2.shape == (4, 4)
        assert _close(g.d2, w.d2)


# ---------------------------------------------------------------------------
# the direction of the hopf-conformal family
# ---------------------------------------------------------------------------


def reference_conformal_direction():
    """g = 0.25 cos + 0.2 cos * 2 Re(z1 zbar2 / |z|^2), as Jet2 closures."""
    cos1 = ScalarField(lambda z: hopf_radial_mode(1)(z).real())
    y = ScalarField(lambda z: hopf_monomial((1, 0), (0, 1))(z).real() * 2.0)
    return cos1 * 0.25 + (cos1 * y) * 0.2


def test_conformal_direction_matches_closure_reference(hopf):
    got, want = hopf_conformal_direction(), reference_conformal_direction()
    zeros = np.array([[0.0, 1.3 + 0.2j], [0.7j, 0.0], [1.5, 0.0], [0.0, -1.1]])
    for z in (hopf.grid.nodes, zeros):
        g, w = got(z), want(z)
        for part in ("val", "d1", "d2"):
            assert np.all(np.isfinite(getattr(g, part)))
            assert _close(getattr(g, part), getattr(w, part)), part


# ---------------------------------------------------------------------------
# pending Hessians: value and gradient reads never build second derivatives
# ---------------------------------------------------------------------------


@pytest.fixture()
def no_hessians(monkeypatch):
    """Make every term table's second-order routine raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a Hessian was computed")

    monkeypatch.setattr(HopfTerms, "hessian", forbidden)
    monkeypatch.setattr(TorusTerms, "hessian", forbidden)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_value_and_gradient_reads_compute_no_hessian(family, flat_torus, hopf, no_hessians):
    (f, eta, phi), _, _, _ = _triples(family, seed=41)
    nodes = _entry(family, flat_torus, hopf).grid.nodes
    ev, deta = eta.values_and_dbar(nodes)
    assert np.all(np.isfinite(ev)) and np.all(np.isfinite(deta))
    assert np.all(np.isfinite(f.values(nodes)))
    jet = (phi * 0.5 - 0.25)(nodes)
    assert jet.pending and np.all(np.isfinite(jet.d1))
    with pytest.raises(AssertionError, match="Hessian"):
        jet.d2


def test_torus_metric_blocks_without_second_derivatives_compute_no_hessian(
        perturbed_torus, no_hessians):
    # CxBlocks without second derivatives reads H and d1 alone
    cx = CxBlocks(perturbed_torus.metric.jet(perturbed_torus.grid.nodes), need_second=False)
    assert np.all(np.isfinite(cx.Hinv)) and np.all(np.isfinite(cx.d1H))


def test_hopf_conformal_values_compute_no_hessian(no_hessians):
    entry = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.1))  # screens values
    H = entry.metric.value(entry.grid.nodes)
    w = volume_weights(entry.metric, entry.grid)
    assert np.all(np.isfinite(H)) and np.all(w > 0)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pending_hessian_keeps_the_original_points(family, flat_torus, hopf):
    (f, eta, _), _, _, _ = _triples(family, seed=42)
    entry = _entry(family, flat_torus, hopf)
    z = entry.random_points(rng_from_seed(43), 32)
    want = [f(z).d2] + [j.d2 for j in eta.jets(z)]
    buf = z.copy()
    jets = [f(buf)] + eta.jets(buf)
    buf[:] = entry.random_points(rng_from_seed(44), 32)  # the caller reuses its buffer
    for jet, w in zip(jets, want):
        assert jet.pending
        assert np.array_equal(jet.d2, w)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("op", [lambda j: j * 0.3, lambda j: j * (0.2 - 1.1j), lambda j: 2.5 * j,
                                lambda j: j + 0.7, lambda j: 1.5 + j, lambda j: j - 0.4,
                                lambda j: 0.4 - j, lambda j: -j, lambda j: j.conj()])
def test_number_arithmetic_keeps_pending_and_matches_eager(family, flat_torus, hopf, op):
    (f, _, _), _, _, _ = _triples(family, seed=45)
    z = _entry(family, flat_torus, hopf).random_points(rng_from_seed(46), 16)
    pending = f(z)
    eager = Jet2(pending.n, pending.val, pending.d1, f(z).d2)
    got, want = op(pending), op(eager)
    assert got.pending and want.pending and pending.pending
    for part in ("val", "d1", "mixed", "d2"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part
    assert not pending.pending  # the result's Hessian read the operand's
