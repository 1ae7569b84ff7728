"""Jet arithmetic against finite differences and hand values."""

import numpy as np

from curvlab.geometry import DerivativeEngine
from curvlab.jets import Jet2, coordinate_jets, exp_linear, squared_radius


def random_points(rng, count, n=2):
    return rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))


def composite(z):
    zs, zbs = coordinate_jets(z)
    return (zs[0] * zbs[1] * 0.3).exp() / (1.0 + squared_radius(z)) + (
        1.0 + zs[1] * zbs[1]
    ).log() * 0.5


def test_squared_radius_hessian(rng):
    z = random_points(rng, 7)
    j = squared_radius(z)
    assert np.allclose(j.val, np.sum(np.abs(z) ** 2, axis=-1))
    # d_i d_jbar |z|^2 = delta_ij, all other second derivatives vanish
    n = 2
    mixed = j.d2[..., :n, n:]
    assert np.allclose(mixed, np.eye(n))
    assert np.allclose(j.d2[..., :n, :n], 0.0)


def test_jets_match_finite_differences(rng):
    z = random_points(rng, 5)
    eng = DerivativeEngine(mode="fd", step=1e-3)
    ana = composite(z)
    fd = eng.scalar_jet(lambda p: composite(p).val, z)
    assert np.max(np.abs(ana.d1 - fd.d1)) < 1e-9
    assert np.max(np.abs(ana.d2 - fd.d2)) < 1e-7


def test_conjugation_swaps_slots(rng):
    z = random_points(rng, 4)
    j = composite(z)
    c = j.conj()
    n = 2
    assert np.allclose(c.val, np.conj(j.val))
    assert np.allclose(c.d1[..., :n], np.conj(j.d1[..., n:]))
    assert np.allclose(c.d2[..., :n, :n], np.conj(j.d2[..., n:, n:]))


def test_real_field_has_conjugate_derivatives(rng):
    z = random_points(rng, 4)
    j = composite(z).real()
    n = 2
    assert np.max(np.abs(np.imag(j.val))) < 1e-14
    assert np.allclose(j.d1[..., :n], np.conj(j.d1[..., n:]))


def test_division_and_powers(rng):
    z = random_points(rng, 6)
    r2 = squared_radius(z)
    assert np.allclose((r2 / r2).val, 1.0)
    assert np.allclose((r2**3).val, r2.val**3)
    assert np.allclose((r2**0.5).val, np.sqrt(r2.val))
    assert np.allclose((r2 ** (-1)).val, 1.0 / r2.val)
    p = r2 ** (0.5j)
    assert np.allclose(p.val, np.exp(0.5j * np.log(r2.val)))


def test_exp_linear_matches_manual(rng):
    z = random_points(rng, 5)
    a = np.array([0.3 + 1j, -0.2j])
    b = np.array([0.1, 0.7 - 0.4j])
    j = exp_linear(z, a, b, 1.5)
    manual = 1.5 * np.exp(z @ a + np.conj(z) @ b)
    assert np.allclose(j.val, manual)
    assert np.allclose(j.d1[..., 0], manual * a[0])
    assert np.allclose(j.d1[..., 3], manual * b[1])


def test_constant_jet_shapes():
    c = Jet2.constant(3, 2.5, (4,))
    assert c.val.shape == (4,)
    assert c.d1.shape == (4, 6)
    assert np.allclose(c.d2, 0.0)


def test_number_arithmetic_matches_constant_jet_arithmetic(rng):
    # the plain-number path skips the zero jet a constant would bring
    j = composite(random_points(rng, 6))
    for c in (0.3, -1.7, 0.2 - 1.1j):
        const = Jet2.constant(j.n, c)
        for got, want in ((j * c, j * const), (j + c, j + const), (j - c, j - const),
                          (c - j, -j + const)):
            for part in ("val", "d1", "d2"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_pending_hessian_is_computed_once_on_read():
    calls = []

    def hessian():
        calls.append(1)
        return np.eye(4)

    j = Jet2(2, 1.0, np.zeros(4), hessian)
    k = (j * 2.0 + 1.0).conj()
    assert j.pending and k.pending and not calls
    assert np.array_equal(k.d2, 2.0 * np.eye(4)) and np.array_equal(j.d2, np.eye(4))
    assert calls == [1] and not k.pending
