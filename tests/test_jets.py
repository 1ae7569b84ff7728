"""Jet arithmetic against finite differences and hand values."""

import numpy as np
import pytest

from curvlab.geometry import DerivativeEngine
from curvlab.jets import Jet2, MixedJet, coordinate_jets, exp_linear, squared_radius


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


# ---------------------------------------------------------------------------
# the eager mixed block of a pending jet
# ---------------------------------------------------------------------------

# operations that keep a pending Hessian pending and carry the mixed block
MIXED_FIRST_OPS = [
    lambda j: j.exp(), lambda j: j.log(), lambda j: j ** 0.5, lambda j: j ** -1.5,
    lambda j: j ** (0.3 + 2.0j), lambda j: j.reciprocal(), lambda j: 1.0 / j,
    lambda j: j * 0.3, lambda j: j * (0.2 - 1.1j), lambda j: 2.5 * j, lambda j: j + 0.7,
    lambda j: 1.5 + j, lambda j: j - 0.4, lambda j: 0.4 - j, lambda j: -j, lambda j: j.conj(),
    lambda j: ((j * 0.5 + 1.0).log() * 2.0 - 0.1).exp(),
]


def pending_with_mixed(rng, n=2, count=6):
    """A pending jet of `composite` whose mixed block is given eagerly.

    Its Hessian is made exactly symmetric: `conj` transposes the mixed
    block, which matches the slice of the forced Hessian bit for bit only
    where d2 is.  (Products and the chain rule keep d2 symmetric to
    rounding, not bit for bit, so conj is applied to this jet directly.)
    """
    j = composite(random_points(rng, count, n))
    d2 = (j.d2 + np.swapaxes(j.d2, -1, -2)) * 0.5
    return Jet2(n, j.val, j.d1, lambda: d2, d2[..., :n, n:]), d2


@pytest.mark.parametrize("op", MIXED_FIRST_OPS)
def test_eager_mixed_block_is_the_slice_of_the_forced_hessian(rng, op):
    n = 2
    j, d2 = pending_with_mixed(rng, n)
    got = op(j)
    mixed = got.mixed
    assert got.pending and j.pending  # reading the block forced nothing
    assert np.array_equal(mixed, got.d2[..., :n, n:])
    # and the forced Hessian is the one the eager operand gives
    want = op(Jet2(n, j.val, j.d1, d2))
    assert not want.pending
    for part in ("val", "d1", "d2"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_chain_on_a_pending_jet_without_a_mixed_block(rng):
    # the block is then sliced from the operand's Hessian, which is forced
    # once; the result stays pending
    z = random_points(rng, 5)
    full = composite(z)
    calls = []

    def hessian():
        calls.append(1)
        return full.d2

    got = Jet2(2, full.val, full.d1, hessian).exp()
    assert got.pending and calls == [1]
    assert np.array_equal(got.mixed, got.d2[..., :2, 2:])
    assert np.array_equal(got.d2, full.exp().d2) and calls == [1]


def test_products_force_a_pending_hessian(rng):
    j, d2 = pending_with_mixed(rng)
    out = j * j
    assert not out.pending and not j.pending
    assert np.array_equal(out.d2, (Jet2(2, j.val, j.d1, d2) * Jet2(2, j.val, j.d1, d2)).d2)


def test_mixed_jet_sum_and_real_part_match_jet2(rng):
    z = random_points(rng, 7)
    a, b = composite(z), squared_radius(z) * (0.3 - 0.7j)
    for got, want in ((MixedJet.of(a) + MixedJet.of(b), a + b), (MixedJet.of(a).real(), a.real())):
        assert np.array_equal(got.val, want.val) and np.array_equal(got.d1, want.d1)
        assert np.max(np.abs(got.mixed - want.mixed)) <= 1e-15 * np.max(np.abs(want.mixed))
