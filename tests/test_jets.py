"""Jet arithmetic against finite differences and hand values."""

import numpy as np
import pytest

from curvlab.geometry import DerivativeEngine
from curvlab.jets import Jet2, _outer, coordinate_jets, exp_linear, squared_radius


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

    j = Jet2(2, 1.0, np.zeros(4), hessian, np.zeros((2, 2)))
    k = (j * 2.0 + 1.0).conj()
    assert j.pending and k.pending and not calls
    assert np.array_equal(k.d2, 2.0 * np.eye(4)) and np.array_equal(j.d2, np.eye(4))
    assert calls == [1] and not k.pending


# ---------------------------------------------------------------------------
# the one rule: the mixed block now, the full Hessian on first read
# ---------------------------------------------------------------------------


class Eager:
    """The jet algebra with every Hessian formed at once, written out
    independently of Jet2: the reference that its forced Hessians equal."""

    def __init__(self, n, val, d1, d2):
        self.n, self.val, self.d1, self.d2 = n, val, d1, d2

    def _jet(self, c):
        if isinstance(c, Eager):
            return c
        return Eager(self.n, np.full(self.val.shape, c, dtype=complex),
                     np.zeros_like(self.d1), np.zeros_like(self.d2))

    def __add__(self, o):
        o = self._jet(o)
        return Eager(self.n, self.val + o.val, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Eager(self.n, -self.val, -self.d1, -self.d2)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, Eager):
            return Eager(self.n, self.val * o, self.d1 * o, self.d2 * o)
        cross = _outer(self.d1, o.d1)
        return Eager(self.n, self.val * o.val,
                     self.d1 * o.val[..., None] + o.d1 * self.val[..., None],
                     self.d2 * o.val[..., None, None] + o.d2 * self.val[..., None, None]
                     + (cross + np.swapaxes(cross, -1, -2)))

    __rmul__ = __mul__

    def _chain(self, f0, f1, f2):
        sq = _outer(self.d1, self.d1)
        return Eager(self.n, f0, f1[..., None] * self.d1, f1[..., None, None] * self.d2
                     + f2[..., None, None] * ((sq + np.swapaxes(sq, -1, -2)) * 0.5))

    def reciprocal(self):
        v = self.val
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __truediv__(self, o):
        return self * self._jet(o).reciprocal()

    def __rtruediv__(self, o):
        return self.reciprocal() * o

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = self._jet(1.0)
            for _ in range(p):
                out = out * self
            return out
        v = self.val
        return self._chain(v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def exp(self):
        e = np.exp(self.val)
        return self._chain(e, e, e)

    def log(self):
        v = self.val
        return self._chain(np.log(v), 1.0 / v, -1.0 / v**2)

    def conj(self):
        n = self.n
        idx = np.r_[n : 2 * n, 0:n]
        return Eager(n, np.conj(self.val), np.conj(self.d1[..., idx]),
                     np.conj(self.d2[..., idx, :][..., :, idx]))

    def real(self):
        return (self + self.conj()) * 0.5

    def imag(self):
        return (self - self.conj()) * (-0.5j)


# every Jet2 operation: with a number, with a jet, the chain rule and
# conjugation, alone and composed (j ** 0 is not derived: it is the
# constant jet 1)
JET_OPS = [
    lambda j: j.exp(), lambda j: j.log(), lambda j: j ** 0.5, lambda j: j ** -1.5,
    lambda j: j ** (0.3 + 2.0j), lambda j: j.reciprocal(), lambda j: 1.0 / j,
    lambda j: j * 0.3, lambda j: j * (0.2 - 1.1j), lambda j: 2.5 * j, lambda j: j + 0.7,
    lambda j: 1.5 + j, lambda j: j - 0.4, lambda j: 0.4 - j, lambda j: -j, lambda j: j.conj(),
    lambda j: j + j.conj(), lambda j: j.real(), lambda j: j.imag(), lambda j: j - (j * 0.5).exp(),
    lambda j: ((j * 0.5 + 1.0).log() * 2.0 - 0.1).exp(),
    lambda j: j * j, lambda j: j * j.conj(), lambda j: (j * 0.5).exp() * j.log(),
    lambda j: j / (j.conj() + 2.0), lambda j: j.exp() / j, lambda j: j ** 1,
    lambda j: j ** 3, lambda j: (j + j.conj()) * (j - 0.5), lambda j: (j * j.imag()).real(),
]


def pending_with_mixed(rng, n=2, count=6):
    """A pending jet of `composite` whose mixed block is given, and that
    jet as the eager reference."""
    j = composite(random_points(rng, count, n))
    d2 = j.d2
    return Jet2(n, j.val, j.d1, d2.copy, d2[..., :n, n:].copy()), Eager(n, j.val, j.d1, d2)


def test_products_and_the_chain_rule_give_exactly_symmetric_hessians(rng):
    # `conj` transposes the mixed block, which is the slice of the forced
    # Hessian bit for bit only where d2 is exactly symmetric
    z = random_points(rng, 6)
    d2 = composite(z).d2
    assert np.array_equal(d2, np.swapaxes(d2, -1, -2))
    for j in ((composite(z) * 0.5 + 1.0).log(), composite(z) * composite(z),
              exp_linear(z, [0.3 + 1j, -0.2j], [0.1, 0.7 - 0.4j])):
        assert np.array_equal(j.d2, np.swapaxes(j.d2, -1, -2))


@pytest.mark.parametrize("op", JET_OPS)
def test_eager_mixed_block_is_the_slice_of_the_forced_hessian(rng, op):
    # every derived jet forms its mixed block now and leaves d2 pending, from
    # a pending operand and from an eager one alike
    n = 2
    j, ref = pending_with_mixed(rng, n)
    got = op(j)
    mixed, before = got.mixed, got.mixed.copy()
    assert got.pending and j.pending  # forming the block forced nothing
    assert op(Jet2(n, ref.val, ref.d1, ref.d2)).pending
    # forcing d2 leaves the block as it was, and the block is its mixed slice
    d2 = got.d2
    assert got.mixed is mixed and np.array_equal(mixed, before)
    assert np.array_equal(mixed, d2[..., :n, n:])
    # and the forced Hessian is the one that every Hessian formed at once gives
    want = op(ref)
    for part in ("val", "d1", "d2"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_sums_of_pending_jets_stay_pending(rng):
    # exp_linear forms its mixed block now and leaves d2 pending; the sum of
    # two such jets stays pending, and its block is the slice of the summed
    # Hessians bit for bit
    z = random_points(rng, 9)
    a, b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    e1, e2 = exp_linear(z, a, b, 0.7), exp_linear(z, b, a, -1.3j)
    assert e1.pending and np.array_equal(e1.mixed, e1.d2[..., :2, 2:])
    total = exp_linear(z, a, b, 0.7) + exp_linear(z, b, a, -1.3j)
    mixed = total.mixed
    assert total.pending
    assert np.array_equal(mixed, total.d2[..., :2, 2:])
    assert np.array_equal(total.d2, e1.d2 + e2.d2)
    # so does a sum with a jet built from an eager Hessian
    assert (exp_linear(z, a, b) + squared_radius(z)).pending


def test_forced_hessians_take_the_mixed_block(rng):
    full = composite(random_points(rng, 5))
    mixed = full.mixed + 1e-3  # any block: the forced Hessian must carry it
    calls = []
    jet = Jet2(2, full.val, full.d1, lambda: calls.append(1) or full.d2.copy(), mixed)
    assert jet.pending and not calls
    assert np.array_equal(jet.d2[..., :2, 2:], mixed)
    assert np.array_equal(jet.d2[..., 2:, :2], np.swapaxes(mixed, -1, -2))
    assert np.array_equal(jet.d2[..., :2, :2], full.d2[..., :2, :2]) and calls == [1]

