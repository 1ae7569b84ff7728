"""Second-order Wirtinger jets.

A :class:`Jet2` carries the value of a field together with its first and
second derivatives with respect to the 2n letters (d/dz^1 .. d/dz^n,
d/dzbar^1 .. d/dzbar^n).  Arithmetic propagates derivatives by the product
and chain rules, so any field composed from coordinate jets comes with
exact analytic derivatives.  All components broadcast over leading batch
axes, which lets a single expression evaluate a field on a whole grid.

Slot convention: index A in [0, n) is the holomorphic derivative d/dz^A,
index n + A is the antiholomorphic derivative d/dzbar^A.

Every jet follows one rule: its value, gradient and mixed block
d_i d_jbar (`mixed`) are formed at construction, and the full Hessian of
every derived jet is pending (a zero-argument callable, computed on the
first read of `d2` and kept).  The Gauduchon operator, the Chern-Ricci
form and the conformal law read the mixed block alone, so a field
evaluated on a whole grid for them never builds its full second
derivatives; only the real-coordinate oracle forces `d2`.
"""

from __future__ import annotations

import numpy as np


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _square(rows, cols):
    """The block (rows, cols) of (d1 d1 + (d1 d1)^T) / 2 for the slot slices
    rows and cols of one gradient d1.  Complex products are not bit for bit
    commutative, so d1 d1 alone is symmetric only to rounding; this is
    exactly symmetric, and a block is the slice of the whole square."""
    return (_outer(rows, cols) + np.swapaxes(_outer(cols, rows), -1, -2)) * 0.5


class Jet2:
    """Value, gradient and Hessian of a scalar field in Wirtinger slots.

    `d2` is an array, or a zero-argument callable returning a new array
    that runs on the first read of `d2` (a pending Hessian).  `mixed` is
    the block d2[..., :n, n:]: given with a pending Hessian, sliced once
    from an eager one.  A forced Hessian takes the block and its
    transpose in its mixed slots, so `mixed` reads the same before and
    after forcing and d2 is exactly symmetric there (which `conj` needs).
    """

    __slots__ = ("n", "val", "d1", "_d2", "mixed")

    def __init__(self, n: int, val, d1, d2, mixed=None):
        self.n = n
        self.val = np.asarray(val, dtype=complex)
        self.d1 = np.asarray(d1, dtype=complex)
        self._d2 = d2 if callable(d2) else np.asarray(d2, dtype=complex)
        self.mixed = self._d2[..., :n, n:] if mixed is None else np.asarray(mixed, dtype=complex)

    @property
    def d2(self) -> np.ndarray:
        if callable(self._d2):
            n, d2 = self.n, np.asarray(self._d2(), dtype=complex)
            d2[..., :n, n:] = self.mixed
            d2[..., n:, :n] = np.swapaxes(self.mixed, -1, -2)
            self._d2 = d2
        return self._d2

    @property
    def pending(self) -> bool:
        """True while the Hessian has not been computed."""
        return callable(self._d2)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, n: int, c, batch_shape=()):
        val = np.broadcast_to(np.asarray(c, dtype=complex), batch_shape).copy()
        d1 = np.zeros(batch_shape + (2 * n,), dtype=complex)
        d2 = np.zeros(batch_shape + (2 * n, 2 * n), dtype=complex)
        return cls(n, val, d1, d2)

    @classmethod
    def coordinate(cls, z, k: int):
        """Jet of the coordinate function z^k at the points z (..., n)."""
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        batch = z.shape[:-1]
        d1 = np.zeros(batch + (2 * n,), dtype=complex)
        d1[..., k] = 1.0
        d2 = np.zeros(batch + (2 * n, 2 * n), dtype=complex)
        return cls(n, z[..., k], d1, d2)

    @classmethod
    def coordinate_conj(cls, z, k: int):
        """Jet of the conjugate coordinate zbar^k."""
        z = np.asarray(z, dtype=complex)
        n = z.shape[-1]
        batch = z.shape[:-1]
        d1 = np.zeros(batch + (2 * n,), dtype=complex)
        d1[..., n + k] = 1.0
        d2 = np.zeros(batch + (2 * n, 2 * n), dtype=complex)
        return cls(n, np.conj(z[..., k]), d1, d2)

    # -- helpers -------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(self.n, other, np.shape(np.asarray(other)))

    @staticmethod
    def _plain(other) -> bool:
        """A number (not a jet, not an array): the cheap arithmetic case."""
        return not isinstance(other, Jet2) and np.ndim(other) == 0

    def _chain(self, f0, f1, f2):
        """Jet of F(self) given F, F', F'' evaluated at self.val.

        The mixed block is mixed' = F' mixed + F'' d1[:n] d1[n:], by the
        same operations as the mixed slots of the Hessian.
        """
        n = self.n
        mixed = f1[..., None, None] * self.mixed + f2[..., None, None] * _square(
            self.d1[..., :n], self.d1[..., n:])
        return Jet2(n, f0, f1[..., None] * self.d1, lambda: f1[..., None, None] * self.d2
                    + f2[..., None, None] * _square(self.d1, self.d1), mixed)

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        if self._plain(other):
            return Jet2(self.n, self.val + other, self.d1.copy(), lambda: self.d2.copy(),
                        self.mixed.copy())
        o = self._lift(other)
        return Jet2(self.n, self.val + o.val, self.d1 + o.d1, lambda: self.d2 + o.d2,
                    self.mixed + o.mixed)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.n, -self.val, -self.d1, lambda: -self.d2, -self.mixed)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._plain(other):
            return Jet2(self.n, self.val * other, self.d1 * other,
                        lambda: self.d2 * other, self.mixed * other)
        o, n = self._lift(other), self.n
        val = self.val * o.val
        d1 = self.d1 * o.val[..., None] + o.d1 * self.val[..., None]

        def d2():
            cross = _outer(self.d1, o.d1)
            return (self.d2 * o.val[..., None, None] + o.d2 * self.val[..., None, None]
                    + (cross + np.swapaxes(cross, -1, -2)))

        # the mixed slots of d2: cross[i, n + j] + cross[n + j, i]
        mixed = (self.mixed * o.val[..., None, None] + o.mixed * self.val[..., None, None]
                 + (_outer(self.d1[..., :n], o.d1[..., n:])
                    + np.swapaxes(_outer(self.d1[..., n:], o.d1[..., :n]), -1, -2)))
        return Jet2(n, val, d1, d2, mixed)

    __rmul__ = __mul__

    def reciprocal(self):
        v = self.val
        return self._chain(1.0 / v, -1.0 / v**2, 2.0 / v**3)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet2.constant(self.n, 1.0, self.val.shape)
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
        """Jet of the conjugate field; swaps holomorphic slots.

        The conjugate's mixed block d_i d_jbar conj(F) = conj(d_j d_ibar F)
        is the conjugate transpose of the mixed block.
        """
        n = self.n
        idx = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        d1 = np.conj(self.d1[..., idx])
        return Jet2(n, np.conj(self.val), d1, lambda: np.conj(self.d2[..., idx, :][..., :, idx]),
                    np.conj(np.swapaxes(self.mixed, -1, -2)))

    def real(self):
        return (self + self.conj()) * 0.5

    def imag(self):
        return (self - self.conj()) * (-0.5j)


def coordinate_jets(z):
    """All 2n coordinate jets (z^1..z^n, zbar^1..zbar^n) at points z."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    zs = [Jet2.coordinate(z, k) for k in range(n)]
    zbs = [Jet2.coordinate_conj(z, k) for k in range(n)]
    return zs, zbs


def squared_radius(z):
    """Jet of |z|^2 = sum_k z^k zbar^k."""
    zs, zbs = coordinate_jets(z)
    out = zs[0] * zbs[0]
    for k in range(1, len(zs)):
        out = out + zs[k] * zbs[k]
    return out


def exp_linear(z, a, b, coeff=1.0):
    """Jet of coeff * exp(a . z + b . zbar); the workhorse for periodic modes.

    Its mixed block is formed now and its Hessian is pending.
    """
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ab = np.concatenate([a, b])
    ab2 = _square(ab, ab)  # exactly symmetric
    phase = z @ a + np.conj(z) @ b
    val = coeff * np.exp(phase)
    d1 = val[..., None] * ab
    # the mixed block is the slice of the pending Hessian, by the same products
    return Jet2(n, val, d1, lambda: val[..., None, None] * ab2, val[..., None, None] * ab2[:n, n:])
