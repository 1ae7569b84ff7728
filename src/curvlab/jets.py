"""Second-order Wirtinger jets.

A :class:`Jet2` carries the value of a field together with its first and
second derivatives with respect to the 2n letters (d/dz^1 .. d/dz^n,
d/dzbar^1 .. d/dzbar^n).  Arithmetic propagates derivatives by the product
and chain rules, so any field composed from coordinate jets comes with
exact analytic derivatives.  All components broadcast over leading batch
axes, which lets a single expression evaluate a field on a whole grid.

Slot convention: index A in [0, n) is the holomorphic derivative d/dz^A,
index n + A is the antiholomorphic derivative d/dzbar^A.

The Hessian of a Jet2 may be pending: given as a zero-argument callable,
it is computed on the first read of `d2` and kept.  A pending jet may
carry its mixed block d_i d_jbar eagerly (`mixed`), which is all that the
Gauduchon operator and the Chern-Ricci form read.  Arithmetic with a
plain number, `conj` and the chain rule (`exp`, `log`, `**` with a
non-integer or negative power, `reciprocal`) keep a pending Hessian
pending and carry the mixed block forward; every other operation reads
`d2` and so forces it.  A field evaluated on a whole grid for its values,
gradients and mixed block then never builds its full second derivatives.
"""

from __future__ import annotations

import numpy as np


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


class Jet2:
    """Value, gradient and Hessian of a scalar field in Wirtinger slots.

    `d2` is an array, or a zero-argument callable returning it that runs
    on the first read of `d2` (a pending Hessian).  `mixed`, given with a
    pending Hessian, is its block d2[..., :n, n:], read without forcing.
    """

    __slots__ = ("n", "val", "d1", "_d2", "_mixed")

    def __init__(self, n: int, val, d1, d2, mixed=None):
        self.n = n
        self.val = np.asarray(val, dtype=complex)
        self.d1 = np.asarray(d1, dtype=complex)
        self._d2 = d2 if callable(d2) else np.asarray(d2, dtype=complex)
        self._mixed = None if mixed is None else np.asarray(mixed, dtype=complex)

    @property
    def d2(self) -> np.ndarray:
        if callable(self._d2):
            self._d2 = np.asarray(self._d2(), dtype=complex)
        return self._d2

    @property
    def pending(self) -> bool:
        """True while the Hessian has not been computed."""
        return callable(self._d2)

    def _map_d2(self, fn):
        """fn(d2), or a pending fn(d2) while d2 is pending."""
        return (lambda: fn(self.d2)) if self.pending else fn(self._d2)

    def _map_mixed(self, fn):
        """fn(mixed) where the mixed block is eager, else None (the slice of d2)."""
        return None if self._mixed is None else fn(self._mixed)

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

        A pending Hessian stays pending; the mixed block follows eagerly
        from mixed' = F' mixed + F'' d1[:n] d1[n:].
        """
        n = self.n
        d1 = f1[..., None] * self.d1

        def d2():
            return f1[..., None, None] * self.d2 + f2[..., None, None] * _outer(self.d1, self.d1)

        if not self.pending:
            return Jet2(n, f0, d1, d2())
        mixed = f1[..., None, None] * self.mixed + f2[..., None, None] * (
            self.d1[..., :n, None] * self.d1[..., None, n:]
        )
        return Jet2(n, f0, d1, d2, mixed)

    # -- algebra -------------------------------------------------------

    def __add__(self, other):
        if self._plain(other):
            return Jet2(self.n, self.val + other, self.d1.copy(), self._map_d2(np.copy),
                        self._map_mixed(np.copy))
        o = self._lift(other)
        return Jet2(self.n, self.val + o.val, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(self.n, -self.val, -self.d1, self._map_d2(np.negative),
                    self._map_mixed(np.negative))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._plain(other):
            return Jet2(self.n, self.val * other, self.d1 * other,
                        self._map_d2(lambda d2: d2 * other),
                        self._map_mixed(lambda m: m * other))
        o = self._lift(other)
        val = self.val * o.val
        d1 = self.d1 * o.val[..., None] + o.d1 * self.val[..., None]
        d2 = (
            self.d2 * o.val[..., None, None]
            + o.d2 * self.val[..., None, None]
            + _outer(self.d1, o.d1)
            + _outer(o.d1, self.d1)
        )
        return Jet2(self.n, val, d1, d2)

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
        is the conjugate transpose of the mixed block.  It equals the slice
        of the conjugate's forced Hessian bit for bit where d2 is exactly
        symmetric in the mixed slots.
        """
        n = self.n
        idx = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        d1 = np.conj(self.d1[..., idx])
        d2 = self._map_d2(lambda d2: np.conj(d2[..., idx, :][..., :, idx]))
        mixed = self._map_mixed(lambda m: np.conj(np.swapaxes(m, -1, -2)))
        return Jet2(n, np.conj(self.val), d1, d2, mixed)

    def real(self):
        return (self + self.conj()) * 0.5

    def imag(self):
        return (self - self.conj()) * (-0.5j)

    @property
    def mixed(self):
        """The mixed Hessian block: mixed[..., i, j] = d_i d_jbar.

        Read without forcing where it was given eagerly, else sliced from d2.
        """
        if self._mixed is not None:
            return self._mixed
        return self.d2[..., : self.n, self.n :]


class MixedJet:
    """Value, gradient and mixed Hessian block d_i d_jbar of a scalar field.

    The mixed block is closed under products, so a family of fields built
    by multiplication can carry it alone.  It is all that a second-order
    operator sum a[i, j] d_i d_jbar + first-order terms reads, at a quarter
    of the second-order storage of a Jet2.  Like Jet2, every component
    broadcasts over leading axes, which lets one object hold a whole
    function family along its first axis.
    """

    __slots__ = ("n", "val", "d1", "mixed")

    def __init__(self, n: int, val, d1, mixed):
        self.n = n
        self.val = val
        self.d1 = d1
        self.mixed = mixed

    @classmethod
    def of(cls, jet: Jet2):
        return cls(jet.n, jet.val, jet.d1, jet.mixed)

    @classmethod
    def stack(cls, jets):
        """Single jets (Jet2 or MixedJet) stacked along a new leading axis."""
        return cls(
            jets[0].n,
            np.stack([j.val for j in jets]),
            np.stack([j.d1 for j in jets]),
            np.stack([j.mixed for j in jets]),
        )

    def __mul__(self, o):
        n = self.n
        val = self.val * o.val
        d1 = self.d1 * o.val[..., None] + o.d1 * self.val[..., None]
        mixed = (
            self.mixed * o.val[..., None, None]
            + o.mixed * self.val[..., None, None]
            + self.d1[..., :n, None] * o.d1[..., None, n:]
            + o.d1[..., :n, None] * self.d1[..., None, n:]
        )
        return MixedJet(n, val, d1, mixed)

    def __add__(self, o):
        return MixedJet(self.n, self.val + o.val, self.d1 + o.d1, self.mixed + o.mixed)

    def real(self):
        """The jet of Re F: (F + conj F) / 2, where d_i d_jbar conj(F) is the
        conjugate transpose of the mixed block."""
        n = self.n
        idx = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        return MixedJet(
            n,
            (self.val + np.conj(self.val)) * 0.5,
            (self.d1 + np.conj(self.d1[..., idx])) * 0.5,
            (self.mixed + np.conj(np.swapaxes(self.mixed, -1, -2))) * 0.5,
        )


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
    """Jet of coeff * exp(a . z + b . zbar); the workhorse for periodic modes."""
    z = np.asarray(z, dtype=complex)
    n = z.shape[-1]
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ab = np.concatenate([a, b])
    phase = z @ a + np.conj(z) @ b
    val = coeff * np.exp(phase)
    d1 = val[..., None] * ab
    d2 = val[..., None, None] * np.einsum("a,b->ab", ab, ab)
    return Jet2(n, val, d1, d2)
