"""Smooth scalar and (1, 0)-form fields with analytic jets.

A ScalarField wraps a callable z -> Jet2, so composition through the jet
algebra keeps exact first and second Wirtinger derivatives, and may carry
a value-only path that reads its node values without building the jet.
One-forms hold one scalar component per holomorphic coordinate.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional, Sequence

import numpy as np

from .jets import Jet2, MixedJet, coordinate_jets, exp_linear, squared_radius


class ScalarField:
    """Callable field z -> Jet2 with light arithmetic helpers.

    `values` gives the node values alone.  A field may carry a value
    function for it, which must return `fn(z).val` bit for bit without
    building the jet; without one, `values` reads the jet's value.
    Arithmetic, `exp`, `log`, `real` and `imag` compose the value paths of
    their operands with the same operations that the jets run on their
    values, so a derived field reads its values as cheaply as its parts.
    """

    def __init__(self, fn: Callable[[np.ndarray], Jet2], name: str = "field",
                 values: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.fn = fn
        self.name = name
        self.value_fn = values

    def __call__(self, z) -> Jet2:
        return self.fn(np.asarray(z, dtype=complex))

    def values(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return self(z).val if self.value_fn is None else self.value_fn(z)

    def _map(self, jet_op, value_op, name):
        """The field jet_op(self(z)), whose values are value_op(self.values(z))."""
        return ScalarField(lambda z: jet_op(self(z)), name, lambda z: value_op(self.values(z)))

    def _combine(self, other, jet_op, value_op, name):
        """The field jet_op(self(z), other(z)), with values combined the same way."""
        return ScalarField(lambda z: jet_op(self(z), other(z)), name,
                           lambda z: value_op(self.values(z), other.values(z)))

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return self._combine(other, operator.add, operator.add, f"{self.name}+{other.name}")
        return self._map(lambda j: j + other, lambda v: v + other, self.name)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return self._combine(other, operator.sub, operator.sub, f"{self.name}-{other.name}")
        return self._map(lambda j: j - other, lambda v: v - other, self.name)

    def __mul__(self, c):
        if isinstance(c, ScalarField):
            return self._combine(c, operator.mul, operator.mul, f"{self.name}*{c.name}")
        return self._map(lambda j: j * c, lambda v: v * c, self.name)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def exp(self):
        return self._map(lambda j: j.exp(), np.exp, f"exp({self.name})")

    def log(self):
        return self._map(lambda j: j.log(), np.log, f"log({self.name})")

    def real(self):
        # Jet2.real is (F + conj F) * 0.5
        return self._map(lambda j: j.real(), lambda v: (v + np.conj(v)) * 0.5,
                         f"re({self.name})")

    def imag(self):
        # Jet2.imag is (F - conj F) * (-0.5j)
        return self._map(lambda j: j.imag(), lambda v: (v - np.conj(v)) * (-0.5j),
                         f"im({self.name})")


def constant_field(c: float) -> ScalarField:
    def fn(z):
        return Jet2.constant(z.shape[-1], c, z.shape[:-1])

    def values(z):
        return np.full(z.shape[:-1], c, dtype=complex)

    return ScalarField(fn, f"const({c})", values)


class OneFormField:
    """A (1, 0)-form with scalar-field components eta_i dz^i."""

    def __init__(self, components: Sequence[ScalarField], name: str = "eta"):
        self.components = list(components)
        self.name = name

    @property
    def n(self) -> int:
        return len(self.components)

    def jets(self, z):
        return [c(z) for c in self.components]

    def values_and_dbar(self, z):
        """Component values eta[..., i] and deta[..., j, i] = d_jbar eta_i."""
        n = self.n
        js = self.jets(z)
        vals = np.stack([j.val for j in js], axis=-1)
        danti = np.stack([j.d1[..., n:] for j in js], axis=-1)  # (..., j, i)
        return vals, danti


# ---------------------------------------------------------------------------
# function bases for Galerkin solves
# ---------------------------------------------------------------------------


class BasisJets:
    """A real function basis at one node chunk, as stacked complex jets.

    `jet` holds F complex functions m_j along its leading axis.  A basis
    may declare radial exponents p_1..p_K: complex function k F + j is
    then R_k m_j with R_k = s^p_k, s = |z|^2 (and R_0 = 1), and only its
    value and L-value are formed, from the jets of m_j (the radial lift
    in `gauduchon`).  Real basis function s is the real part of complex
    function index[s], or its imaginary part where imag[s].  Only
    scalar-valued results of a real operator (values, L phi) may be read
    off by `rows`, since L(Re phi) = Re(L phi) holds for such an
    operator, while derivatives of Re phi mix conjugate slots.
    """

    __slots__ = ("jet", "index", "imag", "powers")

    def __init__(self, jet: MixedJet, index: np.ndarray, imag: np.ndarray, powers=()):
        self.jet = jet
        self.index = index
        self.imag = imag
        self.powers = np.asarray(powers, dtype=complex)

    def __len__(self) -> int:
        return len(self.index)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Real rows (len(self), N) from per-function complex values x ((K + 1) F, N)."""
        x = x[self.index]
        return np.where(self.imag[:, None], x.imag, x.real)


class FieldBasis:
    """A plain list of real ScalarFields, stacked for Galerkin solves.

    Calling it at a node chunk gives BasisJets; `field` turns coefficients
    into the combination sum c_s phi_s with full jets.
    """

    def __init__(self, fields: Sequence[ScalarField]):
        self.fields = list(fields)
        self.index = np.arange(len(self.fields))
        self.imag = np.zeros(len(self.fields), dtype=bool)

    def __len__(self) -> int:
        return len(self.fields)

    def __call__(self, z) -> BasisJets:
        return BasisJets(MixedJet.stack([phi(z) for phi in self.fields]), self.index, self.imag)

    def field(self, coeffs, name: str) -> ScalarField:
        """sum c_s phi_s over the nonzero coefficients; its values sum the
        values of phi_s alone."""
        terms = [(float(c), phi) for c, phi in zip(coeffs, self.fields) if c != 0.0]

        def fn(z):
            out = terms[0][1](z) * terms[0][0]
            for c, phi in terms[1:]:
                out = out + phi(z) * c
            return out

        def values(z):
            out = terms[0][1].values(z) * terms[0][0]
            for c, phi in terms[1:]:
                out = out + phi.values(z) * c
            return out

        return ScalarField(fn, name, values)


# ---------------------------------------------------------------------------
# periodic (torus) constructions
# ---------------------------------------------------------------------------


def torus_mode_vectors(m, l, periods):
    """(a, b) with exp(a.z + b.zbar) = exp(2 pi i (m.x/p + l.y/p))."""
    m = np.asarray(m, dtype=float)
    l = np.asarray(l, dtype=float)
    p = np.asarray(periods, dtype=float)
    a = np.pi * (1j * m + l) / p
    b = np.pi * (1j * m - l) / p
    return a, b


def torus_mode(m, l, periods, coeff=1.0) -> ScalarField:
    """Complex exponential exp(2 pi i (m.x/p + l.y/p)) as a jet field."""
    a, b = torus_mode_vectors(m, l, periods)
    name = f"mode{tuple(np.asarray(m, dtype=float))}{tuple(np.asarray(l, dtype=float))}"
    # the value of exp_linear, by the same operations
    return ScalarField(lambda z: exp_linear(z, a, b, coeff), name,
                       lambda z: coeff * np.exp(z @ a + np.conj(z) @ b))


class TorusTerms:
    """The sum over terms t of c_t exp(a_t . z + b_t . zbar), in one pass.

    The phases of all terms come from two matrix products; the gradient
    contracts the weighted exponentials with (a_t, b_t) over the term
    axis.  The Hessian, their contraction with the outer square of
    (a_t, b_t), is left pending: `hessian` recomputes the exponentials
    from a private copy of the points when `d2` is first read.
    """

    def __init__(self, coeff, a, b):
        self.coeff = np.asarray(coeff, dtype=complex)
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.ab = np.concatenate([self.a, self.b], axis=1)
        self.ab2 = np.einsum("ta,tb->tab", self.ab, self.ab).reshape(len(self.ab), -1)

    def _terms(self, z):
        """The weighted exponentials, (..., term)."""
        return np.exp(z @ self.a.T + np.conj(z) @ self.b.T) * self.coeff

    def hessian(self, z) -> np.ndarray:
        m = self.ab.shape[1]
        e = self._terms(z)
        return (e @ self.ab2).reshape(e.shape[:-1] + (m, m))

    def jet(self, z) -> Jet2:
        z = np.array(z, dtype=complex)  # private: the pending Hessian reads it later
        e = self._terms(z)
        return Jet2(self.ab.shape[1] // 2, e.sum(axis=-1), e @ self.ab,
                    lambda: self.hessian(z))


def _draw_torus_terms(rng, n, periods, amplitude, kmax, modes):
    """Coefficients and mode vectors (c, a, b) of `modes` nonzero random modes."""
    cs, avs, bvs = [], [], []
    for _ in range(modes):
        while True:
            m = rng.integers(-kmax, kmax + 1, size=n)
            l = rng.integers(-kmax, kmax + 1, size=n)
            if np.any(m) or np.any(l):
                break
        a, b = torus_mode_vectors(m, l, periods)
        avs.append(a)
        bvs.append(b)
        cs.append((rng.normal() + 1j * rng.normal()) * amplitude / modes)
    return np.array(cs), np.array(avs), np.array(bvs)


def plus_conj(plain, conj, name: str) -> ScalarField:
    """The field plain + conj(conj) of two term tables; 2 Re(plain) if they are one."""

    def fn(z):
        jet = plain.jet(z)
        other = (jet if conj is plain else conj.jet(z)).conj()
        return Jet2(jet.n, jet.val + other.val, jet.d1 + other.d1, lambda: jet.d2 + other.d2)

    return ScalarField(fn, name)


def random_torus_scalar(rng, n, periods, amplitude=0.1, kmax=2, modes=4) -> ScalarField:
    """Real random band-limited periodic field (zero-mean modes only)."""
    terms = TorusTerms(*_draw_torus_terms(rng, n, periods, amplitude, kmax, modes))
    return plus_conj(terms, terms, "random-periodic")


def random_torus_oneform(rng, n, periods, amplitude=0.1, kmax=2, modes=3) -> OneFormField:
    """Random (1, 0)-form whose components are re + i im of two random fields.

    With re = 2 Re R and im = 2 Re I for term sums R and I, the component
    is (R + iI) + conj(R - iI): two tables over the same modes.
    """
    comps = []
    for _ in range(n):
        c_re, a_re, b_re = _draw_torus_terms(rng, n, periods, amplitude, kmax, modes)
        c_im, a_im, b_im = _draw_torus_terms(rng, n, periods, amplitude, kmax, modes)
        a, b = np.concatenate([a_re, a_im]), np.concatenate([b_re, b_im])
        plain = TorusTerms(np.concatenate([c_re, 1j * c_im]), a, b)
        conj = TorusTerms(np.concatenate([c_re, -1j * c_im]), a, b)
        comps.append(plus_conj(plain, conj, "random-periodic-component"))
    return OneFormField(comps)


# ---------------------------------------------------------------------------
# Hopf-invariant constructions (functions on the quotient of C^2 \ {0})
# ---------------------------------------------------------------------------


def hopf_radial_frequency(k: int) -> float:
    """beta_k = 2 pi k / log 2: exp(i beta_k log |z|) is invariant under z -> 2z."""
    return 2.0 * np.pi * k / np.log(2.0)


def hopf_radial_mode(k: int) -> ScalarField:
    """exp(i beta_k t) with t = log |z| and beta_k = 2 pi k / log 2.

    Invariant under z -> 2z, hence well defined on the quotient surface.
    """
    beta = hopf_radial_frequency(k)

    def fn(z):
        return squared_radius(z) ** (0.5j * beta)

    return ScalarField(fn, f"radial-mode({k})")


def hopf_monomial(alpha, beta) -> ScalarField:
    """Scaling-invariant monomial z^alpha zbar^beta / |z|^(|alpha|+|beta|)."""
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    deg = sum(alpha) + sum(beta)

    def fn(z):
        zs, zbs = coordinate_jets(z)
        out = squared_radius(z) ** (-0.5 * deg) if deg else Jet2.constant(
            z.shape[-1], 1.0, np.asarray(z).shape[:-1]
        )
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out * zs[i]
        for i, b in enumerate(beta):
            for _ in range(b):
                out = out * zbs[i]
        return out

    return ScalarField(fn, f"mono{alpha}{beta}")


class HopfTerms:
    """The sum over terms t of c_t w^e_t s^p_t, in one pass.

    w = (z, zbar) holds the 2n coordinate slots, e_t a term's exponent per
    slot and s = |z|^2.  With S_t = s^p_t and monomial P_t = c_t w^e_t,

        d (P S)   = S dP + (p / s) P S ds,
        dd (P S)  = S ddP + (p / s) S (dP ds + ds dP)
                    + (p (p - 1) / s^2) P S ds ds + (p / s) P S dds,

    and ds = (zbar, z), dds are shared by every term.  The derivatives of
    a monomial are monomials again, so each jet component is one weighted
    sum of products S_t * monomial over (term, monomial) pairs; the
    weights are fixed here, and `jet` contracts them with one matrix
    product.  Nothing divides by a coordinate, so points with z_i = 0
    stay exact.

    `jet` contracts only the value and gradient weights (the first
    3 + 2m outputs) and leaves the Hessian pending.  When `d2` is first
    read, `hessian` forms the pair products again from a private copy of
    the points and contracts all the weights, so a jet never keeps the
    (node, pair) products alive.
    """

    def __init__(self, coeff, expo, power):
        expo = np.asarray(expo, dtype=int)
        power = np.asarray(power, dtype=complex)
        m = expo.shape[1]
        # output rows: value, p * value, p (p - 1) * value, dP (m), p * dP (m), ddP (m * m)
        rows = {}

        def add(t, e, out, weight):
            key = (t, tuple(e))
            rows.setdefault(key, np.zeros(3 + 2 * m + m * m, dtype=complex))[out] += weight

        for t, (c, e, p) in enumerate(zip(np.asarray(coeff, dtype=complex), expo, power)):
            add(t, e, 0, c)
            add(t, e, 1, c * p)
            add(t, e, 2, c * p * (p - 1.0))
            for i in np.flatnonzero(e):
                ei = e.copy()
                ei[i] -= 1
                add(t, ei, 3 + i, c * e[i])
                add(t, ei, 3 + m + i, c * e[i] * p)
                for j in np.flatnonzero(ei):
                    eij = ei.copy()
                    eij[j] -= 1
                    add(t, eij, 3 + 2 * m + i * m + j, c * e[i] * ei[j])

        monos = sorted({e for _, e in rows})
        self.m = m
        self.power = power
        self.term = np.array([t for t, _ in rows])
        self.mono = np.array([monos.index(e) for _, e in rows])
        self.mono_expo = np.array(monos, dtype=int)  # (monomial, slot)
        self.weights = np.array(list(rows.values()))  # (pair, output)
        self.weights_d1 = self.weights[:, : 3 + 2 * m].copy()  # value and gradient outputs

    def _products(self, z):
        """Slots w (node, 2n), s = |z|^2 and the pair products S_t * monomial (node, pair)."""
        m = self.m
        w = np.concatenate([z, np.conj(z)], axis=1)
        s = np.sum(z.real**2 + z.imag**2, axis=1)
        powers = [np.ones_like(w.T)]
        for _ in range(self.mono_expo.max(initial=0)):
            powers.append(powers[-1] * w.T)
        powers = np.stack(powers)  # (power, slot, node)
        mono = powers[self.mono_expo[:, 0], 0]
        for slot in range(1, m):
            mono = mono * powers[self.mono_expo[:, slot], slot]
        radial = np.exp(np.outer(self.power, np.log(s)))  # (term, node)
        return w, s, (radial[self.term] * mono[self.mono]).T

    def hessian(self, z) -> np.ndarray:
        """dd(PS) at points z (node, n)."""
        m, n = self.m, self.m // 2
        w, s, products = self._products(z)
        out = products @ self.weights  # (node, output)
        # dd(PS) = ddP + x ds + ds x + (p / s) dds, x = (p dP + p (p - 1) P ds / 2s) / s
        ds = w[:, np.r_[n:m, 0:n]]
        pv = out[:, 1] / s
        x = (out[:, 3 + m : 3 + 2 * m] + (0.5 * out[:, 2] / s)[:, None] * ds) / s[:, None]
        outer = x[:, :, None] * ds[:, None, :]
        d2 = out[:, 3 + 2 * m :].reshape(-1, m, m) + outer + outer.transpose(0, 2, 1)
        for i in range(n):
            d2[:, i, n + i] += pv
            d2[:, n + i, i] += pv
        return d2

    def jet(self, z) -> Jet2:
        batch, m, n = np.shape(z)[:-1], self.m, self.m // 2
        # private: the pending Hessian reads it later
        z = np.array(z, dtype=complex).reshape(-1, n)
        w, s, products = self._products(z)
        out = products @ self.weights_d1  # (node, output)
        pv = out[:, 1] / s
        d1 = out[:, 3 : 3 + m] + pv[:, None] * w[:, np.r_[n:m, 0:n]]
        # a copy of the value column, so a jet kept for its pending Hessian
        # does not keep `out` alive
        return Jet2(n, out[:, 0].reshape(batch).copy(), d1.reshape(batch + (m,)),
                    lambda: self.hessian(z).reshape(batch + (m, m)))


_HOPF_MONOS = [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 0)),
               ((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (0, 0))]


def _draw_hopf_terms(rng, amplitude, kmax, modes):
    """(c, e, p) of `modes` terms c R_k(z) z^a zbar^b / |z|^|e| with random k and (a, b).

    Each term is c z^a zbar^b s^p with s = |z|^2 and p = i beta_k / 2 - |e| / 2.
    """
    cs, es, ps = [], [], []
    for _ in range(modes):
        k = int(rng.integers(-kmax, kmax + 1))
        a, b = _HOPF_MONOS[int(rng.integers(0, len(_HOPF_MONOS)))]
        cs.append((rng.normal() + 1j * rng.normal()) * amplitude / modes)
        es.append(a + b)
        ps.append(0.5j * hopf_radial_frequency(k) - 0.5 * (sum(a) + sum(b)))
    return np.array(cs), np.array(es), np.array(ps)


def random_hopf_scalar(rng, amplitude=0.1, kmax=2, modes=4) -> ScalarField:
    """Real random invariant field: radial modes times sphere monomials."""
    terms = HopfTerms(*_draw_hopf_terms(rng, amplitude, kmax, modes))
    return plus_conj(terms, terms, "random-hopf")


def random_hopf_oneform(rng, amplitude=0.1, kmax=2, modes=3) -> OneFormField:
    """Random invariant (1, 0)-form; components scale like 1/z under z -> 2z.

    Component i is (re + i im) zbar_i / |z|^2 with re = 2 Re R, im = 2 Re I
    for term sums R and I, that is (R + iI) zbar_i / s + conj((R - iI) z_i / s):
    two tables whose exponents gain zbar_i or z_i and whose powers drop by 1.
    """
    n = 2
    unit = np.eye(2 * n, dtype=int)
    comps = []
    for i in range(n):
        c_re, e_re, p_re = _draw_hopf_terms(rng, amplitude, kmax, modes)
        c_im, e_im, p_im = _draw_hopf_terms(rng, amplitude, kmax, modes)
        expo = np.concatenate([e_re, e_im])
        power = np.concatenate([p_re, p_im]) - 1.0
        plain = HopfTerms(np.concatenate([c_re, 1j * c_im]), expo + unit[n + i], power)
        conj = HopfTerms(np.concatenate([c_re, -1j * c_im]), expo + unit[i], power)
        comps.append(plus_conj(plain, conj, "random-hopf-component"))
    return OneFormField(comps)
