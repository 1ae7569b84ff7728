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

from .geometry import map_nodes
from .jets import Jet2, coordinate_jets, exp_linear, squared_radius


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
        """Component values eta[..., i] and deta[..., j, i] = d_jbar eta_i.

        Only the value and gradient of each component are kept, not its
        jet, whose pending Hessian holds the jets it was built from.
        """
        n = self.n

        def value_and_dbar(comp):
            jet = comp(z)
            return jet.val, jet.d1[..., n:]

        parts = [value_and_dbar(c) for c in self.components]
        vals = np.stack([v for v, _ in parts], axis=-1)
        danti = np.stack([d for _, d in parts], axis=-1)  # (..., j, i)
        return vals, danti


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
    return ScalarField(lambda z: exp_linear(z, a, b, coeff), name)


class TorusTerms:
    """The sum over terms t of C_t exp(a_t . z + b_t . zbar), in one pass.

    The coefficients C_t may carry any trailing shape: a number for a
    scalar field, an n x n matrix for a metric.  Every output carries that
    shape last.  The exponentials e_t of all terms come from two matrix
    products over the points, and every output is one more matrix product
    of them with a fixed weight table: the value e @ C, the gradient
    e @ (ab (x) C) with ab_t = (a_t, b_t), the mixed block d_i d_jbar
    e @ (a (x) b (x) C).  The value is formed alone, so `values` and the
    jet's value are equal bit for bit.

    `parts` gives (value, gradient, pending Hessian, mixed block), the
    argument order of both `Jet2` (after n) and `geometry.MetricJet`.  The
    pending Hessian, on its first read, runs `hessian` on a private copy
    of the points; the jet writes its eager block into the mixed slots.
    """

    def __init__(self, coeff, a, b):
        coeff = np.asarray(coeff, dtype=complex)
        self.a = np.asarray(a, dtype=complex)
        self.b = np.asarray(b, dtype=complex)
        self.n = n = self.a.shape[1]
        self.shape = coeff.shape[1:]
        T, m = len(coeff), 2 * n
        C = coeff.reshape(T, -1)
        self.size = C.shape[1]  # entries per coefficient
        self.ab = np.concatenate([self.a, self.b], axis=1)
        ab_mixed = self.a[:, :, None] * self.b[:, None, :]
        # the Hessian's slot pairs A <= B, each once, and the pair each
        # slot (A, B) reads
        A, B = np.triu_indices(m)
        pair = np.empty((m, m), dtype=int)
        pair[A, B] = pair[B, A] = np.arange(len(A))
        self._pairs = pair.ravel()
        self._weights = {
            "value": C,
            "gradient": (self.ab[:, :, None] * C[:, None, :]).reshape(T, -1),
            "mixed": (ab_mixed.reshape(T, -1, 1) * C[:, None, :]).reshape(T, -1),
            "hessian": ((self.ab[:, A] * self.ab[:, B])[:, :, None] * C[:, None, :]).reshape(T, -1),
        }

    def _exp(self, z):
        """The exponentials e_t at the points z, (..., term)."""
        return np.exp(z @ self.a.T + np.conj(z) @ self.b.T)

    def _contract(self, e, which, slots=()):
        """e @ weights[which], shaped (..., *slots, *self.shape)."""
        return (e @ self._weights[which]).reshape(e.shape[:-1] + slots + self.shape)

    def values(self, z) -> np.ndarray:
        return self._contract(self._exp(np.asarray(z, dtype=complex)), "value")

    def hessian(self, z) -> np.ndarray:
        """The full Hessian (..., 2n, 2n, *shape) at the points z: each pair
        of slots formed once and read for both orders, so it is exactly
        symmetric in its two slots."""
        m = 2 * self.n
        e = self._exp(z)
        batch = e.shape[:-1]
        pairs = (e @ self._weights["hessian"]).reshape(batch + (-1, self.size))
        return np.take(pairs, self._pairs, axis=-2).reshape(batch + (m, m) + self.shape)

    def parts(self, z):
        """(value, gradient, pending Hessian, mixed block) at the points z."""
        z = np.array(z, dtype=complex)  # private: the pending Hessian reads it later
        n = self.n
        e = self._exp(z)
        mixed = self._contract(e, "mixed", (n, n))
        return (self._contract(e, "value"), self._contract(e, "gradient", (2 * n,)),
                lambda: self.hessian(z), mixed)

    def jet(self, z) -> Jet2:
        """The Jet2 of a scalar table."""
        return Jet2(self.n, *self.parts(z))


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
    """The field plain + conj(conj) of two term tables; 2 Re(plain) if they are one.

    Its jets carry the mixed block eagerly and leave the Hessian pending;
    its values are the tables' values alone.
    """

    def fn(z):
        jet = plain.jet(z)
        return jet + (jet if conj is plain else conj.jet(z)).conj()

    def values(z):
        v = plain.values(z)
        return v + np.conj(v if conj is plain else conj.values(z))

    return ScalarField(fn, name, values)


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


def coordinate_slots(z):
    """The 2n coordinate slots w = (z, zbar) of the points z (N, n), as (2n, N)."""
    return np.concatenate([z, np.conj(z)], axis=1).T


class ExponentTable:
    """Polynomial rows Q_r = sum over the terms t of row r of c_t w^e_t in
    the 2n slots w = (z, zbar), evaluated from one table of monomials.

    Derivatives of a monomial are monomials, d_A w^e = e_A w^(e - 1_A), so
    the value, gradient, mixed block d_i d_jbar and full Hessian of every
    row are sums of monomials with fixed weights.  A call computes the
    monomials that a pass reads, each a product of slot powers, and
    contracts them with those weights: by one gather per output where
    every row has one term (a row's output is then one monomial scaled by
    an integer weight), else by one matrix product.  Nothing divides by a
    coordinate, so points with z_i = 0 are exact.

    A call returns the rows' values (row, N) and the pass's derivatives
    (row, output, N): none for "values"; for "first" the gradient (2n) and
    the mixed block (n * n, i-major); for "second" the gradient and the
    Hessian (2n * 2n, A-major).  The value monomials lead every pass's
    table, in one order, and the values are contracted from them alone, so
    the values are equal bit for bit across passes.
    """

    PASSES = {
        "values": (),
        "first": ("gradient", "mixed"),
        "second": ("gradient", "hessian"),
    }

    def __init__(self, row, coeff, expo):
        row = np.asarray(row, dtype=int)
        coeff = np.asarray(coeff, dtype=complex)
        expo = np.asarray(expo, dtype=int)
        m = expo.shape[1]
        n = m // 2
        unit = np.eye(m, dtype=int)
        # (row, output, exponent, weight) per block
        entries = {"value": [], "gradient": [], "mixed": [], "hessian": []}
        for r, c, e in zip(row, coeff, expo):
            entries["value"].append((r, 0, tuple(e), c))
            for a in np.flatnonzero(e):
                ea = e - unit[a]
                entries["gradient"].append((r, a, tuple(ea), c * e[a]))
                for b in np.flatnonzero(ea):
                    eab = tuple(ea - unit[b])
                    weight = c * e[a] * ea[b]
                    entries["hessian"].append((r, a * m + b, eab, weight))
                    if a < n <= b:
                        entries["mixed"].append((r, a * n + b - n, eab, weight))
        sizes = {"gradient": m, "mixed": n * n, "hessian": m * m}
        self.m = m
        self.size = int(row.max(initial=-1)) + 1  # number of rows
        value_monos = sorted({e for _, _, e, _ in entries["value"]})
        self._passes = {}
        for name, blocks in self.PASSES.items():
            coo, outputs = [], 0
            for b in blocks:
                coo += [(r, outputs + o, e, weight) for r, o, e, weight in entries[b]]
                outputs += sizes[b]
            monos = value_monos + sorted({e for _, _, e, _ in coo} - set(value_monos))
            self._passes[name] = (np.array(monos, dtype=int).reshape(-1, m),
                                  self._contraction(entries["value"], 1, monos),
                                  self._contraction(coo, outputs, monos))

    def _contraction(self, coo, outputs: int, monos):
        """How (row, output, monomial, weight) entries contract a table of
        `monos` with a zero row appended: (index, scale) for gathers when
        every (row, output) has at most one term, else a weight matrix."""
        pos = {e: i for i, e in enumerate(monos)}
        weights = np.zeros((self.size, outputs, len(monos) + 1), dtype=complex)
        for r, o, e, weight in coo:
            weights[r, o, pos[e]] += weight
        terms = np.count_nonzero(weights, axis=2)
        if terms.max(initial=0) > 1:
            used = 1 + max((pos[e] for _, _, e, _ in coo), default=-1)
            return weights[..., :used].reshape(-1, used)
        index = np.where(terms, np.argmax(weights != 0, axis=2), len(monos))
        scale = np.take_along_axis(weights, index[..., None], axis=2)
        return index, (scale if np.any(scale.imag) else scale.real)

    def __call__(self, w, which: str):
        """The rows' values (row, N) and the derivatives of pass `which`
        (row, output, N) at the slots w (2n, N)."""
        monos, value, derivatives = self._passes[which]
        powers = np.empty((monos.max(initial=0) + 1,) + w.shape, dtype=complex)
        powers[0] = 1.0
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], w, out=powers[k])
        table = np.empty((len(monos) + 1, w.shape[1]), dtype=complex)
        table[-1] = 0.0
        table[:-1] = powers[monos[:, 0], 0]
        for slot in range(1, self.m):
            table[:-1] *= powers[monos[:, slot], slot]
        return self._contract(value, table)[:, 0], self._contract(derivatives, table)

    def _contract(self, contraction, table):
        if isinstance(contraction, tuple):
            index, scale = contraction
            out = table[index]
            out *= scale
            return out
        rows = contraction @ table[: contraction.shape[1]]
        return rows.reshape(self.size, -1, table.shape[1])


class HopfTerms:
    """The sum over terms t of c_t w^e_t s^p_t, in one pass.

    w = (z, zbar) holds the 2n coordinate slots, e_t a term's exponent per
    slot and s = |z|^2.  The terms of one power p share a row: the field is
    sum_p S_p Q_p with S_p = s^p and Q_p = sum c_t w^e_t, the rows of an
    ExponentTable.  With ds = (zbar, z) and dds the unit pairs
    d_i d_ibar s = 1,

        d (S Q)   = S dQ + (p / s) S Q ds,
        dd (S Q)  = S ddQ + (p / s) S (dQ ds + ds dQ + Q dds)
                    + (p (p - 1) / s^2) S Q ds ds,

    so every jet component is a sum over rows of S, p S or p (p - 1) S
    times a row output, and nothing divides by a coordinate.  Each row's
    polynomial is summed before its radial power multiplies it, which
    keeps the rounding of the values as smooth as the polynomials.

    `jet` forms the value, gradient and mixed block and leaves the full
    Hessian pending; its first read runs `hessian` on a private copy of the
    points, and the eager block fills its mixed slots.  `values` forms the
    value alone, by the same operations as the jet's value.  Every read
    goes through `map_nodes` chunks.
    """

    def __init__(self, coeff, expo, power):
        expo = np.asarray(expo, dtype=int)
        self.power, row = np.unique(np.asarray(power, dtype=complex), return_inverse=True)
        self.table = ExponentTable(row.ravel(), coeff, expo)
        self.m = m = expo.shape[1]
        self._ds = np.r_[m // 2 : m, 0 : m // 2]  # d_A s = ds[A]: (zbar, z)
        self._radial_weights = np.stack([self.power, self.power * (self.power - 1.0)])

    def _radial(self, z):
        """The slots w (2n, N), s = |z|^2 and the radial factors S = s^p (row, N)."""
        s = np.sum(z.real**2 + z.imag**2, axis=1)
        return coordinate_slots(z), s, np.exp(np.outer(self.power, np.log(s)))

    def _values(self, z):
        w, _, S = self._radial(z)
        return (S * self.table(w, "values")[0]).sum(axis=0)

    def _lift(self, z, which):
        """ds, the value V = sum S Q, V1 = sum p S Q / s, V2 = sum p (p - 1) S Q / s^2,
        the derivative outputs of sum S Q and G1 = sum p S dQ / s."""
        m = self.m
        w, s, S = self._radial(z)
        Q, dQ = self.table(w, which)
        SQ = S * Q  # as `_values` forms it
        V1, V2 = self._radial_weights @ SQ
        SdQ = S[:, None] * dQ
        G1 = self.power @ SdQ[:, :m].reshape(len(S), -1)
        return (w[self._ds], SQ.sum(axis=0), V1 / s, V2 / s**2, SdQ.sum(axis=0),
                G1.reshape(m, -1) / s)

    def _first(self, z):
        """Value, gradient (N, 2n) and mixed block (N, n, n) at the points z (N, n)."""
        m, n = self.m, self.m // 2
        ds, value, V1, V2, X, G1 = self._lift(z, "first")
        zb, zz = ds[:n], ds[n:]
        mixed = (X[m:].reshape(n, n, -1)
                 + zb[:, None] * (G1[None, n:] + V2 * zz[None, :])
                 + G1[:n, None] * zz[None, :])
        for i in range(n):
            mixed[i, i] += V1
        return value, (X[:m] + V1 * ds).T, np.moveaxis(mixed, -1, 0)

    def _second(self, z):
        """The full Hessian at the points z (N, n) of one chunk."""
        m, n = self.m, self.m // 2
        ds, _, V1, V2, X, G1 = self._lift(z, "second")
        d2 = (X[m:].reshape(m, m, -1)
              + ds[:, None] * (G1[None, :] + V2 * ds[None, :])
              + G1[:, None] * ds[None, :])
        for i in range(n):
            d2[i, n + i] += V1
            d2[n + i, i] += V1
        return np.moveaxis(d2, -1, 0)

    def values(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return map_nodes(self._values, z.reshape(-1, z.shape[-1])).reshape(z.shape[:-1])

    def hessian(self, z) -> np.ndarray:
        """The full Hessian (N, 2n, 2n) at the points z (N, n)."""
        return map_nodes(self._second, z)

    def jet(self, z) -> Jet2:
        batch, m, n = np.shape(z)[:-1], self.m, self.m // 2
        # private: the pending Hessian reads it later
        z = np.array(z, dtype=complex).reshape(-1, n)
        val, d1, mixed = map_nodes(self._first, z)
        return Jet2(n, val.reshape(batch), d1.reshape(batch + (m,)),
                    lambda: self.hessian(z).reshape(batch + (m, m)), mixed.reshape(batch + (n, n)))


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
