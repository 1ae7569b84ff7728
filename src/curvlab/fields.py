"""Smooth scalar and (1, 0)-form fields with analytic jets.

A ScalarField wraps a callable z -> Jet2, so composition through the jet
algebra keeps exact first and second Wirtinger derivatives.  One-forms
hold one scalar component per holomorphic coordinate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .jets import Jet2, MixedJet, coordinate_jets, exp_linear, squared_radius


class ScalarField:
    """Callable field z -> Jet2 with light arithmetic helpers."""

    def __init__(self, fn: Callable[[np.ndarray], Jet2], name: str = "field"):
        self.fn = fn
        self.name = name

    def __call__(self, z) -> Jet2:
        return self.fn(np.asarray(z, dtype=complex))

    def values(self, z) -> np.ndarray:
        return self(z).val

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(lambda z: self(z) + other(z), f"{self.name}+{other.name}")
        return ScalarField(lambda z: self(z) + other, self.name)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return ScalarField(lambda z: self(z) - other(z), f"{self.name}-{other.name}")
        return ScalarField(lambda z: self(z) - other, self.name)

    def __mul__(self, c):
        if isinstance(c, ScalarField):
            return ScalarField(lambda z: self(z) * c(z), f"{self.name}*{c.name}")
        return ScalarField(lambda z: self(z) * c, self.name)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def exp(self):
        return ScalarField(lambda z: self(z).exp(), f"exp({self.name})")

    def log(self):
        return ScalarField(lambda z: self(z).log(), f"log({self.name})")


def constant_field(c: float) -> ScalarField:
    def fn(z):
        z = np.asarray(z, dtype=complex)
        return Jet2.constant(z.shape[-1], c, z.shape[:-1])

    return ScalarField(fn, f"const({c})")


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

    `jet` holds complex functions along its leading axis; real basis
    function s is the real part of function index[s], or its imaginary
    part where imag[s].  Only scalar-valued results of a real operator
    (values, L phi) may be read off by `rows`, since L(Re phi) = Re(L phi)
    holds for such an operator, while derivatives of Re phi mix conjugate
    slots.
    """

    __slots__ = ("jet", "index", "imag")

    def __init__(self, jet: MixedJet, index: np.ndarray, imag: np.ndarray):
        self.jet = jet
        self.index = index
        self.imag = imag

    def __len__(self) -> int:
        return len(self.index)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """Real rows (len(self), N) from per-function complex values x (F, N)."""
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
        """sum c_s phi_s over the nonzero coefficients."""
        terms = [(float(c), phi) for c, phi in zip(coeffs, self.fields) if c != 0.0]

        def fn(z):
            out = terms[0][1](z) * terms[0][0]
            for c, phi in terms[1:]:
                out = out + phi(z) * c
            return out

        return ScalarField(fn, name)


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


def random_torus_scalar(rng, n, periods, amplitude=0.1, kmax=2, modes=4) -> ScalarField:
    """Real random band-limited periodic field (zero-mean modes only)."""
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

    return ScalarField(fn, "random-periodic")


def random_torus_oneform(rng, n, periods, amplitude=0.1, kmax=2, modes=3) -> OneFormField:
    comps = []
    for _ in range(n):
        re = random_torus_scalar(rng, n, periods, amplitude, kmax, modes)
        im = random_torus_scalar(rng, n, periods, amplitude, kmax, modes)
        comps.append(ScalarField(lambda z, re=re, im=im: re(z) + im(z) * 1j))
    return OneFormField(comps)


# ---------------------------------------------------------------------------
# Hopf-invariant constructions (functions on the quotient of C^2 \ {0})
# ---------------------------------------------------------------------------


def hopf_radial_mode(k: int) -> ScalarField:
    """exp(i beta_k t) with t = log |z| and beta_k = 2 pi k / log 2.

    Invariant under z -> 2z, hence well defined on the quotient surface.
    """
    beta = 2.0 * np.pi * k / np.log(2.0)

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


def random_hopf_scalar(rng, amplitude=0.1, kmax=2, modes=4) -> ScalarField:
    """Real random invariant field: radial modes times sphere monomials."""
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

    return ScalarField(fn, "random-hopf")


def random_hopf_oneform(rng, amplitude=0.1, kmax=2, modes=3) -> OneFormField:
    """Random invariant (1, 0)-form; components scale like 1/z under z -> 2z."""
    n = 2
    comps = []
    for i in range(n):
        scal_re = random_hopf_scalar(rng, amplitude, kmax, modes)
        scal_im = random_hopf_scalar(rng, amplitude, kmax, modes)

        def comp(z, i=i, fr=scal_re, fi=scal_im):
            zbs = coordinate_jets(z)[1]
            weight = zbs[i] * squared_radius(z).reciprocal()
            return (fr(z) + fi(z) * 1j) * weight

        comps.append(ScalarField(comp))
    return OneFormField(comps)
