"""Exact-rational multiplicative-sequence machinery for the A-hat genus.

Everything here is Fraction arithmetic; no floats anywhere.  Polynomials
in the graded Pontryagin variables are dicts keyed by sorted index tuples
(weight of p_i is i), and the genus polynomials are produced twice: the
production route goes through power sums and Newton's identities, the test
oracle by brute-force expansion over formal roots followed by reduction to
elementary symmetric polynomials.  The two must agree exactly.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Dict, Optional, Tuple

from .errors import MissingMonomial, NonIntegerSpinWarning

Monomial = Tuple[int, ...]  # sorted descending, e.g. (2, 1, 1) = p2 p1^2
Poly = Dict[Monomial, Fraction]


# ---------------------------------------------------------------------------
# polynomial helpers (graded variables indexed by positive integers)
# ---------------------------------------------------------------------------


def _norm(key) -> Monomial:
    return tuple(sorted((k for k in key if k != 0), reverse=True))


def poly_add(a: Poly, b: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + scale * v
        if out[k] == 0:
            del out[k]
    return out


def poly_mul(a: Poly, b: Poly, max_weight: Optional[int] = None) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = _norm(ka + kb)
            if max_weight is not None and sum(k) > max_weight:
                continue
            out[k] = out.get(k, Fraction(0)) + va * vb
            if out[k] == 0:
                del out[k]
    return out


def poly_weight_part(a: Poly, w: int) -> Poly:
    return {k: v for k, v in a.items() if sum(k) == w}


# ---------------------------------------------------------------------------
# the characteristic power series and its genus polynomials
# ---------------------------------------------------------------------------


def ahat_series(m: int):
    """Rational coefficients q_0..q_m of (sqrt z / 2) / sinh(sqrt z / 2).

    Computed by series inversion of sinh(x)/x at x = sqrt(z)/2, whose z^k
    coefficient is 1 / (4^k (2k+1)!).
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    s = [Fraction(1, 4**k * factorial(2 * k + 1)) for k in range(m + 1)]
    q = [Fraction(1)]
    for k in range(1, m + 1):
        q.append(-sum((s[j] * q[k - j] for j in range(1, k + 1)), Fraction(0)))
    return q


def _log_series(q) -> list:
    """l_k with log(sum q_k z^k) = sum_{k>=1} l_k z^k, q_0 = 1."""
    m = len(q) - 1
    l = [Fraction(0)] * (m + 1)
    for k in range(1, m + 1):
        acc = k * q[k]
        for j in range(1, k):
            acc -= j * l[j] * q[k - j]
        l[k] = Fraction(acc, k)
    return l


def _power_sum_in_elementary(k: int, cache={}) -> Poly:
    """Newton's identities: the power sum P_k as a polynomial in e_i -> p_i."""
    if k in cache:
        return cache[k]
    if k == 0:
        raise ValueError("P_0 is the (formal) number of roots, not needed here")
    # P_k = sum_{i=1}^{k-1} (-1)^(i-1) e_i P_{k-i} + (-1)^(k-1) k e_k
    out: Poly = {(k,): Fraction((-1) ** (k - 1) * k)}
    for i in range(1, k):
        term = poly_mul({(i,): Fraction((-1) ** (i - 1))}, _power_sum_in_elementary(k - i))
        out = poly_add(out, term)
    cache[k] = out
    return out


def ahat_polynomials(m: int):
    """The genus polynomials of weights 1..m in the Pontryagin classes.

    Multiplicative-sequence construction: sum log Q over formal roots
    turns into power sums, which Newton's identities convert to the
    elementary symmetric functions e_i = p_i; exponentiating and grading
    by weight gives the polynomials.  Exact arithmetic throughout.
    """
    if m < 1:
        raise ValueError("need order >= 1")
    l = _log_series(ahat_series(m))
    # exp(sum_k l_k P_k) graded by weight, P_k expanded via Newton
    total: Poly = {(): Fraction(1)}
    for k in range(1, m + 1):
        if l[k] == 0:
            continue
        pk = {key: l[k] * v for key, v in _power_sum_in_elementary(k).items()}
        term: Poly = {(): Fraction(1)}
        block: Poly = {(): Fraction(1)}
        for j in range(1, m // k + 1):
            block = poly_mul(block, pk, max_weight=m)
            term = poly_add(term, block, Fraction(1, factorial(j)))
        total = poly_mul(total, term, max_weight=m)
    return [poly_weight_part(total, w) for w in range(1, m + 1)]


# ---------------------------------------------------------------------------
# brute-force oracle: expand over formal roots, reduce to elementary basis
# ---------------------------------------------------------------------------


def ahat_polynomials_bruteforce(m: int):
    """Independent expansion used as the dual-implementation oracle.

    Multiplies Q(b_i) over m formal roots, extracts the weight-m part and
    rewrites it in the elementary symmetric basis by leading-term
    elimination.  Shares no code with the production pipeline.
    """
    q = ahat_series(m)
    nvars = m
    # multivariate polynomials: dict exponent-tuple -> Fraction
    prod = {(0,) * nvars: Fraction(1)}
    for i in range(nvars):
        factor = {}
        for k in range(m + 1):
            exp = [0] * nvars
            exp[i] = k
            factor[tuple(exp)] = q[k]
        new = {}
        for ea, va in prod.items():
            for eb, vb in factor.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                if sum(e) > m:
                    continue
                new[e] = new.get(e, Fraction(0)) + va * vb
        prod = {e: v for e, v in new.items() if v != 0}

    out = []
    for w in range(1, m + 1):
        part = {e: v for e, v in prod.items() if sum(e) == w}
        out.append(_symmetric_to_elementary(part, nvars))
    return out


def _elementary_monomial_expansion(j: int, nvars: int):
    out = {}
    for comb in combinations(range(nvars), j):
        e = [0] * nvars
        for c in comb:
            e[c] = 1
        out[tuple(e)] = Fraction(1)
    return out


def _symmetric_to_elementary(part, nvars: int) -> Poly:
    work = dict(part)
    out: Poly = {}
    guard = 0
    while work:
        guard += 1
        if guard > 10000:
            raise RuntimeError("elementary-basis reduction failed to terminate")
        lam = max(work, key=lambda e: tuple(sorted(e, reverse=True)))
        lam_sorted = tuple(sorted(lam, reverse=True))
        c = work[lam]
        # e-monomial with exponents lam_i - lam_{i+1}
        emono: Poly = {}
        expansion = {(0,) * nvars: Fraction(1)}
        key = []
        padded = lam_sorted + (0,)
        for i in range(len(lam_sorted)):
            times = padded[i] - padded[i + 1]
            for _ in range(times):
                key.append(i + 1)
                expansion = _mv_mul(expansion, _elementary_monomial_expansion(i + 1, nvars))
        key = _norm(key)
        out[key] = out.get(key, Fraction(0)) + c
        for e, v in expansion.items():
            ne = work.get(e, Fraction(0)) - c * v
            if ne == 0:
                work.pop(e, None)
            else:
                work[e] = ne
    return {k: v for k, v in out.items() if v != 0}


def _mv_mul(a, b):
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + va * vb
    return {e: v for e, v in out.items() if v != 0}


# ---------------------------------------------------------------------------
# characteristic data and conversions
# ---------------------------------------------------------------------------


@dataclass
class CharacteristicData:
    """Exact characteristic numbers of a closed oriented manifold.

    Either Pontryagin numbers (p-monomials of weight dim/4) or Chern
    numbers (c-monomials of weight dim/2) may be supplied; keys are sorted
    index tuples and values exact rationals.
    """

    dim_real: int
    pontryagin: Optional[Dict[Monomial, Fraction]] = None
    chern: Optional[Dict[Monomial, Fraction]] = None
    spin: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.pontryagin is not None:
            self.pontryagin = {_norm(k): Fraction(v) for k, v in self.pontryagin.items()}
        if self.chern is not None:
            self.chern = {_norm(k): Fraction(v) for k, v in self.chern.items()}


def _pontryagin_in_chern(k: int) -> Poly:
    """p_k = (-1)^k sum_{a+b=2k} (-1)^a c_a c_b with c_0 = 1 (keys are c-monomials)."""
    out: Poly = {}
    for a in range(0, 2 * k + 1):
        b = 2 * k - a
        key = _norm((a, b))
        out[key] = out.get(key, Fraction(0)) + Fraction((-1) ** (a + k))
    return {k2: v for k2, v in out.items() if v != 0}


def partitions(w: int):
    """All partitions of w as descending tuples."""
    if w == 0:
        return [()]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for p in range(min(rest, maxpart), 0, -1):
            rec(rest - p, p, acc + [p])

    rec(w, w, [])
    return out


def pontryagin_from_chern(data: CharacteristicData) -> CharacteristicData:
    """Pontryagin numbers of a complex manifold from its Chern numbers.

    Expands each p-monomial through p_k = c_k^2 - 2 c_{k-1} c_{k+1} + ...
    and evaluates against the supplied Chern numbers.
    """
    if data.chern is None:
        raise MissingMonomial("no Chern numbers supplied")
    if data.dim_real % 4:
        raise ValueError("Pontryagin numbers need dim divisible by 4")
    w = data.dim_real // 4
    pont = {}
    for part in partitions(w):
        poly: Poly = {(): Fraction(1)}
        for k in part:
            poly = poly_mul(poly, _pontryagin_in_chern(k))
        val = Fraction(0)
        for cmono, coeff in poly.items():
            val += coeff * _eval_chern_monomial(data.chern, cmono)
        pont[part] = val
    return CharacteristicData(data.dim_real, pontryagin=pont, chern=data.chern, spin=data.spin)


def _eval_chern_monomial(chern, cmono: Monomial) -> Fraction:
    key = _norm(cmono)
    if key == ():
        return Fraction(1)
    if key not in chern:
        raise MissingMonomial(f"Chern number for monomial {key} not supplied")
    return Fraction(chern[key])


def ahat_genus(data: CharacteristicData) -> Fraction:
    """Evaluate the genus on the fundamental class.

    Zero (with a note) unless the real dimension is divisible by four;
    when the spin flag is set a non-integer result raises the
    NonIntegerSpinWarning (it signals inconsistent input data).
    """
    if data.dim_real % 4:
        data.notes = (data.notes + " dim not 0 mod 4: genus vanishes").strip()
        return Fraction(0)
    w = data.dim_real // 4
    if data.pontryagin is None:
        data = pontryagin_from_chern(data)
    poly = ahat_polynomials(w)[w - 1]
    val = Fraction(0)
    for mono, coeff in poly.items():
        if mono not in data.pontryagin:
            raise MissingMonomial(f"Pontryagin number for monomial {mono} not supplied")
        val += coeff * data.pontryagin[mono]
    if data.spin and val.denominator != 1:
        warnings.warn(
            f"spin manifold with non-integer genus {val}; input data inconsistent",
            NonIntegerSpinWarning,
        )
    return val


def product_characteristic_data(x: CharacteristicData, y: CharacteristicData) -> CharacteristicData:
    """Pontryagin numbers of a product, assembled by the Whitney formula.

    p_k(X x Y) = sum_{i+j=k} p_i(X) p_j(Y) at the numbers level: a
    p-monomial of the product splits over the factors and only the splits
    matching each factor's top weight survive.
    """
    if x.pontryagin is None or y.pontryagin is None:
        raise MissingMonomial("product data needs Pontryagin numbers on both factors")
    wx, wy = x.dim_real // 4, y.dim_real // 4
    w = wx + wy
    out = {}
    for part in partitions(w):
        total = Fraction(0)
        for split in _splits(part):
            xs, ys = split
            if sum(xs) != wx or sum(ys) != wy:
                continue
            px = x.pontryagin.get(_norm(xs))
            py = y.pontryagin.get(_norm(ys))
            if px is None or py is None:
                raise MissingMonomial(f"missing factor numbers for split {split}")
            total += px * py
        out[part] = total
    return CharacteristicData(
        x.dim_real + y.dim_real, pontryagin=out, spin=x.spin and y.spin
    )


def _splits(part: Monomial):
    """All ways to split each p_k of a monomial as p_i (x) p_(k-i)."""
    if not part:
        return [((), ())]
    head, rest = part[0], part[1:]
    out = []
    for xs, ys in _splits(rest):
        for i in range(0, head + 1):
            nxs = xs + ((i,) if i else ())
            nys = ys + ((head - i,) if head - i else ())
            out.append((nxs, nys))
    return out


# ---------------------------------------------------------------------------
# Lichnerowicz-style consistency verdict
# ---------------------------------------------------------------------------


@dataclass
class LichnerowiczVerdict:
    status: str  # consistent | InconsistentInput | no-conclusion
    genus: Optional[Fraction]
    notes: str = ""


def lichnerowicz_verdict(data: CharacteristicData, has_qpos_scalar_metric: bool) -> LichnerowiczVerdict:
    """Spin + quasi-positive-scalar-curvature metric forces a vanishing genus.

    A nonzero genus under those hypotheses flags the input as inconsistent
    (report state, not an exception).
    """
    if not data.spin:
        return LichnerowiczVerdict("no-conclusion", None, "manifold not spin")
    genus = ahat_genus(data)
    if not has_qpos_scalar_metric:
        return LichnerowiczVerdict("no-conclusion", genus, "no quasi-positive metric supplied")
    if genus == 0:
        return LichnerowiczVerdict("consistent", genus)
    return LichnerowiczVerdict(
        "InconsistentInput", genus,
        "spin + quasi-positive scalar curvature forces a vanishing genus",
    )


# ---------------------------------------------------------------------------
# CLI ingestion
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"([cp])(\d+)(?:\^(\d+))?")


def parse_characteristic_numbers(text: str):
    """Parse 'c1^2=0,c2=24' into a monomial -> Fraction dict.

    Returns (kind, numbers) where kind is 'c' or 'p'; mixing is rejected.
    """
    numbers = {}
    kind = None
    for item in filter(None, (s.strip() for s in text.split(","))):
        if "=" not in item:
            raise ValueError(f"expected name=value, got {item!r}")
        name, val = item.split("=", 1)
        mono = []
        pos = 0
        for mobj in _TOKEN.finditer(name.strip()):
            if mobj.start() != pos:
                raise ValueError(f"cannot parse monomial {name!r}")
            pos = mobj.end()
            k = kind or mobj.group(1)
            if mobj.group(1) != k:
                raise ValueError("cannot mix Chern and Pontryagin monomials")
            kind = k
            mono.extend([int(mobj.group(2))] * int(mobj.group(3) or 1))
        if pos != len(name.strip()) or not mono:
            raise ValueError(f"cannot parse monomial {name!r}")
        try:
            numbers[_norm(mono)] = Fraction(val.strip())
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {item!r}") from exc
    if kind is None:
        raise ValueError("no characteristic numbers found")
    return kind, numbers
