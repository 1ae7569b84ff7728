"""Pointwise tensor calculus for Hermitian metrics.

Everything here is built from a MetricJet by `CxBlocks`, on two paths
that hold the same numbers up to rounding:

- the Hermitian path reads H, H^-1, the first derivatives d1 and the
  mixed block d_k d_lbar H, never the full second derivatives.  It forms
  the n-index Christoffel blocks, their derivatives and the curvature
  block R_{i jbar k lbar}, which is all that the Riemannian scalar
  (`riemannian_scalar`, `scalar_and_torsion_from_jet`,
  `scalar_identity_residual`), its Hermitian-symmetry check, the adjoint
  term i d* dbar* omega, the torsion and the Chern-Ricci form read;
- the all-letters API works on the complexified 2n-letter alphabet
  (0..n-1 holomorphic, n..2n-1 antiholomorphic).  `christoffel`,
  `curvature_complexified` and `riemannian_ricci` take it; its
  curvature forces the jet's full second derivatives.

The Hermitian path keeps its arrays with the batch axes last and
contracts them by plain einsum, whose inner loop then runs over the
nodes.  Batch-first, the same contractions are several times slower on a
1024-node chunk: a plain einsum loops over the short index axes
innermost, and an `optimize=True` plan runs one tiny matrix product per
node.

The real-coordinate Levi-Civita pipeline at the bottom of the module is a
deliberately independent implementation used as the verification oracle
for the complexified route; the two must never share intermediate code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CrossCheckFailed, SingularMetric
from .geometry import HermitianMetricField, MetricJet, hermitian_to_real

HERMITIAN_SYMMETRY_TOL = 1e-10


@dataclass
class TensorBlock:
    """Indexed complex components of a tensor at a (batch of) point(s)."""

    kind: str
    indices: str
    components: np.ndarray
    point: np.ndarray


@dataclass
class ScalarReport:
    """Per-point scalar curvature bookkeeping for the identity check.

    identity_residual = s - (2 s_C - 2 adjoint_term - torsion_norm_sq / 2),
    stored exactly as computed.
    """

    point: np.ndarray
    s: np.ndarray
    s_c: np.ndarray
    torsion_norm_sq: np.ndarray
    adjoint_term: np.ndarray
    identity_residual: np.ndarray
    imag_defect: float = 0.0


# ---------------------------------------------------------------------------
# complexified blocks
# ---------------------------------------------------------------------------


def _nodes_last(a: np.ndarray, core: int) -> np.ndarray:
    """A contiguous copy of `a` with its batch axes behind its `core` trailing axes."""
    batch = a.ndim - core
    return np.ascontiguousarray(np.moveaxis(a, tuple(range(batch)), tuple(range(core, a.ndim))))


def _nodes_first(a: np.ndarray, core: int) -> np.ndarray:
    """The batch-first view of a node-last array with `core` leading axes."""
    return np.moveaxis(a, tuple(range(core)), tuple(range(a.ndim - core, a.ndim)))


def _check_hermitian_symmetry(a: np.ndarray) -> None:
    """Raise CrossCheckFailed unless a[..., i, j, k, l] = R_{i jbar k lbar}
    equals conj(R_{j ibar l kbar}) to tolerance, scaled by 1 + max |R|."""
    res, scale = _symmetry_residual(a), _symmetry_scale(a)
    if not res <= HERMITIAN_SYMMETRY_TOL * scale:  # a NaN fails too
        raise CrossCheckFailed(
            f"curvature Hermitian symmetry violated: {res:.3e} (scale {scale:.1e})"
        )


def _symmetry_residual(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - np.conj(np.einsum("...jilk->...ijkl", a)))))


def _symmetry_scale(a: np.ndarray) -> float:
    return 1.0 + float(np.max(np.abs(a)))


class CxBlocks:
    """Complexified metric data at a batch of points.

    The Hermitian path reads H, its first derivatives and the mixed block
    d_k d_lbar H in n-index arrays held with the batch axes last, so each
    einsum's inner loop runs over the nodes.  With g[e, m] = h^{e mbar} it
    forms the Christoffel blocks Gamma^e_{ik}, Gamma^e_{i kbar} and
    Gamma^ebar_{jbar k}, the derivatives d_jbar Gamma^e_{ik} and
    d_i Gamma^e_{k jbar}, and from them the curvature block
    R_{i jbar k lbar}; the scalar curvature, the Hermitian-symmetry check
    and the adjoint term read nothing else.

    The all-letters API (`christoffel`, `christoffel_derivative`,
    `curvature_lowered`) works on the 2n-letter alphabet (0..n-1
    holomorphic, n..2n-1 antiholomorphic).  Its arrays `hC`, `hCinv`,
    `dhC` and `d2hC` stay None until its first call builds them, and
    `d2hC` reads the jet's full second derivatives `d2H`, forcing a
    pending one.
    """

    def __init__(self, jet: MetricJet, need_second: bool = True):
        H = np.asarray(jet.H, dtype=complex)
        n = H.shape[-1]
        self.n = n
        self.H = H
        w = np.linalg.eigvalsh(H)
        if np.min(np.abs(w)) <= 1e-12 * max(float(np.max(np.abs(w))), 1.0):
            raise SingularMetric("metric not invertible to tolerance")
        self.Hinv = np.linalg.inv(H)
        # P[i, j] = h^{i jbar}, the mixed inverse pairing
        self.P = np.conj(self.Hinv)
        self.d1H = np.asarray(jet.d1, dtype=complex)
        # the mixed block d_k d_lbar H, all that the Hermitian path and the
        # Chern-Ricci form read; the full second derivatives d2H are read
        # from the jet only by the all-letters christoffel_derivative
        self._jet = jet if need_second else None
        self.mixedH = np.asarray(jet.mixed, dtype=complex) if need_second else None
        self.d2H = None
        self.hC = self.hCinv = self.dhC = self.d2hC = None
        self._gamma = self._dgamma = self._rlow = None

    # -- the Hermitian path, batch axes last ---------------------------------

    @cached_property
    def _H_last(self):
        return _nodes_last(self.H, 2)

    @cached_property
    def _Hinv_last(self):
        return _nodes_last(self.Hinv, 2)

    @cached_property
    def _P_last(self):
        return _nodes_last(self.P, 2)

    @cached_property
    def _d1_last(self):
        return _nodes_last(self.d1H, 3)

    @cached_property
    def _mixed_last(self):
        """M[k, l, i, j] = d_k d_lbar h_{i jbar}, batch axes last."""
        if self.mixedH is None:
            raise ValueError("second derivatives were not requested")
        return _nodes_last(self.mixedH, 4)

    @cached_property
    def _gamma_last(self):
        """Gamma^e_{ik}, Gamma^e_{i kbar} and Gamma^ebar_{ibar k}, each as [e, i, k]."""
        g, d1 = self._P_last, self._d1_last
        n = self.n
        dh, db = d1[:n], d1[n:]  # dh[k, i, m] = d_k h_{i mbar}, db[k, i, m] = d_kbar h_{i mbar}
        hol = 0.5 * np.einsum("em...,kim...->eik...", g, dh + np.swapaxes(dh, 0, 1))
        mixed = 0.5 * np.einsum("em...,kim...->eik...", g, db - np.swapaxes(db, 0, 2))
        anti = 0.5 * np.einsum("me...,kmi...->eik...", g, dh - np.swapaxes(dh, 0, 1))
        return hol, mixed, anti

    @cached_property
    def _dgamma_last(self):
        """d_jbar Gamma^e_{ik} and d_i Gamma^e_{k jbar}, each as [e, i, j, k]."""
        g, d1, M = self._P_last, self._d1_last, self._mixed_last
        n = self.n
        dh, db = d1[:n], d1[n:]
        dg = -np.einsum("ef...,Agf...,gm...->Aem...", g, d1, g)  # d_A g[e, m]
        d_anti_hol = 0.5 * (
            np.einsum("jem...,kim...->eijk...", dg[n:], dh + np.swapaxes(dh, 0, 1))
            + np.einsum("em...,kjim...->eijk...", g, M + np.swapaxes(M, 0, 2))
        )
        d_hol_mixed = 0.5 * (
            np.einsum("iem...,jkm...->eijk...", dg[:n], db - np.swapaxes(db, 0, 2))
            + np.einsum("em...,ijkm...->eijk...", g, M - np.swapaxes(M, 1, 3))
        )
        return d_anti_hol, d_hol_mixed

    @cached_property
    def _curvature_last(self):
        """R_{i jbar k lbar} as [i, j, k, l]."""
        H = self._H_last
        hol, mixed, anti = self._gamma_last
        d_anti_hol, d_hol_mixed = self._dgamma_last
        # R^e_{i jbar k} = -(d_jbar Gamma^e_{ik} - d_i Gamma^e_{k jbar}
        #   + Gamma^f_{ik} Gamma^e_{f jbar} - Gamma^f_{k jbar} Gamma^e_{if}
        #   - Gamma^fbar_{jbar k} Gamma^e_{i fbar})
        rup = (
            d_anti_hol
            - d_hol_mixed
            + np.einsum("fik...,efj...->eijk...", hol, mixed)
            - np.einsum("fkj...,eif...->eijk...", mixed, hol)
            - np.einsum("fjk...,eif...->eijk...", anti, mixed)
        )
        return -np.einsum("eijk...,el...->ijkl...", rup, H)

    def curvature_hermitian(self) -> np.ndarray:
        """R[..., i, j, k, l] = R_{i jbar k lbar}, unchecked."""
        return _nodes_first(self._curvature_last, 4)

    def hermitian_symmetry_residual(self) -> float:
        """max |R_{i jbar k lbar} - conj(R_{j ibar l kbar})|."""
        return _symmetry_residual(self.curvature_hermitian())

    def hermitian_symmetry_scale(self) -> float:
        """1 + max |R_{i jbar k lbar}|, the scale of the symmetry tolerance."""
        return _symmetry_scale(self.curvature_hermitian())

    # -- the all-letters API ---------------------------------------------

    def christoffel(self) -> np.ndarray:
        """Gamma[..., C, A, B] = Gamma^C_{AB}, symmetric in (A, B)."""
        if self._gamma is None:
            n = self.n
            batch = self.H.shape[:-2]
            hC = np.zeros(batch + (2 * n, 2 * n), dtype=complex)
            hC[..., :n, n:] = self.H
            hC[..., n:, :n] = np.swapaxes(self.H, -1, -2)
            hCinv = np.zeros_like(hC)
            hCinv[..., :n, n:] = self.P
            hCinv[..., n:, :n] = np.swapaxes(self.P, -1, -2)
            dhC = np.zeros(batch + (2 * n, 2 * n, 2 * n), dtype=complex)
            dhC[..., :, :n, n:] = self.d1H
            dhC[..., :, n:, :n] = np.swapaxes(self.d1H, -1, -2)
            self.hC, self.hCinv, self.dhC = hC, hCinv, dhC
            # term[A, B, E] = d_B h_{AE} + d_A h_{BE} - d_E h_{AB}
            self._term = (
                np.einsum("...bae->...abe", dhC) + dhC - np.einsum("...eab->...abe", dhC)
            )
            self._gamma = 0.5 * np.einsum("...ce,...abe->...cab", hCinv, self._term, optimize=True)
        return self._gamma

    def christoffel_derivative(self) -> np.ndarray:
        """dG[..., B, C, A, D] = d_B Gamma^C_{AD}."""
        if self._jet is None:
            raise ValueError("second derivatives were not requested")
        if self._dgamma is None:
            self.christoffel()
            n = self.n
            self.d2H = np.asarray(self._jet.d2, dtype=complex)
            d2hC = np.zeros(self.H.shape[:-2] + (2 * n,) * 4, dtype=complex)
            d2hC[..., :, :, :n, n:] = self.d2H
            d2hC[..., :, :, n:, :n] = np.swapaxes(self.d2H, -1, -2)
            self.d2hC = d2hC
            dterm = (
                np.einsum("...bdae->...bade", d2hC)
                + d2hC
                - np.einsum("...bead->...bade", d2hC)
            )
            dhCinv = -np.einsum(
                "...cf,...bfg,...ge->...bce", self.hCinv, self.dhC, self.hCinv, optimize=True
            )
            self._dgamma = 0.5 * (
                np.einsum("...bce,...ade->...bcad", dhCinv, self._term, optimize=True)
                + np.einsum("...ce,...bade->...bcad", self.hCinv, dterm, optimize=True)
            )
        return self._dgamma

    def curvature_lowered(self) -> np.ndarray:
        """Rlow[..., A, B, C, D] = R(d_A, d_B, d_C, d_D), its block
        R_{i jbar k lbar} checked for Hermitian symmetry."""
        if self._rlow is None:
            G = self.christoffel()
            dG = self.christoffel_derivative()
            rup = -(
                np.einsum("...bdac->...dabc", dG)
                - np.einsum("...adbc->...dabc", dG)
                + np.einsum("...fac,...dfb->...dabc", G, G, optimize=True)
                - np.einsum("...fbc,...daf->...dabc", G, G, optimize=True)
            )
            self._rlow = np.einsum("...eabc,...ed->...abcd", rup, self.hC, optimize=True)
        n = self.n
        _check_hermitian_symmetry(self._rlow[..., :n, n:, :n, n:])
        return self._rlow

    # -- first- and second-order scalars -----------------------------------

    def torsion(self):
        """(T[..., k, i, j] = T^k_{ij}, |T|^2)."""
        H, P = self._H_last, self._P_last
        Dh = self._d1_last[: self.n]  # Dh[i, j, l] = d_i h_{j lbar}
        T = np.einsum("kl...,ijl...->kij...", P, Dh - np.swapaxes(Dh, 0, 1))
        # |T|^2 = h_{k lbar} h^{i pbar} h^{j qbar} T^k_{ij} conj(T^l_{pq})
        low = np.einsum("kl...,kij...->lij...", H, T)
        up = np.einsum("ip...,lpj...->lij...", P, np.einsum("jq...,lpq...->lpj...", P, np.conj(T)))
        nsq = np.einsum("lij...,lij...->...", low, up)
        return _nodes_first(T, 3), np.real(nsq)

    def chern_ricci(self):
        """(R_{i jbar} = -d_i d_jbar log det h, its trace s_C)."""
        M, Hinv, d1 = self._mixed_last, self._Hinv_last, self._d1_last
        n = self.n
        t1 = np.einsum("kl...,ijlk...->ij...", Hinv, M)
        # t2[i, j] = tr(Hinv d_i H Hinv d_jbar H)
        left = np.einsum("ab...,ibc...->iac...", Hinv, d1[:n])
        right = np.einsum("cd...,jda...->jca...", Hinv, d1[n:])
        t2 = np.einsum("iac...,jca...->ij...", left, right)
        ricci = -(t1 - t2)
        s_c = np.einsum("ij...,ji...->...", ricci, Hinv)
        return _nodes_first(ricci, 2), np.real(s_c)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _jet(metric: HermitianMetricField, point):
    return metric.jet(np.asarray(point, dtype=complex))


def christoffel(metric, point) -> TensorBlock:
    """Complexified Christoffel symbols Gamma^C_{AB} at a point.

    The slots forbidden by the Hermitian structure (Gamma^k_{ibar jbar} and
    its conjugate) vanish identically; they are zeroed structurally.
    """
    cx = CxBlocks(_jet(metric, point), need_second=False)
    G = cx.christoffel().copy()
    n = cx.n
    G[..., :n, n:, n:] = 0.0
    G[..., n:, :n, :n] = 0.0
    return TensorBlock("christoffel", "C;AB", G, np.asarray(point))


def torsion(metric, point):
    """Torsion T^k_{ij} and its squared norm |T|^2 >= 0."""
    T, nsq = CxBlocks(_jet(metric, point), need_second=False).torsion()
    return TensorBlock("torsion", "k;ij", T, np.asarray(point)), nsq


def curvature_complexified(metric, point) -> TensorBlock:
    """Lowered complexified curvature R_{ABCD} over all index letters."""
    cx = CxBlocks(_jet(metric, point))
    R = cx.curvature_lowered()
    return TensorBlock("curvature", "ABCD", R, np.asarray(point))


def chern_ricci(metric, point):
    """Chern-Ricci form R_{i jbar} = -d_i d_jbar log det h and its trace."""
    return chern_ricci_from_jet(_jet(metric, point))


def chern_ricci_from_jet(jet: MetricJet):
    return CxBlocks(jet).chern_ricci()


def scalar_and_torsion_from_jet(jet: MetricJet):
    """(s, |T|^2) from a metric jet; the lean path for integral checks."""
    return scalar_and_torsion(CxBlocks(jet))


def scalar_and_torsion(cx: CxBlocks):
    """(s, |T|^2) from the blocks of a metric jet."""
    s, _ = _scalar_from_blocks(cx)
    return s, cx.torsion()[1]


def riemannian_scalar(metric, point):
    """Riemannian scalar curvature from the complexified curvature tensor."""
    cx = CxBlocks(_jet(metric, point))
    return _scalar_from_blocks(cx)


def _scalar_from_blocks(cx: CxBlocks):
    _check_hermitian_symmetry(cx.curvature_hermitian())
    R = cx._curvature_last  # R[i, j, k, l] = R_{i jbar k lbar}, batch axes last
    P = cx._P_last
    sR = np.einsum("ij...,kl...,ilkj...->...", P, P, R)
    sH = np.einsum("ij...,kl...,ijkl...->...", P, P, R)
    s = 2.0 * (2.0 * sR - sH)
    return np.real(s), float(np.max(np.abs(np.imag(s))))


def riemannian_ricci(metric, point, X, Y):
    """Ricci curvature Ric(X, Y) for real tangent vectors X, Y (length 2n)."""
    cx = CxBlocks(_jet(metric, point))
    n = cx.n
    R = cx.curvature_lowered()
    Xc = _complexify_vector(np.asarray(X, dtype=float), n)
    Yc = _complexify_vector(np.asarray(Y, dtype=float), n)
    S = R[..., :n, :, :, n:]  # S[i, A, B, l]
    val = np.einsum("...il,...iABl,A,B->...", cx.P, S, Xc, Yc, optimize=True) + np.einsum(
        "...il,...iABl,A,B->...", cx.P, S, Yc, Xc, optimize=True
    )
    return np.real(val)


def _complexify_vector(X: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of a real tangent vector on the complexified frame."""
    Xc = np.zeros(2 * n, dtype=complex)
    Xc[:n] = X[:n] + 1j * X[n:]
    Xc[n:] = X[:n] - 1j * X[n:]
    return Xc


def dbar_star_omega(metric, point) -> TensorBlock:
    """The (1, 0)-form dbar*(omega) = 2i conj(Gamma^k_{ibar k}) dz^i."""
    cx = CxBlocks(_jet(metric, point), need_second=False)
    theta = _dbar_star_omega_components(cx)
    return TensorBlock("one-form", "i", theta, np.asarray(point))


def _dbar_star_omega_components(cx: CxBlocks) -> np.ndarray:
    gsum = np.einsum("kki...->i...", cx._gamma_last[1])  # Gamma^k_{ibar k}
    return 2j * np.conj(_nodes_first(gsum, 1))


def _dbar_star_omega_dbar(cx: CxBlocks) -> np.ndarray:
    """dtheta[..., j, i] = d_jbar of component i of dbar*(omega)."""
    dgsum = np.einsum("kjik...->ji...", cx._dgamma_last[1])  # d_j Gamma^k_{ibar k}
    return 2j * np.conj(_nodes_first(dgsum, 2))


def p_star_oneform(cx: CxBlocks, eta: np.ndarray, deta_anti: np.ndarray) -> np.ndarray:
    """Formal adjoint of d on (1, 0)-forms via the divergence closed form.

    eta[..., i] are the components; deta_anti[..., j, i] = d_jbar eta_i.
    Realizes d*(eta) = -(1/V) d_jbar(V h^{j ibar-pairing} eta_i) with
    V = det h; the integration-by-parts tests are its acceptance gate.
    """
    n = cx.n
    Hinv, d1H = cx.Hinv, cx.d1H
    dHinv_anti = -np.einsum(
        "...ab,...jbc,...cd->...jad", Hinv, d1H[..., n:, :, :], Hinv, optimize=True
    )
    dlogdet_anti = np.einsum("...ab,...jba->...j", Hinv, d1H[..., n:, :, :], optimize=True)
    # d*eta = -sum_{i,j} [ (d_jbar eta_i) Hinv[j,i] + eta_i d_jbar Hinv[j,i]
    #                      + eta_i Hinv[j,i] d_jbar log det H ]
    return -(
        np.einsum("...ji,...ji->...", deta_anti, Hinv, optimize=True)
        + np.einsum("...i,...jji->...", eta, dHinv_anti, optimize=True)
        + np.einsum("...i,...ji,...j->...", eta, Hinv, dlogdet_anti, optimize=True)
    )


def _adjoint_term_from_blocks(cx: CxBlocks):
    """The real scalar i d* dbar* omega entering the curvature identity, and
    the largest imaginary part dropped."""
    theta = _dbar_star_omega_components(cx)
    dtheta = _dbar_star_omega_dbar(cx)
    val = 1j * p_star_oneform(cx, theta, dtheta)
    return np.real(val), float(np.max(np.abs(np.imag(val))))


def scalar_identity_residual(metric, point) -> ScalarReport:
    """Evaluate both scalar curvatures and the relation between them.

    The report stores s, s_C, |T|^2, the adjoint term and the residual
    s - (2 s_C - 2 adj - |T|^2 / 2); for exact arithmetic the residual is
    identically zero on any Hermitian metric.
    """
    point = np.asarray(point, dtype=complex)
    cx = CxBlocks(_jet(metric, point))
    s, im_s = _scalar_from_blocks(cx)
    _, tsq = cx.torsion()
    _, s_c = cx.chern_ricci()
    adj, im_a = _adjoint_term_from_blocks(cx)
    residual = s - (2.0 * s_c - 2.0 * adj - 0.5 * tsq)
    return ScalarReport(
        point=point,
        s=s,
        s_c=s_c,
        torsion_norm_sq=tsq,
        adjoint_term=adj,
        identity_residual=residual,
        imag_defect=float(np.maximum(im_s, im_a)),
    )


# ---------------------------------------------------------------------------
# independent real-coordinate oracle (Levi-Civita in real coordinates)
# ---------------------------------------------------------------------------


_REAL_FROM_WIRTINGER_CACHE = {}


def _real_from_wirtinger(n: int) -> np.ndarray:
    """V[a, A]: real partial a as a combination of Wirtinger slots A."""
    if n not in _REAL_FROM_WIRTINGER_CACHE:
        V = np.zeros((2 * n, 2 * n), dtype=complex)
        for i in range(n):
            V[i, i] = 1.0
            V[i, n + i] = 1.0
            V[n + i, i] = 1j
            V[n + i, n + i] = -1j
        _REAL_FROM_WIRTINGER_CACHE[n] = V
    return _REAL_FROM_WIRTINGER_CACHE[n]


def real_metric_jets(jet: MetricJet):
    """Real metric g and its first/second real-coordinate derivatives."""
    n = jet.n
    V = _real_from_wirtinger(n)
    dH = np.einsum("aA,...Aij->...aij", V, jet.d1, optimize=True)
    d2H = np.einsum("aA,bB,...ABij->...abij", V, V, jet.d2, optimize=True)
    G = hermitian_to_real(jet.H)
    dG = hermitian_to_real(dH)
    d2G = hermitian_to_real(d2H)
    return G, dG, d2G


def riemannian_scalar_real_oracle(metric, point):
    """Scalar curvature computed entirely in real coordinates.

    Independent verification path: works on the induced real metric with
    standard Levi-Civita formulas and never touches the complexified code.
    """
    jet = _jet(metric, point)
    G, dG, d2G = real_metric_jets(jet)
    return _real_scalar(G, dG, d2G)


def _brace(dG):
    # brace[b, c, d] = d_b G[c, d] + d_c G[b, d] - d_d G[b, c]
    return (
        dG
        + np.einsum("...cbd->...bcd", dG)
        - np.einsum("...dbc->...bcd", dG)
    )


def _real_riemann(G, dG, d2G):
    """Real Riemann tensor R^a_{bcd} and helpers from metric jets."""
    Ginv = np.linalg.inv(G)
    Gam = 0.5 * np.einsum("...ad,...bcd->...abc", Ginv, _brace(dG), optimize=True)
    dGinv = -np.einsum("...ae,...ceg,...gd->...cad", Ginv, dG, Ginv, optimize=True)
    dbrace = (
        d2G
        + np.einsum("...ecbd->...ebcd", d2G)
        - np.einsum("...edbc->...ebcd", d2G)
    )
    dGam = 0.5 * (
        np.einsum("...ead,...bcd->...eabc", dGinv, _brace(dG), optimize=True)
        + np.einsum("...ad,...ebcd->...eabc", Ginv, dbrace, optimize=True)
    )
    # R^a_{bcd} = d_c Gam^a_{db} - d_d Gam^a_{cb}
    #             + Gam^a_{ce} Gam^e_{db} - Gam^a_{de} Gam^e_{cb}
    riem = (
        np.einsum("...cadb->...abcd", dGam)
        - np.einsum("...dacb->...abcd", dGam)
        + np.einsum("...ace,...edb->...abcd", Gam, Gam, optimize=True)
        - np.einsum("...ade,...ecb->...abcd", Gam, Gam, optimize=True)
    )
    return riem, Ginv


def _real_scalar(G, dG, d2G):
    riem, Ginv = _real_riemann(G, dG, d2G)
    ricci = np.einsum("...abad->...bd", riem)
    return np.real(np.einsum("...bd,...bd->...", Ginv, ricci, optimize=True))


def real_curvature_lowered(jet: MetricJet):
    """Fully lowered real Riemann tensor, Ricci and metric, oracle-side."""
    G, dG, d2G = real_metric_jets(jet)
    riem, Ginv = _real_riemann(G, dG, d2G)
    rlow = np.einsum("...ae,...ebcd->...abcd", G, riem, optimize=True)
    ricci = np.einsum("...abad->...bd", riem)
    return rlow, ricci, G, Ginv
