"""Pointwise tensor calculus for Hermitian metrics.

Everything here works on the complexified 2n-letter index alphabet
(0..n-1 holomorphic, n..2n-1 antiholomorphic) built from a MetricJet.
The real-coordinate Levi-Civita pipeline at the bottom of the module is a
deliberately independent implementation used as the verification oracle
for the complexified route; the two must never share intermediate code.

The curvature is computed on the letter blocks its consumer reads
(hol = holomorphic letters, anti = antiholomorphic, all = both):

- the Riemannian scalar (`riemannian_scalar`, `scalar_and_torsion_from_jet`,
  `scalar_identity_residual`) and the Hermitian-symmetry check read
  R_{i jbar k lbar} only, which needs d_B Gamma^C_{AD} on the blocks
  (anti, hol, hol, hol) and (hol, hol, anti, hol);
- d_jbar of dbar*(omega), the adjoint term, reads (hol, hol, anti, hol),
  so the scalar identity builds that block once for both;
- `curvature_complexified` and `riemannian_ricci` take all letters.

Contractions with several operands pass `optimize=True`, so numpy plans
them as batched matrix products; one-operand einsums are index
permutations and stay plain.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class CxBlocks:
    """Complexified metric data over the 2n-letter alphabet.

    A letter block is an index range: `hol` (0..n-1), `anti` (n..2n-1) or
    `letters` (all 2n).  The Christoffel derivative and the lowered
    curvature are built on the blocks a consumer asks for, four ranges at
    a time, and cached per block.  Only the free indices are restricted:
    each contraction runs over all letters in the same order, except that
    the lowering skips the letters where h vanishes, and adding an exact
    zero changes no sum.  So a block holds the same numbers as the
    matching slice of the all-letters tensor.
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
        self.d1H = np.asarray(jet.d1, dtype=complex)
        # the mixed block d_k d_lbar H, all that the Chern-Ricci form reads;
        # the full second derivatives d2H are read from the jet (forcing a
        # pending one) when christoffel_derivative first needs them
        self._jet = jet if need_second else None
        self.mixedH = np.asarray(jet.mixed, dtype=complex) if need_second else None
        self.d2H = None
        batch = H.shape[:-2]
        self.hol, self.anti, self.letters = range(n), range(n, 2 * n), range(2 * n)
        # the block R_{i jbar k lbar}
        self.hermitian_letters = (self.hol, self.anti, self.hol, self.anti)
        self._dgamma = {}
        self._rlow = {}

        hC = np.zeros(batch + (2 * n, 2 * n), dtype=complex)
        hC[..., :n, n:] = H
        hC[..., n:, :n] = np.swapaxes(H, -1, -2)
        self.hC = hC

        hCinv = np.zeros_like(hC)
        hCinv[..., :n, n:] = np.conj(self.Hinv)
        hCinv[..., n:, :n] = np.swapaxes(np.conj(self.Hinv), -1, -2)
        self.hCinv = hCinv

        dhC = np.zeros(batch + (2 * n, 2 * n, 2 * n), dtype=complex)
        dhC[..., :, :n, n:] = self.d1H
        dhC[..., :, n:, :n] = np.swapaxes(self.d1H, -1, -2)
        self.dhC = dhC

        # the (2n)^4 second-derivative block, built on first use by
        # christoffel_derivative from d2H
        self.d2hC = None

        # P[i, j] = h^{i jbar}, the mixed inverse pairing
        self.P = hCinv[..., :n, n:]

    def _key(self, blocks):
        return (self.letters,) * 4 if blocks is None else tuple(blocks)

    # -- connection ----------------------------------------------------

    def christoffel(self) -> np.ndarray:
        """Gamma[..., C, A, B] = Gamma^C_{AB}, symmetric in (A, B)."""
        if not hasattr(self, "_gamma"):
            # term[A, B, E] = d_B h_{AE} + d_A h_{BE} - d_E h_{AB}
            term = (
                np.einsum("...bae->...abe", self.dhC)
                + self.dhC
                - np.einsum("...eab->...abe", self.dhC)
            )
            self._gamma = 0.5 * np.einsum("...ce,...abe->...cab", self.hCinv, term, optimize=True)
            self._term = term
        return self._gamma

    def christoffel_derivative(self, blocks=None) -> np.ndarray:
        """dG[..., B, C, A, D] = d_B Gamma^C_{AD} on the letter blocks (B, C, A, D).

        `blocks` is four index ranges; all letters by default.
        """
        if self._jet is None:
            raise ValueError("second derivatives were not requested")
        key = self._key(blocks)
        if key not in self._dgamma:
            if self.d2hC is None:
                n = self.n
                self.d2H = np.asarray(self._jet.d2, dtype=complex)
                d2hC = np.zeros(self.H.shape[:-2] + (2 * n,) * 4, dtype=complex)
                d2hC[..., :, :, :n, n:] = self.d2H
                d2hC[..., :, :, n:, :n] = np.swapaxes(self.d2H, -1, -2)
                self.d2hC = d2hC
            B, C, A, D = (slice(r.start, r.stop) for r in key)
            self.christoffel()
            d2 = self.d2hC[..., B, :, :, :]
            dterm = (
                np.einsum("...bdae->...bade", d2[..., D, A, :])
                + d2[..., A, D, :]
                - np.einsum("...bead->...bade", d2[..., :, A, D])
            )
            hCinv = self.hCinv[..., C, :]
            dhCinv = -np.einsum(
                "...cf,...bfg,...ge->...bce",
                hCinv,
                self.dhC[..., B, :, :],
                self.hCinv,
                optimize=True,
            )
            self._dgamma[key] = 0.5 * (
                np.einsum(
                    "...bce,...ade->...bcad", dhCinv, self._term[..., A, D, :], optimize=True
                )
                + np.einsum("...ce,...bade->...bcad", hCinv, dterm, optimize=True)
            )
        return self._dgamma[key]

    # -- curvature -------------------------------------------------------

    def curvature_lowered(self, blocks=None, check_symmetry: bool = True) -> np.ndarray:
        """Rlow[..., A, B, C, D] = R(d_A, d_B, d_C, d_D) on the letter blocks (A, B, C, D).

        `blocks` is four index ranges; all letters by default.  Lowering
        with h pairs d only with letters e of the opposite type, so the
        raised tensor is needed on those e alone.
        """
        key = self._key(blocks)
        if key not in self._rlow:
            A, B, C, D = key
            E = {self.hol: self.anti, self.anti: self.hol}.get(D, self.letters)
            a, b, c, d, e = (slice(r.start, r.stop) for r in (A, B, C, D, E))
            G = self.christoffel()
            rup = -(
                np.einsum("...bdac->...dabc", self.christoffel_derivative((B, E, A, C)))
                - np.einsum("...adbc->...dabc", self.christoffel_derivative((A, E, B, C)))
                + np.einsum(
                    "...fac,...dfb->...dabc", G[..., :, a, c], G[..., e, :, b], optimize=True
                )
                - np.einsum(
                    "...fbc,...daf->...dabc", G[..., :, b, c], G[..., e, a, :], optimize=True
                )
            )
            self._rlow[key] = np.einsum(
                "...eabc,...ed->...abcd", rup, self.hC[..., e, d], optimize=True
            )
        if check_symmetry:
            res = self.hermitian_symmetry_residual()
            scale = self.hermitian_symmetry_scale()
            if not res <= HERMITIAN_SYMMETRY_TOL * scale:  # a NaN fails too
                raise CrossCheckFailed(
                    f"curvature Hermitian symmetry violated: {res:.3e} (scale {scale:.1e})"
                )
        return self._rlow[key]

    def curvature_hermitian(self) -> np.ndarray:
        """The block R_{i jbar k lbar}, unchecked; a view of the all-letters
        tensor once that is built."""
        full = self._rlow.get(self._key(None))
        if full is not None:
            n = self.n
            return full[..., :n, n:, :n, n:]
        return self.curvature_lowered(self.hermitian_letters, check_symmetry=False)

    def hermitian_symmetry_residual(self) -> float:
        """max |R_{i jbar k lbar} - conj(R_{j ibar l kbar})|."""
        a = self.curvature_hermitian()  # a[i,j,k,l] = R_{i jbar k lbar}
        b = np.conj(np.einsum("...jilk->...ijkl", a))
        return float(np.max(np.abs(a - b)))

    def hermitian_symmetry_scale(self) -> float:
        """1 + max |R_{i jbar k lbar}|, the scale of the symmetry tolerance."""
        return 1.0 + float(np.max(np.abs(self.curvature_hermitian())))

    # -- first- and second-order scalars -----------------------------------

    def torsion(self):
        """(T[..., k, i, j] = T^k_{ij}, |T|^2)."""
        n = self.n
        Dh = self.d1H[..., :n, :, :]  # d_i H[j, l]
        diff = Dh - np.einsum("...ijl->...jil", Dh)
        T = np.einsum("...kl,...ijl->...kij", self.P, diff, optimize=True)
        nsq = np.einsum(
            "...ip,...jq,...kl,...kij,...lpq->...",
            self.P,
            self.P,
            self.H,
            T,
            np.conj(T),
            optimize=True,
        )
        return T, np.real(nsq)

    def chern_ricci(self):
        """(R_{i jbar} = -d_i d_jbar log det h, its trace s_C)."""
        if self.mixedH is None:
            raise ValueError("second derivatives were not requested")
        n = self.n
        M2 = self.mixedH  # d_i d_jbar H
        t1 = np.einsum("...kl,...ijlk->...ij", self.Hinv, M2, optimize=True)
        t2 = np.einsum(
            "...ab,...ibc,...cd,...jda->...ij",
            self.Hinv,
            self.d1H[..., :n, :, :],
            self.Hinv,
            self.d1H[..., n:, :, :],
            optimize=True,
        )
        ricci = -(t1 - t2)
        s_c = np.einsum("...ij,...ji->...", ricci, self.Hinv, optimize=True)
        return ricci, np.real(s_c)


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
    cx = CxBlocks(jet)
    s, _ = _scalar_from_blocks(cx)
    return s, cx.torsion()[1]


def riemannian_scalar(metric, point):
    """Riemannian scalar curvature from the complexified curvature tensor."""
    cx = CxBlocks(_jet(metric, point))
    return _scalar_from_blocks(cx)


def _scalar_from_blocks(cx: CxBlocks):
    A1 = cx.curvature_lowered(cx.hermitian_letters)  # A1[i,j,k,l] = R_{i jbar k lbar}
    sR = np.einsum("...ij,...kl,...ilkj->...", cx.P, cx.P, A1, optimize=True)
    sH = np.einsum("...ij,...kl,...ijkl->...", cx.P, cx.P, A1, optimize=True)
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
    n = cx.n
    G = cx.christoffel()
    gsum = np.einsum("...kik->...i", G[..., :n, n:, :n])
    return 2j * np.conj(gsum)


def _dbar_star_omega_dbar(cx: CxBlocks) -> np.ndarray:
    """dtheta[..., j, i] = d_jbar of component i of dbar*(omega)."""
    dG = cx.christoffel_derivative((cx.hol, cx.hol, cx.anti, cx.hol))
    dgsum = np.einsum("...jkik->...ji", dG)
    return 2j * np.conj(dgsum)


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
