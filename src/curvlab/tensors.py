"""Pointwise tensor calculus for Hermitian metrics.

Two implementations of the curvature, which must never share
intermediate code:

- `CxBlocks`, the Hermitian path, reads H, H^-1, the first derivatives
  d1 and the mixed block d_k d_lbar H, never the full second
  derivatives.  It forms the n-index Christoffel blocks, their
  derivatives and the curvature block R_{i jbar k lbar}, which is all
  that the Riemannian scalar (`riemannian_scalar`,
  `scalar_and_torsion_from_jet`, `scalar_identity_residual`), its
  Hermitian-symmetry check, the adjoint term i d* dbar* omega, the
  torsion and the Chern-Ricci form read.  The same blocks serve the
  Gauduchon operator of `gauduchon`: H^-1, the torsion one-form
  theta = dbar* omega and the adjoint term are its coefficients.
  `christoffel` assembles the complexified symbols Gamma^C_{AB} over the
  2n letters (0..n-1 holomorphic, n..2n-1 antiholomorphic) from its
  blocks.
- the real-coordinate Levi-Civita pipeline at the bottom of the module
  works on the induced real metric and its full second derivatives.  It
  is the verification oracle for the Hermitian path, and the only route
  to Ricci and the full Riemann tensor.  The scalar oracle
  `riemannian_scalar_real_oracle` and `riemannian_ricci` read one Ricci
  function, contracted straight from the real jets without the
  derivatives of the Christoffel symbols; the (2n)^4 tensor R^a_{bcd} is
  built only for `curvature_complexified`, which moves its lowered form
  onto the Wirtinger frame.

Both paths keep their arrays with the batch axes last (`_nodes_last`)
and contract them by plain einsum, whose inner loop then runs over the
nodes.  Batch-first, the same contractions are several times slower on a
1024-node chunk: a plain einsum loops over the short index axes
innermost, and an `optimize=True` plan runs one tiny matrix product per
node.  The two paths share that layout helper and no curvature
intermediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CrossCheckFailed, SingularMetric
from .geometry import HermitianMetricField, MetricJet, _wirtinger_matrix, hermitian_to_real

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
    """Complexified metric data at a batch of points: the Hermitian path.

    Reads H, its first derivatives and the mixed block d_k d_lbar H (if
    `need_second`) in n-index arrays held with the batch axes last, so
    each einsum's inner loop runs over the nodes; the jet's full second
    derivatives are never read.  With g[e, m] = h^{e mbar} it forms the
    Christoffel blocks Gamma^e_{ik}, Gamma^e_{i kbar} and
    Gamma^ebar_{jbar k}, the derivatives d_jbar Gamma^e_{ik} and
    d_i Gamma^e_{k jbar}, and from them the curvature block
    R_{i jbar k lbar}; the scalar curvature and the Hermitian-symmetry
    check read nothing else.  Each array is formed on first read and
    kept: theta = dbar*(omega) is one contraction of d1, and its
    dbar-derivative the trace of the d_i Gamma^e_{k jbar} block, so the
    adjoint term and the Gauduchon coefficients build no other block.
    """

    # Always None: the CxBlocks byte counter of perfbench/tracing.py still
    # reads these names of the removed (2n)-letter arrays after __init__.
    d2H = hC = hCinv = dhC = d2hC = None

    def __init__(self, jet: MetricJet, need_second: bool = True):
        H = np.asarray(jet.H, dtype=complex)
        self.n = H.shape[-1]
        self.H = H
        # LAPACK can read a NaN as singular; leave it to the checks that name its node
        finite = np.all(np.isfinite(H), axis=(-2, -1))
        w = np.linalg.eigvalsh(H if np.all(finite) else H[finite])
        if w.size and np.min(np.abs(w)) <= 1e-12 * max(float(np.max(np.abs(w))), 1.0):
            raise SingularMetric("metric not invertible to tolerance")
        self.Hinv = np.linalg.inv(H)
        # inv reads an infinite entry as a finite inverse: a non-finite H has none
        self.Hinv[~finite] = np.nan
        self.d1H = np.asarray(jet.d1, dtype=complex)
        # the mixed block d_k d_lbar H, all the second derivatives read here
        self.mixedH = np.asarray(jet.mixed, dtype=complex) if need_second else None

    # -- the Hermitian path, batch axes last ---------------------------------

    @cached_property
    def _H_last(self):
        return _nodes_last(self.H, 2)

    @cached_property
    def _Hinv_last(self):
        return _nodes_last(self.Hinv, 2)

    @cached_property
    def _P_last(self):
        """P[i, j] = h^{i jbar}, the mixed inverse pairing, batch axes last."""
        return np.conj(self._Hinv_last)

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

    def _dP(self, d1):
        """d_A g[e, m] = -(g (d_A H)^T g)[e, m] for the slots A of d1, as [A, e, m]."""
        g = self._P_last
        return -np.einsum("Aef...,fm...->Aem...", np.einsum("eg...,Afg...->Aef...", g, d1), g)

    @cached_property
    def _d_anti_hol(self):
        """d_jbar Gamma^e_{ik} as [e, i, j, k]."""
        g, M = self._P_last, self._mixed_last
        n = self.n
        dh, dg = self._d1_last[:n], self._dP(self._d1_last[n:])
        return 0.5 * (
            np.einsum("jem...,kim...->eijk...", dg, dh + np.swapaxes(dh, 0, 1))
            + np.einsum("em...,kjim...->eijk...", g, M + np.swapaxes(M, 0, 2))
        )

    @cached_property
    def _d_hol_mixed(self):
        """d_i Gamma^e_{k jbar} as [e, i, j, k]; dtheta is its trace."""
        g, M = self._P_last, self._mixed_last
        n = self.n
        db, dg = self._d1_last[n:], self._dP(self._d1_last[:n])
        return 0.5 * (
            np.einsum("iem...,jkm...->eijk...", dg, db - np.swapaxes(db, 0, 2))
            + np.einsum("em...,ijkm...->eijk...", g, M - np.swapaxes(M, 1, 3))
        )

    @cached_property
    def _theta_last(self):
        """theta[i] = 2i conj(Gamma^k_{ibar k}), the components of dbar*(omega)."""
        g, db = self._P_last, self._d1_last[self.n :]
        gsum = np.einsum("km...,ikm...->i...", g, db) - np.einsum("km...,mki...->i...", g, db)
        return 1j * np.conj(gsum)

    @cached_property
    def _dtheta_last(self):
        """dtheta[j, i] = d_jbar theta_i."""
        return 2j * np.conj(np.einsum("kjik...->ji...", self._d_hol_mixed))

    @cached_property
    def _curvature_last(self):
        """R_{i jbar k lbar} as [i, j, k, l]."""
        H = self._H_last
        hol, mixed, anti = self._gamma_last
        # R^e_{i jbar k} = -(d_jbar Gamma^e_{ik} - d_i Gamma^e_{k jbar}
        #   + Gamma^f_{ik} Gamma^e_{f jbar} - Gamma^f_{k jbar} Gamma^e_{if}
        #   - Gamma^fbar_{jbar k} Gamma^e_{i fbar})
        rup = (
            self._d_anti_hol
            - self._d_hol_mixed
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

    def adjoint_term(self) -> np.ndarray:
        """i d* dbar* omega, complex: the d* of theta = dbar*(omega)."""
        db = self._d1_last[self.n :]
        return 1j * _p_star_last(self._Hinv_last, db, self._theta_last, self._dtheta_last)

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
    """Complexified Christoffel symbols Gamma[..., C, A, B] = Gamma^C_{AB}
    at a point, symmetric in (A, B), assembled from the Hermitian blocks.

    The slots forbidden by the Hermitian structure (Gamma^k_{ibar jbar} and
    its conjugate) vanish identically; they hold exact zeros.
    """
    cx = CxBlocks(_jet(metric, point), need_second=False)
    n = cx.n
    hol, mixed, anti = (_nodes_first(g, 3) for g in cx._gamma_last)
    G = np.zeros(cx.H.shape[:-2] + (2 * n,) * 3, dtype=complex)
    G[..., :n, :n, :n] = hol
    G[..., :n, :n, n:] = mixed  # Gamma^e_{i kbar}
    G[..., :n, n:, :n] = np.swapaxes(mixed, -1, -2)
    G[..., n:, n:, :n] = anti  # Gamma^ebar_{ibar k}
    G[..., n:, :n, n:] = np.swapaxes(anti, -1, -2)
    G[..., n:, n:, n:] = np.conj(hol)
    return TensorBlock("christoffel", "C;AB", G, np.asarray(point))


def torsion(metric, point):
    """Torsion T^k_{ij} and its squared norm |T|^2 >= 0."""
    T, nsq = CxBlocks(_jet(metric, point), need_second=False).torsion()
    return TensorBlock("torsion", "k;ij", T, np.asarray(point)), nsq


def curvature_complexified(metric, point) -> TensorBlock:
    """Lowered complexified curvature R_{ABCD} = <R(d_A, d_B) d_C, d_D> over
    all 2n letters.

    The real oracle's lowered Riemann tensor moved onto the Wirtinger
    frame; its block R_{i jbar k lbar} is checked for Hermitian symmetry.
    """
    jet = _jet(metric, point)
    n = jet.n
    rlow = real_riemann_lowered(jet)
    W = _wirtinger_matrix(n)
    # rlow[d, c, a, b] = <R(e_a, e_b) e_c, e_d> in the real frame e
    R = np.einsum("Aa,Bb,Cc,Dd,...dcab->...ABCD", W, W, W, W, rlow, optimize=True)
    _check_hermitian_symmetry(R[..., :n, n:, :n, n:])
    return TensorBlock("curvature", "ABCD", R, np.asarray(point))


def chern_ricci(metric, point):
    """Chern-Ricci form R_{i jbar} = -d_i d_jbar log det h and its trace."""
    return CxBlocks(_jet(metric, point)).chern_ricci()


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
    """Ricci curvature (Ric(X, Y) + Ric(Y, X)) / 2 of the real oracle, for
    real tangent vectors X, Y (length 2n, real coordinates x then y)."""
    ricci, _ = _real_ricci_last(_jet(metric, point))
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    return 0.5 * (
        np.einsum("ab...,a,b->...", ricci, X, Y) + np.einsum("ab...,a,b->...", ricci, Y, X)
    )


def dbar_star_omega(metric, point) -> TensorBlock:
    """The (1, 0)-form dbar*(omega) = 2i conj(Gamma^k_{ibar k}) dz^i."""
    cx = CxBlocks(_jet(metric, point), need_second=False)
    theta = _dbar_star_omega_components(cx)
    return TensorBlock("one-form", "i", theta, np.asarray(point))


def _dbar_star_omega_components(cx: CxBlocks) -> np.ndarray:
    return _nodes_first(cx._theta_last, 1)


def _dbar_star_omega_dbar(cx: CxBlocks) -> np.ndarray:
    """dtheta[..., j, i] = d_jbar of component i of dbar*(omega)."""
    return _nodes_first(cx._dtheta_last, 2)


def p_star_oneform(cx: CxBlocks, eta: np.ndarray, deta_anti: np.ndarray) -> np.ndarray:
    """Formal adjoint of d on (1, 0)-forms via the divergence closed form.

    eta[..., i] are the components; deta_anti[..., j, i] = d_jbar eta_i.
    Realizes d*(eta) = -(1/V) d_jbar(V h^{j ibar-pairing} eta_i) with
    V = det h; the integration-by-parts tests are its acceptance gate.
    """
    # node-last copies for this call only, not the cached ones of CxBlocks:
    # the grid-wide blocks of the adjoint suite would keep those alive
    Hinv = _nodes_last(cx.Hinv, 2)
    db = _nodes_last(cx.d1H[..., cx.n :, :, :], 3)
    return _p_star_last(Hinv, db, _nodes_last(eta, 1), _nodes_last(deta_anti, 2))


def _p_star_last(Hinv, db, eta, deta):
    """d*(eta) from node-last Hinv, db[j] = d_jbar H, eta and deta[j, i] = d_jbar eta_i."""
    # d*eta = -sum_{i,j} [ (d_jbar eta_i) Hinv[j,i] + eta_i d_jbar Hinv[j,i]
    #                      + eta_i Hinv[j,i] d_jbar log det H ],
    # with d_jbar Hinv = -Hinv (d_jbar H) Hinv and d_jbar log det H = tr(Hinv d_jbar H)
    left = np.einsum("jb...,jbc...->c...", Hinv, db)  # sum_j (Hinv d_jbar H)[j, c]
    dlogdet = np.einsum("ab...,jba...->j...", Hinv, db)
    return -(
        np.einsum("ji...,ji...->...", deta, Hinv)
        - np.einsum("i...,c...,ci...->...", eta, left, Hinv)
        + np.einsum("i...,ji...,j...->...", eta, Hinv, dlogdet)
    )


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
    adj = cx.adjoint_term()
    residual = s - (2.0 * s_c - 2.0 * adj.real - 0.5 * tsq)
    return ScalarReport(
        point=point,
        s=s,
        s_c=s_c,
        torsion_norm_sq=tsq,
        adjoint_term=adj.real,
        identity_residual=residual,
        imag_defect=float(np.maximum(im_s, np.max(np.abs(adj.imag)))),
    )


# ---------------------------------------------------------------------------
# independent real-coordinate oracle (Levi-Civita in real coordinates)
# ---------------------------------------------------------------------------


def _real_partials(a: np.ndarray, n: int) -> np.ndarray:
    """The real partials d_x then d_y on axis 0 of a node-last array holding
    Wirtinger slots there: d_x = d + dbar, d_y = i (d - dbar)."""
    return np.concatenate([a[:n] + a[n:], 1j * (a[:n] - a[n:])])


def _real_first_last(jet: MetricJet):
    """G[a, b] and dG[c, a, b] = d_c G[a, b] in real coordinates, node axes last."""
    n = jet.n
    G = hermitian_to_real(_nodes_last(jet.H, 2), axis=0)
    dG = hermitian_to_real(_real_partials(_nodes_last(jet.d1, 3), n), axis=1)
    return G, dG


def _real_second_last(jet: MetricJet):
    """d2G[c, d, a, b] = d_c d_d G[a, b] in real coordinates, node axes last."""
    n = jet.n
    # the real partials on the first Wirtinger slot, then on the second
    half = np.swapaxes(_real_partials(_nodes_last(jet.d2, 4), n), 0, 1)
    return hermitian_to_real(np.swapaxes(_real_partials(half, n), 0, 1), axis=2)


def real_metric_first_jets(jet: MetricJet):
    """Real metric g and its first real-coordinate derivatives; a pending
    second derivative of the jet stays pending."""
    G, dG = _real_first_last(jet)
    return _nodes_first(G, 2), _nodes_first(dG, 3)


def real_metric_jets(jet: MetricJet):
    """Real metric g and its first/second real-coordinate derivatives."""
    return (*real_metric_first_jets(jet), _nodes_first(_real_second_last(jet), 4))


def riemannian_scalar_real_oracle(metric, point):
    """Scalar curvature computed entirely in real coordinates.

    Independent verification path: works on the induced real metric with
    standard Levi-Civita formulas and never touches the complexified code.
    """
    ricci, Ginv = _real_ricci_last(_jet(metric, point))
    return np.einsum("bd...,bd...->...", Ginv, ricci)


def _real_connection_last(jet: MetricJet):
    """(G, G^-1, d2G, X, Gamma_{cdb}, Gamma^a_{db}) of the real Levi-Civita
    connection, node axes last, with X[k] = G^-1 d_k G (so that
    d_k G^-1 = -X[k] G^-1) and each symbol as [., d, b]."""
    G, dG = _real_first_last(jet)
    Ginv = _nodes_last(np.linalg.inv(_nodes_first(G, 2)), 2)
    X = np.einsum("ae...,kef...->kaf...", Ginv, dG)
    # Gamma_{c d b} = (d_d G_{bc} + d_b G_{dc} - d_c G_{db}) / 2
    low = 0.5 * (np.einsum("dbc...->cdb...", dG) + np.einsum("bdc...->cdb...", dG) - dG)
    gam = np.einsum("ac...,cdb...->adb...", Ginv, low)
    return G, Ginv, _real_second_last(jet), X, low, gam


def _real_ricci_last(jet: MetricJet):
    """(R_{bd} as [b, d], G^-1), node axes last, contracted straight from the
    real jets: no derivative of the Christoffel symbols is formed.

    R_{bd} = d_a Gamma^a_{db} - d_d Gamma^a_{ab} + Gamma^a_{ae} Gamma^e_{db}
             - Gamma^a_{de} Gamma^e_{ab}, with
    d_a Gamma^a_{db} = (d_a G^{ac}) Gamma_{cdb}
                       + G^{ac} (d_a d_d G_{bc} + d_a d_b G_{dc} - d_a d_c G_{db}) / 2,
    d_d Gamma^a_{ab} = (d_d G^{ac} d_b G_{ac} + G^{ac} d_d d_b G_{ac}) / 2.
    """
    _, Ginv, d2G, X, low, gam = _real_connection_last(jet)
    div = -np.einsum("aaf...,fc...->c...", X, Ginv)  # d_a G^{ac}
    A = np.einsum("ac...,adbc...->db...", Ginv, d2G)
    div_gamma = (
        np.einsum("c...,cdb...->db...", div, low)
        + 0.5 * (A + np.swapaxes(A, 0, 1) - np.einsum("ac...,acdb...->db...", Ginv, d2G))
    )
    d_trace = 0.5 * (
        np.einsum("ac...,dbac...->db...", Ginv, d2G) - np.einsum("daf...,bfa...->db...", X, X)
    )
    trace = 0.5 * np.einsum("eaa...->e...", X)  # Gamma^a_{ae}
    quad = np.einsum("e...,edb...->db...", trace, gam) - np.einsum("ade...,eab...->db...", gam, gam)
    # every term above is indexed [d, b]
    return np.swapaxes(div_gamma - d_trace + quad, 0, 1), Ginv


def real_riemann_lowered(jet: MetricJet):
    """Fully lowered real Riemann tensor rlow[..., a, b, c, d] = G_{ae} R^e_{bcd},
    batch axes first: the one oracle route that forms d Gamma and R^a_{bcd}."""
    G, Ginv, d2G, X, low, gam = _real_connection_last(jet)
    dGinv = -np.einsum("kaf...,fc...->kac...", X, Ginv)
    # d_e Gamma_{c d b} = (d_e d_d G_{bc} + d_e d_b G_{dc} - d_e d_c G_{db}) / 2
    dlow = 0.5 * (
        np.einsum("edbc...->ecdb...", d2G) + np.einsum("ebdc...->ecdb...", d2G) - d2G
    )
    dgam = np.einsum("eac...,cdb...->eadb...", dGinv, low) + np.einsum(
        "ac...,ecdb...->eadb...", Ginv, dlow
    )
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
    #             - Gamma^a_{de} Gamma^e_{cb}
    rup = (
        np.einsum("cadb...->abcd...", dgam)
        - np.einsum("dacb...->abcd...", dgam)
        + np.einsum("ace...,edb...->abcd...", gam, gam)
        - np.einsum("ade...,ecb...->abcd...", gam, gam)
    )
    return _nodes_first(np.einsum("ae...,ebcd...->abcd...", G, rup), 4)
