"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance below is fixed; nothing is calibrated at
runtime.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from curvlab import tensors, yamabe
from curvlab import charclasses as cc
from curvlab.adjoints import verify_adjoint_identities
from curvlab.catalog import ManifoldSpec, build_manifold, rng_from_seed
from curvlab.cli import main
from curvlab.fields import ScalarField, hopf_monomial, hopf_radial_mode
from curvlab.gauduchon import (
    KodairaStatement,
    classify,
    conformal_metric,
    gauduchon_residual,
    solve_gauduchon,
    theorem_t_check,
)

SEED = 20240817

ALL_MANIFOLDS = (
    "torus-flat",
    "torus-kahler-potential",
    "torus-hermitian-perturbed",
    "hopf-standard",
    "inoue-chart",
)


def _say(num, label, ok, detail):
    line = f"ACCEPTANCE {num:>2} [{label}]: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def entries():
    out = {}
    for mid in ALL_MANIFOLDS:
        res = 8 if mid.startswith("torus") else None
        out[mid] = build_manifold(ManifoldSpec(mid, resolution=res))
    return out


def test_criterion_1_and_2_scalar_identity_and_oracle(entries):
    rng = rng_from_seed(SEED)
    t0 = time.time()
    worst_rel = 0.0
    worst_oracle = 0.0
    for mid in ALL_MANIFOLDS:
        entry = entries[mid]
        pts = entry.random_points(rng, 1000)
        rep = tensors.scalar_identity_residual(entry.metric, pts)
        rel = float(np.max(np.abs(rep.identity_residual) / (1.0 + np.abs(rep.s))))
        worst_rel = max(worst_rel, rel)
        oracle = tensors.riemannian_scalar_real_oracle(entry.metric, pts)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(rep.s - oracle))))
    elapsed = time.time() - t0
    _say(1, "scalar identity", worst_rel <= 1e-6 and elapsed < 30.0,
         f"max rel residual {worst_rel:.2e} over 5x1000 points in {elapsed:.1f}s")
    _say(2, "two-oracle equivalence", worst_oracle <= 1e-6,
         f"max |s - s_oracle| {worst_oracle:.2e}")


def test_criterion_3_kahler_specialization(entries):
    rng = rng_from_seed(SEED + 3)
    entry = entries["torus-kahler-potential"]
    pts = entry.random_points(rng, 1000)
    rep = tensors.scalar_identity_residual(entry.metric, pts)
    tors = float(np.max(rep.torsion_norm_sq))
    adj = float(np.max(np.abs(rep.adjoint_term)))
    gap = float(np.max(np.abs(rep.s - 2.0 * rep.s_c)))
    ok = tors <= 1e-10 and adj <= 1e-8 and gap <= 1e-6
    _say(3, "Kahler specialization", ok,
         f"|T|^2 {tors:.2e}, adjoint {adj:.2e}, |s - 2 s_C| {gap:.2e}")


def test_criterion_4_adjoint_suite(entries):
    rep_t = verify_adjoint_identities(entries["torus-flat"], seed=SEED, triples=20)
    rep_h = verify_adjoint_identities(entries["hopf-standard"], seed=SEED, triples=20)
    ok = rep_t.max_residual <= 1e-6 and rep_h.max_residual <= 1e-5
    _say(4, "adjoint lemma suite", ok,
         f"torus max {rep_t.max_residual:.2e} (tol 1e-6), hopf max {rep_h.max_residual:.2e} (tol 1e-5), 20 triples each")


def test_criterion_5_total_curvature_identity(entries):
    cases = [("hopf-standard", entries["hopf-standard"], False)]
    for t in (0.1, 0.2):
        cases.append((f"hopf-conformal t={t}",
                      build_manifold(ManifoldSpec("hopf-conformal", conformal_t=t)), True))
    details = []
    ok = True
    for label, entry, needs_gradient in cases:
        t0 = time.time()
        chk = theorem_t_check(entry.metric, entry.grid)
        dt = time.time() - t0
        good = chk.residual <= 1e-3 and dt < 60.0
        if needs_gradient:
            good = good and chk.gradient_term > 1e-6
        ok = ok and good
        details.append(f"{label}: res {chk.residual:.2e}, grad {chk.gradient_term:.3g}, {dt:.0f}s")
    _say(5, "conformal total-curvature identity", ok, "; ".join(details))


def test_criterion_6_gauduchon_solver(entries):
    hopf = entries["hopf-standard"]
    # trivial input
    sol0 = solve_gauduchon(hopf.metric, hopf.grid)
    trivial = float(np.max(np.abs(sol0.factor.values)))
    # planted factor
    psi = ScalarField(
        lambda z: (hopf_radial_mode(1)(z) * hopf_monomial((1, 0), (0, 1))(z)).real() * 2.0
    )
    g = ScalarField(lambda z: (1.0 + psi(z) * 0.3).log())
    planted = conformal_metric(hopf.metric, g * (-1.0))
    sol = solve_gauduchon(planted, hopf.grid)
    g_nodes = np.real(g(hopf.grid.nodes).val)
    g_nodes -= g_nodes.mean()
    recovery = float(np.max(np.abs(sol.factor.values - g_nodes)))
    res = gauduchon_residual(conformal_metric(planted, sol.factor), hopf.grid)
    ok = recovery <= 1e-3 and res <= 1e-6 and trivial <= 1e-6
    _say(6, "Gauduchon solver", ok,
         f"planted recovery {recovery:.2e}, solved residual {res:.2e}, trivial max|f| {trivial:.2e}")


def test_criterion_7_inoue_pointwise(entries):
    from curvlab.catalog import inoue_bundle_metric

    rng = rng_from_seed(SEED + 7)
    w = rng.uniform(-1, 1, size=100) + 1j * rng.uniform(0.5, 2.5, size=100)
    ric, _ = tensors.chern_ricci(inoue_bundle_metric(), w[:, None])
    coeff = -np.real(ric[:, 0, 0])
    err = float(np.max(np.abs(coeff + 1.0 / (2.0 * np.imag(w) ** 2))))
    _say(7, "Inoue bundle curvature", err <= 1e-10, f"max deviation {err:.2e} at 100 points")


def test_criterion_8_classification(entries):
    rng = rng_from_seed(SEED + 8)
    hopf = entries["hopf-standard"]
    flat = entries["torus-flat"]
    _, tors_h = tensors.torsion(hopf.metric, hopf.random_points(rng, 50))
    v_hopf = classify(hopf.metric, hopf.grid, False, float(np.max(tors_h)))
    _, tors_f = tensors.torsion(flat.metric, flat.random_points(rng, 50))
    v_flat = classify(flat.metric, flat.grid, True, float(np.max(tors_f)))
    fam = build_manifold(ManifoldSpec("hopf-conformal", conformal_t=0.1))
    _, tors_c = tensors.torsion(fam.metric, fam.random_points(rng, 50))
    v_conf = classify(fam.metric, fam.grid, False, float(np.max(tors_c)))
    ok = (
        v_hopf.kodaira_statement == KodairaStatement.NOT_PSEF
        and v_flat.kodaira_statement == KodairaStatement.KAHLER_CY
        and v_conf.kodaira_statement == v_hopf.kodaira_statement
    )
    _say(8, "classification", ok,
         f"hopf {v_hopf.kodaira_statement.value}, flat {v_flat.kodaira_statement.value}, "
         f"conformal rescale {v_conf.kodaira_statement.value}")


def test_criterion_9_genus_algebra():
    a1, a2 = cc.ahat_polynomials(2)
    exact = a1 == {(1,): F(-1, 24)} and a2 == {(2,): F(-4, 5760), (1, 1): F(7, 5760)}
    k3 = cc.pontryagin_from_chern(
        cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(24)}, spin=True)
    )
    inoue = cc.pontryagin_from_chern(
        cc.CharacteristicData(4, chern={(1, 1): F(0), (2,): F(0)})
    )
    dual = all(m == o for m, o in zip(cc.ahat_polynomials(4), cc.ahat_polynomials_bruteforce(4)))
    prod = cc.product_characteristic_data(k3, k3)
    mult = cc.ahat_genus(prod) == 4
    ok = (exact and cc.ahat_genus(k3) == 2 and cc.ahat_genus(inoue) == 0 and dual and mult)
    _say(9, "genus algebra", ok,
         f"coefficients exact {exact}, K3 -> {cc.ahat_genus(k3)}, Inoue -> {cc.ahat_genus(inoue)}, "
         f"dual-impl {dual}, multiplicativity {mult}")


def test_criterion_10_descent_and_trichotomy(entries):
    flat = entries["torus-flat"]
    ok = True
    terminals = []
    for seed in (1, 2):
        rng = rng_from_seed(seed)
        f0 = np.real(flat.random_scalar(rng, 0.05)(flat.grid.nodes).val)
        res = yamabe.minimize_quotient(flat.metric, flat.grid, max_iters=400, f0=f0)
        qs = [t.quotient for t in res.trace]
        ok = ok and all(qs[i + 1] <= qs[i] + 1e-14 for i in range(len(qs) - 1))
        ok = ok and abs(res.estimate) <= 1e-6
        terminals.append(res.estimate)
    hopf = entries["hopf-standard"]
    rng = rng_from_seed(3)
    f0 = np.real(hopf.random_scalar(rng, 0.1)(hopf.grid.nodes).val)
    resh = yamabe.minimize_quotient(hopf.metric, hopf.grid, max_iters=20, f0=f0)
    qsh = [t.quotient for t in resh.trace]
    ok = ok and all(qsh[i + 1] <= qsh[i] + 1e-14 for i in range(len(qsh) - 1))

    table = {"positive": (-np.inf,), "zero": (0, 1), "negative": (2,)}
    nine = []
    for sign in ("positive", "zero", "negative"):
        for group, kappas in table.items():
            expect = sign == group
            nine.append(all(yamabe.lebrun_consistency(sign, k) == expect for k in kappas))
    ok = ok and all(nine)
    _say(10, "descent + trichotomy", ok,
         f"flat terminals {terminals[0]:.1e}/{terminals[1]:.1e}, hopf monotone, 9/9 booleans")


def test_criterion_11_determinism(tmp_path):
    args = ["check-identities", "--manifold", "torus-hermitian-perturbed", "--grid", "6",
            "--points", "64", "--seed", "7", "--format", "records"]
    outs = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.txt"
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _say(11, "determinism", ok, f"{len(outs[0])} bytes, byte-identical reruns")
