"""Command-line surface: catalog runs, checks, and report emission.

Commands: check-identities, adjoints, gauduchon, theorem-t, classify,
yamabe, ahat, lebrun-table.  Exit codes: 0 all checks pass, 1 check
failure (including a failed numerical check that stops a command: a
curvature symmetry check, non-finite integrand, singular metric or any
other ValueError raised while a command runs), 2 configuration error
(flags and config file, checked before a command runs, a characteristic
number that `ahat` needs but was not given or that overflows a float, a
manifold without the grid a command needs or a grid too coarse for its
basis), 3 numerical non-convergence.  A config file of `key = value`
lines mirrors the flags; command-line wins.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensors, yamabe
from .adjoints import verify_adjoint_identities
from .catalog import CATALOG_IDS, ManifoldSpec, build_manifold, inoue_bundle_metric, rng_from_seed
from .charclasses import (
    CharacteristicData,
    ahat_genus,
    lichnerowicz_verdict,
    parse_characteristic_numbers,
    pontryagin_from_chern,
)
from .errors import (
    ConfigError,
    CrossCheckFailed,
    CurvlabError,
    MissingMonomial,
    NonConvergence,
    NonFiniteIntegrand,
    NoPositiveNullVector,
    NonIntegerSpinWarning,
    QuadratureUnsupported,
    SingularMetric,
    UnknownId,
)
from .gauduchon import (
    classify,
    gauduchon_residual,
    solve_gauduchon,
    solved_residual,
    theorem_t_check,
)
from .geometry import DerivativeEngine, HermitianMetricField, map_nodes
from .report import Report, emit_report

DEFAULT_TOLERANCES = {
    "identity_analytic": 1e-6,
    "identity_fd": 1e-4,
    "quadrature": 1e-3,
    "adjoint_torus": 1e-6,
    "adjoint_hopf": 1e-5,
    "solver_torus": 1e-8,
    "solver_hopf": 1e-6,
}


@dataclass
class RunConfig:
    command: str
    manifold: str = "torus-flat"
    seed: int = 0
    grid: Optional[int] = None
    points: int = 200
    triples: int = 20
    iters: int = 200
    conformal_t: float = 0.1
    derivative_mode: str = "analytic"
    fmt: str = "text"
    out: Optional[str] = None
    chern: Optional[str] = None
    pontryagin: Optional[str] = None
    dim: int = 4
    spin: bool = False
    qpos: bool = False
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def bind(self, metric: HermitianMetricField) -> HermitianMetricField:
        """`metric`, set in place to the run's derivative route."""
        metric.engine = DerivativeEngine(mode=self.derivative_mode)
        return metric

    @property
    def identity_tol(self) -> float:
        key = "identity_analytic" if self.derivative_mode == "analytic" else "identity_fd"
        return self.tolerances[key]

    def solver_tol(self) -> float:
        return self.tolerances[
            "solver_hopf" if self.manifold.startswith("hopf") else "solver_torus"
        ]


def load_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _entry(cfg: RunConfig):
    spec = ManifoldSpec(
        cfg.manifold,
        resolution=cfg.grid,
        conformal_t=cfg.conformal_t,
        seed=cfg.seed,
    )
    entry = build_manifold(spec)
    cfg.bind(entry.metric)
    return entry


def cmd_check_identities(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    rng = rng_from_seed(cfg.seed)
    pts = entry.random_points(rng, cfg.points)
    tol = cfg.identity_tol

    def deviations(chunk):
        rep = tensors.scalar_identity_residual(entry.metric, chunk)
        s_oracle = tensors.riemannian_scalar_real_oracle(entry.metric, chunk)
        return (
            np.abs(rep.identity_residual) / (1.0 + np.abs(rep.s)),
            np.abs(rep.s - s_oracle),
            np.full(len(chunk), rep.imag_defect),  # one value per chunk
            rep.torsion_norm_sq,
            np.abs(rep.adjoint_term),
            np.abs(rep.s - 2.0 * rep.s_c),
        )

    # maxima from 0.0, reduced with numpy so that a NaN propagates
    rel_max, oracle_max, imag_max, tors_max, adj_max, twosc_max = (
        float(np.max(v, initial=0.0)) for v in map_nodes(deviations, pts)
    )
    report.add("scalar_identity_rel_residual", cfg.manifold, rel_max, rel_max, tol, rel_max <= tol)
    report.add("two_oracle_scalar_agreement", cfg.manifold, oracle_max, oracle_max, tol, oracle_max <= tol)
    report.add("imaginary_defect", cfg.manifold, imag_max, imag_max, 1e-10, imag_max <= 1e-10)
    if entry.kahler:
        report.add("kahler_torsion_sq", cfg.manifold, tors_max, tors_max, 1e-10, tors_max <= 1e-10)
        report.add("kahler_adjoint_term", cfg.manifold, adj_max, adj_max, 1e-8, adj_max <= 1e-8)
        report.add("kahler_s_eq_2sC", cfg.manifold, twosc_max, twosc_max, 1e-6, twosc_max <= 1e-6)
    if cfg.manifold == "inoue-chart":
        _inoue_bundle_check(cfg, report)
    return 0


def _inoue_bundle_check(cfg: RunConfig, report: Report):
    """Closed-form check of the canonical-bundle curvature on the w-chart."""
    rng = rng_from_seed((cfg.seed + 1) % 2**64)
    w = rng.uniform(-1.0, 1.0, size=cfg.points) + 1j * rng.uniform(0.5, 2.5, size=cfg.points)
    ric, _ = tensors.chern_ricci(cfg.bind(inoue_bundle_metric()), w[:, None])
    coeff = -np.real(ric[..., 0, 0])  # curvature coefficient of the dual metric
    expected = -1.0 / (2.0 * np.imag(w) ** 2)
    err = float(np.max(np.abs(coeff - expected)))
    report.add("inoue_bundle_curvature", "inoue-chart", err, err, 1e-10, err <= 1e-10)


def cmd_adjoints(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    tol = cfg.tolerances["adjoint_hopf" if cfg.manifold.startswith("hopf") else "adjoint_torus"]
    rep = verify_adjoint_identities(entry, seed=cfg.seed, triples=cfg.triples)
    for key in sorted(rep.residuals):
        val = rep.residuals[key]
        report.add(f"adjoint_{key}", cfg.manifold, val, val, tol, val <= tol)
    return 0


def cmd_gauduchon(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    if entry.grid is None:
        rng = rng_from_seed(cfg.seed)
        pts = entry.random_points(rng, cfg.points)
        vals = gauduchon_residual(entry.metric, pts)
        vmax = float(np.max(np.abs(vals)))
        report.add("gauduchon_residual_pointwise_max", cfg.manifold, vmax, vmax, 1e-8, vmax <= 1e-8)
        report.verdicts.append("pointwise chart: no global solve attempted")
        return 0
    sol = solve_gauduchon(entry.metric, entry.grid)
    report.add("gauduchon_residual_input", cfg.manifold, sol.input_residual, None, None, True)
    stol = cfg.solver_tol()
    res_out = solved_residual(sol, entry.grid)
    report.add("gauduchon_residual_solved", cfg.manifold, res_out, res_out, stol, res_out <= stol)
    fmax = float(np.max(np.abs(sol.factor.values)))
    if entry.gauduchon_by_construction:
        report.add("gauduchon_factor_trivial", cfg.manifold, fmax, fmax, 1e-6, fmax <= 1e-6)
    else:
        report.add("gauduchon_factor_max", cfg.manifold, fmax, None, None, True)
    report.add("gauduchon_mean_zero", cfg.manifold, abs(sol.factor.mean), abs(sol.factor.mean),
               1e-12, abs(sol.factor.mean) <= 1e-12)
    return 0


def cmd_theorem_t(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    if entry.grid is None:
        raise QuadratureUnsupported(f"{cfg.manifold} has no quadrature grid")
    tol = cfg.tolerances["quadrature"]
    chk = theorem_t_check(entry.metric, entry.grid)
    report.add("theorem_t_lhs", cfg.manifold, chk.lhs, None, None, True)
    report.add("theorem_t_rhs", cfg.manifold, chk.rhs, None, None, True)
    report.add("theorem_t_residual", cfg.manifold, chk.residual, chk.residual, tol, chk.residual <= tol)
    report.add("theorem_t_gradient_term", cfg.manifold, chk.gradient_term, None, None, True)
    return 0


def cmd_classify(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    if entry.grid is None:
        # pointwise chart: report the curvature-form sign instead of solving
        rng = rng_from_seed(cfg.seed)
        pts = entry.random_points(rng, cfg.points)
        ric, _ = tensors.chern_ricci(entry.metric, pts)
        eig = np.linalg.eigvalsh(ric)
        emax = float(np.max(eig))
        report.add("ricci_form_max_eigenvalue", cfg.manifold, emax, None, None, True)
        note = "nonpositive Ricci form pointwise" if emax <= 1e-10 else "indefinite Ricci form"
        report.verdicts.append(f"Indeterminate ({note}; no quadrature on this chart)")
        return 0
    rng = rng_from_seed(cfg.seed)
    pts = entry.random_points(rng, 100)
    _, tors = tensors.torsion(entry.metric, pts)
    verdict = classify(entry.metric, entry.grid, entry.kahler, float(np.max(tors)),
                       manifold=cfg.manifold)
    report.add("total_chern_scalar_gauduchon", cfg.manifold, verdict.total_chern_scalar,
               None, None, True)
    report.verdicts.append(f"{verdict.kodaira_statement.value} (sign {verdict.sign}; {verdict.notes})")
    return 0


def cmd_yamabe(cfg: RunConfig, report: Report):
    entry = _entry(cfg)
    if entry.grid is None:
        raise QuadratureUnsupported(f"{cfg.manifold} has no quadrature grid")
    rng = rng_from_seed(cfg.seed)
    f0 = np.real(entry.random_scalar(rng, 0.05).values(entry.grid.nodes))
    result = yamabe.minimize_quotient(entry.metric, entry.grid, max_iters=cfg.iters, f0=f0)
    qs = [t.quotient for t in result.trace]
    monotone = all(qs[i + 1] <= qs[i] + 1e-14 for i in range(len(qs) - 1))
    report.add("yamabe_trace_monotone", cfg.manifold, float(monotone), None, None, monotone)
    report.add("yamabe_initial_quotient", cfg.manifold, qs[0], None, None, True)
    report.add("yamabe_terminal_quotient", cfg.manifold, result.estimate, None, None, True)
    report.add("yamabe_gradient_norm", cfg.manifold, result.trace[-1].gradient_norm,
               None, None, True)
    report.add("yamabe_converged", cfg.manifold, float(result.converged), None, None, True)
    report.verdicts.append(result.note)
    if not result.converged and not monotone:
        raise NonConvergence("descent failed to make progress")
    return 0


def _characteristic_data(cfg: RunConfig) -> CharacteristicData:
    """The characteristic numbers that the ahat flags give; a flag that does
    not parse, that names the wrong kind of number, or that comes with the
    other flag, is a ConfigError."""
    if cfg.chern and cfg.pontryagin:
        raise ConfigError("ahat takes --chern or --pontryagin, not both")
    try:
        if cfg.chern:
            kind, numbers = parse_characteristic_numbers(cfg.chern)
            if kind != "c":
                raise ConfigError("--chern expects c-monomials")
            return pontryagin_from_chern(CharacteristicData(cfg.dim, chern=numbers, spin=cfg.spin))
        if cfg.pontryagin:
            kind, numbers = parse_characteristic_numbers(cfg.pontryagin)
            if kind != "p":
                raise ConfigError("--pontryagin expects p-monomials")
            if cfg.dim % 4:
                raise ConfigError("Pontryagin numbers need dim divisible by 4")
            return CharacteristicData(cfg.dim, pontryagin=numbers, spin=cfg.spin)
    except ValueError as exc:  # the parser's and the dimension checks
        raise ConfigError(str(exc)) from exc
    raise ConfigError("ahat needs --chern or --pontryagin")


def cmd_ahat(cfg: RunConfig, report: Report):
    data = _characteristic_data(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NonIntegerSpinWarning)
        genus = ahat_genus(data)
        noninteger = any(issubclass(w.category, NonIntegerSpinWarning) for w in caught)
    try:
        report.add("ahat_genus", "characteristic-data", float(genus), None, None, True)
    except OverflowError as exc:
        raise ConfigError("the A-hat genus of these numbers exceeds the float range") from exc
    report.verdicts.append(f"A-hat = {genus}")
    if cfg.spin:
        report.add("spin_integrality", "characteristic-data", float(genus.denominator == 1),
                   None, None, not noninteger)
    if cfg.qpos:
        v = lichnerowicz_verdict(data, True)
        report.verdicts.append(f"lichnerowicz: {v.status}" + (f" ({v.notes})" if v.notes else ""))
        report.add("lichnerowicz_consistent", "characteristic-data",
                   float(v.status != "InconsistentInput"), None, None,
                   v.status != "InconsistentInput")
    return 0


def cmd_lebrun_table(cfg: RunConfig, report: Report):
    expected = {
        ("positive", "kappa=-inf"): True, ("positive", "kappa=0,1"): False, ("positive", "kappa=2"): False,
        ("zero", "kappa=-inf"): False, ("zero", "kappa=0,1"): True, ("zero", "kappa=2"): False,
        ("negative", "kappa=-inf"): False, ("negative", "kappa=0,1"): False, ("negative", "kappa=2"): True,
    }
    groups = {"kappa=-inf": (-np.inf,), "kappa=0,1": (0, 1), "kappa=2": (2,)}
    for (sign, gname), want in expected.items():
        vals = {yamabe.lebrun_consistency(sign, k) for k in groups[gname]}
        got = vals == {want}
        report.add(f"lebrun[{sign},{gname}]", "kahler-surface", float(want), None, None, got)
    return 0


COMMANDS = {
    "check-identities": cmd_check_identities,
    "adjoints": cmd_adjoints,
    "gauduchon": cmd_gauduchon,
    "theorem-t": cmd_theorem_t,
    "classify": cmd_classify,
    "yamabe": cmd_yamabe,
    "ahat": cmd_ahat,
    "lebrun-table": cmd_lebrun_table,
}


# glibc mallopt parameters, and its ceiling for the dynamic mmap threshold
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_freed_heap():
    """Let glibc's malloc keep freed memory for the next node chunk.

    A grid pass allocates and frees some 17 MB of temporaries per node
    chunk.  glibc returns free memory at the top of the heap to the kernel
    once it exceeds the trim threshold, twice the largest block it has
    freed from mmap so far; with no large block freed in the process, each
    chunk's memory is faulted in afresh.  Pinning the thresholds at the
    values that glibc's own dynamic rule reaches at most (mmap above 32 MB,
    trim above 64 MB) keeps one chunk's memory for the next.  Elsewhere
    (no glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def run(cfg: RunConfig):
    """Dispatch a run; returns (exit_code, report)."""
    _keep_freed_heap()
    report = Report(command=_echo(cfg))
    t0 = time.time()
    try:
        COMMANDS[cfg.command](cfg, report)
        code = 0 if report.overall_pass else 1
    except (NonConvergence, NoPositiveNullVector) as exc:
        report.verdicts.append(f"non-convergence: {exc}")
        code = 3
    except (UnknownId, QuadratureUnsupported, MissingMonomial, ConfigError) as exc:
        report.verdicts.append(f"config error: {exc}")
        code = 2
    except (CrossCheckFailed, NonFiniteIntegrand, SingularMetric, ValueError) as exc:
        # configuration is checked before a command runs, so a ValueError
        # raised inside one is a failed numerical step
        report.verdicts.append(f"check failed: {exc}")
        code = 1
    report.timing = time.time() - t0
    report.exit_code = code
    return code, report


def _echo(cfg: RunConfig) -> str:
    parts = [cfg.command, f"manifold={cfg.manifold}", f"seed={cfg.seed}"]
    if cfg.manifold == "hopf-conformal":
        parts.append(f"t={cfg.conformal_t}")
    if cfg.grid is not None:
        parts.append(f"grid={cfg.grid}")
    if cfg.derivative_mode == "fd":
        parts.append("derivative_mode=fd")
    if cfg.command == "ahat":
        parts.append(f"dim={cfg.dim} spin={cfg.spin}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="curvlab", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--manifold", choices=CATALOG_IDS)
    ap.add_argument("--config", help="flat key = value config file; flags win")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--grid", type=int, help="grid resolution override")
    ap.add_argument("--points", type=int, help="sample points for pointwise checks")
    ap.add_argument("--triples", type=int, help="random triples for the adjoint suite")
    ap.add_argument("--iters", type=int, help="descent iteration budget")
    ap.add_argument("--t", dest="conformal_t", type=float, help="conformal family parameter")
    ap.add_argument("--derivative-mode", choices=["analytic", "fd"])
    ap.add_argument("--format", dest="fmt", choices=["text", "records"])
    ap.add_argument("--out", help="write the report to this path")
    ap.add_argument("--chern", help="Chern numbers, e.g. 'c1^2=0,c2=24'")
    ap.add_argument("--pontryagin", help="Pontryagin numbers, e.g. 'p1=-48'")
    ap.add_argument("--dim", type=int, help="real dimension for ahat")
    ap.add_argument("--spin", action="store_true", default=None)
    ap.add_argument("--qpos", action="store_true", default=None,
                    help="assert a quasi-positive scalar curvature metric exists")
    return ap


# the flags that a config file may set too, and the two with a field named otherwise
_FLAG_KEYS = ("manifold", "seed", "grid", "points", "triples", "iters", "t", "derivative_mode",
              "format", "out", "chern", "pontryagin", "dim", "spin", "qpos")
_FLAG_FIELDS = {"t": "conformal_t", "format": "fmt"}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_bool(s: str) -> bool:
    if s.lower() not in _BOOLEANS:
        raise ValueError(f"a boolean key takes 1, true, yes, 0, false or no, got {s!r}")
    return _BOOLEANS[s.lower()]


_CONFIG_TYPES = {
    "seed": int, "grid": int, "points": int, "triples": int, "iters": int,
    "dim": int, "conformal_t": float, "spin": _config_bool, "qpos": _config_bool,
}


def make_config(argv) -> RunConfig:
    ap = build_parser()
    ns = ap.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    if ns.config:
        for key, val in load_config_file(ns.config).items():
            if key.startswith("tol_"):
                if key[4:] not in DEFAULT_TOLERANCES:
                    raise ValueError(f"unknown tolerance {key!r}")
                tol = float(val)
                if not (np.isfinite(tol) and tol > 0):
                    raise ValueError(f"{key} must be finite and positive, got {val}")
                cfg.tolerances[key[4:]] = tol
                continue
            if key not in _FLAG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            attr = _FLAG_FIELDS.get(key, key)
            setattr(cfg, attr, _CONFIG_TYPES.get(attr, str)(val))
    for attr in (_FLAG_FIELDS.get(key, key) for key in _FLAG_KEYS):
        if getattr(ns, attr) is not None:
            setattr(cfg, attr, getattr(ns, attr))
    for key in ("points", "triples"):
        if getattr(cfg, key) < 1:
            raise ValueError(f"--{key} must be at least 1, got {getattr(cfg, key)}")
    if not 0 <= cfg.seed < 2**64:
        raise ValueError(f"--seed must be in [0, 2^64), got {cfg.seed}")
    if cfg.grid is not None and cfg.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {cfg.grid}")
    if cfg.dim < 1:
        raise ValueError(f"--dim must be at least 1, got {cfg.dim}")
    if cfg.iters < 0:
        raise ValueError(f"--iters must be at least 0, got {cfg.iters}")
    if not np.isfinite(cfg.conformal_t):
        raise ValueError(f"--t must be finite, got {cfg.conformal_t}")
    if cfg.derivative_mode not in ("analytic", "fd"):
        raise ValueError(f"--derivative-mode must be analytic or fd, got {cfg.derivative_mode!r}")
    if cfg.fmt not in ("text", "records"):
        raise ValueError(f"--format must be text or records, got {cfg.fmt!r}")
    return cfg


def main(argv=None) -> int:
    try:
        cfg = make_config(argv if argv is not None else sys.argv[1:])
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        code, report = run(cfg)
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = emit_report(report, cfg.fmt)
    if cfg.out:
        try:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"io failure: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
