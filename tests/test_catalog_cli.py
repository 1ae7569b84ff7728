"""Catalog construction, CLI exit contract, and report serialization."""

import json
import platform
import subprocess
import sys

import numpy as np
import pytest

from curvlab.catalog import (
    _PERTURBATION_MODES,
    _POTENTIAL_MODES,
    CATALOG_IDS,
    ManifoldSpec,
    build_manifold,
    rng_from_seed,
)
from curvlab.cli import main, make_config, run
from curvlab.errors import NotPositiveDefinite, UnknownId
from curvlab.fields import torus_mode_vectors
from curvlab.geometry import metric_jet_from_entries
from curvlab.jets import Jet2, exp_linear
from curvlab.report import CheckRecord, Report, emit_report, parse_records


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_all_catalog_ids_build():
    for mid in CATALOG_IDS:
        spec = ManifoldSpec(mid, resolution=6 if mid.startswith("torus") else None)
        entry = build_manifold(spec)
        assert entry.metric.n >= 1
        rng = rng_from_seed(1)
        pts = entry.random_points(rng, 8)
        H = entry.metric.value(pts)
        assert np.min(np.linalg.eigvalsh(H)) > 0


@pytest.mark.parametrize("mid, dim", [("torus-kahler-potential", 1), ("torus-kahler-potential", 3),
                                      ("torus-hermitian-perturbed", 1),
                                      ("torus-hermitian-perturbed", 2)])
def test_torus_metric_value_is_the_jet_value(mid, dim):
    # value builds no derivatives, yet runs the jet's arithmetic on values
    entry = build_manifold(ManifoldSpec(mid, dim=dim, resolution=4))
    pts = np.concatenate([entry.grid.nodes, entry.random_points(rng_from_seed(3), 50)])
    assert np.array_equal(entry.metric.value(pts), entry.metric.jet(pts).H)


def _reference_torus_jet(mid, n, z, amplitude=0.1):
    """The catalog torus metric as n x n entries of Jet2 arithmetic on
    `exp_linear` modes, one entry and one mode at a time."""
    periods = (1.0,) * n
    ent = [[Jet2.constant(n, float(i == j), z.shape[:-1]) for j in range(n)] for i in range(n)]

    def vectors(m, l):
        return torus_mode_vectors(np.array(m + (0,) * (n - 2))[:n],
                                  np.array(l + (0,) * (n - 2))[:n], periods)

    if mid == "torus-kahler-potential":
        for m, l, c in _POTENTIAL_MODES:
            a, b = vectors(m, l)
            scale = amplitude / (len(_POTENTIAL_MODES)
                                 * max(np.linalg.norm(a) * np.linalg.norm(b), 1.0))
            E = exp_linear(z, a, b, scale * c)
            Ec = exp_linear(z, np.conj(b), np.conj(a), scale * np.conj(c))
            for i in range(n):
                for j in range(n):
                    ent[i][j] = ent[i][j] + E * (a[i] * b[j]) + Ec * np.conj(b[i] * a[j])
    elif mid == "torus-hermitian-perturbed":
        for (i, j), modes in _PERTURBATION_MODES.items():
            for m, l, c in modes if max(i, j) < n else ():
                half = exp_linear(z, *vectors(m, l), amplitude * c) * 0.5
                ent[i][j] = ent[i][j] + half
                ent[j][i] = ent[j][i] + half.conj()
    return metric_jet_from_entries(ent)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("mid", ["torus-flat", "torus-kahler-potential",
                                 "torus-hermitian-perturbed"])
def test_torus_metric_jet_matches_the_entrywise_reference(mid, n):
    entry = build_manifold(ManifoldSpec(mid, dim=n, resolution=2))
    z = entry.random_points(rng_from_seed(4), 40)
    got, want = entry.metric.jet(z), _reference_torus_jet(mid, n, z)
    assert got.pending  # the mixed block is formed, the full Hessian is not
    assert np.array_equal(entry.metric.value(z), got.H)
    for part in ("H", "d1", "mixed", "d2"):
        assert np.max(np.abs(getattr(got, part) - getattr(want, part))) < 1e-13, part
    assert np.array_equal(got.d2[..., :n, n:, :, :], got.mixed)
    assert np.array_equal(got.d2, np.swapaxes(got.d2, -4, -3))


def test_unknown_id():
    with pytest.raises(UnknownId):
        ManifoldSpec("klein-bottle")


def test_positive_definiteness_screen():
    with pytest.raises(NotPositiveDefinite) as exc:
        build_manifold(
            ManifoldSpec("torus-hermitian-perturbed", resolution=6, perturbation_amplitude=40.0)
        )
    # the screen names the metric, once
    assert str(exc.value).startswith("torus-hermitian-perturbed: smallest eigenvalue ")
    assert str(exc.value).count("torus-hermitian-perturbed") == 1


def test_samplers_respect_domains():
    rng = rng_from_seed(5)
    hopf = build_manifold(ManifoldSpec("hopf-standard"))
    pts = hopf.random_points(rng, 200)
    r = np.linalg.norm(pts, axis=1)
    assert np.all((r >= 1.0 - 1e-12) & (r < 2.0 + 1e-12))
    inoue = build_manifold(ManifoldSpec("inoue-chart"))
    pts = inoue.random_points(rng, 200)
    assert np.all(np.imag(pts[:, 0]) > 0)


def test_counter_based_seeding_deterministic():
    a = rng_from_seed(123).normal(size=6)
    b = rng_from_seed(123).normal(size=6)
    assert np.array_equal(a, b)


def test_one_dimensional_torus():
    from curvlab import tensors
    from curvlab.geometry import integrate

    entry = build_manifold(ManifoldSpec("torus-flat", dim=1))
    assert len(entry.grid.nodes) == 32 * 32  # default 32 per real dimension
    assert integrate(entry.metric, entry.grid, np.ones(len(entry.grid.nodes))) == pytest.approx(2.0)
    pts = entry.random_points(rng_from_seed(2), 20)
    rep = tensors.scalar_identity_residual(entry.metric, pts)
    assert np.max(np.abs(rep.identity_residual)) < 1e-12


def test_every_public_name_resolves():
    import curvlab

    assert [name for name in curvlab.__all__ if not hasattr(curvlab, name)] == []


def test_wirtinger_on_metric_field():
    entry = build_manifold(ManifoldSpec("hopf-standard"))
    pts = entry.random_points(rng_from_seed(3), 4)
    jet = entry.metric.jet(pts)
    # d_ibar h_{k lbar} = -delta_kl z_i / |z|^4 for the standard Hopf metric
    r2 = np.sum(np.abs(pts) ** 2, axis=-1)
    expected = -pts[:, 0] / r2**2
    assert np.allclose(jet.d1[:, 2, 0, 0], expected)  # slot n + 0 = d_0bar
    assert jet.d2.shape == (4, 4, 4, 2, 2)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_records_round_trip_bit_exact():
    rep = Report(command="demo")
    rep.add("alpha", "m", 1.0 / 3.0, 2.2250738585072014e-308, 1e-6, True)
    rep.add("beta", "m", -np.pi * 1e17, None, None, False)
    text = emit_report(rep, "records")
    parsed = [r for r in parse_records(text) if isinstance(r, CheckRecord)]
    assert parsed[0].value == 1.0 / 3.0
    assert parsed[0].residual == 2.2250738585072014e-308
    assert parsed[1].value == -np.pi * 1e17
    assert parsed[1].residual is None
    assert parsed[1].passed is False


def test_empty_report_header_only():
    rep = Report(command="demo")
    text = emit_report(rep, "text")
    assert "demo" in text
    assert "PASS" in text  # overall line still present
    assert emit_report(rep, "records") == ""
    assert rep.overall_pass


def test_failing_record_propagates():
    rep = Report(command="demo")
    rep.add("x", "m", 1.0, 1.0, 0.5, False)
    assert not rep.overall_pass


def test_non_finite_record_fails():
    rep = Report(command="demo")
    rep.add("x", "m", float("nan"), None, None, True)
    rep.add("y", "m", 0.0, float("inf"), 1.0, True)
    assert [r.passed for r in rep.records] == [False, False]
    assert not rep.overall_pass


def test_planted_nan_fails_check_identities(monkeypatch):
    from curvlab import tensors

    original = tensors.scalar_identity_residual

    def planted(metric, points):
        rep = original(metric, points)
        rep.identity_residual[0] = np.nan
        return rep

    monkeypatch.setattr(tensors, "scalar_identity_residual", planted)
    code, report = run(make_config(["check-identities", "--manifold", "torus-flat",
                                    "--points", "50"]))
    rec = {r.check: r for r in report.records}["scalar_identity_rel_residual"]
    assert np.isnan(rec.value) and not rec.passed
    assert code == 1


@pytest.mark.parametrize("part", ["val", "d1"])
def test_planted_nan_on_the_grid_fails_adjoints(monkeypatch, part):
    # a NaN at one grid node of the first random scalar of the triple must
    # survive the weak identities' reductions and fail a record
    from curvlab.catalog import CatalogEntry
    from curvlab.fields import ScalarField

    original = CatalogEntry.random_scalar
    planted_once = []

    def planted(entry, rng, amplitude=0.1):
        fld = original(entry, rng, amplitude)
        if planted_once:
            return fld
        planted_once.append(fld)

        def fn(z):
            jet = fld(z)
            if len(z) == len(entry.grid.nodes):
                getattr(jet, part)[7] = np.nan
            return jet

        return ScalarField(fn, fld.name)

    monkeypatch.setattr(CatalogEntry, "random_scalar", planted)
    code, report = run(make_config(["adjoints", "--manifold", "hopf-standard",
                                    "--triples", "1"]))
    failed = [r for r in report.records if not r.passed]
    assert code == 1
    assert failed and all(np.isnan(r.value) for r in failed)
    assert "adjoint_weak_dbar_star" in {r.check for r in failed}
    assert all(np.isfinite(r.value) for r in report.records if r.check.startswith("adjoint_c"))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # from the planted NaN
@pytest.mark.parametrize("command", ["gauduchon", "classify", "theorem-t"])
def test_planted_nan_in_the_galerkin_assembly_fails_fast(monkeypatch, capsys, command):
    # a NaN in H[0, 0] at grid node 5 must stop the solve as a failed check
    # naming the node, before the inverse-power iteration starts
    from curvlab import cli as climod

    build = climod.build_manifold

    def planted_build(spec):
        entry = build(spec)
        metric = entry.metric
        node = entry.grid.nodes[5]
        value_fn, jet_fn = metric.value_fn, metric.jet_fn

        def value(z):
            H = value_fn(z)
            H[..., 0, 0][np.all(z == node, axis=-1)] = np.nan
            return H

        def jet(z):
            out = jet_fn(z)
            out.H[..., 0, 0][np.all(z == node, axis=-1)] = np.nan
            return out

        metric.value_fn, metric.jet_fn = value, jet
        return entry

    solves = []
    solve = np.linalg.solve

    def counted_solve(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(climod, "build_manifold", planted_build)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    argv = [command, "--manifold", "hopf-standard"]
    if command == "theorem-t":
        argv += ["--t", "0.2"]
    assert main(argv + ["--format", "records"]) == 1
    lines = capsys.readouterr().out.splitlines()

    def reject(name):
        raise ValueError(f"bare {name} in the records")

    parsed = [json.loads(line, parse_constant=reject) for line in lines]
    assert parsed[-1] == {"verdict": "check failed: non-finite integrand at node 5: nan"}
    assert all(not r["pass"] for r in parsed if "check" in r)
    assert not solves


@pytest.mark.parametrize("command", ["gauduchon", "theorem-t", "classify"])
def test_solve_commands_never_build_the_factor_hessian(monkeypatch, command):
    from curvlab import catalog
    from curvlab.fields import HopfTerms

    # the solved u is T + conj(T) for one table T; record it as it is built
    solved = []
    plus_conj = catalog.plus_conj

    def recorded(plain, conj, name):
        if name == "gauduchon-u":
            solved.append(plain)
        return plus_conj(plain, conj, name)

    calls = {"hessian": 0, "jet": 0}
    hessian, jet = HopfTerms.hessian, HopfTerms.jet

    def counted_hessian(self, z):
        calls["hessian"] += any(self is t for t in solved)
        return hessian(self, z)

    def counted_jet(self, z):
        calls["jet"] += any(self is t for t in solved)
        return jet(self, z)

    monkeypatch.setattr(catalog, "plus_conj", recorded)
    monkeypatch.setattr(HopfTerms, "hessian", counted_hessian)
    monkeypatch.setattr(HopfTerms, "jet", counted_jet)
    code, report = run(make_config([command, "--manifold", "hopf-conformal", "--grid", "4"]))
    assert report.records and code in (0, 1)
    assert solved and calls["jet"] > 0  # the solved factor was evaluated
    assert calls["hessian"] == 0


@pytest.mark.parametrize("command", ["gauduchon", "theorem-t", "classify"])
def test_solve_commands_walk_the_metric_jet_once(monkeypatch, command):
    # the assembly keeps what the solved residual and the total identity
    # read, so each grid node's metric jet is evaluated once
    from curvlab.geometry import HermitianMetricField

    points = []
    jet = HermitianMetricField.jet
    monkeypatch.setattr(HermitianMetricField, "jet",
                        lambda metric, z: points.append(len(z)) or jet(metric, z))
    nodes = len(build_manifold(ManifoldSpec("hopf-conformal")).grid.nodes)
    points.clear()
    code, report = run(make_config([command, "--manifold", "hopf-conformal", "--t", "0.2"]))
    assert report.records and code in (0, 1)
    # classify screens the torsion on 100 random points besides
    assert sum(points) == nodes + (100 if command == "classify" else 0)


def test_classify_evaluates_the_solved_factor_once_per_chunk(monkeypatch):
    # the solved residual and the total identity read one jet of u per chunk:
    # f's jet follows from it, so each 1024-node chunk calls the table once
    from curvlab.fields import HopfTerms
    from curvlab.geometry import NODE_CHUNK

    calls = []
    jet = HopfTerms.jet
    monkeypatch.setattr(HopfTerms, "jet", lambda self, z: calls.append(len(z)) or jet(self, z))
    nodes = len(build_manifold(ManifoldSpec("hopf-standard")).grid.nodes)
    code, report = run(make_config(["classify", "--manifold", "hopf-standard"]))
    assert code == 0 and report.records
    assert calls == [min(NODE_CHUNK, nodes - lo) for lo in range(0, nodes, NODE_CHUNK)]
    assert len(calls) == 14


def test_classify_notes_carry_the_solved_residual(capsys):
    # informational, read through the same function as the gauduchon record
    argv = ["--manifold", "hopf-conformal", "--t", "0.2", "--format", "records"]
    main(["gauduchon"] + argv)
    solved = [json.loads(line) for line in capsys.readouterr().out.splitlines()][1]
    assert solved["check"] == "gauduchon_residual_solved"
    assert main(["classify"] + argv) == 0
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])["verdict"]
    assert verdict.endswith(f"solved_residual={solved['value']:.3e})")
    assert verdict.index("vol=") < verdict.index("solved_residual=")


def test_gauduchon_builds_no_hopf_hessian(monkeypatch):
    # neither the solved factor's nor the conformal direction field's: every
    # step of the solve reads mixed second derivatives only
    from curvlab.fields import HopfTerms

    calls = []
    hessian = HopfTerms.hessian
    monkeypatch.setattr(HopfTerms, "hessian", lambda self, z: calls.append(1) or hessian(self, z))
    code, report = run(make_config(["gauduchon", "--manifold", "hopf-conformal", "--grid", "4"]))
    assert report.records and code in (0, 1)
    assert calls == []


def test_finite_difference_solve_reads_the_factor_by_values(monkeypatch):
    # no stencil runs on the solved metric: the node values of u come from
    # its value path, and the solved residual reads the analytic jet of u
    # once per chunk, against the kept coefficients of the stencil-built
    # base jets, so the factor's value noise is never divided by h^2
    from curvlab.fields import HopfTerms
    from curvlab.geometry import NODE_CHUNK

    calls, sizes = [], []
    jet, values = HopfTerms.jet, HopfTerms.values
    monkeypatch.setattr(HopfTerms, "jet", lambda self, z: calls.append(len(z)) or jet(self, z))
    monkeypatch.setattr(HopfTerms, "values",
                        lambda self, z: sizes.append(len(z)) or values(self, z))
    cfg = make_config(["gauduchon", "--manifold", "hopf-standard", "--grid", "4",
                       "--derivative-mode", "fd"])
    nodes = len(build_manifold(ManifoldSpec("hopf-standard", resolution=4)).grid.nodes)
    code, report = run(cfg)
    assert code == 0 and report.records
    # the solved u is T + conj(T): one table read per jet or value call of u
    chunks = [min(NODE_CHUNK, nodes - lo) for lo in range(0, nodes, NODE_CHUNK)]
    assert calls == chunks
    assert sum(sizes) == nodes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # from the planted NaN
def test_planted_nan_in_the_solved_values_fails_as_a_check(monkeypatch, capsys):
    from curvlab.fields import HopfTerms

    values = HopfTerms.values

    def planted(self, z):
        out = values(self, z)
        out[7] = np.nan
        return out

    monkeypatch.setattr(HopfTerms, "values", planted)
    argv = ["gauduchon", "--manifold", "hopf-standard", "--grid", "4", "--format", "records"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == {"verdict": "check failed: non-finite integrand at node 7: nan"}


_SECOND_RUN_FAULTS = """
import resource
from curvlab.cli import make_config, run
cfg = make_config(["gauduchon", "--manifold", "hopf-standard", "--grid", "4"])
run(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="tunes glibc's malloc")
def test_a_run_reuses_the_memory_of_freed_chunks():
    # a fresh process: no earlier test has raised glibc's thresholds there.
    # Each node chunk frees about 17 MB; returned to the kernel, it would be
    # faulted in again by the next chunk (thousands of pages per chunk).
    out = subprocess.run([sys.executable, "-c", _SECOND_RUN_FAULTS], capture_output=True,
                         text=True, check=True)
    assert int(out.stdout) < 2000


def test_unknown_format_rejected():
    from curvlab.errors import IoFailure

    with pytest.raises(IoFailure):
        emit_report(Report(command="demo"), "yaml")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_ahat_k3(capsys):
    code = main(["ahat", "--chern", "c1^2=0,c2=24", "--dim", "4", "--spin"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A-hat = 2" in out


def test_cli_ahat_non_integer_spin_fails(capsys):
    code = main(["ahat", "--pontryagin", "p1=-47", "--dim", "4", "--spin"])
    assert code == 1  # spin integrality record fails


def test_cli_lebrun(capsys):
    assert main(["lebrun-table"]) == 0


def test_cli_config_error(capsys):
    code = main(["ahat", "--dim", "4"])  # no numbers supplied
    assert code == 2


def test_cli_missing_monomial_is_a_config_error(capsys):
    # c1^2 is needed for dimension 4; the run stops with exit 2 and still
    # prints its report, with the cause as the verdict
    assert main(["ahat", "--chern", "c2=24", "--dim", "4", "--format", "records"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert lines == [json.dumps({"verdict": "config error: Chern number for monomial (1, 1) "
                                            "not supplied"})]


@pytest.mark.parametrize("argv", [["--chern", "p1=-48"], ["--pontryagin", "c2=24"],
                                  ["--chern", "c2=x"], ["--chern", "c1^2=0,c2=24", "--dim", "6"],
                                  ["--pontryagin", "p1=1/0"],
                                  ["--chern", "c1^2=0,c2=24", "--pontryagin", "p1=-48"],
                                  ["--pontryagin", "p1=-48", "--dim", "3"],
                                  ["--pontryagin", "p1=1e400"]])
def test_cli_ahat_flag_faults_are_config_errors(capsys, argv):
    code = main(["ahat", "--dim", "4"] + argv + ["--format", "records"])
    assert code == 2
    verdict = json.loads(capsys.readouterr().out.splitlines()[-1])["verdict"]
    assert verdict.startswith("config error: ")


def test_value_error_inside_a_command_is_a_failed_check(monkeypatch, capsys):
    # a ValueError raised by a numerical step is not a configuration fault:
    # the run exits 1 with the records gathered so far
    from curvlab import cli as climod

    def planted(sol, grid):
        raise ValueError("planted")

    monkeypatch.setattr(climod, "solved_residual", planted)  # the step after the solve
    argv = ["gauduchon", "--manifold", "hopf-standard", "--grid", "4", "--format", "records"]
    assert main(argv) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[-1] == {"verdict": "check failed: planted"}
    assert [r["check"] for r in lines[:-1]] == ["gauduchon_residual_input"]


def test_cli_bad_derivative_mode_in_a_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("derivative_mode = exact\n")
    assert main(["check-identities", "--manifold", "torus-flat", "--config", str(cfgfile)]) == 2
    assert "--derivative-mode" in capsys.readouterr().err


def test_cli_bad_format_in_a_config_file(tmp_path, capsys):
    # refused before the command runs, not by the report writer after it
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("format = json\n")
    assert main(["ahat", "--chern", "c1^2=0,c2=24", "--dim", "4", "--config", str(cfgfile)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("config error: --format ")


def test_cli_check_identities_rejects_zero_points(capsys):
    code = main(["check-identities", "--manifold", "torus-flat", "--points", "0", "--grid", "4"])
    assert code == 2
    assert "--points" in capsys.readouterr().err


def test_cli_adjoints_rejects_zero_triples(capsys):
    code = main(["adjoints", "--manifold", "torus-flat", "--grid", "4", "--triples", "0"])
    assert code == 2
    assert "--triples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["gauduchon", "--seed", "-1"], "--seed"),
    (["gauduchon", "--seed", str(2**64)], "--seed"),
    (["gauduchon", "--manifold", "torus-flat", "--grid", "0"], "--grid"),
    (["gauduchon", "--manifold", "torus-flat", "--grid", "-2"], "--grid"),
    (["yamabe", "--manifold", "torus-flat", "--grid", "4", "--iters", "-1"], "--iters"),
    (["theorem-t", "--manifold", "hopf-conformal", "--t", "inf"], "--t"),
    (["ahat", "--pontryagin", "p1=-48", "--dim", "0"], "--dim"),
    (["ahat", "--pontryagin", "p1=-48", "--dim", "-4"], "--dim"),
], ids=["seed-negative", "seed-too-large", "grid-zero", "grid-negative", "iters-negative",
        "t-infinite", "dim-zero", "dim-negative"])
def test_cli_rejects_out_of_range_numeric_flags(capsys, argv, flag):
    # checked before the command runs: no report, exit 2
    assert main(argv + ["--format", "records"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"config error: {flag} ")


def test_cli_checks_numeric_keys_of_a_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("manifold = torus-flat\ngrid = 0\n")
    assert main(["gauduchon", "--config", str(cfgfile)]) == 2
    assert "--grid" in capsys.readouterr().err


def test_cli_unknown_tolerance_in_a_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("tol_solver_hop = 1\n")  # tol_solver_hopf, misspelt
    assert main(["gauduchon", "--manifold", "torus-flat", "--grid", "4",
                 "--config", str(cfgfile)]) == 2
    assert "tol_solver_hop" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_cli_rejects_out_of_range_tolerance_in_a_config_file(tmp_path, capsys, value):
    # a tolerance that no value can meet, or every value meets, is a config fault
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"tol_identity_analytic = {value}\n")
    code = main(["check-identities", "--manifold", "torus-flat", "--grid", "4",
                 "--format", "records", "--config", str(cfgfile)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and out.err.startswith("config error: tol_identity_analytic ")


def test_cli_quadrature_unsupported(capsys):
    code = main(["theorem-t", "--manifold", "inoue-chart"])
    assert code == 2


def test_cli_classify_flat_torus(capsys):
    code = main(["classify", "--manifold", "torus-flat", "--grid", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "KahlerCalabiYau_RicciFlat" in out


def test_cli_gauduchon_pointwise_chart(capsys):
    code = main(["gauduchon", "--manifold", "inoue-chart", "--points", "40"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pointwise" in out


@pytest.mark.parametrize("argv, want", [
    (["check-identities", "--manifold", "hopf-standard", "--points", "20"], 0),
    (["classify", "--manifold", "hopf-standard", "--grid", "4"], 0),
    (["theorem-t", "--manifold", "hopf-conformal", "--t", "0.2", "--grid", "4"], 0),
    (["adjoints", "--manifold", "hopf-standard", "--triples", "1"], 0),
    (["yamabe", "--manifold", "torus-flat", "--grid", "6"], 0),
    # the canonical-bundle gate is fixed at an analytic tolerance, so fd fails it
    (["check-identities", "--manifold", "inoue-chart", "--points", "20"], 1),
], ids=["check-identities", "classify", "theorem-t", "adjoints", "yamabe", "inoue-bundle"])
def test_finite_difference_mode_reaches_every_stage(monkeypatch, argv, want):
    # every metric jet of the run, conformal and bundle metrics included,
    # takes the fd route
    from curvlab.geometry import HermitianMetricField

    original = HermitianMetricField.jet
    routes = []

    def recorded(metric, z):
        routes.append((metric.name, metric.engine.mode))
        return original(metric, z)

    monkeypatch.setattr(HermitianMetricField, "jet", recorded)
    code, _ = run(make_config(argv + ["--derivative-mode", "fd"]))
    assert code == want
    assert routes
    assert [name for name, mode in routes if mode != "fd"] == []


def test_exit_code_on_non_convergence(monkeypatch):
    from curvlab import cli as climod
    from curvlab.errors import NonConvergence

    def blow_up(cfg, report):
        raise NonConvergence("forced for the exit-code contract")

    monkeypatch.setitem(climod.COMMANDS, "theorem-t", blow_up)
    code, report = run(make_config(["theorem-t", "--manifold", "hopf-standard"]))
    assert code == 3
    assert any("non-convergence" in v for v in report.verdicts)


def test_exit_code_on_a_failed_numerical_check(monkeypatch, capsys):
    from curvlab import cli as climod
    from curvlab.errors import CrossCheckFailed

    def gate(cfg, report):
        report.add("gauduchon_residual_input", cfg.manifold, 0.5, None, None, True)
        raise CrossCheckFailed("forced for the exit-code contract")

    monkeypatch.setitem(climod.COMMANDS, "gauduchon", gate)
    code, report = run(make_config(["gauduchon", "--manifold", "hopf-standard"]))
    assert code == 1
    assert report.verdicts == ["check failed: forced for the exit-code contract"]
    assert [r.check for r in report.records] == ["gauduchon_residual_input"]
    # main prints the report with the records gathered so far
    assert main(["gauduchon", "--manifold", "hopf-standard", "--format", "records"]) == 1
    out = capsys.readouterr()
    assert "gauduchon_residual_input" in out.out and "check failed" in out.out
    assert out.err == ""


@pytest.mark.parametrize("error, code", [("CrossCheckFailed", 1), ("NonConvergence", 3)])
def test_text_footer_fails_when_a_command_stops(monkeypatch, capsys, error, code):
    from curvlab import cli as climod
    from curvlab import errors

    def gate(cfg, report):
        report.add("gauduchon_residual_input", cfg.manifold, 0.5, None, None, True)
        raise getattr(errors, error)("forced for the footer contract")

    monkeypatch.setitem(climod.COMMANDS, "gauduchon", gate)
    assert main(["gauduchon", "--manifold", "hopf-standard"]) == code
    text = capsys.readouterr().out
    assert "PASS" in text.splitlines()[3]  # the one record passed
    assert text.rstrip("\n").endswith("overall FAIL")
    assert main(["gauduchon", "--manifold", "hopf-standard", "--format", "records"]) == code
    assert capsys.readouterr().out == (
        '{"check": "gauduchon_residual_input", "manifold": "hopf-standard", "value": 0.5, '
        '"residual": null, "tol": null, "pass": true}\n'
        + json.dumps({"verdict": ("check failed: " if code == 1 else "non-convergence: ")
                      + "forced for the footer contract"}) + "\n"
    )


def test_sequential_is_refused(tmp_path):
    cfgfile = tmp_path / "seq.cfg"
    cfgfile.write_text("sequential = true\n")
    with pytest.raises(SystemExit) as exc:  # argparse exits on an unknown flag
        main(["lebrun-table", "--sequential"])
    assert exc.value.code == 2
    assert main(["lebrun-table", "--config", str(cfgfile)]) == 2


def test_cli_check_identities_records(tmp_path, capsys):
    out = tmp_path / "r.txt"
    code = main([
        "check-identities", "--manifold", "torus-flat", "--grid", "6",
        "--points", "50", "--format", "records", "--out", str(out),
    ])
    assert code == 0
    recs = [r for r in parse_records(out.read_text()) if isinstance(r, CheckRecord)]
    assert any(r.check == "scalar_identity_rel_residual" for r in recs)
    assert all(r.passed for r in recs)


@pytest.mark.parametrize("iters, converged", [(1, 0.0), (200, 1.0)])
def test_cli_yamabe_reports_convergence(iters, converged):
    # --grid 6: on a 4-node axis the Nyquist projection leaves this start
    # constant, and the descent would report convergence before any step
    code, report = run(make_config(
        ["yamabe", "--manifold", "torus-flat", "--grid", "6", "--iters", str(iters), "--seed", "1"]
    ))
    assert code == 0  # an unconverged but monotone descent still exits 0
    rec = next(r for r in report.records if r.check == "yamabe_converged")
    assert rec.value == converged and rec.passed


def test_cli_determinism_byte_identical(tmp_path):
    args = ["adjoints", "--manifold", "torus-flat", "--grid", "6", "--triples", "3",
            "--seed", "42", "--format", "records"]
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# demo config\nmanifold = torus-flat\ngrid = 6\npoints = 30\nseed = 9\n"
    )
    cfg = make_config(["check-identities", "--config", str(cfgfile)])
    assert cfg.manifold == "torus-flat" and cfg.points == 30 and cfg.seed == 9
    # command line wins over the file
    cfg2 = make_config(["check-identities", "--config", str(cfgfile), "--points", "11"])
    assert cfg2.points == 11
    code, report = run(cfg)
    assert code == 0 and report.overall_pass


def test_cli_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nonsense = 1\n")
    assert main(["lebrun-table", "--config", str(cfgfile)]) == 2


@pytest.mark.parametrize("key", ["command", "tolerances", "identity_tol", "bind"])
def test_cli_config_file_sets_flags_only(tmp_path, capsys, key):
    # a RunConfig attribute that no flag sets is no config key either
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"{key} = check-identities\n")
    assert main(["ahat", "--chern", "c1^2=0,c2=24", "--dim", "4", "--config", str(cfgfile)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(f"config error: unknown config key {key!r}")


def test_run_config_tolerance_override(tmp_path):
    cfgfile = tmp_path / "t.cfg"
    cfgfile.write_text("tol_identity_analytic = 1e-12\n")
    cfg = make_config(["check-identities", "--config", str(cfgfile)])
    assert cfg.tolerances["identity_analytic"] == 1e-12
