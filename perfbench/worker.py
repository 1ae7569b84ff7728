"""One benchmark run of one workload, inside a fresh process.

Started by run.py with curvlab's ``src`` on PYTHONPATH and BLAS capped at one
thread.  Prints one JSON object as its last line.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--quick] [--setup-only]

--setup-only  time import plus build_manifold for the workload's entries, then
              the host-speed kernel three times; print both, exit
--trace 0     untraced rounds for S seconds: end-to-end figures
--trace 1     untraced rounds for S seconds, then traced rounds for S seconds:
              per-layer figures from the spans, and the tracing overhead
"""

from __future__ import annotations

import time

START = time.perf_counter()  # before curvlab and numpy are imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
PRODUCT_BATCH = 13824  # Jet2 products are counted in units of a 13 824-node batch


def build_entries(wl, seed):
    from curvlab.catalog import ManifoldSpec, build_manifold

    return {
        (mid, t): build_manifold(ManifoldSpec(mid, conformal_t=t, resolution=wl.grid, seed=seed))
        for mid, t in wl.entries
    }


def patches():
    # cli is imported first so that the names it imports are wrapped too
    from curvlab import adjoints, catalog, cli, gauduchon, geometry, tensors, yamabe  # noqa: F401
    from tracing import Patch, batch_attrs

    return [
        Patch(catalog, "build_manifold", "catalog.build_manifold"),
        Patch(geometry.HermitianMetricField, "jet", "geometry.metric_jet", attrs=batch_attrs),
        Patch(tensors, "scalar_identity_residual", "tensors.scalar_identity_residual", keep=True),
        Patch(tensors, "riemannian_scalar_real_oracle", "tensors.riemannian_scalar_real_oracle",
              keep=True),
        Patch(tensors, "chern_ricci", "tensors.chern_ricci", keep=True),
        Patch(gauduchon, "gauduchon_operator_coefficients", "gauduchon.coefficients"),
        Patch(gauduchon, "apply_gauduchon_operator", "gauduchon.apply"),
        Patch(gauduchon, "solve_gauduchon", "gauduchon.solve",
              result_attrs=lambda sol: {"iterations": sol.iterations}),
        Patch(gauduchon, "theorem_t_check", "gauduchon.theorem_t_check"),
        Patch(gauduchon, "classify", "gauduchon.classify"),
        Patch(adjoints, "verify_adjoint_identities", "adjoints.verify_adjoint_identities",
              keep=True, result_attrs=lambda rep: {"triples": rep.triples}),
        Patch(yamabe, "minimize_quotient", "yamabe.minimize_quotient", keep=True,
              result_attrs=lambda res: {"iterations": len(res.trace) - 1}),
    ]


class Runner:
    """Runs whole rounds of a workload's operations and checks each one.

    The host-speed kernel is timed before the first operation of a round and
    after every operation; each operation gets the mean of the kernel times
    on either side of it (hostspeed.py, host_speed_kernel).
    """

    def __init__(self, wl, entries, rec):
        from hostspeed import HostKernel

        self.wl = wl
        self.entries = entries
        self.rec = rec
        self.kernel = HostKernel()
        self.results = []        # one dict per operation attempted
        self.first_records = {}  # op label -> records text of its first run
        self.op_id = 0
        self.rounds = 0

    def run_op(self, op, traced):
        from curvlab import cli
        from curvlab.report import emit_report
        from workloads import Outcome, parse_records

        rec = self.rec
        rec.start_op(self.op_id)
        self.op_id += 1
        span = rec.open("cli.run", {"op": op.label}) if traced else None
        t0 = time.perf_counter()
        try:
            code, report = cli.run(cli.make_config(op.argv))
            text = emit_report(report, "records")
            error = None
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, not a crashed benchmark
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if span is not None:
            rec.close(span)
        if error is not None:
            fails = [error]
        else:
            try:
                records, verdicts = parse_records(text)
                fails = op.check(Outcome(code, records, verdicts, rec.kept, self.entries))
            except (ValueError, KeyError, IndexError) as exc:
                fails = [f"output check: {type(exc).__name__}: {exc}"]
            first = self.first_records.setdefault(op.label, text)
            if text != first:
                fails.append("records differ from the first run of this command")
        self.results.append({"label": op.label, "kind": op.kind, "seconds": seconds,
                             "work": op.work, "fails": fails, "known_fault": op.known_fault,
                             "traced": traced, "round": self.rounds})

    def run_rounds(self, seconds, traced):
        """Whole rounds until `seconds` have passed; returns the results of these rounds."""
        first = len(self.results)
        start = time.perf_counter()
        while True:
            kernel_before = self.kernel.seconds()
            for op in self.wl.ops:
                self.run_op(op, traced)
                kernel_after = self.kernel.seconds()
                res = self.results[-1]
                res["kernel_s"] = 0.5 * (kernel_before + kernel_after)
                kernel_before = kernel_after
            self.rounds += 1
            if time.perf_counter() - start >= seconds:
                return self.results[first:]


def round_time(results):
    """One round's wall time: each operation's median over the rounds, summed.

    A median per operation drops a round that a slow phase of the host hit,
    even when the phase covered only part of that round.
    """
    per_op = {}
    for r in results:
        per_op.setdefault(r["label"], []).append(r["seconds"])
    return sum(statistics.median(xs) for xs in per_op.values())


def host_speed_kernel(results):
    """The kernel time the operations ran at: the kernel times around each
    operation, weighted by how long the operation took."""
    busy = sum(r["seconds"] for r in results)
    return sum(r["seconds"] * r["kernel_s"] for r in results) / busy


def norm_round_time(results):
    """round_time rescaled to the host speed at which the kernel takes
    REFERENCE_KERNEL_S."""
    from hostspeed import REFERENCE_KERNEL_S

    return round_time(results) * REFERENCE_KERNEL_S / host_speed_kernel(results)


def command_metrics(results):
    """Per-command figures of the untraced rounds (zero where a command is not run)."""

    def median(kind):
        xs = [r["seconds"] for r in results if r["kind"] == kind]
        return statistics.median(xs) if xs else 0.0

    def rate(kind):
        xs = [r for r in results if r["kind"] == kind]
        secs = sum(r["seconds"] for r in xs)
        return sum(r["work"] for r in xs) / secs if secs else 0.0

    return {
        "gauduchon_s": median("gauduchon"),
        "theorem_t_s": median("theorem_t"),
        "classify_s": median("classify"),
        "identity_points_per_s": rate("identities"),
        "descent_s": median("descent"),
        "adjoint_triples_per_s": rate("adjoints"),
    }


COMMAND_UNITS = {"gauduchon_s": "s", "theorem_t_s": "s", "classify_s": "s",
                 "identity_points_per_s": "points/s", "descent_s": "s",
                 "adjoint_triples_per_s": "triples/s"}

LAYER_UNITS = {
    "catalog.build_s": "s",
    "catalog.basis_eval_s": "s",
    "catalog.basis_functions": "count",
    "jets.products_per_s": "1/s",
    "fields.grid_eval_s": "s",
    "geometry.metric_jet_s": "s",
    "geometry.metric_jet_points": "count",
    "tensors.identity_s": "s",
    "tensors.oracle_s": "s",
    "tensors.cxblocks_bytes": "B_computed",
    "gauduchon.coeffs_s": "s",
    "gauduchon.apply_s": "s",
    "gauduchon.solve_s": "s",
    "gauduchon.linalg_s": "s",
    "gauduchon.iterations": "count",
    "gauduchon.factor_eval_s": "s",
    "gauduchon.total_identity_s": "s",
    "adjoints.suite_s_per_triple": "s",
    "yamabe.descent_s": "s",
    "yamabe.iterations": "count",
    "cli.gauduchon_s": "s",
    "cli.theorem_t_s": "s",
    "cli.classify_s": "s",
    "cli.identity_points_per_s": "points/s",
    "cli.descent_s": "s",
    "cli.adjoint_triples_per_s": "triples/s",
    "bench.wall_s": "s",
    "bench.kernel_s": "s",
    "bench.trace_overhead_s": "s",
}


def layer_metrics(rec, entries, rounds, untraced_results):
    """Per-layer figures from the spans of the traced rounds.

    Times are per traced round, except the two adjoint figures, which are per
    triple.
    """
    from tracing import SETUP_OP

    spans = [s for s in rec.spans if s.op != SETUP_OP]
    kids = rec.children()

    def total(name, keep=lambda s: True):
        return sum(s.duration for s in spans if s.name == name and keep(s)) / rounds

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name) / rounds

    def self_time(name, covered):
        t = sum(s.duration - sum(c.duration for c in kids[s.id] if c.name in covered)
                for s in spans if s.name == name)
        return t / rounds

    grid_nodes = {len(e.grid.nodes) for e in entries.values() if e.grid is not None}

    def adjoint_grid_eval(s):
        return s.attrs["nodes"] in grid_nodes and any(
            a.name == "adjoints.verify_adjoint_identities" for a in rec.ancestors(s))

    _, elements, secs = rec.counters["jets.mul"]
    triples = attr_sum("adjoints.verify_adjoint_identities", "triples")
    suite = total("adjoints.verify_adjoint_identities")
    out = {
        "catalog.build_s": sum(s.duration for s in rec.spans
                               if s.op == SETUP_OP and s.name == "catalog.build_manifold"),
        "catalog.basis_eval_s": total("catalog.basis_batch"),
        "catalog.basis_functions": max((s.attrs["functions"] for s in spans
                                        if s.name == "catalog.basis_batch"), default=0),
        "jets.products_per_s": elements / PRODUCT_BATCH / secs if secs else 0.0,
        "fields.grid_eval_s": total("fields.eval", adjoint_grid_eval) / triples if triples else 0.0,
        "geometry.metric_jet_s": total("geometry.metric_jet"),
        "geometry.metric_jet_points": attr_sum("geometry.metric_jet", "points"),
        "tensors.identity_s": total("tensors.scalar_identity_residual"),
        "tensors.oracle_s": total("tensors.riemannian_scalar_real_oracle"),
        "tensors.cxblocks_bytes": rec.cxblocks_bytes,
        "gauduchon.coeffs_s": total("gauduchon.coefficients"),
        "gauduchon.apply_s": total("gauduchon.apply"),
        "gauduchon.solve_s": total("gauduchon.solve"),
        "gauduchon.linalg_s": self_time("gauduchon.solve", {
            "geometry.metric_jet", "gauduchon.coefficients", "catalog.basis_batch",
            "gauduchon.apply"}),
        "gauduchon.iterations": attr_sum("gauduchon.solve", "iterations"),
        "gauduchon.factor_eval_s": total("fields.eval", lambda s: "gauduchon-u" in s.attrs["field"]),
        "gauduchon.total_identity_s": (self_time("gauduchon.theorem_t_check", {"gauduchon.solve"})
                                       + self_time("gauduchon.classify", {"gauduchon.solve"})),
        "adjoints.suite_s_per_triple": suite / triples if triples else 0.0,
        "yamabe.descent_s": total("yamabe.minimize_quotient"),
        "yamabe.iterations": attr_sum("yamabe.minimize_quotient", "iterations"),
    }
    out.update({f"cli.{k}": v for k, v in command_metrics(untraced_results).items()})
    out["bench.wall_s"] = round_time(untraced_results)
    out["bench.kernel_s"] = host_speed_kernel(untraced_results)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.quick)
    entries = build_entries(wl, args.seed)
    if args.setup_only:
        from hostspeed import HostKernel

        setup = time.perf_counter() - START
        kernel = HostKernel()
        print(json.dumps({"setup_s": setup,
                          "kernel_s": statistics.median(kernel.seconds() for _ in range(3))}))
        return 0

    from tracing import Recorder

    rec = Recorder()
    table = patches()
    rec.install(table, trace=False)
    runner = Runner(wl, entries, rec)
    untraced = runner.run_rounds(args.seconds, traced=False)
    result = {
        "wall_s": round_time(untraced),
        "norm_wall_s": norm_round_time(untraced),
        "kernel_s": host_speed_kernel(untraced),
    }
    if args.trace:
        rec.install(table, trace=True)
        rec.reset()
        build_entries(wl, args.seed)
        traced = runner.run_rounds(args.seconds, traced=True)
        rec.restore()
        rounds = len({r["round"] for r in traced})
        result["layers"] = layer_metrics(rec, entries, rounds, untraced)
        result["layers"]["bench.trace_overhead_s"] = (norm_round_time(traced)
                                                      - result["norm_wall_s"])
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    else:
        rec.restore()
    result["commands"] = command_metrics(untraced)
    result["ops"] = runner.results
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
