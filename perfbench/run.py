"""tlspin benchmark: one workload, run for a fixed time, metrics as JSON.

    python3 perfbench/run.py --workload verify|spectrum|tower --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Set-up is timed in fresh interpreters;
then one untimed warm-up pass, then whole passes over the workload's
operations until the time is up.  Every output is checked against
``oracle``.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics of a run that
alternates untraced and traced passes.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common

SETUP_SAMPLES = 7
REF_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "spectrum", "tower"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, scratch) -> dict:
    """Median wall time of fresh interpreters that import tlspin and build inputs."""
    walls, imports, builds = [], [], []
    for i in range(SETUP_SAMPLES):
        workdir = scratch / f"setup{i}"
        workdir.mkdir()
        cmd = [sys.executable, str(common.HERE / "setup_child.py"), workload, str(seed), str(workdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe exited {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(child["import_s"])
        builds.append(child["inputs_s"])
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(imports),
        "setup.inputs_s": statistics.median(builds),
    }


def reference_kernel() -> float:
    """A fixed small eigensolve plus a pure-Python loop; slow host, slow reference."""
    import numpy as np  # only after common.prepare() has pinned the BLAS threads

    a = np.random.default_rng(0).normal(size=(200, 200))
    a = a + a.T
    start = time.perf_counter()
    np.linalg.eigvalsh(a)
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - start


def run_pass(ops, tracer=None) -> tuple:
    """Time each call, then check every output: (seconds, [(label, verdict)])."""
    results, elapsed = [], 0.0
    for op in ops:
        rec = tracer.open(f"op:{op.label}") if tracer else None
        start = time.perf_counter()
        results.append(op.call())
        elapsed += time.perf_counter() - start
        if tracer:
            tracer.close(rec)
    return elapsed, [(op.label, op.check(res)) for op, res in zip(ops, results)]


# per-layer metric -> (span names or a module prefix, field, unit); field 0 is
# self seconds, 1 calls, 2 work size
LAYER_METRICS = {
    "cli.self_s": ("cli.", 0, "s"),
    "bform.self_s": ("bform.", 0, "s"),
    "rmatrix.self_s": ("rmatrix.", 0, "s"),
    "qalg.casimir.self_s": ("qalg.casimir", 0, "s"),
    "tl_rep.embed.self_s": ("tl_rep.embed", 0, "s"),
    "tl_rep.embed.calls": ("tl_rep.embed", 1, "count"),
    "tl_rep.embed.nnz": ("tl_rep.embed", 2, "nnz"),
    "chain.hamiltonian.self_s": ("chain.hamiltonian", 0, "s"),
    "chain.spectrum.self_s": ("chain.spectrum", 0, "s"),
    "chain.spectrum.calls": ("chain.spectrum", 1, "count"),
    "chain.spectrum.dim": ("chain.spectrum", 2, "dim"),
    "chain.check_isotypic.self_s": ("chain.check_isotypic", 0, "s"),
    "chain.check_isotypic.clusters": ("chain.check_isotypic", 2, "count"),
    "qalg.coproduct_T.self_s": ("qalg.coproduct_T", 0, "s"),
    "qalg.coproduct_T.nnz": ("qalg.coproduct_T", 2, "nnz"),
    "qalg.check_centralizer.self_s": ("qalg.check_centralizer", 0, "s"),
    "rep_ring.symmetrizer.self_s": ("rep_ring.symmetrizer", 0, "s"),
    "linalg.numerical_rank.self_s": ("linalg.numerical_rank", 0, "s"),
    "linalg.numerical_rank.calls": ("linalg.numerical_rank", 1, "count"),
    "linalg.rel_residual.calls": ("linalg.rel_residual", 1, "count"),
}


def layer_figures(summary: dict) -> dict:
    """One traced pass's summary mapped onto the per-layer metric names."""
    out = {}
    for metric, (key, fld, _) in LAYER_METRICS.items():
        if key.endswith("."):
            out[metric] = sum(v[fld] for name, v in summary.items() if name.startswith(key))
        else:
            out[metric] = summary.get(key, (0.0, 0, 0))[fld]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    common.prepare()
    scratch = common.OUT / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        return bench(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def bench(args, scratch) -> int:
    setup = measure_setup(args.workload, args.seed, scratch)
    import tracer as tracing
    import workloads

    inputs_dir = scratch / "inputs"
    inputs_dir.mkdir()
    ops = workloads.make_ops(workloads.make_inputs(args.workload, args.seed, inputs_dir))
    ref = [reference_kernel() for _ in range(REF_SAMPLES)]

    tracer = tracing.Tracer() if args.trace else None
    checked = run_pass(ops)[1]  # warm-up: caches, lazy imports, cold LAPACK
    untraced, traced, per_pass = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    min_passes = 2 if tracer else 1  # a traced run needs one pass of each kind
    while len(untraced) + len(traced) < min_passes or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            first = len(tracer.spans)
            tracer.install()
            try:
                seconds, pass_verdicts = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            traced.append(seconds)
            per_pass.append(layer_figures(tracer.summarize(first)))
        else:
            seconds, pass_verdicts = run_pass(ops)
            untraced.append(seconds)
        checked += pass_verdicts
        attempted += len(pass_verdicts)
        failed += sum(v.failed for _, v in pass_verdicts)
        last = time.perf_counter() - t0
    ref += [reference_kernel() for _ in range(REF_SAMPLES)]

    errors = [(label, e) for label, v in checked for e in v.errors]
    for label, err in errors[:20]:
        print(f"perfbench: CHECK FAILED {label}: {err}", file=sys.stderr)
    for label, reason in sorted({(label, v.reason) for label, v in checked if v.failed}):
        print(f"perfbench: FAILED {label}: {reason}", file=sys.stderr)
    # 0 when no operation passed or none made a float decision
    margins = [v.margin for _, v in checked if not v.failed and math.isfinite(v.margin)]
    margin = min(margins, default=0.0)
    pass_s = statistics.median(untraced)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(untraced)} untraced, {len(traced)} traced passes; "
        f"pass_s {pass_s:.4f}; host.ref_s {statistics.median(ref):.4f}; failed {failed}/{attempted}",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "pass_s": (pass_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "margin_digits": (margin, "digits"),
        }
    else:
        metrics = {
            name: (statistics.median(p[name] for p in per_pass), unit)
            for name, (_, _, unit) in LAYER_METRICS.items()
        }
        metrics["setup.import_s"] = (setup["setup.import_s"], "s")
        metrics["setup.inputs_s"] = (setup["setup.inputs_s"], "s")
        metrics["trace.overhead_s"] = (statistics.median(traced) - pass_s, "s")
        metrics["host.ref_s"] = (statistics.median(ref), "s")
        write_trace(tracer, args)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def write_trace(tracer, args) -> None:
    """All spans of the traced passes, one JSON object a line."""
    path = common.OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    origin = tracer.spans[0][3] if tracer.spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sid, parent, name, start, end, child, size in tracer.spans:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start - origin,
                     "end": end - origin, "self": (end - start) - child, "size": size}
                )
                + "\n"
            )


if __name__ == "__main__":
    sys.exit(main())
