"""One benchmark process: set up, print READY, measure, print one JSON line.

Started by `run.py` in a fresh interpreter per run (and per set-up probe),
so set-up includes the interpreter start, `import bellrecycle` from the
checkout's `src/` and input generation.  With `--setup-only` it exits after
READY.  With `--trace 1` it runs the kernel microbenchmarks, then the
workload untraced and traced on the same inputs, and reports per-layer
numbers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np


def _import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    pkg = importlib.import_module("bellrecycle")
    importlib.import_module("bellrecycle.cli")
    where = os.path.realpath(pkg.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"bellrecycle imported from {where}, not from {src}")
    return pkg


def _percentile(values, q: float) -> float:
    """The q-th percentile when at least ten samples lie beyond it, else the slowest."""
    if len(values) * (100.0 - q) / 100.0 >= 10:
        return float(np.percentile(values, q))
    return float(np.max(values))


def summarize(workload: str, result: dict) -> tuple[dict, dict]:
    """(contract metrics, issue-level details) of one measured run.

    The timed contract metric is `unit_s`, one unit of work: the four-target
    curve, one audit call, or 1000 scalar requests of the fixed mix.  For
    curve and audit it is wall time (median over passes or calls).  For
    scalar it is the sum over the request pool of each request's best
    latency in the run, scaled to 1000 requests: the host alternates within
    milliseconds between a fast state and one ~1.9x slower for Python code,
    in proportions that drift from minute to minute, so any median or mean
    of single requests follows the host, while a request's best of ~100
    repetitions does not.  Per-operation medians and tail percentiles are
    details, reported with their sample counts but not gated.
    """
    if workload == "curve":
        ops = [t["seconds"] for p in result["passes"] for t in p]
        per_class = {c: [sum(t["seconds"] for t in p if t["class"] == c) for p in result["passes"]]
                     for c in ("edge", "mid")}
        units = [sum(t["seconds"] for t in p) for p in result["passes"]]
        passes = len(result["passes"])
        details = {
            "curve.edge_s": (statistics.median(per_class["edge"]), "s", passes),
            "curve.mid_s": (statistics.median(per_class["mid"]), "s", passes),
        }
        unit = statistics.median(units)
    elif workload == "audit":
        calls = result["calls"]
        ops = [c["seconds"] for c in calls]
        details = {
            "audit.samples_per_s": (statistics.median(c["samples"] / c["seconds"] for c in calls),
                                    "1/s", len(calls)),
            "audit.samples_per_call": (calls[0]["samples"], "count", len(calls)),
        }
        unit = statistics.median(ops)
    else:
        lat, mb = result["latencies"], result["multibob"]
        best, best_mb = result["best"], result["best_multibob"]
        scen, multi = lat[~mb], lat[mb]
        p99 = _percentile(scen, 99)
        passes = len(lat) // len(best)
        details = {
            "scalar.scenario_us_p50": (float(np.median(scen)) * 1e6, "us", len(scen)),
            "scalar.scenario_us_p99": (p99 * 1e6, "us", len(scen)),
            "scalar.scenario_beyond_p99": (int((scen > p99).sum()), "count", len(scen)),
            "scalar.multibob_ms_p50": (float(np.median(multi)) * 1e3, "ms", len(multi)),
            "scalar.request_ms_p99": (_percentile(lat, 99) * 1e3, "ms", len(lat)),
            "scalar.scenario_best_us_p50": (float(np.median(best[~best_mb])) * 1e6, "us",
                                            int((~best_mb).sum())),
            "scalar.multibob_best_ms_p50": (float(np.median(best[best_mb])) * 1e3, "ms",
                                            int(best_mb.sum())),
            "scalar.pool_passes": (passes, "count", len(lat)),
        }
        ops = lat
        unit = float(best.sum()) * 1000 / len(best)
    details["op_ms_p50"] = (float(np.median(ops)) * 1e3, "ms", len(ops))
    details["op_ms_p95"] = (_percentile(ops, 95) * 1e3, "ms", len(ops))
    return {"unit_s": (unit, "s", len(ops))}, details


def traced_run(pkg, workloads, tracer, workload: str, inputs: dict, seconds: float):
    """Run the same units of work untraced and then traced, alternating.

    The machine's speed drifts over tens of seconds, so each unit (a curve
    target, an audit call, a pass over the scalar pool) runs untraced and
    then traced back to back, and the overhead is the ratio of the sums.
    Scalar passes continue until `seconds` have passed.
    """
    tally = workloads.Tally()
    if workload == "curve":
        parts = [dict(inputs, targets=(t,)) for t in inputs["targets"]]
    elif workload == "audit":
        parts = [inputs]
    else:
        for i in range(inputs["warmup"]):
            workloads.scalar_step(pkg, inputs, i, tally)
        parts = [dict(inputs, warmup=0)]
    count = len(inputs["requests"]) if workload == "scalar" else 1
    plain_s = traced_s = 0.0
    targets = []
    deadline = time.perf_counter() + seconds
    while True:
        for part in parts:
            t0 = time.perf_counter()
            tally.add(workloads.run(pkg, workload, part, 0.0, count=count)["tally"])
            plain_s += time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced = workloads.run(pkg, workload, part, 0.0, count=count)
                traced_s += time.perf_counter() - t0
            finally:
                tracer.uninstall()
            tally.add(traced["tally"])
            targets += [t for p in traced.get("passes", ()) for t in p]
            if workload == "scalar" and time.perf_counter() > deadline:
                break
        if workload != "scalar" or time.perf_counter() > deadline:
            return tally, plain_s, traced_s, targets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    pkg = _import_package(args.root)
    import kernels
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.root, args.tiny)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = {"python": sys.version.split()[0], "numpy": np.__version__,
           "scipy": sys.modules["scipy"].__version__, "bellrecycle": pkg.__version__}
    if args.trace == 0:
        result = workloads.run(pkg, args.workload, inputs, args.seconds)
        metrics, details = summarize(args.workload, result)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
        tally = result["tally"]
    else:
        layer = kernels.run(pkg, args.seed, args.tiny)
        tracer = tracing.Tracer()
        tally, plain_s, traced_s, targets = traced_run(
            pkg, workloads, tracer, args.workload, inputs, args.seconds * 2 / 3)
        summary = tracing.Summary(tracer.spans)
        missing = summary.missing(args.workload)
        if missing:
            raise SystemExit(f"no spans recorded for {', '.join(missing)}: stale binding?")
        layer.update(summary.layer_metrics())
        layer["trace.overhead_frac"] = (traced_s / plain_s, "ratio")
        budget_used = sum(t["budget"] for t in targets)
        layer["optimizer.evals_per_budget"] = (
            sum(t["evaluations"] for t in targets) / budget_used if targets else 0.0, "ratio")
        metrics = {k: (v, unit, 1) for k, (v, unit) in layer.items()}
        details = {}
        spans_file = os.path.join(".perfbench", "traces", f"{args.workload}-seed{args.seed}.tsv.gz")
        os.makedirs(os.path.join(args.root, os.path.dirname(spans_file)), exist_ok=True)
        tracer.write(os.path.join(args.root, spans_file))
        out["trace"] = {"spans": len(tracer.spans), "spans_file": spans_file,
                        "untraced_s": plain_s, "traced_s": traced_s}
        result = {"passes": [targets]}

    out.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "details": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in details.items()},
    })
    if args.workload == "curve":
        out["targets"] = result["passes"]
    print(json.dumps(out, default=float), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
