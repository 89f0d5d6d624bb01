"""Benchmark entry point.

    python3 perfbench/run.py --workload {curve,audit,scalar} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each run starts fresh worker processes
(one thread each: OMP/OpenBLAS/MKL and BELL_RECYCLE_THREADS set to 1):
two set-up probes and the measuring worker, whose own set-up is the third
sample of `setup_s`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; a results file with
provenance and the per-metric sample counts goes to `.perfbench/results/`.
`--workload all` runs the three workloads untraced in turn and prints each
workload's own metrics with unit, sample count and failed/attempted.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("curve", "audit", "scalar")
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BELL_RECYCLE_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    # no PYTHON* variables: the package must come from the checkout's src/ only
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({k: "1" for k in THREAD_ENV})
    return env


def _spawn(root, workload, seed, seconds, trace, tiny, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    cmd += ["--tiny"] if tiny else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)
    return proc, t0


def _wait(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _until_ready(proc, t0: float) -> float:
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError("worker failed during set-up")
    return time.perf_counter() - t0


def measure(root, workload, seed, seconds, trace, tiny=False) -> dict:
    """Run one workload in fresh processes and return the worker's report."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        proc, t0 = _spawn(root, workload, seed, seconds, trace, tiny, setup_only=True)
        setups.append(_until_ready(proc, t0))
        _wait(proc, deadline)
    proc, t0 = _spawn(root, workload, seed, seconds, trace, tiny, setup_only=False)
    setups.append(_until_ready(proc, t0))
    lines = _wait(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    report = json.loads(lines[-1])
    if not trace:
        report["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                                        "samples": len(setups)}
    report["setup_samples_s"] = setups
    return report


def provenance(root: str, seed: int, seconds: float, trace: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "bellrecycle", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    env = worker_env()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "env": {k: v for k, v in sorted(env.items())
                if k.startswith(("OMP_", "OPENBLAS_", "MKL_")) or k == "BELL_RECYCLE_THREADS"},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_results(root: str, name: str, document: dict) -> str:
    folder = os.path.join(root, ".perfbench", "results")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(folder, name)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    return path


def _contract_line(report: dict) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }


def _print_table(workload: str, report: dict) -> None:
    print(f"== {workload}: {report['failed']} failed of {report['attempted']} attempted",
          flush=True)
    for name, m in {**report["metrics"], **report["details"]}.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']:8s} n={m['samples']}")
    for err in report["errors"]:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bellrecycle", "__init__.py")):
        print("error: run from a checkout root holding src/bellrecycle", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = 0 if args.workload == "all" else args.trace
    reports = {}
    try:
        for name in names:
            report = measure(root, name, args.seed, args.seconds, trace, args.tiny)
            report["provenance"] = provenance(root, args.seed, args.seconds, trace)
            report["workload"] = name
            report["results_file"] = write_results(
                root, f"{name}-trace{trace}-seed{args.seed}.json", report)
            reports[name] = report
    except (BenchError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        for name, report in reports.items():
            _print_table(name, report)
        return 0 if all(r["failed"] == 0 for r in reports.values()) else 1
    report = reports[args.workload]
    for err in report["errors"]:
        print(f"failure: {err}", file=sys.stderr)
    print(json.dumps(_contract_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
