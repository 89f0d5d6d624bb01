"""Self-test of the benchmark: every workload, untraced and traced, at tiny sizes.

    python3 perfbench/selftest.py      # from the checkout root, about a minute

Checks that each run exits 0 and ends with the result line, that no
operation fails, that every metric named in BENCHMARK.json is emitted with
its unit (end-to-end metrics untraced and non-zero, per-layer metrics
traced), and that the benchmark refuses to run in a directory without the
package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(root: str, spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(root, workload, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{tag}: correct={line['correct']} failed={line['failed']} "
                        f"attempted={line['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    if set(line["metrics"]) != names:
        problems.append(f"{tag}: missing {sorted(names - set(line['metrics']))}, "
                        f"unexpected {sorted(set(line['metrics']) - names)}")
    for m in wanted:
        got = line["metrics"].get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{tag}: {m['name']} = {got}")
        elif not trace and value <= 0:
            problems.append(f"{tag}: end-to-end metric {m['name']} is {value}")
    return problems


def check_refuses_without_sources(root: str) -> list[str]:
    bare = os.path.join(root, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = _run(bare, "scalar", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: the benchmark ran without the package sources"]
    return []


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = check_refuses_without_sources(root)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(root, spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
