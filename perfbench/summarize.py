"""Summarize results files into one baseline document.

    python3 perfbench/summarize.py OUT.json [RESULTS_DIR]

Reads every `<workload>-trace<t>-seed<n>.json` that `run.py` wrote to
RESULTS_DIR (default `.perfbench/results`) and writes, per workload, each
metric's median, quartiles and spread (quartile distance over the median,
as `statistics.quantiles(values, n=4)` gives them) over the untraced runs,
the per-layer numbers of the traced runs, and the provenance of the runs.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"runs": len(values), "median": median, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def summarize(folder: str) -> dict:
    by_workload: dict = {}
    for path in sorted(glob.glob(os.path.join(folder, "*-trace*-seed*.json"))):
        with open(path) as fh:
            report = json.load(fh)
        entry = by_workload.setdefault(report["workload"], {"untraced": [], "traced": []})
        entry["traced" if report["provenance"]["trace"] else "untraced"].append(report)
    document = {}
    for workload, runs in sorted(by_workload.items()):
        out = {}
        for kind, reports in runs.items():
            if not reports:
                continue
            values: dict[str, list] = {}
            units: dict[str, str] = {}
            for r in reports:
                for name, m in {**r["metrics"], **r["details"]}.items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
            out[kind] = {
                "seeds": [r["provenance"]["seed"] for r in reports],
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": {k: {"unit": units[k], **_stats(v)} for k, v in values.items()},
            }
        first = (runs["untraced"] or runs["traced"])[0]
        out["provenance"] = {k: first["provenance"][k]
                             for k in ("commit", "source_sha256", "machine", "nproc",
                                       "cpus_usable", "env", "seconds")}
        out["provenance"].update({k: first[k] for k in ("python", "numpy", "scipy", "bellrecycle")})
        document[workload] = out
    return document


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    folder = argv[1] if len(argv) > 1 else os.path.join(".perfbench", "results")
    document = summarize(folder)
    with open(argv[0], "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, out in document.items():
        for name, m in out.get("untraced", {}).get("metrics", {}).items():
            spread = m.get("spread")
            print(f"{workload:7s} {name:28s} median {m['median']:<12.6g} {m['unit']:6s} "
                  f"spread {spread if spread is None else round(spread, 3)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
