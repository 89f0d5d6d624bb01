"""Command-line interface.

Subcommands:
  curve     boundary-curve optimization over a grid of target CHSH values,
            with the two semi-analytic reference curves tabulated alongside
  audit     large sampling audits of the monogamy and tradeoff relations
  multibob  greedy one-Alice/N-Bob strength scheduling and noise robustness
  scenario  one-shot evaluation of a JSON-described recycling scenario

All floating-point output is printed with 12 significant digits and every
command is deterministic given --seed, so reruns produce byte-identical
files.  Exit codes: 0 success, 2 invalid configuration, 3 infeasible
schedule, 4 audit violation.  Every failure prints one `error:` line to
stderr.  An --out directory that does not exist is rejected before
any work runs, and a scenario's `quality` is accepted only with weak-pointer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from decimal import Decimal, InvalidOperation

from . import __version__
from .audit import run_all_audits
from .bell import MeasurementPair
from .errors import BellRecycleError, ConstraintViolation, Infeasible
from .instruments import MeasurementKind
from .monogamy import (
    ScenarioConfig,
    conjecture_margin,
    evaluate_scenario,
    region1_closed,
    region3_curve,
)
from .multiparty import noise_robustness, plan_multibob, verify_noise_robustness
from .observables import make_observable
from .optimizer import _MODES, boundary_curve, search_mode
from .states import _numbers, singlet, state_from_payload

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_VIOLATION = 4


def _fmt(x: float) -> str:
    """Canonical 12-significant-digit rendering of a float."""
    return f"{float(x):.12g}"


def _json_round(obj):
    """Round all floats to 12 significant digits for stable JSON output."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_round(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_round(v) for v in obj]
    return obj


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit_json(document: dict, path: str | None) -> None:
    # NaN and Infinity are not JSON: json.dumps raises ValueError, exit 2
    text = json.dumps(_json_round(document), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_output(text, path)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else _fmt(v) if isinstance(v, float) else v for v in row])
    _write_output(buf.getvalue(), path)


def _parse_grid(spec: str) -> list[float]:
    """Grid syntax: comma list '0.5,1.0' or range 'start:stop:step' (inclusive).

    A range is built and counted in exact decimal arithmetic, so each point
    is the float of its decimal value and prints as it was meant: 0:2.8:0.4
    ends on 2.4 and 2.8, not 2.4000000000000004.
    """
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grid must be start:stop:step, got {spec!r}")
        try:
            start, stop, step = (Decimal(p) for p in parts)
        except InvalidOperation:
            raise ValueError(f"range grid must be three numbers, got {spec!r}") from None
        if not all(v.is_finite() for v in (start, stop, step)):
            raise ValueError(f"range grid must be finite, got {spec!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        try:
            count = int((stop - start) // step) + 1 if stop >= start else 0
        except InvalidOperation:
            raise ValueError(f"range grid {spec!r} has too many points") from None
        return [float(start + i * step) for i in range(count)]
    return [float(p) for p in spec.split(",") if p.strip()]


def _json_object(payload, what: str, *required: str) -> dict:
    """`payload` if it is a JSON object holding every `required` field."""
    if not isinstance(payload, dict):
        raise ConstraintViolation(f"{what} must be a JSON object")
    for key in required:
        if key not in payload:
            raise ConstraintViolation(f"{what} has no {key!r} field")
    return payload


def cmd_curve(args) -> int:
    grid = _parse_grid(args.grid)
    mode = search_mode(args.mode)
    # the library rejects an empty grid, out-of-range targets, a small budget
    # and fewer than one worker
    points = []
    for p in boundary_curve(grid, mode, args.budget, args.seed, workers=args.threads):
        entry = p.as_dict()
        entry["region1_closed"] = region1_closed(p.target_s) if p.target_s <= 2.0 + 1e-12 else None
        entry["region3_curve"] = region3_curve(p.target_s)
        points.append(entry)

    if args.format == "csv":
        header = ["target_s", "achieved_s", "s_star", "seed", "evaluations",
                  "region1_closed", "region3_curve"]
        _emit_csv(header, [[entry[k] for k in header] for entry in points], args.out)
    else:
        _emit_json(
            {
                "kind": "boundary-curve",
                "version": __version__,
                "mode": mode.tag,
                "budget": args.budget,
                "seed": args.seed,
                "points": points,
            },
            args.out,
        )
    return EXIT_OK


def cmd_audit(args) -> int:
    # the library rejects a sample count below 1
    reports = run_all_audits(args.samples, args.seed)
    document = {
        "kind": "audit-report",
        "version": __version__,
        "seed": args.seed,
        "samples": args.samples,
        "audits": [r.as_dict() for r in reports],
    }
    _emit_json(document, args.out)
    bad = [r for r in reports if r.violations > 0]
    for r in bad:
        print(
            f"violation in {r.name}: worst margin {_fmt(r.worst_margin)} at "
            f"{json.dumps(_json_round(r.worst_config), sort_keys=True)}",
            file=sys.stderr,
        )
    return EXIT_VIOLATION if bad else EXIT_OK


def cmd_multibob(args) -> int:
    # the scheduler works at the correlation-matrix level, so accept any
    # contraction here; the planner itself rejects s1(T) > 1
    state = (singlet() if args.state is None
             else state_from_payload(json.loads(args.state), check=False))
    schedule = plan_multibob(state.T, args.n, args.margin)
    robustness = noise_robustness(schedule)
    p_check = min(robustness.p_min + 0.01, 1.0)
    verified = verify_noise_robustness(schedule, p_check)

    if args.format == "csv":
        rows = [
            [n + 1, schedule.bob_strengths[n], schedule.chsh_values[n], robustness.p_min]
            for n in range(args.n)
        ]
        _emit_csv(["n", "strength", "chsh_value", "p_min"], rows, args.out)
    else:
        _emit_json(
            {
                "kind": "multibob",
                "version": __version__,
                "n_bobs": args.n,
                "margin": args.margin,
                "alice_directions": [
                    schedule.alice.first.direction.tolist(),
                    schedule.alice.second.direction.tolist(),
                ],
                "bob_directions": [d.tolist() for d in schedule.bob_directions],
                "strengths": list(schedule.bob_strengths),
                "chsh_values": list(schedule.chsh_values),
                "s_min": robustness.s_min,
                "p_min": robustness.p_min,
                "verification": {
                    "p": p_check,
                    "chsh_values": list(verified),
                    "all_above_2": bool(all(v > 2.0 for v in verified)),
                },
            },
            args.out,
        )
    return EXIT_OK


def _pair_from_config(observables, side: str) -> MeasurementPair:
    if not isinstance(observables, list) or len(observables) != 2:
        raise ConstraintViolation(f"{side} must list exactly two observables")
    what = f"an observable of {side}"
    payloads = [_json_object(o, what, "strength", "direction") for o in observables]
    return MeasurementPair(*(make_observable(
        float(_numbers(p.get("bias", 0.0), None, f"the bias of {what} must be a number")),
        float(_numbers(p["strength"], None, f"the strength of {what} must be a number")),
        _numbers(p["direction"], 3, f"the direction of {what} must be three numbers"))
        for p in payloads))


def cmd_scenario(args) -> int:
    if args.config.strip().startswith("{"):
        payload = json.loads(args.config)
    else:
        with open(args.config) as fh:
            payload = json.load(fh)
    payload = _json_object(payload, "config", "alice", "bob")
    state_spec = payload.get("state", "singlet")
    state = singlet() if state_spec == "singlet" else state_from_payload(state_spec)
    alice, bob = (_pair_from_config(payload[side], side) for side in ("alice", "bob"))
    # the library checks the tag and that quality is given iff it is weak-pointer
    quality = payload.get("quality")
    if quality is not None:
        quality = float(_numbers(quality, None, "quality must be a number"))
    kind = MeasurementKind(payload.get("kind", "square-root"), quality)
    result = evaluate_scenario(ScenarioConfig(state=state, alice=alice, bob=bob, kind=kind))
    _emit_json(
        {
            "kind": "scenario",
            "version": __version__,
            "s_first": result.s_first,
            "s_star_second": result.s_star_second,
            "conjecture_margin": conjecture_margin(result),
        },
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellrecycle",
        description="Sequential CHSH nonlocality on recycled qubits",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="optimize the tradeoff boundary over a grid")
    curve.add_argument("--grid", required=True,
                       help="comma list '0.5,1.0' or inclusive range 'start:stop:step'")
    curve.add_argument("--mode", default="unbiased-singlet", choices=list(_MODES))
    curve.add_argument("--budget", type=int, default=200_000,
                       help="ceiling on the evaluations per grid point, DE and polish "
                            "together; easy targets stop far below it (default 200000)")
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--threads", type=int, default=1,
                       help="processes for the grid, this one included, at most one per grid "
                            "point and usable CPU; the points run in strided blocks")
    curve.add_argument("--format", default="csv", choices=["csv", "json"])
    curve.add_argument("--out", default=None, help="output path (default stdout)")
    curve.set_defaults(func=cmd_curve)

    audit = sub.add_parser("audit", help="sampling audits of the monogamy relations")
    audit.add_argument("--samples", type=int, default=100_000)
    audit.add_argument("--seed", type=int, default=1)
    audit.add_argument("--out", default=None)
    audit.set_defaults(func=cmd_audit)

    multibob = sub.add_parser("multibob", help="greedy one-Alice/N-Bob scheduling")
    multibob.add_argument("--n", type=int, required=True, help="number of Bobs")
    multibob.add_argument("--margin", type=float, default=0.05)
    multibob.add_argument("--state", default=None,
                          help='JSON state {"a":..,"b":..,"T":..}; T may be "diag(a,b,c)"')
    multibob.add_argument("--format", default="json", choices=["csv", "json"])
    multibob.add_argument("--out", default=None)
    multibob.set_defaults(func=cmd_multibob)

    scenario = sub.add_parser("scenario", help="evaluate one recycling scenario")
    scenario.add_argument("--config", required=True,
                          help="JSON file or inline JSON with state/alice/bob/kind")
    scenario.add_argument("--out", default=None)
    scenario.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out not in (None, "-"):
            directory = os.path.dirname(args.out) or "."
            if not os.path.isdir(directory):
                raise FileNotFoundError(f"output directory {directory!r} does not exist")
        return args.func(args)
    except Infeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (BellRecycleError, OSError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
