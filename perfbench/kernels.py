"""Kernel microbenchmarks for the per-layer numbers of `optimizer` and `bell`.

Each kernel is warmed up, timed over a fixed number of calls, and reported
as the median per call (or per row).  Each checks its result once against
plain numpy (`reference.py`) first, so a kernel that is fast but wrong
raises instead of reporting a number.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

import reference as ref

CHECK_TOL = 1e-9

#: Parameter boxes of the two search modes, as documented by the optimizer:
#: unbiased-singlet = 4 strengths then (polar, azimuth) per setting;
#: general-biased = (r, alpha fraction, polar, azimuth) per setting, then
#: the Schmidt angle.
_PI, _TWO_PI = math.pi, 2.0 * math.pi
BOXES = {
    "unbiased-singlet": ([0.0] * 4 + [0.0, 0.0] * 4, [1.0] * 4 + [_PI, _TWO_PI] * 4),
    "general-biased": ([0.0, -1.0, 0.0, 0.0] * 4 + [0.0], [1.0, 1.0, _PI, _TWO_PI] * 4 + [_PI / 4]),
}


class KernelCheckFailed(AssertionError):
    pass


def _median_seconds(fn, calls: int, warmup: int = 3) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _check(name: str, worst: float) -> None:
    if not worst <= CHECK_TOL:
        raise KernelCheckFailed(f"{name}: deviation {worst:.3g} from numpy reference")


def _check_evaluator(pkg, mode, P, s1, ss) -> None:
    worst = 0.0
    for i in range(min(len(P), 16)):
        cfg = pkg.decode_params(pkg.search_mode(mode), P[i])
        obs = (cfg.alice.first, cfg.alice.second, cfg.bob.first, cfg.bob.second)
        settings = [(o.bias, o.strength, o.direction) for o in obs]
        r1, rs = ref.scenario(cfg.state.a, cfg.state.b, cfg.state.T, settings)
        worst = max(worst, abs(r1 - s1[i]), abs(rs - ss[i]))
    _check(f"{mode} evaluator", worst)


def _contractions(rng, n: int, degenerate: bool) -> np.ndarray:
    """Random contractions U diag(s) V^T, or -c Q (all singular values equal)."""
    if degenerate:
        return -rng.uniform(0.0, 1.0, (n, 1, 1)) * ref.rotations(rng, n)
    s = np.sort(rng.uniform(0.0, 1.0, (n, 3)), axis=1)[:, ::-1]
    return ref.rotations(rng, n) @ (s[:, :, None] * ref.rotations(rng, n))


def run(pkg, seed: int, tiny: bool) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng([seed, 0xB3E1])
    scale = 10 if tiny else 1
    out: dict[str, tuple[float, str]] = {}

    sizes = {"unbiased-singlet": ((1, 300), (64, 200), (256, 60), (4096, 8)),
             "general-biased": ((1, 200), (64, 100))}
    for mode, plan in sizes.items():
        lo, hi = (np.array(b) for b in BOXES[mode])
        evaluate = pkg.optimizer.make_batch_evaluator(pkg.search_mode(mode))
        prefix = "optimizer.eval_us_per_row" + (".biased" if mode == "general-biased" else "")
        for n, calls in plan:
            P = lo + rng.random((n, lo.size)) * (hi - lo)
            s1, ss = evaluate(P)
            _check_evaluator(pkg, mode, P, s1, ss)
            t = _median_seconds(lambda: evaluate(P), max(calls // scale, 2))
            out[f"{prefix}.n{n}"] = (t / n * 1e6, "us/row")

    sv_batch = pkg.bell.singular_values_batch
    for family in ("random", "degenerate"):
        for n, calls in ((64, 200), (4096, 10)):
            M = _contractions(rng, n, family == "degenerate")
            worst = np.abs(sv_batch(M) - np.linalg.svd(M, compute_uv=False)).max()
            _check(f"singular_values_batch {family} n{n}", worst)
            t = _median_seconds(lambda: sv_batch(M), max(calls // scale, 2))
            out[f"bell.sv_batch_us_per_row.{family}.n{n}"] = (t / n * 1e6, "us/row")

    M = _contractions(rng, 1, False)[0]
    _check("svd3", np.abs(np.array(pkg.svd3(M)) - np.linalg.svd(M, compute_uv=False)).max())
    out["bell.svd3_us"] = (_median_seconds(lambda: pkg.svd3(M), 2000 // scale) * 1e6, "us")

    state = pkg.from_schmidt(0.3)
    dirs = ref.unit_rows(rng, 4)
    settings = [(0.1, 0.6, dirs[0]), (-0.2, 0.7, dirs[1]), (0.0, 0.9, dirs[2]), (0.05, 0.5, dirs[3])]
    obs = [pkg.make_observable(b, s, d) for b, s, d in settings]
    alice, bob = pkg.MeasurementPair(obs[0], obs[1]), pkg.MeasurementPair(obs[2], obs[3])
    expected = ref.chsh(ref.theta(state.a, state.b, state.T), settings)
    _check("chsh_value", abs(pkg.chsh_value(state, alice, bob) - expected))
    out["bell.chsh_value_us"] = (
        _median_seconds(lambda: pkg.chsh_value(state, alice, bob), 5000 // scale) * 1e6, "us")
    return out
