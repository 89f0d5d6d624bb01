"""Boundary-curve optimization: maximise S*(A2,B2) at fixed S(A1,B1).

A self-contained differential-evolution engine (rand/1/bin, population 64,
differential weight 0.7, crossover 0.9, reflecting box constraints) drives
the search; the equality constraint |S(A1,B1)| = s enters through an
adaptive penalty that starts at 10 and doubles every 50 generations while
the incumbent is infeasible.  Four independent seeded restarts advance in
lockstep, one batched evaluation per generation, and an SQP polish in plain
numpy refines their bests, again in lockstep, from the (S1, S*) values DE
found for them; `boundary_point` states how the budget is split between
them, when the search stops and which point wins.

The polish works in coordinates u with x = lo + (hi - lo) sin^2 u, which
remove the box and smooth S*'s square-root edge at unit strength.  Each
step takes the forward-difference gradients of every live restart in one
evaluator call, solves their KKT systems in one batched solve, runs SLSQP's
line search on the l1 merit (one evaluator call per round, and one
second-order correction of a rejected full step) and puts each accepted
point back on the constraint with one restoration row; a damped BFGS update
then refines each restart's Hessian.  A restart stops once its iterate has
been within 1e-12 of the target for five steps without S* gaining more than
1e-13, or before a call would overrun its share.  Identical (mode, s,
budget, seed) inputs give bit-identical results.

Each search mode is one `SearchMode` declaration: its tag, its box bounds,
its state family and its settings chart, which map a parameter block to the
states and settings it encodes in the kernel's component-major layout
(directions (4, 3, n), correlation matrices (3, 3, n)).  The batch
evaluator passes them to `bell.sequential_chsh_batch`, `decode_params`
builds the scalar scenario from column 0 and `boundary_point` searches the
box.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np
# The package uses nothing from scipy.  This import's only reason is that
# perfbench/worker.py reads scipy's version from `sys.modules` before any
# workload runs; without it every benchmark run fails with KeyError: 'scipy'.
# scipy's top-level package loads no submodule, so it costs little.
import scipy

from .bell import S_MAX, MeasurementPair, schmidt_tensors, sequential_chsh_batch
from .errors import BudgetTooSmall, DomainError, LengthMismatch, _check_integer, check_seed
from .instruments import SQUARE_ROOT
from .monogamy import ScenarioConfig
from .observables import make_observable
from .states import make_state

_POPULATION = 64
_WEIGHT = 0.7
_CROSSOVER = 0.9
_RESTARTS = 4
_PENALTY_START = 10.0
_PENALTY_PERIOD = 50
_FEASIBILITY_TOL = 1e-4
_MIN_BUDGET = 10_000
# the last polish keeps budget // _POLISH_PART of the evaluations; the rest,
# DE's share, pays for DE and for every stage's polish
_POLISH_PART = 10
# DE grows in stages of _STAGES rows per restart, each run if it and
# _STAGE_POLISH rows for its polish and each earlier one fit in DE's share;
# after each, every restart's best is polished on those rows, and the search
# stops once two polished restarts are within _FLOOR_MISS of the target and
# within _AGREEMENT of each other in S*.
_STAGES = (2_560, 10_240)
_STAGE_POLISH = 1_000
_AGREEMENT = 1e-10
# the forward-difference step, sqrt(machine epsilon)
_FD_STEP = math.sqrt(np.finfo(float).eps)
# a polish stops after _FLOOR_ITERATIONS feasible iterates (|S1| within
# _FLOOR_MISS of the target) without S* gaining more than _FLOOR_GAIN:
# S*'s rounding floor is ~6e-16, and the iterates would wander there
_FLOOR_ITERATIONS = 5
_FLOOR_MISS = 1e-12
_FLOOR_GAIN = 1e-13
# SLSQP's line search: ten rounds, and an eleventh trial taken regardless
_LINE_SEARCH_ROUNDS = 11


@dataclass(frozen=True)
class BoundaryPoint:
    """One optimised point of the tradeoff boundary."""

    target_s: float
    achieved_s: float
    s_star: float
    params: tuple[float, ...]
    evaluations: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def _sph(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(k, 3, n) unit vectors from (k, n) polar angles and azimuths."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def _unbiased_geometry(Q: np.ndarray):
    return np.clip(Q[:4], 0.0, 1.0), None, _sph(Q[4::2], Q[5::2])


def _biased_geometry(Q: np.ndarray):
    r = np.clip(Q[0::4], 0.0, 1.0)
    alpha = Q[1::4] * np.arcsin(r)
    s = np.sqrt(np.clip((1 - r) * (1 + r), 0, 1)) * np.cos(alpha)
    biases = r * np.sin(alpha)
    return s, biases, _sph(Q[2::4], Q[3::4])


def _region2_geometry(Q: np.ndarray):
    """The ansatz settings in the x-y plane: x = (0, 1, 0), x' = (1, 0, 0),
    y = (sin theta, cos theta, 0) and y' = (-sin theta, cos theta, 0).

    The strengths of x and x' are free and y, y' share one, so the chart has
    four parameters.  With x' fixed the ansatz still reaches the best S2*
    any chart has found from 2.05 to 2.75 (`test_region2_ansatz_optimum`).
    """
    theta = Q[3]
    zero, one = np.zeros_like(theta), np.ones_like(theta)
    sin, cos = np.sin(theta), np.cos(theta)
    dirs = np.stack([
        np.stack([zero, one, zero]),
        np.stack([one, zero, zero]),
        np.stack([sin, cos, zero]),
        np.stack([-sin, cos, zero]),
    ])
    return np.clip(Q[[0, 1, 2, 2]], 0, 1), None, dirs


def _schmidt(Q: np.ndarray):
    """Schmidt states at the angles of the block's last row; the rows before it."""
    return (*schmidt_tensors(Q[-1]), Q[:-1])


def _singlet(Q: np.ndarray):
    """A singlet per column, T = -I broadcast without a copy; every row."""
    a = b = np.zeros((3, Q.shape[1]))
    return a, b, np.broadcast_to(-np.eye(3)[:, :, None], (3, 3, Q.shape[1])), Q


@dataclass(frozen=True)
class SearchMode:
    """One parameter chart of the search space: box bounds, state family, settings chart.

    `state` maps a (d, n) parameter block, one contiguous row per parameter,
    to (a, b, T, rows), and `settings` the rows it leaves to (s, biases,
    dirs), component-major as `sequential_chsh_batch` takes them: a and b
    are (3, n), T is (3, 3, n), s and biases are (4, n) over the settings
    x, x', y, y' (biases is None in the unbiased charts) and dirs their
    directions, (4, 3, n).  Both are module-level functions, so a mode pickles.
    """

    tag: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    state: Callable[[np.ndarray], tuple]
    settings: Callable[[np.ndarray], tuple]

    @property
    def n_params(self) -> int:
        return len(self.lo)

    def decode(self, P: np.ndarray):
        """(a, b, T, s, biases, dirs) of an (n, d) block, d = n_params, read as (d, n) rows."""
        if P.shape[1] != self.n_params:
            raise LengthMismatch(f"{self.tag} expects {self.n_params} parameters, "
                                 f"got {P.shape[1]}")
        a, b, T, rows = self.state(np.ascontiguousarray(P.T))
        return a, b, T, *self.settings(rows)


_PI, _TWOPI = math.pi, 2.0 * math.pi

# unbiased charts: four strengths, then (theta, phi) per setting; biased:
# (r, alpha / arcsin r, theta, phi) per setting; the Schmidt angle last; the
# ansatz: strengths of x, x' and both y, then theta
GENERAL_BIASED = SearchMode("general-biased", (0.0, -1.0, 0.0, 0.0) * 4 + (0.0,),
                            (1.0, 1.0, _PI, _TWOPI) * 4 + (_PI / 4,), _schmidt,
                            _biased_geometry)
UNBIASED = SearchMode("unbiased", (0.0,) * 13, (1.0,) * 4 + (_PI, _TWOPI) * 4 + (_PI / 4,),
                      _schmidt, _unbiased_geometry)
UNBIASED_SINGLET = SearchMode("unbiased-singlet", (0.0,) * 12, (1.0,) * 4 + (_PI, _TWOPI) * 4,
                              _singlet, _unbiased_geometry)
REGION2_ANSATZ = SearchMode("region2-ansatz", (0.0,) * 4, (1.0, 1.0, 1.0, _PI / 2), _singlet,
                            _region2_geometry)

_MODES = {m.tag: m for m in (GENERAL_BIASED, UNBIASED, UNBIASED_SINGLET, REGION2_ANSATZ)}


def search_mode(tag: str) -> SearchMode:
    try:
        return _MODES[tag]
    except KeyError:
        raise DomainError(f"unknown search mode {tag!r}") from None


def make_batch_evaluator(mode: SearchMode) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Vectorised map from a (n, d) parameter block to (S1, S2*) arrays.

    S1 is signed; callers compare |S1| against the target.
    """

    def evaluate(P: np.ndarray):
        a, b, T, s, biases, dirs = mode.decode(np.atleast_2d(np.asarray(P, dtype=float)))
        return sequential_chsh_batch(T, s, dirs, biases, a, b)

    return evaluate


def decode_params(mode: SearchMode, params) -> ScenarioConfig:
    """Map a flat parameter vector to the scenario it encodes."""
    a, b, T, s, biases, dirs = mode.decode(np.asarray(params, dtype=float).reshape(1, -1))
    if biases is None:
        biases = np.zeros((4, 1))
    observables = [
        make_observable(float(biases[i, 0]), float(s[i, 0]), dirs[i][:, 0])
        for i in range(4)
    ]
    return ScenarioConfig(
        state=make_state(a[:, 0], b[:, 0], T[:, :, 0], check=False),
        alice=MeasurementPair(observables[0], observables[1]),
        bob=MeasurementPair(observables[2], observables[3]),
        kind=SQUARE_ROOT,
    )


def _trials(X, lo, hi, rngs):
    """One rand/1/bin trial population per restart, with reflecting bounds.

    X is the (k, pop, d) stack of populations.  Generator i makes restart
    i's draws in a lone restart's order (donor indices, crossover uniforms,
    forced crossover positions); the arithmetic then runs once over the stack.
    """
    k, pop, d = X.shape
    r = np.empty((k, 3, pop), dtype=np.int64)
    u = np.empty((k, pop, d))
    forced = np.empty((k, pop), dtype=np.int64)
    for i, rng in enumerate(rngs):
        r[i] = rng.integers(0, pop, size=(3, pop))
        rng.random(out=u[i])
        forced[i] = rng.integers(0, d, pop)
    rows = np.arange(k)[:, None]
    mutant = X[rows, r[:, 0]] + _WEIGHT * (X[rows, r[:, 1]] - X[rows, r[:, 2]])
    mutant = np.where(mutant < lo, 2 * lo - mutant, mutant)
    mutant = np.where(mutant > hi, 2 * hi - mutant, mutant)
    mutant = np.clip(mutant, lo, hi)
    cross = u < _CROSSOVER
    cross[rows, np.arange(pop), forced] = True
    return np.where(cross, mutant, X)


def _de_lockstep(evaluator, lo, hi, target, stops, rngs):
    """Best point of each DE restart at each stop; one restart per generator.

    `stops` are increasing row counts per restart.  At each the search yields
    the (k, d) best points, their (k, 2) values (S1, S2*) and the rows each
    restart has evaluated, once the next generation would pass the stop.
    The populations, penalty weights, generation count and generators carry
    over from stop to stop, so no row is evaluated twice and a yield does
    not depend on the stops before it.

    The restarts advance in lockstep, so every generation is one evaluator
    call over all of their trial populations.  Each restart keeps its own
    generator, draw order and penalty weight, and rows do not interact, so
    the result equals running the restarts one after another.
    """
    k, pop, d = len(rngs), _POPULATION, lo.shape[0]

    def evaluate(X):
        s1, ss = evaluator(X.reshape(k * pop, d))
        return s1.reshape(k, pop), ss.reshape(k, pop)

    def fitness(s1, ss, lam):
        return ss - lam * np.abs(np.abs(s1) - target)

    X = np.stack([lo + rng.random((pop, d)) * (hi - lo) for rng in rngs])
    s1, ss = evaluate(X)
    lam = np.full((k, 1), _PENALTY_START)
    fit = fitness(s1, ss, lam)
    gen = 0
    used = pop
    for stop in stops:
        while used + pop <= stop:
            gen += 1
            trial = _trials(X, lo, hi, rngs)
            t1, tss = evaluate(trial)
            used += pop
            improved = fitness(t1, tss, lam) >= fit
            X[improved] = trial[improved]
            s1[improved] = t1[improved]
            ss[improved] = tss[improved]
            if gen % _PENALTY_PERIOD == 0:
                best = np.argmax(fitness(s1, ss, lam), axis=1)
                miss = np.abs(np.abs(s1[np.arange(k), best]) - target)[:, None]
                lam = np.where((miss > _FEASIBILITY_TOL) & (lam < 1e12), 2.0 * lam, lam)
            fit = fitness(s1, ss, lam)
        rows, best = np.arange(k), np.argmax(fit, axis=1)
        yield X[rows, best], np.stack([s1[rows, best], ss[rows, best]], axis=1), used


def _gradients(evaluator, X, F, hi):
    """Forward-difference gradients of (S1, S2*) at the rows of X.

    X is a (k, d) block and F its (k, 2) values.  One evaluator call takes
    every row's d stencil points, each stepped by `_FD_STEP` and inward at
    `hi`.  Returns the (k, 2, d) gradients of S1 and S2*.
    """
    k, d = X.shape
    step = np.where(X + _FD_STEP > hi, -_FD_STEP, _FD_STEP)
    rows = (X[:, None, :] + np.eye(d) * step[:, None, :]).reshape(k * d, d)
    values = np.stack(evaluator(rows), axis=-1)
    G = (values.reshape(k, d, 2) - F[:, None, :]) / ((X + step) - X)[:, :, None]
    return G.transpose(0, 2, 1)


def _dot(u, v):
    """Row-wise inner products of two (k, d) blocks."""
    return (u * v).sum(axis=1)


def _polish(evaluator, X0, F0, lo, hi, target, allowance):
    """SQP refinement of every row of X0, with values F0, on |S1| = target.

    The restarts move in coordinates u with x = lo + (hi - lo) sin^2 u: the
    box is gone, and S2*'s square-root edge at unit strength is smooth.  The
    BFGS model starts as the identity in x.  Each step is one evaluator call
    for the gradients of every live restart, one KKT solve for all of them,
    a line search of one call per round and one restoration row per restart.
    A restart stops at S*'s rounding floor (see `_FLOOR_ITERATIONS`), when
    its line search cannot move, or before a call would take it past
    `allowance` evaluations.  Rows do not interact, so a restart's result
    does not depend on the others.

    Returns [(x, S1, S2*)], one per restart: its best iterate within
    `_FLOOR_MISS` of the target, or its last iterate if none; then the rows
    the polish evaluated.
    """
    k, d = X0.shape
    width = hi - lo

    def box(U):
        return lo + width * np.sin(U) ** 2

    def dxdu(U):
        return width * np.sin(2.0 * U)

    G = _gradients(evaluator, X0, F0, hi)
    spent = np.full(k, d)
    F = F0.copy()
    goal = np.where((F[:, 0] >= 0.0) | (target == 0.0), target, -target)
    X, U = X0.copy(), np.arcsin(np.sqrt((X0 - lo) / width))
    G *= dxdu(U)[:, None, :]
    B = np.eye(d) * (dxdu(U) ** 2)[:, None, :]
    nu = np.zeros(k)
    best = np.full(k, -math.inf)
    stalled = np.zeros(k, dtype=int)
    kept_x, kept_f = X0.copy(), F.copy()
    kept = np.zeros(k, dtype=bool)
    live = np.ones(k, dtype=bool)

    while live.any():
        i = np.flatnonzero(live)
        u, x, f, g, n = U[i], X[i], F[i], G[i], i.size
        c = f[:, 0] - goal[i]
        a, grad = g[:, 0], -g[:, 1]
        # the equality-constrained QP step of every restart in one solve
        K = np.zeros((n, d + 1, d + 1))
        K[:, :d, :d] = B[i]
        K[:, :d, d] = K[:, d, :d] = a
        rhs = np.concatenate([-grad, -c[:, None]], axis=1)
        sol = np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
        p, mu = sol[:, :d], sol[:, d]
        nu[i] = np.maximum(np.abs(mu), 0.5 * (nu[i] + np.abs(mu)))
        merit = -f[:, 1] + nu[i] * np.abs(c)
        descent = _dot(grad, p) - nu[i] * np.abs(c)

        # SLSQP's line search on the l1 merit, one evaluator call per round:
        # accept at a tenth of the predicted decrease; after the full step's
        # first rejection try it once with a second-order correction (a
        # Newton step on the constraint at the trial's miss), then shrink
        # the step by the quadratic interpolant's factor (at least 0.1); take
        # the last round's trial regardless
        aa = _dot(a, a)
        alpha = np.ones(n)
        new_u, new_x, new_f = u.copy(), x.copy(), f.copy()
        moved = np.zeros(n, dtype=bool)
        corrected = np.zeros(n, dtype=bool)
        pending = np.flatnonzero(descent < 0.0)
        tu = u[pending] + p[pending]
        for last in range(_LINE_SEARCH_ROUNDS, 0, -1):
            trial = box(tu)
            keep = (trial != x[pending]).any(axis=1) & (spent[i[pending]] < allowance)
            pending, tu, trial = pending[keep], tu[keep], trial[keep]
            if not pending.size:
                break
            s1, ss = evaluator(trial)
            spent[i[pending]] += 1
            miss = s1 - goal[i[pending]]
            drop = -ss + nu[i[pending]] * np.abs(miss) - merit[pending]
            predicted = alpha[pending] * descent[pending]
            ok = (drop <= 0.1 * predicted) | (last == 1)
            j = pending[ok]
            new_u[j], new_x[j], moved[j] = tu[ok], trial[ok], True
            new_f[j, 0], new_f[j, 1] = s1[ok], ss[ok]
            pending, drop, predicted, miss = pending[~ok], drop[~ok], predicted[~ok], miss[~ok]
            soc = ~corrected[pending]
            corrected[pending] = True
            back = pending[~soc]
            alpha[back] *= np.maximum(predicted[~soc] / (2.0 * (predicted[~soc] - drop[~soc])), 0.1)
            tu = u[pending] + alpha[pending, None] * p[pending]
            tu[soc] -= a[pending[soc]] * (miss[soc] / aa[pending[soc]])[:, None]
        live[i[~moved]] = False

        # one restoration row per restart: a Newton step on the constraint
        # along its gradient, kept if it lowers the miss
        c = new_f[:, 0] - goal[i]
        fix = np.flatnonzero(moved & (np.abs(c) > _FLOOR_MISS) & (spent[i] < allowance))
        tu = new_u[fix] - a[fix] * (c[fix] / aa[fix])[:, None]
        trial = box(tu)
        keep = (trial != new_x[fix]).any(axis=1)
        fix, tu, trial = fix[keep], tu[keep], trial[keep]
        if fix.size:
            s1, ss = evaluator(trial)
            spent[i[fix]] += 1
            ok = np.abs(s1 - goal[i[fix]]) < np.abs(c[fix])
            j = fix[ok]
            new_u[j], new_x[j], new_f[j, 0], new_f[j, 1] = tu[ok], trial[ok], s1[ok], ss[ok]
        U[i], X[i], F[i] = new_u, new_x, new_f

        # S*'s rounding floor, see _FLOOR_ITERATIONS; the best iterate on the
        # constraint is kept
        feasible = np.abs(np.abs(new_f[:, 0]) - target) <= _FLOOR_MISS
        gain = feasible & (new_f[:, 1] > best[i] + _FLOOR_GAIN)
        stalled[i] = np.where(feasible & ~gain, stalled[i] + 1, 0)
        best[i] = np.where(gain, new_f[:, 1], np.where(feasible, best[i], -math.inf))
        live[i[stalled[i] == _FLOOR_ITERATIONS]] = False
        better = feasible & (~kept[i] | (new_f[:, 1] > kept_f[i, 1]))
        j = i[better]
        kept_x[j], kept_f[j], kept[j] = new_x[better], new_f[better], True

        # gradients at the new iterates, then a damped BFGS update of the
        # Lagrangian's Hessian
        live &= spent + d <= allowance
        m = np.flatnonzero(live)
        if not m.size:
            break
        old = np.searchsorted(i, m)
        G[m] = _gradients(evaluator, X[m], F[m], hi)
        spent[m] += d
        G[m] *= dxdu(U[m])[:, None, :]
        s = U[m] - u[old]
        y = g[old, 1] - G[m, 1] + mu[old, None] * (G[m, 0] - g[old, 0])
        Bs = (B[m] * s[:, None, :]).sum(axis=2)
        sBs, sy = _dot(s, Bs), _dot(s, y)
        # Powell's damping: theta is 1 unless sy < 0.2 sBs
        theta = 0.8 * sBs / np.maximum(sBs - sy, 0.8 * sBs)
        r = theta[:, None] * y + (1.0 - theta)[:, None] * Bs
        B[m] += (r[:, :, None] * r[:, None, :] / _dot(s, r)[:, None, None]
                 - Bs[:, :, None] * Bs[:, None, :] / sBs[:, None, None])
    X, F = np.where(kept[:, None], kept_x, X), np.where(kept[:, None], kept_f, F)
    return [(x, *f) for x, f in zip(X, F.tolist())], int(spent.sum())


def _agree(polished, target: float) -> bool:
    """Whether two polished restarts lie within `_FLOOR_MISS` of the target
    and within `_AGREEMENT` of each other in S*."""
    sstar = sorted(ss for _, s1, ss in polished if abs(abs(s1) - target) <= _FLOOR_MISS)
    return any(b - a <= _AGREEMENT for a, b in zip(sstar, sstar[1:]))


def _check_target(s: float) -> None:
    if not 0.0 <= s <= S_MAX + 1e-12:
        raise DomainError(f"target {s} outside [0, 2*sqrt(2)]")


def _check_budget(budget: int) -> None:
    if not -math.inf < budget < math.inf:
        raise DomainError(f"budget must be finite, got {budget}")
    if budget < _MIN_BUDGET:
        raise BudgetTooSmall(f"budget {budget} below minimum {_MIN_BUDGET}")


def boundary_point(
    s: float,
    mode: SearchMode = UNBIASED_SINGLET,
    budget: int = 200_000,
    seed: int = 0,
) -> BoundaryPoint:
    """Best found S2* subject to |S(A1,B1)| = s.

    `budget` is a ceiling on `evaluations`: four times a restart's DE rows
    plus every polish's rows; easy targets stop far below it.  The last
    polish keeps a tenth of it, and the rest, DE's share, pays for four
    independent DE restarts run in lockstep and for every stage's polish.
    DE stops first at 2,560 rows per restart, then at 10,240, where that
    stop and 1,000 rows for its polish and each earlier one fit in a
    restart's share (from budget 15,822 and 54,399 on): the lockstep SQP
    polish refines every restart's best on those rows, and the search ends
    there if two polished restarts are within 1e-12 of s and within 1e-10
    of each other in S*.  Otherwise DE resumes where it stopped and runs to
    its share less those reservations, and each restart's polish gets a
    quarter of what is left; a run that would add no generation is dropped,
    and the last stage's polish gets it.  The winner is the best of every
    stage's DE bests and polished points: the best within 1e-12 of s;
    without one, the best within 1e-4, else the nearest.
    Results are deterministic in (mode, s, budget, seed).
    """
    _check_target(s)
    _check_budget(budget)
    seed = check_seed(seed)
    evaluator = make_batch_evaluator(mode)
    lo, hi = np.array(mode.lo), np.array(mode.hi)
    rngs = [np.random.default_rng(stream)
            for stream in np.random.SeedSequence(seed).spawn(_RESTARTS)]
    de_budget = (budget - budget // _POLISH_PART) // _RESTARTS
    early = [rows for i, rows in enumerate(_STAGES, 1) if rows + i * _STAGE_POLISH <= de_budget]
    stops = [*early, de_budget - len(early) * _STAGE_POLISH]
    # a last stop short of one more generation would only repeat its stage
    if early and stops[-1] < early[-1] + _POPULATION:
        stops.pop()
    stages = _de_lockstep(evaluator, lo, hi, s, stops, rngs)
    pool, polish_rows = [], 0
    for stage, (starts, values, used) in enumerate(stages):
        # the polish of DE's last stop gets what is left of the budget
        last = stage == len(stops) - 1
        allowance = ((budget - _RESTARTS * used - polish_rows) // _RESTARTS if last
                     else _STAGE_POLISH)
        polished, rows = _polish(evaluator, starts, values, lo, hi, s, allowance)
        polish_rows += rows
        pool += [(x, *f) for x, f in zip(starts, values.tolist())] + polished
        if last or _agree(polished, s):
            break

    def rank(point):
        _, s1, sstar = point
        miss = abs(abs(s1) - s)
        feasible = miss <= _FEASIBILITY_TOL
        # a point on the constraint beats any merely feasible one, whose
        # miss may buy it S* above the optimum
        return miss <= _FLOOR_MISS, feasible, sstar if feasible else -miss

    x, s1, sstar = max(pool, key=rank)
    return BoundaryPoint(
        target_s=float(s),
        achieved_s=abs(s1),
        s_star=sstar,
        params=tuple(float(v) for v in x),
        evaluations=_RESTARTS * used + polish_rows,
        seed=seed,
    )


def boundary_curve(
    grid,
    mode: SearchMode = UNBIASED_SINGLET,
    budget: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> list[BoundaryPoint]:
    """One optimised BoundaryPoint per grid value, in grid order.

    Points are independent and run in `_fan_out`'s blocks, in up to `workers`
    processes, this one included.  Each uses the same base seed, so a
    sub-grid rerun reproduces the matching rows byte for byte.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise DomainError("empty grid")
    for g in grid:
        _check_target(g)
    _check_budget(budget)
    seed = check_seed(seed)
    workers = _check_integer("workers", workers)
    if workers < 1:
        raise DomainError(f"workers must be at least 1, got {workers}")
    return _fan_out(partial(_points, mode=mode, budget=budget, seed=seed), grid, workers)


def _points(block, mode, budget, seed):
    """`boundary_point`, looked up as a module global when called, at each target of `block`.

    A pool pickles this function by name, so a wrapper bound to that name
    (a tracer's closure, say) need not pickle.
    """
    return [boundary_point(s, mode, budget, seed) for s in block]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count.

    A daemonic process (a `multiprocessing.Pool` worker) may not start
    children, so it gets one; one that never loaded multiprocessing is not.
    """
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fan_out(task, jobs, cap=None) -> list:
    """The results of `task` over a non-empty sequence of `jobs`, in job order.

    `task` maps a block, a slice of `jobs`, to one result per job.  Block k
    of w = min(usable CPUs, len(jobs), cap) holds jobs k, k + w, k + 2w, ...,
    so neighbouring jobs, which tend to cost alike, land in different blocks.
    Block 0 runs here and the others in a process pool opened for this call,
    which pickles `task`; with w = 1 no pool starts.
    """
    w = min(_usable_cpus(), len(jobs), len(jobs) if cap is None else cap)
    if w == 1:
        return task(jobs)
    with concurrent.futures.ProcessPoolExecutor(max_workers=w - 1) as pool:
        futures = [pool.submit(task, jobs[k::w]) for k in range(1, w)]
        done = [task(jobs[::w]), *(future.result() for future in futures)]
    results = [None] * len(jobs)
    for k, block in enumerate(done):
        results[k::w] = block
    return results
