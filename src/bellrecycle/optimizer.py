"""Boundary-curve optimization: maximise S*(A2,B2) at fixed S(A1,B1).

A self-contained differential-evolution engine (rand/1/bin, population 64,
differential weight 0.7, crossover 0.9, reflecting box constraints) drives
the search; the equality constraint |S(A1,B1)| = s enters through an
adaptive penalty that starts at 10 and doubles every 50 generations while
the incumbent is infeasible.  Four independent seeded restarts advance in
lockstep, one batched evaluation per generation, on nine tenths of the
budget.  Their bests are then finished, again in lockstep, by an SQP polish
in plain numpy, each restart on a quarter of the rest.  The polish works in
coordinates u with x = lo + (hi - lo) sin^2 u, which remove the box and
smooth S*'s square-root edge at unit strength.  Each step takes the
forward-difference gradients of every live restart in one evaluator call,
solves their KKT systems in one batched solve, runs SLSQP's line search on
the l1 merit (one evaluator call per round, and one second-order correction
of a rejected full step) and puts each accepted point back on the
constraint with one restoration row; a damped BFGS update then refines each
restart's Hessian.  A restart stops once its iterate has been
within 1e-12 of the target for five steps without S* gaining more than
1e-13, or before a call would overrun its share.  The best point within
1e-12 of the target wins (the best feasible one if there is none), and
`evaluations` never exceeds the budget.  Identical (mode, s, budget, seed)
inputs give bit-identical results.

Each search mode is one `SearchMode` declaration: its tag, its box bounds
and its decoder, which maps a parameter block to the state and settings it
encodes in the kernel's component-major layout (directions (4, 3, n),
correlation matrices (3, 3, n)).  The batch evaluator passes them to
`bell.sequential_chsh_batch`, `decode_params` builds the scalar scenario
from column 0 and `boundary_point` searches the box.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
# The package uses nothing from scipy.  This import's only reason is that
# perfbench/worker.py reads scipy's version from `sys.modules` before any
# workload runs; without it every benchmark run fails with KeyError: 'scipy'.
# scipy's top-level package loads no submodule, so it costs little.
import scipy

from .bell import S_MAX, MeasurementPair, schmidt_tensors, sequential_chsh_batch
from .errors import BudgetTooSmall, DomainError, LengthMismatch
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
# the polish gets budget // _POLISH_PART of the evaluations, DE the rest
_POLISH_PART = 10
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


def _rows(X: np.ndarray) -> np.ndarray:
    """The columns of an (n, k) parameter block as contiguous (k, n) rows."""
    return np.ascontiguousarray(X.T)


def _sph(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(k, 3, n) unit vectors from (k, n) polar angles and azimuths."""
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)


def _planar(angle: np.ndarray) -> np.ndarray:
    """(k, 3, n) unit vectors in the x-y plane from (k, n) azimuths."""
    return np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)


def _strengths(P: np.ndarray) -> np.ndarray:
    """(4, n) unbiased strengths from the block's first four columns."""
    return np.clip(_rows(P[:, :4]), 0.0, 1.0)


def _unbiased_geometry(P: np.ndarray):
    return _strengths(P), None, _sph(_rows(P[:, 4::2]), _rows(P[:, 5::2]))


def _biased_geometry(P: np.ndarray):
    r = np.clip(_rows(P[:, 0::4]), 0.0, 1.0)
    alpha = _rows(P[:, 1::4]) * np.arcsin(r)
    s = np.sqrt(np.clip(1 - r * r, 0, 1)) * np.cos(alpha)
    biases = r * np.sin(alpha)
    return s, biases, _sph(_rows(P[:, 2::4]), _rows(P[:, 3::4]))


def _region2_geometry(P: np.ndarray, T: np.ndarray):
    """The ansatz settings, with x' the better of its two admissible choices.

    x' is (1, 0, 0) unless (sin 2theta, cos 2theta, 0) gives a strictly
    larger S2* at that row.
    """
    n = P.shape[0]
    rows = _rows(P)
    s = np.clip(rows[[0, 1, 2, 2]], 0, 1)
    theta = rows[3]
    zero, one = np.zeros(n), np.ones(n)
    sin, cos = np.sin(theta), np.cos(theta)
    dirs = np.stack([
        np.stack([zero, one, zero]),
        np.stack([one, zero, zero]),
        np.stack([sin, cos, zero]),
        np.stack([-sin, cos, zero]),
    ])
    xp_b = np.stack([np.sin(2 * theta), np.cos(2 * theta), zero])
    # both choices in one kernel call: rows :n take x' = (1, 0, 0), rows n: take xp_b
    both = np.concatenate([dirs, dirs], axis=2)
    both[1, :, n:] = xp_b
    _, ss = sequential_chsh_batch(np.concatenate([T, T], axis=2), np.tile(s, 2), both)
    dirs[1] = np.where(ss[n:] > ss[:n], xp_b, dirs[1])
    return s, None, dirs


def _singlet(n: int):
    """a, b and T of n singlet rows; T is -I broadcast without a copy."""
    a = b = np.zeros((3, n))
    return a, b, np.broadcast_to(-np.eye(3)[:, :, None], (3, 3, n))


def _decode_general_biased(P: np.ndarray):
    return (*schmidt_tensors(P[:, -1]), *_biased_geometry(P[:, :-1]))


def _decode_unbiased(P: np.ndarray):
    return (*schmidt_tensors(P[:, -1]), *_unbiased_geometry(P[:, :-1]))


def _decode_unbiased_singlet(P: np.ndarray):
    return (*_singlet(P.shape[0]), *_unbiased_geometry(P))


def _decode_equatorial(P: np.ndarray):
    return (*_singlet(P.shape[0]), _strengths(P), None, _planar(_rows(P[:, 4:8])))


def _decode_region2(P: np.ndarray):
    a, b, T = _singlet(P.shape[0])
    return (a, b, T, *_region2_geometry(P, T))


@dataclass(frozen=True)
class SearchMode:
    """One parameter chart of the search space: its box bounds and decoder.

    `decoder` maps an (n, d) parameter block to (a, b, T, s, biases, dirs),
    component-major as `bell.sequential_chsh_batch` takes them: a and b are
    (3, n), T is (3, 3, n), s and biases are (4, n) over the settings x, x',
    y, y' (biases is None in the unbiased charts) and dirs their directions,
    (4, 3, n).  Decoders are module-level functions, so a mode pickles.
    """

    tag: str
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    decoder: Callable[[np.ndarray], tuple]

    @property
    def n_params(self) -> int:
        return len(self.lo)

    def decode(self, P: np.ndarray):
        """The decoder's output for an (n, d) block with d = n_params."""
        if P.shape[1] != self.n_params:
            raise LengthMismatch(f"{self.tag} expects {self.n_params} parameters, "
                                 f"got {P.shape[1]}")
        return self.decoder(P)


_PI, _TWOPI = math.pi, 2.0 * math.pi

# unbiased charts: four strengths, then (theta, phi) per setting (phi alone on
# the equator); biased: (r, alpha / arcsin r, theta, phi) per setting; the
# Schmidt angle last; the ansatz: strengths of x, x' and both y, then theta
GENERAL_BIASED = SearchMode("general-biased", (0.0, -1.0, 0.0, 0.0) * 4 + (0.0,),
                            (1.0, 1.0, _PI, _TWOPI) * 4 + (_PI / 4,), _decode_general_biased)
UNBIASED = SearchMode("unbiased", (0.0,) * 13,
                      (1.0,) * 4 + (_PI, _TWOPI) * 4 + (_PI / 4,), _decode_unbiased)
UNBIASED_SINGLET = SearchMode("unbiased-singlet", (0.0,) * 12,
                              (1.0,) * 4 + (_PI, _TWOPI) * 4, _decode_unbiased_singlet)
UNBIASED_SINGLET_EQUATORIAL = SearchMode("unbiased-singlet-equatorial", (0.0,) * 8,
                                         (1.0,) * 4 + (_TWOPI,) * 4, _decode_equatorial)
REGION2_ANSATZ = SearchMode("region2-ansatz", (0.0,) * 4,
                            (1.0, 1.0, 1.0, _PI / 2), _decode_region2)

_MODES = {m.tag: m for m in (GENERAL_BIASED, UNBIASED, UNBIASED_SINGLET,
                              UNBIASED_SINGLET_EQUATORIAL, REGION2_ANSATZ)}


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


class _CountingEvaluator:
    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, P):
        P = np.atleast_2d(P)
        self.count += P.shape[0]
        return self.fn(P)


def _trial(X, lo, hi, rng):
    """One rand/1/bin trial population with reflecting bounds."""
    pop, d = X.shape
    r = rng.integers(0, pop, size=(3, pop))
    mutant = X[r[0]] + _WEIGHT * (X[r[1]] - X[r[2]])
    mutant = np.where(mutant < lo, 2 * lo - mutant, mutant)
    mutant = np.where(mutant > hi, 2 * hi - mutant, mutant)
    mutant = np.clip(mutant, lo, hi)
    cross = rng.random((pop, d)) < _CROSSOVER
    cross[np.arange(pop), rng.integers(0, d, pop)] = True
    return np.where(cross, mutant, X)


def _de_lockstep(evaluator, lo, hi, target, budget, rngs):
    """Best point of each DE restart; one restart per generator.

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
    while used + pop <= budget:
        gen += 1
        trial = np.stack([_trial(X[i], lo, hi, rng) for i, rng in enumerate(rngs)])
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
    return X[np.arange(k), np.argmax(fit, axis=1)]


def _gradients(evaluator, X, hi, F=None):
    """(S1, S2*) values and forward-difference gradients at the rows of X.

    X is a (k, d) block.  One evaluator call takes every row's d stencil
    points, each stepped by `_FD_STEP` and inward at `hi`, and the rows
    themselves unless their (k, 2) values F are given.  Returns F and the
    (k, 2, d) gradients of S1 and S2*.
    """
    k, d = X.shape
    step = np.where(X + _FD_STEP > hi, -_FD_STEP, _FD_STEP)
    rows = (X[:, None, :] + np.eye(d) * step[:, None, :]).reshape(k * d, d)
    if F is None:
        rows = np.concatenate([X, rows])
    values = np.stack(evaluator(rows), axis=-1)
    if F is None:
        F, values = values[:k], values[k:]
    G = (values.reshape(k, d, 2) - F[:, None, :]) / ((X + step) - X)[:, :, None]
    return F, G.transpose(0, 2, 1)


def _dot(u, v):
    """Row-wise inner products of two (k, d) blocks."""
    return (u * v).sum(axis=1)


def _polish(evaluator, X0, lo, hi, target, allowance):
    """SQP refinement of every row of X0 on |S1| = target, in lockstep.

    The restarts move in coordinates u with x = lo + (hi - lo) sin^2 u: the
    box is gone, and S2*'s square-root edge at unit strength is smooth.  The
    BFGS model starts as the identity in x.  Each step is one evaluator call
    for the gradients of every live restart, one KKT solve for all of them,
    a line search of one call per round and one restoration row per restart.
    A restart stops at S*'s rounding floor (see `_FLOOR_ITERATIONS`), when
    its line search cannot move, or before a call would take it past
    `allowance` evaluations.  Rows do not interact, so a restart's result
    does not depend on the others.

    Returns [(x, S1, S2*)] for every start and, for every restart, its best
    iterate within `_FLOOR_MISS` of the target, or its last iterate if none.
    """
    k, d = X0.shape
    width = hi - lo

    def box(U):
        return lo + width * np.sin(U) ** 2

    def dxdu(U):
        return width * np.sin(2.0 * U)

    F, G = _gradients(evaluator, X0, hi)
    spent = np.full(k, d + 1)
    candidates = [(x, *f) for x, f in zip(X0, F.tolist())]
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
        _, G[m] = _gradients(evaluator, X[m], hi, F[m])
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
    return candidates + [(x, *f) for x, f in zip(X, F.tolist())]


def _check_target(s: float) -> None:
    if not 0.0 <= s <= S_MAX + 1e-12:
        raise DomainError(f"target {s} outside [0, 2*sqrt(2)]")


def boundary_point(
    s: float,
    mode: SearchMode = UNBIASED_SINGLET,
    budget: int = 200_000,
    seed: int = 0,
) -> BoundaryPoint:
    """Best found S2* subject to |S(A1,B1)| = s.

    Nine tenths of the budget go to four independent restarts, run in
    lockstep; every restart's best is then refined by the lockstep SQP
    polish on a quarter of what DE left, so `evaluations` never exceeds
    `budget`.  Among the starts and the polished points, the best one within
    1e-12 of s wins; without one, the best within 1e-4, else the nearest.
    Results are deterministic in (mode, s, budget, seed).
    """
    _check_target(s)
    if budget < _MIN_BUDGET:
        raise BudgetTooSmall(f"budget {budget} below minimum {_MIN_BUDGET}")
    evaluator = _CountingEvaluator(make_batch_evaluator(mode))
    lo, hi = np.array(mode.lo), np.array(mode.hi)
    rngs = [np.random.default_rng(stream)
            for stream in np.random.SeedSequence(seed).spawn(_RESTARTS)]
    de_budget = budget - budget // _POLISH_PART
    starts = _de_lockstep(evaluator, lo, hi, s, de_budget // _RESTARTS, rngs)
    candidates = _polish(evaluator, starts, lo, hi, s, (budget - evaluator.count) // _RESTARTS)

    best = None
    for x, s1, sstar in candidates:
        achieved = abs(s1)
        miss = abs(achieved - s)
        feasible = miss <= _FEASIBILITY_TOL
        # a point on the constraint beats any merely feasible one, whose
        # miss may buy it S* above the optimum
        key = (miss <= _FLOOR_MISS, feasible, sstar if feasible else -miss)
        if best is None or key > best[0]:
            best = (key, x, achieved, sstar)
    _, x, achieved, sstar = best
    return BoundaryPoint(
        target_s=float(s),
        achieved_s=achieved,
        s_star=sstar,
        params=tuple(float(v) for v in x),
        evaluations=evaluator.count,
        seed=seed,
    )


def _point_task(args):
    return boundary_point(*args)


def boundary_curve(
    grid,
    mode: SearchMode = UNBIASED_SINGLET,
    budget: int = 200_000,
    seed: int = 0,
    workers: int = 1,
) -> list[BoundaryPoint]:
    """One optimised BoundaryPoint per grid value, in grid order.

    Points are independent; with workers > 1 they run in separate processes.
    Each point uses the same base seed, so a sub-grid rerun reproduces the
    matching rows byte for byte.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise DomainError("empty grid")
    for g in grid:
        _check_target(g)
    tasks = [(g, mode, budget, seed) for g in grid]
    if workers and workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_point_task, tasks))
    return [_point_task(t) for t in tasks]
