"""Boundary-curve optimization: maximise S*(A2,B2) at fixed S(A1,B1).

A self-contained differential-evolution engine (rand/1/bin, population 64,
differential weight 0.7, crossover 0.9, reflecting box constraints) drives
the search; the equality constraint |S(A1,B1)| = s enters through an
adaptive penalty that starts at 10 and doubles every 50 generations while
the incumbent is infeasible.  Four independent seeded restarts advance in
lockstep, one batched evaluation per generation, on nine tenths of the
budget.  Each restart's best is then finished with an SLSQP polish of the
constrained problem on its share of the rest: every point is evaluated once,
each gradient (the point and its forward-difference rows) is one evaluator
call that serves the objective and the constraint, and a restart stops once
its iterate has been feasible for five iterations without S* gaining more
than 1e-13, or before a call would overrun its share.  The best feasible
point wins, and `evaluations` never exceeds the budget.  Identical (mode, s,
budget, seed) inputs give bit-identical results under the same BLAS thread
settings (the polish calls BLAS through scipy; everything before it does not
depend on them).

Each search mode is one `SearchMode` declaration: its tag, its box bounds
and its decoder, which maps a parameter block to the state and settings it
encodes in the kernel's component-major layout (directions (4, 3, n),
correlation matrices (3, 3, n)).  The batch evaluator passes them to
`bell.sequential_chsh_batch`, `decode_params` builds the scalar scenario
from column 0 and `boundary_point` searches the box.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize

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
# SLSQP's own default finite-difference step, sqrt(machine epsilon)
_FD_STEP = math.sqrt(np.finfo(float).eps)
# a polish stops after _FLOOR_ITERATIONS feasible iterates (|S1| within
# _FLOOR_MISS of the target) without S* gaining more than _FLOOR_GAIN:
# S*'s rounding floor is ~6e-16, and SLSQP's ftol alone lets it wander there
_FLOOR_ITERATIONS = 5
_FLOOR_MISS = 1e-12
_FLOOR_GAIN = 1e-13


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


class _Exhausted(Exception):
    """A polish's next evaluator call would overrun its share of the budget."""


class _PolishMemo:
    """(S1, S2*) and forward-difference gradients of the points a polish visits.

    Points are clipped into the box and keyed on their bytes, and every row
    is evaluated once.  A gradient is one evaluator call: the point itself,
    unless already known, and its d stencil rows, each stepped inward at
    `hi`.  A call that would take the rows evaluated past `allowance` raises
    `_Exhausted` instead.
    """

    def __init__(self, evaluator, lo, hi, allowance):
        self.evaluator, self.lo, self.hi = evaluator, lo, hi
        self.allowance = allowance
        self.rows = 0
        self.values = {}
        self.grads = {}

    def _fill(self, points) -> list[bytes]:
        """Evaluate the points' memo misses in one evaluator call; return their keys."""
        keys, new = [], {}
        for v in points:
            key = v.tobytes()
            keys.append(key)
            if key not in self.values:
                new[key] = v
        if new:
            if self.rows + len(new) > self.allowance:
                raise _Exhausted
            self.rows += len(new)
            s1, ss = self.evaluator(np.stack(list(new.values())))
            self.values.update(zip(new, zip(s1.tolist(), ss.tolist())))
        return keys

    def value(self, v) -> tuple[float, float]:
        return self.values[self._fill([np.clip(v, self.lo, self.hi)])[0]]

    def gradient(self, v) -> tuple[np.ndarray, np.ndarray]:
        """(dS1, dS2*) at v."""
        v = np.clip(v, self.lo, self.hi)
        key = v.tobytes()
        if key not in self.grads:
            stencil = v + np.diag(np.where(v + _FD_STEP > self.hi, -_FD_STEP, _FD_STEP))
            f = np.array([self.values[k] for k in self._fill([v, *stencil])])
            g = (f[1:] - f[0]) / (np.diagonal(stencil) - v)[:, None]
            self.grads[key] = (g[:, 0], g[:, 1])
        return self.grads[key]


def _slsqp_polish(evaluator, x0, lo, hi, target, allowance):
    """SLSQP refinement of x0 on |S1| = target within `allowance` evaluations.

    Returns [(x, S1, S2*)] for x0 and for the polished point.  The objective,
    the constraint and their gradients read one `_PolishMemo`.  The polish
    stops at S*'s rounding floor (see `_FLOOR_ITERATIONS`), or before a call
    that would overrun `allowance`, at its last iterate.
    """
    memo = _PolishMemo(evaluator, lo, hi, allowance)
    sign = 1.0 if memo.value(x0)[0] >= 0.0 or target == 0.0 else -1.0
    last, best, stalled = x0, -math.inf, 0

    def at_floor(intermediate_result):
        nonlocal last, best, stalled
        x = np.clip(intermediate_result.x, lo, hi)
        s1, ss = memo.value(x)
        last = x
        if abs(abs(s1) - target) > _FLOOR_MISS:
            best, stalled = -math.inf, 0
        elif ss > best + _FLOOR_GAIN:
            best, stalled = ss, 0
        else:
            stalled += 1
            if stalled == _FLOOR_ITERATIONS:
                raise StopIteration

    try:
        res = minimize(
            lambda v: -memo.value(v)[1],
            x0,
            jac=lambda v: -memo.gradient(v)[1],
            method="SLSQP",
            bounds=list(zip(lo, hi)),
            constraints=[{"type": "eq",
                          "fun": lambda v: memo.value(v)[0] - sign * target,
                          "jac": lambda v: memo.gradient(v)[0]}],
            options={"maxiter": 400, "ftol": 1e-14},
            callback=at_floor,
        )
        x = np.clip(res.x, lo, hi)
        polished = memo.value(x)
    except _Exhausted:
        x, polished = last, memo.value(last)
    return [(x0, *memo.value(x0)), (x, *polished)]


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
    lockstep; every restart's best is then refined by an SLSQP polish, and
    the polishes share what DE left, restart by restart, so `evaluations`
    never exceeds `budget`.  Results are deterministic in (mode, s, budget,
    seed) under the same BLAS thread settings; the polish calls BLAS and may
    move with the thread count.
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
    candidates = []
    for i, x0 in enumerate(starts):
        share = (budget - evaluator.count) // (_RESTARTS - i)
        candidates += _slsqp_polish(evaluator, x0, lo, hi, s, share)

    best = None
    for x, s1, sstar in candidates:
        achieved = abs(s1)
        miss = abs(achieved - s)
        feasible = miss <= _FEASIBILITY_TOL
        key = (feasible, sstar if feasible else -miss)
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_point_task, tasks))
    return [_point_task(t) for t in tasks]
