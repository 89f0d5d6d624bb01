"""Sequential chains with many observers per side.

`chain_chsh` evaluates the CHSH value seen by an arbitrary observer pair
after the upstream observers' ensemble transfers have acted.  The multi-Bob
scheduler plays one projective Alice against a line of unbiased Bobs who
share a fixed layout; each Bob's strength is the closed form target / S(1),
since CHSH is linear in the strength.  The multi-pair construction lifts
any feasible schedule to M Alices x N Bobs on M independent qubit pairs
using trivial (identity) observables, which leave the other pairs
undisturbed, so its CHSH matrix tiles the schedule's planned values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import MeasurementPair, chsh_value
from .errors import ConstraintViolation, Infeasible, IndexOutOfRange, NotNonlocal, _check_integer
from .instruments import SQUARE_ROOT, MeasurementKind, apply_chain, apply_local, setting_channel
from .observables import make_observable, projective
from .states import TwoQubitState, add_isotropic_noise, check_contraction, make_state


@dataclass(frozen=True)
class ObserverPlan:
    """One setting pair per observer on a given side, plus the instrument."""

    pairs: tuple[MeasurementPair, ...]
    kind: MeasurementKind = SQUARE_ROOT

    def __len__(self) -> int:
        return len(self.pairs)


def chain_chsh(
    state: TwoQubitState,
    alice_plan: ObserverPlan,
    bob_plan: ObserverPlan,
    m: int,
    n: int,
) -> float:
    """CHSH between the m-th Alice and n-th Bob (1-based indices).

    The transfers of Alices 1..m-1 and Bobs 1..n-1 are applied to the state
    first; the pair (m, n) then measures.
    """
    if not 1 <= m <= len(alice_plan):
        raise IndexOutOfRange(f"alice index {m} outside 1..{len(alice_plan)}")
    if not 1 <= n <= len(bob_plan):
        raise IndexOutOfRange(f"bob index {n} outside 1..{len(bob_plan)}")
    current = apply_chain(
        state,
        [setting_channel(p.first, p.second, alice_plan.kind) for p in alice_plan.pairs[: m - 1]],
        [setting_channel(p.first, p.second, bob_plan.kind) for p in bob_plan.pairs[: n - 1]],
    )
    return chsh_value(current, alice_plan.pairs[m - 1], bob_plan.pairs[n - 1])


def _bob_pair(strength: float, y: np.ndarray, yp: np.ndarray) -> MeasurementPair:
    """The unbiased Bob pair of a schedule at the given strength."""
    return MeasurementPair(make_observable(0.0, strength, y), make_observable(0.0, strength, yp))


@dataclass(frozen=True)
class MultiBobSchedule:
    """A feasible one-Alice/N-Bob strength schedule on a fixed layout."""

    state: TwoQubitState
    alice: MeasurementPair
    bob_directions: tuple[np.ndarray, np.ndarray]
    bob_strengths: tuple[float, ...]
    chsh_values: tuple[float, ...]
    margin: float

    def __post_init__(self):
        for d in self.bob_directions:
            d.setflags(write=False)

    def bob_plan(self) -> ObserverPlan:
        """Observer plan realising the schedule."""
        y, yp = self.bob_directions
        return ObserverPlan(pairs=tuple(_bob_pair(s, y, yp) for s in self.bob_strengths))


def plan_multibob(T, n_bobs: int, margin: float = 0.05) -> MultiBobSchedule:
    """Greedy strength schedule for one Alice and `n_bobs` sequential Bobs.

    Alice measures projectively along the two principal directions of T; all
    Bobs share the equal-strength unbiased pair along the CHSH-optimal
    directions of the initial state.  Every Bob before the last gets the
    smallest strength whose CHSH value (given the upstream transfers) reaches
    2 + margin, which is (2 + margin) / S(1) with S(1) the value at full
    strength: with Alice projective and every Bob unbiased, the CHSH value
    is linear in Bob's strength.  The last Bob measures at full strength.
    Raises Infeasible, naming the first observer that cannot exceed 2.

    Note: on a singlet this layout supports at most two Bobs.  Once the
    first two Bobs pin their CHSH values above 2, the product of their
    transverse retention factors (1 + R_k)/2 is below 0.666, while a third
    violation would need it above 1/sqrt(2) ~ 0.707; so a third Bob cannot
    reach 2 at any strength, for any margin.
    """
    T = np.asarray(T, dtype=float).reshape(3, 3)
    if _check_integer("n_bobs", n_bobs) < 1:
        raise ConstraintViolation(f"n_bobs must be >= 1, got {n_bobs}")
    if not (math.isfinite(margin) and margin > 0.0):
        raise ConstraintViolation(f"margin must be finite and positive, got {margin}")
    if not np.isfinite(T).all():
        raise ConstraintViolation(f"T = {T.tolist()} has a non-finite entry")
    U, sv, Vt = np.linalg.svd(T)
    check_contraction(float(sv[0]))
    alice = MeasurementPair(projective(U[:, 0]), projective(U[:, 1]))
    chi = math.atan2(sv[1], sv[0])
    y = math.cos(chi) * Vt[0] + math.sin(chi) * Vt[1]
    yp = math.cos(chi) * Vt[0] - math.sin(chi) * Vt[1]
    y /= np.linalg.norm(y)
    yp /= np.linalg.norm(yp)

    # the planner works at the correlation-matrix level: any contraction is
    # accepted (the chain algebra never needs positivity of the full state)
    initial = make_state(np.zeros(3), np.zeros(3), T, check=False)
    state = initial
    target = 2.0 + margin
    strengths: list[float] = []
    values: list[float] = []
    for n in range(1, n_bobs + 1):
        strength, pair = 1.0, _bob_pair(1.0, y, yp)
        value = chsh_value(state, alice, pair)
        if n < n_bobs and value >= target:
            # exact: with unbiased settings and a = b = 0 (unital Bob channels
            # keep b at 0), S is linear in Bob's strength
            strength = target / value
            pair = _bob_pair(strength, y, yp)
            value = chsh_value(state, alice, pair)
        if value <= 2.0:
            raise Infeasible(
                f"observer B{n} cannot exceed the CHSH bound (best {value:.6f})",
                failing_n=n,
            )
        strengths.append(strength)
        values.append(value)
        state = apply_local(state, "bob", setting_channel(pair.first, pair.second))
    return MultiBobSchedule(
        state=initial,
        alice=alice,
        bob_directions=(y, yp),
        bob_strengths=tuple(strengths),
        chsh_values=tuple(values),
        margin=margin,
    )


def rerun_schedule(schedule: MultiBobSchedule, state: TwoQubitState | None = None) -> tuple[float, ...]:
    """Replay the schedule's fixed layout and strengths on a (new) state."""
    state = schedule.state if state is None else state
    alice_plan = ObserverPlan(pairs=(schedule.alice,))
    bob_plan = schedule.bob_plan()
    return tuple(chain_chsh(state, alice_plan, bob_plan, 1, n) for n in range(1, len(bob_plan) + 1))


@dataclass(frozen=True)
class NoiseRobustness:
    s_min: float
    p_min: float


def noise_robustness(schedule: MultiBobSchedule) -> NoiseRobustness:
    """Isotropic-noise tolerance of a feasible schedule.

    For unbiased observables every CHSH value scales linearly with the noise
    weight p, so all of them stay above 2 exactly for p > p_min = 2 / S_min.
    """
    if any(v <= 2.0 for v in schedule.chsh_values):
        raise NotNonlocal("schedule contains a CHSH value at or below 2")
    s_min = min(schedule.chsh_values)
    return NoiseRobustness(s_min=s_min, p_min=2.0 / s_min)


def verify_noise_robustness(schedule: MultiBobSchedule, p: float) -> tuple[float, ...]:
    """Replay the schedule on the isotropically noisy state with weight p."""
    noisy = add_isotropic_noise(schedule.state, p)
    return rerun_schedule(schedule, noisy)


def multipair_scenario(m_alices: int, n_bobs: int, base_schedule: MultiBobSchedule) -> np.ndarray:
    """CHSH matrix S_mn for M Alices and N Bobs over M independent pairs.

    On pair q, Alice m measures the base Alice pair when m == q and the
    trivial identity observable otherwise; Bobs run the base schedule on all
    pairs.  S_mn is the best CHSH over pairs, which equals the base value
    S(A, B_n) for every m because identity measurements do not disturb, so
    the matrix tiles the schedule's planned values; the tests build the
    explicit M-pair lift and check it gives them exactly.
    """
    for name, count in (("m_alices", m_alices), ("n_bobs", n_bobs)):
        if _check_integer(name, count) < 1:
            raise ConstraintViolation(f"{name} must be >= 1, got {count}")
    if n_bobs > len(base_schedule.bob_strengths):
        raise ConstraintViolation(
            f"base schedule covers {len(base_schedule.bob_strengths)} Bobs, need {n_bobs}"
        )
    values = base_schedule.chsh_values[:n_bobs]
    if any(v <= 2.0 for v in values):
        raise Infeasible(
            "base schedule is not feasible for the requested number of Bobs",
            failing_n=int(np.argmax(np.array(values) <= 2.0)) + 1,
        )
    return np.tile(values, (m_alices, 1))
