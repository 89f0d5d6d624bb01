"""Sequential-scenario evaluation and one-sided monogamy relations.

Evaluates the pair (S(A1,B1), S*(A2,B2)) for one round of recycling, checks
the two analytic monogamy theorems (orthogonal directions: bound 8*sqrt(2)/3;
equal strengths: bound 4), exposes the bound functions from their proofs, and
tabulates the semi-analytic optimal-tradeoff curves.  The low-violation
curve is stated once, as a parametrisation in the reversibility r;
region1_closed inverts it in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bell import S_MAX, MeasurementPair, chsh_value, horodecki_sstar
from .errors import DomainError, PreconditionViolation
from .instruments import SQUARE_ROOT, MeasurementKind, setting_channel
from .states import TwoQubitState

#: Bound of the orthogonal-directions monogamy relation.
ORTHOGONAL_MONOGAMY_BOUND = 8.0 * math.sqrt(2.0) / 3.0

#: Bound of the equal-strengths monogamy relation (also the conjectured one).
EQUAL_STRENGTH_MONOGAMY_BOUND = 4.0

_PRECONDITION_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """State, the two setting pairs of the first observers, and the model."""

    state: TwoQubitState
    alice: MeasurementPair
    bob: MeasurementPair
    kind: MeasurementKind = SQUARE_ROOT


@dataclass(frozen=True)
class ScenarioResult:
    """CHSH of the first pair and Horodecki-optimal CHSH of the second."""

    s_first: float
    s_star_second: float


@dataclass(frozen=True)
class TheoremCheck:
    holds: bool
    margin: float


def evaluate_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Compute S(A1,B1) and S*(A2,B2) = Horodecki value of K T L."""
    s_first = chsh_value(cfg.state, cfg.alice, cfg.bob)
    K = setting_channel(cfg.alice.first, cfg.alice.second, cfg.kind)
    L = setting_channel(cfg.bob.first, cfg.bob.second, cfg.kind)
    s_star = horodecki_sstar(K @ cfg.state.T @ L)
    return ScenarioResult(s_first=s_first, s_star_second=s_star)


def _require_unbiased(cfg: ScenarioConfig) -> None:
    for obs in (cfg.alice.first, cfg.alice.second, cfg.bob.first, cfg.bob.second):
        if abs(obs.bias) > _PRECONDITION_TOL:
            raise PreconditionViolation(f"observable has bias {obs.bias}, expected 0")


def check_orthogonal_monogamy(cfg: ScenarioConfig) -> TheoremCheck:
    """Orthogonal-directions monogamy: |S1| + S2* <= 8*sqrt(2)/3.

    Requires unbiased observables and orthogonal setting directions on each
    side (within 1e-9).  Settings of zero strength are exempt from the
    orthogonality requirement: their direction is physically irrelevant and
    holds a canonical placeholder value.
    """
    _require_unbiased(cfg)
    for pair in (cfg.alice, cfg.bob):
        if pair.first.strength <= _PRECONDITION_TOL or pair.second.strength <= _PRECONDITION_TOL:
            continue
        (x, y, z), (u, v, w) = pair.first.direction.tolist(), pair.second.direction.tolist()
        dot = abs(x * u + y * v + z * w)
        if dot > _PRECONDITION_TOL:
            raise PreconditionViolation(f"setting directions not orthogonal (dot={dot})")
    res = evaluate_scenario(cfg)
    margin = ORTHOGONAL_MONOGAMY_BOUND - (abs(res.s_first) + res.s_star_second)
    return TheoremCheck(holds=margin >= -_PRECONDITION_TOL, margin=margin)


def check_equal_strength_monogamy(cfg: ScenarioConfig) -> TheoremCheck:
    """Equal-strengths monogamy: |S1| + S2* <= 4.

    Requires unbiased observables and equal strengths within each side's
    setting pair (within 1e-9).
    """
    _require_unbiased(cfg)
    for pair in (cfg.alice, cfg.bob):
        if abs(pair.first.strength - pair.second.strength) > _PRECONDITION_TOL:
            raise PreconditionViolation("setting strengths differ on one side")
    res = evaluate_scenario(cfg)
    margin = EQUAL_STRENGTH_MONOGAMY_BOUND - (abs(res.s_first) + res.s_star_second)
    return TheoremCheck(holds=margin >= -_PRECONDITION_TOL, margin=margin)


def conjecture_margin(res: ScenarioResult) -> float:
    """Margin 4 - (|S1| + S2*) of the unbiased-observables monogamy conjecture.

    The relations hold only for unbiased observables: on the singlet, Alice =
    (trivial(1), trivial(1)) and Bob = (trivial(1), trivial(-1)) reach S1 = 2
    undisturbed, so S2* = 2*sqrt(2) and the margin is 2 - 2*sqrt(2) < 0.
    """
    return EQUAL_STRENGTH_MONOGAMY_BOUND - (abs(res.s_first) + res.s_star_second)


def g_orthogonal(x: float, y: float) -> float:
    """Objective sqrt(2)(2-x^2-y^2) + sqrt((1+x)^4+(1+y)^4)/2 of the first bound.

    Its maximum over the unit square is 8*sqrt(2)/3, attained at (1/3, 1/3).
    """
    return math.sqrt(2.0) * (2.0 - x * x - y * y) + 0.5 * math.sqrt(
        (1.0 + x) ** 4 + (1.0 + y) ** 4
    )


def g_equal_strength(x: float, c: float) -> float:
    """Objective of the equal-strengths bound; maximum 2 at (x, c) = (0, 1)."""
    f4 = ((1.0 + x) ** 2 + (1.0 - x) ** 2 * c) ** 2 + 4.0 * (1.0 - x * x) ** 2 * c
    return math.sqrt(2.0 - c) * (1.0 - x * x) + math.sqrt(f4) / math.sqrt(8.0)


def region1_parametric(r: float) -> tuple[float, float]:
    """Boundary point (S1, S2*) of the low-violation region, parameter r in [0,1].

    S1 = 2(1-r) sqrt(1+r) and S2* = sqrt(4 + (1+r)^2 r), where r is the
    reversibility of the stronger first-side setting.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"parameter {r} outside [0, 1]")
    return 2.0 * (1.0 - r) * math.sqrt(1.0 + r), math.sqrt(4.0 + (1.0 + r) ** 2 * r)


def region1_closed(s: float) -> float:
    """Optimal S2* for |S1| = s in [0, 2]: region1_parametric inverted in closed form.

    S1 = 2(1-r) sqrt(1+r) falls monotonically on [0, 1], so u = 1 - r is the
    root in [0, 1] of the cubic u^2 (2 - u) = s^2/4.  Its trigonometric
    solution u = (4/3) sin^2(e/2) + (2/sqrt(3)) sin(e), with
    e = (2/3) asin(3 sqrt(6) s/16), adds non-negative terms, so it keeps full
    accuracy at both ends: s = 0 gives 2*sqrt(2) and s = 2 gives 2.
    """
    if not 0.0 <= s <= 2.0 + 1e-12:
        raise DomainError(f"|S1| = {s} outside [0, 2]")
    e = (2.0 / 3.0) * math.asin(3.0 * math.sqrt(6.0) * s / 16.0)
    u = (4.0 / 3.0) * math.sin(0.5 * e) ** 2 + (2.0 / math.sqrt(3.0)) * math.sin(e)
    return region1_parametric(max(1.0 - u, 0.0))[1]


def region3_curve(s: float) -> float:
    """Optimal S2* for the high-violation region: sqrt(2) - s/4 + sqrt(2 - s/sqrt(2))."""
    if s > S_MAX + 1e-12 or s < 0.0:
        raise DomainError(f"|S1| = {s} outside [0, 2*sqrt(2)]")
    return math.sqrt(2.0) - s / 4.0 + math.sqrt(max(2.0 - s / math.sqrt(2.0), 0.0))


def max_exponent_d() -> float:
    """Largest exponent d with (2v2)^d + (1/v2)^d = 2^(d+1), in closed form.

    Bounds how far the additive monogamy relation can be strengthened to a
    d-th-power form; evaluates to about 1.758.  With x = 2^(d/2) the
    equation is (x - 1)(x^3 - x^2 - x - 1) = 0, so x is the tribonacci
    constant (1 + cbrt(19 + 3 sqrt 33) + cbrt(19 - 3 sqrt 33)) / 3 and
    d = 2 log2(x).
    """
    root33 = 3.0 * math.sqrt(33.0)
    tribonacci = (1.0 + (19.0 + root33) ** (1.0 / 3.0) + (19.0 - root33) ** (1.0 / 3.0)) / 3.0
    return 2.0 * math.log2(tribonacci)
