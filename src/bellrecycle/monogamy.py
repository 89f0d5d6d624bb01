"""Sequential-scenario evaluation and one-sided monogamy relations.

Evaluates the pair (S(A1,B1), S*(A2,B2)) for one round of recycling, checks
the two analytic monogamy theorems (orthogonal directions: bound 8*sqrt(2)/3;
equal strengths: bound 4), exposes the bound functions from their proofs, and
tabulates the semi-analytic optimal-tradeoff curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .bell import MeasurementPair, chsh_value, horodecki_sstar
from .errors import DomainError, NoRealRoot, PreconditionViolation
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
        dot = abs(float(pair.first.direction @ pair.second.direction))
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
    """Margin 4 - (|S1| + S2*) of the unbiased-observables monogamy conjecture."""
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


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of c3 z^3 + c2 z^2 + c1 z + c0, ascending.

    Closed-form (Cardano/trigonometric) solution; near-degenerate
    discriminants fall back to companion-matrix eigenvalues.  Roots with
    imaginary part below 1e-9 count as real.
    """
    if abs(c3) < 1e-300:
        raise NoRealRoot("leading coefficient vanishes")
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    shift = -b / 3.0
    if abs(disc) < 1e-12:
        comp = np.array([[0.0, 0.0, -d], [1.0, 0.0, -c], [0.0, 1.0, -b]])
        roots = np.linalg.eigvals(comp)
        real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)
        if not real:
            raise NoRealRoot("companion matrix produced no real roots")
        return real
    if disc > 0.0:
        sq = math.sqrt(disc)
        u = math.copysign(abs(-q / 2.0 + sq) ** (1.0 / 3.0), -q / 2.0 + sq)
        v = math.copysign(abs(-q / 2.0 - sq) ** (1.0 / 3.0), -q / 2.0 - sq)
        return [u + v + shift]
    # three distinct real roots
    rho = math.sqrt(-(p**3) / 27.0)
    phi = math.acos(min(max(-q / (2.0 * rho), -1.0), 1.0))
    mag = 2.0 * math.sqrt(-p / 3.0)
    roots = [mag * math.cos((phi + 2.0 * math.pi * k) / 3.0) + shift for k in range(3)]
    return sorted(roots)


def region1_parametric(r: float) -> tuple[float, float]:
    """Boundary point (S1, S2*) of the low-violation region, parameter r in [0,1].

    S1 = 2(1-r) sqrt(1+r) and S2* = sqrt(4 + (1+r)^2 r), where r is the
    reversibility of the stronger first-side setting.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"parameter {r} outside [0, 1]")
    return 2.0 * (1.0 - r) * math.sqrt(1.0 + r), math.sqrt(4.0 + (1.0 + r) ** 2 * r)


def region1_closed(s: float) -> float:
    """Closed-form optimal S2* for |S1| = s in (0, 2].

    Solves the stationarity cubic for h = (1 + r)/r, takes the strength of
    the second side from the associated quadratic, and assembles S2*.  The
    cubic (s^2-4) z^3 - (3s^2-16) z^2 + (3s^2-16) z - s^2 has exactly one
    real root above 2 for 0 < s < 2, and that root is h.  Agrees with
    region1_parametric everywhere.
    """
    if not 0.0 <= s <= 2.0 + 1e-12:
        raise DomainError(f"|S1| = {s} outside [0, 2]")
    if s < 1e-6:
        return 2.0 * math.sqrt(2.0)  # analytic limit: undisturbed singlet
    if s > 2.0 - 1e-9:
        return 2.0  # h diverges; limiting strengths are projective
    s2 = s * s
    roots = real_cubic_roots(s2 - 4.0, -(3.0 * s2 - 16.0), 3.0 * s2 - 16.0, -s2)
    above = [z for z in roots if z > 2.0]
    if not above:
        raise NoRealRoot(f"stationarity cubic has no root above 2 for s={s}")
    h = max(above)
    # largest root of 4 h z^2 + s^2 (1 - h) z - s^2 = 0 (the positive one)
    aa, bb, cc = 4.0 * h, s2 * (1.0 - h), -s2
    disc = bb * bb - 4.0 * aa * cc
    zq = (-bb + math.sqrt(disc)) / (2.0 * aa)
    if not 0.0 < zq <= 1.0 + 1e-9:
        raise NoRealRoot(f"quadratic root {zq} outside (0, 1]")
    sy2 = min(zq, 1.0)
    ratio = s2 / sy2
    if ratio > 4.0 + 1e-9:
        raise DomainError(f"s^2 / S_Y^2 = {ratio} exceeds 4")
    inner = 2.0 + math.sqrt(max(4.0 - ratio, 0.0))
    return math.sqrt(4.0 + 0.25 * (1.0 - sy2) * inner * inner)


def region3_curve(s: float) -> float:
    """Optimal S2* for the high-violation region: sqrt(2) - s/4 + sqrt(2 - s/sqrt(2))."""
    if s > 2.0 * math.sqrt(2.0) + 1e-12 or s < 0.0:
        raise DomainError(f"|S1| = {s} outside [0, 2*sqrt(2)]")
    return math.sqrt(2.0) - s / 4.0 + math.sqrt(max(2.0 - s / math.sqrt(2.0), 0.0))


def max_exponent_d() -> float:
    """Largest exponent d with (2v2)^d + (1/v2)^d = 2^(d+1), by Brent's method.

    Bounds how far the additive monogamy relation can be strengthened to a
    d-th-power form; evaluates to about 1.758.  The residual changes sign
    once on [1, 3].
    """
    def residual(d: float) -> float:
        return (2.0 * math.sqrt(2.0)) ** d + 2.0 ** (-d / 2.0) - 2.0 ** (d + 1.0)

    return brentq(residual, 1.0, 3.0, xtol=1e-15)
