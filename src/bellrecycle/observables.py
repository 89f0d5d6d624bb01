"""General two-valued qubit observables.

An observable is parameterised by an outcome bias ``B``, a strength ``S``
(0 = trivial coin flip, 1 = projective) and a unit direction on the Bloch
sphere, subject to the positivity constraint ``S + |B| <= 1``.  The maximum
reversibility of any measurement of the observable, the corresponding
minimal decoherence, and the related tradeoff quantities are all functions
of (B, S) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AngleOutOfRange,
    ConstraintViolation,
    InvalidBloch,
    NegativeRadicand,
    ZeroDirection,
)
from .states import VALIDITY_TOL

#: Absolute tolerance for constraint checks at construction time.
CONSTRUCTION_TOL = 1e-12

#: Canonical direction assigned when the strength vanishes.
_ZERO_STRENGTH_DIRECTION = (0.0, 0.0, 1.0)


def _clamped_sqrt(radicand: float) -> float:
    """sqrt with negative radicands within -CONSTRUCTION_TOL clamped to zero.

    Radicands more negative than that indicate a genuine bug upstream and
    raise NegativeRadicand rather than returning NaN.
    """
    if radicand < -CONSTRUCTION_TOL:
        raise NegativeRadicand(f"radicand {radicand!r} below -{CONSTRUCTION_TOL}")
    return math.sqrt(max(radicand, 0.0))


@dataclass(frozen=True)
class Observable:
    """A two-valued qubit observable B*1 + S*sigma.direction."""

    bias: float
    strength: float
    direction: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.direction.setflags(write=False)


def make_observable(bias: float, strength: float, direction) -> Observable:
    """Validate and normalise the parameters of a two-valued observable.

    Raises ConstraintViolation if strength or bias leave their ranges or if
    strength + |bias| exceeds 1, and ZeroDirection if a nonzero-strength
    observable comes with a vanishing direction.  Within CONSTRUCTION_TOL of
    the constraints, bias is clamped to [-1, 1] and strength to [0, 1 - |bias|].
    At every strength the direction must hold three finite numbers, in any
    shape that reshapes to (3,): other shapes and non-numeric input raise
    ValueError, a non-finite component raises ConstraintViolation.  A
    zero-strength observable then gets the canonical direction (0, 0, 1),
    whatever the direction given; a zero vector is legal only there.
    """
    bias, strength = float(bias), float(strength)
    if not -1.0 - CONSTRUCTION_TOL <= bias <= 1.0 + CONSTRUCTION_TOL:
        raise ConstraintViolation(f"bias {bias} outside [-1, 1]")
    if not -CONSTRUCTION_TOL <= strength <= 1.0 + CONSTRUCTION_TOL:
        raise ConstraintViolation(f"strength {strength} outside [0, 1]")
    if strength + abs(bias) > 1.0 + CONSTRUCTION_TOL:
        raise ConstraintViolation(f"strength + |bias| = {strength + abs(bias)} exceeds 1")
    bias = min(max(bias, -1.0), 1.0)
    strength = min(max(strength, 0.0), 1.0 - abs(bias))

    x, y, z = np.asarray(direction, dtype=float).reshape(3).tolist()
    norm = math.hypot(x, y, z)
    if not math.isfinite(norm):
        # a non-finite component raises; finite ones whose norm overflows are scaled
        x, y, z = scaled_direction((x, y, z))
        norm = math.hypot(x, y, z)
    if strength == 0.0:
        vec = np.array(_ZERO_STRENGTH_DIRECTION)
    elif norm < CONSTRUCTION_TOL:
        raise ZeroDirection("direction has (near-)zero norm at positive strength")
    else:
        vec = np.array((x / norm, y / norm, z / norm))
    return Observable(bias=bias, strength=strength, direction=vec)


def scaled_direction(direction) -> tuple[float, float, float]:
    """`direction`'s components over its largest |component|, clear of under- and overflow.

    A non-finite component raises ConstraintViolation, a zero vector ZeroDirection.
    """
    x, y, z = np.asarray(direction, dtype=float).reshape(3).tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ConstraintViolation(f"direction {[x, y, z]} is not finite")
    m = max(abs(x), abs(y), abs(z))
    if m == 0.0:
        raise ZeroDirection("direction is the zero vector")
    return x / m, y / m, z / m


def projective(direction) -> Observable:
    """Projective spin observable along `direction`."""
    return make_observable(0.0, 1.0, direction)


def trivial(bias: float = 0.0) -> Observable:
    """Trivial (coin-flip) observable with the given outcome bias."""
    return make_observable(bias, 0.0, _ZERO_STRENGTH_DIRECTION)


def unbiased(strength: float, direction) -> Observable:
    """Unbiased observable of the given strength and direction."""
    return make_observable(0.0, strength, direction)


def reversibility(obs: Observable) -> float:
    """Maximum reversibility R of any measurement of the observable.

    R = sqrt((1+B)^2 - S^2)/2 + sqrt((1-B)^2 - S^2)/2; equals 0 only for the
    projective case (S=1, B=0) and 1 only for trivial observables (S=0).
    """
    u, v = _roots(obs.bias, obs.strength)
    return min(0.5 * u + 0.5 * v, 1.0)


def _roots(b: float, s: float) -> tuple[float, float]:
    """sqrt((1 +- b)^2 - s^2) as sqrt((1 +- b - s)(1 +- b + s)), accurate near s + |b| = 1."""
    return (_clamped_sqrt((1.0 + b - s) * (1.0 + b + s)),
            _clamped_sqrt((1.0 - b - s) * (1.0 - b + s)))


def reversibility_roots(b, s):
    """`reversibility`'s roots sqrt((1 +- b)^2 - s^2) of arrays b, s, clamped at 0.

    Same factors in the same order, so 0.5 u + 0.5 v is the scalar R bit for bit.
    For b None (unbiased settings) the one root sqrt((1 - s)(1 + s)) is R itself.
    """
    if b is None:
        u = np.sqrt(np.maximum((1.0 - s) * (1.0 + s), 0.0))
        return u, u
    u = np.sqrt(np.maximum((1.0 + b - s) * (1.0 + b + s), 0.0))
    v = np.sqrt(np.maximum((1.0 - b - s) * (1.0 - b + s), 0.0))
    return u, v


def decoherence_array(b, s, u, v):
    """`decoherence` of arrays b, s and their `reversibility_roots` u, v, bit for bit."""
    denom = (1.0 - b) * (1.0 + b) + s * s + u * v
    d2 = np.divide(2.0 * s * s, denom, out=np.zeros_like(denom), where=denom > 0.0)
    return np.minimum(np.sqrt(d2), 1.0)


def decoherence(obs: Observable) -> float:
    """Minimal decoherence D = sqrt(1 - R^2), as D^2 = 2 S^2 / (1 - B^2 + S^2 + u v).

    u, v are the reversibility's roots; the rationalised form stays accurate where
    1 - R^2 would cancel (weak observables), and s + |b| > 1 raises NegativeRadicand.
    """
    b, s = obs.bias, obs.strength
    u, v = _roots(b, s)
    denom = (1.0 - b) * (1.0 + b) + s * s + u * v
    # denom <= 0 only at |bias| = 1, strength = 0, where D = 0 exactly
    return min(math.sqrt(2.0 * s * s / denom), 1.0) if denom > 0.0 else 0.0


@dataclass(frozen=True)
class ReversibilityProfile:
    """The (R, D) pair of an observable; satisfies R^2 + D^2 = 1."""

    reversibility: float
    decoherence: float


def reversibility_profile(obs: Observable) -> ReversibilityProfile:
    return ReversibilityProfile(reversibility(obs), decoherence(obs))


def from_reversibility_angle(r: float, alpha: float) -> tuple[float, float]:
    """Map the (reversibility, angle) chart to (strength, bias).

    S = sqrt(1-r^2) cos(alpha), B = r sin(alpha), valid for |alpha| <=
    arcsin(r); the round trip through reversibility() recovers r.
    """
    if not 0.0 <= r <= 1.0 + CONSTRUCTION_TOL:
        raise AngleOutOfRange(f"reversibility {r} outside [0, 1]")
    r = min(r, 1.0)
    limit = math.asin(r)
    if not abs(alpha) <= limit + CONSTRUCTION_TOL:
        raise AngleOutOfRange(f"|alpha| = {abs(alpha)} exceeds arcsin(r) = {limit}")
    # (1 - r)(1 + r) rather than 1 - r^2, which cancels as r -> 1
    strength = math.sqrt(max((1.0 - r) * (1.0 + r), 0.0)) * math.cos(alpha)
    bias = r * math.sin(alpha)
    return strength, bias


def fidelity_bound(obs: Observable) -> float:
    """Upper bound (R+2)/3 on the mean operation fidelity of any measurement."""
    return (reversibility(obs) + 2.0) / 3.0


def expectation(obs: Observable, bloch) -> float:
    """Mean value B + S * (direction . bloch) on a single-qubit state."""
    vec = np.asarray(bloch, dtype=float).reshape(3)
    norm = float(np.linalg.norm(vec))
    if not norm <= 1.0 + VALIDITY_TOL:
        raise InvalidBloch(f"|bloch| = {norm} is not at most 1")
    value = obs.bias + obs.strength * float(obs.direction @ vec)
    return min(max(value, -1.0), 1.0)
