"""CHSH functionals and the Horodecki criterion.

Includes the singular values of 3x3 correlation matrices, single and
stacked (numpy's LAPACK SVD; the only linear algebra the hot paths need),
the raw CHSH value of four observables on a two-qubit state, the
Horodecki-optimal CHSH value reachable downstream, and the tight
strength/angle upper bound on the singlet CHSH together with its 3x3
W-matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, NegativeRadicand
from .observables import Observable
from .states import TwoQubitState


@dataclass(frozen=True)
class MeasurementPair:
    """The two observables one observer chooses between with equal odds."""

    first: Observable
    second: Observable


def _pair_expectation(state: TwoQubitState, x: Observable, y: Observable) -> float:
    """<XY> = (B_X, S_X x^T) Theta (B_Y; S_Y y)."""
    left = np.concatenate(([x.bias], x.strength * x.direction))
    right = np.concatenate(([y.bias], y.strength * y.direction))
    return float(left @ state.theta @ right)


def chsh_value(state: TwoQubitState, alice: MeasurementPair, bob: MeasurementPair) -> float:
    """S = <XY> + <XY'> + <X'Y> - <X'Y'> for the given setting pairs."""
    return (
        _pair_expectation(state, alice.first, bob.first)
        + _pair_expectation(state, alice.first, bob.second)
        + _pair_expectation(state, alice.second, bob.first)
        - _pair_expectation(state, alice.second, bob.second)
    )


def svd3(M) -> tuple[float, float, float]:
    """Singular values of a real 3x3 matrix, descending (LAPACK gesdd)."""
    s = np.linalg.svd(np.asarray(M, dtype=float).reshape(3, 3), compute_uv=False)
    return float(s[0]), float(s[1]), float(s[2])


def singular_values_batch(M: np.ndarray) -> np.ndarray:
    """Descending singular values of a stack of 3x3 matrices, shape (n, 3).

    One LAPACK call over the stack; used by the sampling audits and the
    optimizer hot loop.
    """
    return np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)


def horodecki_sstar(T) -> float:
    """Optimal downstream CHSH value 2*sqrt(s1^2 + s2^2) of a correlation matrix."""
    s1, s2, _ = svd3(T)
    if s1 > 1.0 + 1e-9:
        raise ConstraintViolation(f"largest singular value {s1} exceeds 1")
    return 2.0 * math.sqrt(s1 * s1 + s2 * s2)


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two direction vectors, stable near 0 and pi."""
    u = np.asarray(u, dtype=float).reshape(3)
    v = np.asarray(v, dtype=float).reshape(3)
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(u @ v))


@dataclass(frozen=True)
class WMatrix:
    """The 3x3 strength/relative-angle matrix of the singlet CHSH form."""

    entries: np.ndarray = field(repr=False)
    angle_theta: float
    angle_phi: float

    def __post_init__(self):
        self.entries.setflags(write=False)


def w_matrix(sx: float, sxp: float, sy: float, syp: float, theta: float, phi: float) -> WMatrix:
    """Build the W matrix for strengths (sx, sxp, sy, syp) and pair angles.

    theta is the angle between the two settings of the first observer, phi
    between those of the second; only the upper 2x2 block is nonzero.
    """
    A = sx * sy + sx * syp + sxp * sy - sxp * syp
    B = sx * sy - sx * syp + sxp * sy + sxp * syp
    C = sx * sy + sx * syp - sxp * sy + sxp * syp
    D = -sx * sy + sx * syp + sxp * sy + sxp * syp
    ct, st = math.cos(theta / 2.0), math.sin(theta / 2.0)
    cp, sp = math.cos(phi / 2.0), math.sin(phi / 2.0)
    entries = np.zeros((3, 3))
    entries[0, 0] = A * ct * cp
    entries[0, 1] = B * ct * sp
    entries[1, 0] = C * st * cp
    entries[1, 1] = -D * st * sp
    return WMatrix(entries=entries, angle_theta=theta, angle_phi=phi)


def s0_bound(sx: float, sxp: float, sy: float, syp: float, theta: float, phi: float) -> float:
    """Tight upper bound on |CHSH| for unbiased observables on the singlet."""
    radicand = (
        (sx * sx + sxp * sxp) * (sy * sy + syp * syp)
        + 2.0 * sx * sxp * (sy * sy - syp * syp) * math.cos(theta)
        + 2.0 * sy * syp * (sx * sx - sxp * sxp) * math.cos(phi)
        + 4.0 * sx * sxp * sy * syp * math.sin(theta) * math.sin(phi)
    )
    if radicand < -1e-9:
        raise NegativeRadicand(f"S0 radicand {radicand} is negative")
    return math.sqrt(max(radicand, 0.0))


def s0_from_w(w: WMatrix) -> float:
    """S0 as s1(W) + s2(W) via the trace/determinant of the upper 2x2 block."""
    block = w.entries[:2, :2]
    return math.sqrt(float(np.trace(block.T @ block)) + 2.0 * abs(float(np.linalg.det(block))))
