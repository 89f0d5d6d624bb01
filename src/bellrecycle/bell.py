"""CHSH functionals and the Horodecki criterion.

Includes the singular values of 3x3 correlation matrices, single and
stacked (numpy's LAPACK SVD), the Horodecki value of a stack in closed
form, the raw CHSH value of four observables on a two-qubit state, the
Horodecki-optimal CHSH value reachable downstream, and the tight
strength/angle upper bound on the singlet CHSH together with its 3x3
W-matrix form.

`sequential_chsh_batch` is the one batched form of the sequential
scenario: it maps stacks of correlation matrices and square-root settings
to (S(A1,B1), S*(A2,B2)), taking S* from `horodecki_sstar_batch`.  The
optimizer's evaluator and the three monogamy audits call it; the scalar
object path (`chsh_value`, `horodecki_sstar` and
`monogamy.evaluate_scenario`) keeps the SVD, stays separate, and is the
reference the tests compare it against.
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

    One LAPACK call over the stack; `horodecki_sstar_batch` sends its
    near-degenerate rows here by this module-level name.
    """
    return np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)


# rows whose two smallest eigenvalues of M^T M nearly coincide go to the SVD
_FALLBACK_R = 1.0 - 1e-6
_TINY = np.finfo(float).tiny


def horodecki_sstar_batch(M: np.ndarray) -> np.ndarray:
    """2 sqrt(s1^2 + s2^2) of each matrix in an (n, 3, 3) stack.

    s1^2 + s2^2 = tr G - lambda_min(G) with G = M^T M, and lambda_min comes
    from the trigonometric cubic (O. K. Smith, Commun. ACM 4:168, 1961):
    with m = tr G / 3, p^2 = |G - m I|_F^2 / 6 and
    r = det(G - m I) / (2 p^3), tr G - lambda_min = 2 (m + p cos((pi -
    acos r) / 3)), a sum of non-negative terms.  Near r = 1 the two
    smallest eigenvalues meet and acos loses accuracy to about sqrt(eps);
    those rows are sent to `singular_values_batch`, called by its
    module-level name.
    """
    M = np.asarray(M, dtype=float)
    G = np.matmul(M.transpose(0, 2, 1), M)
    g01, g02, g12 = G[:, 0, 1], G[:, 0, 2], G[:, 1, 2]
    m = (G[:, 0, 0] + G[:, 1, 1] + G[:, 2, 2]) / 3
    k00, k11, k22 = G[:, 0, 0] - m, G[:, 1, 1] - m, G[:, 2, 2] - m
    p2 = (k00 * k00 + k11 * k11 + k22 * k22 + 2 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6
    p = np.sqrt(p2)
    det = (k00 * (k11 * k22 - g12 * g12) - g01 * (g01 * k22 - g12 * g02)
           + g02 * (g01 * g12 - k11 * g02))
    # tiny keeps 0/0 out when G = m I; it moves r only for p below ~1e-97
    r = np.maximum(np.minimum(det / (2 * p2 * p + _TINY), 1.0), -1.0)
    out = np.sqrt(8 * (m + p * np.cos((math.pi - np.arccos(r)) / 3)))
    near = r > _FALLBACK_R
    if near.any():
        sv = singular_values_batch(M[near])
        out[near] = 2.0 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
    return out


def schmidt_tensors(alpha: np.ndarray):
    """Bloch vectors a, b and correlation matrices T of a stack of Schmidt states.

    cos(alpha)|00> + sin(alpha)|11>, with alpha clipped to [0, pi/4]: a = b
    along +z with length cos(2 alpha), T = diag(sin 2alpha, -sin 2alpha, 1).
    """
    n = alpha.shape[0]
    alpha = np.clip(alpha, 0.0, np.pi / 4)
    c2, s2 = np.cos(2 * alpha), np.sin(2 * alpha)
    a = np.zeros((n, 3))
    a[:, 2] = c2
    T = np.zeros((n, 3, 3))
    T[:, 0, 0] = s2
    T[:, 1, 1] = -s2
    T[:, 2, 2] = 1.0
    return a, a, T


def _channel_batch(u, up, ru, rup):
    """Averaged transfer matrices of two settings with reversibilities ru, rup.

    0.5 ((ru + rup) I + (1 - ru) u u^T + (1 - rup) up up^T), summed in place
    so that a 10^6-row stack holds one temporary besides the result.
    """
    K = (ru + rup)[:, None, None] * np.eye(3)
    t = np.einsum("ni,nj->nij", u, u)
    t *= (1 - ru)[:, None, None]
    K += t
    np.einsum("ni,nj->nij", up, up, out=t)
    t *= (1 - rup)[:, None, None]
    K += t
    K *= 0.5
    return K


def sequential_chsh_batch(T, s, dirs, biases=None, a=None, b=None):
    """Signed S(A1,B1) and S*(A2,B2) for a stack of square-root scenarios.

    T is an (n, 3, 3) stack of correlation matrices.  s, and biases when
    given, are (4, n) arrays over the settings x, x', y, y', and dirs holds
    their (n, 3) directions in the same order.  The Bloch vectors a and b
    enter S1 only through the biases.  S* is the Horodecki value of K T L,
    with K and L the averaged dephasing channels of each side's settings.
    """
    x, xp, y, yp = dirs

    def term(i, j, u, v):
        out = s[i] * s[j] * np.einsum("ni,nij,nj->n", u, T, v)
        if biases is not None:
            out = (
                out
                + biases[i] * biases[j]
                + biases[i] * s[j] * np.einsum("ni,ni->n", b, v)
                + s[i] * biases[j] * np.einsum("ni,ni->n", u, a)
            )
        return out

    s1 = term(0, 2, x, y) + term(0, 3, x, yp) + term(1, 2, xp, y) - term(1, 3, xp, yp)
    if biases is None:
        r = np.sqrt(np.clip(1 - s * s, 0, 1))
    else:
        r = 0.5 * np.sqrt(np.clip((1 + biases) ** 2 - s * s, 0, None)) + 0.5 * np.sqrt(
            np.clip((1 - biases) ** 2 - s * s, 0, None)
        )
    K = _channel_batch(x, xp, r[0], r[1])
    L = _channel_batch(y, yp, r[2], r[3])
    # K T L goes into K's buffer, one stack fewer at the audits' memory peak
    return s1, horodecki_sstar_batch(np.matmul(K @ T, L, out=K))


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
