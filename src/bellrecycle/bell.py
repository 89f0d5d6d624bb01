"""CHSH functionals and the Horodecki criterion.

Includes the singular values of 3x3 correlation matrices, single and
stacked (numpy's LAPACK SVD), the Horodecki value of a stack in closed
form, the raw CHSH value of four observables on a two-qubit state, the
Horodecki-optimal CHSH value reachable downstream, and the tight
strength/angle upper bound on the singlet CHSH together with its 3x3
W-matrix form.

`sequential_chsh_batch` is the one batched form of the sequential
scenario: it maps stacks of correlation matrices and square-root settings
to (S(A1,B1), S*(A2,B2)).  Its stacks are component-major (directions
(3, n), correlation matrices (3, 3, n)), so every step is an elementwise
operation over rows of n contiguous values: K T L is built from rank-one
updates of T, G = M^T M from six column dot products, and S* from the
closed form in `_sstar`.  The optimizer's evaluator and the three
monogamy audits call it; the scalar object path (`chsh_value`,
`horodecki_sstar` and `monogamy.evaluate_scenario`) keeps the SVD, stays
separate, and is the reference the tests compare it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintViolation, NegativeRadicand
from .observables import Observable
from .states import TwoQubitState

#: Tsirelson's bound 2 sqrt(2), the largest |S| any two-qubit state reaches.
S_MAX = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementPair:
    """The two observables one observer chooses between with equal odds."""

    first: Observable
    second: Observable


def _settings(pair: MeasurementPair) -> np.ndarray:
    """(4, 2) columns (B, S n) of a pair: <XY> = (B_X, S_X x^T) Theta (B_Y; S_Y y)."""
    cols = np.empty((4, 2))
    for k, obs in enumerate((pair.first, pair.second)):
        cols[0, k] = obs.bias
        cols[1:, k] = obs.strength * obs.direction
    return cols


def chsh_value(state: TwoQubitState, alice: MeasurementPair, bob: MeasurementPair) -> float:
    """S = <XY> + <XY'> + <X'Y> - <X'Y'>, the entries of one product V_A^T Theta V_B."""
    E = _settings(alice).T @ state.theta @ _settings(bob)
    return float(E[0, 0] + E[0, 1] + E[1, 0] - E[1, 1])


def svd3(M) -> tuple[float, float, float]:
    """Singular values of a real 3x3 matrix, descending (LAPACK gesdd)."""
    s = np.linalg.svd(np.asarray(M, dtype=float).reshape(3, 3), compute_uv=False)
    return float(s[0]), float(s[1]), float(s[2])


def singular_values_batch(M: np.ndarray) -> np.ndarray:
    """Descending singular values of a stack of 3x3 matrices, shape (n, 3).

    One LAPACK call over the stack; `_sstar` (behind `horodecki_sstar_batch`
    and `sequential_chsh_batch`) sends its near-degenerate rows here by this
    module-level name.
    """
    return np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)


# rows whose two smallest eigenvalues of M^T M nearly coincide go to the SVD
_FALLBACK_R = 1.0 - 1e-6
_TINY = np.finfo(float).tiny


def _sum3(term):
    """term(0) + term(1) + term(2), accumulated in place."""
    out = term(0)
    out += term(1)
    out += term(2)
    return out


def _sstar(M: np.ndarray) -> np.ndarray:
    """2 sqrt(s1^2 + s2^2) of each matrix in a component-major (3, 3, n) stack.

    s1^2 + s2^2 = tr G - lambda_min(G) with G = M^T M, whose six distinct
    entries are dot products of M's columns, and lambda_min comes from the
    trigonometric cubic (O. K. Smith, Commun. ACM 4:168, 1961): with
    m = tr G / 3, p^2 = |G - m I|_F^2 / 6 and r = det(G - m I) / (2 p^3),
    tr G - lambda_min = 2 (m + p cos((pi - acos r) / 3)), a sum of
    non-negative terms.  Near r = 1 the two smallest eigenvalues meet and
    acos loses accuracy to about sqrt(eps); those rows are sent to
    `singular_values_batch`, called by its module-level name.
    """
    g00, g11, g22 = _sum3(lambda i: M[i] * M[i])
    g01, g12, g02 = _sum3(lambda i: M[i] * M[i, [1, 2, 0]])
    m = (g00 + g11 + g22) / 3
    k00, k11, k22 = g00 - m, g11 - m, g22 - m
    p2 = (k00 * k00 + k11 * k11 + k22 * k22 + 2 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6
    p = np.sqrt(p2)
    det = (k00 * (k11 * k22 - g12 * g12) - g01 * (g01 * k22 - g12 * g02)
           + g02 * (g01 * g12 - k11 * g02))
    # tiny keeps 0/0 out when G = m I; it moves r only for p below ~1e-97
    r = np.maximum(np.minimum(det / (2 * p2 * p + _TINY), 1.0), -1.0)
    out = np.sqrt(8 * (m + p * np.cos((math.pi - np.arccos(r)) / 3)))
    near = r > _FALLBACK_R
    if near.any():
        sv = singular_values_batch(M[:, :, near].transpose(2, 0, 1))
        out[near] = 2.0 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)
    return out


def horodecki_sstar_batch(M: np.ndarray) -> np.ndarray:
    """2 sqrt(s1^2 + s2^2) of each matrix in an (n, 3, 3) stack.

    Runs the component-major kernel of `sequential_chsh_batch` on the
    transposed view, with the same near-degenerate SVD fallback.
    """
    return _sstar(np.asarray(M, dtype=float).transpose(1, 2, 0))


def schmidt_tensors(alpha: np.ndarray):
    """Bloch vectors a, b and correlation matrices T of a stack of Schmidt states.

    cos(alpha)|00> + sin(alpha)|11>, with alpha clipped to [0, pi/4]: a = b
    along +z with length cos(2 alpha), T = diag(sin 2alpha, -sin 2alpha, 1).
    Component-major: a and b are (3, n) and T is (3, 3, n).
    """
    n = alpha.shape[0]
    alpha = np.clip(alpha, 0.0, np.pi / 4)
    c2, s2 = np.cos(2 * alpha), np.sin(2 * alpha)
    a = np.zeros((3, n))
    a[2] = c2
    T = np.zeros((3, 3, n))
    T[0, 0] = s2
    T[1, 1] = -s2
    T[2, 2] = 1.0
    return a, a, T


def _add_outer(M, c, U, V):
    """M + c_0 U_0 V_0^T + c_1 U_1 V_1^T, in place, for (2, 3, n) stacks U and V."""
    for k in range(2):
        M += (c[k] * U[k])[:, None] * V[k]
    return M


def _s1(AT, A, B, s, biases, a, b):
    """Signed S(A1,B1) from AT[k] = u_k^T T over u = (x, x'), v = (y, y')."""
    terms = _sum3(lambda j: AT[:, None, j] * B[:, j])
    terms *= s[:2, None] * s[2:]
    if biases is not None:
        ua = _sum3(lambda i: A[:, i] * a[i])
        bv = _sum3(lambda i: B[:, i] * b[i])
        terms += biases[:2, None] * biases[2:]
        terms += biases[:2, None] * s[2:] * bv
        terms += (s[:2] * ua)[:, None] * biases[2:]
    return terms[0, 0] + terms[0, 1] + terms[1, 0] - terms[1, 1]


def _first_pair(T, s, D, biases, a, b):
    """S1 and K T L of `sequential_chsh_batch`, with D the (4, 3, n) directions.

    Kept apart from `_sstar` so that its temporaries are freed before the
    Horodecki step runs.
    """
    A, B = D[:2], D[2:]
    AT = _sum3(lambda i: A[:, i, None] * T[i])
    s1 = _s1(AT, A, B, s, biases, a, b)
    if biases is None:
        r = np.sqrt(np.clip(1 - s * s, 0, 1))
    else:
        r = 0.5 * np.sqrt(np.clip((1 + biases) ** 2 - s * s, 0, None)) + 0.5 * np.sqrt(
            np.clip((1 - biases) ** 2 - s * s, 0, None)
        )
    c = 0.5 * (1 - r)
    # K T = c0 T + c1 x (x^T T) + c2 x' (x'^T T), then (K T) v_l and K T L
    # by the same rank-one update on the right; AT is dropped first, as the
    # right update is the audits' memory peak
    M = _add_outer(0.5 * (r[0] + r[1]) * T, c[:2], A, AT)
    del AT
    KTB = _sum3(lambda j: M[:, j] * B[:, None, j])
    M *= 0.5 * (r[2] + r[3])
    return s1, _add_outer(M, c[2:], KTB, B)


def sequential_chsh_batch(T, s, dirs, biases=None, a=None, b=None):
    """Signed S(A1,B1) and S*(A2,B2) for a stack of square-root scenarios.

    Every stack is component-major, so each operation runs over rows of n
    contiguous values: T is (3, 3, n), with T[i, j] the n values of entry
    (i, j); dirs is a (4, 3, n) array (or four (3, n) arrays) holding the
    directions of the settings x, x', y, y'; s, and biases when given, are
    (4, n) in the same order.  The Bloch vectors a and b, (3, n), enter S1
    only through the biases.

    S* is the Horodecki value of M = K T L, with K = c0 I + c1 x x^T +
    c2 x' x'^T and L the averaged dephasing channels of each side's
    settings.  M is built from rank-one updates, never from K or L:
    K T = c0 T + c1 x (x^T T) + c2 x' (x'^T T) reuses the x^T T rows of
    S1, and the same update on the right with (K T) y and (K T) y' gives M.
    """
    s1, M = _first_pair(T, s, np.asarray(dirs, dtype=float), biases, a, b)
    return s1, _sstar(M)


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
