"""CHSH functionals and the Horodecki criterion.

Includes the singular values of 3x3 correlation matrices, single and
stacked (numpy's LAPACK SVD), the raw CHSH value of four observables on a
two-qubit state, the Horodecki-optimal CHSH value reachable downstream,
and the tight strength/angle upper bound on the singlet CHSH together
with its 3x3 W-matrix form.

`sequential_chsh_batch` is the one batched form of the sequential
scenario: it maps stacks of correlation matrices and square-root settings
to (S(A1,B1), S*(A2,B2)).  Its stacks are component-major (directions
(3, n), correlation matrices (3, 3, n)), so every step is an elementwise
operation over rows of n contiguous values: K T L is built from rank-one
updates of T, G = M^T M from six column dot products, and S* from the
closed form in `_sstar`.  Each setting's reversibility R comes from
`observables.reversibility_roots`, the array form of the scalar path's R.
The optimizer's evaluator and the three monogamy audits call it.

The scalar object path (`chsh_value`, `horodecki_sstar` and
`monogamy.evaluate_scenario`) stays separate and handles one configuration
at a time: it builds each setting matrix (and `instruments` each channel)
from Python floats in one `np.array` call, and takes S* from LAPACK's SVD
(`svd3`).  That SVD is independent of the closed form, so the scalar path
is the reference the tests compare the batched kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NegativeRadicand
from .observables import Observable, reversibility_roots, scaled_direction
from .states import TwoQubitState, check_contraction

#: Tsirelson's bound 2 sqrt(2), the largest |S| any two-qubit state reaches.
S_MAX = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class MeasurementPair:
    """The two observables one observer chooses between with equal odds."""

    first: Observable
    second: Observable


def _settings(pair: MeasurementPair) -> np.ndarray:
    """(4, 2) columns (B, S n) of a pair: <XY> = (B_X, S_X x^T) Theta (B_Y; S_Y y)."""
    f, g = pair.first, pair.second
    (fx, fy, fz), (gx, gy, gz) = f.direction.tolist(), g.direction.tolist()
    sf, sg = f.strength, g.strength
    return np.array(
        (f.bias, g.bias, sf * fx, sg * gx, sf * fy, sg * gy, sf * fz, sg * gz)
    ).reshape(4, 2)


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

    One LAPACK call over the stack; `_sstar` (behind `sequential_chsh_batch`)
    sends its near-degenerate rows here by this module-level name.
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


def schmidt_correlations(alpha: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Correlation matrices T = diag(sin 2alpha, -sin 2alpha, 1), shape (3, 3, n),
    of a stack of Schmidt states (see `schmidt_tensors`); alpha must lie in [0, pi/4].

    Written into `out`, a (3, 3, n) array, when one is given."""
    s2 = np.sin(2 * alpha)
    T = np.empty((3, 3, alpha.shape[0])) if out is None else out
    T.fill(0.0)
    T[0, 0] = s2
    T[1, 1] = -s2
    T[2, 2] = 1.0
    return T


def schmidt_tensors(alpha: np.ndarray):
    """Bloch vectors a, b and correlation matrices T of a stack of Schmidt states.

    cos(alpha)|00> + sin(alpha)|11>, with alpha clipped to [0, pi/4]: a = b
    along +z with length cos(2 alpha), T = diag(sin 2alpha, -sin 2alpha, 1).
    Component-major: a and b are (3, n) and T is (3, 3, n).  a and b are one
    shared array, so callers must treat them as read-only.
    """
    alpha = np.clip(alpha, 0.0, np.pi / 4)
    a = np.zeros((3, alpha.shape[0]))
    a[2] = np.cos(2 * alpha)
    return a, a, schmidt_correlations(alpha)


def _add_outer(M, c, U, V):
    """M + c_0 U_0 V_0^T + c_1 U_1 V_1^T, in place, for (2, 3, n) stacks U and V."""
    for k in range(2):
        M += (c[k] * U[k])[:, None] * V[k]
    return M


def _s1(T, s, D, biases=None, a=None, b=None):
    """Signed S(A1,B1) of a stack, and the rows AT[k] = u_k^T T over u = (x, x').

    The arguments are `sequential_chsh_batch`'s, with the directions as one
    (4, 3, n) array D; that kernel and the monogamy audits' bound share it.
    """
    A, B = D[:2], D[2:]
    AT = _sum3(lambda i: A[:, i, None] * T[i])
    terms = _sum3(lambda j: AT[:, None, j] * B[:, j])
    terms *= s[:2, None] * s[2:]
    if biases is not None:
        ua = _sum3(lambda i: A[:, i] * a[i])
        bv = _sum3(lambda i: B[:, i] * b[i])
        terms += biases[:2, None] * biases[2:]
        terms += biases[:2, None] * s[2:] * bv
        terms += (s[:2] * ua)[:, None] * biases[2:]
    return terms[0, 0] + terms[0, 1] + terms[1, 0] - terms[1, 1], AT


def sequential_chsh_batch(T, s, dirs, biases=None, a=None, b=None):
    """Signed S(A1,B1) and S*(A2,B2) for a stack of square-root scenarios.

    Every stack is component-major, so each operation runs over rows of n
    contiguous values: T is (3, 3, n), with T[i, j] the n values of entry
    (i, j); dirs is a (4, 3, n) array (or four (3, n) arrays) holding the
    directions of the settings x, x', y, y'; s, and biases when given, are
    (4, n) in the same order.  The Bloch vectors a and b, (3, n), enter S1
    only through the biases.

    S* is the Horodecki value of M = K T L, with K = c0 I + c1 x x^T +
    c2 x' x'^T, c0 = (R_x + R_x') / 2 and c_k = (1 - R_k) / 2 from the
    settings' reversibilities, and L the same for y and y'.  M is built
    from rank-one updates, never from K or L:
    K T = c0 T + c1 x (x^T T) + c2 x' (x'^T T) reuses the x^T T rows that
    `_s1` returns with S1, and the same update on the right with (K T) y
    and (K T) y' gives M.
    Rows are independent, so a stack may be evaluated in any split of its
    rows with the same result; the audits pass blocks of 2^12 rows.
    """
    D = np.asarray(dirs, dtype=float)
    A, B = D[:2], D[2:]
    s1, AT = _s1(T, s, D, biases, a, b)
    u, v = reversibility_roots(biases, s)
    r = u if biases is None else 0.5 * u + 0.5 * v
    c = 0.5 * (1 - r)
    # K T = c0 T + c1 x (x^T T) + c2 x' (x'^T T), then (K T) v_l and K T L
    # by the same rank-one update on the right
    M = _add_outer(0.5 * (r[0] + r[1]) * T, c[:2], A, AT)
    KTB = _sum3(lambda j: M[:, j] * B[:, None, j])
    M *= 0.5 * (r[2] + r[3])
    return s1, _sstar(_add_outer(M, c[2:], KTB, B))


def horodecki_sstar(T) -> float:
    """Optimal downstream CHSH value 2*sqrt(s1^2 + s2^2) of a correlation matrix."""
    s1, s2, _ = svd3(T)
    check_contraction(s1)
    return 2.0 * math.sqrt(s1 * s1 + s2 * s2)


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two direction vectors, stable near 0 and pi.

    atan2(|u x v|, u . v) of the two vectors after `observables.scaled_direction`.
    """
    (ux, uy, uz), (vx, vy, vz) = scaled_direction(u), scaled_direction(v)
    cross = math.hypot(uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
    return math.atan2(cross, ux * vx + uy * vy + uz * vz)


@dataclass(frozen=True)
class WMatrix:
    """The 3x3 strength/relative-angle matrix of the singlet CHSH form.

    Non-finite entries raise DomainError.
    """

    entries: np.ndarray = field(repr=False)
    angle_theta: float
    angle_phi: float

    def __post_init__(self):
        if not np.isfinite(self.entries).all():
            raise DomainError(f"W entries {self.entries.tolist()} are not all finite")
        self.entries.setflags(write=False)


def _check_strengths_and_angles(strengths, angles) -> None:
    """DomainError unless every strength lies in [0, 1] and every angle is finite."""
    for s in strengths:
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"strength {s} outside [0, 1]")
    for angle in angles:
        if not math.isfinite(angle):
            raise DomainError(f"angle {angle} is not finite")


def w_matrix(sx: float, sxp: float, sy: float, syp: float, theta: float, phi: float) -> WMatrix:
    """Build the W matrix for strengths (sx, sxp, sy, syp) and pair angles.

    theta is the angle between the two settings of the first observer, phi
    between those of the second; only the upper 2x2 block is nonzero.
    Raises DomainError for a strength outside [0, 1] or a non-finite angle.
    """
    _check_strengths_and_angles((sx, sxp, sy, syp), (theta, phi))
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
    """Tight upper bound on |CHSH| for unbiased observables on the singlet.

    Raises DomainError for a strength outside [0, 1] or a non-finite angle.
    """
    _check_strengths_and_angles((sx, sxp, sy, syp), (theta, phi))
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
