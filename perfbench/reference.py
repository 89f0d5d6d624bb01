"""Plain-numpy references the benchmark checks the package's outputs against.

Nothing here calls into bellrecycle: every formula is written out from the
physics (Theta-form CHSH, averaged dephasing transfers, Horodecki S*) so a
kernel that is fast but wrong fails the check instead of passing it.
"""

from __future__ import annotations

import math

import numpy as np

#: Best-known optimum S* at |S1| = 2.4 in unbiased-singlet mode.  Source:
#: `bellrecycle curve --grid 2.4 --budget 200000` at seeds 0 to 4, and at
#: budget 10000 with seeds 0 to 3, on version 0.1.0 (the first benchmarked
#: commit): every run lands within 4e-11 of this value.
MID_BEST_KNOWN = {2.4: 1.4754835237}

S_MAX = 2.0 * math.sqrt(2.0)


def reversibility(bias: float, strength: float) -> float:
    """Maximum reversibility of a square-root measurement of (bias, strength)."""
    r = 0.5 * math.sqrt(max((1 + bias) ** 2 - strength**2, 0.0))
    r += 0.5 * math.sqrt(max((1 - bias) ** 2 - strength**2, 0.0))
    return min(r, 1.0)


def retention(bias: float, strength: float, kind: str, quality: float | None) -> float:
    """Transverse retention factor of one setting under the instrument model."""
    if kind == "square-root":
        return reversibility(bias, strength)
    if kind == "simple-model":
        return 1.0 - strength
    return float(quality)


def setting_transfer(u, up, eta, etap) -> np.ndarray:
    """Average of the dephasing transfers eta*I + (1-eta) u u^T of two settings."""
    u, up = np.asarray(u, float), np.asarray(up, float)
    return 0.5 * (
        (eta + etap) * np.eye(3)
        + (1 - eta) * np.outer(u, u)
        + (1 - etap) * np.outer(up, up)
    )


def theta(a, b, T) -> np.ndarray:
    out = np.empty((4, 4))
    out[0, 0] = 1.0
    out[0, 1:] = b
    out[1:, 0] = a
    out[1:, 1:] = T
    return out


def chsh(th: np.ndarray, settings) -> float:
    """S = <XY> + <XY'> + <X'Y> - <X'Y'> for settings [(bias, strength, unit dir)] * 4."""
    vec = [np.concatenate(([b], s * np.asarray(d, float))) for b, s, d in settings]
    x, xp, y, yp = vec
    return float(x @ th @ y + x @ th @ yp + xp @ th @ y - xp @ th @ yp)


def sstar(M: np.ndarray) -> float:
    """Horodecki value 2*sqrt(s1^2 + s2^2) from numpy's SVD."""
    sv = np.linalg.svd(M, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)


def scenario(a, b, T, settings, kind="square-root", quality=None) -> tuple[float, float]:
    """(S1, S2*) of one recycling round, settings as in `chsh`."""
    eta = [retention(bb, s, kind, quality) for bb, s, _ in settings]
    K = setting_transfer(settings[0][2], settings[1][2], eta[0], eta[1])
    L = setting_transfer(settings[2][2], settings[3][2], eta[2], eta[3])
    return chsh(theta(a, b, T), settings), sstar(K @ np.asarray(T, float) @ L)


def region1(s: float) -> float:
    """Optimal S2* at |S1| = s <= 2 from the parametric form, by bisection.

    S1(r) = 2(1-r)sqrt(1+r) falls monotonically from 2 to 0 on r in [0, 1],
    and S2*(r) = sqrt(4 + (1+r)^2 r).
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * (1.0 - mid) * math.sqrt(1.0 + mid) > s:
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    return math.sqrt(4.0 + (1.0 + r) ** 2 * r)


def region3(s: float) -> float:
    """Optimal S2* at |S1| = s in the high-violation region."""
    return math.sqrt(2.0) - s / 4.0 + math.sqrt(max(2.0 - s / math.sqrt(2.0), 0.0))


def unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rotation matrices, shape (n, 3, 3)."""
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q
