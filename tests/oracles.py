"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the downstream-CHSH
oracle maximises the CHSH functional directly on a grid of projective
settings, the state oracle builds correlation tensors from explicit
4-component state vectors, the density-matrix oracle sums the 16 Kronecker
products sigma_mu (x) sigma_nu one at a time, the dephasing oracle builds a transfer matrix
from numpy's identity and outer product, and the maximisers locate function
maxima by dense grids plus local refinement.  The whole-chunk audit
sampler draws each chunk's random configurations with its own helpers,
which make each draw and its transform in one step, builds each Schmidt-frame
T itself, and evaluates the chunk at once; its quaternion rotations make the
rotated pure states that tests hold the Schmidt-frame sampling against.
The reversibility R and the chart strength sqrt(1 - r^2) are evaluated in
40-digit `mpmath`, and the tradeoff chain's margins in 50-digit, at the exact
values of their float inputs, so a test can hold the float functions to a
few units in the last place.
"""

from __future__ import annotations

import itertools

import mpmath
import numpy as np

from bellrecycle import audit
from bellrecycle.monogamy import EQUAL_STRENGTH_MONOGAMY_BOUND, ORTHOGONAL_MONOGAMY_BOUND

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def grid_search_sstar(T, step_deg: float = 2.0) -> float:
    """Best CHSH of projective settings on a zero-Bloch state, by grid search.

    The frame is rotated so T is diagonal; the optimal settings then lie in
    the plane of the two leading singular directions, so Bob's two settings
    are gridded by one angle each at `step_deg` resolution while Alice's
    optimal settings for each Bob pair are exact: S = |T(y+y')| + |T(y-y')|.
    """
    T = np.asarray(T, dtype=float)
    s = np.linalg.svd(T, compute_uv=False)
    angles = np.deg2rad(np.arange(0.0, 180.0, step_deg))
    cos, sin = np.cos(angles), np.sin(angles)
    # y(b) = cos(b) v1 + sin(b) v2 in the diagonal frame; D y = (s1 cos b, s2 sin b)
    u = np.stack([s[0] * cos, s[1] * sin], axis=1)
    plus = u[:, None, :] + u[None, :, :]
    minus = u[:, None, :] - u[None, :, :]
    S = np.linalg.norm(plus, axis=2) + np.linalg.norm(minus, axis=2)
    return float(S.max())


def density_matrix_kron_sum(theta) -> np.ndarray:
    """rho = sum over mu, nu of Theta[mu, nu] sigma_mu (x) sigma_nu, over 4."""
    rho = np.zeros((4, 4), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            rho += theta[mu, nu] * np.kron(_PAULI[mu], _PAULI[nu])
    return rho / 4.0


def dephasing_transfer(eta: float, axis) -> np.ndarray:
    """eta*I + (1 - eta) n n^T; a two-setting observer averages two of these."""
    axis = np.asarray(axis, dtype=float)
    return eta * np.eye(3) + (1.0 - eta) * np.outer(axis, axis)


def theta_from_state_vector(psi) -> np.ndarray:
    """Correlation tensor Theta of a pure two-qubit state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    rho = np.outer(psi, psi.conj())
    theta = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            theta[mu, nu] = np.trace(rho @ np.kron(_PAULI[mu], _PAULI[nu])).real
    return theta


def mp_reversibility(b: float, s: float) -> float:
    """R = sqrt((1 + b)^2 - s^2)/2 + sqrt((1 - b)^2 - s^2)/2 of floats b, s, at 40 digits.

    A radicand below zero (s rounded past 1 - |b|) counts as zero.
    """
    with mpmath.workdps(40):
        b, s = mpmath.mpf(b), mpmath.mpf(s)
        roots = (mpmath.sqrt(max((1 + c) ** 2 - s**2, 0)) for c in (b, -b))
        return float(sum(roots) / 2)


def mp_tradeoff_chain(b: float, s: float) -> list[float]:
    """The six tradeoff-chain margins of floats b, s at 50 digits, in `audit._tradeoff_chain`'s
    order, from R = sqrt((1 + b)^2 - s^2)/2 + sqrt((1 - b)^2 - s^2)/2 and D = sqrt(1 - R^2)."""
    with mpmath.workdps(50):
        b, s = mpmath.mpf(b), mpmath.mpf(s)
        r2 = (sum(mpmath.sqrt(max((1 + c) ** 2 - s**2, 0)) for c in (b, -b)) / 2) ** 2
        d = mpmath.sqrt(max(1 - r2, 0))
        margins = (r2 - (1 - s), (1 - s**2) - r2, d - s, s - d**2, r2 - abs(b),
                   r2 + s**2 - mpmath.mpf(3) / 4)
        return [float(m) for m in margins]


def mp_chart_strength(r: float, alpha: float) -> float:
    """sqrt(1 - r^2) cos(alpha) of floats r, alpha, at 40 digits."""
    with mpmath.workdps(40):
        r = mpmath.mpf(r)
        return float(mpmath.sqrt(1 - r**2) * mpmath.cos(alpha))


def grid_refine_max(fn, lo, hi, coarse: int = 401, refine_rounds: int = 30):
    """Maximise fn over a box by a dense grid followed by shrinking grids."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    xs = np.linspace(lo[0], hi[0], coarse)
    ys = np.linspace(lo[1], hi[1], coarse)
    vals = np.array([[fn(x, y) for y in ys] for x in xs])
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    cx, cy = xs[i], ys[j]
    span = np.array([xs[1] - xs[0], ys[1] - ys[0]]) * 2
    best = vals[i, j]
    for _ in range(refine_rounds):
        xs = np.clip(np.linspace(cx - span[0], cx + span[0], 21), lo[0], hi[0])
        ys = np.clip(np.linspace(cy - span[1], cy + span[1], 21), lo[1], hi[1])
        vals = np.array([[fn(x, y) for y in ys] for x in xs])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        cx, cy, best = xs[i], ys[j], vals[i, j]
        span *= 0.35
    return best, (cx, cy)


def _lengths(v: np.ndarray) -> np.ndarray:
    return np.sqrt(sum(c * c for c in v))


def _random_units(rng, n: int) -> np.ndarray:
    # Marsaglia (1972): a point (u, v) uniform in the unit disc, s = u^2 + v^2,
    # gives the unit vector (2u sqrt(1 - s), 2v sqrt(1 - s), 1 - 2s); draws of
    # r + r // 3 + 16 points in the square are repeated until n lie in the disc
    kept = np.empty((2, 0))
    while kept.shape[1] < n:
        r = n - kept.shape[1]
        points = rng.uniform(-1.0, 1.0, (2, r + r // 3 + 16))
        inside = points[:, (points ** 2).sum(axis=0) < 1.0]
        kept = np.concatenate([kept, inside[:, :r]], axis=1)
    s = (kept ** 2).sum(axis=0)
    root = np.sqrt(1 - s)
    return np.concatenate([2 * kept * root, [1 - 2 * s]])


def _orthogonal_partners(rng, u: np.ndarray) -> np.ndarray:
    w = _random_units(rng, u.shape[1])
    w -= (w[0] * u[0] + w[1] * u[1] + w[2] * u[2]) * u
    norms = _lengths(w)
    bad = norms < 1e-12
    if np.any(bad):
        ub = u[:, bad]
        axis = np.where(np.abs(ub[0]) < 0.9, [[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]])
        w[:, bad] = np.cross(ub, axis, axis=0)
        norms = _lengths(w)
    w /= norms
    # Gram-Schmidt twice, so w.u is at rounding level even where w was short
    w -= (w[0] * u[0] + w[1] * u[1] + w[2] * u[2]) * u
    return w


def _random_rotations(rng, n: int) -> np.ndarray:
    q = rng.normal(size=(4, n))
    q /= _lengths(q)
    w, x, y, z = q
    R = np.empty((3, 3, n))
    R[0, 0] = 1 - 2 * (y * y + z * z)
    R[0, 1] = 2 * (x * y - z * w)
    R[0, 2] = 2 * (x * z + y * w)
    R[1, 0] = 2 * (x * y + z * w)
    R[1, 1] = 1 - 2 * (x * x + z * z)
    R[1, 2] = 2 * (y * z - x * w)
    R[2, 0] = 2 * (x * z - y * w)
    R[2, 1] = 2 * (y * z + x * w)
    R[2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _random_pure_state_tensors(rng, n: int) -> np.ndarray:
    s2 = np.sin(2 * rng.uniform(0.0, np.pi / 4, size=n))
    Ra = _random_rotations(rng, n)
    Rb = _random_rotations(rng, n)
    T = Ra[:, None, 0] * Rb[:, 0]
    T -= Ra[:, None, 1] * Rb[:, 1]
    T *= s2
    T += Ra[:, None, 2] * Rb[:, 2]
    return T


def _monogamy_chunk(rng, n: int, bound: float, orthogonal: bool, equal_strengths: bool):
    # each pure state in its Schmidt frame, T = diag(sin 2alpha, -sin 2alpha, 1)
    s2 = np.sin(2 * rng.uniform(0.0, np.pi / 4, size=n))
    T = np.zeros((3, 3, n))
    T[0, 0], T[1, 1], T[2, 2] = s2, -s2, 1.0
    # directions of x, x', y, y', drawn in the order x, y, x', y'
    dirs = np.empty((4, 3, n))
    dirs[0] = _random_units(rng, n)
    dirs[2] = _random_units(rng, n)
    if orthogonal:
        dirs[1] = _orthogonal_partners(rng, dirs[0])
        dirs[3] = _orthogonal_partners(rng, dirs[2])
    else:
        dirs[1] = _random_units(rng, n)
        dirs[3] = _random_units(rng, n)
    if equal_strengths:
        s = np.repeat(rng.uniform(0, 1, (2, 1, n)), 2, axis=1).reshape(4, n)
    else:
        s = rng.uniform(0, 1, (4, n))
    return audit._monogamy_margins(bound, T, dirs, s)


def _tradeoff_chunk(rng, n: int):
    s = rng.uniform(0, 1, n)
    b = rng.uniform(-1, 1, n) * (1 - s)
    return audit._tradeoff_margins(s, b)


#: (bound, orthogonal directions, equal strengths) of each monogamy audit
MONOGAMY_AUDITS = {
    "orthogonal-monogamy": (ORTHOGONAL_MONOGAMY_BOUND, True, False),
    "equal-strength-monogamy": (EQUAL_STRENGTH_MONOGAMY_BOUND, False, True),
    "conjecture": (EQUAL_STRENGTH_MONOGAMY_BOUND, False, False),
}


def whole_chunks(name: str, samples: int, seed: int) -> list:
    """(margins, worst config) of each whole chunk of an audit's random rows."""
    rngs = audit._chunk_rngs(name, samples, seed)
    if name == "tradeoff-chain":
        return [_tradeoff_chunk(rng, n) for rng, n in rngs]
    return [_monogamy_chunk(rng, n, *MONOGAMY_AUDITS[name]) for rng, n in rngs]


def whole_chunk_audits(samples: int, seed: int) -> list:
    """The four reports of `audit.run_all_audits`, each chunk evaluated whole."""
    reports = []
    for name in ("orthogonal-monogamy", "equal-strength-monogamy", "tradeoff-chain", "conjecture"):
        if name == "tradeoff-chain":
            tol = 1e-12
            tail = audit._tradeoff_margins(np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.7, 0.0]))
        else:
            tol = 1e-9
            tail = audit._saturating(name, MONOGAMY_AUDITS[name][0])
        chunks = whole_chunks(name, samples, seed)
        summaries = [audit._summary(tol, *chunk) for chunk in itertools.chain(chunks, [tail])]
        reports.append(audit._fold(name, summaries))
    return reports
