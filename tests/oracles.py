"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the downstream-CHSH
oracle maximises the CHSH functional directly on a grid of projective
settings, the state oracle builds correlation tensors from explicit
4-component state vectors, and the maximisers locate function maxima by
dense grids plus local refinement.
"""

from __future__ import annotations

import numpy as np

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


def theta_from_state_vector(psi) -> np.ndarray:
    """Correlation tensor Theta of a pure two-qubit state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    rho = np.outer(psi, psi.conj())
    theta = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            theta[mu, nu] = np.trace(rho @ np.kron(_PAULI[mu], _PAULI[nu])).real
    return theta


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
