"""Vectorised sampling audits of the tradeoff and monogamy relations.

Each audit draws random configurations, evaluates the relevant inequality
for every sample, and reports the number of violations together with the
worst margin and the configuration that attained it.  The known saturating
configuration of each relation is evaluated after the random samples, so a
healthy audit reports zero violations and a near-zero worst margin.  The
monogamy audits evaluate (|S1|, S2*) with `bell.sequential_chsh_batch`.

The random samples are drawn and evaluated in chunks of `_CHUNK` rows, each
from its own stream spawned from `SeedSequence(seed + offset)`, with a fixed
offset per audit name; only a running worst margin, its configuration and
the violation count outlive a chunk, so memory does not grow with the
sample count.  Audits run independently and stay reproducible.

The samplers write the kernel's component-major layout directly:
directions are (3, n), rotations and correlation matrices (3, 3, n), with
T = Ra diag(s2, -s2, 1) Rb^T summed from outer products of the rotations'
columns.  They make the same generator calls in the same order as an
(n, 3) layout would, so the draws do not depend on the layout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .bell import sequential_chsh_batch
from .errors import DomainError
from .monogamy import ORTHOGONAL_MONOGAMY_BOUND, EQUAL_STRENGTH_MONOGAMY_BOUND

_SEED_OFFSETS = {
    "orthogonal-monogamy": 101,
    "equal-strength-monogamy": 202,
    "tradeoff-chain": 303,
    "conjecture": 404,
}

# rows per chunk of random draws; each chunk has its own SeedSequence stream
_CHUNK = 1 << 16


@dataclass(frozen=True)
class AuditReport:
    name: str
    samples: int
    worst_margin: float
    violations: int
    worst_config: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _components(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n standard normal draws of dimension d as a component-major (d, n) array.

    The draws are those of `rng.normal(size=(n, d))`, in the same order.
    """
    return np.ascontiguousarray(rng.normal(size=(n, d)).T)


def _lengths(v: np.ndarray) -> np.ndarray:
    """Length of each column of a component-major (d, n) array."""
    return np.sqrt(sum(c * c for c in v))


def _random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform random unit vectors, shape (3, n)."""
    v = _components(rng, n, 3)
    return v / _lengths(v)


def _orthogonal_partners(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Random unit vectors orthogonal to each column of u, shape (3, n)."""
    w = _components(rng, u.shape[1], 3)
    w -= (w[0] * u[0] + w[1] * u[1] + w[2] * u[2]) * u
    norms = _lengths(w)
    # a collinear draw is measure-zero; fall back to a deterministic partner
    bad = norms < 1e-12
    if np.any(bad):
        ub = u[:, bad]
        axis = np.where(np.abs(ub[0]) < 0.9, [[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]])
        w[:, bad] = np.cross(ub, axis, axis=0)
        norms = _lengths(w)
    return w / norms


def _random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rotation matrices via normalised quaternions, shape (3, 3, n)."""
    q = _components(rng, n, 4)
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


def _random_pure_state_tensors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Correlation matrices of Haar-like random pure two-qubit states, (3, 3, n).

    T = Ra diag(s2, -s2, 1) Rb^T = s2 (ra0 rb0^T - ra1 rb1^T) + ra2 rb2^T,
    with ra_k and rb_k the columns of the two rotations.
    """
    # sin 2alpha of a Schmidt angle alpha in [0, pi/4]
    s2 = np.sin(2 * rng.uniform(0.0, np.pi / 4, size=n))
    Ra = _random_rotations(rng, n)
    Rb = _random_rotations(rng, n)
    T = Ra[:, None, 0] * Rb[:, 0]
    T -= Ra[:, None, 1] * Rb[:, 1]
    T *= s2
    T += Ra[:, None, 2] * Rb[:, 2]
    return T


def _config_dict(i, T, dirs, s) -> dict[str, Any]:
    x, xp, y, yp = dirs[:, :, i].tolist()
    return {
        "T": T[:, :, i].tolist(),
        "x": x,
        "x_prime": xp,
        "y": y,
        "y_prime": yp,
        "strengths": s[:, i].tolist(),
    }


def _chunk_rngs(name: str, samples: int, seed: int):
    """(generator, rows) of each fixed-size chunk of an audit's random draws.

    Raises DomainError at once for samples < 1; the generators are made lazily.
    """
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    n_chunks = -(-samples // _CHUNK)
    streams = np.random.SeedSequence(seed + _SEED_OFFSETS[name]).spawn(n_chunks)
    return ((np.random.default_rng(stream), min(_CHUNK, samples - i * _CHUNK))
            for i, stream in enumerate(streams))


def _fold(name: str, tol: float, chunks) -> AuditReport:
    """One report from (margins, config of their argmin) per chunk.

    Keeps the sample and violation counts and the first worst margin, with
    its configuration, over all chunks.
    """
    samples = violations = 0
    worst, config = math.inf, None
    for margins, chunk_config in chunks:
        samples += margins.size
        violations += int(np.count_nonzero(margins < -tol))
        low = margins.min(initial=math.inf)
        if low < worst:
            worst, config = float(low), chunk_config
    return AuditReport(name=name, samples=samples, worst_margin=worst,
                       violations=violations, worst_config=config)


def _monogamy_margins(bound, T, dirs, s):
    """Margins bound - (|S1| + S2*) and the configuration of the worst row."""
    s1, sstar = sequential_chsh_batch(T, s, dirs)
    margins = bound - (np.abs(s1) + sstar)
    return margins, _config_dict(int(np.argmin(margins)), T, dirs, s)


def _monogamy_chunk(rng, n: int, bound: float, orthogonal: bool, equal_strengths: bool):
    T = _random_pure_state_tensors(rng, n)
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
    # strengths of x, x', y, y'
    if equal_strengths:
        s = np.repeat(rng.uniform(0, 1, (2, 1, n)), 2, axis=1).reshape(4, n)
    else:
        s = rng.uniform(0, 1, (4, n))
    return _monogamy_margins(bound, T, dirs, s)


def _saturating(name: str, bound: float):
    """The margins of the relation's known saturating configuration, on the singlet."""
    root2 = math.sqrt(2.0)
    if name == "orthogonal-monogamy":
        strength = 2.0 * root2 / 3.0
        dirs = ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                [-1 / root2, -1 / root2, 0.0], [1 / root2, -1 / root2, 0.0])
    else:
        # projective parallel settings saturate both the equal-strength bound and the conjecture
        strength = 1.0
        dirs = ([0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, -1.0, 0.0])
    return _monogamy_margins(bound, -np.eye(3)[:, :, None], np.array(dirs)[:, :, None],
                             np.full((4, 1), strength))


def _monogamy_audit(name: str, bound: float, samples: int, seed: int,
                    orthogonal: bool, equal_strengths: bool) -> AuditReport:
    chunks = (_monogamy_chunk(rng, n, bound, orthogonal, equal_strengths)
              for rng, n in _chunk_rngs(name, samples, seed))
    return _fold(name, 1e-9, itertools.chain(chunks, [_saturating(name, bound)]))


def audit_orthogonal_monogamy(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Orthogonal unbiased configurations obey |S1| + S2* <= 8*sqrt(2)/3."""
    return _monogamy_audit("orthogonal-monogamy", ORTHOGONAL_MONOGAMY_BOUND, samples, seed,
                           orthogonal=True, equal_strengths=False)


def audit_equal_strength_monogamy(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Equal-strength unbiased configurations obey |S1| + S2* <= 4."""
    return _monogamy_audit("equal-strength-monogamy", EQUAL_STRENGTH_MONOGAMY_BOUND, samples, seed,
                           orthogonal=False, equal_strengths=True)


def audit_conjecture(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Arbitrary unbiased configurations obey the conjectured bound 4."""
    return _monogamy_audit("conjecture", EQUAL_STRENGTH_MONOGAMY_BOUND, samples, seed,
                           orthogonal=False, equal_strengths=False)


def _tradeoff_margins(s: np.ndarray, b: np.ndarray):
    """Smallest margin of the tradeoff chain per observable, and the worst one's config."""
    u = np.sqrt(np.clip((1 + b) ** 2 - s * s, 0, None))
    v = np.sqrt(np.clip((1 - b) ** 2 - s * s, 0, None))
    r = 0.5 * u + 0.5 * v
    r2 = r * r
    # D^2 = 2 S^2 / (1 - B^2 + S^2 + uv), the rationalised form of 1 - R^2
    # that observables.decoherence uses; 1 - R^2 cancels as S -> 0
    denom = (1 - b) * (1 + b) + s * s + u * v
    d2 = np.divide(2 * s * s, denom, out=np.zeros_like(denom), where=denom > 0)
    d = np.sqrt(np.clip(d2, 0, 1))
    margins = np.stack(
        [
            r2 - (1 - s),          # lower half of the chain
            (1 - s * s) - r2,      # upper half of the chain
            d - s,                 # minimal decoherence dominates strength
            s - d * d,             # strength dominates squared decoherence
            r2 - np.abs(b),        # bias lower-bounds squared reversibility
            r2 + s * s - 0.75,     # complementary lower bound
        ]
    ).min(axis=0)
    worst = int(np.argmin(margins))
    return margins, {"bias": float(b[worst]), "strength": float(s[worst])}


def _tradeoff_chunk(rng, n: int):
    s = rng.uniform(0, 1, n)
    b = rng.uniform(-1, 1, n) * (1 - s)
    return _tradeoff_margins(s, b)


def audit_tradeoff_chain(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Strength/bias/reversibility tradeoffs over random valid observables.

    Checks, within 1e-12: 1-S <= R^2 <= 1-S^2, D >= S >= D^2, |B| <= R^2 and
    R^2 + S^2 >= 3/4.
    """
    name = "tradeoff-chain"
    chunks = (_tradeoff_chunk(rng, n) for rng, n in _chunk_rngs(name, samples, seed))
    # boundary families: projective, trivial and unbiased observables
    boundary = _tradeoff_margins(np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.7, 0.0]))
    return _fold(name, 1e-12, itertools.chain(chunks, [boundary]))


def run_all_audits(samples: int = 100_000, seed: int = 1) -> list[AuditReport]:
    return [
        audit_orthogonal_monogamy(samples, seed),
        audit_equal_strength_monogamy(samples, seed),
        audit_tradeoff_chain(samples, seed),
        audit_conjecture(samples, seed),
    ]
