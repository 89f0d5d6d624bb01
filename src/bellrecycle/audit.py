"""Vectorised sampling audits of the tradeoff and monogamy relations.

Each audit draws random configurations, evaluates the relevant inequality
for every sample, and reports the number of violations together with the
worst margin and the configuration that attained it.  The known saturating
configuration of each relation is evaluated after the random samples, so a
healthy audit reports zero violations and a near-zero worst margin.  The
monogamy audits take (|S1|, S2*) from `bell.sequential_chsh_batch` and
their margins from `monogamy.monogamy_margin`; the tradeoff audit takes R's
roots and D from `observables`, as `reversibility_roots` and `decoherence_array`.

The random samples are drawn and evaluated in chunks of `_CHUNK` (2^12)
rows.  Chunk i draws from its own generator, seeded with
`SeedSequence(seed + offset, spawn_key=(i,))` (the i-th child that
`SeedSequence(seed + offset).spawn` would make), with a fixed offset per
audit name; each generator is made only when its chunk runs.  A chunk's
draws are component-major: uniform Schmidt angles, whose correlation
matrices (3, 3, n) are T = diag(sin 2alpha, -sin 2alpha, 1) from
`bell.schmidt_correlations`, and the kernel's directions (3, n), which
`_random_units` draws by Marsaglia's disc method (exactly uniform on the
sphere, from about 2.7 uniforms a direction) and `_orthogonal_partners`
projects off their partners for the orthogonal audit.  Sampling
in the Schmidt frame loses no generality: a pure state's T is Ra D Rb^T,
S1 and S2* of (T; x, x', y, y') equal those of (D; Ra^T x, Ra^T x',
Rb^T y, Rb^T y'), and isotropic directions keep their joint law under
rotation, so every margin has the same distribution as with random local
rotations.

The chunks run in contiguous blocks, one per usable CPU (at most one per
chunk): the calling process computes the first block itself and a process
pool the others.  Each block reduces every chunk to a `_summary` (rows,
violations, lowest margin and the configuration of its row), so no margin
array leaves the process that made it, and `_fold` folds the summaries in
chunk order, with the fixed rows last, keeping the first worst row.  A
chunk's draws depend only on the seed and its index, and the fold's order
only on the chunk order, so a report is the same, bit for bit, for any
number of workers.  Each process holds one chunk's draws and temporaries
at a time; the caller also keeps one small summary per chunk.  With one
chunk (up to 2^12 samples), one usable CPU or in a daemonic process no
pool starts.  Audits run independently and stay reproducible.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .bell import schmidt_correlations, sequential_chsh_batch
from .errors import DomainError, check_seed
from .monogamy import (EQUAL_STRENGTH_MONOGAMY_BOUND, MARGIN_TOL, ORTHOGONAL_MONOGAMY_BOUND,
                       monogamy_margin)
from .observables import decoherence_array, reversibility_roots
from .optimizer import _usable_cpus

_SEED_OFFSETS = {
    "orthogonal-monogamy": 101,
    "equal-strength-monogamy": 202,
    "tradeoff-chain": 303,
    "conjecture": 404,
}

# rows per chunk of random draws, evaluated at once; each chunk has its own stream
_CHUNK = 1 << 12


@dataclass(frozen=True)
class AuditReport:
    name: str
    samples: int
    worst_margin: float
    violations: int
    worst_config: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _lengths(v: np.ndarray) -> np.ndarray:
    """Length of each column of a component-major (d, n) array."""
    return np.sqrt(sum(c * c for c in v))


def _random_units(rng, n: int) -> np.ndarray:
    """Uniform random unit vectors, shape (3, n), by Marsaglia's disc method.

    Points (u, v) uniform on [-1, 1)^2 are kept, in draw order, while
    s = u^2 + v^2 < 1, and each kept point gives (2u sqrt(1 - s),
    2v sqrt(1 - s), 1 - 2s).  In the disc s is uniform on [0, 1) and the
    angle of (u, v) is uniform and independent of it, so the height 1 - 2s
    is uniform on (-1, 1] and the azimuth uniform: by Archimedes' theorem the
    direction is exactly uniform on the sphere.  A batch of n + n // 3 + 16
    points, pi/4 of which land in the disc, falls short with chance ~1e-11 at
    n = 2^12; the rest are then drawn the same way.
    """
    out = np.empty((3, n))
    done = 0
    while done < n:
        need = n - done
        u, v = rng.uniform(-1.0, 1.0, (2, need + need // 3 + 16))
        s = u * u + v * v
        keep = np.flatnonzero(s < 1.0)[:need]
        u, v, s = u[keep], v[keep], s[keep]
        r = 2 * np.sqrt(1 - s)
        rows = slice(done, done + keep.size)
        out[0, rows], out[1, rows], out[2, rows] = r * u, r * v, 1 - 2 * s
        done += keep.size
    return out


def _project_off(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Each column of g less its component along the unit column of u."""
    return g - (g[0] * u[0] + g[1] * u[1] + g[2] * u[2]) * u


def _orthogonal_partners(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Random unit vectors orthogonal to each column of u, shape (3, n).

    g holds (3, n) isotropic draws, from `_random_units`; each is projected
    off its u, which leaves its angle in the plane normal to u uniform.
    """
    w = _project_off(g, u)
    norms = _lengths(w)
    # a collinear draw is measure-zero; fall back to a deterministic partner
    bad = norms < 1e-12
    if np.any(bad):
        ub = u[:, bad]
        axis = np.where(np.abs(ub[0]) < 0.9, [[1.0], [0.0], [0.0]], [[0.0], [1.0], [0.0]])
        w[:, bad] = np.cross(ub, axis, axis=0)
        norms = _lengths(w)
    # one projection leaves w.u at rounding over |w| (up to 7e-14 in 2^20
    # draws); the second, of a unit vector, leaves it at rounding
    return _project_off(w / norms, u)


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


def _chunk_count(samples: int, seed: int) -> int:
    """Number of chunks of an audit's random draws.

    Raises DomainError for samples < 1 or a negative seed.
    """
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    check_seed(seed)
    return -(-samples // _CHUNK)


def _chunk_rngs(name: str, samples: int, seed: int, chunks: range | None = None):
    """(generator, rows) of each fixed-size chunk of an audit's random draws.

    All chunks, or those whose indices are in `chunks`.  Raises DomainError
    at once for samples < 1 or a negative seed; the generators are made lazily.
    """
    count = _chunk_count(samples, seed)
    entropy = seed + _SEED_OFFSETS[name]
    return ((np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,))),
             min(_CHUNK, samples - i * _CHUNK))
            for i in chunks or range(count))


def _summary(tol: float, margins: np.ndarray, config) -> tuple:
    """(rows, violations below -tol, lowest margin, config of its row) of one chunk."""
    return (margins.size, int(np.count_nonzero(margins < -tol)),
            float(margins.min(initial=math.inf)), config)


def _fold(name: str, summaries) -> AuditReport:
    """One report from the `_summary` of each chunk, in chunk order.

    Adds up the rows and violations and keeps the first lowest margin, with
    its configuration: a later chunk must be strictly lower to replace it,
    as `np.argmin` keeps the first of equal rows.
    """
    samples = violations = 0
    worst, config = math.inf, None
    for rows, bad, low, chunk_config in summaries:
        samples += rows
        violations += bad
        if low < worst:
            worst, config = low, chunk_config
    return AuditReport(name=name, samples=samples, worst_margin=worst,
                       violations=violations, worst_config=config)


def _block(name: str, samples: int, seed: int, chunks: range, tol: float, chunk, *args) -> list:
    """The `_summary` of each chunk in `chunks`, in order, from chunk(rng, rows, *args)."""
    return [_summary(tol, *chunk(rng, n, *args))
            for rng, n in _chunk_rngs(name, samples, seed, chunks)]


def _audit(name: str, tol: float, samples: int, seed: int, fixed, chunk, *args) -> AuditReport:
    """Fold an audit's chunks, split in contiguous blocks over the usable CPUs.

    `fixed` is the (margins, config) of the relation's fixed rows, folded
    after the random ones.  The first block runs here and the others in a
    pool that lives only for this call; the inputs are checked before it starts.
    """
    count = _chunk_count(samples, seed)
    workers = min(_usable_cpus(), count)
    edges = [count * k // workers for k in range(workers + 1)]
    first, *rest = [(name, samples, seed, range(a, b), tol, chunk, *args)
                    for a, b in zip(edges, edges[1:])]
    if not rest:
        summaries = _block(*first)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(rest)) as pool:
            futures = [pool.submit(_block, *block) for block in rest]
            summaries = _block(*first)
            for future in futures:
                summaries += future.result()
    return _fold(name, [*summaries, _summary(tol, *fixed)])


def _monogamy_margins(bound, T, dirs, s):
    """Margins bound - (|S1| + S2*) and the configuration of the worst row."""
    margins = monogamy_margin(bound, *sequential_chsh_batch(T, s, dirs))
    return margins, _config_dict(int(np.argmin(margins)), T, dirs, s)


def _monogamy_chunk(rng, n: int, bound: float, orthogonal: bool, equal_strengths: bool):
    """(margins, worst config) of one chunk of n random configurations.

    Draws Schmidt angles, the directions x, y, x', y' (by Marsaglia's disc
    method, `_random_units`, exactly uniform on the sphere), then the
    strengths.  Each state is taken in its Schmidt frame, T = diag(sin 2alpha,
    -sin 2alpha, 1); unbiased settings read no Bloch vector, so none is
    built.  See the module docstring for why that loses no generality.
    """
    T = schmidt_correlations(rng.uniform(0.0, np.pi / 4, size=n))
    x, y = _random_units(rng, n), _random_units(rng, n)
    gxp, gyp = _random_units(rng, n), _random_units(rng, n)
    if orthogonal:
        xp, yp = _orthogonal_partners(gxp, x), _orthogonal_partners(gyp, y)
    else:
        xp, yp = gxp, gyp
    # strengths of x, x', y, y', or one per side repeated for both settings
    s = rng.uniform(0, 1, (2 if equal_strengths else 4, n))
    if equal_strengths:
        s = np.repeat(s, 2, axis=0)
    return _monogamy_margins(bound, T, np.stack([x, xp, y, yp]), s)


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
    return _audit(name, MARGIN_TOL, samples, seed, _saturating(name, bound),
                  _monogamy_chunk, bound, orthogonal, equal_strengths)


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


def _tradeoff_chain(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The six margins of the tradeoff chain, shape (6, n), each >= 0 for a valid observable."""
    u, v = reversibility_roots(b, s)
    r = 0.5 * u + 0.5 * v
    r2 = r * r
    d = decoherence_array(b, s, u, v)
    return np.stack(
        [
            r2 - (1 - s),          # lower half of the chain
            (1 - s * s) - r2,      # upper half of the chain
            d - s,                 # minimal decoherence dominates strength
            s - d * d,             # strength dominates squared decoherence
            r2 - np.abs(b),        # bias lower-bounds squared reversibility
            r2 + s * s - 0.75,     # complementary lower bound
        ]
    )


def _tradeoff_margins(s: np.ndarray, b: np.ndarray):
    """Smallest margin of the tradeoff chain per observable, and the worst one's config."""
    margins = _tradeoff_chain(s, b).min(axis=0)
    worst = int(np.argmin(margins))
    return margins, {"bias": float(b[worst]), "strength": float(s[worst])}


def _tradeoff_chunk(rng, n: int):
    """(margins, worst config) of one chunk of n random observables."""
    s = rng.uniform(0, 1, n)
    return _tradeoff_margins(s, rng.uniform(-1, 1, n) * (1 - s))


def audit_tradeoff_chain(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Strength/bias/reversibility tradeoffs over random valid observables.

    Checks, within 1e-12: 1-S <= R^2 <= 1-S^2, D >= S >= D^2, |B| <= R^2 and
    R^2 + S^2 >= 3/4.

    Two identities prove it.  With u, v = sqrt((1 +- B)^2 - S^2), R^2 =
    (1 + B^2 - S^2 + uv)/2, so R^2 <= 1 - S^2 and R^2 >= 1 - S say uv <=
    1 - B^2 - S^2 and uv >= (1 - S)^2 - B^2, both sides >= 0 for |B| <= 1 - S.
    Squared: (1 - B^2 - S^2)^2 - u^2 v^2 = 4 B^2 S^2 and u^2 v^2 -
    ((1 - S)^2 - B^2)^2 = 4 S ((1 - S)^2 - B^2), tight iff BS = 0, and iff
    S = 0 or |B| = 1 - S.  D >= S >= D^2 restate them, |B| <= 1 - S <= R^2,
    and R^2 + S^2 - 3/4 >= (S - 1/2)^2 (`test_chain_is_two_identities`).
    """
    # boundary families: projective, trivial and unbiased observables
    boundary = _tradeoff_margins(np.array([1.0, 0.0, 0.5]), np.array([0.0, 0.7, 0.0]))
    return _audit("tradeoff-chain", 1e-12, samples, seed, boundary, _tradeoff_chunk)


def run_all_audits(samples: int = 100_000, seed: int = 1) -> list[AuditReport]:
    return [
        audit_orthogonal_monogamy(samples, seed),
        audit_equal_strength_monogamy(samples, seed),
        audit_tradeoff_chain(samples, seed),
        audit_conjecture(samples, seed),
    ]
