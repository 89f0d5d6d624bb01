"""Vectorised sampling audits of the tradeoff and monogamy relations.

Each audit draws random configurations, checks the relevant inequality
on every sample, and reports the number of violations together with the
worst margin and the configuration that attained it.  The known saturating
configuration of each relation is evaluated after the random samples, so a
healthy audit reports zero violations and a near-zero worst margin.  The
monogamy audits take (|S1|, S2*) from `bell.sequential_chsh_batch` and
their margins from `monogamy.monogamy_margin`; the tradeoff audit takes R's
roots and D from `observables`, as `reversibility_roots` and `decoherence_array`.
Each audit is declared once, with its name, seed offset and tolerance, as a
frozen `_Monogamy` (bound, sampling rule, saturating singlet configuration)
or `_Tradeoff` (boundary observables).  Its `block` summarises a range of
chunks and its `fixed` its fixed rows; `_audit` runs every audit.

The random samples are drawn and evaluated in chunks of `_CHUNK` (2^12)
rows.  Chunk i draws from its own generator, seeded with
`SeedSequence(seed + offset, spawn_key=(i,))` (the i-th child that
`SeedSequence(seed + offset).spawn` would make), with the audit's own
offset; each generator is made only when its chunk runs.  A chunk's
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

The chunks run in `optimizer._fan_out`'s strided blocks, one per usable
CPU (at most one per chunk): with w blocks, block k holds chunks k, k + w,
k + 2w, ...; the calling process computes block 0 itself and a process pool
the others.  Each block reduces every chunk to a `_summary` (rows,
violations, lowest margin and the configuration of its row), so no margin
array leaves the process that made it, and `_fold` folds the summaries in
chunk order, with the fixed rows last, keeping the first worst row.  A
chunk's draws depend only on the seed and its index, and the fold's order
only on the chunk order, so a report is the same, bit for bit, for any
number of workers.  A process holds one block's T and direction arrays
and one chunk's other draws and temporaries at a time; the caller also
keeps one small summary per chunk.  With one chunk (up to 2^12 samples),
one usable CPU or in a daemonic process no pool starts.  Audits run
independently and stay reproducible.

Every monogamy row, random or fixed, goes through `_monogamy_summary`,
which runs the kernel on only the few rows that can decide a summary.
Local unital channels only contract: K = c0 I + c1 x x^T +
c2 x' x'^T, with c0 = (R_x + R_x')/2 and c_k = (1 - R_k)/2, is symmetric
positive semidefinite with ||K||_2 <= c0 + c1 + c2 = 1, and so is L.  Each
singular value of K T L is then at most T's, so S2* is at most the
Horodecki value S*(T) (R., P. & M. Horodecki, Phys. Lett. A 200, 340,
1995), which for the Schmidt-frame T, with singular values (1, sin 2alpha,
sin 2alpha), is 2 sqrt(1 + sin^2 2alpha).  A row's margin is therefore at
least its floor, bound - (|S1| + 2 sqrt(1 + T00^2)), with S1 from the
kernel's own `bell._s1`.  `_monogamy_summary` runs the kernel on the 32
rows of lowest floor, then on every row whose floor is within 1e-12 (far
above the kernel's ~4e-14 error) of max(their lowest margin, -tol).  The
rows left out, about 95 % of a chunk, are neither violations nor the lowest
row, so every summary, and so every report, is exactly the whole chunk's.
The singlet's T = -I has the Schmidt-frame singular values at alpha = pi/4,
so the floor holds for the saturating rows too.  A block draws all its
chunks into one T array and one direction array: with the kernel on so few
rows, a chunk that allocated its own made glibc trim the heap after each
chunk and fault it back in, some 7,300 minor page faults per 2^16-sample
`run_all_audits` in one process (glibc 2.36).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Any

import numpy as np

from .bell import _s1, schmidt_correlations, sequential_chsh_batch
from .errors import DomainError, _check_integer, check_seed
from .monogamy import (EQUAL_STRENGTH_MONOGAMY_BOUND, MARGIN_TOL, ORTHOGONAL_MONOGAMY_BOUND,
                       monogamy_margin)
from .observables import decoherence_array, reversibility_roots
from .optimizer import _fan_out

# rows per chunk of random draws, evaluated at once; each chunk has its own stream
_CHUNK = 1 << 12
# rows of a monogamy chunk that reach the kernel first, those of lowest bound
_PROBE = 32
# slack on the margin bound, far above the kernel's ~4e-14 error in S*
_BOUND_SLACK = 1e-12


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


def _random_units(rng, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform random unit vectors, shape (3, n), by Marsaglia's disc method.

    Points (u, v) uniform on [-1, 1)^2 are kept, in draw order, while
    s = u^2 + v^2 < 1, and each kept point gives (2u sqrt(1 - s),
    2v sqrt(1 - s), 1 - 2s).  In the disc s is uniform on [0, 1) and the
    angle of (u, v) is uniform and independent of it, so the height 1 - 2s
    is uniform on (-1, 1] and the azimuth uniform: by Archimedes' theorem the
    direction is exactly uniform on the sphere.  A batch of n + n // 3 + 16
    points, pi/4 of which land in the disc, falls short with chance ~1e-11 at
    n = 2^12; the rest are then drawn the same way.  Written into `out`, a
    (3, n) array, when one is given.
    """
    if out is None:
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
    return {"T": T[:, :, i].tolist(), "x": x, "x_prime": xp, "y": y, "y_prime": yp,
            "strengths": s[:, i].tolist()}


def _chunk_rngs(audit, samples: int, seed: int, chunks: range):
    """(generator, rows) of each chunk in `chunks` of an audit's random draws, made lazily."""
    entropy = seed + audit.offset
    return ((np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,))),
             min(_CHUNK, samples - i * _CHUNK))
            for i in chunks)


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


def _audit(audit, samples: int, seed: int) -> AuditReport:
    """Fold an audit's chunks, run in `_fan_out`'s blocks, and then its fixed rows.

    Samples that are not an integer of at least 1, or a seed that is not a
    non-negative integer, raise DomainError before any work starts.
    """
    samples = _check_integer("samples", samples)
    if samples < 1:
        raise DomainError(f"samples must be at least 1, got {samples}")
    seed = check_seed(seed)
    summaries = _fan_out(partial(audit.block, samples, seed), range(-(-samples // _CHUNK)))
    return _fold(audit.name, [*summaries, audit.fixed()])


def _margin_floor(bound, T, s1):
    """A lower bound on each margin bound - (|S1| + S2*) of a Schmidt-frame stack.

    S2* <= S*(T) = 2 sqrt(1 + T[0, 0]^2) for T = diag(sin 2alpha, -sin 2alpha,
    1); see the module docstring.
    """
    return monogamy_margin(bound, s1, 2 * np.sqrt(1 + T[0, 0] * T[0, 0]))


def _monogamy_summary(tol: float, bound: float, T, dirs, s) -> tuple:
    """The `_summary` of a stack of Schmidt-frame rows, exactly as if every row were evaluated.

    The kernel runs on the `_PROBE` rows of lowest `_margin_floor`, giving a
    lowest margin m, and then on every other row whose floor is at most
    max(m, -tol) + `_BOUND_SLACK` (or not a number).  A row left out has a
    margin above max(m, -tol), so it is neither a violation nor the lowest
    row, and a tie still goes to the first row, as with `np.argmin`.
    """
    margins = np.full(s.shape[1], np.inf)

    def evaluate(rows):
        sub = sequential_chsh_batch(T[:, :, rows], s[:, rows], dirs[:, :, rows])
        margins[rows] = monogamy_margin(bound, *sub)

    floor = _margin_floor(bound, T, _s1(T, s, dirs)[0])
    probe = np.argpartition(floor, min(floor.size, _PROBE) - 1)[:_PROBE]
    evaluate(probe)
    rest = ~(floor > max(margins[probe].min(), -tol) + _BOUND_SLACK)
    rest[probe] = False
    evaluate(np.flatnonzero(rest))
    return _summary(tol, margins, _config_dict(int(np.argmin(margins)), T, dirs, s))


@dataclass(frozen=True)
class _Monogamy:
    """A monogamy audit: unbiased configurations obey |S1| + S2* <= bound.

    `orthogonal` draws x' orthogonal to x and y' to y; `equal_strengths`
    draws one strength per side, shared by its two settings.  `strength` and
    `saturating`, the directions (x, x', y, y'), give the configuration that
    meets the bound on the singlet.
    """

    name: str
    offset: int
    bound: float
    orthogonal: bool
    equal_strengths: bool
    strength: float
    saturating: tuple
    tol: float = MARGIN_TOL

    def chunk(self, rng, n: int, T, dirs) -> tuple:
        """The `_summary` of n random configurations, drawn into T (3, 3, n) and dirs (4, 3, n).

        Draws Schmidt angles, the directions x, y, x', y' (`_random_units`),
        then the strengths.  Each state is taken in its Schmidt frame; unbiased
        settings read no Bloch vector, so none is built.
        """
        schmidt_correlations(rng.uniform(0.0, np.pi / 4, size=n), out=T)
        for k in (0, 2, 1, 3):
            _random_units(rng, n, out=dirs[k])
        if self.orthogonal:
            dirs[1] = _orthogonal_partners(dirs[1], dirs[0])
            dirs[3] = _orthogonal_partners(dirs[3], dirs[2])
        # strengths of x, x', y, y', or one per side repeated for both settings
        s = rng.uniform(0, 1, (2 if self.equal_strengths else 4, n))
        if self.equal_strengths:
            s = np.repeat(s, 2, axis=0)
        return _monogamy_summary(self.tol, self.bound, T, dirs, s)

    def block(self, samples: int, seed: int, chunks: range) -> list:
        """The `_summary` of each chunk in `chunks`, in order, drawn into one T and one dirs."""
        T, dirs = np.empty((3, 3, _CHUNK)), np.empty((4, 3, _CHUNK))
        return [self.chunk(rng, n, T[:, :, :n], dirs[:, :, :n])
                for rng, n in _chunk_rngs(self, samples, seed, chunks)]

    def fixed(self) -> tuple:
        """The `_summary` of the saturating configuration, on the singlet T = -I."""
        return _monogamy_summary(self.tol, self.bound, -np.eye(3)[:, :, None],
                                 np.array(self.saturating)[:, :, None],
                                 np.full((4, 1), self.strength))


_ROOT_HALF = 1 / math.sqrt(2.0)
# projective parallel settings saturate both the equal-strength bound and the conjecture
_PARALLEL = ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, 0.0))
_ORTHOGONAL_MONOGAMY = _Monogamy(
    "orthogonal-monogamy", 101, ORTHOGONAL_MONOGAMY_BOUND, orthogonal=True, equal_strengths=False,
    strength=2.0 * math.sqrt(2.0) / 3.0,
    saturating=((0.0, 1.0, 0.0), (1.0, 0.0, 0.0),
                (-_ROOT_HALF, -_ROOT_HALF, 0.0), (_ROOT_HALF, -_ROOT_HALF, 0.0)))
_EQUAL_STRENGTH_MONOGAMY = _Monogamy(
    "equal-strength-monogamy", 202, EQUAL_STRENGTH_MONOGAMY_BOUND, orthogonal=False,
    equal_strengths=True, strength=1.0, saturating=_PARALLEL)
_CONJECTURE = _Monogamy(
    "conjecture", 404, EQUAL_STRENGTH_MONOGAMY_BOUND, orthogonal=False, equal_strengths=False,
    strength=1.0, saturating=_PARALLEL)


def audit_orthogonal_monogamy(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Orthogonal unbiased configurations obey |S1| + S2* <= 8*sqrt(2)/3."""
    return _audit(_ORTHOGONAL_MONOGAMY, samples, seed)


def audit_equal_strength_monogamy(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Equal-strength unbiased configurations obey |S1| + S2* <= 4."""
    return _audit(_EQUAL_STRENGTH_MONOGAMY, samples, seed)


def audit_conjecture(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Arbitrary unbiased configurations obey the conjectured bound 4."""
    return _audit(_CONJECTURE, samples, seed)


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


@dataclass(frozen=True)
class _Tradeoff:
    """The tradeoff-chain audit, with its boundary observables' (strengths, biases)."""

    name: str
    offset: int
    tol: float
    strengths: tuple
    biases: tuple

    def block(self, samples: int, seed: int, chunks: range) -> list:
        """The `_summary` of each chunk in `chunks` of random observables, in order."""
        return [_summary(self.tol, *_tradeoff_chunk(rng, n))
                for rng, n in _chunk_rngs(self, samples, seed, chunks)]

    def fixed(self) -> tuple:
        """The `_summary` of the boundary observables."""
        margins = _tradeoff_margins(np.array(self.strengths), np.array(self.biases))
        return _summary(self.tol, *margins)


# boundary families: projective, trivial and unbiased observables
_TRADEOFF_CHAIN = _Tradeoff("tradeoff-chain", 303, 1e-12, strengths=(1.0, 0.0, 0.5),
                            biases=(0.0, 0.7, 0.0))


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
    return _audit(_TRADEOFF_CHAIN, samples, seed)


def run_all_audits(samples: int = 100_000, seed: int = 1) -> list[AuditReport]:
    return [
        audit_orthogonal_monogamy(samples, seed),
        audit_equal_strength_monogamy(samples, seed),
        audit_tradeoff_chain(samples, seed),
        audit_conjecture(samples, seed),
    ]
