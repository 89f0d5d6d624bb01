"""Vectorised sampling audits of the tradeoff and monogamy relations.

Each audit draws a large batch of random configurations, evaluates the
relevant inequality for every sample, and reports the number of violations
together with the worst margin and the configuration that attained it.  The
known saturating configuration of each relation is appended to the sample
set, so a healthy audit reports zero violations and a near-zero worst margin.
The monogamy audits evaluate (|S1|, S2*) with `bell.sequential_chsh_batch`.

Per-audit seeds derive from the caller's base seed plus a fixed offset per
audit name, so audits can run independently (or in parallel) and stay
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bell import schmidt_tensors, sequential_chsh_batch
from .monogamy import ORTHOGONAL_MONOGAMY_BOUND, EQUAL_STRENGTH_MONOGAMY_BOUND

_SEED_OFFSETS = {
    "orthogonal-monogamy": 101,
    "equal-strength-monogamy": 202,
    "tradeoff-chain": 303,
    "conjecture": 404,
}


@dataclass(frozen=True)
class AuditReport:
    name: str
    samples: int
    worst_margin: float
    violations: int
    worst_config: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "violations": self.violations,
            "worst_config": self.worst_config,
        }


def _random_units(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _orthogonal_partners(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Random unit vectors orthogonal to each row of u."""
    w = rng.normal(size=u.shape)
    w -= np.einsum("ni,ni->n", w, u)[:, None] * u
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    # a collinear draw is measure-zero; fall back to a deterministic partner
    bad = norms[:, 0] < 1e-12
    if np.any(bad):
        alt = np.cross(u[bad], np.where(np.abs(u[bad, :1]) < 0.9, [1.0, 0, 0], [0, 1.0, 0]))
        w[bad] = alt
        norms = np.linalg.norm(w, axis=1, keepdims=True)
    return w / norms


def _random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rotation matrices via normalised quaternions."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    R = np.empty((n, 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - z * w)
    R[:, 0, 2] = 2 * (x * z + y * w)
    R[:, 1, 0] = 2 * (x * y + z * w)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - x * w)
    R[:, 2, 0] = 2 * (x * z - y * w)
    R[:, 2, 1] = 2 * (y * z + x * w)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def _random_pure_state_tensors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Correlation matrices of Haar-like random pure two-qubit states."""
    T0 = schmidt_tensors(rng.uniform(0.0, np.pi / 4, size=n))[2]
    Ra = _random_rotations(rng, n)
    Rb = _random_rotations(rng, n)
    return Ra @ T0 @ Rb.transpose(0, 2, 1)


def _config_dict(i, T, x, xp, y, yp, s) -> dict[str, Any]:
    return {
        "T": T[i].tolist(),
        "x": x[i].tolist(),
        "x_prime": xp[i].tolist(),
        "y": y[i].tolist(),
        "y_prime": yp[i].tolist(),
        "strengths": s[:, i].tolist(),
    }


def _monogamy_audit(name: str, bound: float, samples: int, seed: int,
                    orthogonal: bool, equal_strengths: bool) -> AuditReport:
    rng = np.random.default_rng(seed + _SEED_OFFSETS[name])
    T = _random_pure_state_tensors(rng, samples)
    x = _random_units(rng, samples)
    y = _random_units(rng, samples)
    if orthogonal:
        xp = _orthogonal_partners(rng, x)
        yp = _orthogonal_partners(rng, y)
    else:
        xp = _random_units(rng, samples)
        yp = _random_units(rng, samples)
    # strengths of x, x', y, y'; the last column is the saturating configuration's
    s = np.empty((4, samples + 1))
    if equal_strengths:
        s[:2, :-1] = rng.uniform(0, 1, samples)
        s[2:, :-1] = rng.uniform(0, 1, samples)
    else:
        s[:, :-1] = rng.uniform(0, 1, (4, samples))

    # append the known saturating configuration
    root2 = math.sqrt(2.0)
    if name == "orthogonal-monogamy":
        s[:, -1] = 2.0 * root2 / 3.0
        sat = {
            "x": np.array([[0.0, 1.0, 0.0]]),
            "xp": np.array([[1.0, 0.0, 0.0]]),
            "y": np.array([[-1.0, -1.0, 0.0]]) / root2,
            "yp": np.array([[1.0, -1.0, 0.0]]) / root2,
        }
    else:
        # projective parallel settings saturate both the equal-strength bound and the conjecture
        s[:, -1] = 1.0
        sat = {
            "x": np.array([[0.0, 1.0, 0.0]]),
            "xp": np.array([[0.0, 1.0, 0.0]]),
            "y": np.array([[0.0, -1.0, 0.0]]),
            "yp": np.array([[0.0, -1.0, 0.0]]),
        }
    T = np.concatenate([T, -np.eye(3)[None]])
    x = np.concatenate([x, sat["x"]])
    xp = np.concatenate([xp, sat["xp"]])
    y = np.concatenate([y, sat["y"]])
    yp = np.concatenate([yp, sat["yp"]])

    s1, sstar = sequential_chsh_batch(T, s, (x, xp, y, yp))
    margins = bound - (np.abs(s1) + sstar)
    worst = int(np.argmin(margins))
    violations = int(np.sum(margins < -1e-9))
    return AuditReport(
        name=name,
        samples=len(margins),
        worst_margin=float(margins[worst]),
        violations=violations,
        worst_config=_config_dict(worst, T, x, xp, y, yp, s),
    )


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


def audit_tradeoff_chain(samples: int = 100_000, seed: int = 1) -> AuditReport:
    """Strength/bias/reversibility tradeoffs over random valid observables.

    Checks, within 1e-12: 1-S <= R^2 <= 1-S^2, D >= S >= D^2, |B| <= R^2 and
    R^2 + S^2 >= 3/4.
    """
    rng = np.random.default_rng(seed + _SEED_OFFSETS["tradeoff-chain"])
    s = rng.uniform(0, 1, samples)
    b = rng.uniform(-1, 1, samples) * (1 - s)
    # boundary families: projective, trivial and unbiased observables
    s = np.concatenate([s, [1.0, 0.0, 0.5]])
    b = np.concatenate([b, [0.0, 0.7, 0.0]])
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
    )
    per_sample = margins.min(axis=0)
    worst = int(np.argmin(per_sample))
    violations = int(np.sum(per_sample < -1e-12))
    return AuditReport(
        name="tradeoff-chain",
        samples=len(per_sample),
        worst_margin=float(per_sample[worst]),
        violations=violations,
        worst_config={"bias": float(b[worst]), "strength": float(s[worst])},
    )


def run_all_audits(samples: int = 100_000, seed: int = 1) -> list[AuditReport]:
    return [
        audit_orthogonal_monogamy(samples, seed),
        audit_equal_strength_monogamy(samples, seed),
        audit_tradeoff_chain(samples, seed),
        audit_conjecture(samples, seed),
    ]
