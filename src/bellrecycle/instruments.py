"""Ensemble-level effect of local qubit measurements.

All three supported measurement models (square-root, the simple
projective-or-coin-flip protocol, and pointer-based weak measurements) act
on an ensemble as dephasing toward the measurement axis: correlations along
the axis are retained and transverse components shrink by a model-dependent
factor eta.  The corresponding 3x3 transfer matrix is
``K = eta*I + (1 - eta) * axis axis^T``; a two-setting observer contributes
the average of the transfers of the two settings.

The scalar path builds each transfer's nine entries from Python floats, one
channel at a time, with the same operations in the same order as the numpy
formula above (kept in the tests as the reference); the batched kernel in
`bell` builds the same products as rank-one updates over whole stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import BiasedWeakPointer, ConstraintViolation, DomainError, QualityExceedsReversibility
from .observables import CONSTRUCTION_TOL, Observable, reversibility
from .states import TwoQubitState, make_state


@dataclass(frozen=True)
class MeasurementKind:
    """Which instrument implements the observable.

    tag is one of "square-root", "simple-model" or "weak-pointer"; the
    weak-pointer model carries its quality factor.
    """

    tag: str
    quality: float | None = None

    def __post_init__(self):
        if self.tag not in ("square-root", "simple-model", "weak-pointer"):
            raise ConstraintViolation(f"unknown measurement kind {self.tag!r}")
        if (self.tag == "weak-pointer") != (self.quality is not None):
            raise ConstraintViolation("quality is set iff tag is 'weak-pointer'")
        if self.quality is not None and not 0.0 <= self.quality <= 1.0:
            raise ConstraintViolation(f"quality {self.quality} outside [0, 1]")


SQUARE_ROOT = MeasurementKind("square-root")
SIMPLE_MODEL = MeasurementKind("simple-model")


def weak_pointer(quality: float) -> MeasurementKind:
    """Pointer-based weak measurement with the given quality factor."""
    return MeasurementKind("weak-pointer", float(quality))


@dataclass(frozen=True)
class DephasingChannel:
    """Dephasing toward `axis` with off-diagonal retention `factor`."""

    axis: np.ndarray = field(repr=False)
    factor: float

    def __post_init__(self):
        self.axis.setflags(write=False)


def _factor(obs: Observable, kind: MeasurementKind) -> float:
    """Retention factor eta of one measurement of `obs` under `kind` (see channel_of)."""
    if kind.tag == "square-root":
        return reversibility(obs)
    if kind.tag == "simple-model":
        return 1.0 - obs.strength
    if abs(obs.bias) > CONSTRUCTION_TOL:
        raise BiasedWeakPointer(
            "weak-pointer measurements are defined for unbiased observables only"
        )
    rmax = reversibility(obs)
    if kind.quality > rmax + CONSTRUCTION_TOL:
        raise QualityExceedsReversibility(
            f"quality {kind.quality} exceeds reversibility {rmax}"
        )
    return min(kind.quality, rmax)


def channel_of(obs: Observable, kind: MeasurementKind = SQUARE_ROOT) -> DephasingChannel:
    """Dephasing channel of a single measurement of `obs` under `kind`.

    The retention factor is the maximum reversibility R for square-root
    measurements, 1 - S for the simple model, and the quality factor F for
    weak pointer measurements.  The weak-pointer model requires an unbiased
    observable and F <= R.
    """
    return DephasingChannel(axis=obs.direction.copy(), factor=_factor(obs, kind))


def _entries(eta: float, axis: np.ndarray) -> list[float]:
    """Row-major entries of eta*I + (1-eta) axis axis^T, as Python floats.

    Each entry is eta*delta_ij + (1-eta)*(n_i n_j), rounded as the numpy
    formula rounds it; off the diagonal eta*0 adds nothing.
    """
    x, y, z = axis.tolist()
    c = 1.0 - eta
    xy, xz, yz = c * (x * y), c * (x * z), c * (y * z)
    return [eta + c * (x * x), xy, xz, xy, eta + c * (y * y), yz, xz, yz, eta + c * (z * z)]


def transfer_matrix(channel: DephasingChannel) -> np.ndarray:
    """3x3 transfer eta*I + (1-eta) axis axis^T; eigenvalues {1, eta, eta}."""
    return np.array(_entries(channel.factor, channel.axis.ravel())).reshape(3, 3)


def setting_channel(
    obs1: Observable, obs2: Observable, kind: MeasurementKind = SQUARE_ROOT
) -> np.ndarray:
    """Ensemble transfer of an observer choosing obs1 or obs2 with equal odds."""
    k1 = _entries(_factor(obs1, kind), obs1.direction)
    k2 = _entries(_factor(obs2, kind), obs2.direction)
    return np.array([0.5 * (p + q) for p, q in zip(k1, k2)]).reshape(3, 3)


def apply_local(
    state: TwoQubitState,
    side: Literal["alice", "bob"],
    K: np.ndarray,
) -> TwoQubitState:
    """Apply a local 3x3 transfer matrix to one side of the state.

    Only unital channels are supported (all three measurement models preserve
    the identity), which is what makes the Bloch-vector and correlation
    updates below exact: on the measured side the Bloch vector maps through K
    and T picks up K on that side; the other side is untouched.
    """
    K = np.asarray(K, dtype=float).reshape(3, 3)
    if side == "alice":
        return make_state(K @ state.a, state.b, K @ state.T, check=False)
    if side == "bob":
        return make_state(state.a, K @ state.b, state.T @ K.T, check=False)
    raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")


def apply_chain(
    state: TwoQubitState,
    alice_channels=(),
    bob_channels=(),
) -> TwoQubitState:
    """Apply sequences of local transfers: T -> Km...K1 T L1^T...Ln^T."""
    out = state
    for K in alice_channels:
        out = apply_local(out, "alice", K)
    for L in bob_channels:
        out = apply_local(out, "bob", L)
    return out
