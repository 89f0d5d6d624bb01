"""Two-qubit states in the generalized Bloch (correlation-tensor) picture.

A state is held as the 4x4 real matrix Theta with block structure
``[[1, b^T], [a, T]]``: `a` and `b` are the local Bloch vectors of the two
sides and `T` is the 3x3 spin correlation matrix.  The Pauli basis order is
(identity, sigma_x, sigma_y, sigma_z) with sigma_z diagonal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AngleOutOfRange, ConstraintViolation, ProbabilityOutOfRange

#: Tolerance for state-validity checks (norms, singular values, positivity);
#: every check of a Bloch norm or of T's largest singular value uses it.
VALIDITY_TOL = 1e-9

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: The (4, 4, 4, 4) operator basis: entry [mu, nu] is sigma_mu (x) sigma_nu.
_PAULI_BASIS = np.array([[np.kron(s, t) for t in _SIGMA] for s in _SIGMA])


@dataclass(frozen=True)
class TwoQubitState:
    """Immutable two-qubit state in the Theta representation."""

    theta: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.theta.setflags(write=False)

    @property
    def a(self) -> np.ndarray:
        """Bloch vector of the first (Alice) qubit."""
        return self.theta[1:, 0]

    @property
    def b(self) -> np.ndarray:
        """Bloch vector of the second (Bob) qubit."""
        return self.theta[0, 1:]

    @property
    def T(self) -> np.ndarray:
        """3x3 spin correlation matrix."""
        return self.theta[1:, 1:]


def density_matrix(state: TwoQubitState) -> np.ndarray:
    """Reconstruct the 4x4 density operator sum_mu,nu Theta_mu,nu sigma_mu (x) sigma_nu / 4."""
    return np.tensordot(state.theta, _PAULI_BASIS, 2) / 4.0


def check_contraction(smax: float) -> None:
    """Raise ConstraintViolation if T's largest singular value `smax` exceeds 1.

    The caller takes the SVD it needs anyway and passes its largest value.
    """
    if smax > 1.0 + VALIDITY_TOL:
        raise ConstraintViolation(f"largest singular value of T = {smax} exceeds 1")


def check_bloch_norm(name: str, vec: np.ndarray) -> None:
    """Raise ConstraintViolation if the Bloch vector `vec` of side `name` is longer than 1."""
    norm = float(np.linalg.norm(vec))
    if norm > 1.0 + VALIDITY_TOL:
        raise ConstraintViolation(f"|{name}| = {norm} exceeds 1")


def validate(state: TwoQubitState) -> None:
    """Check normalisation, finiteness, Bloch norms, correlation strength and positivity.

    Raises ConstraintViolation on the first violated condition.
    """
    theta = state.theta
    if theta.shape != (4, 4):
        raise ConstraintViolation(f"theta has shape {theta.shape}, expected (4, 4)")
    if theta[0, 0] != 1.0:
        raise ConstraintViolation(f"theta[0][0] = {theta[0, 0]!r}, expected exactly 1")
    # NaN passes every range check below and stops LAPACK without a name
    for name, part in (("a", state.a), ("b", state.b), ("T", state.T)):
        if not np.isfinite(part).all():
            raise ConstraintViolation(f"{name} = {part.tolist()} has a non-finite entry")
    for name, vec in (("a", state.a), ("b", state.b)):
        check_bloch_norm(name, vec)
    check_contraction(float(np.linalg.svd(state.T, compute_uv=False)[0]))
    rho = density_matrix(state)
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -VALIDITY_TOL:
        raise ConstraintViolation(f"density operator has eigenvalue {eigs.min()}")
    if abs(float(np.trace(rho).real) - 1.0) > VALIDITY_TOL:
        raise ConstraintViolation("density operator trace differs from 1")


def make_state(a, b, T, check: bool = True) -> TwoQubitState:
    """Assemble a TwoQubitState from Bloch vectors and correlation matrix."""
    theta = np.empty((4, 4))
    theta[0, 0] = 1.0
    theta[0, 1:] = np.asarray(b, dtype=float).reshape(3)
    theta[1:, 0] = np.asarray(a, dtype=float).reshape(3)
    theta[1:, 1:] = np.asarray(T, dtype=float).reshape(3, 3)
    state = TwoQubitState(theta)
    if check:
        validate(state)
    return state


def singlet() -> TwoQubitState:
    """The singlet state: vanishing Bloch vectors and T = -I."""
    return make_state(np.zeros(3), np.zeros(3), -np.eye(3), check=False)


def from_schmidt(alpha: float) -> TwoQubitState:
    """Pure state cos(alpha)|00> + sin(alpha)|11> for alpha in [0, pi/4].

    Bloch vectors point along +z with length cos(2*alpha) and the correlation
    matrix is diag(sin 2a, -sin 2a, 1).
    """
    if not 0.0 <= alpha <= np.pi / 4 + 1e-12:
        raise AngleOutOfRange(f"Schmidt angle {alpha} outside [0, pi/4]")
    c2, s2 = np.cos(2 * alpha), np.sin(2 * alpha)
    a = np.array([0.0, 0.0, c2])
    T = np.diag([s2, -s2, 1.0])
    return make_state(a, a, T, check=False)


def add_isotropic_noise(state: TwoQubitState, p: float) -> TwoQubitState:
    """Mix with the maximally mixed state: a, b and T all scale by p."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityOutOfRange(f"mixing weight {p} outside [0, 1]")
    return make_state(p * state.a, p * state.b, p * state.T, check=False)


def state_to_json(state: TwoQubitState) -> str:
    """Serialise as {"a": [...], "b": [...], "T": [[...]]}."""
    payload = {
        "a": state.a.tolist(),
        "b": state.b.tolist(),
        "T": state.T.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def _numbers(value, size: int, what: str) -> np.ndarray:
    """`value` as a float array of `size` entries, or ConstraintViolation naming `what`."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.size != size:
        raise ConstraintViolation(f"{what}, got {value!r}")
    return array


def state_from_payload(payload, check: bool = True) -> TwoQubitState:
    """The state of a parsed state document: an object with "T" (a 3x3 list
    or "diag(x,y,z)") and optional "a" and "b", zero by default.  A non-object,
    a missing or malformed field, another shorthand or a Bloch vector longer
    than 1 raises ConstraintViolation; `check` is passed to `make_state`."""
    if not isinstance(payload, dict):
        raise ConstraintViolation("state must be a JSON object")
    if "T" not in payload:
        raise ConstraintViolation("state has no 'T' field")
    T = payload["T"]
    if isinstance(T, str):
        spec = T.strip()
        entries = spec[5:-1].split(",")
        if not (spec.startswith("diag(") and spec.endswith(")") and len(entries) == 3):
            raise ConstraintViolation(f"unsupported T shorthand {spec!r}")
        try:
            T = np.diag([float(v) for v in entries])
        except ValueError:
            raise ConstraintViolation(f"unsupported T shorthand {spec!r}") from None
    T = _numbers(T, 9, "T must be a 3x3 matrix of numbers")
    a, b = (_numbers(payload.get(name, np.zeros(3)), 3, f"{name} must be three numbers")
            for name in ("a", "b"))
    # a longer Bloch vector makes the document malformed, whatever `check` skips
    check_bloch_norm("a", a)
    check_bloch_norm("b", b)
    return make_state(a, b, T, check=check)


def state_from_json(text: str) -> TwoQubitState:
    """Parse and validate a state document, such as state_to_json's (see state_from_payload)."""
    return state_from_payload(json.loads(text))
