import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrecycle import (
    AngleOutOfRange,
    ConstraintViolation,
    ProbabilityOutOfRange,
    TwoQubitState,
    add_isotropic_noise,
    density_matrix,
    from_schmidt,
    horodecki_sstar,
    make_state,
    plan_multibob,
    singlet,
    state_from_json,
    state_to_json,
)
from bellrecycle.bell import schmidt_tensors
from bellrecycle.states import state_from_payload, validate

from oracles import density_matrix_kron_sum, theta_from_state_vector


class TestSinglet:
    def test_theta_layout(self):
        assert np.array_equal(singlet().theta, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_correlation_singular_values(self):
        sv = np.linalg.svd(singlet().T, compute_uv=False)
        assert np.allclose(sv, [1, 1, 1], atol=1e-15)

    def test_maximal_downstream_chsh(self):
        assert horodecki_sstar(singlet().T) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_positivity(self):
        validate(singlet())


class TestFromSchmidt:
    def test_maximally_entangled(self):
        st4 = from_schmidt(math.pi / 4)
        assert np.allclose(st4.a, 0, atol=1e-15)
        assert np.allclose(st4.b, 0, atol=1e-15)
        assert np.allclose(st4.T, np.diag([1.0, -1.0, 1.0]), atol=1e-15)

    def test_product_state(self):
        st0 = from_schmidt(0.0)
        assert np.allclose(st0.a, [0, 0, 1], atol=1e-15)
        assert np.allclose(st0.T, np.diag([0.0, 0.0, 1.0]), atol=1e-15)

    def test_angle_range(self):
        with pytest.raises(AngleOutOfRange):
            from_schmidt(1.0)
        with pytest.raises(AngleOutOfRange):
            from_schmidt(-0.1)

    def test_against_state_vector_oracle(self):
        rng = np.random.default_rng(20240301)
        for alpha in rng.uniform(0.0, np.pi / 4, size=100):
            psi = np.array([np.cos(alpha), 0.0, 0.0, np.sin(alpha)])
            assert np.allclose(
                from_schmidt(alpha).theta, theta_from_state_vector(psi), atol=1e-12
            )

    @given(st.floats(0.0, math.pi / 4))
    @settings(max_examples=100)
    def test_always_valid(self, alpha):
        validate(from_schmidt(alpha))

    def test_matches_batched_schmidt_tensors(self):
        # the scalar/batched pair: row i of bell.schmidt_tensors is from_schmidt(alpha_i),
        # bit for bit, for the whole stack and for one-row calls alike
        def bits(x):  # the float64 bit patterns, which tell -0.0 from 0.0
            return np.ascontiguousarray(x).view(np.int64)

        rng = np.random.default_rng(29)
        alpha = np.concatenate([rng.uniform(0.0, np.pi / 4, 2000),
                                [0.0, np.pi / 8, np.pi / 4, 1e-300]])
        a, b, T = schmidt_tensors(alpha)
        for i, angle in enumerate(alpha):
            state = from_schmidt(angle)
            a1, b1, T1 = schmidt_tensors(alpha[i:i + 1])
            for stacked, row, scalar in ((a, a1, state.a), (b, b1, state.b), (T, T1, state.T)):
                assert np.array_equal(bits(stacked[..., i]), bits(scalar))
                assert np.array_equal(bits(row[..., 0]), bits(scalar))


class TestIsotropicNoise:
    def test_identity_at_full_weight(self):
        assert np.array_equal(add_isotropic_noise(singlet(), 1.0).theta, singlet().theta)

    def test_maximally_mixed_at_zero(self):
        assert np.array_equal(
            add_isotropic_noise(singlet(), 0.0).theta, np.diag([1.0, 0, 0, 0])
        )

    def test_scaling(self):
        noisy = add_isotropic_noise(singlet(), 0.8)
        assert np.allclose(noisy.T, -0.8 * np.eye(3), atol=1e-15)
        sv = np.linalg.svd(noisy.T, compute_uv=False)
        assert np.allclose(sv[:2], [0.8, 0.8], atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            add_isotropic_noise(singlet(), 1.2)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, math.pi / 4))
    @settings(max_examples=100)
    def test_composition(self, p, q, alpha):
        base = from_schmidt(alpha)
        twice = add_isotropic_noise(add_isotropic_noise(base, p), q)
        once = add_isotropic_noise(base, p * q)
        assert np.allclose(twice.theta, once.theta, atol=1e-12)


class TestValidation:
    def test_theta_shape_rejected(self):
        with pytest.raises(ConstraintViolation,
                           match=r"^theta has shape \(3, 4\), expected \(4, 4\)$"):
            validate(TwoQubitState(np.zeros((3, 4))))

    def test_unnormalised_theta_rejected(self):
        theta = singlet().theta.copy()
        theta[0, 0] = 0.5
        with pytest.raises(ConstraintViolation,
                           match=r"^theta\[0\]\[0\] = 0\.5, expected exactly 1$"):
            validate(TwoQubitState(theta))

    def test_bloch_norm_rejected(self):
        with pytest.raises(ConstraintViolation):
            make_state([1.1, 0, 0], [0, 0, 0], np.zeros((3, 3)))

    def test_nonpositive_density_rejected(self):
        # T = +I is the classic non-state: rho = SWAP/2 has a negative eigenvalue
        with pytest.raises(ConstraintViolation):
            make_state([0, 0, 0], [0, 0, 0], np.eye(3))

    @pytest.mark.parametrize("part", ["a", "b", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, part, value):
        # NaN passes every range check; LAPACK would fail without a name
        parts = {"a": np.zeros(3), "b": np.zeros(3), "T": -np.eye(3)}
        parts[part].flat[1] = value
        with pytest.raises(ConstraintViolation, match=rf"^{part} = .* non-finite"):
            make_state(parts["a"], parts["b"], parts["T"])

    @pytest.mark.parametrize("check", [
        lambda T: make_state(np.zeros(3), np.zeros(3), T),
        horodecki_sstar,
        lambda T: plan_multibob(T, 1, margin=0.05),
    ], ids=["validate", "horodecki_sstar", "plan_multibob"])
    def test_one_contraction_message(self, check):
        with pytest.raises(ConstraintViolation,
                           match=r"^largest singular value of T = 2\.0 exceeds 1$"):
            check(2.0 * np.eye(3))

    def test_triplet_correlations_accepted(self):
        make_state([0, 0, 0], [0, 0, 0], np.diag([1.0, 1.0, -1.0]))

    def test_density_matrix_of_singlet(self):
        rho = density_matrix(singlet())
        psi = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.allclose(rho, np.outer(psi, psi), atol=1e-15)

    def test_density_matrix_matches_kron_sum(self):
        # random mixtures of three random pure states
        rng = np.random.default_rng(41)
        for _ in range(200):
            psi = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
            psi /= np.linalg.norm(psi, axis=1)[:, None]
            theta = np.einsum("i,ijk->jk", rng.dirichlet(np.ones(3)),
                              [theta_from_state_vector(p) for p in psi])
            state = make_state(theta[1:, 0], theta[0, 1:], theta[1:, 1:], check=False)
            rho = density_matrix(state)
            assert np.abs(rho - density_matrix_kron_sum(state.theta)).max() <= 1e-15


class TestJsonRoundTrip:
    def test_round_trip(self):
        st4 = from_schmidt(0.3)
        again = state_from_json(state_to_json(st4))
        assert np.allclose(st4.theta, again.theta, atol=1e-15)

    def test_round_trip_is_exact(self):
        state = add_isotropic_noise(from_schmidt(0.3), 0.7)
        assert state_from_json(state_to_json(state)).theta.tobytes() == state.theta.tobytes()

    def test_bloch_vectors_default_to_zero(self):
        state = state_from_json('{"T": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]}')
        assert np.array_equal(state.theta, singlet().theta)

    def test_diagonal_shorthand(self):
        state = state_from_json('{"T": "diag(0.5, -0.5, 1)"}')
        assert np.array_equal(state.T, np.diag([0.5, -0.5, 1.0]))

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "state must be a JSON object"),
        ('{"a": [0, 0, 0], "b": [0, 0, 0]}', "state has no 'T' field"),
        ('{"T": "eye(3)"}', "unsupported T shorthand 'eye(3)'"),
        ('{"T": "diag(1,x,1)"}', "unsupported T shorthand 'diag(1,x,1)'"),
        ('{"T": "diag(1,1)"}', "unsupported T shorthand 'diag(1,1)'"),
        ('{"T": [[1, 2], [3, 4]]}', "T must be a 3x3 matrix of numbers, got [[1, 2], [3, 4]]"),
        ('{"T": [[1, 0, 0], [0, 1, 0], [0, 0]]}',
         "T must be a 3x3 matrix of numbers, got [[1, 0, 0], [0, 1, 0], [0, 0]]"),
        ('{"T": {"x": 1}}', "T must be a 3x3 matrix of numbers, got {'x': 1}"),
        ('{"T": "diag(1,1,1)", "a": null}', "a must be three numbers, got None"),
        ('{"T": "diag(1,1,1)", "b": [0, 1]}', "b must be three numbers, got [0, 1]"),
        ('{"T": "diag(1,1,1)", "a": ["0.5", 0, 0]}', "a must be three numbers, got ['0.5', 0, 0]"),
    ], ids=["not-an-object", "no-T", "shorthand", "diag-word", "diag-two", "T-2x2", "T-ragged",
            "T-object", "a-null", "b-short", "a-numeral"])
    def test_bad_document_named(self, text, message):
        with pytest.raises(ConstraintViolation, match=re.escape(message)):
            state_from_json(text)

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_long_bloch_vector_rejected_whatever_check_says(self, name, check):
        payload = {"T": "diag(1,1,1)", name: [0, 2, 0]}
        with pytest.raises(ConstraintViolation) as info:
            state_from_payload(payload, check=check)
        assert str(info.value) == f"|{name}| = 2.0 exceeds 1"

    @pytest.mark.parametrize("check", [True, False])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["a", "b"])
    def test_non_finite_bloch_vector_rejected_whatever_check_says(self, name, value, check):
        # NaN passes the norm check, and an infinite entry was named only by its norm
        payload = {"T": "diag(1,1,1)", name: [value, 0, 0]}
        with pytest.raises(ConstraintViolation) as info:
            state_from_payload(payload, check=check)
        assert str(info.value) == f"{name} = [{value}, 0.0, 0.0] has a non-finite entry"

    def test_check_is_passed_on(self):
        text = '{"T": "diag(2, 2, 2)"}'
        with pytest.raises(ConstraintViolation, match="exceeds 1"):
            state_from_json(text)
        assert state_from_payload(json.loads(text), check=False).T[0, 0] == 2.0

    def test_layout(self):
        payload = json.loads(state_to_json(singlet()))
        assert payload["a"] == [0.0, 0.0, 0.0]
        assert payload["T"][0][0] == -1.0
