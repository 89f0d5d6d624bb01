import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrecycle import (
    AngleOutOfRange,
    ConstraintViolation,
    InvalidBloch,
    NegativeRadicand,
    Observable,
    ZeroDirection,
    angle_between,
    decoherence,
    expectation,
    fidelity_bound,
    from_reversibility_angle,
    make_observable,
    projective,
    reversibility,
    reversibility_profile,
    trivial,
    unbiased,
)


def valid_bias_strength():
    """Strategy for (bias, strength) pairs inside the constraint triangle."""
    return st.tuples(
        st.floats(0.0, 1.0), st.floats(-1.0, 1.0)
    ).map(lambda t: (t[1] * (1.0 - t[0]), t[0]))


class TestMakeObservable:
    def test_projective_z(self):
        obs = make_observable(0.0, 1.0, (0, 0, 1))
        assert obs.strength == 1.0 and obs.bias == 0.0
        assert np.array_equal(obs.direction, [0, 0, 1])

    def test_strength_plus_bias_constraint(self):
        with pytest.raises(ConstraintViolation):
            make_observable(0.5, 0.6, (1, 0, 0))

    def test_direction_normalised(self):
        obs = make_observable(0.2, 0.6, (0, 2, 0))
        assert np.allclose(obs.direction, [0, 1, 0], atol=1e-15)

    def test_zero_strength_gets_canonical_direction(self):
        obs = make_observable(0.3, 0.0, (5, 5, 5))
        assert np.array_equal(obs.direction, [0, 0, 1])

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            make_observable(0.0, 0.5, (0, 0, 0))

    @pytest.mark.parametrize("direction", [(0, 0, 0), np.array([[0.0], [0.0], [0.0]])],
                             ids=["tuple", "column"])
    def test_zero_direction_accepted_at_zero_strength(self, direction):
        obs = make_observable(0.2, 0.0, direction)
        assert np.array_equal(obs.direction, [0, 0, 1])

    @pytest.mark.parametrize("direction", [(1, 2), (1, 0, 0, 0), "abc"],
                             ids=["short", "long", "text"])
    def test_unparseable_direction_rejected_at_zero_strength(self, direction):
        with pytest.raises(ValueError):
            make_observable(0.2, 0.0, direction)

    @pytest.mark.parametrize("direction", [(math.nan, 0, 0), (0, -math.inf, 0)], ids=["nan", "inf"])
    def test_non_finite_direction_rejected_at_zero_strength(self, direction):
        with pytest.raises(ConstraintViolation, match="finite"):
            make_observable(0.2, 0.0, direction)

    @pytest.mark.parametrize("direction", [
        (math.nan, 0, 1), (math.inf, 0, 0), (-math.inf, math.inf, 0), (math.nan, math.inf, 0),
    ])
    def test_non_finite_direction_rejected(self, direction):
        with pytest.raises(ConstraintViolation, match="finite"):
            make_observable(0.0, 0.5, direction)

    @pytest.mark.parametrize("direction", [
        [0, 3, 4],
        (0.0, 3.0, 4.0),
        np.array([0, 3, 4]),
        np.array([[0.0, 3.0, 4.0]]),
        np.array([[0.0], [3.0], [4.0]]),
    ], ids=["int-list", "tuple", "int-array", "row", "column"])
    def test_direction_inputs_accepted(self, direction):
        obs = make_observable(0.1, 0.5, direction)
        assert obs.direction.shape == (3,) and obs.direction.dtype == np.float64
        assert np.array_equal(obs.direction, [0.0, 0.6, 0.8])
        assert not obs.direction.flags.writeable

    def test_direction_with_overflowing_norm_accepted(self):
        # the components are finite, though their Euclidean norm is not;
        # bell.angle_between accepts the same vector
        obs = make_observable(0.0, 0.5, (1.5e308, 1.5e308, 0))
        np.testing.assert_allclose(obs.direction, [math.sqrt(0.5), math.sqrt(0.5), 0.0],
                                   rtol=0, atol=1e-15)
        assert angle_between(obs.direction, (1.5e308, 1.5e308, 0)) == 0.0

    @pytest.mark.parametrize("direction", [(1, 0), (1, 0, 0, 0), np.eye(3)])
    def test_direction_of_wrong_length_rejected(self, direction):
        with pytest.raises(ValueError):
            make_observable(0.0, 0.5, direction)

    def test_random_directions_are_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            obs = make_observable(0.0, 0.5, rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6))
            assert np.linalg.norm(obs.direction) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("bias", [-0.3, 0.3])
    def test_strength_within_tolerance_of_constraint_lowered(self, bias):
        # S + |B| = 1 + 9e-13 is accepted; kept as given, the reversibility's
        # radicand would be -1.26e-12, beyond the clamp of its square root
        obs = make_observable(bias, 0.7 + 9e-13, (0, 0, 1))
        assert obs.strength == 1.0 - abs(bias)
        assert reversibility(obs) == pytest.approx(math.sqrt(0.3), abs=1e-12)

    def test_range_checks(self):
        with pytest.raises(ConstraintViolation):
            make_observable(0.0, 1.5, (0, 0, 1))
        with pytest.raises(ConstraintViolation):
            make_observable(-1.2, 0.0, (0, 0, 1))

    def test_direction_is_immutable(self):
        obs = projective((1, 0, 0))
        with pytest.raises(ValueError):
            obs.direction[0] = 2.0


class TestReversibility:
    def test_projective_is_irreversible(self):
        assert reversibility(projective((0, 0, 1))) == 0.0

    def test_trivial_is_fully_reversible(self):
        assert reversibility(trivial(0.3)) == 1.0

    def test_generic_value(self):
        # 0.5*sqrt(1.2^2 - 0.36) + 0.5*sqrt(0.8^2 - 0.36), frozen from
        # direct evaluation of the two square roots
        obs = make_observable(0.2, 0.6, (1, 0, 0))
        assert reversibility(obs) == pytest.approx(0.7841903733771223, abs=2e-15)

    def test_profile_is_on_unit_circle(self):
        prof = reversibility_profile(make_observable(0.1, 0.5, (1, 0, 0)))
        assert prof.reversibility**2 + prof.decoherence**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("strength", [1e-9, 1e-6, 0.5])
    def test_profile_keeps_decoherence_above_strength(self, strength):
        # 1 - R^2 cancels for weak observables; D must still dominate S
        prof = reversibility_profile(make_observable(0.0, strength, (0, 0, 1)))
        assert prof.decoherence >= strength
        assert prof.reversibility**2 + prof.decoherence**2 == pytest.approx(1.0, abs=1e-15)


class TestDecoherence:
    @pytest.mark.parametrize(
        "bias,strength,expected",
        [(0.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 0.6, 0.6)],
    )
    def test_values(self, bias, strength, expected):
        obs = make_observable(bias, strength, (0, 0, 1))
        assert decoherence(obs) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bias", [-0.9, -0.6, -0.3, -1e-6, 0.0, 1e-6, 0.3, 0.6, 0.9])
    def test_constraint_boundary(self, bias):
        # on S = 1 - |B| one radicand of R is 0, and 1e-13 beyond it rounds
        # below 0; either way D = sqrt(1 - |B|)
        on = make_observable(bias, 1.0 - abs(bias), (0, 0, 1))
        beyond = Observable(bias, 1.0 - abs(bias) + 1e-13, np.array([0.0, 0.0, 1.0]))
        for obs in (on, beyond):
            assert decoherence(obs) == pytest.approx(math.sqrt(1.0 - abs(bias)), abs=1e-12)
            prof = reversibility_profile(obs)
            assert prof.reversibility**2 + prof.decoherence**2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bias", [-1.0, 1.0])
    def test_certain_outcome(self, bias):
        assert decoherence(trivial(bias)) == 0.0

    @pytest.mark.parametrize("fn", [decoherence, reversibility, reversibility_profile])
    def test_outside_constraint_raises(self, fn):
        # S + |B| = 1.1: Observable checks nothing, so the radicand
        # (1 - B - S)(1 - B + S) = -0.15 must be caught by every function
        with pytest.raises(NegativeRadicand):
            fn(Observable(0.3, 0.8, np.array([0.0, 0.0, 1.0])))


class TestFromReversibilityAngle:
    def test_trivial_chart_point(self):
        assert from_reversibility_angle(1.0, 0.0) == pytest.approx((0.0, 0.0))

    def test_projective_chart_point(self):
        assert from_reversibility_angle(0.0, 0.0) == pytest.approx((1.0, 0.0))

    def test_generic_point(self):
        s, b = from_reversibility_angle(0.5, math.pi / 6)
        assert s == pytest.approx(0.75, abs=1e-15)
        assert b == pytest.approx(0.25, abs=1e-15)

    def test_angle_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            from_reversibility_angle(0.5, math.asin(0.5) + 1e-6)

    @given(st.floats(0.01, 1.0), st.floats(-0.99, 0.99))
    @settings(max_examples=300)
    def test_round_trip(self, r, frac):
        alpha = frac * math.asin(r)
        s, b = from_reversibility_angle(r, alpha)
        obs = make_observable(b, s, (0, 0, 1))
        assert reversibility(obs) == pytest.approx(r, abs=1e-10)

    @pytest.mark.parametrize("r", [1e-3, 0.1, 0.5, 0.75, 0.999, 1.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_round_trip_at_chart_boundary(self, r, sign):
        # |alpha| = arcsin(r) sits on the constraint boundary s + |b| = 1,
        # where the reversibility has a square-root branch: double precision
        # can only reproduce r to ~sqrt(eps) there
        s, b = from_reversibility_angle(r, sign * math.asin(r))
        obs = make_observable(b, s, (0, 0, 1))
        assert reversibility(obs) == pytest.approx(r, abs=5e-8)


class TestFidelityBound:
    def test_projective(self):
        assert fidelity_bound(projective((1, 0, 0))) == pytest.approx(2.0 / 3.0)

    def test_trivial(self):
        assert fidelity_bound(trivial(0.0)) == pytest.approx(1.0)

    def test_unbiased(self):
        assert fidelity_bound(unbiased(0.8, (1, 0, 0))) == pytest.approx(2.6 / 3.0)


class TestExpectation:
    def test_projective_aligned(self):
        assert expectation(projective((0, 0, 1)), (0, 0, 1)) == pytest.approx(1.0)

    def test_trivial_returns_bias(self):
        assert expectation(trivial(0.3), (0.2, -0.5, 0.1)) == pytest.approx(0.3)

    def test_generic(self):
        obs = make_observable(0.1, 0.5, (1, 0, 0))
        assert expectation(obs, (0.4, 0, 0)) == pytest.approx(0.3)

    def test_invalid_bloch(self):
        with pytest.raises(InvalidBloch):
            expectation(projective((0, 0, 1)), (1.1, 0, 0))


class TestTradeoffRelations:
    @given(valid_bias_strength())
    @settings(max_examples=500)
    def test_reversibility_chain(self, bs):
        b, s = bs
        r2 = reversibility(make_observable(b, s, (0, 0, 1))) ** 2
        assert 1.0 - s <= r2 + 1e-12
        assert r2 <= 1.0 - s * s + 1e-12

    @given(valid_bias_strength())
    @settings(max_examples=500)
    def test_bias_bounded_by_squared_reversibility(self, bs):
        b, s = bs
        assert abs(b) <= reversibility(make_observable(b, s, (0, 0, 1))) ** 2 + 1e-12

    @given(valid_bias_strength())
    @settings(max_examples=500)
    def test_complementary_lower_bound(self, bs):
        b, s = bs
        r = reversibility(make_observable(b, s, (0, 0, 1)))
        assert r * r + s * s >= 0.75 - 1e-12

    @given(valid_bias_strength())
    @settings(max_examples=500)
    def test_decoherence_sandwich(self, bs):
        b, s = bs
        d = decoherence(make_observable(b, s, (0, 0, 1)))
        assert d >= s - 1e-12
        assert s >= d * d - 1e-12

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=300)
    def test_unbiased_equality(self, s):
        r = reversibility(unbiased(s, (0, 0, 1)))
        assert r * r + s * s == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.001, 0.999))
    @settings(max_examples=300)
    def test_simple_model_reversibility_is_suboptimal(self, s):
        r = reversibility(unbiased(s, (0, 0, 1)))
        assert 1.0 - s <= math.sqrt(1.0 - s) < r + 1e-15
        assert 1.0 - s < r
