import math

import numpy as np
import pytest

from bellrecycle import (
    ConstraintViolation,
    Infeasible,
    IndexOutOfRange,
    MeasurementPair,
    MultiBobSchedule,
    NotNonlocal,
    ObserverPlan,
    SQUARE_ROOT,
    apply_chain,
    chain_chsh,
    channel_of,
    chsh_value,

    multipair_scenario,
    noise_robustness,
    plan_multibob,
    projective,
    rerun_schedule,
    setting_channel,
    singlet,
    transfer_matrix,
    trivial,
    unbiased,
    verify_noise_robustness,
)

ROOT2 = math.sqrt(2.0)

def optimal_pairs():
    alice = MeasurementPair(projective((1, 0, 0)), projective((0, 1, 0)))
    bob = MeasurementPair(
        projective(np.array([-1, -1, 0]) / ROOT2),
        projective(np.array([-1, 1, 0]) / ROOT2),
    )
    return alice, bob

class TestChainChsh:
    def test_first_pair_is_plain_chsh(self):
        alice, bob = optimal_pairs()
        plan_a = ObserverPlan(pairs=(alice,))
        plan_b = ObserverPlan(pairs=(bob,))
        assert chain_chsh(singlet(), plan_a, plan_b, 1, 1) == pytest.approx(
            chsh_value(singlet(), alice, bob), abs=1e-15
        )

    def test_trivial_upstream_does_not_disturb(self):
        alice, bob = optimal_pairs()
        idle = MeasurementPair(trivial(1.0), trivial(1.0))
        plan_a = ObserverPlan(pairs=(idle, alice))
        plan_b = ObserverPlan(pairs=(idle, bob))
        assert chain_chsh(singlet(), plan_a, plan_b, 2, 2) == pytest.approx(
            2 * ROOT2, abs=1e-12
        )

    def test_matches_manual_chain(self):
        alice, bob = optimal_pairs()
        weak = MeasurementPair(unbiased(0.5, (0, 1, 0)), unbiased(0.5, (1, 0, 0)))
        plan_a = ObserverPlan(pairs=(weak, alice))
        plan_b = ObserverPlan(pairs=(bob,))
        K = setting_channel(weak.first, weak.second)
        disturbed = apply_chain(singlet(), [K], [])
        assert chain_chsh(singlet(), plan_a, plan_b, 2, 1) == pytest.approx(
            chsh_value(disturbed, alice, bob), abs=1e-14
        )

    def test_index_bounds(self):
        alice, bob = optimal_pairs()
        plan_a = ObserverPlan(pairs=(alice,))
        plan_b = ObserverPlan(pairs=(bob,))
        with pytest.raises(IndexOutOfRange):
            chain_chsh(singlet(), plan_a, plan_b, 2, 1)
        with pytest.raises(IndexOutOfRange):
            chain_chsh(singlet(), plan_a, plan_b, 1, 0)

class TestPlanMultibob:
    def test_single_bob_full_strength(self):
        schedule = plan_multibob(-np.eye(3), 1, margin=0.05)
        assert schedule.bob_strengths == (1.0,)
        assert schedule.chsh_values[0] == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_two_bobs_feasible(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        assert schedule.chsh_values[0] == pytest.approx(2.05, abs=1e-7)
        assert schedule.chsh_values[1] > 2.0
        assert 0 < schedule.bob_strengths[0] < 1
        assert schedule.bob_strengths[1] == 1.0

    def test_three_bobs_infeasible_on_singlet(self):
        # the equal-strength fixed-layout greedy cannot serve three Bobs: the
        # first two leave too little transverse correlation for any strength
        with pytest.raises(Infeasible) as err:
            plan_multibob(-np.eye(3), 3, margin=0.05)
        assert err.value.failing_n == 3

    def test_anisotropic_state_two_bobs(self):
        schedule = plan_multibob(np.diag([1.0, 0.9, 0.0]), 2, margin=0.05)
        assert all(v > 2.0 for v in schedule.chsh_values)

    def test_weak_state_infeasible(self):
        with pytest.raises(Infeasible) as err:
            plan_multibob(np.diag([0.5, 0.5, 0.5]), 1, margin=0.05)
        assert err.value.failing_n == 1

    def test_margin_is_respected(self):
        for margin in (0.02, 0.1, 0.3):
            schedule = plan_multibob(-np.eye(3), 2, margin=margin)
            assert schedule.chsh_values[0] == pytest.approx(2 + margin, abs=1e-12)

    def test_strength_is_the_smallest_reaching_the_margin(self):
        for margin in (0.02, 0.1, 0.3):
            schedule = plan_multibob(-np.eye(3), 2, margin=margin)
            weaker = schedule.bob_plan((schedule.bob_strengths[0] * (1 - 1e-9),))
            alice_plan = ObserverPlan(pairs=(schedule.alice,))
            assert chain_chsh(schedule.state, alice_plan, weaker, 1, 1) < 2 + margin

    @pytest.mark.parametrize(
        "T", [-np.eye(3), np.diag([1.0, 0.9, 0.0]), 0.95 * -np.eye(3)]
    )
    def test_rerun_reproduces_planned_values(self, T):
        schedule = plan_multibob(T, 2, margin=0.05)
        assert rerun_schedule(schedule) == schedule.chsh_values

    def test_parameter_validation(self):
        with pytest.raises(ConstraintViolation):
            plan_multibob(-np.eye(3), 0, margin=0.05)
        with pytest.raises(ConstraintViolation):
            plan_multibob(-np.eye(3), 1, margin=-0.1)
        with pytest.raises(ConstraintViolation):
            plan_multibob(-1.5 * np.eye(3), 1, margin=0.05)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ConstraintViolation):
            plan_multibob(-np.eye(3), 1, margin=margin)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_correlations_rejected(self, value):
        T = -np.eye(3)
        T[1, 2] = value
        with pytest.raises(ConstraintViolation, match="^T = .* non-finite"):
            plan_multibob(T, 2, margin=0.05)

    def test_earlier_strength_monotonically_hurts_later(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        base_second = schedule.chsh_values[1]
        stronger = rerun_schedule(
            MultiBobSchedule(
                state=schedule.state,
                alice=schedule.alice,
                bob_directions=schedule.bob_directions,
                bob_strengths=(min(schedule.bob_strengths[0] + 0.1, 1.0), 1.0),
                chsh_values=schedule.chsh_values,
                margin=schedule.margin,
            )
        )
        assert stronger[1] < base_second

class TestNoiseRobustness:
    def test_single_bob_tsirelson(self):
        schedule = plan_multibob(-np.eye(3), 1, margin=0.05)
        rob = noise_robustness(schedule)
        assert rob.p_min == pytest.approx(1 / ROOT2, abs=1e-12)

    def test_two_bob_value(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.1)
        rob = noise_robustness(schedule)
        assert rob.s_min == pytest.approx(2.1, abs=1e-7)
        assert rob.p_min == pytest.approx(2 / 2.1, abs=1e-7)

    def test_noisy_rerun_scales_linearly(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        for p in (0.3, 0.8, 0.97):
            noisy = verify_noise_robustness(schedule, p)
            for noisy_value, clean_value in zip(noisy, schedule.chsh_values):
                assert noisy_value == pytest.approx(p * clean_value, abs=1e-12)

    def test_above_pmin_still_violates(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        rob = noise_robustness(schedule)
        assert rob.p_min < 1.0
        values = verify_noise_robustness(schedule, min(rob.p_min + 0.01, 1.0))
        assert all(v > 2.0 for v in values)

    def test_rejects_nonviolating_schedule(self):
        schedule = plan_multibob(-np.eye(3), 1, margin=0.05)
        broken = MultiBobSchedule(
            state=schedule.state,
            alice=schedule.alice,
            bob_directions=schedule.bob_directions,
            bob_strengths=(0.1,),
            chsh_values=(0.28,),
            margin=0.05,
        )
        with pytest.raises(NotNonlocal):
            noise_robustness(broken)

class TestMultipairScenario:
    def test_single_alice_reduces_to_base(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        matrix = multipair_scenario(1, 2, schedule)
        assert matrix.shape == (1, 2)
        assert np.allclose(matrix[0], schedule.chsh_values, atol=1e-12)

    def test_two_by_two(self):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        matrix = multipair_scenario(2, 2, schedule)
        assert matrix.shape == (2, 2)
        assert (matrix > 2.0).all()
        assert np.allclose(matrix[0], matrix[1], atol=1e-12)

    @pytest.mark.parametrize("m_alices", [1, 2, 3])
    def test_matches_explicit_lift(self, m_alices):
        # on pair q Alice q measures the base pair and every other Alice the
        # identity; S_mn is the best value over the pairs
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        idle = MeasurementPair(trivial(1.0), trivial(1.0))
        bob_plan = schedule.bob_plan()
        lift = np.full((m_alices, 2), -np.inf)
        for q in range(m_alices):
            alice_plan = ObserverPlan(
                pairs=tuple(schedule.alice if m == q else idle for m in range(m_alices))
            )
            for m in range(1, m_alices + 1):
                for n in (1, 2):
                    value = chain_chsh(schedule.state, alice_plan, bob_plan, m, n)
                    lift[m - 1, n - 1] = max(lift[m - 1, n - 1], value)
        assert np.array_equal(multipair_scenario(m_alices, 2, schedule), lift)

    def test_tiles_planned_values_of_random_contractions(self):
        # the matrix tiles the planned values, and a replay of the schedule
        # recomputes them bit for bit
        rng = np.random.default_rng(31)
        feasible = 0
        for _ in range(60):
            q1, q2 = np.linalg.qr(rng.normal(size=(2, 3, 3)))[0]
            T = q1 @ np.diag(np.sort(rng.uniform(0.6, 1.0, 3))[::-1]) @ q2.T
            try:
                schedule = plan_multibob(T, 2, margin=float(rng.uniform(0.01, 0.1)))
            except Infeasible:
                continue
            feasible += 1
            assert rerun_schedule(schedule) == schedule.chsh_values
            for n in (1, 2):
                expected = [list(schedule.chsh_values[:n])] * 3
                assert multipair_scenario(3, n, schedule).tolist() == expected
        assert feasible >= 10

    def test_identity_observable_channel(self):
        ch = channel_of(trivial(1.0), SQUARE_ROOT)
        assert ch.factor == 1.0
        assert np.allclose(transfer_matrix(ch), np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("m_alices,n_bobs,message", [
        (2, -1, "n_bobs must be >= 1, got -1"), (-1, 2, "m_alices must be >= 1, got -1"),
        (0, 2, "m_alices must be >= 1, got 0"), (2, 0, "n_bobs must be >= 1, got 0"),
    ])
    def test_counts_below_one_rejected(self, m_alices, n_bobs, message):
        schedule = plan_multibob(-np.eye(3), 2, margin=0.05)
        with pytest.raises(ConstraintViolation, match=f"^{message}$"):
            multipair_scenario(m_alices, n_bobs, schedule)

    def test_requires_enough_bobs(self):
        schedule = plan_multibob(-np.eye(3), 1, margin=0.05)
        with pytest.raises(ConstraintViolation):
            multipair_scenario(2, 2, schedule)
