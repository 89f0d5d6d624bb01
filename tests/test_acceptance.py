"""Acceptance suite.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain `pytest -s tests/test_acceptance.py` run.  Budgets and tolerances are
pinned here and nowhere else.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import bellrecycle as br
from bellrecycle.audit import (
    audit_orthogonal_monogamy,
    audit_equal_strength_monogamy,
    audit_tradeoff_chain,
)

from oracles import grid_refine_max, grid_search_sstar

ROOT2 = math.sqrt(2.0)
SEED = 20240809


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def optimal_projective_config():
    alice = br.MeasurementPair(br.projective((1, 0, 0)), br.projective((0, 1, 0)))
    bob = br.MeasurementPair(
        br.projective(np.array([-1, -1, 0]) / ROOT2),
        br.projective(np.array([-1, 1, 0]) / ROOT2),
    )
    return br.ScenarioConfig(br.singlet(), alice, bob)


def test_criterion_01_tsirelson_anchor():
    with criterion(1, "Tsirelson anchor: optimal projective CHSH and Horodecki value"):
        cfg = optimal_projective_config()
        assert br.chsh_value(cfg.state, cfg.alice, cfg.bob) == pytest.approx(
            2 * ROOT2, abs=1e-12
        )
        assert br.horodecki_sstar(-np.eye(3)) == pytest.approx(2 * ROOT2, abs=1e-12)


def test_criterion_02_endpoint_anchor():
    with criterion(2, "endpoint: maximal upstream violation leaves S* = 1/sqrt(2)"):
        cfg = optimal_projective_config()
        K = br.setting_channel(cfg.alice.first, cfg.alice.second)
        L = br.setting_channel(cfg.bob.first, cfg.bob.second)
        assert np.allclose(K, np.diag([0.5, 0.5, 0.0]), atol=1e-12)
        assert np.allclose(L, np.diag([0.5, 0.5, 0.0]), atol=1e-12)
        res = br.evaluate_scenario(cfg)
        assert res.s_star_second == pytest.approx(1 / ROOT2, abs=1e-9)


def test_criterion_03_orthogonal_monogamy_audit():
    with criterion(3, "theorem 1: 1e5 orthogonal unbiased configs below 8*sqrt(2)/3"):
        report = audit_orthogonal_monogamy(100_000, SEED)
        assert report.violations == 0
        assert report.worst_margin >= -1e-9
        s = 2 * ROOT2 / 3
        alice = br.MeasurementPair(br.unbiased(s, (0, 1, 0)), br.unbiased(s, (1, 0, 0)))
        bob = br.MeasurementPair(
            br.unbiased(s, np.array([-1, -1, 0]) / ROOT2),
            br.unbiased(s, np.array([1, -1, 0]) / ROOT2),
        )
        res = br.evaluate_scenario(br.ScenarioConfig(br.singlet(), alice, bob))
        assert abs(res.s_first) + res.s_star_second == pytest.approx(
            br.ORTHOGONAL_MONOGAMY_BOUND, abs=1e-9
        )


def test_criterion_04_equal_strength_monogamy_audit():
    with criterion(4, "theorem 2: 1e5 equal-strength unbiased configs below 4"):
        report = audit_equal_strength_monogamy(100_000, SEED)
        assert report.violations == 0
        assert report.worst_margin >= -1e-9
        alice = br.MeasurementPair(br.projective((0, 1, 0)), br.projective((0, 1, 0)))
        bob = br.MeasurementPair(br.projective((0, -1, 0)), br.projective((0, -1, 0)))
        res = br.evaluate_scenario(br.ScenarioConfig(br.singlet(), alice, bob))
        assert abs(res.s_first) + res.s_star_second == pytest.approx(4.0, abs=1e-9)


def test_criterion_05_strength_angle_bound_equivalence():
    with criterion(5, "W-form equals the explicit bound; bound dominates singlet CHSH"):
        rng = np.random.default_rng(SEED)
        for _ in range(100_000):
            sx, sxp, sy, syp = rng.uniform(0, 1, 4)
            th, ph = rng.uniform(0, math.pi, 2)
            a = br.s0_bound(sx, sxp, sy, syp, th, ph)
            b = br.s0_from_w(br.w_matrix(sx, sxp, sy, syp, th, ph))
            assert abs(a - b) <= 1e-10

        state = br.singlet()
        for _ in range(100_000):
            dirs = rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sx, sxp, sy, syp = rng.uniform(0, 1, 4)
            alice = br.MeasurementPair(br.unbiased(sx, dirs[0]), br.unbiased(sxp, dirs[1]))
            bob = br.MeasurementPair(br.unbiased(sy, dirs[2]), br.unbiased(syp, dirs[3]))
            value = abs(br.chsh_value(state, alice, bob))
            bound = br.s0_bound(
                sx, sxp, sy, syp,
                br.angle_between(dirs[0], dirs[1]),
                br.angle_between(dirs[2], dirs[3]),
            )
            assert value <= bound + 1e-9


def test_criterion_06_bound_function_maxima():
    with criterion(6, "proof objectives peak at 8*sqrt(2)/3 and 2"):
        best1, arg1 = grid_refine_max(br.g_orthogonal, (0, 0), (1, 1))
        assert best1 == pytest.approx(br.ORTHOGONAL_MONOGAMY_BOUND, abs=1e-6)
        assert arg1[0] == pytest.approx(1 / 3, abs=1e-4)
        assert arg1[1] == pytest.approx(1 / 3, abs=1e-4)
        best2, arg2 = grid_refine_max(br.g_equal_strength, (0, 0), (1, 1))
        assert best2 == pytest.approx(2.0, abs=1e-6)
        assert arg2[0] == pytest.approx(0.0, abs=1e-4)
        assert arg2[1] == pytest.approx(1.0, abs=1e-4)


def test_criterion_07_semi_analytic_consistency():
    with criterion(7, "closed-form and parametric region curves agree; exponent bound"):
        for r in np.linspace(0.005, 0.995, 100):
            s, sstar = br.region1_parametric(r)
            assert br.region1_closed(s) == pytest.approx(sstar, abs=1e-8)
        assert br.region3_curve(2 * ROOT2) == pytest.approx(1 / ROOT2, abs=1e-12)
        assert 1.75 <= br.max_exponent_d() <= 1.76


def test_criterion_08_boundary_curve_reproduction():
    with criterion(8, "optimizer reproduces the tradeoff boundary at plot resolution"):
        budget = 200_000

        region1_grid = [0.5, 1.0, 1.5, 2.0]
        points = br.boundary_curve(region1_grid, br.UNBIASED_SINGLET, budget, SEED)
        for p in points:
            assert abs(p.achieved_s - p.target_s) <= 1e-4
            assert p.s_star == pytest.approx(br.region1_closed(p.target_s), abs=1e-2)

        region3_grid = [2.75, 2.8]
        points3 = br.boundary_curve(region3_grid, br.UNBIASED_SINGLET, budget, SEED)
        for p in points3:
            assert abs(p.achieved_s - p.target_s) <= 1e-4
            assert p.s_star == pytest.approx(br.region3_curve(p.target_s), abs=1e-2)

        middle_grid = [2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7]
        points2 = br.boundary_curve(middle_grid, br.UNBIASED_SINGLET, budget, SEED)
        for p in points2:
            assert abs(p.achieved_s - p.target_s) <= 1e-4
            assert p.s_star < 2.0
            # the optimizer dominates the reference curve that extends here
            assert p.s_star >= br.region3_curve(p.target_s) - 1e-2

        # the assembled boundary is non-increasing (1e-3 numerical slack)
        everything = sorted(points + points2 + points3, key=lambda p: p.target_s)
        stars = [p.s_star for p in everything]
        assert all(a >= b - 1e-3 for a, b in zip(stars, stars[1:]))


def test_criterion_09_horodecki_oracle_equivalence():
    with criterion(9, "Horodecki value matches projective grid search on 50 matrices"):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            M = rng.normal(size=(3, 3))
            M *= rng.uniform(0.1, 1.0) / np.linalg.svd(M, compute_uv=False)[0]
            assert br.horodecki_sstar(M) == pytest.approx(
                grid_search_sstar(M), abs=1e-3
            )


def test_criterion_10a_multibob_three_observers():
    """Three-Bob scheduling on the singlet at margin 0.05.

    This criterion is unattainable, and not because of the implementation:
    once the first two observers pin their CHSH values to 2.05, no unbiased
    equal-probability measurement strategy of any kind leaves the third
    observer a value above 2.  For the scheduler's fixed layout the bound is
    sharp and elementary: pinning S_1 = S_2 = 2.05 forces the transverse
    retention product down to 0.639, so the third value is at most
    2*sqrt(2)*0.639 = 1.807 < 2.  Relaxing the layout is expected not to
    help, but no code in this repository reproduces the figures quoted for
    it: a constrained search over all per-observer direction/strength pairs
    (with the upstream values pinned to 2.05) is quoted as topping out near
    1.966, and the best *balanced* schedule as reaching about 2.0136 per
    observer, still below the 2.05 that the margin demands of the first two.
    The test is kept in its stated form deliberately; it documents the gap
    instead of hiding it.
    """
    with criterion(10, "three sequential observers all above 2 at margin 0.05"):
        schedule = br.plan_multibob(-np.eye(3), 3, margin=0.05)
        assert all(v > 2.0 for v in schedule.chsh_values)
        rob = br.noise_robustness(schedule)
        assert rob.p_min < 1.0
        verified = br.verify_noise_robustness(schedule, min(rob.p_min + 0.01, 1.0))
        assert all(v > 2.0 for v in verified)


def test_criterion_10b_multipair_two_by_two():
    with criterion(10, "two Alices x two Bobs over two pairs: all four above 2"):
        base = br.plan_multibob(-np.eye(3), 2, margin=0.05)
        matrix = br.multipair_scenario(2, 2, base)
        assert matrix.shape == (2, 2)
        assert (matrix > 2.0).all()
        assert np.allclose(matrix[0], matrix[1], atol=1e-12)
        rob = br.noise_robustness(base)
        assert rob.p_min < 1.0
        verified = br.verify_noise_robustness(base, min(rob.p_min + 0.01, 1.0))
        assert all(v > 2.0 for v in verified)


def test_criterion_11_tradeoff_suite():
    with criterion(11, "1e5 observables satisfy all strength/bias/reversibility tradeoffs"):
        report = audit_tradeoff_chain(100_000, SEED)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12
