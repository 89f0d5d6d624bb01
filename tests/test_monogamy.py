import math

import numpy as np
import pytest

from bellrecycle import (
    DomainError,
    MeasurementPair,
    PreconditionViolation,
    ScenarioConfig,
    ScenarioResult,
    ORTHOGONAL_MONOGAMY_BOUND,
    check_orthogonal_monogamy,
    check_equal_strength_monogamy,
    conjecture_margin,
    evaluate_scenario,
    g_equal_strength,
    g_orthogonal,
    max_exponent_d,
    projective,
    region1_closed,
    region1_parametric,
    region3_curve,
    singlet,
    trivial,
    unbiased,
    weak_pointer,
)
from oracles import grid_refine_max

ROOT2 = math.sqrt(2.0)


def saturating_theorem1_config():
    s = 2 * ROOT2 / 3
    alice = MeasurementPair(unbiased(s, (0, 1, 0)), unbiased(s, (1, 0, 0)))
    bob = MeasurementPair(
        unbiased(s, np.array([-1, -1, 0]) / ROOT2),
        unbiased(s, np.array([1, -1, 0]) / ROOT2),
    )
    return ScenarioConfig(singlet(), alice, bob)


def optimal_projective_config():
    alice = MeasurementPair(projective((1, 0, 0)), projective((0, 1, 0)))
    bob = MeasurementPair(
        projective(np.array([-1, -1, 0]) / ROOT2),
        projective(np.array([-1, 1, 0]) / ROOT2),
    )
    return ScenarioConfig(singlet(), alice, bob)


class TestEvaluateScenario:
    def test_unbiased_trivial_settings(self):
        pair = MeasurementPair(trivial(0.0), trivial(0.0))
        res = evaluate_scenario(ScenarioConfig(singlet(), pair, pair))
        assert res.s_first == pytest.approx(0.0, abs=1e-15)
        assert res.s_star_second == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_tsirelson_endpoint(self):
        res = evaluate_scenario(optimal_projective_config())
        assert res.s_first == pytest.approx(2 * ROOT2, abs=1e-12)
        assert res.s_star_second == pytest.approx(1 / ROOT2, abs=1e-9)

    def test_theorem1_saturation(self):
        res = evaluate_scenario(saturating_theorem1_config())
        assert abs(res.s_first) == pytest.approx(16 * ROOT2 / 9, abs=1e-12)
        assert res.s_star_second == pytest.approx(8 * ROOT2 / 9, abs=1e-12)
        assert abs(res.s_first) + res.s_star_second == pytest.approx(
            ORTHOGONAL_MONOGAMY_BOUND, abs=1e-9
        )


class TestTheoremCheckers:
    def test_theorem1_saturating_margin(self):
        check = check_orthogonal_monogamy(saturating_theorem1_config())
        assert check.holds
        assert check.margin == pytest.approx(0.0, abs=1e-9)

    def test_theorem1_trivial_strengths(self):
        alice = MeasurementPair(unbiased(0.0, (0, 1, 0)), unbiased(0.0, (1, 0, 0)))
        bob = MeasurementPair(unbiased(0.0, (0, 1, 0)), unbiased(0.0, (1, 0, 0)))
        check = check_orthogonal_monogamy(ScenarioConfig(singlet(), alice, bob))
        assert check.holds
        assert check.margin == pytest.approx(ORTHOGONAL_MONOGAMY_BOUND - 2 * ROOT2, abs=1e-12)

    def test_theorem1_requires_orthogonality(self):
        cfg = optimal_projective_config()
        skew = ScenarioConfig(
            cfg.state,
            MeasurementPair(projective((1, 0, 0)), projective((1, 1, 0))),
            cfg.bob,
        )
        with pytest.raises(PreconditionViolation):
            check_orthogonal_monogamy(skew)

    def test_theorem1_requires_unbiased(self):
        cfg = saturating_theorem1_config()
        biased = ScenarioConfig(
            cfg.state,
            MeasurementPair(
                cfg.alice.first,
                unbiased(0.5, (1, 0, 0)).__class__(0.2, 0.5, cfg.alice.second.direction),
            ),
            cfg.bob,
        )
        with pytest.raises(PreconditionViolation):
            check_orthogonal_monogamy(biased)

    def test_theorem2_parallel_projective_saturates(self):
        alice = MeasurementPair(projective((0, 1, 0)), projective((0, 1, 0)))
        bob = MeasurementPair(projective((0, -1, 0)), projective((0, -1, 0)))
        check = check_equal_strength_monogamy(ScenarioConfig(singlet(), alice, bob))
        assert check.holds
        assert check.margin == pytest.approx(0.0, abs=1e-12)

    def test_theorem2_all_trivial(self):
        pair = MeasurementPair(trivial(0.0), trivial(0.0))
        check = check_equal_strength_monogamy(ScenarioConfig(singlet(), pair, pair))
        assert check.margin == pytest.approx(4 - 2 * ROOT2, abs=1e-12)

    def test_theorem2_requires_equal_strengths(self):
        alice = MeasurementPair(unbiased(0.9, (0, 1, 0)), unbiased(0.3, (1, 0, 0)))
        bob = MeasurementPair(unbiased(0.5, (0, 1, 0)), unbiased(0.5, (1, 0, 0)))
        with pytest.raises(PreconditionViolation):
            check_equal_strength_monogamy(ScenarioConfig(singlet(), alice, bob))

    def test_random_orthogonal_configs_hold(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            w = np.cross(u, rng.normal(size=3))
            w /= np.linalg.norm(w)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            vp = np.cross(v, rng.normal(size=3))
            vp /= np.linalg.norm(vp)
            sa, sb = rng.uniform(0, 1, 2)
            cfg = ScenarioConfig(
                singlet(),
                MeasurementPair(unbiased(sa, u), unbiased(sa, w)),
                MeasurementPair(unbiased(sb, v), unbiased(sb, vp)),
            )
            assert check_orthogonal_monogamy(cfg).holds
            assert check_equal_strength_monogamy(cfg).holds

    def test_weak_pointer_variants_respect_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            w = np.cross(u, rng.normal(size=3))
            w /= np.linalg.norm(w)
            s = rng.uniform(0, 1)
            quality = rng.uniform(0, 1) * math.sqrt(1 - s * s)
            cfg = ScenarioConfig(
                singlet(),
                MeasurementPair(unbiased(s, u), unbiased(s, w)),
                MeasurementPair(unbiased(s, u), unbiased(s, w)),
                kind=weak_pointer(quality),
            )
            assert check_orthogonal_monogamy(cfg).holds
            assert check_equal_strength_monogamy(cfg).holds


class TestBoundFunctions:
    def test_g_orthogonal_values(self):
        assert g_orthogonal(1 / 3, 1 / 3) == pytest.approx(ORTHOGONAL_MONOGAMY_BOUND, abs=1e-14)
        assert g_orthogonal(1.0, 1.0) == pytest.approx(2 * ROOT2, abs=1e-14)
        assert g_orthogonal(0.0, 0.0) == pytest.approx(5 * ROOT2 / 2, abs=1e-14)

    def test_g_orthogonal_global_max(self):
        best, arg = grid_refine_max(g_orthogonal, (0, 0), (1, 1))
        assert best == pytest.approx(ORTHOGONAL_MONOGAMY_BOUND, abs=1e-6)
        assert arg[0] == pytest.approx(1 / 3, abs=1e-4)
        assert arg[1] == pytest.approx(1 / 3, abs=1e-4)

    def test_g_equal_strength_values(self):
        assert g_equal_strength(0.0, 1.0) == pytest.approx(2.0, abs=1e-14)
        for c in (0.0, 0.3, 1.0):
            assert g_equal_strength(1.0, c) == pytest.approx(ROOT2, abs=1e-14)

    def test_g_equal_strength_global_max(self):
        best, arg = grid_refine_max(g_equal_strength, (0, 0), (1, 1))
        assert best == pytest.approx(2.0, abs=1e-6)
        assert arg[0] == pytest.approx(0.0, abs=1e-4)
        assert arg[1] == pytest.approx(1.0, abs=1e-4)


class TestRegionCurves:
    def test_region1_parametric_endpoints(self):
        assert region1_parametric(0.0) == pytest.approx((2.0, 2.0), abs=1e-15)
        assert region1_parametric(1.0) == pytest.approx((0.0, 2 * ROOT2), abs=1e-15)

    def test_region1_parametric_out_of_range(self):
        with pytest.raises(DomainError, match=r"^parameter 1\.5 outside \[0, 1\]$"):
            region1_parametric(1.5)

    def test_region1_parametric_midpoint(self):
        s, sstar = region1_parametric(0.5)
        assert s == pytest.approx(math.sqrt(1.5), abs=1e-12)
        assert sstar == pytest.approx(math.sqrt(4 + 2.25 * 0.5), abs=1e-12)

    def test_region1_closed_matches_parametric(self):
        ends = [0.0, 1e-10, 1e-6, 1 - 1e-8, 1 - 1e-12, 1.0]
        for r in [*np.linspace(0.005, 0.995, 100), *ends]:
            s, sstar = region1_parametric(r)
            assert region1_closed(s) == pytest.approx(sstar, abs=1e-13)

    def test_region1_closed_boundary(self):
        assert region1_closed(2.0) == pytest.approx(2.0, abs=1e-12)
        assert region1_closed(0.0) == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_region1_closed_monotone(self):
        values = [region1_closed(s) for s in np.linspace(0.05, 1.99, 80)]
        assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
        assert 2.0 < region1_closed(1.0) < 2 * ROOT2

    def test_region1_domain(self):
        with pytest.raises(DomainError):
            region1_closed(2.5)

    def test_region3_endpoints(self):
        assert region3_curve(2 * ROOT2) == pytest.approx(1 / ROOT2, abs=1e-12)
        assert region3_curve(0.0) == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_region3_generic_value(self):
        # sqrt(2) - 0.7 + sqrt(2 - 2.8/sqrt(2)), frozen from direct evaluation
        assert region3_curve(2.8) == pytest.approx(0.8559916025544551, abs=1e-12)

    def test_region3_strictly_decreasing(self):
        grid = np.linspace(0.0, 2 * ROOT2, 200)
        values = [region3_curve(s) for s in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_region3_domain(self):
        with pytest.raises(DomainError):
            region3_curve(2 * ROOT2 + 1e-6)

    def test_region3_rejects_nan(self):
        with pytest.raises(DomainError):
            region3_curve(math.nan)


class TestMaxExponent:
    def test_value_in_reported_range(self):
        assert 1.75 <= max_exponent_d() <= 1.76

    def test_value_pinned(self):
        # the closed form 2 log2(tribonacci constant); any change to how it
        # is evaluated shows here first
        assert max_exponent_d() == 1.758292843213276

    def test_matches_high_precision_root(self):
        # with x = 2^(d/2) the equation is (x - 1)(x^3 - x^2 - x - 1) = 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            x = mpmath.findroot(lambda t: t ** 3 - t ** 2 - t - 1, 1.8)
            d = 2 * mpmath.log(x, 2)
            assert abs((2 * mpmath.sqrt(2)) ** d + 2 ** (-d / 2) - 2 ** (d + 1)) < mpmath.mpf(10) ** -45
            assert abs(d - max_exponent_d()) < 5e-16

    def test_residual(self):
        d = max_exponent_d()
        residual = (2 * ROOT2) ** d + 2 ** (-d / 2) - 2 ** (d + 1)
        assert abs(residual) < 1e-10

    def test_single_sign_change(self):
        grid = np.arange(1.0, 3.0, 1e-3)
        signs = np.sign([(2 * ROOT2) ** d + 2 ** (-d / 2) - 2 ** (d + 1) for d in grid])
        changes = np.count_nonzero(np.diff(signs))
        assert changes == 1

    def test_power_law_fails_on_region3_at_that_exponent(self):
        # d comes from the Tsirelson endpoint (2 sqrt 2, 1/sqrt 2) alone; on
        # region 3's optimal curve |S1|^d + S2*^d <= 2^(d+1) fails at s = 2.79
        d = max_exponent_d()
        s = 2.79
        excess = s ** d + region3_curve(s) ** d - 2 ** (d + 1)
        assert excess == pytest.approx(0.1096, abs=1e-4)


class TestConjectureMargin:
    def test_tsirelson_pair(self):
        margin = conjecture_margin(ScenarioResult(2 * ROOT2, 1 / ROOT2))
        assert margin == pytest.approx(4 - 2 * ROOT2 - 1 / ROOT2, abs=1e-12)

    def test_undisturbed(self):
        assert conjecture_margin(ScenarioResult(0.0, 2 * ROOT2)) == pytest.approx(
            4 - 2 * ROOT2, abs=1e-12
        )

    def test_saturating_corner(self):
        assert conjecture_margin(ScenarioResult(2.0, 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_biased_observables_escape_the_relations(self):
        # fixed outcomes reach |S1| = 2 without disturbing the singlet, so
        # the downstream pair keeps S* = 2 sqrt(2) and |S1| + S2* exceeds 4
        cfg = ScenarioConfig(
            singlet(),
            MeasurementPair(trivial(1.0), trivial(1.0)),
            MeasurementPair(trivial(1.0), trivial(-1.0)),
        )
        res = evaluate_scenario(cfg)
        assert res.s_first == pytest.approx(2.0, abs=1e-15)
        assert res.s_star_second == pytest.approx(2 * ROOT2, abs=1e-15)
        assert conjecture_margin(res) == pytest.approx(2 - 2 * ROOT2, abs=1e-15)
        with pytest.raises(PreconditionViolation):
            check_equal_strength_monogamy(cfg)


class TestPointwiseProofChain:
    def test_orthogonal_configs_obey_intermediate_bounds(self):
        # |S1| + S2* <= g1(RX,RX')g1(RY,RY') + g2(..)g2(..) <= max G pointwise,
        # with g1(x,y) = 2^(1/4) sqrt(2-x^2-y^2), g2 = [(1+x)^4+(1+y)^4]^(1/4)/sqrt(2)
        def g1(x, y):
            return 2 ** 0.25 * math.sqrt(2 - x * x - y * y)

        def g2(x, y):
            return ((1 + x) ** 4 + (1 + y) ** 4) ** 0.25 / ROOT2

        rng = np.random.default_rng(47)
        for _ in range(2000):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            up = np.cross(u, rng.normal(size=3))
            up /= np.linalg.norm(up)
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            vp = np.cross(v, rng.normal(size=3))
            vp /= np.linalg.norm(vp)
            sx, sxp, sy, syp = rng.uniform(0, 1, 4)
            cfg = ScenarioConfig(
                singlet(),
                MeasurementPair(unbiased(sx, u), unbiased(sxp, up)),
                MeasurementPair(unbiased(sy, v), unbiased(syp, vp)),
            )
            res = evaluate_scenario(cfg)
            rx, rxp = math.sqrt(1 - sx * sx), math.sqrt(1 - sxp * sxp)
            ry, ryp = math.sqrt(1 - sy * sy), math.sqrt(1 - syp * syp)
            mid = g1(rx, rxp) * g1(ry, ryp) + g2(rx, rxp) * g2(ry, ryp)
            total = abs(res.s_first) + res.s_star_second
            assert total <= mid + 1e-9
            assert mid <= ORTHOGONAL_MONOGAMY_BOUND + 1e-9


class TestCentralConjectureSamples:
    def test_upstream_violation_blocks_downstream(self):
        # jitter around the optimal CHSH geometry so the upstream pair
        # actually violates in a substantial fraction of samples
        rng = np.random.default_rng(41)
        base = np.array(
            [[1, 0, 0], [0, 1, 0], [-1 / ROOT2, -1 / ROOT2, 0], [-1 / ROOT2, 1 / ROOT2, 0]]
        )
        seen_violating = 0
        for _ in range(2000):
            dirs = base + 0.2 * rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            s = rng.uniform(0.85, 1.0, 4)
            cfg = ScenarioConfig(
                singlet(),
                MeasurementPair(unbiased(s[0], dirs[0]), unbiased(s[1], dirs[1])),
                MeasurementPair(unbiased(s[2], dirs[2]), unbiased(s[3], dirs[3])),
            )
            res = evaluate_scenario(cfg)
            if abs(res.s_first) > 2.0:
                seen_violating += 1
                assert res.s_star_second < 2.0
        assert seen_violating > 100  # the sample really exercises the regime
