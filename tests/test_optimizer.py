import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bellrecycle import (
    BudgetTooSmall,
    DomainError,
    GENERAL_BIASED,
    LengthMismatch,
    REGION2_ANSATZ,
    UNBIASED,
    UNBIASED_SINGLET,
    UNBIASED_SINGLET_EQUATORIAL,
    boundary_curve,
    boundary_point,
    chsh_value,
    decode_params,
    evaluate_scenario,
    from_reversibility_angle,
    region1_closed,
    region3_curve,
    search_mode,
)
from bellrecycle import optimizer
from bellrecycle.optimizer import make_batch_evaluator

ROOT2 = math.sqrt(2.0)


class TestSearchMode:
    def test_lookup(self):
        assert search_mode("unbiased-singlet") is UNBIASED_SINGLET
        assert search_mode("general-biased").n_params == 17

    def test_unknown(self):
        with pytest.raises(DomainError):
            search_mode("simulated-annealing")

    @pytest.mark.parametrize(
        "mode,expected",
        [
            (GENERAL_BIASED, 17),
            (UNBIASED, 13),
            (UNBIASED_SINGLET, 12),
            (UNBIASED_SINGLET_EQUATORIAL, 8),
            (REGION2_ANSATZ, 4),
        ],
    )
    def test_parameter_counts(self, mode, expected):
        assert mode.n_params == expected
        assert len(mode.hi) == expected
        assert all(lo < hi for lo, hi in zip(mode.lo, mode.hi))


class TestDecodeParams:
    def test_all_zero_unbiased_singlet(self):
        cfg = decode_params(UNBIASED_SINGLET, np.zeros(12))
        assert cfg.alice.first.strength == 0.0
        assert cfg.bob.second.strength == 0.0
        assert np.allclose(cfg.state.T, -np.eye(3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            decode_params(UNBIASED_SINGLET, np.zeros(11))

    def test_optimal_chsh_encoding(self):
        # strengths 1 at the optimal directions: x along +x, x' along +y,
        # y/y' along the diagonals of the x-y plane
        params = np.array(
            [1.0, 1.0, 1.0, 1.0]
            + [math.pi / 2, 0.0]
            + [math.pi / 2, math.pi / 2]
            + [math.pi / 2, math.pi + math.pi / 4]
            + [math.pi / 2, math.pi - math.pi / 4]
        )
        cfg = decode_params(UNBIASED_SINGLET, params)
        assert chsh_value(cfg.state, cfg.alice, cfg.bob) == pytest.approx(
            2 * ROOT2, abs=1e-12
        )

    def test_biased_mode_chart(self):
        r, frac = 0.5, 1.0
        params = np.zeros(17)
        params[0], params[1] = r, frac
        params[2], params[3] = math.pi / 2, 0.0
        cfg = decode_params(GENERAL_BIASED, params)
        s_expected, b_expected = from_reversibility_angle(r, frac * math.asin(r))
        assert cfg.alice.first.strength == pytest.approx(s_expected, abs=1e-12)
        assert cfg.alice.first.bias == pytest.approx(b_expected, abs=1e-12)
        assert b_expected == pytest.approx(0.25, abs=1e-12)

    def test_batch_evaluator_matches_decode(self):
        rng = np.random.default_rng(3)
        for mode in (UNBIASED_SINGLET, UNBIASED, GENERAL_BIASED, UNBIASED_SINGLET_EQUATORIAL,
                     REGION2_ANSATZ):
            evaluate = make_batch_evaluator(mode)
            P = rng.uniform(0.05, 0.95, size=(20, mode.n_params))
            s1, sstar = evaluate(P)
            for i in range(20):
                res = evaluate_scenario(decode_params(mode, P[i]))
                assert res.s_first == pytest.approx(s1[i], abs=1e-10)
                assert res.s_star_second == pytest.approx(sstar[i], abs=1e-10)


ALL_MODES = [GENERAL_BIASED, UNBIASED, UNBIASED_SINGLET, UNBIASED_SINGLET_EQUATORIAL,
             REGION2_ANSATZ]


class TestBatchEvaluatorRows:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.tag)
    def test_rows_independent_of_batch(self, mode):
        # the lockstep DE and the polish memo rely on a row's value not
        # depending on the batch it is evaluated in, bit for bit
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        P = lo + np.random.default_rng(17).random((64, mode.n_params)) * (hi - lo)
        s1, sstar = evaluate(P)
        for i in range(64):
            r1, rstar = evaluate(P[i])
            assert r1[0] == s1[i] and rstar[0] == sstar[i]


# hashes the batch evaluator's rows and the lockstep DE starts of two modes,
# then prints a whole boundary point as float hex
_THREAD_PROBE = """
import hashlib
import numpy as np
from bellrecycle import optimizer
from bellrecycle.optimizer import GENERAL_BIASED, UNBIASED_SINGLET, boundary_point, make_batch_evaluator
digest = hashlib.sha256()
for mode in (UNBIASED_SINGLET, GENERAL_BIASED):
    evaluate = make_batch_evaluator(mode)
    lo, hi = np.array(mode.lo), np.array(mode.hi)
    P = lo + np.random.default_rng(1).random((4096, mode.n_params)) * (hi - lo)
    for out in evaluate(P):
        digest.update(out.tobytes())
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(0).spawn(4)]
    digest.update(optimizer._de_lockstep(evaluate, lo, hi, 2.4, 2_500, rngs).tobytes())
print(digest.hexdigest())
point = boundary_point(2.4, UNBIASED_SINGLET, 20_000, 0)
print(point.s_star.hex(), point.achieved_s.hex(), point.evaluations)
print(" ".join(v.hex() for v in point.params))
"""


class TestBlasThreads:
    @staticmethod
    def probe(threads):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        return subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                              capture_output=True, text=True, check=True).stdout

    def test_evaluator_rows_and_de_starts_do_not_depend_on_them(self):
        # nor does the polish, so a whole boundary point is bit for bit the
        # same under one and two OpenBLAS threads
        single = self.probe(1)
        assert len(single.splitlines()[0]) == 64
        assert self.probe(2) == single


class TestBoundaryPoint:
    def test_determinism(self):
        a = boundary_point(1.3, UNBIASED_SINGLET, budget=12_000, seed=5)
        b = boundary_point(1.3, UNBIASED_SINGLET, budget=12_000, seed=5)
        assert a == b

    def test_unconstrained_end(self):
        point = boundary_point(0.0, UNBIASED_SINGLET, budget=20_000, seed=1)
        assert point.s_star == pytest.approx(2 * ROOT2, abs=1e-6)
        assert point.achieved_s <= 1e-4

    def test_tsirelson_end(self):
        point = boundary_point(2 * ROOT2, UNBIASED_SINGLET, budget=40_000, seed=1)
        assert point.s_star == pytest.approx(1 / ROOT2, abs=5e-3)

    def test_matches_region1(self):
        point = boundary_point(1.0, UNBIASED_SINGLET, budget=20_000, seed=2)
        assert abs(point.achieved_s - 1.0) <= 1e-4
        assert point.s_star == pytest.approx(region1_closed(1.0), abs=1e-2)

    def test_feasibility(self):
        point = boundary_point(1.7, UNBIASED_SINGLET, budget=50_000, seed=3)
        assert abs(point.achieved_s - 1.7) <= 1e-4

    def test_params_reproduce_values(self):
        point = boundary_point(0.8, UNBIASED_SINGLET, budget=12_000, seed=9)
        res = evaluate_scenario(decode_params(UNBIASED_SINGLET, point.params))
        assert abs(res.s_first) == pytest.approx(point.achieved_s, abs=1e-12)
        assert res.s_star_second == pytest.approx(point.s_star, abs=1e-12)

    def test_polish_evaluates_each_point_once(self, monkeypatch):
        # rows of every call but the 256-row DE generations: one-row polish
        # points and the one-call gradients (a point and its stencil rows)
        seen, stencils = [], []

        def recording(mode):
            evaluate = make_batch_evaluator(mode)

            def wrapper(P):
                P = np.atleast_2d(P)
                if P.shape[0] != 4 * 64:
                    seen.extend(row.tobytes() for row in P)
                    if P.shape[0] > 1:
                        stencils.append(P.shape[0])
                return evaluate(P)

            return wrapper

        monkeypatch.setattr(optimizer, "make_batch_evaluator", recording)
        point = boundary_point(2.4, UNBIASED_SINGLET, budget=10_000, seed=0)
        assert seen and len(set(seen)) == len(seen)
        assert stencils
        # evaluations counts computed rows only: the DE batches plus one per
        # point; DE gets 10_000 - 10_000 // 10 rows, split over four restarts
        de_rows = 4 * ((10_000 - 10_000 // 10) // 4 // 64 * 64)
        assert point.evaluations == de_rows + len(seen)

    @pytest.mark.parametrize("s,mode", [(2.4, UNBIASED_SINGLET), (1.0, GENERAL_BIASED)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_batched_stencils_match_one_row_calls(self, monkeypatch, s, mode):
        # a row's value does not depend on its batch, so evaluating each
        # stencil in one call must give the same point, bit for bit
        batched = boundary_point(s, mode, budget=10_000, seed=0)

        def one_row_calls(mode):
            evaluate = make_batch_evaluator(mode)

            def split(P):
                rows = [evaluate(row) for row in np.atleast_2d(P)]
                return tuple(np.concatenate(parts) for parts in zip(*rows))

            return split

        monkeypatch.setattr(optimizer, "make_batch_evaluator", one_row_calls)
        split = boundary_point(s, mode, budget=10_000, seed=0)
        assert split.s_star.hex() == batched.s_star.hex()
        assert split.achieved_s.hex() == batched.achieved_s.hex()
        assert [v.hex() for v in split.params] == [v.hex() for v in batched.params]
        assert split.evaluations == batched.evaluations

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.tag)
    def test_evaluations_within_budget(self, mode):
        point = boundary_point(2.4, mode, budget=10_000, seed=0)
        assert point.evaluations <= 10_000

    def test_polish_stops_at_the_floor(self):
        # S*'s rounding floor stops each restart once its iterate is
        # feasible, inside the budget and at the best-known optimum
        point = boundary_point(2.4, UNBIASED_SINGLET, budget=40_000, seed=0)
        assert abs(point.achieved_s - 2.4) <= 1e-9
        assert point.s_star == pytest.approx(1.4754835237, abs=1e-6)
        assert point.evaluations <= 40_000

    def test_budget_too_small(self):
        with pytest.raises(BudgetTooSmall):
            boundary_point(1.0, UNBIASED_SINGLET, budget=5000)

    def test_target_domain(self):
        with pytest.raises(DomainError):
            boundary_point(3.0, UNBIASED_SINGLET)

    def test_region2_ansatz_mode(self):
        point = boundary_point(2.4, REGION2_ANSATZ, budget=15_000, seed=4)
        assert abs(point.achieved_s - 2.4) <= 1e-4
        # the four-parameter ansatz must dominate the region-3 formula here
        assert point.s_star > region3_curve(2.4) + 0.05

    def test_equatorial_mode_matches_full(self):
        full = boundary_point(1.5, UNBIASED_SINGLET, budget=30_000, seed=6)
        flat = boundary_point(1.5, UNBIASED_SINGLET_EQUATORIAL, budget=30_000, seed=6)
        assert flat.s_star == pytest.approx(full.s_star, abs=2e-2)


class TestPolishGradient:
    @staticmethod
    def central(evaluate, x, h=1e-6):
        steps = np.diag(np.full(x.size, h))
        (p1, pss), (m1, mss) = evaluate(x + steps), evaluate(x - steps)
        return (p1 - m1) / (2 * h), (pss - mss) / (2 * h)

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.tag)
    def test_one_call_matches_central_differences(self, mode):
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        rng = np.random.default_rng(23)
        interior = [lo + rng.uniform(0.05, 0.95, mode.n_params) * (hi - lo) for _ in range(3)]
        # angles on hi, where the stencil steps inward; strengths and the
        # Schmidt angle stay inside, away from their square-root edges
        on_hi = np.where(hi > 1.0, hi, interior[0])
        calls = []

        def counting(P):
            calls.append(np.atleast_2d(P))
            return evaluate(P)

        for x in (*interior, on_hi):
            calls.clear()
            values, grads = optimizer._gradients(counting, x[None], hi)
            assert [P.shape[0] for P in calls] == [mode.n_params + 1]
            assert np.all((calls[0] >= lo) & (calls[0] <= hi))
            np.testing.assert_array_equal(values[0], [v[0] for v in evaluate(x)])
            c1, css = self.central(evaluate, x)
            np.testing.assert_allclose(grads[0, 0], c1, rtol=0, atol=1e-5)
            np.testing.assert_allclose(grads[0, 1], css, rtol=0, atol=1e-5)

    def test_known_values_skip_the_centres(self):
        evaluate = make_batch_evaluator(UNBIASED_SINGLET)
        lo, hi = np.array(UNBIASED_SINGLET.lo), np.array(UNBIASED_SINGLET.hi)
        X = lo + np.random.default_rng(5).uniform(0.1, 0.9, (3, 12)) * (hi - lo)
        calls = []

        def counting(P):
            calls.append(P.shape[0])
            return evaluate(P)

        values, grads = optimizer._gradients(counting, X, hi)
        again, regrads = optimizer._gradients(counting, X, hi, values)
        assert calls == [3 * 13, 3 * 12]
        assert again is values
        np.testing.assert_array_equal(regrads, grads)


class TestLockstepPolish:
    @pytest.mark.parametrize("mode,s", [(UNBIASED_SINGLET, 2.4), (GENERAL_BIASED, 1.0)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_restarts_do_not_depend_on_each_other(self, mode, s):
        # polishing a restart alone gives its result among four, bit for bit
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        rngs = [np.random.default_rng(r) for r in np.random.SeedSequence(0).spawn(4)]
        starts = optimizer._de_lockstep(evaluate, lo, hi, s, 2_500, rngs)
        together = optimizer._polish(evaluate, starts, lo, hi, s, 600)
        for i in range(4):
            alone = optimizer._polish(evaluate, starts[i:i + 1], lo, hi, s, 600)
            for (x, s1, ss), (y, t1, tss) in zip(alone, together[i::4]):
                assert [v.hex() for v in x] == [v.hex() for v in y]
                assert s1.hex() == t1.hex() and ss.hex() == tss.hex()

    def test_budget_bound_polish_lands_on_the_constraint(self):
        # at this budget every restart runs out before the rounding floor;
        # a winner 4.3e-6 off the target used to beat the region-2 value
        point = boundary_point(2.05, GENERAL_BIASED, 40_000, 0)
        assert abs(point.achieved_s - 2.05) <= 1e-9
        assert point.s_star <= 1.935854987 + 1e-9
        assert point.evaluations <= 40_000


class TestModeAgreement:
    def test_unbiased_matches_singlet_restriction(self):
        # adding the state parameter must not move the boundary
        free = boundary_point(1.0, UNBIASED, budget=60_000, seed=8)
        fixed = boundary_point(1.0, UNBIASED_SINGLET, budget=60_000, seed=8)
        assert free.s_star == pytest.approx(fixed.s_star, abs=2e-2)

    def test_biased_matches_unbiased_in_violating_region(self):
        biased = boundary_point(2.8, GENERAL_BIASED, budget=100_000, seed=8)
        unbiased_pt = boundary_point(2.8, UNBIASED, budget=100_000, seed=8)
        assert biased.s_star == pytest.approx(unbiased_pt.s_star, abs=2e-2)


class TestBoundaryCurve:
    def test_matches_pointwise_calls(self):
        grid = [0.9, 1.8]
        curve = boundary_curve(grid, UNBIASED_SINGLET, budget=12_000, seed=11)
        singles = [boundary_point(g, UNBIASED_SINGLET, budget=12_000, seed=11) for g in grid]
        assert curve == singles

    def test_parallel_workers_agree(self):
        grid = [0.7, 2.0]
        serial = boundary_curve(grid, UNBIASED_SINGLET, budget=11_000, seed=13, workers=1)
        parallel = boundary_curve(grid, UNBIASED_SINGLET, budget=11_000, seed=13, workers=2)
        assert serial == parallel

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            boundary_curve([], UNBIASED_SINGLET)
