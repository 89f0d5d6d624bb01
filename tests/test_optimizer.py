import hashlib
import math
import multiprocessing
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

from oracles import mp_chart_strength

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

    def test_biased_chart_strength_near_trivial(self):
        # both charts take sqrt(1 - r^2) as sqrt((1 - r)(1 + r)), so they agree
        # bit for bit, and stay accurate, where 1 - r * r would cancel
        r = 1.0 - 10.0 ** -np.arange(1, 16)
        Q = np.zeros((16, 15))
        Q[0] = r
        s, _, _ = optimizer._biased_geometry(Q)
        assert s[0].tolist() == [from_reversibility_angle(x, 0.0)[0] for x in r]
        assert np.allclose(s[0], [mp_chart_strength(x, 0.0) for x in r], rtol=1e-15, atol=0)

    def test_batch_evaluator_matches_decode(self):
        rng = np.random.default_rng(3)
        for mode in (UNBIASED_SINGLET, UNBIASED, GENERAL_BIASED, REGION2_ANSATZ):
            evaluate = make_batch_evaluator(mode)
            P = rng.uniform(0.05, 0.95, size=(20, mode.n_params))
            if mode is GENERAL_BIASED:
                # alpha fractions of +-1 put each setting on the chart's edge
                # s + |b| = 1, where DE's clip and reflection put rows
                edge = rng.uniform(0.05, 0.95, size=(20, mode.n_params))
                edge[:, 1::4] = rng.choice([-1.0, 1.0], size=(20, 4))
                P = np.vstack([P, edge])
            s1, sstar = evaluate(P)
            for i in range(len(P)):
                res = evaluate_scenario(decode_params(mode, P[i]))
                assert res.s_first == pytest.approx(s1[i], abs=1e-12)
                assert res.s_star_second == pytest.approx(sstar[i], abs=1e-12)


ALL_MODES = [GENERAL_BIASED, UNBIASED, UNBIASED_SINGLET, REGION2_ANSATZ]


def counted_point(monkeypatch, s, mode, budget):
    """boundary_point at seed 0, and the rows its evaluator received."""
    received = []

    def counting(mode):
        evaluate = make_batch_evaluator(mode)

        def wrapper(P):
            received.append(np.atleast_2d(P).shape[0])
            return evaluate(P)

        return wrapper

    monkeypatch.setattr(optimizer, "make_batch_evaluator", counting)
    return boundary_point(s, mode, budget, 0), sum(received)


class TestBatchEvaluatorRows:
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.tag)
    def test_rows_independent_of_batch(self, mode):
        # the lockstep DE, and the polish that starts from DE's values, rely
        # on a row's value not depending on its batch, bit for bit
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
    starts, values, _ = next(optimizer._de_lockstep(evaluate, lo, hi, 2.4, [2_500], rngs))
    digest.update(starts.tobytes())
    digest.update(values.tobytes())
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
        # rows of every call but the 256-row DE generations: the polish's
        # line-search and restoration rows and its one-call stencils; the DE
        # bests are not evaluated again
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
        # evaluations is the DE batches' rows plus every polish row; DE gets
        # 10_000 - 10_000 // 10 rows, split over four restarts
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
    def test_evaluations_within_budget(self, monkeypatch, mode):
        # evaluations is exactly the rows the evaluator received
        point, received = counted_point(monkeypatch, 2.4, mode, 10_000)
        assert point.evaluations == received <= 10_000

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

    def test_negative_seed_named(self):
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            boundary_point(1.0, UNBIASED_SINGLET, budget=10_000, seed=-1)

    def test_region2_ansatz_mode(self):
        point = boundary_point(2.4, REGION2_ANSATZ, budget=15_000, seed=4)
        assert abs(point.achieved_s - 2.4) <= 1e-4
        # the four-parameter ansatz must dominate the region-3 formula here
        assert point.s_star > region3_curve(2.4) + 0.05

    @pytest.mark.parametrize("s,best", [(2.05, 1.935854986), (2.6, 1.193878728)])
    def test_region2_ansatz_optimum(self, s, best):
        # the best S2* the 17-, 13- and 12-parameter charts have found, to
        # nine decimals; the ansatz fixes x' = (1, 0, 0) and still reaches it
        point = boundary_point(s, REGION2_ANSATZ, budget=40_000, seed=0)
        assert abs(point.achieved_s - s) <= 1e-12
        assert point.s_star == pytest.approx(best, abs=1e-8)


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

        # the centres' values are given, so a block's gradients are one call
        # of its stencil rows only, and each row's equal its own call's
        X = np.stack([*interior, on_hi])
        F = np.stack(evaluate(X), axis=-1)
        block = optimizer._gradients(counting, X, F, hi)
        assert [P.shape[0] for P in calls] == [4 * mode.n_params]
        assert np.all((calls[0] >= lo) & (calls[0] <= hi))
        for x, f, g in zip(X, F, block):
            calls.clear()
            grads = optimizer._gradients(counting, x[None], f[None], hi)
            assert [P.shape[0] for P in calls] == [mode.n_params]
            np.testing.assert_array_equal(grads[0], g)
            c1, css = self.central(evaluate, x)
            np.testing.assert_allclose(grads[0, 0], c1, rtol=0, atol=1e-5)
            np.testing.assert_allclose(grads[0, 1], css, rtol=0, atol=1e-5)

    def test_known_values_skip_the_centres(self):
        evaluate = make_batch_evaluator(UNBIASED_SINGLET)
        lo, hi = np.array(UNBIASED_SINGLET.lo), np.array(UNBIASED_SINGLET.hi)
        X = lo + np.random.default_rng(5).uniform(0.1, 0.9, (3, 12)) * (hi - lo)
        F = np.stack(evaluate(X), axis=-1)
        calls = []

        def counting(P):
            calls.append(P.shape[0])
            return evaluate(P)

        grads = optimizer._gradients(counting, X, F, hi)
        assert calls == [3 * 12]
        # the same forward differences as when each centre is evaluated
        # alongside its own stencil
        for x, g in zip(X, grads):
            step = np.where(x + optimizer._FD_STEP > hi, -optimizer._FD_STEP, optimizer._FD_STEP)
            values = np.stack(evaluate(np.vstack([x, x + np.diag(step)])), axis=-1)
            np.testing.assert_array_equal(g, ((values[1:] - values[0]) / ((x + step) - x)[:, None]).T)


class TestLockstepDE:
    @pytest.mark.parametrize("mode,s", [(UNBIASED_SINGLET, 2.4), (GENERAL_BIASED, 1.0)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_restarts_do_not_depend_on_each_other(self, mode, s):
        # a restart run alone gives its best point and values among four,
        # bit for bit, and each restart evaluates the same number of rows
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        seeds = np.random.SeedSequence(0).spawn(4)
        X, F, used = next(optimizer._de_lockstep(evaluate, lo, hi, s, [2_500],
                                                 [np.random.default_rng(q) for q in seeds]))
        assert used == 2_500 // 64 * 64
        for i, q in enumerate(seeds):
            x, f, alone_used = next(optimizer._de_lockstep(evaluate, lo, hi, s, [2_500],
                                                           [np.random.default_rng(q)]))
            assert [v.hex() for v in x[0]] == [v.hex() for v in X[i]]
            assert [v.hex() for v in f[0]] == [v.hex() for v in F[i]]
            assert alone_used == used
            np.testing.assert_array_equal(f[0], np.concatenate(evaluate(x[0])))


class TestLockstepPolish:
    @pytest.mark.parametrize("mode,s", [(UNBIASED_SINGLET, 2.4), (GENERAL_BIASED, 1.0)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_restarts_do_not_depend_on_each_other(self, mode, s):
        # polishing a restart alone gives its result among four, bit for bit,
        # and the four spend the rows they spend alone
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        rngs = [np.random.default_rng(r) for r in np.random.SeedSequence(0).spawn(4)]
        starts, values, _ = next(optimizer._de_lockstep(evaluate, lo, hi, s, [2_500], rngs))
        together, rows = optimizer._polish(evaluate, starts, values, lo, hi, s, 600)
        alone_rows = 0
        for i in range(4):
            alone, spent = optimizer._polish(evaluate, starts[i:i + 1], values[i:i + 1],
                                             lo, hi, s, 600)
            alone_rows += spent
            assert spent <= 600
            for (x, s1, ss), (y, t1, tss) in zip(alone, together[i::4]):
                assert [v.hex() for v in x] == [v.hex() for v in y]
                assert s1.hex() == t1.hex() and ss.hex() == tss.hex()
        assert rows == alone_rows

    def test_budget_bound_polish_lands_on_the_constraint(self):
        # at this budget every restart runs out before the rounding floor;
        # a winner 4.3e-6 off the target used to beat the region-2 value
        point = boundary_point(2.05, GENERAL_BIASED, 40_000, 0)
        assert abs(point.achieved_s - 2.05) <= 1e-9
        assert point.s_star <= 1.935854987 + 1e-9
        assert point.evaluations <= 40_000


# boundary_point(s, mode, budget, 0) at bafb7df, whose DE always ran to its
# full share: S* as float hex, and at the small budgets also |S1|, the
# evaluations and the sha256 of the params' float hex, space-joined
_SMALL_BUDGET_POINTS = {
    (10_000, "unbiased-singlet", 2.4): ("0x1.79b85b407765cp+0", "0x1.33330aa60abe5p+1", 9993,
                                        "721a17eba6a3f666"),
    (10_000, "general-biased", 2.05): ("0x1.ef8e1370e1a93p+0", "0x1.0666667433023p+1", 9979,
                                       "2dff12c2e2d06dec"),
    (11_000, "unbiased-singlet", 2.4): ("0x1.79b949c0ff234p+0", "0x1.33333333321e4p+1", 10971,
                                        "33a89a8666b9169a"),
    (11_000, "general-biased", 2.05): ("0x1.ef8f427f6d879p+0", "0x1.0666666678569p+1", 10978,
                                       "efa6c92cc8551584"),
}
_FULL_DE_SSTAR = {
    ("unbiased-singlet", 1.0): "0x1.2dd33773548cbp+1",
    ("unbiased-singlet", 2.4): "0x1.79b949c8143fcp+0",
    ("unbiased-singlet", 2.75): "0x1.eca62bd3e7b18p-1",
    ("general-biased", 1.0): "0x1.6a09e667f3bcdp+1",
    ("unbiased-singlet", 2.05): "0x1.ef943145e942dp+0",
    ("general-biased", 2.05): "0x1.ef9431436e7eep+0",
    ("general-biased", 2.2): "0x1.bddb74d71ec6ap+0",
    ("region2-ansatz", 2.05): "0x1.ef9431473a220p+0",
}


class TestStagedStop:
    @pytest.mark.parametrize("budget,tag,s", list(_SMALL_BUDGET_POINTS))
    def test_small_budgets_run_no_stage(self, budget, tag, s):
        point = boundary_point(s, search_mode(tag), budget, 0)
        params = hashlib.sha256(" ".join(v.hex() for v in point.params).encode()).hexdigest()
        assert (point.s_star.hex(), point.achieved_s.hex(), point.evaluations,
                params[:16]) == _SMALL_BUDGET_POINTS[budget, tag, s]

    @pytest.mark.parametrize("mode,s", [(UNBIASED_SINGLET, 2.4), (GENERAL_BIASED, 2.2)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_checkpoints_evaluate_nothing_twice(self, mode, s):
        # a run through every stage yields at each stop what a one-shot run
        # to that stop gives, bit for bit, and its evaluator sees each row once
        evaluate = make_batch_evaluator(mode)
        lo, hi = np.array(mode.lo), np.array(mode.hi)
        received = []

        def counting(P):
            received.append(P.shape[0])
            return evaluate(P)

        def run(stops, evaluator):
            rngs = [np.random.default_rng(q) for q in np.random.SeedSequence(0).spawn(4)]
            return list(optimizer._de_lockstep(evaluator, lo, hi, s, stops, rngs))

        staged = run([*optimizer._STAGES, 12_000], counting)
        assert [used for *_, used in staged] == [2_560, 10_240, 11_968]
        assert sum(received) == 4 * 11_968
        for stop, (X, F, used) in zip([*optimizer._STAGES, 12_000], staged):
            [(x, f, alone_used)] = run([stop], evaluate)
            assert x.tobytes() == X.tobytes() and f.tobytes() == F.tobytes()
            assert alone_used == used

    @pytest.mark.parametrize("tag,s", [("unbiased-singlet", 1.0), ("unbiased-singlet", 2.4),
                                       ("unbiased-singlet", 2.75), ("general-biased", 1.0)])
    def test_easy_targets_stop_at_the_first_stage(self, monkeypatch, tag, s):
        point, received = counted_point(monkeypatch, s, search_mode(tag), 200_000)
        assert point.evaluations == received < 20_000
        assert abs(point.achieved_s - s) <= 1e-12
        assert abs(point.s_star - float.fromhex(_FULL_DE_SSTAR[tag, s])) <= 5e-12

    @pytest.mark.parametrize("mode,evaluations", [(UNBIASED_SINGLET, 13_750),
                                                  (GENERAL_BIASED, 13_286)],
                             ids=["unbiased-singlet", "general-biased"])
    def test_first_stage_stop_does_not_depend_on_the_budget(self, mode, evaluations):
        points = [boundary_point(1.0, mode, budget, 0) for budget in (20_000, 40_000, 200_000)]
        assert len({(p.s_star.hex(), p.achieved_s.hex(), p.params, p.evaluations)
                    for p in points}) == 1
        assert points[0].evaluations == evaluations

    @pytest.mark.parametrize("budget,stops", [
        (15_821, [3_559]),
        (15_822, [2_560]),
        (16_105, [2_560]),
        (16_106, [2_560, 2_624]),
        (54_398, [2_560, 11_239]),
        (54_399, [2_560, 10_240]),
        (54_683, [2_560, 10_240]),
        (54_684, [2_560, 10_240, 10_304]),
    ])
    def test_stages_run_where_their_polishes_fit_in_de_share(self, monkeypatch, budget, stops):
        # a stage runs where its stop and 1,000 polish rows per restart for
        # it and each earlier stage fit in (budget - budget // 10) // 4; DE's
        # last stop is that share less those rows, and is dropped where it
        # is short of one more 64-row generation past the last stage
        recorded = []
        de_lockstep = optimizer._de_lockstep

        def recording(evaluator, lo, hi, target, stops, rngs):
            recorded.append(list(stops))
            return de_lockstep(evaluator, lo, hi, target, stops, rngs)

        monkeypatch.setattr(optimizer, "_de_lockstep", recording)
        point, received = counted_point(monkeypatch, 1.0, UNBIASED_SINGLET, budget)
        assert recorded == [stops]
        assert point.evaluations == received <= budget

    @pytest.mark.parametrize("budget", [15_822, 54_399])
    @pytest.mark.parametrize("mode", [UNBIASED_SINGLET, GENERAL_BIASED], ids=lambda m: m.tag)
    def test_no_polish_repeats_a_start(self, monkeypatch, mode, budget):
        # at these budgets DE's last stop used to add no generation, so the
        # last polish restarted from the stage's DE bests
        starts = []
        polish = optimizer._polish

        def recording(evaluator, X0, *args):
            starts.append(X0.tobytes())
            return polish(evaluator, X0, *args)

        monkeypatch.setattr(optimizer, "_polish", recording)
        point = boundary_point(2.05, mode, budget, 0)
        assert len(set(starts)) == len(starts)
        assert point.evaluations <= budget

    @pytest.mark.parametrize("tag,s", [("unbiased-singlet", 2.05), ("general-biased", 2.05),
                                       ("general-biased", 2.2), ("region2-ansatz", 2.05)])
    def test_hard_targets_end_no_worse(self, monkeypatch, tag, s):
        # region2-ansatz 2.05 stops at the second stage, 1.2e-9 below; the
        # others run DE to its share less the 2,000 rows per restart reserved
        # for the two stage polishes, short of the full share behind the pins
        point, received = counted_point(monkeypatch, s, search_mode(tag), 200_000)
        assert point.evaluations == received <= 200_000
        assert abs(point.achieved_s - s) <= 1e-12
        assert point.s_star >= float.fromhex(_FULL_DE_SSTAR[tag, s]) - 5e-9


class TestWinnerPool:
    @staticmethod
    def rank(point, s):
        # on the constraint beats merely feasible, which beats infeasible;
        # then the larger S*, or among infeasible points the smaller miss
        _, s1, sstar = point
        miss = abs(abs(s1) - s)
        feasible = miss <= 1e-4
        return miss <= 1e-12, feasible, sstar if feasible else -miss

    def test_winner_ranks_first_among_every_stage(self, monkeypatch):
        # at seed 1 this target stops at the second stage, and its winner is a
        # point of the first: every stage's starts and polished points compete
        stages = []
        polish = optimizer._polish

        def recording(evaluator, X0, F0, *args):
            polished, rows = polish(evaluator, X0, F0, *args)
            stages.append([(x, *f) for x, f in zip(X0, F0.tolist())] + polished)
            return polished, rows

        monkeypatch.setattr(optimizer, "_polish", recording)
        point = boundary_point(2.05, UNBIASED_SINGLET, 200_000, 1)
        assert len(stages) == 2
        best = max((p for stage in stages for p in stage), key=lambda p: self.rank(p, 2.05))
        assert self.rank((None, point.achieved_s, point.s_star), 2.05) == self.rank(best, 2.05)
        assert point.params == tuple(best[0].tolist())
        assert self.rank(best, 2.05) > max(self.rank(p, 2.05) for p in stages[-1])
        # ranking the last stage's points only gave S* 1.9358549847 here
        assert point.s_star >= 1.9358549871
        assert point.evaluations == 47_419


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

    def test_pool_reaches_a_rebound_boundary_point(self, monkeypatch):
        # a tracer rebinds boundary_point to a closure, which cannot be
        # pickled; the pool maps a module-level function that looks it up
        calls = []
        point = optimizer.boundary_point

        def wrapper(*args):
            calls.append(args)
            return point(*args)

        monkeypatch.setattr(optimizer, "boundary_point", wrapper)
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        grid = [0.7, 2.0]
        parallel = boundary_curve(grid, UNBIASED_SINGLET, budget=10_000, seed=13, workers=2)
        # the workers called the wrapper in their own processes
        assert calls == []
        assert parallel == boundary_curve(grid, UNBIASED_SINGLET, budget=10_000, seed=13)
        assert len(calls) == 2

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            boundary_curve([], UNBIASED_SINGLET)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(DomainError):
            boundary_curve([1.0], UNBIASED_SINGLET, budget=10_000, workers=workers)

    @staticmethod
    def recording_executor(sizes):
        """An executor that starts no process: it records its size and
        returns a placeholder per task."""

        class Recording:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return [None for _ in zip(*iterables)]

        return Recording

    def test_pool_has_at_most_one_worker_per_point(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor",
                            self.recording_executor(sizes))
        assert boundary_curve([0.5, 1.0], UNBIASED_SINGLET, budget=10_000,
                              workers=5_000) == [None, None]
        assert sizes == [2]
        # one point runs in this process, without a pool
        boundary_curve([1.0], UNBIASED_SINGLET, budget=10_000, workers=5_000)
        assert sizes == [2]

    def test_pool_has_at_most_one_worker_per_usable_cpu(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor",
                            self.recording_executor(sizes))
        assert boundary_curve([0.5, 1.0, 1.5], UNBIASED_SINGLET, budget=10_000,
                              workers=5_000) == [None] * 3
        assert sizes == [2]

    def test_runs_in_place_in_a_daemonic_worker(self):
        # a multiprocessing.Pool worker may not start children of its own
        grid = [1.0, 1.1]
        with multiprocessing.Pool(1) as pool:
            points = pool.apply(boundary_curve, (grid,), {"budget": 10_000, "workers": 2})
        assert points == boundary_curve(grid, budget=10_000)

    def test_budget_checked_before_the_pool(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor",
                            self.recording_executor(sizes))
        with pytest.raises(BudgetTooSmall):
            boundary_curve([1.0, 2.0], UNBIASED_SINGLET, budget=5_000, workers=2)
        assert sizes == []

    def test_seed_checked_before_the_pool(self, monkeypatch):
        sizes = []
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor",
                            self.recording_executor(sizes))
        with pytest.raises(DomainError, match="seed must be non-negative, got -1"):
            boundary_curve([1.0, 2.0], UNBIASED_SINGLET, budget=10_000, seed=-1, workers=2)
        assert sizes == []
