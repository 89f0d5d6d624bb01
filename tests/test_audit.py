import numpy as np
import pytest

from bellrecycle import (
    MeasurementPair,
    ScenarioConfig,
    evaluate_scenario,
    make_observable,
    make_state,
)
from bellrecycle.audit import _random_pure_state_tensors, _random_units, audit_tradeoff_chain
from bellrecycle.bell import sequential_chsh_batch


class TestTradeoffChainAudit:
    @pytest.mark.parametrize("seed", [9, 110, 220])
    def test_weak_observables_do_not_violate(self, seed):
        # these seeds draw strengths down to ~1e-8, where D = sqrt(1 - R^2)
        # cancels and D - S used to read about -2e-9
        report = audit_tradeoff_chain(1_000_000, seed)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12


class TestAuditKernel:
    def test_matches_scalar_path_on_rotated_pure_states(self):
        # the monogamy audits' inputs: rotated pure-state T and unbiased
        # settings, here with strengths 0 and 1 mixed in
        n = 200
        rng = np.random.default_rng(5)
        T = _random_pure_state_tensors(rng, n)
        dirs = tuple(_random_units(rng, n) for _ in range(4))
        s = rng.uniform(0, 1, (4, n))
        s[:, ::7] = 0.0
        s[:, 3::7] = 1.0
        s[1, 5::11] = 0.0
        s[2, 5::11] = 1.0
        s1, sstar = sequential_chsh_batch(T, s, dirs)
        for i in range(n):
            x, xp, y, yp = (make_observable(0.0, s[k, i], dirs[k][i]) for k in range(4))
            res = evaluate_scenario(ScenarioConfig(
                state=make_state(np.zeros(3), np.zeros(3), T[i], check=False),
                alice=MeasurementPair(x, xp),
                bob=MeasurementPair(y, yp),
            ))
            assert res.s_first == pytest.approx(s1[i], abs=1e-12)
            assert res.s_star_second == pytest.approx(sstar[i], abs=1e-12)
