import pytest

from bellrecycle.audit import audit_tradeoff_chain


class TestTradeoffChainAudit:
    @pytest.mark.parametrize("seed", [9, 110, 220])
    def test_weak_observables_do_not_violate(self, seed):
        # these seeds draw strengths down to ~1e-8, where D = sqrt(1 - R^2)
        # cancels and D - S used to read about -2e-9
        report = audit_tradeoff_chain(1_000_000, seed)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12
