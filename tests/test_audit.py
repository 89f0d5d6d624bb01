import multiprocessing
import tracemalloc

import numpy as np
import pytest
import sympy

from bellrecycle import (
    DomainError,
    MeasurementPair,
    ScenarioConfig,
    evaluate_scenario,
    make_observable,
    make_state,
)
from bellrecycle import audit
from bellrecycle.audit import (
    _random_units,
    audit_conjecture,
    audit_equal_strength_monogamy,
    audit_orthogonal_monogamy,
    audit_tradeoff_chain,
    run_all_audits,
)
from bellrecycle.bell import sequential_chsh_batch
from bellrecycle.monogamy import EQUAL_STRENGTH_MONOGAMY_BOUND, ORTHOGONAL_MONOGAMY_BOUND
from bellrecycle.observables import decoherence, reversibility

import oracles
from oracles import MONOGAMY_AUDITS, whole_chunk_audits, whole_chunks

BOUNDS = {
    "orthogonal-monogamy": ORTHOGONAL_MONOGAMY_BOUND,
    "equal-strength-monogamy": EQUAL_STRENGTH_MONOGAMY_BOUND,
    "conjecture": EQUAL_STRENGTH_MONOGAMY_BOUND,
}


def scalar_margin(bound, config):
    """bound - (|S1| + S2*) of an audit configuration, through the object path."""
    x, xp, y, yp = (
        make_observable(0.0, strength, config[key])
        for strength, key in zip(config["strengths"], ("x", "x_prime", "y", "y_prime"))
    )
    res = evaluate_scenario(ScenarioConfig(
        state=make_state(np.zeros(3), np.zeros(3), np.array(config["T"]), check=False),
        alice=MeasurementPair(x, xp),
        bob=MeasurementPair(y, yp),
    ))
    return bound - (abs(res.s_first) + res.s_star_second)


class TestTradeoffChainAudit:
    @pytest.mark.parametrize("seed", [9, 110, 220])
    def test_weak_observables_do_not_violate(self, seed):
        # these seeds draw strengths down to 2.4e-7, 1.3e-6 and 2.1e-6, where
        # D = sqrt(1 - R^2) would cancel
        report = audit_tradeoff_chain(1_000_000, seed)
        assert report.violations == 0
        assert report.worst_margin >= -1e-12

    def test_weak_strengths_do_not_violate_at_any_bias(self):
        # at S = 1e-8, D = sqrt(1 - R^2) cancels and D - S used to read about -2e-9
        s = np.repeat(10.0 ** -np.arange(1, 16), 9)
        b = np.tile(np.linspace(-1.0, 1.0, 9), 15) * (1 - s)
        margins, _ = audit._tradeoff_margins(s, b)
        assert margins.min() >= -1e-12

    def test_margins_match_mpmath_on_the_saturating_families(self):
        # every margin is tight on b = 0 or |b| = 1 - s, so each sits at
        # rounding level there; the scalar path (make_observable, reversibility,
        # decoherence) and the audit's arrays both stay within 1e-15 of 50 digits
        s = np.linspace(0.0, 1.0, 1001)
        for b in (np.zeros_like(s), 1 - s, -(1 - s)):
            chain = audit._tradeoff_chain(s, b)
            for i in range(s.size):
                exact = oracles.mp_tradeoff_chain(b[i], s[i])
                obs = make_observable(b[i], s[i], [0.0, 0.0, 1.0])
                r2, d = reversibility(obs) ** 2, decoherence(obs)
                scalar = [r2 - (1 - s[i]), (1 - s[i] * s[i]) - r2, d - s[i], s[i] - d * d,
                          r2 - abs(b[i]), r2 + s[i] * s[i] - 0.75]
                assert np.abs(np.array(scalar) - exact).max() <= 1e-15
                assert np.abs(chain[:, i] - exact).max() <= 1e-15

    def test_chain_is_two_identities(self):
        # with u^2, v^2 = (1 +- b)^2 - s^2 and R = (u + v) / 2, R^2 <= 1 - s^2
        # and R^2 >= 1 - s square to the identities below, whose differences
        # vanish exactly where the audit's margins saturate
        b, s = sympy.symbols("b s", real=True)
        u2, v2 = (1 + b) ** 2 - s ** 2, (1 - b) ** 2 - s ** 2
        upper = (1 - b ** 2 - s ** 2) ** 2 - u2 * v2
        lower = u2 * v2 - ((1 - s) ** 2 - b ** 2) ** 2
        assert sympy.expand(upper - 4 * b ** 2 * s ** 2) == 0
        assert sympy.expand(lower - 4 * s * ((1 - s) ** 2 - b ** 2)) == 0

        def zeros(expr):
            # the zero set of a product is the union of its factors' zero sets
            return {frozenset(root.items()) for f, _ in sympy.factor_list(expr)[1]
                    for root in sympy.solve(f, [b, s], dict=True)}

        # b s = 0, and s = 0 or |b| = 1 - s
        assert zeros(upper) == {frozenset({(b, 0)}), frozenset({(s, 0)})}
        assert zeros(lower) == {frozenset({(s, 0)}), frozenset({(b, 1 - s)}),
                                frozenset({(b, s - 1)})}
        # both squared sides are non-negative where |b| <= 1 - s: the smaller
        # is (1 - s)^2 - b^2, and the other exceeds it by 2 s (1 - s)
        assert sympy.expand((1 - b ** 2 - s ** 2) - ((1 - s) ** 2 - b ** 2) - 2 * s * (1 - s)) == 0
        # R^2 >= 1 - s gives R^2 + s^2 - 3/4 >= (s - 1/2)^2
        assert sympy.expand((1 - s) + s ** 2 - sympy.Rational(3, 4)
                            - (s - sympy.Rational(1, 2)) ** 2) == 0


class TestAuditKernel:
    @pytest.mark.parametrize("biased", [False, True], ids=["pure-unbiased", "mixed-biased"])
    def test_matches_scalar_path_on_rotated_pure_states(self, biased):
        # the monogamy audits' inputs: rotated pure-state T and unbiased
        # settings, here with strengths 0 and 1 mixed in; the biased input
        # shrinks T to a rotated mixed state and adds independent Bloch
        # vectors a != b and biased settings
        n = 200
        rng = np.random.default_rng(5)
        T = oracles._random_pure_state_tensors(rng, n)
        dirs = tuple(_random_units(rng, n) for _ in range(4))
        s = rng.uniform(0, 1, (4, n))
        s[:, ::7] = 0.0
        s[:, 3::7] = 1.0
        s[1, 5::11] = 0.0
        s[2, 5::11] = 1.0
        a = b = np.zeros((3, n))
        biases = None
        if biased:
            T *= rng.uniform(0, 1, n)
            a = _random_units(rng, n) * rng.uniform(0, 1, n)
            b = _random_units(rng, n) * rng.uniform(0, 1, n)
            biases = rng.uniform(-1, 1, (4, n)) * (1 - s)
        s1, sstar = sequential_chsh_batch(T, s, dirs, biases, a, b)
        for i in range(n):
            x, xp, y, yp = (
                make_observable(0.0 if biases is None else biases[k, i], s[k, i], dirs[k][:, i])
                for k in range(4)
            )
            res = evaluate_scenario(ScenarioConfig(
                state=make_state(a[:, i], b[:, i], T[:, :, i], check=False),
                alice=MeasurementPair(x, xp),
                bob=MeasurementPair(y, yp),
            ))
            assert res.s_first == pytest.approx(s1[i], abs=1e-12)
            assert res.s_star_second == pytest.approx(sstar[i], abs=1e-12)


class TestSchmidtFrame:
    @pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "free"])
    def test_margins_are_invariant_under_local_rotations(self, orthogonal):
        # the audits sample each pure state in its Schmidt frame D; moving
        # its local rotations onto the directions, (Ra D Rb^T; x, x', y, y')
        # -> (D; Ra^T x, Ra^T x', Rb^T y, Rb^T y'), leaves every margin as it is
        n = 512
        rng = np.random.default_rng(23)
        s2 = np.sin(2 * rng.uniform(0.0, np.pi / 4, n))
        D = np.zeros((3, 3, n))
        D[0, 0], D[1, 1], D[2, 2] = s2, -s2, 1.0
        Ra, Rb = oracles._random_rotations(rng, n), oracles._random_rotations(rng, n)
        T = np.einsum("ikn,kln,jln->ijn", Ra, D, Rb)
        x, y = oracles._random_units(rng, n), oracles._random_units(rng, n)
        if orthogonal:
            xp, yp = oracles._orthogonal_partners(rng, x), oracles._orthogonal_partners(rng, y)
        else:
            xp, yp = oracles._random_units(rng, n), oracles._random_units(rng, n)
        s = rng.uniform(0, 1, (4, n))
        s[:, ::7] = 0.0
        s[:, 3::7] = 1.0
        s[1, 5::11] = 0.0
        s[2, 5::11] = 1.0
        dirs = np.stack([x, xp, y, yp])
        frame = np.stack([Ra, Ra, Rb, Rb])
        schmidt_dirs = np.einsum("rikn,rin->rkn", frame, dirs)
        bound = ORTHOGONAL_MONOGAMY_BOUND if orthogonal else EQUAL_STRENGTH_MONOGAMY_BOUND
        margins, _ = audit._monogamy_margins(bound, T, dirs, s)
        schmidt_margins, _ = audit._monogamy_margins(bound, D, schmidt_dirs, s)
        assert np.abs(margins - schmidt_margins).max() <= 1e-12


class TestOrthogonalPartners:
    def test_collinear_draw_falls_back_to_a_unit_partner(self):
        # draws parallel to u leave w - (w.u) u at rounding level, so every
        # row takes the deterministic partner
        u = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.95, 0.0, 0.3], [-0.99, 0.1, 0.1],
                      [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.6, 0.8, 0.0], [0.1, 0.6, 0.8]]).T
        u /= np.sqrt((u * u).sum(axis=0))
        n = u.shape[1]

        w = audit._orthogonal_partners(2.5 * u, u)
        assert w.shape == (3, n)
        assert np.allclose(np.sqrt((w * w).sum(axis=0)), 1.0, rtol=0, atol=1e-15)
        assert np.abs((u * w).sum(axis=0)).max() <= 1e-12


class ScriptedUniform:
    """Stands in for a Generator: each uniform call returns the next given (2, m) batch."""

    def __init__(self, *batches):
        self.batches = list(batches)
        self.sizes = []

    def uniform(self, low, high, size):
        assert (low, high) == (-1.0, 1.0)
        self.sizes.append(size)
        return self.batches.pop(0)


class TestRandomUnits:
    SAMPLES = 2**20

    @pytest.fixture(scope="class")
    def draws(self):
        # 2^20 directions and as many partner draws, a chunk at a time as the audits draw them
        rng = np.random.default_rng(2024)
        chunks = self.SAMPLES // audit._CHUNK
        x = np.concatenate([_random_units(rng, audit._CHUNK) for _ in range(chunks)], axis=1)
        g = np.concatenate([_random_units(rng, audit._CHUNK) for _ in range(chunks)], axis=1)
        return x, g

    def test_directions_are_unit_vectors(self, draws):
        x, _ = draws
        assert x.shape == (3, self.SAMPLES)
        assert np.abs(np.sqrt((x * x).sum(axis=0)) - 1).max() <= 4 * np.finfo(float).eps

    def test_first_and_second_moments_are_isotropic(self, draws):
        # a uniform unit vector has E x = 0, E x x^T = I/3, var x_i = 1/3,
        # var x_i^2 = 1/5 - 1/9 = 4/45 and var x_i x_j = E x_i^2 x_j^2 = 1/15
        x, _ = draws
        n = self.SAMPLES
        assert np.all(np.abs(x.mean(axis=1)) <= 5 * np.sqrt(1 / 3 / n))
        second = x @ x.T / n
        variance = np.where(np.eye(3, dtype=bool), 4 / 45, 1 / 15)
        assert np.all(np.abs(second - np.eye(3) / 3) <= 5 * np.sqrt(variance / n))

    def test_orthogonal_partners_are_orthogonal_unit_vectors(self, draws):
        x, g = draws
        xp = audit._orthogonal_partners(g, x)
        assert np.abs(np.sqrt((xp * xp).sum(axis=0)) - 1).max() <= 4 * np.finfo(float).eps
        assert np.abs((x * xp).sum(axis=0)).max() <= 1e-15

    def test_a_short_batch_is_refilled_in_draw_order(self):
        # n = 6 asks for 6 + 2 + 16 = 24 points, of which only two land in
        # the disc ((-1, 0) lies on its edge); the other four come first
        # from a second batch of 4 + 1 + 16 = 21, which has six
        n, outside = 6, [0.9, 0.8]
        first = np.tile(np.array([outside]).T, 24)
        first[:, 5], first[:, 11], first[:, 17] = [0.3, -0.4], [-1.0, 0.0], [-0.1, 0.2]
        second = np.tile(np.array([outside]).T, 21)
        inside = [[0.0, 0.0], [0.5, 0.5], [-0.6, 0.1], [0.2, -0.9], [0.7, 0.0], [0.0, -0.3]]
        second[:, [1, 2, 6, 9, 14, 20]] = np.array(inside).T
        rng = ScriptedUniform(first, second)
        units = _random_units(rng, n)
        assert rng.sizes == [(2, 24), (2, 21)]
        accepted = [[0.3, -0.4], [-0.1, 0.2], *inside[:4]]
        expected = [[2 * u * np.sqrt(1 - (u * u + v * v)), 2 * v * np.sqrt(1 - (u * u + v * v)),
                     1 - 2 * (u * u + v * v)] for u, v in accepted]
        np.testing.assert_allclose(units, np.array(expected).T, rtol=0, atol=1e-15)


class TestChunkedAudits:
    @pytest.mark.parametrize("samples", [1, 2**12, 2**12 + 1, 2**16, 2**16 + 1])
    def test_sample_counts(self, samples):
        # each monogamy audit adds its saturating configuration, the tradeoff
        # chain its three boundary observables; 2^12 rows make one chunk and
        # 2^16 + 1 seventeen
        counts = {r.name: r.samples for r in run_all_audits(samples, 4)}
        assert counts == {
            "orthogonal-monogamy": samples + 1,
            "equal-strength-monogamy": samples + 1,
            "tradeoff-chain": samples + 3,
            "conjecture": samples + 1,
        }

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("run", [run_all_audits, audit_orthogonal_monogamy,
                                     audit_equal_strength_monogamy, audit_tradeoff_chain,
                                     audit_conjecture], ids=lambda f: f.__name__)
    def test_rejects_fewer_than_one_sample(self, run, samples):
        # a report holding only the fixed configurations would look like a pass
        with pytest.raises(DomainError):
            run(samples, 1)

    @pytest.mark.parametrize("seed", [1, 7])
    def test_worst_config_reproduces_worst_margin(self, seed):
        for report in run_all_audits(2**16 + 1, seed):
            if report.name in BOUNDS:
                margin = scalar_margin(BOUNDS[report.name], report.worst_config)
                assert margin == pytest.approx(report.worst_margin, abs=1e-12)

    @pytest.mark.parametrize("orthogonal,equal_strengths,bound", [
        (True, False, ORTHOGONAL_MONOGAMY_BOUND),
        (False, True, EQUAL_STRENGTH_MONOGAMY_BOUND),
        (False, False, EQUAL_STRENGTH_MONOGAMY_BOUND),
    ])
    def test_chunk_config_is_its_worst_random_row(self, orthogonal, equal_strengths, bound):
        # the saturating row wins every report, so check a random chunk alone
        rng = np.random.default_rng(11)
        chunk = audit._monogamy_chunk(rng, audit._CHUNK, bound, orthogonal, equal_strengths)
        margins = chunk[0]
        assert margins.shape == (audit._CHUNK,)
        report = audit._fold("chunk", [audit._summary(1e-9, *chunk)])
        assert report.worst_margin == margins.min()
        config = report.worst_config
        assert scalar_margin(bound, config) == pytest.approx(margins.min(), abs=1e-12)
        s = config["strengths"]
        if equal_strengths:
            assert s[0] == s[1] and s[2] == s[3]
        if orthogonal:
            assert abs(np.dot(config["x"], config["x_prime"])) <= 1e-12
            assert abs(np.dot(config["y"], config["y_prime"])) <= 1e-12

    @pytest.mark.parametrize("seed", [1, 101])
    def test_saturating_row_wins_each_monogamy_report(self, seed):
        # the known saturating row beats every random one, so a report does
        # not depend on the random stream that the chunks draw
        for report in run_all_audits(100_000, seed):
            if report.name in BOUNDS:
                margins, config = audit._saturating(report.name, BOUNDS[report.name])
                assert report.worst_config == config
                assert report.worst_margin == float(margins[0])

    def test_memory_does_not_grow_with_samples(self):
        # the first process pool imports multiprocessing once; keep that
        # one-time import out of the traced runs
        run_all_audits(2**13, 1)
        peaks = []
        for samples in (2**14, 2**18):
            tracemalloc.start()
            try:
                run_all_audits(samples, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 8e6
        assert abs(peaks[1] - peaks[0]) <= 1e6

    @pytest.mark.parametrize("name", list(audit._SEED_OFFSETS))
    def test_chunk_streams_are_the_spawned_children(self, name):
        # chunk i draws from the i-th child of the audit's SeedSequence
        samples, seed = 3 * audit._CHUNK + 5, 8
        chunks = list(audit._chunk_rngs(name, samples, seed))
        for i in (0, 1, len(chunks) - 1):
            rng, n = chunks[i]
            assert n == min(audit._CHUNK, samples - i * audit._CHUNK)
            # a fresh root each time, as spawn advances its child counter
            root = np.random.SeedSequence(seed + audit._SEED_OFFSETS[name])
            child = np.random.default_rng(root.spawn(i + 1)[i])
            assert np.array_equal(rng.random(8), child.random(8))
        # the generators are made as the chunks run, not all up front
        tracemalloc.start()
        try:
            next(audit._chunk_rngs(name, 2**29, seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_audits_match_the_whole_chunk_oracle(self):
        # 2 * 2^12 + 5 rows make two whole chunks and a short one
        samples, seed = 2 * audit._CHUNK + 5, 3
        for report, oracle in zip(run_all_audits(samples, seed),
                                  whole_chunk_audits(samples, seed), strict=True):
            assert report.name == oracle.name
            assert report.samples == oracle.samples
            assert report.violations == oracle.violations
            assert report.worst_margin == oracle.worst_margin
            assert report.worst_config == oracle.worst_config
        # the fixed rows win every report, so compare each chunk's random rows too
        for name in audit._SEED_OFFSETS:
            rngs = audit._chunk_rngs(name, samples, seed)
            if name == "tradeoff-chain":
                chunks = [audit._tradeoff_chunk(rng, n) for rng, n in rngs]
            else:
                chunks = [audit._monogamy_chunk(rng, n, *MONOGAMY_AUDITS[name]) for rng, n in rngs]
            for (margins, config), (oracle_margins, oracle_config) in zip(
                    chunks, whole_chunks(name, samples, seed), strict=True):
                assert np.array_equal(margins, oracle_margins)
                assert config == oracle_config


_tradeoff_chunk = audit._tradeoff_chunk


def _failing_chunk(rng, n):
    raise RuntimeError("chunk failed")


def _short_chunk_fails(rng, n):
    # 3 * 2^12 + 5 rows end in a 5-row chunk, which the second block runs
    if n < audit._CHUNK:
        raise RuntimeError("short chunk failed")
    return _tradeoff_chunk(rng, n)


class NoPool:
    """Stands in for ProcessPoolExecutor and fails if an audit asks for one."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


class TestWorkerSplit:
    @pytest.mark.parametrize("samples", [3 * audit._CHUNK + 5, audit._CHUNK])
    def test_reports_do_not_depend_on_the_worker_count(self, monkeypatch, samples):
        # 3 * 2^12 + 5 rows make four chunks, split 4, 2 + 2 and 1 + 1 + 2;
        # 2^12 rows make one, which always runs here.  The fixed rows win
        # every report, so each chunk's summary is compared too.
        fold = audit._fold
        reports, summaries = [], []

        def recording(name, rows):
            summaries[-1].append(rows)
            return fold(name, rows)

        monkeypatch.setattr(audit, "_fold", recording)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(audit, "_usable_cpus", lambda cpus=cpus: cpus)
            summaries.append([])
            reports.append(run_all_audits(samples, 8))
        assert reports[0] == reports[1] == reports[2]
        assert summaries[0] == summaries[1] == summaries[2]
        assert [len(rows) for rows in summaries[0]] == [-(-samples // audit._CHUNK) + 1] * 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, samples", [(3, audit._CHUNK), (1, 3 * audit._CHUNK + 5)],
                             ids=["one-chunk", "one-cpu"])
    def test_starts_no_process(self, monkeypatch, cpus, samples):
        monkeypatch.setattr(audit, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(audit.concurrent.futures, "ProcessPoolExecutor", NoPool)
        assert [r.samples for r in run_all_audits(samples, 2)] == [
            samples + 1, samples + 1, samples + 3, samples + 1]

    @pytest.mark.parametrize("chunk", [_failing_chunk, _short_chunk_fails],
                             ids=["every-chunk", "second-block"])
    def test_no_process_outlives_a_failing_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(audit, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(audit, "_tradeoff_chunk", chunk)
        with pytest.raises(RuntimeError, match="chunk failed"):
            audit_tradeoff_chain(3 * audit._CHUNK + 5, 1)
        assert multiprocessing.active_children() == []

    def test_runs_in_place_in_a_daemonic_worker(self):
        # a multiprocessing.Pool worker may not start children of its own
        samples = 3 * audit._CHUNK + 5
        with multiprocessing.Pool(1) as pool:
            report = pool.apply(audit_tradeoff_chain, (samples, 1))
        assert report == audit_tradeoff_chain(samples, 1)

    @pytest.mark.parametrize("run", [run_all_audits, audit_orthogonal_monogamy,
                                     audit_equal_strength_monogamy, audit_tradeoff_chain,
                                     audit_conjecture], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [-1, -500])
    def test_negative_seed_named_before_the_pool(self, monkeypatch, run, seed):
        # seeds down to -101 used to pass, by the accident of the per-audit offsets
        monkeypatch.setattr(audit, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(audit.concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(DomainError, match=f"seed must be non-negative, got {seed}"):
            run(3 * audit._CHUNK, seed)
