import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from bellrecycle import audit, optimizer
from bellrecycle.audit import (
    _random_units,
    audit_conjecture,
    audit_equal_strength_monogamy,
    audit_orthogonal_monogamy,
    audit_tradeoff_chain,
    run_all_audits,
)
from bellrecycle.bell import schmidt_correlations, sequential_chsh_batch
from bellrecycle.monogamy import (EQUAL_STRENGTH_MONOGAMY_BOUND, ORTHOGONAL_MONOGAMY_BOUND,
                                  monogamy_margin)
from bellrecycle.observables import decoherence, reversibility

import oracles
from oracles import AUDITS, MONOGAMY_AUDITS, whole_chunk_audits, whole_chunks

BOUNDS = {
    "orthogonal-monogamy": ORTHOGONAL_MONOGAMY_BOUND,
    "equal-strength-monogamy": EQUAL_STRENGTH_MONOGAMY_BOUND,
    "conjecture": EQUAL_STRENGTH_MONOGAMY_BOUND,
}
MONOGAMY = [declaration for declaration in AUDITS if declaration.name in MONOGAMY_AUDITS]


def by_name(declaration):
    return declaration.name


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


def chunk_summary(rng, bound, orthogonal, equal_strengths):
    """The summary of one 2^12-row monogamy chunk drawn from rng, as an audit's block makes it."""
    declaration = audit._Monogamy("chunk", 0, bound, orthogonal, equal_strengths,
                                  strength=1.0, saturating=())
    T, dirs = np.empty((3, 3, audit._CHUNK)), np.empty((4, 3, audit._CHUNK))
    return declaration.chunk(rng, audit._CHUNK, T, dirs)


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
        margins, _ = oracles.monogamy_margins(bound, T, dirs, s)
        schmidt_margins, _ = oracles.monogamy_margins(bound, D, schmidt_dirs, s)
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
        args = (bound, orthogonal, equal_strengths)
        summary = chunk_summary(np.random.default_rng(11), *args)
        margins, oracle_config = oracles._monogamy_chunk(np.random.default_rng(11), audit._CHUNK,
                                                         *args)
        assert summary == audit._summary(1e-9, margins, oracle_config)
        assert summary[0] == audit._CHUNK
        report = audit._fold("chunk", [summary])
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
                margins, config = oracles.fixed_rows(report.name)
                assert report.worst_config == config
                assert report.worst_margin == float(margins[0])

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        # every chunk runs here: while tracemalloc traces, a pool's forked
        # child can hang inside os.fork on CPython 3.11, most likely on
        # tracemalloc's lock, held at the fork by an exiting thread of the
        # previous pool.  The first call's one-time allocations stay out of
        # the traced runs.
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 1)
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

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="glibc's heap trimming on Linux")
    def test_repeated_audits_fault_in_no_new_pages(self):
        # a block draws every chunk into the same T and direction arrays; a
        # chunk that allocated its own made glibc trim the heap after each
        # chunk and fault it back in, ~7,300 minor faults a call at 2^16 samples
        code = (
            "import resource\n"
            "from bellrecycle import audit, optimizer\n"
            "optimizer._usable_cpus = lambda: 1\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    audit.run_all_audits(2**16, 1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1000

    @pytest.mark.parametrize("declaration", AUDITS, ids=by_name)
    def test_chunk_streams_are_the_spawned_children(self, declaration):
        # chunk i draws from the i-th child of the audit's SeedSequence
        samples, seed = 3 * audit._CHUNK + 5, 8
        chunks = list(audit._chunk_rngs(declaration, samples, seed, range(4)))
        for i in (0, 1, len(chunks) - 1):
            rng, n = chunks[i]
            assert n == min(audit._CHUNK, samples - i * audit._CHUNK)
            # a fresh root each time, as spawn advances its child counter
            root = np.random.SeedSequence(seed + declaration.offset)
            child = np.random.default_rng(root.spawn(i + 1)[i])
            assert np.array_equal(rng.random(8), child.random(8))
        # the generators are made as the chunks run, not all up front
        tracemalloc.start()
        try:
            next(audit._chunk_rngs(declaration, 2**29, seed, range(2**17)))
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
        # the fixed rows win every report, so compare each chunk's random rows
        # too: a tradeoff chunk's margins, and a monogamy chunk's summary
        chunks = [audit._tradeoff_chunk(rng, n)
                  for rng, n in audit._chunk_rngs(audit._TRADEOFF_CHAIN, samples, seed, range(3))]
        for (margins, config), (oracle_margins, oracle_config) in zip(
                chunks, whole_chunks(audit._TRADEOFF_CHAIN, samples, seed), strict=True):
            assert np.array_equal(margins, oracle_margins)
            assert config == oracle_config
        for declaration in MONOGAMY:
            summaries = declaration.block(samples, seed, range(3))
            assert summaries == [audit._summary(1e-9, *chunk)
                                 for chunk in whole_chunks(declaration, samples, seed)]
        # and each audit's fixed rows, which every report folds in last
        for declaration in AUDITS:
            assert declaration.fixed() == audit._summary(declaration.tol,
                                                         *oracles.fixed_rows(declaration.name))


class TestPrunedChunks:
    """A monogamy chunk runs the kernel only on rows whose margin bound can
    reach its lowest margin or a violation, and reports what the whole chunk would."""

    # 100 whole chunks and a short one
    SAMPLES = 100 * audit._CHUNK + 5

    @pytest.mark.parametrize("seed", [2, 101])
    @pytest.mark.parametrize("declaration", MONOGAMY, ids=by_name)
    def test_summaries_equal_the_whole_chunk_oracle(self, declaration, seed):
        # one block of 101 chunks, so its T and direction arrays are refilled 100 times
        summaries = declaration.block(self.SAMPLES, seed, range(101))
        assert summaries == [audit._summary(1e-9, *chunk)
                             for chunk in whole_chunks(declaration, self.SAMPLES, seed)]

    @pytest.mark.parametrize("seed", [2, 101])
    @pytest.mark.parametrize("declaration", MONOGAMY, ids=by_name)
    def test_floor_is_below_every_kernel_margin(self, declaration, seed):
        # S2* of K T L is at most S*(T), since K and L are contractions
        bound, orthogonal, equal_strengths = MONOGAMY_AUDITS[declaration.name]
        excess = []
        for rng, n in audit._chunk_rngs(declaration, self.SAMPLES, seed, range(101)):
            T, dirs, s = oracles.monogamy_draws(rng, n, orthogonal, equal_strengths)
            s1, sstar = sequential_chsh_batch(T, s, dirs)
            floor = audit._margin_floor(bound, T, s1)
            excess.append((floor - monogamy_margin(bound, s1, sstar)).max())
        assert max(excess) <= audit._BOUND_SLACK

    @pytest.mark.parametrize("ties", [40, 300])
    def test_tight_bound_keeps_the_first_of_equal_rows(self, ties):
        # with every strength 0, K = L = I, so S2* = S*(T) and each floor is
        # its margin; 40 rows, more than the probe's 32, or all 300 share the
        # largest sin 2alpha and so the lowest margin, each with its own
        # directions.  Among 300 equal floors the probe leaves out row 0.
        n = 300
        rng = np.random.default_rng(31)
        alpha = rng.uniform(0.0, 0.6, n)
        tied = rng.choice(n, ties, replace=False)
        alpha[tied] = 0.7
        T = schmidt_correlations(alpha)
        dirs = np.stack([_random_units(rng, n) for _ in range(4)])
        s = np.zeros((4, n))
        bound = EQUAL_STRENGTH_MONOGAMY_BOUND
        margins, config = oracles.monogamy_margins(bound, T, dirs, s)
        floor = audit._margin_floor(bound, T, sequential_chsh_batch(T, s, dirs)[0])
        assert np.abs(floor - margins).max() <= 1e-15
        assert np.all(margins[tied] == margins.min())
        summary = audit._monogamy_summary(1e-9, bound, T, dirs, s)
        assert summary == audit._summary(1e-9, margins, config)
        assert summary[3] == audit._config_dict(int(tied.min()), T, dirs, s)

    @pytest.mark.parametrize("bound", [2.5, 0.0])
    @pytest.mark.parametrize("name", list(MONOGAMY_AUDITS))
    def test_every_violation_is_counted(self, name, bound):
        # below the relation's bound a chunk violates: at 2.5 in about a fifth
        # of its rows, at 0 in every row
        _, orthogonal, equal_strengths = MONOGAMY_AUDITS[name]
        args = (bound, orthogonal, equal_strengths)
        summary = chunk_summary(np.random.default_rng(13), *args)
        oracle = oracles._monogamy_chunk(np.random.default_rng(13), audit._CHUNK, *args)
        assert summary == audit._summary(1e-9, *oracle)
        violations = summary[1]
        assert violations == audit._CHUNK if bound == 0.0 else 0 < violations < audit._CHUNK


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
        # 3 * 2^12 + 5 rows make four chunks, in strided blocks of 4, 2 + 2
        # and 2 + 1 + 1; 2^12 rows make one, which always runs here.  The
        # fixed rows win every report, so each chunk's summary is compared too.
        fold = audit._fold
        reports, summaries = [], []

        def recording(name, rows):
            summaries[-1].append(rows)
            return fold(name, rows)

        monkeypatch.setattr(audit, "_fold", recording)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(optimizer, "_usable_cpus", lambda cpus=cpus: cpus)
            summaries.append([])
            reports.append(run_all_audits(samples, 8))
        assert reports[0] == reports[1] == reports[2]
        assert summaries[0] == summaries[1] == summaries[2]
        assert [len(rows) for rows in summaries[0]] == [-(-samples // audit._CHUNK) + 1] * 4
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, samples", [(3, audit._CHUNK), (1, 3 * audit._CHUNK + 5)],
                             ids=["one-chunk", "one-cpu"])
    def test_starts_no_process(self, monkeypatch, cpus, samples):
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor", NoPool)
        assert [r.samples for r in run_all_audits(samples, 2)] == [
            samples + 1, samples + 1, samples + 3, samples + 1]

    @pytest.mark.parametrize("chunk", [_failing_chunk, _short_chunk_fails],
                             ids=["every-chunk", "second-block"])
    def test_no_process_outlives_a_failing_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
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
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor", NoPool)
        with pytest.raises(DomainError, match=f"seed must be non-negative, got {seed}"):
            run(3 * audit._CHUNK, seed)

    @pytest.mark.parametrize("run", [run_all_audits, audit_orthogonal_monogamy,
                                     audit_equal_strength_monogamy, audit_tradeoff_chain,
                                     audit_conjecture], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("samples, seed, message", [
        (3 * audit._CHUNK, 1.5, "seed must be an integer, got 1.5"),
        (3 * audit._CHUNK, math.nan, "seed must be an integer, got nan"),
        (2.5, 1, "samples must be an integer, got 2.5"),
        (float(3 * audit._CHUNK), 1, "samples must be an integer, got 12288.0"),
    ], ids=["half-seed", "nan-seed", "half-samples", "float-samples"])
    def test_non_integer_input_named_before_any_work(self, monkeypatch, run, samples, seed,
                                                     message):
        # numpy used to refuse these mid-audit, a seed with the audit's offset added
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(optimizer.concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(audit, "_chunk_rngs", NoPool)
        with pytest.raises(DomainError, match=re.escape(message)):
            run(samples, seed)

    def test_any_integer_type_is_accepted(self):
        assert (run_all_audits(np.int64(audit._CHUNK + 1), np.uint8(3))
                == run_all_audits(audit._CHUNK + 1, 3))
