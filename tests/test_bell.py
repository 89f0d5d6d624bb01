import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrecycle import (
    ConstraintViolation,
    DomainError,
    MeasurementPair,
    WMatrix,
    ZeroDirection,
    angle_between,
    chsh_value,
    g_equal_strength,
    g_orthogonal,
    horodecki_sstar,
    make_state,
    projective,
    s0_bound,
    s0_from_w,
    singlet,
    svd3,
    trivial,
    unbiased,
    w_matrix,
)
from bellrecycle.audit import run_all_audits
from bellrecycle.bell import (_add_outer, _sstar, _sum3, sequential_chsh_batch,
                              singular_values_batch)
from bellrecycle.observables import reversibility_roots

import oracles
from oracles import grid_search_sstar

ROOT2 = math.sqrt(2.0)


def optimal_pairs():
    alice = MeasurementPair(projective((1, 0, 0)), projective((0, 1, 0)))
    bob = MeasurementPair(
        projective(np.array([-1, -1, 0]) / ROOT2),
        projective(np.array([-1, 1, 0]) / ROOT2),
    )
    return alice, bob


class TestChshValue:
    def test_tsirelson(self):
        alice, bob = optimal_pairs()
        assert chsh_value(singlet(), alice, bob) == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_trivial_biased_reaches_two(self):
        pair = MeasurementPair(trivial(1.0), trivial(1.0))
        assert chsh_value(singlet(), pair, pair) == pytest.approx(2.0, abs=1e-15)

    def test_bilinearity_in_strengths(self):
        s = 2 * ROOT2 / 3
        alice = MeasurementPair(unbiased(s, (1, 0, 0)), unbiased(s, (0, 1, 0)))
        bob = MeasurementPair(
            unbiased(s, np.array([-1, -1, 0]) / ROOT2),
            unbiased(s, np.array([-1, 1, 0]) / ROOT2),
        )
        assert chsh_value(singlet(), alice, bob) == pytest.approx(
            (8 / 9) * 2 * ROOT2, abs=1e-12
        )

    def test_mixture_linearity(self):
        rng = np.random.default_rng(2)
        alice, bob = optimal_pairs()
        for _ in range(100):
            p = rng.uniform(0, 1)
            t1 = make_state([0, 0, 0], [0, 0, 0], -np.eye(3) * rng.uniform(0, 1))
            t2 = make_state([0, 0, 0], [0, 0, 0], np.diag([1.0, 1.0, -1.0]) * rng.uniform(0, 1))
            mix = make_state(
                p * t1.a + (1 - p) * t2.a,
                p * t1.b + (1 - p) * t2.b,
                p * t1.T + (1 - p) * t2.T,
            )
            expected = p * chsh_value(t1, alice, bob) + (1 - p) * chsh_value(t2, alice, bob)
            assert chsh_value(mix, alice, bob) == pytest.approx(expected, abs=1e-12)


class TestHorodecki:
    def test_singlet(self):
        assert horodecki_sstar(-np.eye(3)) == pytest.approx(2 * ROOT2, abs=1e-12)

    def test_dephased_singlet_endpoint(self):
        K = np.diag([0.5, 0.5, 0.0])
        assert horodecki_sstar(K @ -np.eye(3) @ K) == pytest.approx(1 / ROOT2, abs=1e-12)

    def test_generic_diagonal(self):
        assert horodecki_sstar(np.diag([0.9, 0.3, 0.1])) == pytest.approx(
            2 * math.sqrt(0.81 + 0.09), abs=1e-12
        )

    def test_rejects_unphysical_correlations(self):
        with pytest.raises(ConstraintViolation):
            horodecki_sstar(1.5 * np.eye(3))

    def test_against_grid_search(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            M = rng.normal(size=(3, 3))
            M *= rng.uniform(0.2, 1.0) / np.linalg.svd(M, compute_uv=False)[0]
            assert horodecki_sstar(M) == pytest.approx(grid_search_sstar(M), abs=1e-3)


class TestSvd3:
    def test_identity(self):
        assert svd3(np.eye(3)) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_signed_diagonal(self):
        assert svd3(np.diag([3.0, -2.0, 1.0])) == pytest.approx((3.0, 2.0, 1.0), abs=1e-13)

    def test_against_symmetric_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            M = rng.normal(size=(3, 3)) * rng.uniform(0.1, 10)
            expected = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(M.T @ M))[::-1], 0, None))
            assert np.allclose(svd3(M), expected, atol=1e-10 * max(1.0, expected[0]))

    def test_frobenius_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            M = rng.normal(size=(3, 3))
            s = svd3(M)
            assert sum(v * v for v in s) == pytest.approx((M * M).sum(), abs=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(500, 3, 3))
        batch = singular_values_batch(M)
        for i in range(500):
            assert np.allclose(batch[i], svd3(M[i]), atol=1e-14)


def _rotation(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * K @ K


class TestSingularValuesDegenerate:
    """Closed-form singular values where all or some of them coincide."""

    def test_singlet(self):
        assert np.allclose(singular_values_batch(-np.eye(3)[None]), 1.0, rtol=0, atol=1e-15)
        assert svd3(-np.eye(3)) == pytest.approx((1.0, 1.0, 1.0), abs=1e-15)

    def test_scaled_rotation(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(0.1, 1.0, 50)
        M = np.stack([-ci * _rotation(rng.normal(size=3), rng.uniform(0, math.pi))
                      for ci in c])
        assert np.allclose(singular_values_batch(M), c[:, None], rtol=0, atol=1e-14)

    def test_rank_one(self):
        rng = np.random.default_rng(13)
        u, v = rng.normal(size=(2, 50, 3))
        M = np.einsum("ni,nj->nij", u, v)
        expected = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        sv = singular_values_batch(M)
        assert np.allclose(sv[:, 0], expected, rtol=1e-14, atol=0)
        assert np.all(np.abs(sv[:, 1:]) <= 1e-14 * expected[:, None])

    def test_zero_matrix(self):
        assert np.array_equal(singular_values_batch(np.zeros((4, 3, 3))), np.zeros((4, 3)))
        assert svd3(np.zeros((3, 3))) == (0.0, 0.0, 0.0)

    def test_empty_stack(self):
        assert singular_values_batch(np.zeros((0, 3, 3))).shape == (0, 3)


def _sstar_svd(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return 2.0 * np.sqrt(sv[:, 0] ** 2 + sv[:, 1] ** 2)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]


@st.composite
def matrix_stacks(draw):
    """Stacks of 3x3 matrices, from generic to exactly or nearly degenerate."""
    family = draw(st.sampled_from(
        ["gaussian", "rank1", "rank2", "double-low", "double-high", "triple", "minus-cQ"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 64))
    if family == "gaussian":
        return rng.normal(size=(n, 3, 3)) * draw(st.floats(0.01, 2.0))
    a, b = rng.uniform(0.5, 1.0, n), rng.uniform(0.0, 0.5, n)
    # relative splits of clustered singular values, 1e-9 down to 1e-12
    d = rng.choice([1e-9, 1e-10, 1e-11, 1e-12], (2, n)) * rng.choice([-1.0, 1.0], (2, n))
    zero = np.zeros(n)
    sv = {
        "rank1": (a, zero, zero),
        "rank2": (a, b, zero),
        "double-low": (a, b, b * (1 + d[0])),
        "double-high": (a, a * (1 + d[0]), b),
        "triple": (a, a * (1 + d[0]), a * (1 + d[1])),
        "minus-cQ": (-a, -a, -a),
    }[family]
    return np.einsum("nij,nj,nkj->nik", _orthogonal(rng, n), np.stack(sv, axis=1),
                     _orthogonal(rng, n))


def sstar_batch(M):
    """The closed-form S* of an (n, 3, 3) stack, through the kernel's component-major view."""
    return _sstar(M.transpose(1, 2, 0))


class TestHorodeckiBatch:
    """The closed-form S* kernel against numpy's SVD."""

    @given(matrix_stacks())
    @settings(max_examples=300, deadline=None)
    def test_matches_svd(self, M):
        assert np.allclose(sstar_batch(M), _sstar_svd(M), rtol=0, atol=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(sstar_batch(np.zeros((4, 3, 3))), np.zeros(4))

    def test_empty_stack(self):
        assert sstar_batch(np.zeros((0, 3, 3))).shape == (0,)

    def test_singlet(self):
        assert sstar_batch(-np.eye(3)[None])[0] == pytest.approx(2 * ROOT2, abs=1e-15)

    @pytest.mark.parametrize("seed", [1, 2, 3, 101, 110])
    def test_saturating_audit_rows_hold(self, seed):
        # each audit's appended saturating row is rank one; without the SVD
        # fallback the cubic reads its margin as about -4e-9
        for report in run_all_audits(1, seed):
            assert report.worst_margin >= -1e-12


def kernel_with_inline_s1(T, s, dirs, biases=None, a=None, b=None):
    """`sequential_chsh_batch` as it stood while it computed S1 in its own body."""
    D = np.asarray(dirs, dtype=float)
    A, B = D[:2], D[2:]
    AT = _sum3(lambda i: A[:, i, None] * T[i])
    terms = _sum3(lambda j: AT[:, None, j] * B[:, j])
    terms *= s[:2, None] * s[2:]
    if biases is not None:
        ua = _sum3(lambda i: A[:, i] * a[i])
        bv = _sum3(lambda i: B[:, i] * b[i])
        terms += biases[:2, None] * biases[2:]
        terms += biases[:2, None] * s[2:] * bv
        terms += (s[:2] * ua)[:, None] * biases[2:]
    s1 = terms[0, 0] + terms[0, 1] + terms[1, 0] - terms[1, 1]
    u, v = reversibility_roots(biases, s)
    r = u if biases is None else 0.5 * u + 0.5 * v
    c = 0.5 * (1 - r)
    M = _add_outer(0.5 * (r[0] + r[1]) * T, c[:2], A, AT)
    KTB = _sum3(lambda j: M[:, j] * B[:, None, j])
    M *= 0.5 * (r[2] + r[3])
    return s1, _sstar(_add_outer(M, c[2:], KTB, B))


def random_scenarios(seed, n, biased):
    """Stacks (T, s, dirs, biases, a, b) of rotated pure or mixed states and random settings."""
    rng = np.random.default_rng(seed)
    T = oracles._random_pure_state_tensors(rng, n)
    dirs = np.stack([oracles._random_units(rng, n) for _ in range(4)])
    s = rng.uniform(0, 1, (4, n))
    s[:, ::7] = 0.0
    s[:, 3::7] = 1.0
    if not biased:
        return T, s, dirs
    T *= rng.uniform(0, 1, n)
    a = oracles._random_units(rng, n) * rng.uniform(0, 1, n)
    b = oracles._random_units(rng, n) * rng.uniform(0, 1, n)
    return T, s, dirs, rng.uniform(-1, 1, (4, n)) * (1 - s), a, b


class TestSequentialKernel:
    @pytest.mark.parametrize("biased", [False, True], ids=["unbiased", "biased"])
    @pytest.mark.parametrize("n", [1, 4096])
    def test_s1_helper_moves_no_bit(self, n, biased):
        # the optimizer's path: S1 moved into `_s1`, with its operations in the same order
        args = random_scenarios(n, n, biased)
        for got, want in zip(sequential_chsh_batch(*args), kernel_with_inline_s1(*args)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("biased", [False, True], ids=["unbiased", "biased"])
    def test_row_subsets_give_the_same_bits(self, biased):
        # the monogamy audits evaluate a chunk's rows in subsets of any order
        n = 4096
        T, s, dirs, *rest = random_scenarios(7, n, biased)
        whole = sequential_chsh_batch(T, s, dirs, *rest)
        rows = np.random.default_rng(8).permutation(n)[:300]
        part = sequential_chsh_batch(T[:, :, rows], s[:, rows], dirs[:, :, rows],
                                     *(x[:, rows] for x in rest))
        for got, want in zip(part, whole):
            assert got.tobytes() == want[rows].tobytes()


class TestWMatrix:
    def test_unit_strengths_right_angles(self):
        w = w_matrix(1, 1, 1, 1, math.pi / 2, math.pi / 2)
        assert np.allclose(w.entries[:2, :2], [[1, 1], [1, -1]], atol=1e-15)
        assert np.allclose(w.entries[2], 0) and np.allclose(w.entries[:, 2], 0)

    def test_zero_angles_single_entry(self):
        w = w_matrix(0.3, 0.7, 0.2, 0.6, 0.0, 0.0)
        A = 0.3 * 0.2 + 0.3 * 0.6 + 0.7 * 0.2 - 0.7 * 0.6
        assert w.entries[0, 0] == pytest.approx(A, abs=1e-15)
        assert np.count_nonzero(np.abs(w.entries) > 1e-15) == 1

    def test_degenerate_first_side(self):
        sy, syp = 0.4, 0.9
        w = w_matrix(1.0, 0.0, sy, syp, 1.0, 1.0)
        # with sx'=0: A = B' pattern collapses to sy + syp and sy - syp rows
        ct, st = math.cos(0.5), math.sin(0.5)
        assert w.entries[0, 0] == pytest.approx((sy + syp) * ct * ct, abs=1e-15)
        assert w.entries[0, 1] == pytest.approx((sy - syp) * ct * st, abs=1e-15)

    def test_s0_from_w_simple_blocks(self):
        w = w_matrix(1, 1, 1, 1, math.pi / 2, math.pi / 2)
        assert s0_from_w(w) == pytest.approx(2 * ROOT2, abs=1e-12)


class TestS0Bound:
    def test_tsirelson_case(self):
        assert s0_bound(1, 1, 1, 1, math.pi / 2, math.pi / 2) == pytest.approx(
            2 * ROOT2, abs=1e-12
        )

    def test_parallel_unit_strengths(self):
        assert s0_bound(1, 1, 1, 1, 0.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_matches_saturating_chsh(self):
        s = 2 * ROOT2 / 3
        value = s0_bound(s, s, s, s, math.pi / 2, math.pi / 2)
        assert value == pytest.approx((8 / 9) * 2 * ROOT2, abs=1e-12)

    def test_equivalence_with_w_form(self):
        rng = np.random.default_rng(8)
        for _ in range(5000):
            sx, sxp, sy, syp = rng.uniform(0, 1, 4)
            th, ph = rng.uniform(0, math.pi, 2)
            assert s0_bound(sx, sxp, sy, syp, th, ph) == pytest.approx(
                s0_from_w(w_matrix(sx, sxp, sy, syp, th, ph)), abs=1e-10
            )

    def test_bounds_singlet_chsh(self):
        rng = np.random.default_rng(9)
        state = singlet()
        for _ in range(2000):
            dirs = rng.normal(size=(4, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            sx, sxp, sy, syp = rng.uniform(0, 1, 4)
            alice = MeasurementPair(unbiased(sx, dirs[0]), unbiased(sxp, dirs[1]))
            bob = MeasurementPair(unbiased(sy, dirs[2]), unbiased(syp, dirs[3]))
            value = abs(chsh_value(state, alice, bob))
            th = angle_between(dirs[0], dirs[1])
            ph = angle_between(dirs[2], dirs[3])
            assert value <= s0_bound(sx, sxp, sy, syp, th, ph) + 1e-9


_NAN, _INF = math.nan, math.inf


def _s0_of_w(*args):
    return s0_from_w(w_matrix(*args))


@pytest.mark.parametrize("fn,args", [
    (s0_bound, (1, 1, 1, 1, _NAN, 0)),
    (s0_bound, (1, 1, 1, 1, _INF, 0)),
    (s0_bound, (1, 1, 1, 1, 0, -_INF)),
    (s0_bound, (_NAN, 1, 1, 1, 0, 0)),
    (s0_bound, (1, 1, _INF, 1, 0, 0)),
    (s0_bound, (2, 2, 2, 2, 0, 0)),
    (s0_bound, (1, -0.1, 1, 1, 0, 0)),
    (w_matrix, (1, 1, 1, 1, 0, _NAN)),
    (w_matrix, (1, 1, 1, 1.5, 0, 0)),
    (_s0_of_w, (1, 1, 1, 1, _NAN, 0)),
    (_s0_of_w, (1, 1, 1, 1, 0, _INF)),
    (WMatrix, (np.full((3, 3), _NAN), 0.0, 0.0)),
    (g_orthogonal, (_NAN, 0)),
    (g_orthogonal, (0, _INF)),
    (g_orthogonal, (-_INF, 0)),
    (g_orthogonal, (1.5, 0)),
    (g_orthogonal, (0, -0.1)),
    (g_equal_strength, (0.0, 3.0)),
    (g_equal_strength, (_NAN, 1)),
    (g_equal_strength, (0, _INF)),
    (g_equal_strength, (-0.5, 0.5)),
], ids=lambda v: getattr(v, "__name__", None))
def test_bound_and_objective_reject_bad_input(fn, args):
    # these used to return nan or 8.0, or raise a bare math domain error
    with pytest.raises(DomainError):
        fn(*args)


class TestAngleBetween:
    def test_cardinal_cases(self):
        assert angle_between((1, 0, 0), (1, 0, 0)) == pytest.approx(0.0, abs=1e-12)
        assert angle_between((1, 0, 0), (-1, 0, 0)) == pytest.approx(math.pi, abs=1e-12)
        assert angle_between((1, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_stable_near_zero(self):
        eps = 1e-9
        v = np.array([1.0, eps, 0.0])
        v /= np.linalg.norm(v)
        assert angle_between((1, 0, 0), v) == pytest.approx(eps, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, scale):
        # unscaled, the products underflow to 0 at 1e-200 and overflow at 1e200
        assert angle_between((scale, scale, 0), (scale, 0, 0)) == pytest.approx(
            math.pi / 4, abs=1e-15
        )
        assert angle_between((scale, scale, 0), (1, 0, 0)) == pytest.approx(
            math.pi / 4, abs=1e-15
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroDirection):
            angle_between((0, 0, 0), (1, 0, 0))
        with pytest.raises(ZeroDirection):
            angle_between((1, 0, 0), np.zeros(3))

    def test_non_finite_vector_rejected(self):
        with pytest.raises(ConstraintViolation):
            angle_between((0, math.nan, 0), (1, 0, 0))

    def test_matches_numpy_cross(self):
        rng = np.random.default_rng(23)
        U = rng.normal(size=(20_000, 3))
        V = rng.normal(size=(20_000, 3))
        V[:1000] = U[:1000] + 1e-9 * V[:1000]  # near 0
        V[1000:2000] = -U[1000:2000] + 1e-9 * V[1000:2000]  # near pi
        expected = np.arctan2(np.linalg.norm(np.cross(U, V), axis=1), np.sum(U * V, axis=1))
        got = np.array([angle_between(u, v) for u, v in zip(U, V)])
        assert np.max(np.abs(got - expected)) <= 1e-15
