import math

import numpy as np
import pytest

from bellrecycle import (
    SIMPLE_MODEL,
    SQUARE_ROOT,
    BiasedWeakPointer,
    DomainError,
    QualityExceedsReversibility,
    add_isotropic_noise,
    apply_chain,
    apply_local,
    channel_of,
    from_schmidt,
    make_observable,
    projective,
    reversibility,
    setting_channel,
    singlet,
    transfer_matrix,
    trivial,
    unbiased,
    weak_pointer,
)
from bellrecycle.instruments import DephasingChannel
from bellrecycle.states import validate

from oracles import dephasing_transfer


class TestChannelOf:
    def test_projective_square_root(self):
        ch = channel_of(projective((0, 0, 1)), SQUARE_ROOT)
        assert ch.factor == 0.0
        assert np.allclose(transfer_matrix(ch), np.diag([0.0, 0.0, 1.0]), atol=1e-15)

    def test_simple_model_factor(self):
        assert channel_of(unbiased(0.6, (1, 0, 0)), SIMPLE_MODEL).factor == pytest.approx(0.4)

    def test_square_root_factor(self):
        ch = channel_of(unbiased(0.6, (1, 0, 0)), SQUARE_ROOT)
        assert ch.factor == pytest.approx(0.8, abs=1e-15)

    def test_square_root_factor_equals_reversibility(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            s = rng.uniform(0, 1)
            b = rng.uniform(-1, 1) * (1 - s)
            obs = make_observable(b, s, rng.normal(size=3))
            assert channel_of(obs, SQUARE_ROOT).factor == reversibility(obs)

    def test_weak_pointer_quality(self):
        obs = unbiased(0.6, (1, 0, 0))
        assert channel_of(obs, weak_pointer(0.5)).factor == 0.5
        with pytest.raises(QualityExceedsReversibility):
            channel_of(obs, weak_pointer(0.9))

    def test_weak_pointer_requires_unbiased(self):
        with pytest.raises(BiasedWeakPointer):
            channel_of(make_observable(0.2, 0.5, (1, 0, 0)), weak_pointer(0.3))

    def test_model_ordering_for_unbiased(self):
        # simple-model retention <= weak-pointer at F = R == square-root retention
        for s in (0.2, 0.5, 0.9):
            obs = unbiased(s, (0, 1, 0))
            r = reversibility(obs)
            f_simple = channel_of(obs, SIMPLE_MODEL).factor
            f_weak = channel_of(obs, weak_pointer(r)).factor
            f_sqrt = channel_of(obs, SQUARE_ROOT).factor
            assert f_simple <= f_weak + 1e-15
            assert f_weak == pytest.approx(f_sqrt, abs=1e-15)


class TestTransferMatrix:
    def test_trivial_is_identity(self):
        ch = DephasingChannel(axis=np.array([1.0, 0, 0]), factor=1.0)
        assert np.allclose(transfer_matrix(ch), np.eye(3), atol=1e-15)

    def test_half_factor(self):
        ch = DephasingChannel(axis=np.array([1.0, 0, 0]), factor=0.5)
        assert np.allclose(transfer_matrix(ch), np.diag([1.0, 0.5, 0.5]), atol=1e-15)

    def test_eigenstructure_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            eta = rng.uniform(0, 1)
            K = transfer_matrix(DephasingChannel(axis=axis, factor=eta))
            assert np.allclose(K @ axis, axis, atol=1e-12)
            eigs = np.sort(np.linalg.eigvalsh(K))
            assert np.allclose(eigs, sorted([eta, eta, 1.0]), atol=1e-12)


class TestSettingChannel:
    def test_two_trivial(self):
        K = setting_channel(trivial(0.2), trivial(-0.4))
        assert np.allclose(K, np.eye(3), atol=1e-15)

    def test_two_projective(self):
        K = setting_channel(projective((0, 1, 0)), projective((1, 0, 0)))
        assert np.allclose(K, np.diag([0.5, 0.5, 0.0]), atol=1e-15)

    def test_orthogonal_saturating_strengths(self):
        s = 2 * math.sqrt(2) / 3
        K = setting_channel(unbiased(s, (0, 1, 0)), unbiased(s, (1, 0, 0)))
        sv = np.linalg.svd(K, compute_uv=False)
        assert np.allclose(np.sort(sv), [1 / 3, 2 / 3, 2 / 3], atol=1e-12)


KINDS = [SQUARE_ROOT, SIMPLE_MODEL, weak_pointer(0.0)]


def _random_observables(rng, kind, n):
    """n observables: random strengths, biases where the kind allows, some trivial."""
    out = []
    for i in range(n):
        s = 0.0 if i % 10 == 0 else 1.0 if i % 10 == 1 else rng.uniform()
        b = 0.0 if kind.tag == "weak-pointer" else rng.uniform(-1, 1) * (1 - s)
        out.append(make_observable(b, s, rng.normal(size=3)))
    return out


class TestFloatEntries:
    """The float-built transfers round exactly as numpy's eta*I + (1-eta) n n^T."""

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_transfer_matrix_matches_numpy_formula(self, kind):
        rng = np.random.default_rng(29)
        for obs in _random_observables(rng, kind, 2000):
            if kind.tag == "weak-pointer":
                kind = weak_pointer(rng.uniform() * reversibility(obs))
            ch = channel_of(obs, kind)
            expected = dephasing_transfer(ch.factor, obs.direction)
            assert np.array_equal(transfer_matrix(ch), expected)

    @pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.tag)
    def test_setting_channel_matches_numpy_formula(self, kind):
        rng = np.random.default_rng(31)
        obs = _random_observables(rng, kind, 4000)
        for o1, o2 in zip(obs[::2], obs[1::2]):
            if kind.tag == "weak-pointer":
                kind = weak_pointer(rng.uniform() * min(reversibility(o1), reversibility(o2)))
            expected = 0.5 * sum(
                dephasing_transfer(channel_of(o, kind).factor, o.direction) for o in (o1, o2)
            )
            K = setting_channel(o1, o2, kind)
            assert K.shape == (3, 3) and np.array_equal(K, expected)

    def test_transfer_matrix_flattens_its_axis(self):
        ch = DephasingChannel(axis=np.array([[0.0], [0.6], [0.8]]), factor=0.3)
        assert np.array_equal(transfer_matrix(ch), dephasing_transfer(0.3, [0, 0.6, 0.8]))


class TestApplyLocal:
    def test_identity(self):
        out = apply_local(singlet(), "alice", np.eye(3))
        assert np.array_equal(out.theta, singlet().theta)

    def test_alice_side(self):
        out = apply_local(singlet(), "alice", np.diag([1.0, 0.5, 0.5]))
        assert np.allclose(out.T, np.diag([-1.0, -0.5, -0.5]), atol=1e-15)

    def test_axis_aligned_bloch_preserved(self):
        state = from_schmidt(0.0)  # a = (0, 0, 1)
        out = apply_local(state, "alice", np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(out.a, [0, 0, 1], atol=1e-15)

    def test_bob_side_transposes(self):
        K = np.array([[0.7, 0.1, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.9]])
        state = from_schmidt(0.2)
        out = apply_local(state, "bob", K)
        assert np.allclose(out.T, state.T @ K.T, atol=1e-15)
        assert np.allclose(out.b, K @ state.b, atol=1e-15)
        assert np.allclose(out.a, state.a, atol=1e-15)

    def test_validity_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            state = add_isotropic_noise(
                from_schmidt(rng.uniform(0, np.pi / 4)), rng.uniform(0, 1)
            )
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            K = transfer_matrix(DephasingChannel(axis=axis, factor=rng.uniform(0, 1)))
            validate(apply_local(state, rng.choice(["alice", "bob"]), K))

    def test_unknown_side_named(self):
        with pytest.raises(DomainError, match="side must be 'alice' or 'bob', got 'carol'"):
            apply_local(singlet(), "carol", np.eye(3))


class TestApplyChain:
    def test_empty_chain(self):
        assert np.array_equal(apply_chain(singlet()).theta, singlet().theta)

    def test_matches_apply_local_composition(self):
        K = np.diag([1.0, 0.5, 0.5])
        L = np.diag([0.5, 1.0, 0.5])
        chained = apply_chain(from_schmidt(0.1), [K], [L])
        manual = apply_local(apply_local(from_schmidt(0.1), "alice", K), "bob", L)
        assert np.allclose(chained.theta, manual.theta, atol=1e-15)

    def test_two_alice_channels(self):
        K1 = np.diag([1.0, 0.5, 0.5])
        K2 = np.diag([0.5, 1.0, 0.5])
        out = apply_chain(singlet(), [K1, K2])
        assert np.allclose(out.T, -np.diag([0.5, 0.5, 0.25]), atol=1e-15)

    def test_same_axis_channels_commute(self):
        rng = np.random.default_rng(17)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        mats = [
            transfer_matrix(DephasingChannel(axis=axis, factor=rng.uniform(0, 1)))
            for _ in range(4)
        ]
        state = from_schmidt(0.3)
        forward = apply_chain(state, mats, mats[::-1])
        backward = apply_chain(state, mats[::-1], mats)
        assert np.allclose(forward.theta, backward.theta, atol=1e-12)
