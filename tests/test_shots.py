import math

import numpy as np
import pytest

from dense_oracle import chsh_value, correlation_tensor, correlator
from gupbell.errors import NotDichotomicError
from gupbell.quantum import (
    Direction, PureState, bell_state, canonical_settings, moments,
    spin_observable,
)
from gupbell.shots import (
    ChshEstimate, CountsTable, ShotPlan, depolarize, estimate_chsh,
    joint_probabilities,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


class TestPlansAndTables:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_pair=0)
        with pytest.raises(ValueError):
            ShotPlan(shots_per_pair=10, noise_p=1.5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        # such a seed would wrap onto the stream of 2**64 - 1 or of 0
        with pytest.raises(ValueError, match="seed"):
            ShotPlan(shots_per_pair=1, seed=seed)
        ShotPlan(shots_per_pair=1, seed=seed % 2**64)

    def test_counts_must_sum_to_shots(self):
        good = {k: [3, 2, 2, 3] for k in ("ab", "abp", "apb", "apbp")}
        CountsTable(counts=good, shots_per_pair=10)
        bad = dict(good, ab=[3, 2, 2, 2])
        with pytest.raises(ValueError):
            CountsTable(counts=bad, shots_per_pair=10)


def dense(state: PureState, p: float = 0.0) -> np.ndarray:
    """The depolarized state (1-p) |psi><psi| + p I/4 as a 4x4 matrix."""
    psi = state.amplitudes
    return (1.0 - p) * np.outer(psi, psi.conj()) + p * np.eye(4) / 4.0


def random_state(rng) -> PureState:
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(psi / np.linalg.norm(psi))


class TestDepolarize:
    def test_channel_form(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            state, p = random_state(rng), rng.uniform()
            oracle = correlation_tensor(dense(state, p))
            for got, want in zip(depolarize(state, p), oracle):
                assert np.max(np.abs(got - want)) < 1e-12
        # p = 0 scales the moments of the state by exactly 1
        state = random_state(rng)
        for got, want in zip(depolarize(state, 0.0), moments(state.amplitudes)):
            assert np.array_equal(got, want)

    def test_full_noise_is_maximally_mixed(self):
        for x in depolarize(bell_state(), 1.0):
            assert np.all(x == 0.0)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            depolarize(bell_state(), -0.1)


class TestJointProbabilities:
    def test_phi_plus_quarter_turn(self):
        # [DERIVED] aligned-outcome probability cos^2(pi/8) for a 45 degree
        # relative angle on PhiPlus
        rho = depolarize(bell_state(), 0.0)
        obs_a = spin_observable(Direction(0.0))
        obs_b = spin_observable(Direction(math.pi / 4))
        probs, outcomes = joint_probabilities(rho, obs_a, obs_b)
        aligned = probs[0] + probs[3]
        assert aligned == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(np.sign(outcomes),
                              [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def test_noise_scales_correlator(self):
        obs_a = spin_observable(Direction(0.3))
        obs_b = spin_observable(Direction(1.1))
        for p in (0.0, 0.2, 0.7):
            probs, outcomes = joint_probabilities(
                depolarize(bell_state(), p), obs_a, obs_b)
            e = float(probs @ (outcomes[:, 0] * outcomes[:, 1]))
            assert e == pytest.approx((1.0 - p) * math.cos(0.8), abs=1e-12)

    def test_rejects_degenerate_observable(self):
        rho = depolarize(bell_state(), 0.0)
        with pytest.raises(NotDichotomicError):
            joint_probabilities(rho, np.eye(2, dtype=complex),
                                spin_observable(Direction(0.0)))


class TestMeasurePair:
    def test_draw_selects_ordered_outcomes(self):
        rho = depolarize(bell_state(), 0.0)
        obs = spin_observable(Direction(0.0))
        # parallel z measurements on PhiPlus: only (+,+) and (-,-) occur,
        # first and last in the order the sampler's thresholds follow
        probs, outcomes = joint_probabilities(rho, obs, obs)
        assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-15)
        assert tuple(outcomes[0]) == (1.0, 1.0)
        assert tuple(outcomes[3]) == (-1.0, -1.0)

    def test_outcomes_carry_eigenvalues(self):
        rho = depolarize(bell_state(), 0.0)
        scaled = 2.0 * spin_observable(Direction(0.0))
        _, outcomes = joint_probabilities(rho, scaled, scaled)
        assert tuple(outcomes[0]) == (2.0, 2.0)


def eigen_branches(obs):
    """Eigenvalues (descending) and eigenprojectors of a 2x2 observable."""
    vals, vecs = np.linalg.eigh(obs)
    return vals[::-1], [np.outer(vecs[:, k], vecs[:, k].conj()) for k in (1, 0)]


class TestBornRule:
    def test_matches_dense_projectors(self):
        # tr(rho P_s (x) P_t) with eigenprojectors, for mixed states with
        # non-zero local Bloch vectors and observables with an identity part
        rng = np.random.default_rng(8)
        for _ in range(20):
            state, p = random_state(rng), rng.uniform()
            h = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
            obs_a, obs_b = h + h.conj().transpose(0, 2, 1)
            probs, outcomes = joint_probabilities(depolarize(state, p), obs_a, obs_b)
            (va, pa), (vb, pb) = eigen_branches(obs_a), eigen_branches(obs_b)
            pairs = ((0, 0), (0, 1), (1, 0), (1, 1))
            rho = dense(state, p)
            assert probs == pytest.approx(
                [correlator(rho, pa[i], pb[j]) for i, j in pairs], abs=1e-12)
            assert outcomes == pytest.approx(
                np.array([[va[i], vb[j]] for i, j in pairs]), abs=1e-12)


class TestEstimateChsh:
    def test_deterministic_for_seed(self):
        plan = ShotPlan(shots_per_pair=20_000, seed=9)
        a = estimate_chsh(bell_state(), canonical_settings(), plan)
        b = estimate_chsh(bell_state(), canonical_settings(), plan)
        assert a.s_hat == b.s_hat
        for label in ("ab", "abp", "apb", "apbp"):
            assert np.array_equal(a.counts.counts[label], b.counts.counts[label])

    def test_converges_to_exact_value(self):
        plan = ShotPlan(shots_per_pair=400_000, seed=42)
        est = estimate_chsh(bell_state(), canonical_settings(), plan)
        assert abs(est.s_hat - TSIRELSON) < 0.02
        assert 0.0 < est.stderr < 0.01

    def test_noise_shrinks_violation(self):
        plan = ShotPlan(shots_per_pair=400_000, seed=42, noise_p=0.5)
        est = estimate_chsh(bell_state(), canonical_settings(), plan)
        assert abs(est.s_hat - 0.5 * TSIRELSON) < 0.02

    def test_matches_nonmaximal_settings(self, asym_settings):
        plan = ShotPlan(shots_per_pair=400_000, seed=4)
        est = estimate_chsh(bell_state(), asym_settings, plan)
        exact = chsh_value(bell_state(), asym_settings)
        assert abs(est.s_hat - exact) < 0.02

    def test_estimate_type(self):
        plan = ShotPlan(shots_per_pair=100, seed=1)
        est = estimate_chsh(bell_state(), canonical_settings(), plan)
        assert isinstance(est, ChshEstimate)
        assert set(est.correlators) == {"ab", "abp", "apb", "apbp"}
