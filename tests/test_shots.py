import math
import os
import sys
import threading

import numpy as np
import pytest

from dense_oracle import chsh_value, correlation_tensor, correlator
from gupbell import kernels, shots
from gupbell.errors import NotDichotomicError
from gupbell.quantum import (
    CHSH_PAIRS, Direction, PureState, bell_state, canonical_settings, moments,
    spin_observable,
)
from gupbell.shots import (
    PAIR_LABELS, ChshEstimate, CountsTable, ShotPlan, default_observables,
    depolarize, estimate_chsh, joint_probabilities,
)

TSIRELSON = 2.0 * math.sqrt(2.0)


class TestPlansAndTables:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ShotPlan(shots_per_pair=0)
        with pytest.raises(ValueError):
            ShotPlan(shots_per_pair=10, noise_p=1.5)

    def test_shots_per_pair_must_fit_the_stream(self):
        # pair j reads stream indices j*N .. j*N + N - 1: four pairs fit in
        # the 2**64 indices only up to N = 2**62
        with pytest.raises(ValueError, match="shots_per_pair"):
            ShotPlan(shots_per_pair=2**62 + 1)
        ShotPlan(shots_per_pair=2**62)  # built, never sampled

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        # such a seed would wrap onto the stream of 2**64 - 1 or of 0
        with pytest.raises(ValueError, match="seed"):
            ShotPlan(shots_per_pair=1, seed=seed)
        ShotPlan(shots_per_pair=1, seed=seed % 2**64)

    @pytest.mark.parametrize("field, value", [
        ("shots_per_pair", 2.5), ("shots_per_pair", 10.0),
        ("shots_per_pair", True), ("seed", 1.5), ("seed", True),
        ("seed", np.int64(1))])
    def test_integers_must_be_int(self, field, value):
        # a float seed would silently sample the stream of its integer part
        kwargs = {"shots_per_pair": 10, "seed": 1, field: value}
        with pytest.raises(TypeError, match=field):
            ShotPlan(**kwargs)

    def test_noise_p_must_not_be_bool(self):
        # True would sample at p = 1 as the number 1 would
        with pytest.raises(TypeError, match="noise_p"):
            ShotPlan(shots_per_pair=10, noise_p=True)

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

    def test_needs_four_observables(self):
        observables = default_observables(canonical_settings())[:3]
        with pytest.raises(ValueError, match="got 3"):
            estimate_chsh(bell_state(), canonical_settings(),
                          ShotPlan(shots_per_pair=10), observables)


def serial_counts(state, settings, plan):
    """The four pairs' counts, drawn one after another on this thread."""
    rho = depolarize(state, plan.noise_p)
    obs = default_observables(settings)
    n = plan.shots_per_pair
    out = {}
    for j, ((a, b), label) in enumerate(zip(CHSH_PAIRS, PAIR_LABELS)):
        probs, _ = joint_probabilities(rho, obs[a], obs[b])
        cumulative = np.minimum(np.cumsum(probs)[:3], 1.0)
        out[label] = kernels.sample_counts(plan.seed, j * n, n, cumulative)
    return out


class TestPairThreads:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    # each side of the default chunk and of the former default 2¹⁵
    @pytest.mark.parametrize("n", [(1 << 15) - 3, (1 << 15) + 5,
                                   kernels.CHUNK - 3, kernels.CHUNK + 5])
    def test_counts_do_not_depend_on_threads(self, monkeypatch, asym_settings,
                                             cpus, n):
        plan = ShotPlan(shots_per_pair=n, seed=11, noise_p=0.1)
        want = serial_counts(bell_state(), asym_settings, plan)
        sample_counts = kernels.sample_counts
        threads = set()

        def recording(*args):
            # thread objects, not idents, which a later thread may reuse
            threads.add(threading.current_thread())
            return sample_counts(*args)

        monkeypatch.setattr(shots, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "sample_counts", recording)
        # frequent thread switches, so that a lost update would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est = estimate_chsh(bell_state(), asym_settings, plan)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == cpus
        assert threading.current_thread() in threads
        for label in PAIR_LABELS:
            assert np.array_equal(est.counts.counts[label], want[label]), label

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_worker_error_reaches_the_caller(self, monkeypatch, cpus):
        plan = ShotPlan(shots_per_pair=1000, seed=5)
        sample_counts = kernels.sample_counts

        def failing(seed, base, n, cumulative):
            if base == PAIR_LABELS.index("apbp") * n:
                raise MemoryError("pair apbp")
            return sample_counts(seed, base, n, cumulative)

        monkeypatch.setattr(shots, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(kernels, "sample_counts", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="apbp"):
            estimate_chsh(bell_state(), canonical_settings(), plan)
        assert threading.active_count() == before

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch, count, usable):
        # where the OS has no affinity call, the machine's count, and 1
        # where even that is unknown
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert shots._usable_cpus() == usable

    def test_caller_stops_after_a_worker_error(self, monkeypatch):
        # two groups: the caller samples pairs 0 and 2, the worker 1 and 3.
        # Pair 0, if the caller starts it, returns only once the worker has
        # failed on pair 1 and ended
        plan = ShotPlan(shots_per_pair=1000, seed=5)
        failed = threading.Event()
        worker = []
        sampled = []

        def fake(seed, base, n, cumulative):
            j = base // n
            sampled.append(j)
            if j == 1:
                worker.append(threading.current_thread())
                failed.set()
                raise MemoryError("pair 1")
            if j == 0:
                assert failed.wait(timeout=10)
                worker[0].join(timeout=10)
            return np.array([n, 0, 0, 0])

        monkeypatch.setattr(shots, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(kernels, "sample_counts", fake)
        with pytest.raises(MemoryError, match="pair 1"):
            estimate_chsh(bell_state(), canonical_settings(), plan)
        assert 1 in sampled and 2 not in sampled and 3 not in sampled
