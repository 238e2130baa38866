import math
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from dense_oracle import chsh_value, correlation_tensor, correlator, uniform_stream
from gupbell import gup, kernels, shots
from gupbell.errors import HermiticityError, NotDichotomicError
from gupbell.quantum import (
    CHSH_PAIRS, ChshSettings, Direction, PureState, bell_state, canonical_settings,
    moments, spin, spin_observable,
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
        # every count is stored as an int64; N = 2**62 itself is sampled
        # in TestDrawCounts
        with pytest.raises(ValueError, match="shots_per_pair"):
            ShotPlan(shots_per_pair=2**62 + 1)
        ShotPlan(shots_per_pair=2**62)

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


def random_settings(rng) -> ChshSettings:
    """Four directions anywhere on the sphere."""
    return ChshSettings(*(Direction(*rng.uniform(-7.0, 7.0, 2)) for _ in range(4)))


def random_observables(rng, s: ChshSettings) -> list:
    """[A, A', B, B'] at the settings: the GUP-corrected spins of a random
    model, or in one case of four, Hermitian matrices with identity parts."""
    if rng.uniform() < 0.25:
        h = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
        return list(h + h.conj().transpose(0, 2, 1))
    rule = ("tilt", "self-cubic", "custom")[rng.integers(3)]
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    kwargs = {"tilt": {"m": v}, "custom": {"jp": spin(rng.uniform() * v)}}.get(rule, {})
    model = gup.GupModel(beta=rng.uniform(0.0, 0.9), rule=rule, **kwargs)
    return [gup.gup_correct_observable(d, model).j_gup
            for d in (s.a, s.a_prime, s.b, s.b_prime)]


def recorded_thresholds(monkeypatch) -> list:
    """The list that each ``kernels.draw_counts`` call appends its
    cumulative thresholds to, from here on."""
    seen = []
    draw_counts = kernels.draw_counts

    def recording(seed, base, n, cumulative):
        seen.append(cumulative)
        return draw_counts(seed, base, n, cumulative)

    monkeypatch.setattr(kernels, "draw_counts", recording)
    return seen


class TestDirectionsOnce:
    """``estimate_chsh`` reduces each observable to its direction once and
    forms each pair's probabilities from the directions: exactly as
    ``joint_probabilities`` forms them, pair by pair, from the matrices."""

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_thresholds_are_those_of_joint_probabilities(self, monkeypatch):
        rng = np.random.default_rng(37)
        seen = recorded_thresholds(monkeypatch)
        for _ in range(300):
            state, settings = random_state(rng), random_settings(rng)
            plan = ShotPlan(shots_per_pair=int(rng.integers(1, 2**62)),
                            seed=int(rng.integers(2**63)), noise_p=rng.uniform())
            rho = depolarize(state, plan.noise_p)
            for given in (random_observables(rng, settings), None):
                obs = default_observables(settings) if given is None else given
                seen.clear()
                estimate_chsh(state, settings, plan, given)
                assert len(seen) == 4
                for got, (a, b) in zip(seen, CHSH_PAIRS):
                    probs, _ = joint_probabilities(rho, obs[a], obs[b])
                    assert np.array_equal(got, np.minimum(np.cumsum(probs)[:3], 1.0))

    def test_settings_alone_build_no_observable(self, monkeypatch):
        # with no observables given, the settings' unit vectors are the
        # directions: the counts of their spin observables, and no matrix
        rng = np.random.default_rng(41)
        cases = []
        for _ in range(200):
            settings = random_settings(rng)
            plan = ShotPlan(shots_per_pair=int(rng.integers(1, 2**62)),
                            seed=int(rng.integers(2**63)), noise_p=rng.uniform(0.0, 0.3))
            state = random_state(rng)
            want = estimate_chsh(state, settings, plan, default_observables(settings))
            cases.append((state, settings, plan, want))

        def refuse(*args):
            raise AssertionError("default_observables called")

        monkeypatch.setattr(shots, "default_observables", refuse)
        monkeypatch.setattr(shots, "spin_observable", refuse)
        for state, settings, plan, want in cases:
            got = estimate_chsh(state, settings, plan)
            for label in PAIR_LABELS:
                assert np.array_equal(got.counts.counts[label], want.counts.counts[label])

    @pytest.mark.parametrize("slot", range(4), ids=["A", "A'", "B", "B'"])
    @pytest.mark.parametrize("bad, error", [
        (np.array([[1.0, 1.0], [0.0, -1.0]]), HermiticityError),
        (np.eye(3), HermiticityError),
        (np.zeros(4), HermiticityError),
        (2.0 * np.eye(2), NotDichotomicError),
        (np.zeros((2, 2)), NotDichotomicError),
    ], ids=["non-hermitian", "3x3", "flat", "identity", "zero"])
    def test_one_bad_observable_raises(self, slot, bad, error):
        observables = default_observables(canonical_settings())
        observables[slot] = bad
        with pytest.raises(error):
            estimate_chsh(bell_state(), canonical_settings(), ShotPlan(shots_per_pair=10),
                          observables)


def serial_counts(state, settings, plan):
    """The four pairs' counts, drawn one after another on this thread."""
    rho = depolarize(state, plan.noise_p)
    obs = default_observables(settings)
    n = plan.shots_per_pair
    out = {}
    for j, ((a, b), label) in enumerate(zip(CHSH_PAIRS, PAIR_LABELS)):
        probs, _ = joint_probabilities(rho, obs[a], obs[b])
        cumulative = np.minimum(np.cumsum(probs)[:3], 1.0)
        out[label] = kernels.draw_counts(plan.seed, j * shots.PAIR_STRIDE, n, cumulative)
    return out


def concurrently(run, callers):
    """Call ``run(i)`` for i < ``callers``, each on its own thread, started
    together with frequent thread switches; return each call's result or
    the exception it raised, and the threads."""
    start = threading.Barrier(callers)
    results = [None] * callers

    def call(i):
        start.wait()
        try:
            results[i] = run(i)
        except Exception as exc:
            results[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    return results, threads


class TestPairThreads:
    """``estimate_chsh`` starts no thread: it draws every pair on the
    calling thread, so callers on several threads share no state."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    # each side of the kernel's chunk and of its former default 2¹⁵, where
    # the per-shot sampler split its work; the draw must not care
    @pytest.mark.parametrize("n", [(1 << 15) - 3, (1 << 15) + 5,
                                   kernels.CHUNK - 3, kernels.CHUNK + 5])
    def test_counts_do_not_depend_on_threads(self, monkeypatch, asym_settings,
                                             cpus, n):
        plan = ShotPlan(shots_per_pair=n, seed=11, noise_p=0.1)
        want = serial_counts(bell_state(), asym_settings, plan)
        draw_counts = kernels.draw_counts
        drawn_on = []

        def recording(*args):
            # thread objects, not idents, which a later thread may reuse
            drawn_on.append(threading.current_thread())
            return draw_counts(*args)

        monkeypatch.setattr(kernels, "draw_counts", recording)
        results, callers = concurrently(
            lambda i: estimate_chsh(bell_state(), asym_settings, plan), cpus)
        # four draws per call, each on the thread that called
        assert sorted(map(callers.index, drawn_on)) == [i for i in range(cpus) for _ in range(4)]
        for est in results:
            assert isinstance(est, ChshEstimate), est
            for label in PAIR_LABELS:
                assert np.array_equal(est.counts.counts[label], want[label]), label

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_worker_error_reaches_the_caller(self, monkeypatch, cpus):
        # caller 0's draw of pair apbp fails; its error reaches caller 0
        # alone, and the other callers' estimates are whole
        plans = [ShotPlan(shots_per_pair=1000, seed=5 + i) for i in range(cpus)]
        want = [serial_counts(bell_state(), canonical_settings(), plan) for plan in plans]
        draw_counts = kernels.draw_counts

        def failing(seed, base, n, cumulative):
            if seed == 5 and base == PAIR_LABELS.index("apbp") * shots.PAIR_STRIDE:
                raise MemoryError("pair apbp")
            return draw_counts(seed, base, n, cumulative)

        monkeypatch.setattr(kernels, "draw_counts", failing)
        before = threading.active_count()
        results, _ = concurrently(
            lambda i: estimate_chsh(bell_state(), canonical_settings(), plans[i]), cpus)
        assert threading.active_count() == before
        assert isinstance(results[0], MemoryError) and "apbp" in str(results[0])
        for est, counts in zip(results[1:], want[1:]):
            assert isinstance(est, ChshEstimate), est
            for label in PAIR_LABELS:
                assert np.array_equal(est.counts.counts[label], counts[label]), label

    def test_caller_stops_after_a_worker_error(self, monkeypatch):
        # pairs are drawn in order on the calling thread: the failing draw
        # of pair 1 ends the estimate, and pairs 2 and 3 are never drawn
        plan = ShotPlan(shots_per_pair=1000, seed=5)
        drawn = []

        def fake(seed, base, n, cumulative):
            j = base // shots.PAIR_STRIDE
            drawn.append(j)
            if j == 1:
                raise MemoryError("pair 1")
            return [n, 0, 0, 0]

        monkeypatch.setattr(kernels, "draw_counts", fake)
        with pytest.raises(MemoryError, match="pair 1"):
            estimate_chsh(bell_state(), canonical_settings(), plan)
        assert drawn == [0, 1]


class TestEstimateCost:
    def test_cost_does_not_grow_with_shots(self):
        # one multinomial draw per pair: 4·10⁶ shots per pair cost what 10³
        # do (a per-shot sampler took ~100 times as long)
        def fastest(n):
            plan = ShotPlan(shots_per_pair=n, seed=3)
            times = []
            for _ in range(7):
                t0 = time.perf_counter()
                estimate_chsh(bell_state(), canonical_settings(), plan)
                times.append(time.perf_counter() - t0)
            return min(times)

        fastest(1000)  # warm-up
        assert fastest(4_000_000) < 5.0 * fastest(1000)


class TestStream:
    # 2⁶⁴ − 4096 ends the window on the last index, whose i + 1 wraps to 0
    @pytest.mark.parametrize("base", [0, shots.PAIR_STRIDE - 2048, 3 * shots.PAIR_STRIDE,
                                      2**64 - 4096])
    def test_scalar_words_match_the_kernel(self, base):
        # one stream definition: the draws' Python-int splitmix64 gives the
        # shot kernel's words (k·2⁻⁵³ is exact, so equal floats are equal k)
        seed = 0xDEADBEEF12345678
        want = uniform_stream(seed, base, 4096).tolist()
        assert [kernels._word(seed, i) * 2.0**-53 for i in range(base, base + 4096)] == want

    def test_uniforms_lie_in_the_half_open_unit_interval(self):
        # (k + 1)·2⁻⁵³ in (0, 1]: never 0, whose logarithm a rejection step takes
        u = kernels._uniforms(5, 0)
        values = [next(u) for _ in range(1000)]
        assert values == [x + 2.0**-53 for x in uniform_stream(5, 0, 1000).tolist()]
        assert all(0.0 < x <= 1.0 for x in values)


def _pmf(n, p):
    """Binomial(n, p)'s pmf, exact in rationals and then rounded."""
    p = Fraction(p)
    return [float(math.comb(n, k) * p**k * (1 - p) ** (n - k)) for k in range(n + 1)]


def _chi2(observed, expected):
    """Pearson's statistic and degrees of freedom, with the cells of
    expected count below 5 pooled into one."""
    obs = [o for o, e in zip(observed, expected) if e >= 5]
    exp = [e for e in expected if e >= 5]
    rest = sum(expected) - sum(exp)
    if rest > 0:
        obs.append(sum(observed) - sum(obs))
        exp.append(rest)
    return sum((o - e) ** 2 / e for o, e in zip(obs, exp)), len(exp) - 1


def _chi2_limit(df):
    """The chi-square quantile at 1 - 10⁻⁴ (z = 3.719), by Wilson and
    Hilferty's cube-root normal approximation."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + 3.719 * math.sqrt(h)) ** 3


class TestDrawCounts:
    @pytest.mark.parametrize("seed, n, cumulative, want", [
        (1, 1, (0.25, 0.5, 0.75), [0, 1, 0, 0]),
        (42, 2**62, (0.25, 0.5, 0.75), [1152921505845563920, 1152921503510109825,
                                        1152921504259071475, 1152921504812642684]),
        (7, 1000, (0.0, 0.0, 1.0), [0, 0, 1000, 0]),
        (7, 1000, (0.0, 0.5, 0.5), [0, 502, 0, 498]),
        (7, 1000, (1.0, 1.0, 1.0), [1000, 0, 0, 0]),
        (7, 1000, (0.0, 0.0, 0.0), [0, 0, 0, 1000]),
        # (1 - p)**N would round 1 - 2**-60 to 1 and never draw outcome 0
        (9, 2**62, (2.0**-60, 2.0**-60, 1.0), [5, 0, 4611686018427387899, 0]),
    ])
    def test_frozen_counts(self, seed, n, cumulative, want):
        # the same counts for a (seed, N, cumulative) on every platform;
        # only a libm that rounds log, log1p or exp differently may move them
        got = kernels.draw_counts(seed, 0, n, np.array(cumulative))
        assert all(type(c) is int for c in got)
        assert got == want

    @pytest.mark.parametrize("n, want", [
        (10**6, {"ab": [427445, 72942, 73077, 426536],
                 "abp": [426946, 72998, 72678, 427378],
                 "apb": [426353, 73085, 73010, 427552],
                 "apbp": [72833, 427204, 426712, 73251]}),
        (2**62, {"ab": [1968160120105071734, 337682889919482565,
                        337682890209083434, 1968160118193750171],
                 "abp": [1968160119046432348, 337682890038824547,
                         337682889431448579, 1968160119910682430],
                 "apb": [1968160117779354569, 337682890225646248,
                         337682890064232207, 1968160120358154880],
                 "apbp": [337682889684513918, 1968160119601351267,
                          1968160118563572499, 337682890577950220]}),
    ])
    def test_frozen_textbook_estimate(self, n, want):
        # the four CHSH pairs at the textbook settings, pair j from stream
        # index j·2⁶²
        plan = ShotPlan(shots_per_pair=n, seed=42)
        est = estimate_chsh(bell_state(), canonical_settings(), plan)
        assert {k: v.tolist() for k, v in est.counts.counts.items()} == want

    @pytest.mark.parametrize("n, cumulative", [
        (6, (0.1, 0.3, 0.6)),  # every binomial by inversion
        (40, (0.3, 0.6, 0.8)),  # n0 and most n1 by BTRD, n2 by inversion
        (25, (0.4, 0.45, 0.9)),  # n0 by BTRD, n1 by inversion
    ])
    def test_chi_square_against_the_exact_pmf(self, n, cumulative):
        # each count of Multinomial(n, p) is Binomial(n, p_j) on its own
        draws = [kernels.draw_counts(seed, 0, n, cumulative) for seed in range(20_000)]
        probs = np.diff(np.concatenate(([0.0], cumulative, [1.0]))).tolist()
        for j, p in enumerate(probs):
            observed = np.bincount([d[j] for d in draws], minlength=n + 1)
            stat, df = _chi2(observed.tolist(), [len(draws) * x for x in _pmf(n, p)])
            assert stat < _chi2_limit(df), (j, p, stat, df)

    def test_mean_and_variance_at_a_million_shots(self):
        # |z| < 4 for each count's mean, and its sample variance within 4σ
        # of N p (1 - p), σ = sqrt(2 / (K - 1)) for K draws
        n, draws = 10**6, 20_000
        cumulative = (0.427, 0.5, 0.573)
        counts = np.array([kernels.draw_counts(seed, 0, n, cumulative)
                           for seed in range(draws)], dtype=np.float64)
        probs = np.diff(np.concatenate(([0.0], cumulative, [1.0])))
        for j, p in enumerate(probs):
            var = n * p * (1.0 - p)
            z = (counts[:, j].mean() - n * p) / math.sqrt(var / draws)
            ratio = counts[:, j].var(ddof=1) / var
            assert abs(z) < 4.0, (j, z)
            assert abs(ratio - 1.0) < 4.0 * math.sqrt(2.0 / (draws - 1)), (j, ratio)

    @pytest.mark.parametrize("kwargs, error, match", [
        ({"seed": 1.0}, TypeError, "seed"),
        ({"base": True}, TypeError, "base"),
        ({"n": np.int64(5)}, TypeError, "n must"),
        ({"seed": -1}, ValueError, "seed"),
        ({"seed": 2**64}, ValueError, "seed"),
        ({"base": 2**64}, ValueError, "base"),
        ({"n": -1}, ValueError, "non-negative"),
        ({"cumulative": (0.5, 0.4, 1.0)}, ValueError, "cumulative"),
        ({"cumulative": (0.5, 1.0)}, ValueError, "cumulative"),
        ({"cumulative": (0.0, 0.5, 1.5)}, ValueError, "cumulative"),
        ({"cumulative": (float("nan"), 0.5, 1.0)}, ValueError, "cumulative"),
    ])
    def test_rejects_invalid_inputs(self, kwargs, error, match):
        args = dict({"seed": 1, "base": 0, "n": 5, "cumulative": (0.2, 0.5, 0.7)}, **kwargs)
        with pytest.raises(error, match=match):
            kernels.draw_counts(**args)

    def test_no_shots_draws_nothing(self):
        assert kernels.draw_counts(1, 0, 0, (0.2, 0.5, 0.7)) == [0, 0, 0, 0]
