"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured quantities once its assertions hold."""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from dense_oracle import chsh_value, lhv_max, superclassical_components
from gupbell import security, shots
from gupbell.gup import (
    GupModel, default_hamiltonian, default_perturbation,
    gup_correct_observable, perturb_state,
)
from gupbell.lab import (
    BatchEvaluator, ScenarioConfig, beta_sweep, evaluate_point, grid_scan,
    optimize_angles,
)
from gupbell.quantum import (
    CLASSICAL_BOUND, bell_state, canonical_settings, directions,
)
from gupbell.shots import ShotPlan, estimate_chsh
from gupbell.tensor import eig_hermitian

TSIRELSON = 2.0 * math.sqrt(2.0)


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def test_criterion_01_tsirelson_optimize():
    cfg = ScenarioConfig()
    # warm the vectorized path so the timing reflects the search itself
    BatchEvaluator(cfg).values(*[np.array([[0.0, 0.0, 1.0]])] * 4)
    t0 = time.perf_counter()
    opt = optimize_angles(cfg)
    elapsed = time.perf_counter() - t0
    assert abs(opt.value - TSIRELSON) < 1e-6
    assert elapsed < 1.0
    report(1, f"optimize S={opt.value:.12f} in {elapsed:.3f}s")


def test_criterion_02_scan_two_regions():
    t0 = time.perf_counter()
    grid = grid_scan(ScenarioConfig(), resolution=201)
    components = superclassical_components(grid)
    elapsed = time.perf_counter() - t0
    peak = float(grid.values.max())
    assert abs(peak - TSIRELSON) < 2e-3
    assert components >= 2
    assert elapsed < 10.0
    report(2, f"201x201 scan max={peak:.6f}, {components} regions, "
              f"{elapsed:.2f}s")


def test_criterion_03_classical_bound_exact():
    best, strategies = lhv_max()
    assert best == 2.0
    assert best == CLASSICAL_BOUND
    assert len(strategies) == 16
    report(3, "deterministic-strategy maximum is exactly 2 = CLASSICAL_BOUND")


@pytest.mark.filterwarnings("ignore:.*no longer small")
def test_criterion_04_sweep_below_boxworld():
    t0 = time.perf_counter()
    curves = beta_sweep()
    elapsed = time.perf_counter() - t0
    peak = max(float(np.max(curve.series[tag]))
               for curve in curves for tag in curve.series)
    assert peak <= 4.0
    assert elapsed < 10.0
    report(4, f"sweep over beta {tuple(c.beta for c in curves)} "
              f"max S={peak:.6f} <= 4, {elapsed:.2f}s")


def test_criterion_05_qm_recovery():
    can = canonical_settings()
    s0 = chsh_value(bell_state(), can)
    worst = 0.0
    for scenario in ("s1", "s2", "s3"):
        for beta in (1e-2, 1e-3, 1e-4):
            cfg = ScenarioConfig(scenario=scenario,
                                 model=GupModel(beta=beta, rule="tilt"))
            drift = abs(evaluate_point(cfg, can).value - s0)
            assert drift <= 10.0 * beta
            worst = max(worst, drift / beta)
    report(5, f"max |S(beta)-S(0)|/beta = {worst:.3f} <= 10")


@pytest.mark.filterwarnings("ignore:.*no longer small")
def test_criterion_06_scenario3_invariance():
    model = GupModel(beta=0.3, rule="self-cubic")
    qm_ev = BatchEvaluator(ScenarioConfig())
    s3_ev = BatchEvaluator(ScenarioConfig(scenario="s3", model=model))
    rng = np.random.default_rng(2026)
    theta = rng.uniform(0.0, math.pi, size=(1000, 4))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(1000, 4))
    dirs = [directions(theta[:, i], phi[:, i]) for i in range(4)]
    gap = float(np.max(np.abs(s3_ev.values(*dirs) - qm_ev.values(*dirs))))
    assert gap < 1e-10

    tilt = GupModel(beta=0.9, rule="tilt")
    eig_gap = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in (canonical_settings().a, canonical_settings().a_prime,
                  canonical_settings().b, canonical_settings().b_prime):
            vals = eig_hermitian(gup_correct_observable(d, tilt).j_gup)[0]
            eig_gap = max(eig_gap, float(np.max(np.abs(vals - [-1.0, 1.0]))))
    assert eig_gap < 1e-10

    grid = grid_scan(ScenarioConfig(scenario="s3", model=tilt), resolution=101)
    sup = float(grid.values.max())
    assert sup <= TSIRELSON + 1e-3
    report(6, f"self-cubic gap {gap:.1e}, eigenvalue gap {eig_gap:.1e}, "
              f"tilt beta=0.9 sup {sup:.6f}")


def test_criterion_07_self_cubic_bracket_sum():
    state = bell_state()
    can = canonical_settings()
    b_exp = chsh_value(state, can)
    worst = 0.0
    for beta in (0.1, 0.3):
        model = GupModel(beta=beta, rule="self-cubic")
        res = evaluate_point(ScenarioConfig("s1", state=state, model=model), can)
        err = abs(res.terms["correction_sum"] - 2.0 * beta * beta * b_exp)
        assert err < 1e-10
        worst = max(worst, err)
    report(7, f"bracket sum matches 2 beta^2 <B> within {worst:.1e}")


def test_criterion_08_perturbed_state_identities(asym_settings, custom_hp):
    beta = 0.17
    cfg = ScenarioConfig("s2", model=GupModel(beta=beta), hp=custom_hp)
    res = evaluate_point(cfg, asym_settings)
    cross = res.terms["cross"]
    value_err = abs(res.value - res.terms["qm"] - 2.0 * beta * cross)
    assert value_err < 1e-12
    report(8, f"value identity {value_err:.1e}")


def test_criterion_09_perturbation_oracle():
    beta = 1e-4
    model = GupModel(beta=beta, rule="tilt", m=np.array([0.0, 0.6, 0.8]))
    h0 = default_hamiltonian()
    hp = default_perturbation(model)
    ps = perturb_state(h0, hp, 0, beta)
    assert float(np.linalg.norm(ps.xi_p)) > 1e-3  # the check is not vacuous
    overlap = abs(ps.xi.amplitudes.conj() @ ps.xi_p)
    assert overlap < 1e-12

    exact = eig_hermitian(h0 + beta * hp)[1][:, 0]
    target = ps.corrected_vector()
    target = target / np.linalg.norm(target)
    phase = exact.conj() @ target
    exact = exact * (phase / abs(phase))
    diff = float(np.linalg.norm(exact - target))
    assert diff < 1e-6
    report(9, f"finite-difference state error {diff:.1e}, "
              f"<xi|xi_p> = {overlap:.1e}")


def test_criterion_10_shot_statistics():
    t0 = time.perf_counter()
    state = bell_state()
    can = canonical_settings()
    clean = estimate_chsh(state, can, ShotPlan(shots_per_pair=1_000_000, seed=42))
    assert abs(clean.s_hat - TSIRELSON) <= 0.01
    noisy = estimate_chsh(state, can, ShotPlan(shots_per_pair=1_000_000,
                                               seed=42, noise_p=0.2))
    assert abs(noisy.s_hat - 0.8 * TSIRELSON) <= 0.01

    n = 100_000
    values = []
    stderrs = []
    for seed in range(100):
        est = estimate_chsh(state, can, ShotPlan(shots_per_pair=n, seed=seed))
        values.append(est.s_hat)
        stderrs.append(est.stderr)
    ratio = float(np.std(values) / np.mean(stderrs))
    elapsed = time.perf_counter() - t0
    assert 0.75 <= ratio <= 1.25
    assert elapsed < 60.0
    report(10, f"clean {clean.s_hat:.4f}, noisy {noisy.s_hat:.4f}, "
               f"std/stderr ratio {ratio:.3f}, {elapsed:.1f}s")


def _fixed_estimate(s_hat, stderr):
    table = shots.CountsTable(counts={k: [1, 0, 0, 0]
                                      for k in shots.PAIR_LABELS},
                              shots_per_pair=1)
    return shots.ChshEstimate(s_hat=s_hat, stderr=stderr, counts=table,
                              correlators={})


def test_criterion_11_security_boundaries():
    assert security.minentropy_bound(2.0) == (0.0, False)
    assert security.minentropy_bound(TSIRELSON) == (1.0, False)
    alarm, drop = security.eavesdrop_test(_fixed_estimate(2.9, 0.01),
                                          _fixed_estimate(2.7, 0.01),
                                          k_sigma=5.0)
    assert abs(drop - 14.14) < 0.01
    assert alarm
    report(11, f"boundary bits exact, reference drop {drop:.4f} sigma, alarm on")


def test_criterion_12_sample_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "gupbell.cli", "sample", "--seed", "42",
             "--shots", "200000", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "sample.json").read_bytes())
    assert blobs[0] == blobs[1]
    report(12, "sample.json byte-identical across fresh processes")
