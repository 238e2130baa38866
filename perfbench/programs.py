"""Turn generated specs into gupbell inputs: CLI configs and library calls."""

from __future__ import annotations

import math

import numpy as np

from gupbell import gup, lab, quantum, shots


def _pairs(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _jp(v) -> np.ndarray:
    return v[0] * quantum.SIGMA_X + v[1] * quantum.SIGMA_Y + v[2] * quantum.SIGMA_Z


def cli_config(spec: dict, out: str) -> dict:
    """The JSON config document for one CLI operation."""
    model = spec["model"]
    doc = {"scenario": spec["scenario"], "beta": model["beta"], "out": out,
           "model": {"rule": model["rule"]}}
    if model["rule"] == "tilt":
        doc["model"]["m"] = list(model["m"])
    elif model["rule"] == "custom":
        doc["model"]["jp"] = _pairs(_jp(model["v"]))
    if spec["hp"] is not None:
        doc["hp"] = _pairs(spec["hp"])
    for key in ("betas", "theta_steps", "eight_angles", "seed", "shots",
                "noise_p", "settings"):
        if key in spec:
            doc[key] = spec[key]
    if "grid_steps" in spec:
        doc["grid"] = {"steps": spec["grid_steps"]}
    return doc


def gup_model(spec: dict) -> gup.GupModel:
    model = spec["model"]
    if model["rule"] == "custom":
        return gup.GupModel(beta=model["beta"], rule="custom", jp=_jp(model["v"]))
    return gup.GupModel(beta=model["beta"], rule=model["rule"],
                        m=np.asarray(model.get("m", (0.0, 0.0, 1.0))))


def scenario_config(spec: dict) -> lab.ScenarioConfig:
    model = None if spec["scenario"] == "qm" else gup_model(spec)
    return lab.ScenarioConfig(scenario=spec["scenario"], state=quantum.bell_state(),
                              model=model, hp=spec["hp"])


def chsh_settings(spec: dict) -> quantum.ChshSettings:
    return quantum.ChshSettings(*(
        quantum.Direction(spec["settings"][k][0] * math.pi, spec["settings"][k][1] * math.pi)
        for k in ("a", "a_prime", "b", "b_prime")))


def shot_inputs(spec: dict):
    """The correct state and observables for sampling the spec's scenario:
    the Bell state for qm and s1, the normalized first-order corrected state
    for s3, and corrected observables for s1 and s3."""
    settings = chsh_settings(spec)
    scenario = spec["scenario"]
    state = quantum.bell_state()
    observables = None
    if scenario in ("s1", "s3"):
        model = gup_model(spec)
        observables = [gup.gup_correct_observable(d, model).j_gup
                       for d in (settings.a, settings.a_prime, settings.b, settings.b_prime)]
        if scenario == "s3":
            hp = spec["hp"] if spec["hp"] is not None else gup.default_perturbation(model)
            xg = gup.perturb_state(gup.default_hamiltonian(), hp, 0, model.beta).corrected_vector()
            state = quantum.PureState(xg / np.linalg.norm(xg))
    return state, settings, observables


def landscape_call(spec: dict):
    """A zero-argument closure making the spec's one library call."""
    kind = spec["kind"]
    if kind == "scan":
        cfg = scenario_config(spec)
        return lambda: lab.grid_scan(cfg, resolution=spec["grid_steps"])
    if kind == "sweep":
        model = spec["model"]
        theta = np.linspace(0.0, 2.0 * math.pi, spec["theta_steps"])
        jp = _jp(model["v"]) if model["rule"] == "custom" else None
        m = model.get("m", (0.0, 0.0, 1.0))
        return lambda: lab.beta_sweep(spec["betas"], theta, rule=model["rule"],
                                      m=m, jp=jp, hp=spec["hp"])
    cfg = scenario_config(spec)
    return lambda: lab.optimize_angles(cfg, seed=spec["seed"],
                                       eight_angles=spec["eight_angles"])


def shots_call(spec: dict):
    state, settings, observables = shot_inputs(spec)
    plan = shots.ShotPlan(shots_per_pair=spec["shots"], seed=spec["seed"],
                          noise_p=spec["noise_p"])
    return lambda: shots.estimate_chsh(state, settings, plan, observables)


def cumulative_thresholds(spec: dict) -> list:
    """The four pairs' cumulative outcome thresholds, as estimate_chsh forms them."""
    state, _, observables = shot_inputs(spec)
    if observables is None:
        observables = shots.default_observables(chsh_settings(spec))
    oa, oap, ob, obp = observables
    rho = shots.depolarize(state, spec["noise_p"])
    out = []
    for a, b in ((oa, ob), (oa, obp), (oap, ob), (oap, obp)):
        probs, _ = shots.joint_probabilities(rho, a, b)
        out.append(np.minimum(np.cumsum(probs)[:3], 1.0))
    return out


def estimate_doc(est) -> dict:
    return {"s_hat": est.s_hat, "stderr": est.stderr,
            "correlators": dict(est.correlators),
            "counts": {k: [int(c) for c in v] for k, v in est.counts.counts.items()}}
