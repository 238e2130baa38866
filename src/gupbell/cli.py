"""Command-line front end: scan, sweep, optimize, sample and audit.

Angles are given in multiples of pi on the command line and in config
files, and written in radians to data files.  All outputs are
byte-reproducible for a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import gup, lab, security, shots
from .errors import GupBellError, OutOfRangeError, ValidationError
from .gup import GupModel
from .lab import ScenarioConfig, classify
from .quantum import ChshSettings, Direction, bell_state
from .shots import ChshEstimate, CountsTable, ShotPlan

PI = math.pi

COMMANDS = ("scan", "sweep", "optimize", "sample", "audit")
SCENARIOS = ("qm", "s1", "s2", "s3")
MODEL_RULES = ("self-cubic", "tilt", "custom")

#: largest seed: the stream seed is a uint64 and ``audit`` also uses seed + 1
SEED_MAX = 2**64 - 2

DEFAULT_SETTINGS_PI = {"a": [0.0, 0.0], "a_prime": [0.5, 0.0],
                       "b": [0.25, 0.0], "b_prime": [-0.25, 0.0]}

CONFIG_KEYS = {
    "scenario", "beta", "model", "m", "jp", "settings", "grid", "betas",
    "theta_steps", "shots", "seed", "noise_p", "k_sigma", "restarts",
    "eight_angles", "h0", "hp", "out", "baseline_estimate", "observed_estimate",
}


@dataclass
class RunConfig:
    command: str = "scan"
    scenario: str = "qm"
    beta: float = 0.1
    model_rule: str = "tilt"
    m: list = field(default_factory=lambda: [0.0, 0.0, 1.0])
    jp: list | None = None
    settings_pi: dict = field(default_factory=lambda: dict(DEFAULT_SETTINGS_PI))
    grid_min_pi: float = 0.0
    grid_max_pi: float = 2.0
    grid_steps: int = 201
    betas: list = field(default_factory=lambda: [0.1, 0.2, 0.5, 0.9])
    theta_steps: int = 721
    shots: int = 1_000_000
    seed: int = 42
    noise_p: float = 0.0
    k_sigma: float = 5.0
    restarts: int = 1
    eight_angles: bool = False
    h0: list | None = None
    hp: list | None = None
    out: str = "out"
    baseline_estimate: str | None = None
    observed_estimate: str | None = None


def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _check_number(value, path, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        _fail(path, "must be finite")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}")
    return value


def _check_int(value, path, minimum=None, maximum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}")
    return value


def _load_json(fh, path: str):
    """``json.load`` that rejects NaN and +-Infinity, which are not JSON."""
    def reject(name):
        _fail(path, f"non-finite number {name} is not allowed")
    return json.load(fh, parse_constant=reject)


def _parse_complex_matrix(raw, path, dim) -> list:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a nested array of [re, im] pairs")
    if arr.shape != (dim, dim, 2):
        _fail(path, f"expected shape {dim}x{dim}x2, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(path, "entries must be finite")
    return arr.tolist()


def _complex_from_pairs(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _validate_axis(raw, path) -> list:
    try:
        m = [float(x) for x in raw]
    except (TypeError, ValueError):
        _fail(path, "expected three numbers")
    if len(m) != 3:
        _fail(path, "expected three components")
    if not all(math.isfinite(x) for x in m):
        _fail(path, "components must be finite")
    norm = math.sqrt(sum(x * x for x in m))
    if norm == 0.0:
        _fail(path, "axis must be non-zero")
    if abs(norm - 1.0) > 1e-6:
        _fail(path, f"axis norm {norm:.9g} deviates from 1 by more than 1e-6")
    if norm != 1.0:
        warnings.warn(f"{path}: normalizing axis (norm {norm:.12g})", stacklevel=2)
        m = [x / norm for x in m]
    return m


def _apply_config_file(cfg: RunConfig, doc: dict):
    if not isinstance(doc, dict):
        _fail("$", "config root must be a JSON object")
    for key in doc:
        if key not in CONFIG_KEYS:
            _fail(key, "unknown configuration key")
    if "scenario" in doc:
        if doc["scenario"] not in SCENARIOS:
            _fail("scenario", f"must be one of {SCENARIOS}")
        cfg.scenario = doc["scenario"]
    if "beta" in doc:
        value = _check_number(doc["beta"], "beta")
        if value < 0:
            _fail("beta", "negative beta models are out of scope")
        cfg.beta = value
    if "model" in doc:
        model = doc["model"]
        if isinstance(model, str):
            rule = model.replace("_", "-")
            if rule not in MODEL_RULES:
                _fail("model", f"must be one of {MODEL_RULES}")
            cfg.model_rule = rule
        elif isinstance(model, dict):
            for key in model:
                if key not in ("rule", "m", "jp"):
                    _fail(f"model.{key}", "unknown model key")
            rule = model.get("rule", cfg.model_rule)
            rule = rule.replace("_", "-") if isinstance(rule, str) else rule
            if rule not in MODEL_RULES:
                _fail("model.rule", f"must be one of {MODEL_RULES}")
            cfg.model_rule = rule
            if "m" in model:
                cfg.m = _validate_axis(model["m"], "model.m")
            if "jp" in model:
                cfg.jp = _parse_complex_matrix(model["jp"], "model.jp", 2)
        else:
            _fail("model", "expected a rule name or an object")
    if "m" in doc:
        cfg.m = _validate_axis(doc["m"], "m")
    if "jp" in doc:
        cfg.jp = _parse_complex_matrix(doc["jp"], "jp", 2)
    if "settings" in doc:
        if not isinstance(doc["settings"], dict):
            _fail("settings", "expected an object")
        for name, pair in doc["settings"].items():
            if name not in DEFAULT_SETTINGS_PI:
                _fail(f"settings.{name}", "unknown setting; use a, a_prime, b, b_prime")
            try:
                theta, phi = (float(x) for x in pair)
            except (TypeError, ValueError):
                _fail(f"settings.{name}", "expected [theta_over_pi, phi_over_pi]")
            if not all(math.isfinite(x * PI) for x in (theta, phi)):
                _fail(f"settings.{name}", "angles must be finite")
            cfg.settings_pi[name] = [theta, phi]
    if "grid" in doc:
        grid = doc["grid"]
        if not isinstance(grid, dict):
            _fail("grid", "expected an object")
        for key in grid:
            if key not in ("min", "max", "steps"):
                _fail(f"grid.{key}", "unknown grid key")
        if "min" in grid:
            cfg.grid_min_pi = _check_number(grid["min"], "grid.min")
        if "max" in grid:
            cfg.grid_max_pi = _check_number(grid["max"], "grid.max")
        if "steps" in grid:
            cfg.grid_steps = _check_int(grid["steps"], "grid.steps", minimum=2)
        if cfg.grid_max_pi <= cfg.grid_min_pi:
            _fail("grid.max", "must exceed grid.min")
    if "betas" in doc:
        if not isinstance(doc["betas"], list) or not doc["betas"]:
            _fail("betas", "expected a non-empty list")
        betas = []
        for i, b in enumerate(doc["betas"]):
            value = _check_number(b, f"betas[{i}]")
            if value < 0:
                _fail(f"betas[{i}]", "negative beta models are out of scope")
            betas.append(value)
        cfg.betas = betas
    if "theta_steps" in doc:
        cfg.theta_steps = _check_int(doc["theta_steps"], "theta_steps", minimum=2)
    if "shots" in doc:
        cfg.shots = _check_int(doc["shots"], "shots", minimum=1)
    if "seed" in doc:
        cfg.seed = _check_int(doc["seed"], "seed", minimum=0, maximum=SEED_MAX)
    if "noise_p" in doc:
        cfg.noise_p = _check_number(doc["noise_p"], "noise_p", 0.0, 1.0)
    if "k_sigma" in doc:
        cfg.k_sigma = _check_number(doc["k_sigma"], "k_sigma", 0.0)
    if "restarts" in doc:
        cfg.restarts = _check_int(doc["restarts"], "restarts", minimum=1)
    if "eight_angles" in doc:
        if not isinstance(doc["eight_angles"], bool):
            _fail("eight_angles", "expected a boolean")
        cfg.eight_angles = doc["eight_angles"]
    if "h0" in doc:
        cfg.h0 = _parse_complex_matrix(doc["h0"], "h0", 4)
    if "hp" in doc:
        cfg.hp = _parse_complex_matrix(doc["hp"], "hp", 4)
    if "out" in doc:
        if not isinstance(doc["out"], str):
            _fail("out", "expected a path string")
        cfg.out = doc["out"]
    for key in ("baseline_estimate", "observed_estimate"):
        if key in doc:
            if not isinstance(doc[key], str):
                _fail(key, "expected a path string")
            setattr(cfg, key, doc[key])


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupbell",
        description="CHSH laboratory with minimal-length corrections")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("scan", "two-angle grid scan with CSV and SVG heatmap output"),
        ("sweep", "beta sweep over a one-parameter settings family"),
        ("optimize", "search the measurement angles for the maximal S"),
        ("sample", "finite-shot Monte Carlo CHSH estimate"),
        ("audit", "device-independent security report"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--scenario", choices=SCENARIOS)
        p.add_argument("--beta", type=float)
        p.add_argument("--model", choices=["self-cubic", "tilt", "custom"])
        p.add_argument("--m", help="tilt axis as x,y,z")
        p.add_argument("--grid-steps", type=int)
        p.add_argument("--betas", help="comma-separated beta list")
        p.add_argument("--shots", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--noise-p", type=float)
        p.add_argument("--k-sigma", type=float)
        p.add_argument("--restarts", type=int)
        p.add_argument("--out", help="output directory")
    return parser


def parse_config(argv) -> RunConfig:
    args = _build_arg_parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    if args.config:
        try:
            with open(args.config) as fh:
                doc = _load_json(fh, "config")
        except OSError as exc:
            _fail("config", f"cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            _fail("config", f"malformed JSON: {exc}")
        _apply_config_file(cfg, doc)
    overrides = {}
    if args.scenario is not None:
        overrides["scenario"] = args.scenario
    if args.beta is not None:
        overrides["beta"] = args.beta
    if args.model is not None:
        overrides["model"] = args.model
    if args.m is not None:
        try:
            overrides["m"] = [float(x) for x in args.m.split(",")]
        except ValueError:
            _fail("m", "expected x,y,z numbers")
    if args.grid_steps is not None:
        overrides["grid"] = {"steps": args.grid_steps}
    if args.betas is not None:
        try:
            overrides["betas"] = [float(x) for x in args.betas.split(",")]
        except ValueError:
            _fail("betas", "expected comma-separated numbers")
    if args.shots is not None:
        overrides["shots"] = args.shots
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.noise_p is not None:
        overrides["noise_p"] = args.noise_p
    if args.k_sigma is not None:
        overrides["k_sigma"] = args.k_sigma
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if args.out is not None:
        overrides["out"] = args.out
    _apply_config_file(cfg, overrides)
    return cfg


def _gup_model(cfg: RunConfig) -> GupModel:
    if cfg.model_rule == "custom":
        if cfg.jp is None:
            _fail("jp", "custom model requires a 2x2 Hermitian jp")
        return GupModel(beta=cfg.beta, rule="custom", jp=_complex_from_pairs(cfg.jp))
    return GupModel(beta=cfg.beta, rule=cfg.model_rule,
                    m=np.asarray(cfg.m, dtype=float))


def _chsh_settings(cfg: RunConfig) -> ChshSettings:
    dirs = {}
    for name, (theta, phi) in cfg.settings_pi.items():
        dirs[name] = Direction(theta * PI, phi * PI)
    return ChshSettings(dirs["a"], dirs["a_prime"], dirs["b"], dirs["b_prime"])


def _scenario_config(cfg: RunConfig) -> ScenarioConfig:
    model = None if cfg.scenario == "qm" else _gup_model(cfg)
    h0 = None if cfg.h0 is None else _complex_from_pairs(cfg.h0)
    hp = None if cfg.hp is None else _complex_from_pairs(cfg.hp)
    return ScenarioConfig(scenario=cfg.scenario, state=bell_state(),
                          model=model, h0=h0, hp=hp)


def _fmt9(x: float) -> str:
    return format(float(x), ".9g")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- SVG heatmap -----------------------------------------------------------

_CELL = 3
_MARGIN_LEFT = 60
_MARGIN_BOTTOM = 46
_MARGIN_TOP = 16
_LEGEND_W = 70


def _heat_color(value: float, vmin: float, vmax: float) -> str:
    """Linear blue -> white -> red map over [vmin, vmax]."""
    mid = 0.5 * (vmin + vmax)
    half = 0.5 * (vmax - vmin)
    t = 0.0 if half == 0 else max(-1.0, min(1.0, (value - mid) / half))
    if t < 0:
        r = g = int(round(255 * (1.0 + t)))
        b = 255
    else:
        r = 255
        g = b = int(round(255 * (1.0 - t)))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_heatmap(grid: lab.ScanGrid, path) -> None:
    """Hand-emitted SVG: one rect per cell, cells above the classical
    bound outlined, axes in units of pi, and a color legend."""
    values = grid.values
    n1, n2 = values.shape
    if n1 == 0 or n2 == 0:
        raise GupBellError("cannot render an empty grid")
    vmin = float(values.min())
    vmax = float(values.max())
    degenerate = (vmax - vmin) < 1e-12
    if degenerate:
        vmin, vmax = -4.0, 4.0
    width = _MARGIN_LEFT + n1 * _CELL + _LEGEND_W
    height = _MARGIN_TOP + n2 * _CELL + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i in range(n1):
        for j in range(n2):
            v = float(values[i, j])
            x = _MARGIN_LEFT + i * _CELL
            y = _MARGIN_TOP + (n2 - 1 - j) * _CELL
            outline = (not degenerate) and v > 2.0
            stroke = ' stroke="#000" stroke-width="0.4"' if outline else ""
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_heat_color(v, vmin, vmax)}"{stroke}/>')
    axis_y = _MARGIN_TOP + n2 * _CELL
    t1 = grid.theta1_axis
    t2 = grid.theta2_axis
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_LEFT + frac * (n1 * _CELL)
        label = _fmt9((t1[0] + frac * (t1[-1] - t1[0])) / PI)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" '
                     f'y2="{axis_y + 5}" stroke="#000"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 18}" font-size="11" '
                     f'text-anchor="middle">{label}</text>')
        y = _MARGIN_TOP + (1.0 - frac) * (n2 * _CELL)
        label = _fmt9((t2[0] + frac * (t2[-1] - t2[0])) / PI)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.1f}" '
                     f'x2="{_MARGIN_LEFT}" y2="{y:.1f}" stroke="#000"/>')
        parts.append(f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.1f}" font-size="11" '
                     f'text-anchor="end">{label}</text>')
    parts.append(f'<text x="{_MARGIN_LEFT + n1 * _CELL / 2}" '
                 f'y="{axis_y + 34}" font-size="12" '
                 'text-anchor="middle">theta1/pi</text>')
    parts.append(f'<text x="14" y="{_MARGIN_TOP + n2 * _CELL / 2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 '
                 f'{_MARGIN_TOP + n2 * _CELL / 2})">theta2/pi</text>')
    # legend: vertical gradient with the mapped range
    lx = _MARGIN_LEFT + n1 * _CELL + 18
    lh = max(40, n2 * _CELL - 40)
    parts.append('<defs><linearGradient id="scale" x1="0" y1="1" x2="0" y2="0">'
                 '<stop offset="0" stop-color="#0000ff"/>'
                 '<stop offset="0.5" stop-color="#ffffff"/>'
                 '<stop offset="1" stop-color="#ff0000"/>'
                 '</linearGradient></defs>')
    parts.append(f'<rect x="{lx}" y="{_MARGIN_TOP}" width="14" height="{lh}" '
                 'fill="url(#scale)" stroke="#000" stroke-width="0.5"/>')
    parts.append(f'<text x="{lx + 18}" y="{_MARGIN_TOP + 10}" font-size="11">'
                 f'{_fmt9(vmax)}</text>')
    parts.append(f'<text x="{lx + 18}" y="{_MARGIN_TOP + lh}" font-size="11">'
                 f'{_fmt9(vmin)}</text>')
    parts.append("</svg>")
    _write_text(Path(path), "\n".join(parts) + "\n")


# --- subcommands -----------------------------------------------------------

def _run_scan(cfg: RunConfig, out: Path) -> float:
    grid = lab.grid_scan(_scenario_config(cfg), resolution=cfg.grid_steps,
                         theta_min=cfg.grid_min_pi * PI,
                         theta_max=cfg.grid_max_pi * PI)
    lines = ["theta1,theta2,S"]
    for i, t1 in enumerate(grid.theta1_axis):
        for j, t2 in enumerate(grid.theta2_axis):
            lines.append(f"{_fmt9(t1)},{_fmt9(t2)},{_fmt9(grid.values[i, j])}")
    _write_text(out / "scan.csv", "\n".join(lines) + "\n")
    render_heatmap(grid, out / "scan.svg")
    return float(grid.values.max())


def _run_sweep(cfg: RunConfig, out: Path) -> float:
    theta_axis = np.linspace(0.0, 2.0 * PI, cfg.theta_steps)
    curves = lab.beta_sweep(
        cfg.betas, theta_axis, rule=cfg.model_rule,
        m=np.asarray(cfg.m, dtype=float),
        jp=None if cfg.jp is None else _complex_from_pairs(cfg.jp),
        h0=None if cfg.h0 is None else _complex_from_pairs(cfg.h0),
        hp=None if cfg.hp is None else _complex_from_pairs(cfg.hp))
    lines = ["beta,theta,S_qm,S_s1,S_s2,S_s3"]
    best = -math.inf
    for curve in curves:
        for k, theta in enumerate(curve.theta_axis):
            row = [_fmt9(curve.beta), _fmt9(theta)]
            for tag in ("qm", "s1", "s2", "s3"):
                value = float(curve.series[tag][k])
                best = max(best, value)
                row.append(_fmt9(value))
            lines.append(",".join(row))
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    return best


def _run_optimize(cfg: RunConfig, out: Path) -> float:
    opt = lab.optimize_angles(_scenario_config(cfg), restarts=cfg.restarts,
                              seed=cfg.seed, eight_angles=cfg.eight_angles)
    payload = {
        "value": opt.value,
        "evaluations": opt.evaluations,
        "converged": opt.converged,
        "region": classify(opt.value),
        "settings": {
            name: {"theta": d.theta, "phi": d.phi,
                   "theta_over_pi": d.theta / PI, "phi_over_pi": d.phi / PI}
            for name, d in (("a", opt.settings.a), ("a_prime", opt.settings.a_prime),
                            ("b", opt.settings.b), ("b_prime", opt.settings.b_prime))
        },
    }
    _write_json(out / "optimum.json", payload)
    return opt.value


def _estimate_payload(est: ChshEstimate, plan: ShotPlan) -> dict:
    return {
        "s_hat": est.s_hat,
        "stderr": est.stderr,
        "correlators": {k: est.correlators[k] for k in shots.PAIR_LABELS},
        "counts": {k: [int(c) for c in est.counts.counts[k]]
                   for k in shots.PAIR_LABELS},
        "shots_per_pair": plan.shots_per_pair,
        "seed": plan.seed,
        "noise_p": plan.noise_p,
    }


def _sample_estimate(cfg: RunConfig, noise_p: float, seed: int) -> tuple[ChshEstimate, ShotPlan]:
    """Shots from the scenario's own state and (corrected) observables."""
    plan = ShotPlan(shots_per_pair=cfg.shots, seed=seed, noise_p=noise_p)
    settings = _chsh_settings(cfg)
    scenario = _scenario_config(cfg)
    state = scenario.sampled_state()
    model = scenario.operator_model()
    observables = None if model is None else [
        gup.gup_correct_observable(d, model).j_gup
        for d in (settings.a, settings.a_prime, settings.b, settings.b_prime)]
    return shots.estimate_chsh(state, settings, plan, observables), plan


def _run_sample(cfg: RunConfig, out: Path) -> float:
    est, plan = _sample_estimate(cfg, cfg.noise_p, cfg.seed)
    _write_json(out / "sample.json", _estimate_payload(est, plan))
    return est.s_hat


def _load_estimate(path: str) -> ChshEstimate:
    try:
        with open(path) as fh:
            doc = _load_json(fh, path)
    except OSError as exc:
        _fail(path, f"cannot read estimate: {exc}")
    except json.JSONDecodeError as exc:
        _fail(path, f"malformed JSON: {exc}")
    try:
        table = CountsTable(
            counts={k: np.asarray(doc["counts"][k], dtype=np.int64)
                    for k in shots.PAIR_LABELS},
            shots_per_pair=int(doc["shots_per_pair"]))
        s_hat, stderr = float(doc["s_hat"]), float(doc["stderr"])
        estimate = ChshEstimate(s_hat=s_hat, stderr=stderr, counts=table,
                                correlators=dict(doc["correlators"]))
    except (KeyError, TypeError, ValueError) as exc:
        _fail(path, f"not a valid estimate document: {exc}")
    if not (math.isfinite(s_hat) and math.isfinite(stderr)):
        _fail(path, "s_hat and stderr must be finite")
    return estimate


def _run_audit(cfg: RunConfig, out: Path) -> float:
    if cfg.baseline_estimate:
        baseline = _load_estimate(cfg.baseline_estimate)
    else:
        baseline, _ = _sample_estimate(cfg, 0.0, cfg.seed)
    if cfg.observed_estimate:
        observed = _load_estimate(cfg.observed_estimate)
    else:
        observed, _ = _sample_estimate(cfg, cfg.noise_p, cfg.seed + 1)
    report = security.build_report(baseline, observed, cfg.k_sigma)
    _write_json(out / "audit.json", asdict(report))
    return report.s_observed


def execute(cfg: RunConfig) -> float:
    """Run the configured command, write artifacts, return the summary S."""
    out = Path(cfg.out)
    runner = {"scan": _run_scan, "sweep": _run_sweep, "optimize": _run_optimize,
              "sample": _run_sample, "audit": _run_audit}[cfg.command]
    return runner(cfg, out)


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        value = execute(cfg)
    except (ValidationError, OutOfRangeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 3
    except GupBellError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    print(f"{cfg.command} S={_fmt9(value)} region={classify(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
