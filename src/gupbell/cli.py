"""Command-line front end: scan, sweep, optimize, sample and audit.

Angles are given in multiples of pi on the command line and in config
files, and written in radians to data files.  All outputs are
byte-reproducible for a fixed configuration and seed on one BLAS kernel:
the optimizer's BLAS and LAPACK calls round by the kernel, so another can move
the last bits of ``optimum.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# shots and security load inside the sample and audit runners only, so scan,
# sweep and optimize never import them
from . import gup, lab
from .errors import (
    AmbiguousBranchError, GupBellError, HermiticityError, OutOfRangeError,
    ValidationError,
)
from .gup import GupModel
from .lab import ScenarioConfig, classify
from .quantum import CLASSICAL_BOUND, ChshSettings, Direction

if TYPE_CHECKING:
    from .shots import ChshEstimate, ShotPlan

PI = math.pi

#: largest seed: the stream seed is a uint64 and ``audit`` also uses seed + 1
SEED_MAX = 2**64 - 2
#: largest count an estimate file may hold: counts are stored as int64
COUNT_MAX = 2**63 - 1

def _fail(path: str, message: str):
    raise ValidationError(f"{path}: {message}")


def _check_number(value, path, minimum=None, maximum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        value = math.inf
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


def _check_choice(value, path, choices) -> str:
    if value not in choices:
        _fail(path, f"must be one of {choices}")
    return value


def _check_beta(value, path) -> float:
    value = _check_number(value, path)
    if value < 0:
        _fail(path, "negative beta models are out of scope")
    return value


def _check_betas(value, path) -> list:
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    return [_check_beta(b, f"{path}[{i}]") for i, b in enumerate(value)]


def _check_pi_angle(value, path) -> float:
    """An angle in multiples of pi that stays finite in radians."""
    value = _check_number(value, path)
    if not math.isfinite(value * PI):
        _fail(path, "must be finite in radians (times pi)")
    return value


def _check_angles(value, path) -> list:
    if not isinstance(value, list) or len(value) != 2:
        _fail(path, "expected [theta_over_pi, phi_over_pi]")
    return [_check_pi_angle(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _check_type(value, path, kind, what):
    if not isinstance(value, kind):
        _fail(path, f"expected {what}")
    return value


def _read_json(path: str):
    """The JSON document in the UTF-8 file ``path``; NaN and +-Infinity,
    which are not JSON, are rejected.  Every failure is reported under
    the file's path."""
    def reject(name):
        _fail(path, f"non-finite number {name} is not allowed")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except OSError as exc:
        _fail(path, f"cannot read: {exc}")
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        _fail(path, f"malformed JSON: {exc}")


def _check_matrix(raw, path, dim) -> np.ndarray:
    """A dim x dim complex matrix given as nested [re, im] pairs."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        _fail(path, "expected a nested array of [re, im] pairs")
    if arr.shape != (dim, dim, 2):
        _fail(path, f"expected shape {dim}x{dim}x2, got {arr.shape}")
    for i, j, k in np.ndindex(arr.shape):
        _check_number(raw[i][j][k], f"{path}[{i}][{j}][{k}]")
    return arr[..., 0] + 1j * arr[..., 1]


def _validate_axis(raw, path) -> list:
    """Three numbers, not all zero; ``GupModel`` checks and normalizes the norm."""
    if not isinstance(raw, list) or len(raw) != 3:
        _fail(path, "expected three numbers")
    m = [_check_number(x, f"{path}[{i}]") for i, x in enumerate(raw)]
    if not any(m):
        _fail(path, "axis must be non-zero")
    return m


def _csv_numbers(path: str, message: str):
    """argparse type for a comma-separated list of numbers."""
    def parse(text):
        try:
            return [float(x) for x in text.split(",")]
        except ValueError:
            _fail(path, message)
    return parse


_check_path = partial(_check_type, kind=str, what="a path string")

#: every config key, nested keys by dotted path -> (default, checker(value,
#: path) returning the value to store, argparse keywords of its flag or
#: None).  Keys are checked in this order, each just before its alias.  A
#: flag is named after its key, or its alias, with dashes for dots and
#: underscores ("--grid-steps" sets grid.steps, "--m" sets model.m), except
#: "--model", which sets model.rule; a flag value is checked as a file value is
_KEYS = {
    "scenario": ("qm", partial(_check_choice, choices=lab.SCENARIOS),
                 {"help": f"one of {', '.join(lab.SCENARIOS)}"}),
    "beta": (0.1, _check_beta, {"type": float}),
    "model.rule": ("tilt", partial(_check_choice, choices=gup.RULES),
                   {"help": f"one of {', '.join(gup.RULES)}"}),
    "model.m": (None, _validate_axis, {"type": _csv_numbers("m", "expected x,y,z numbers"),
                                       "help": "tilt axis as x,y,z"}),
    "model.jp": (None, partial(_check_matrix, dim=2), None),
    "settings.a": ([0.0, 0.0], _check_angles, None),
    "settings.a_prime": ([0.5, 0.0], _check_angles, None),
    "settings.b": ([0.25, 0.0], _check_angles, None),
    "settings.b_prime": ([-0.25, 0.0], _check_angles, None),
    "grid.min": (0.0, _check_pi_angle, None),
    "grid.max": (2.0, _check_pi_angle, None),
    "grid.steps": (201, partial(_check_int, minimum=2), {"type": int}),
    "betas": (list(lab.DEFAULT_SWEEP_BETAS), _check_betas, {
        "type": _csv_numbers("betas", "expected comma-separated numbers"),
        "help": "comma-separated beta list"}),
    "theta_steps": (lab.DEFAULT_SWEEP_POINTS, partial(_check_int, minimum=2), None),
    "shots": (1_000_000, partial(_check_int, minimum=1), {"type": int}),
    "seed": (42, partial(_check_int, minimum=0, maximum=SEED_MAX), {
        "type": int, "help": "shot stream seed of sample and audit; "
                             "no other command reads it"}),
    "noise_p": (0.0, partial(_check_number, minimum=0.0, maximum=1.0), {"type": float}),
    "k_sigma": (5.0, partial(_check_number, minimum=0.0), {"type": float}),
    "eight_angles": (False, partial(_check_type, kind=bool, what="a boolean"), None),
    "hp": (None, partial(_check_matrix, dim=4), None),
    "out": ("out", _check_path, {"help": "output directory"}),
    "baseline_estimate": (None, _check_path, None),
    "observed_estimate": (None, _check_path, None),
}

#: model key -> the top-level key that also sets it; a file's top-level
#: value is checked after, and wins over, its model section's
_ALIASES = {"model.m": "m", "model.jp": "jp"}

#: config objects whose keys are listed above as "<section>.<key>"
_SECTIONS = ("model", "grid", "settings")


def _flatten(doc, prefix="") -> dict:
    """Config document -> {dotted key path: value}; unknown keys fail."""
    if not isinstance(doc, dict):
        _fail(prefix[:-1] or "$", "expected an object")
    flat = {}
    for key, value in doc.items():
        path = prefix + key
        if path == "model" and isinstance(value, str):
            flat["model.rule"] = value
        elif path in _SECTIONS:
            flat.update(_flatten(value, path + "."))
        elif "." not in key and (path in _KEYS or path in _ALIASES.values()):
            flat[path] = value
        else:
            _fail(path, "unknown configuration key")
    return flat


def _apply(cfg: dict, values: dict):
    """Check and store the values of config keys and aliases in ``values``,
    ignoring other names."""
    for key, (_, check, _) in _KEYS.items():
        for path in (key, _ALIASES.get(key)):
            if path in values:
                cfg[key] = check(values[path], path)
    if cfg["grid.max"] <= cfg["grid.min"]:
        _fail("grid.max", "must exceed grid.min")
    if not math.isfinite(cfg["grid.max"] * PI - cfg["grid.min"] * PI):
        _fail("grid.max", "the span from grid.min must be finite in radians (times pi)")


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gupbell",
        description="CHSH laboratory with minimal-length corrections")
    parser.add_argument("command", choices=COMMANDS, help="; ".join(
        f"{name}: {text}" for name, (_, text) in _COMMANDS.items()))
    parser.add_argument("--config", help="JSON configuration file")
    for key, (_, _, flag) in _KEYS.items():
        if flag is not None:
            dest = _ALIASES.get(key, key)
            name = "--model" if key == "model.rule" else "--" + dest.replace(
                ".", "-").replace("_", "-")
            parser.add_argument(name, dest=dest, **flag)
    return parser


def parse_config(argv) -> dict:
    """The run's config key -> checked value, and its command under "command"."""
    args = vars(_build_arg_parser().parse_args(argv))
    cfg = {"command": args["command"], **{key: row[0] for key, row in _KEYS.items()}}
    if args["config"]:
        _apply(cfg, _flatten(_read_json(args["config"])))
    _apply(cfg, {key: value for key, value in args.items() if value is not None})
    return cfg


def _chsh_settings(cfg: dict) -> ChshSettings:
    return ChshSettings(*(Direction(theta * PI, phi * PI) for theta, phi in (
        cfg[f"settings.{name}"] for name in ("a", "a_prime", "b", "b_prime"))))


def _scenario_config(cfg: dict) -> ScenarioConfig:
    """The run's scenario with its model built and its hp checked, so an
    input the physics rejects exits 2 in every command and scenario."""
    for key, rule in (("m", "tilt"), ("jp", "custom")):
        if cfg[f"model.{key}"] is not None and cfg["model.rule"] != rule:
            _fail(key, f"applies to the {rule} rule only, not {cfg['model.rule']}")
    # a sweep builds a model at each beta in betas; the identity-part check
    # of a custom jp and the reach grow with beta, so check it at the largest
    key, beta = (("betas", max(cfg["betas"])) if cfg["command"] == "sweep"
                 else ("beta", cfg["beta"]))
    try:
        model = GupModel(beta=beta, rule=cfg["model.rule"], jp=cfg["model.jp"],
                         **({} if cfg["model.m"] is None else {"m": cfg["model.m"]}))
    except (HermiticityError, AmbiguousBranchError) as exc:
        _fail("jp", str(exc))
    except OutOfRangeError as exc:
        _fail(key, str(exc))
    except ValueError as exc:  # the tilt axis is not a unit vector
        _fail("m", str(exc))
    try:
        return ScenarioConfig(scenario=cfg["scenario"], model=model, hp=cfg["hp"])
    except (HermiticityError, OutOfRangeError) as exc:
        _fail("hp", str(exc))


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


def render_heatmap(grid: lab.ScanGrid, path) -> None:
    """Hand-emitted SVG: one rect per cell, the cells ``classify`` puts
    above classical outlined, axes in units of pi, and a color legend."""
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
    # linear blue -> white -> red map over [vmin, vmax]: colour k is
    # (k, k, 255) below the midpoint and 256 + k is (255, k, k) from it
    # on, k = 255 * (1 - |t|) rounded half to even like round; 512 on
    # adds the outline of a cell that classify puts above classical
    mid = 0.5 * (vmin + vmax)
    half = 0.5 * (vmax - vmin)
    t = np.clip((values - mid) / half, -1.0, 1.0)
    colors = np.round(255 * (1.0 - np.abs(t))).astype(np.int64) + 256 * (t >= 0)
    if not degenerate:
        colors += 512 * (values > CLASSICAL_BOUND + lab.CLASSIFY_TOL)
    hexes = [f"{k:02x}" for k in range(256)]
    fills = [color + '"' + stroke + "/>"
             for stroke in ("", ' stroke="#000" stroke-width="0.4"')
             for color in [h + h + "ff" for h in hexes] + ["ff" + h + h for h in hexes]]
    # cells go column by column (theta1), each from the bottom row up
    rows = [f'{_MARGIN_TOP + (n2 - 1 - j) * _CELL}" width="{_CELL}" '
            f'height="{_CELL}" fill="#' for j in range(n2)]
    for i, column in enumerate(colors):
        x = f'<rect x="{_MARGIN_LEFT + i * _CELL}" y="'
        parts += [x + row + fills[k] for row, k in zip(rows, column.tolist())]
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

def _run_scan(cfg: dict, scenario: ScenarioConfig, out: Path) -> float:
    grid = lab.grid_scan(scenario, resolution=cfg["grid.steps"],
                         theta_min=cfg["grid.min"] * PI,
                         theta_max=cfg["grid.max"] * PI)
    cells = [_fmt9(t2) + ",%.9g" for t2 in grid.theta2_axis]
    lines = ["theta1,theta2,S"]
    for t1, row in zip(grid.theta1_axis, grid.values.tolist()):
        # one template per theta1 for its lines; "%.9g" formats as _fmt9 does
        t1 = _fmt9(t1) + ","
        lines.append(t1 + ("\n" + t1).join(cells) % tuple(row))
    _write_text(out / "scan.csv", "\n".join(lines) + "\n")
    render_heatmap(grid, out / "scan.svg")
    return float(grid.values.max())


def _run_sweep(cfg: dict, scenario: ScenarioConfig, out: Path) -> float:
    theta_axis = np.linspace(0.0, 2.0 * PI, cfg["theta_steps"])
    model = scenario.model
    curves = lab.beta_sweep(cfg["betas"], theta_axis, rule=model.rule, m=model.m,
                            jp=model.jp, hp=scenario.hp)
    thetas = [_fmt9(theta) for theta in theta_axis]
    lines = ["beta,theta," + ",".join(f"S_{tag}" for tag in lab.SCENARIOS)]
    for curve in curves:
        # "%.9g" formats a float as _fmt9 does
        row = _fmt9(curve.beta) + ",%s" + ",%.9g" * len(lab.SCENARIOS)
        series = [curve.series[tag].tolist() for tag in lab.SCENARIOS]
        lines += [row % values for values in zip(thetas, *series)]
    _write_text(out / "sweep.csv", "\n".join(lines) + "\n")
    return max(float(curve.series[cfg["scenario"]].max()) for curve in curves)


def _run_optimize(cfg: dict, scenario: ScenarioConfig, out: Path) -> float:
    opt = lab.optimize_angles(scenario, eight_angles=cfg["eight_angles"])
    payload = {
        "value": opt.value,
        "evaluations": opt.evaluations,
        "converged": opt.converged,
        "method": opt.method,
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
    from . import shots
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


def _sample_estimate(cfg: dict, scenario: ScenarioConfig, noise_p: float,
                     seed: int) -> tuple[ChshEstimate, ShotPlan]:
    """Shots from the scenario's own state and (corrected) observables."""
    from . import shots
    plan = shots.ShotPlan(shots_per_pair=cfg["shots"], seed=seed, noise_p=noise_p)
    settings = _chsh_settings(cfg)
    state = scenario.sampled_state()
    model = scenario.operator_model()
    observables = [gup.gup_correct_observable(d, model).j_gup
                   for d in (settings.a, settings.a_prime, settings.b, settings.b_prime)]
    return shots.estimate_chsh(state, settings, plan, observables), plan


def _run_sample(cfg: dict, scenario: ScenarioConfig, out: Path) -> float:
    est, plan = _sample_estimate(cfg, scenario, cfg["noise_p"], cfg["seed"])
    _write_json(out / "sample.json", _estimate_payload(est, plan))
    return est.s_hat


#: how far a stored s_hat, stderr or correlator may be from its value from the counts
DERIVED_TOL = 1e-12


def _load_estimate(path: str) -> ChshEstimate:
    """The estimate derived from a file's counts; the file's own ``s_hat``,
    ``stderr`` and ``correlators`` must agree with it."""
    from . import shots
    doc = _read_json(path)
    try:
        for k in sorted(doc["counts"].keys() - set(shots.PAIR_LABELS)):
            _fail(f"{path}: counts.{k}", f"counts must hold the pairs {shots.PAIR_LABELS}")
        table = shots.CountsTable(
            counts={k: np.asarray([_check_int(c, f"{path}: counts.{k}[{i}]",
                                              maximum=COUNT_MAX)
                                   for i, c in enumerate(doc["counts"][k])],
                                  dtype=np.int64)
                    for k in shots.PAIR_LABELS},
            shots_per_pair=_check_int(doc["shots_per_pair"], f"{path}: shots_per_pair",
                                      minimum=1))
        stored = {"s_hat": doc["s_hat"], "stderr": doc["stderr"],
                  **{f"correlators.{k}": v for k, v in doc["correlators"].items()}}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        _fail(path, f"not a valid estimate document: {exc}")
    estimate = shots.estimate_from_counts(table)
    derived = {"s_hat": estimate.s_hat, "stderr": estimate.stderr,
               **{f"correlators.{k}": v for k, v in estimate.correlators.items()}}
    for key in [*derived, *sorted(stored.keys() - derived.keys())]:
        if key not in stored or key not in derived:
            _fail(f"{path}: {key}", f"correlators must hold the pairs {shots.PAIR_LABELS}")
        if abs(_check_number(stored[key], f"{path}: {key}") - derived[key]) > DERIVED_TOL:
            _fail(f"{path}: {key}", f"{stored[key]!r} differs from {derived[key]!r}, "
                  "its value from the counts")
    return estimate


def _run_audit(cfg: dict, scenario: ScenarioConfig, out: Path) -> float:
    from . import security
    if cfg["baseline_estimate"]:
        baseline = _load_estimate(cfg["baseline_estimate"])
    else:
        baseline, _ = _sample_estimate(cfg, scenario, 0.0, cfg["seed"])
    if cfg["observed_estimate"]:
        observed = _load_estimate(cfg["observed_estimate"])
    else:
        observed, _ = _sample_estimate(cfg, scenario, cfg["noise_p"], cfg["seed"] + 1)
    report = security.build_report(baseline, observed, cfg["k_sigma"])
    _write_json(out / "audit.json", asdict(report))
    return report.s_observed


#: command -> (runner writing its artifacts and returning the summary S, help)
_COMMANDS = {
    "scan": (_run_scan, "two-angle grid scan with CSV and SVG heatmap output"),
    "sweep": (_run_sweep, "beta sweep over a one-parameter settings family"),
    "optimize": (_run_optimize, "find the measurement angles with the maximal S"),
    "sample": (_run_sample, "finite-shot Monte Carlo CHSH estimate"),
    "audit": (_run_audit, "device-independent security report"),
}
COMMANDS = tuple(_COMMANDS)


def execute(cfg: dict) -> float:
    """Run the configured command, write artifacts, return the summary S."""
    scenario = _scenario_config(cfg)
    return _COMMANDS[cfg["command"]][0](cfg, scenario, Path(cfg["out"]))


def _print_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():  # restores the warning printer on return
        warnings.showwarning = _print_warning
        try:
            cfg = parse_config(sys.argv[1:] if argv is None else argv)
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
        except MemoryError as exc:
            print(f"evaluation error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return 4
        except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it
            print("interrupted", file=sys.stderr)
            return 130
    print(f"{cfg['command']} S={_fmt9(value)} region={classify(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
