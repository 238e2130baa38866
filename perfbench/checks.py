"""Output oracles: every operation's result is checked here.

Each function returns a list of failure messages; an empty list means the
output passed.  Failures are counted by the caller and never abort a run.

Two defects of the program are known (see ``KNOWN_DEFECTS``).  A failure is
tagged with one of them only when the output matches that defect's own
signature; every such failure still counts as a check failure, but only
untagged ones make a run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
import programs
from gupbell import lab
from oracle import Model, Scenario

PAIRS = ("ab", "abp", "apb", "apbp")
SIGNS = (1.0, 1.0, 1.0, -1.0)
SETTING_NAMES = ("a", "a_prime", "b", "b_prime")
K_SIGMA = 5.0
#: exact-value tolerance for in-process float results
TOL_QM = 1e-12
TOL_ORACLE = 1e-9
#: optimizer against the Horodecki maximum where the formula is exact
TOL_OPT = 1e-6
#: shots checked bit for bit against the reference kernel, per pair
KERNEL_PREFIX = 2048
KERNEL_WINDOW = 1024

#: tag -> what the program does wrong; the signature checks are below
KNOWN_DEFECTS = {
    "s3-samples-bell-state":
        "CLI sample/audit --scenario s3 sample the Bell state with the corrected "
        "observables, i.e. the s1 value, instead of the corrected state",
    "eight-angle-stops-short":
        "eight-angle optimize_angles returns a point whose value is its own S "
        "and within the Horodecki bound, but below the maximum",
}


def _known(tag: str) -> str:
    assert tag in KNOWN_DEFECTS
    return f"[known:{tag}] "


def known_defects(fails: list) -> set:
    """The known-defect tags of an operation whose failures are all tagged;
    empty when it passed or has an unexpected failure."""
    tags = {f[len("[known:"):f.index("]")] for f in fails if f.startswith("[known:")}
    return tags if fails and all(f.startswith("[known:") for f in fails) else set()


def _printed_tol(ref) -> np.ndarray:
    """Half a unit in the ninth significant digit, the CLI's print precision."""
    return 1e-11 + 5e-9 * np.maximum(1.0, np.abs(ref))


def _tol(ref, printed: bool, exact_tol: float):
    return _printed_tol(ref) if printed else exact_tol


def _compare(name: str, got, ref, tol) -> list:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != {ref.shape}"]
    err = np.abs(got - ref) - tol
    if not np.all(err <= 0):
        worst = int(np.argmax(err))
        return [f"{name}: |got - ref| exceeds tolerance by {err.flat[worst]:.3g} "
                f"(got {got.flat[worst]!r}, ref {ref.flat[worst]!r})"]
    return []


def scenario_of(spec: dict, scenario: str | None = None, beta: float | None = None) -> Scenario:
    model = Model(**spec["model"])
    if beta is not None:
        model.beta = float(beta)
    return Scenario(scenario or spec["scenario"], model, spec["hp"])


def directions(settings_pi: dict) -> list:
    return [oracle.unit(settings_pi[k][0] * math.pi, settings_pi[k][1] * math.pi)
            for k in SETTING_NAMES]


# --- landscape ---------------------------------------------------------------

def check_scan(spec: dict, axis1, axis2, values, printed: bool = False) -> list:
    axis = np.linspace(0.0, 2.0 * math.pi, spec["grid_steps"])
    fails = _compare("scan theta1 axis", axis1, axis, _tol(axis, printed, 0.0))
    fails += _compare("scan theta2 axis", axis2, axis, _tol(axis, printed, 0.0))
    sc = scenario_of(spec)
    if spec["scenario"] == "qm":
        ref = oracle.qm_scan(axis, axis)
        fails += _compare("qm scan vs closed form", values, ref, _tol(ref, printed, TOL_QM))
    else:
        ref = sc.scan(axis, axis)
        fails += _compare(f"{spec['scenario']} scan vs T-oracle", values, ref,
                          _tol(ref, printed, TOL_ORACLE))
    top = float(np.max(values))
    bound = sc.horodecki() + _tol(top, printed, TOL_ORACLE)
    if top > bound:
        fails.append(f"scan max {top!r} exceeds Horodecki bound {bound!r}")
    return fails


def check_sweep(spec: dict, betas, theta_axis, series_by_beta, printed: bool = False) -> list:
    """``series_by_beta`` holds one {tag: values} dict per beta."""
    theta = np.linspace(0.0, 2.0 * math.pi, spec["theta_steps"])
    fails = _compare("sweep betas", betas, spec["betas"],
                     _tol(np.asarray(spec["betas"]), printed, 0.0))
    fails += _compare("sweep theta axis", theta_axis, theta, _tol(theta, printed, 0.0))
    if fails:
        return fails
    for beta, series in zip(spec["betas"], series_by_beta):
        for tag in ("qm", "s1", "s2", "s3"):
            if tag == "qm":
                ref = oracle.qm_sweep(theta)
                fails += _compare(f"qm sweep vs closed form (beta={beta:.6g})",
                                  series[tag], ref, _tol(ref, printed, TOL_QM))
            else:
                ref = scenario_of(spec, tag, beta).sweep(theta)
                fails += _compare(f"{tag} sweep vs T-oracle (beta={beta:.6g})",
                                  series[tag], ref, _tol(ref, printed, TOL_ORACLE))
    return fails


def check_optimum(spec: dict, value: float, dirs: list, evaluations: int) -> list:
    fails = []
    sc = scenario_of(spec)
    at_settings = sc.chsh(*dirs)
    if abs(at_settings - value) > TOL_ORACLE:
        fails.append(f"optimum {value!r} != S at its settings {at_settings!r}")
    horodecki = sc.horodecki()
    if value > horodecki + TOL_ORACLE:
        fails.append(f"optimum {value!r} above Horodecki maximum {horodecki!r}")
    # a planar search reaches every in-plane w only if the shift is in-plane
    exact = horodecki if spec["eight_angles"] else (
        sc.horodecki(planar_only=True) if sc.shift[1] == 0.0 else None)
    short = spec["eight_angles"] and not fails and value < horodecki - TOL_OPT
    tag = _known("eight-angle-stops-short") if short else ""
    if exact is not None and abs(value - exact) > TOL_OPT:
        kind = "eight-angle" if spec["eight_angles"] else "planar"
        fails.append(f"{tag}{kind} optimum {value!r} misses the exact maximum {exact!r}")
    unperturbed = spec["scenario"] == "qm" or (
        spec["model"]["rule"] == "self-cubic" and (spec["scenario"] == "s1" or spec["hp"] is None))
    if unperturbed and abs(value - oracle.TSIRELSON) > TOL_OPT:
        tag = tag if short and abs(horodecki - oracle.TSIRELSON) <= TOL_OPT else ""
        fails.append(f"{tag}optimum {value!r} is not 2*sqrt(2)")
    if evaluations < 1:
        fails.append("optimizer reports no evaluations")
    return fails


# --- shots -------------------------------------------------------------------

def exact_chsh(spec: dict) -> tuple[float, np.ndarray, list]:
    """(1-p)-free exact S from lab.evaluate_point, the T-oracle correlators,
    and any disagreement between the two."""
    value = lab.evaluate_point(programs.scenario_config(spec),
                               programs.chsh_settings(spec)).value
    e = scenario_of(spec).correlators(*directions(spec["settings"]))
    ref = float(e[0] + e[1] + e[2] - e[3])
    fails = []
    if abs(value - ref) > TOL_ORACLE:
        fails.append(f"evaluate_point {value!r} != T-oracle {ref!r}")
    return value, e, fails


def _samples_bell_state(spec: dict, s_hat: float, noise_p: float) -> bool:
    """Whether an s3 estimate matches the known CLI defect: within 5 sigma
    of (1-p) times the Bell-state value with the corrected observables."""
    if spec["scenario"] != "s3":
        return False
    e = scenario_of(spec, "s1").correlators(*directions(spec["settings"]))
    target = (1.0 - noise_p) * float(e[0] + e[1] + e[2] - e[3])
    return abs(s_hat - target) <= K_SIGMA * oracle.shot_sigma(e, noise_p, spec["shots"])


def _off_exact(spec: dict, label: str, s_hat: float, exact: float, corr, noise_p: float,
               cli: bool) -> list:
    """The 5-sigma check of one estimate against (1-p) * exact."""
    sigma = oracle.shot_sigma(corr, noise_p, spec["shots"])
    target = (1.0 - noise_p) * exact
    if abs(s_hat - target) <= K_SIGMA * sigma:
        return []
    tag = _known("s3-samples-bell-state") if cli and _samples_bell_state(
        spec, s_hat, noise_p) else ""
    return [f"{tag}{label} {s_hat:.6f} is {abs(s_hat - target) / sigma:.1f} sigma "
            f"from (1-p)*exact {target:.6f}"]


def check_estimate(spec: dict, est: dict, exact: float, corr, noise_p: float,
                   label: str = "estimate", cli: bool = False) -> list:
    """``est`` has the keys of sample.json: s_hat, stderr, correlators, counts.
    ``cli``: the estimate comes from the CLI, which has a known s3 defect."""
    fails = []
    n = spec["shots"]
    e_hat = []
    for pair in PAIRS:
        row = np.asarray(est["counts"][pair], dtype=np.int64)
        if row.shape != (4,) or row.min() < 0 or int(row.sum()) != n:
            fails.append(f"{label}: counts of {pair} do not sum to {n}")
            return fails
        e_hat.append(float(row[0] - row[1] - row[2] + row[3]) / n)
    fails += _compare(f"{label} correlators vs counts",
                      [est["correlators"][p] for p in PAIRS], e_hat, TOL_QM)
    s_counts = sum(s * e for s, e in zip(SIGNS, e_hat))
    fails += _compare(f"{label} s_hat vs counts", est["s_hat"], s_counts, TOL_QM)
    stderr = math.sqrt(sum(max(0.0, 1.0 - e * e) for e in e_hat) / n)
    fails += _compare(f"{label} stderr", est["stderr"], stderr, 1e-9 * stderr)
    return fails + _off_exact(spec, f"{label} s_hat", est["s_hat"], exact, corr,
                              noise_p, cli)


def check_report(report: dict, k_sigma: float = K_SIGMA) -> list:
    fails = []
    s = report["s_observed"]
    fails += _compare("report margin", report["margin"], s - 2.0, TOL_QM)
    if s <= 2.0:
        bits, beyond = 0.0, False
    elif s > oracle.TSIRELSON:
        bits, beyond = 1.0, True
    else:
        bits = -math.log2(0.5 + 0.5 * math.sqrt(max(0.0, 2.0 - s * s / 4.0)))
        beyond = False
    fails += _compare("report min-entropy", report["minentropy_bits"], bits, 1e-12)
    if report["beyond_quantum"] != beyond:
        fails.append("report beyond_quantum flag inconsistent with S")
    if report["alarm"] != (report["alarm_sigma"] > k_sigma):
        fails.append("report alarm inconsistent with alarm_sigma")
    return fails


def check_kernel(spec: dict, cumulative_by_pair, sample_counts) -> list:
    """kernels.sample_counts against the splitmix64 reference on a prefix and
    on one seeded window of each pair's stream."""
    fails = []
    n = spec["shots"]
    offset = spec["seed"] % (n - KERNEL_WINDOW)
    for j, cumulative in enumerate(cumulative_by_pair):
        for start, length in ((0, KERNEL_PREFIX), (offset, KERNEL_WINDOW)):
            base = j * n + start
            got = [int(c) for c in sample_counts(spec["seed"], base, length, cumulative)]
            ref = oracle.reference_counts(spec["seed"], base, length, cumulative)
            if got != ref:
                fails.append(f"kernel counts {got} != splitmix64 reference {ref} "
                             f"(pair {PAIRS[j]}, base {base}, n {length})")
    return fails


# --- CLI artifacts -----------------------------------------------------------

def _read_csv(path: Path) -> tuple[list, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_cli(spec: dict, out: Path, stdout: str) -> list:
    kind = spec["kind"]
    if not stdout.startswith(f"{kind} S="):
        return [f"unexpected summary line {stdout.strip()[:80]!r}"]
    try:
        return _CLI_CHECKS[kind](spec, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {kind} artifact: {type(exc).__name__}: {exc}"]


def _cli_scan(spec, out):
    header, rows = _read_csv(out / "scan.csv")
    n = spec["grid_steps"]
    if header != ["theta1", "theta2", "S"] or rows.shape != (n * n, 3):
        return [f"scan.csv header {header} / shape {rows.shape} unexpected"]
    fails = check_scan(spec, rows[::n, 0], rows[:n, 1], rows[:, 2].reshape(n, n),
                       printed=True)
    svg = (out / "scan.svg").read_text()
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        fails.append("scan.svg is not a complete SVG document")
    if svg.count("<rect ") != n * n + 2:
        fails.append(f"scan.svg has {svg.count('<rect ')} rects, expected {n * n + 2}")
    return fails


def _cli_sweep(spec, out):
    header, rows = _read_csv(out / "sweep.csv")
    k, nb = spec["theta_steps"], len(spec["betas"])
    if header != ["beta", "theta", "S_qm", "S_s1", "S_s2", "S_s3"] or rows.shape != (nb * k, 6):
        return [f"sweep.csv header {header} / shape {rows.shape} unexpected"]
    series = [{tag: rows[b * k:(b + 1) * k, 2 + i]
               for i, tag in enumerate(("qm", "s1", "s2", "s3"))} for b in range(nb)]
    return check_sweep(spec, rows[::k, 0], rows[:k, 1], series, printed=True)


def _cli_optimize(spec, out):
    doc = json.loads((out / "optimum.json").read_text())
    dirs = [oracle.unit(doc["settings"][k]["theta"], doc["settings"][k]["phi"])
            for k in SETTING_NAMES]
    return check_optimum(spec, doc["value"], dirs, doc["evaluations"])


def _cli_sample(spec, out):
    doc = json.loads((out / "sample.json").read_text())
    exact, corr, fails = exact_chsh(spec)
    if doc["shots_per_pair"] != spec["shots"] or doc["seed"] != spec["seed"]:
        fails.append("sample.json echoes the wrong shots or seed")
    return fails + check_estimate(spec, doc, exact, corr, spec["noise_p"], "sample", cli=True)


def _cli_audit(spec, out):
    doc = json.loads((out / "audit.json").read_text())
    exact, corr, fails = exact_chsh(spec)
    for key, p in (("s_baseline", 0.0), ("s_observed", spec["noise_p"])):
        fails += _off_exact(spec, f"audit {key}", doc[key], exact, corr, p, cli=True)
    return fails + check_report(doc)


_CLI_CHECKS = {"scan": _cli_scan, "sweep": _cli_sweep, "optimize": _cli_optimize,
               "sample": _cli_sample, "audit": _cli_audit}
