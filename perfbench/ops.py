"""One operation of each workload: run it, time it, check it, digest it.

Each runner returns a record: id, kind, latency (seconds of the program
call alone), and either ``error`` or ``fails`` (oracle failures) plus
``digests`` of the artifacts or results.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import time
from dataclasses import asdict
from pathlib import Path

import checks
import oracle
import programs
import tracing
from gupbell import kernels, security

HERE = Path(__file__).resolve().parent
now = time.perf_counter_ns


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(spec: dict) -> str:
    def plain(x):
        if hasattr(x, "tolist"):
            x = x.tolist()
        if isinstance(x, complex):
            return [x.real, x.imag]
        if isinstance(x, (list, tuple)):
            return [plain(v) for v in x]
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x
    return json.dumps(plain(spec), sort_keys=True)


def run_cli_op(bench, spec: dict, tracer) -> dict:
    opdir = bench.work / f"op-{spec['id']}"
    opdir.mkdir(parents=True)
    doc = programs.cli_config(spec, "out")
    (opdir / "config.json").write_text(json.dumps(doc, sort_keys=True))
    args = ["-m", "gupbell.cli"]
    if tracer is not None:
        args = [str(HERE / "traced_cli.py"), str(opdir / "spans.json"), str(spec["id"])]
        tracer.op = spec["id"]
        index = tracer.begin("op")
    t0 = now()
    try:
        proc = bench.child([*args, spec["kind"], "--config", "config.json"], cwd=opdir)
    except subprocess.TimeoutExpired:
        proc = None
    latency = (now() - t0) / 1e9
    if tracer is not None:
        tracer.end(index)
        tracer.op = None
        if (opdir / "spans.json").exists():
            tracing.merge(tracer, json.loads((opdir / "spans.json").read_text()), index)
    rec = {"id": spec["id"], "kind": spec["kind"], "latency": latency,
           "config_sha256": _sha(json.dumps(doc, sort_keys=True).encode()),
           "shots": _cli_shots(spec)}
    if proc is None or proc.returncode != 0:
        rec["error"] = ("timeout" if proc is None
                        else f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    else:
        out = opdir / "out"
        files = sorted(out.iterdir()) if out.is_dir() else []
        rec["digests"] = {p.name: _sha(p.read_bytes()) for p in files}
        rec["bytes"] = sum(p.stat().st_size for p in files)
        rec["fails"] = checks.check_cli(spec, out, proc.stdout)
    shutil.rmtree(opdir)
    return rec


def _cli_shots(spec: dict) -> int:
    per_estimate = 4 * spec.get("shots", 0)
    return {"sample": per_estimate, "audit": 2 * per_estimate}.get(spec["kind"], 0)


def _inprocess(spec: dict, call, tracer) -> tuple:
    """Run ``call`` as one operation; returns (result, error, latency)."""
    if tracer is not None:
        tracer.op = spec["id"]
        index = tracer.begin("op")
    t0 = now()
    try:
        result, error = call(), None
    except Exception as exc:  # one failing operation must not end the run
        result, error = None, f"{type(exc).__name__}: {exc}"
    latency = (now() - t0) / 1e9
    if tracer is not None:
        tracer.end(index)
        tracer.op = None
    return result, error, latency


def run_landscape_op(spec: dict, tracer) -> dict:
    result, error, latency = _inprocess(spec, programs.landscape_call(spec), tracer)
    rec = {"id": spec["id"], "kind": spec["kind"], "latency": latency,
           "config_sha256": _sha(_canonical(spec).encode()), "shots": 0}
    if error:
        rec["error"] = error
        return rec
    kind = spec["kind"]
    if kind == "scan":
        rec["fails"] = checks.check_scan(spec, result.theta1_axis, result.theta2_axis,
                                         result.values)
        blob = result.values.tobytes() + result.theta1_axis.tobytes()
    elif kind == "sweep":
        rec["fails"] = checks.check_sweep(spec, [c.beta for c in result],
                                          result[0].theta_axis,
                                          [c.series for c in result])
        blob = b"".join(repr(c.beta).encode() + b"".join(c.series[t].tobytes()
                        for t in sorted(c.series)) for c in result)
    else:
        s = result.settings
        dirs = [oracle.unit(d.theta, d.phi) for d in (s.a, s.a_prime, s.b, s.b_prime)]
        rec["fails"] = checks.check_optimum(spec, result.value, dirs, result.evaluations)
        blob = repr((result.value, result.evaluations, result.converged,
                     [(d.theta, d.phi) for d in (s.a, s.a_prime, s.b, s.b_prime)])).encode()
    rec["digests"] = {"result": _sha(blob)}
    return rec


class ShotsState:
    """The previous estimate, paired with the next into a security report."""

    def __init__(self):
        self.previous = None


def run_shots_op(spec: dict, tracer, state: ShotsState) -> dict:
    estimate_call = programs.shots_call(spec)
    previous = state.previous
    timings = {}

    def call():
        t0 = now()
        est = estimate_call()
        t1 = now()
        report = security.build_report(previous, est) if previous is not None else None
        timings.update(sample=(t1 - t0) / 1e9, audit=(now() - t1) / 1e9)
        return est, report

    result, error, latency = _inprocess(spec, call, tracer)
    rec = {"id": spec["id"], "kind": spec["kind"], "latency": latency,
           "config_sha256": _sha(_canonical(spec).encode()), "shots": 4 * spec["shots"]}
    if error:
        rec["error"] = error
        state.previous = None
        return rec
    est, report = result
    rec["sample_s"] = timings["sample"]
    doc = programs.estimate_doc(est)
    exact, corr, fails = checks.exact_chsh(spec)
    fails += checks.check_estimate(spec, doc, exact, corr, spec["noise_p"])
    fails += checks.check_kernel(spec, programs.cumulative_thresholds(spec),
                                 kernels.sample_counts)
    if report is not None:
        rec["audit_s"] = timings["audit"]
        fails += checks.check_report(asdict(report))
        state.previous = None
    else:
        state.previous = est
    rec["fails"] = fails
    rec["digests"] = {"estimate": _sha(json.dumps(doc, sort_keys=True).encode())}
    return rec


def make_runner(bench):
    """A callable (spec, tracer) -> record for the bench's workload."""
    if bench.workload == "cli-artifacts":
        return lambda spec, tracer: run_cli_op(bench, spec, tracer)
    if bench.workload == "landscape":
        return run_landscape_op
    state = ShotsState()
    return lambda spec, tracer: run_shots_op(spec, tracer, state)
