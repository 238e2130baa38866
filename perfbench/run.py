"""Layered benchmark of gupbell: CLI artifacts, landscape numerics, shots.

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 perfbench/run.py --workload cli-artifacts --seed 1 --seconds 45 --trace 0

Each workload is a closed loop with one client and one operation in flight;
every input is drawn from ``--seed``.  Every operation's output is checked
by an oracle (``checks.py``), and a seeded subset of operations is re-run
to confirm byte-identical results.  With ``--trace 0`` the last stdout line
is a JSON object with the end-to-end metrics; with ``--trace 1`` the run
measures half its time untraced and half traced, and the last line carries
the per-layer metrics.  End-to-end timings are scaled to the nominal speed of
a host-speed reference timed in the same run (``Reference``).  Full results, the environment record, artifact
digests and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("cli-artifacts", "landscape", "shots")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
#: how many completed operations are re-run for the byte-determinism check
RERUNS = {"cli-artifacts": 2, "landscape": 8, "shots": 3}
CHILD_TIMEOUT = 60

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "import.gupbell_cli_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
    "cli.parse_config_s": "s", "cli.render_heatmap_s": "s",
    "cli.execute_self_s": "s", "cli.artifact_bytes": "bytes",
    "lab.grid_scan_s": "s", "lab.beta_sweep_s": "s", "lab.optimize_angles_s": "s",
    "lab.batch_evaluator_build_s": "s", "lab.evaluations": "count",
    "gup.perturb_state_calls": "count", "gup.gup_correct_observable_calls": "count",
    "tensor.eig_hermitian_calls": "count",
    "shots.estimate_chsh_s": "s", "shots.joint_probabilities_s": "s",
    "kernels.sample_counts_s": "s", "kernels.shots": "count",
    "kernels.ns_per_shot": "ns", "kernels.bytes_computed": "B/shot",
    "security.build_report_s": "s", "trace.overhead_ratio": "ratio",
}
#: bytes of array results the numpy kernel's expressions produce per shot,
#: computed from their dtypes: 13 uint64 stages of the splitmix64 mix, the
#: float64 conversion and scaling, and three (bool compare, int64 cast)
#: pairs for the outcome index.  A computed figure, not a measurement.
KERNEL_ARRAYS = (("uint64", 13), ("float64", 2), ("bool", 3), ("int64", 3))
#: nominal seconds of each host-speed reference (about their median on a
#: calm 2-CPU x86-64 host); gated timings are reported at this speed
REF_NOMINAL = {"process": 0.16, "numpy": 0.04}
#: seconds between reference measurements in the timed loop
REF_INTERVAL = 0.5

now = time.perf_counter_ns


class Bench:
    """Paths and child-process environment of one run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.out = root / ".perfbench"
        self.work = self.out / f"work-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.python = sys.executable

    def child(self, args, cwd=None) -> subprocess.CompletedProcess:
        return subprocess.run([self.python, *args], cwd=cwd or self.root, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)


# --- host-speed reference ----------------------------------------------------

def _numpy_reference():
    import numpy as np
    a = np.random.default_rng(0).normal(size=200_000)
    for _ in range(5):
        b = np.cos(a) * a + np.sqrt(np.abs(a))
        b.sort()


class Reference:
    """A fixed computation that does not touch gupbell, timed between
    operations: a fresh ``import numpy`` process ("process", for timings of
    fresh processes) or vectorised numpy work in process ("numpy").  The
    host's speed drifts by tens of percent over minutes; scaling a run's
    timings by nominal / measured reference time removes most of that drift
    and none of a change in gupbell."""

    def __init__(self, bench: Bench, kind: str):
        self.bench = bench
        self.kind = kind
        self.samples = []
        self.last = None

    def measure(self):
        t0 = now()
        if self.kind == "process":
            proc = self.bench.child(["-c", "import numpy"])
            if proc.returncode != 0:
                raise RuntimeError(f"import numpy failed: {proc.stderr.strip()[-400:]}")
        else:
            _numpy_reference()
        self.last = now()
        self.samples.append((self.last - t0) / 1e9)

    def measure_if_due(self):
        if self.last is None or now() - self.last >= REF_INTERVAL * 1e9:
            self.measure()

    def scale(self) -> float:
        return REF_NOMINAL[self.kind] / statistics.median(self.samples)

    def record(self) -> dict:
        return {"kind": self.kind, "nominal_s": REF_NOMINAL[self.kind],
                "median_s": statistics.median(self.samples), "n": len(self.samples),
                "scale": self.scale()}


# --- set-up and import layer ------------------------------------------------

def measure_setup(bench: Bench, repeats: int, ref: Reference | None = None) -> list:
    """Wall times of fresh ``import gupbell.cli`` processes (after one
    untimed import that fills the bytecode cache), each after a reference
    measurement when ``ref`` is given."""
    times = []
    for i in range(repeats + 1):
        if ref is not None:
            ref.measure()
        t0 = now()
        proc = bench.child(["-c", "import gupbell.cli"])
        elapsed = (now() - t0) / 1e9
        if proc.returncode != 0:
            raise RuntimeError(f"import gupbell.cli failed: {proc.stderr.strip()[-400:]}")
        if i:
            times.append(elapsed)
    return times


def import_layers(bench: Bench) -> dict:
    """Cumulative import times of gupbell, scipy and numpy from -X importtime,
    medians over several fresh processes.  Each family's time is the sum of
    its outermost entries, so nested imports are not counted twice."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        proc = bench.child(["-X", "importtime", "-c", "import gupbell.cli"])
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
        totals = defaultdict(int)
        stack = []
        for level, name, cumulative in reversed(entries):
            while stack and stack[-1][0] >= level:
                stack.pop()
            family = name.split(".")[0]
            if all(a.split(".")[0] != family for _, a in stack):
                totals[family] += cumulative
            stack.append((level, name))
        for family, key in (("gupbell", "import.gupbell_cli_s"), ("scipy", "import.scipy_s"),
                            ("numpy", "import.numpy_s")):
            samples[key].append(totals[family] / 1e6)
    return {key: statistics.median(v) for key, v in samples.items()}


def run_loop(bench: Bench, seconds: float, tracer, ref: Reference | None = None) -> list:
    """Closed loop: next operation only after the previous one is checked;
    the reference, if any, is measured between operations."""
    from gen import Generator
    from ops import make_runner
    gen = Generator(bench.workload, bench.seed)
    runner = make_runner(bench)
    records = []
    deadline = now() + seconds * 1e9
    while now() < deadline:
        if ref is not None:
            ref.measure_if_due()
        records.append(runner(gen.next(), tracer))
    return records


def warm_up(bench: Bench):
    """One untimed round of every operation kind, so lazy initialisation in
    numpy and scipy is not charged to the first timed operation.  CLI
    operations start fresh processes, which the set-up imports warmed."""
    from gen import KINDS, Generator
    from ops import make_runner
    if bench.workload == "cli-artifacts":
        return
    gen = Generator(bench.workload, bench.seed)
    runner = make_runner(bench)
    for _ in KINDS[bench.workload]:
        runner(gen.next(), None)


def rerun_subset(bench: Bench, records: list) -> int:
    """Re-run a seeded subset of completed operations and compare digests."""
    import numpy as np
    from gen import Generator
    from ops import make_runner
    done = [r for r in records if "digests" in r]
    rng = np.random.default_rng([bench.seed, 7])
    count = min(RERUNS[bench.workload], len(done))
    picked = {int(i) for i in rng.choice(len(done), size=count, replace=False)}
    targets = {done[i]["id"] for i in picked}
    if not targets:
        return 0
    gen = Generator(bench.workload, bench.seed)
    runner = make_runner(bench)
    by_id = {r["id"]: r for r in records}
    last = max(targets)
    mismatches = 0
    for _ in range(last + 1):
        spec = gen.next()
        if spec["id"] not in targets:
            continue
        again = runner(spec, None)
        if again.get("digests") != by_id[spec["id"]]["digests"]:
            mismatches += 1
            by_id[spec["id"]].setdefault("fails", []).append(
                f"re-run digests differ: {again.get('digests')} vs {by_id[spec['id']]['digests']}")
    return mismatches


# --- statistics -----------------------------------------------------------------

def latency_stats(values: list) -> dict:
    """Median and the highest nearest-rank percentile with at least ten
    samples, and at least a tenth of all samples, above it: p90 from 110
    samples on, so the tail of a long run is not set by its ten slowest
    operations (the maximum when there are fewer than eleven)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return {"n": 0}
    k = n - 1 - max(10, n // 10) if n >= 11 else n - 1
    return {"n": n, "p50": statistics.median(xs), "tail": xs[k],
            "tail_percentile": 100.0 * (k + 1) / n}


def end_to_end(bench: Bench, records: list, setup: list, setup_ref: Reference,
               run_ref: Reference) -> dict:
    """Gated metrics with every timing scaled to the references' nominal
    speed; the unscaled values are kept in ``extra["raw"]``."""
    ok = [r for r in records if "error" not in r]
    lat = [r["latency"] for r in ok]
    busy = sum(lat)
    stats = latency_stats(lat)
    raw = {
        "setup_s": statistics.median(setup),
        "op_s_p50": stats.get("p50", 0.0),
        "op_s_tail": stats.get("tail", 0.0),
        "ops_per_s": len(ok) / busy if busy else 0.0,
    }
    scale, setup_scale = run_ref.scale(), setup_ref.scale()
    metrics = {
        "setup_s": raw["setup_s"] * setup_scale,
        "op_s_p50": raw["op_s_p50"] * scale,
        "op_s_tail": raw["op_s_tail"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "peak_rss_mb": _peak_rss_mb(bench),
    }
    extra = {"latency": stats, "setup_samples": setup, "raw": raw,
             "reference": {"setup": setup_ref.record(), "run": run_ref.record()}}
    kinds = defaultdict(list)
    for r in ok:
        if bench.workload == "shots":
            kinds["sample"].append(r["sample_s"])
            if "audit_s" in r:
                kinds["audit"].append(r["audit_s"])
        else:
            kinds[r["kind"]].append(r["latency"])
    for kind, values in sorted(kinds.items()):
        extra[f"{kind}_s_p50"] = statistics.median(values) * scale
        extra[f"{kind}_samples"] = len(values)
    if bench.workload == "shots":
        extra["shots_per_s"] = sum(r["shots"] for r in ok) / busy / scale if busy else 0.0
    attempted = len(records)
    extra["failed_ratio"] = (attempted - len(ok)) / attempted
    extra["check_fail_ratio"] = sum(1 for r in records if r.get("fails")) / attempted
    extra["known_defect_ratio"] = sum(1 for r in records if _known(r)) / attempted
    return metrics, extra


def _known(record: dict) -> set:
    import checks
    return checks.known_defects(record.get("fails") or [])


def _peak_rss_mb(bench: Bench) -> float:
    who = resource.RUSAGE_CHILDREN if bench.workload == "cli-artifacts" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(bench: Bench, tracer, traced: list, untraced: list, imports: dict) -> tuple:
    import numpy as np
    import tracing
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    dur = defaultdict(list)
    self_by = defaultdict(float)
    self_of = defaultdict(list)
    for span, own in zip(spans, selfs):
        dur[span[0]].append((span[2] - span[1]) / 1e9)
        self_by[span[0]] += own
        self_of[span[0]].append(own)
    counts = defaultdict(int)
    for key, value in tracer.counts.items():
        counts[key.split(":", 1)[1]] += value

    def mean(values):
        return statistics.mean(values) if values else 0.0

    ok = [r for r in traced if "error" not in r]
    nops = max(1, len(ok))
    shots = counts["kernels.shots"]
    kernel_ns = sum(dur["kernels.sample_counts"]) * 1e9
    bytes_per_shot = sum(np.dtype(t).itemsize * k for t, k in KERNEL_ARRAYS) if shots else 0
    # tracing overhead over the operations both passes completed
    common = min(len(traced), len(untraced))
    rate = [common / sum(r["latency"] for r in rs[:common]) if common else 0.0
            for rs in (traced, untraced)]
    metrics = dict(imports)
    metrics.update({
        "cli.parse_config_s": mean(dur["cli.parse_config"]),
        "cli.render_heatmap_s": mean(dur["cli.render_heatmap"]),
        "cli.execute_self_s": mean(self_of["cli.execute"]),
        "cli.artifact_bytes": sum(r.get("bytes", 0) for r in ok) / nops,
        "lab.grid_scan_s": mean(dur["lab.grid_scan"]),
        "lab.beta_sweep_s": mean(dur["lab.beta_sweep"]),
        "lab.optimize_angles_s": mean(dur["lab.optimize_angles"]),
        "lab.batch_evaluator_build_s": mean(dur["lab.batch_evaluator_build"]),
        "lab.evaluations": counts["lab.evaluations"] / nops,
        "gup.perturb_state_calls": len(dur["gup.perturb_state"]) / nops,
        "gup.gup_correct_observable_calls": len(dur["gup.gup_correct_observable"]) / nops,
        "tensor.eig_hermitian_calls": len(dur["tensor.eig_hermitian"]) / nops,
        "shots.estimate_chsh_s": mean(dur["shots.estimate_chsh"]),
        "shots.joint_probabilities_s": mean(dur["shots.joint_probabilities"]),
        "kernels.sample_counts_s": mean(dur["kernels.sample_counts"]),
        "kernels.shots": shots,
        "kernels.ns_per_shot": kernel_ns / shots if shots else 0.0,
        "kernels.bytes_computed": bytes_per_shot,
        "security.build_report_s": mean(dur["security.build_report"]),
        "trace.overhead_ratio": rate[0] / rate[1] if rate[1] else 0.0,
    })
    # where the traced operation time goes: mean self time per operation;
    # the operation span's own self time is interpreter start-up and exit
    # for CLI processes and call overhead in process
    op_self = "process" if bench.workload == "cli-artifacts" else "call"
    path = {(op_self if name == "op" else name): self_by[name] / len(traced)
            for name in sorted(self_by, key=self_by.get, reverse=True)}
    evals_by_kind = defaultdict(list)
    for r in ok:
        evals_by_kind[r["kind"]].append(tracer.counts.get(f"{r['id']}:lab.evaluations", 0))
    extra = {
        "blocking_path_self_s_per_op": path,
        "traced_op_s_mean": statistics.mean(dur["op"]),
        "untraced_op_s_mean": statistics.mean(r["latency"] for r in untraced),
        "traced_op_s_p50": statistics.median(dur["op"]),
        "untraced_op_s_p50": statistics.median(r["latency"] for r in untraced),
        "kernels.bytes_computed_per_shot": bytes_per_shot,
        "lab.evaluations_per_op_by_kind": {k: statistics.mean(v) for k, v in evals_by_kind.items()},
        "ops_per_s_traced_untraced": rate,
    }
    return metrics, extra


# --- environment ---------------------------------------------------------------

def environment(bench: Bench) -> dict:
    import numpy
    from importlib import metadata
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (bench.root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((bench.src / "gupbell").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": bench.workload,
        "seed": bench.seed,
    }


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gupbell" / "__init__.py").is_file():
        print(f"error: no gupbell sources under {root / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    warnings.simplefilter("ignore")
    bench = Bench(root, args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(bench, args)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def _run(bench: Bench, args) -> int:
    import checks
    import tracing
    setup_ref = Reference(bench, "process")
    setup = measure_setup(bench, 0 if args.trace else SETUP_REPEATS,
                          None if args.trace else setup_ref)
    import gupbell.cli  # noqa: F401  the one-time import of the in-process workloads

    env = environment(bench)
    warm_up(bench)
    if args.trace:
        half = args.seconds / 2
        untraced = run_loop(bench, half, None)
        tracer = tracing.Tracer()
        tracer.install()
        records = run_loop(bench, half, tracer)
        metrics, extra = per_layer(bench, tracer, records, untraced, import_layers(bench))
        units = LAYER_UNITS
        all_records = untraced + records
    else:
        run_ref = Reference(bench, "process" if bench.workload == "cli-artifacts" else "numpy")
        records = run_loop(bench, args.seconds, None, run_ref)
        metrics, extra = end_to_end(bench, records, setup, setup_ref, run_ref)
        units = E2E_UNITS
        all_records = records
    mismatches = rerun_subset(bench, untraced if args.trace else records)

    attempted = len(all_records)
    failed = sum(1 for r in all_records if "error" in r)
    check_failed = sum(1 for r in all_records if r.get("fails"))
    known = defaultdict(int)
    for r in all_records:
        for tag in _known(r):
            known[tag] += 1
    unexpected = check_failed - sum(1 for r in all_records if _known(r))
    # known program defects are reported, not counted against correctness
    result = {"correct": failed == 0 and unexpected == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    details = {"environment": env, "trace": args.trace, "seconds": args.seconds,
               "summary": result, "extra": extra, "check_failures": check_failed,
               "unexpected_check_failures": unexpected, "known_defects": dict(known),
               "known_defect_descriptions": checks.KNOWN_DEFECTS,
               "digest_mismatches": mismatches,
               "failures": [{k: r.get(k) for k in ("id", "kind", "error", "fails")}
                            for r in all_records if "error" in r or r.get("fails")],
               "operations": [{k: v for k, v in r.items() if k != "fails"}
                              for r in all_records]}
    stem = f"{bench.workload}-seed{bench.seed}-trace{args.trace}"
    (bench.out / "results").mkdir(parents=True, exist_ok=True)
    (bench.out / "results" / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        (bench.out / "results" / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()))
    else:
        digests = {r["id"]: {"kind": r["kind"], "config_sha256": r["config_sha256"],
                             "artifacts": r.get("digests")} for r in records}
        (bench.out / "digests").mkdir(parents=True, exist_ok=True)
        (bench.out / "digests" / f"{bench.workload}-seed{bench.seed}.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True))

    _print_summary(bench, args, metrics, units, extra, attempted, failed, check_failed, env)
    print(f"  unexpected_check_failed={unexpected} known_defects={json.dumps(dict(known))}")
    print(json.dumps(result))
    return 0


def _print_summary(bench, args, metrics, units, extra, attempted, failed, check_failed, env):
    print(f"gupbell benchmark  workload={bench.workload} seed={bench.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  env: {env['nproc']} cpus, {env['cpu_model']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, numba={env['numba_present']}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.6g} {unit}")
    for name, value in extra.items():
        if isinstance(value, float):
            # extra metrics follow the naming convention of the gated ones
            unit = "1/s" if name.endswith("per_s") else ("" if "ratio" in name else "s")
            print(f"  {name:36s} {value:14.6g} {unit}")
        else:
            print(f"  {name:36s} {json.dumps(value)}")
    print(f"  attempted={attempted} failed={failed} check_failed={check_failed}")


if __name__ == "__main__":
    sys.exit(main())
