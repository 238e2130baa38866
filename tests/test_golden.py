"""Golden digests: the sha256 of every artifact and of stdout for a fixed
set of CLI runs, run in-process through ``cli.main``; the README runs and
every sample and audit run also go through the process entry,
``python -m gupbell.cli``.

A change that alters artifact bytes on purpose updates
``golden_digests.json`` in the same commit and names the changed entries
in CHANGES.md.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from gupbell import cli

DIGESTS = Path(__file__).with_name("golden_digests.json")

AXIS = ["--m", "0.48,0.6,0.64"]

#: a custom jp with a y part, so that planar settings are searched
CUSTOM_JP = {"scenario": "s3", "beta": 0.4,
             "model": {"rule": "custom",
                       "jp": [[[0.2, 0], [0.3, -0.1]], [[0.3, 0.1], [-0.2, 0]]]}}

#: the ``custom_hp`` fixture as [re, im] pairs: a state perturbation with
#: a coupling into every excited level
CUSTOM_HP = {"hp": [[[0.5, 0], [0.5, 0.1], [0, 0], [0, 0.3]],
                    [[0.5, -0.1], [-0.1, 0], [0.4, 0], [0, 0]],
                    [[0, 0], [0.4, 0], [0, 0], [0.2, 0]],
                    [[0, -0.3], [0, 0], [0.2, 0], [-0.4, 0]]]}

#: the five README commands, then runs over every command and scenario
README_RUNS = 5
RUNS = [
    ["scan", "--grid-steps", "201"],
    ["sweep", "--betas", "0.1,0.5"],
    ["optimize", "--scenario", "s1", "--beta", "0.2"],
    ["sample", "--shots", "1000000", "--seed", "42"],
    ["audit", "--noise-p", "0.2", "--k-sigma", "5"],
    ["scan", "--scenario", "s3", "--beta", "0.2", "--grid-steps", "101"],
    ["scan", "--scenario", "s3", "--beta", "0.5", *AXIS, "--grid-steps", "101"],
    ["scan", "--scenario", "s1", "--beta", "0.3", *AXIS, "--grid-steps", "101"],
    ["scan", "--scenario", "s2", "--beta", "0.3", "--grid-steps", "101"],
    ["sweep", "--betas", "0.1,0.2,0.5,0.9", *AXIS],
    ["sweep", "--betas", "0.1,0.2,0.5,0.9", "--model", "self-cubic"],
    ["optimize"],
    ["optimize", "--scenario", "s3", "--beta", "0.2"],
    ["optimize", "--scenario", "s3", "--beta", "0.5", *AXIS],
    ["optimize", "--scenario", "s1", "--beta", "0.5", *AXIS],
    ["optimize", "--scenario", "s1", "--beta", "0.7", "--m", "0,0.6,0.8"],
    ["optimize", "--scenario", "s2", "--beta", "0.4"],
    ["sample", "--shots", "100000"],
    ["sample", "--scenario", "s3", "--beta", "0.3", *AXIS, "--shots", "100000"],
    ["sample", "--scenario", "s1", "--beta", "0.3", "--shots", "100000"],
    ["audit", "--noise-p", "0.2", "--shots", "100000"],
    ["audit", "--scenario", "s3", "--beta", "0.4", "--noise-p", "0.1"],
    ["audit", "--shots", "1048577", "--seed", "7"],
    ["scan", "--config", "custom-jp.json", "--grid-steps", "41"],
    ["optimize", "--config", "custom-jp.json"],
    ["sample", "--config", "custom-jp.json", "--shots", "100000"],
    ["sweep", "--config", "hp.json", "--betas", "0.1,0.5"],
    ["scan", "--config", "hp.json", "--scenario", "s2", "--grid-steps", "41"],
    ["optimize", "--config", "hp.json", "--scenario", "s3"],
    ["sample", "--config", "hp.json", "--scenario", "s3", "--shots", "100000"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def in_process(argv: list) -> tuple[int, bytes]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue().encode()


def process_entry(argv: list) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "gupbell.cli", *argv], capture_output=True)
    return proc.returncode, proc.stdout


def run_digests(argv: list, workdir: Path, run=in_process) -> dict:
    """Run one command in ``workdir`` through ``run`` and digest its stdout
    and every artifact it wrote, by file name."""
    out = workdir / "out"
    (workdir / "custom-jp.json").write_text(json.dumps(CUSTOM_JP))
    (workdir / "hp.json").write_text(json.dumps(CUSTOM_HP))
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    code, stdout = run(argv + ["--out", str(out)])
    assert code == 0, argv
    digests = {"stdout": _sha256(stdout)}
    digests.update({p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())})
    return digests


def label(argv: list) -> str:
    return " ".join(argv)


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("argv", RUNS, ids=[label(argv) for argv in RUNS])
def test_artifacts_match_golden_digests(argv, tmp_path):
    golden = json.loads(DIGESTS.read_text())
    assert run_digests(argv, tmp_path) == golden[label(argv)]


#: the README runs, and every sample and audit run: in the process entry the
#: shot sampler's pair threads run beside no BLAS worker, and the counts
#: must not depend on how they overlap
ENTRY_RUNS = RUNS[:README_RUNS] + [argv for argv in RUNS[README_RUNS:]
                                   if argv[0] in ("sample", "audit")]


@pytest.mark.parametrize("argv", ENTRY_RUNS, ids=[label(argv) for argv in ENTRY_RUNS])
def test_process_entry_matches_golden_digests(argv, tmp_path):
    # the entry stops the collector, caps the BLAS pool at one thread and
    # freezes the import heap: the bytes must not move
    golden = json.loads(DIGESTS.read_text())
    assert run_digests(argv, tmp_path, process_entry) == golden[label(argv)]


def test_hp_is_the_custom_hp_fixture(custom_hp):
    pairs = np.asarray(CUSTOM_HP["hp"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], custom_hp)


def test_every_run_has_digests():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(label(argv) for argv in RUNS)


if __name__ == "__main__":
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        table = {}
        for k, argv in enumerate(RUNS):
            workdir = Path(tmp) / str(k)
            workdir.mkdir()
            table[label(argv)] = run_digests(argv, workdir)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} entries to {DIGESTS}", file=sys.stderr)
