import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import correlator
from gupbell import cli, gup, lab
from gupbell.errors import ValidationError
from gupbell.gup import GupModel, gup_correct_observable
from gupbell.lab import beta_sweep, evaluate_point

TSIRELSON = 2.0 * math.sqrt(2.0)


def run_main(argv):
    return cli.main([str(a) for a in argv])


class TestConfigParsing:
    def test_defaults(self):
        cfg = cli.parse_config(["scan"])
        assert cfg["command"] == "scan"
        assert cfg["scenario"] == "qm"
        assert cfg["grid.steps"] == 201
        assert cfg["betas"] == [0.1, 0.2, 0.5, 0.9]

    def test_cli_overrides_config_file(self, tmp_path):
        doc = {"scenario": "s1", "beta": 0.3, "seed": 7}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = cli.parse_config(["scan", "--config", str(path), "--beta", "0.5"])
        assert cfg["scenario"] == "s1"
        assert cfg["beta"] == 0.5
        assert cfg["seed"] == 7

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"betta": 0.1}))
        with pytest.raises(ValidationError, match="betta"):
            cli.parse_config(["scan", "--config", str(path)])

    def test_nested_model_object(self, tmp_path):
        doc = {"model": {"rule": "tilt", "m": [0.6, 0.0, 0.8]}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = cli.parse_config(["sweep", "--config", str(path)])
        assert cfg["model.rule"] == "tilt"
        assert cfg["model.m"] == [0.6, 0.0, 0.8]

    def test_axis_norm_validated(self, tmp_path):
        # GupModel checks the norm, reported under m
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"m": [1.0, 1.0, 0.0]}))
        cfg = cli.parse_config(["scan", "--config", str(path)])
        with pytest.raises(ValidationError, match="m: axis norm"):
            cli._scenario_config(cfg)

    def test_axis_tiny_deviation_normalized(self, tmp_path):
        m = [0.0, 0.0, 1.0 + 5e-7]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"m": m}))
        cfg = cli.parse_config(["scan", "--config", str(path)])
        with pytest.warns(UserWarning, match="normalizing"):
            model = cli._scenario_config(cfg).model
        assert model.axis[2] == pytest.approx(1.0, abs=1e-12)

    def test_grid_bounds_checked(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"grid": {"min": 1.0, "max": 0.5}}))
        with pytest.raises(ValidationError, match="grid.max"):
            cli.parse_config(["scan", "--config", str(path)])


class TestScan:
    def test_outputs_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_main(["scan", "--grid-steps", 41, "--out", out])
        assert code == 0
        summary = capsys.readouterr().out.strip()
        assert summary.startswith("scan S=")
        assert "region=quantum" in summary

        text = (out / "scan.csv").read_text().splitlines()
        assert text[0] == "theta1,theta2,S"
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in text[1:]])
        assert rows.shape == (41 * 41, 3)

        from gupbell.lab import ScenarioConfig, grid_scan
        grid = grid_scan(ScenarioConfig(), resolution=41)
        # 9 significant digits: round trip is tight in relative terms
        assert np.allclose(rows[:, 2], grid.values.ravel(), rtol=1e-8, atol=1e-9)

        svg = (out / "scan.svg").read_text()
        outlined = svg.count('stroke="#000" stroke-width="0.4"')
        assert outlined == int(np.sum(rows[:, 2] > 2.0))

    def test_deterministic_bytes(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run_main(["scan", "--grid-steps", 21, "--out", first]) == 0
        assert run_main(["scan", "--grid-steps", 21, "--out", second]) == 0
        assert (first / "scan.csv").read_bytes() == (second / "scan.csv").read_bytes()
        assert (first / "scan.svg").read_bytes() == (second / "scan.svg").read_bytes()


class TestSweep:
    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_csv_schema_and_ceiling(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"betas": [0.1, 0.5], "theta_steps": 61}))
        out = tmp_path / "out"
        assert run_main(["sweep", "--config", cfgfile, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "beta,theta,S_qm,S_s1,S_s2,S_s3"
        assert len(lines) == 1 + 2 * 61
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert float(data[:, 2:].max()) <= 4.0


class TestOptimize:
    def test_reaches_tsirelson(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_main(["optimize", "--out", out]) == 0
        doc = json.loads((out / "optimum.json").read_text())
        assert doc["value"] == pytest.approx(TSIRELSON, abs=1e-6)
        assert doc["converged"]
        assert doc["region"] == "quantum"
        assert set(doc["settings"]) == {"a", "a_prime", "b", "b_prime"}
        assert (doc["method"], doc["evaluations"]) == ("closed_form", 1)

    def test_search_recorded(self, tmp_path, capsys):
        # planar settings under an out-of-plane tilt: no closed form
        out = tmp_path / "out"
        assert run_main(["optimize", "--scenario", "s1", "--m", "0.48,0.6,0.64",
                         "--out", out]) == 0
        doc = json.loads((out / "optimum.json").read_text())
        assert doc["method"] == "search"
        assert doc["evaluations"] > 17 ** 4

    @pytest.mark.filterwarnings("ignore:.*no longer small")
    def test_search_does_not_read_the_seed(self, tmp_path, capsys):
        # the search starts from fixed grid cells only; seed is the shot stream's
        docs = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert run_main(["optimize", "--scenario", "s1", "--beta", 0.5,
                             "--m", "0.48,0.6,0.64", "--seed", seed, "--out", out]) == 0
            docs.append((out / "optimum.json").read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["method"] == "search"

    def test_restarts_is_not_an_input(self, tmp_path, capsys):
        # neither a config key nor a flag: a config file fails on the
        # unknown key, argparse on the unknown flag
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"restarts": 2}))
        assert run_main(["optimize", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
        assert ("configuration error: restarts: unknown configuration key"
                in capsys.readouterr().err)
        with pytest.raises(SystemExit) as exc:
            run_main(["optimize", "--restarts", 2, "--out", tmp_path / "out"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --restarts 2" in capsys.readouterr().err

    @pytest.mark.parametrize("eight_angles", [False, True])
    @pytest.mark.parametrize("scenario", ["s1", "s3"])
    def test_beta_a_at_least_one_exits_2(self, tmp_path, capsys, scenario, eight_angles):
        # a model with |beta a| >= 1 is rejected when it is built
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"scenario": scenario, "beta": 1.2,
                                       "eight_angles": eight_angles}))
        assert run_main(["optimize", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
        assert "first-order treatment invalid" in capsys.readouterr().err


class TestSample:
    def test_payload_schema(self, tmp_path):
        out = tmp_path / "out"
        assert run_main(["sample", "--shots", 20_000, "--out", out]) == 0
        doc = json.loads((out / "sample.json").read_text())
        assert set(doc) == {"s_hat", "stderr", "correlators", "counts",
                            "shots_per_pair", "seed", "noise_p"}
        assert doc["shots_per_pair"] == 20_000
        assert doc["seed"] == 42
        for label in ("ab", "abp", "apb", "apbp"):
            assert sum(doc["counts"][label]) == 20_000

    def test_byte_identical_across_runs_and_envs(self, tmp_path):
        blobs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            assert run_main(["sample", "--shots", 50_000, "--out", out]) == 0
            blobs.append((out / "sample.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestAudit:
    def test_noise_triggers_alarm(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_main(["audit", "--shots", 100_000, "--noise-p", "0.3",
                         "--out", out])
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["alarm"]
        assert doc["alarm_sigma"] > 5.0
        assert doc["s_baseline"] > doc["s_observed"]

    def test_clean_run_no_alarm(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_main(["audit", "--shots", 100_000, "--out", out]) == 0
        doc = json.loads((out / "audit.json").read_text())
        assert not doc["alarm"]

    def test_estimate_files_round_trip(self, tmp_path, capsys):
        sample_out = tmp_path / "sample"
        assert run_main(["sample", "--shots", 50_000, "--out", sample_out]) == 0
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "baseline_estimate": str(sample_out / "sample.json"),
            "observed_estimate": str(sample_out / "sample.json"),
        }))
        out = tmp_path / "out"
        code = run_main(["audit", "--config", cfgfile, "--out", out])
        assert code == 0
        doc = json.loads((out / "audit.json").read_text())
        assert doc["s_baseline"] == doc["s_observed"]
        assert not doc["alarm"]


class TestExitCodes:
    def test_help_names_every_command_and_flag(self, capsys):
        # each flag stores its value under the key, or the top-level alias,
        # whose checker a file value of that key meets
        flags = {action.option_strings[0]: action.dest
                 for action in cli._build_arg_parser()._actions if action.option_strings}
        assert flags == {
            "-h": "help", "--config": "config", "--scenario": "scenario",
            "--beta": "beta", "--model": "model.rule", "--m": "m",
            "--grid-steps": "grid.steps", "--betas": "betas", "--shots": "shots",
            "--seed": "seed", "--noise-p": "noise_p", "--k-sigma": "k_sigma",
            "--out": "out"}
        with pytest.raises(SystemExit) as exc:
            run_main(["--help"])
        assert exc.value.code == 0
        words = set(re.findall(r"[\w-]+", capsys.readouterr().out))
        assert set(cli.COMMANDS) | set(flags) <= words

    @pytest.mark.parametrize("argv, message", [
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
        (["scan", "--m", "0,0,0"], "configuration error: m: axis must be non-zero"),
        (["sweep", "--betas", "a,b"],
         "configuration error: betas: expected comma-separated numbers"),
        (["scan", "--config", {"grid": 5}], "configuration error: grid: expected an object"),
        (["scan", "--config", [1]], "configuration error: $: expected an object"),
        (["sample", "--config", {"noise_p": -0.1}],
         "configuration error: noise_p: must be >= 0.0"),
        (["sample", "--config", {"noise_p": 1.5}],
         "configuration error: noise_p: must be <= 1.0"),
        (["audit", "--config", {"k_sigma": -1}], "configuration error: k_sigma: must be >= 0.0"),
        (["scan", "--config", {"beta": -0.1}],
         "configuration error: beta: negative beta models are out of scope"),
        (["sweep", "--config", {"betas": []}],
         "configuration error: betas: expected a non-empty list"),
        (["optimize", "--config", {"eight_angles": 1}],
         "configuration error: eight_angles: expected a boolean"),
        (["scan", "--config", {"out": 5}], "configuration error: out: expected a path string"),
        (["scan", "--config", {"hp": [[1, 2], [3]]}],
         "configuration error: hp: expected a nested array of [re, im] pairs"),
        (["scan", "--config", {"hp": 5}], "configuration error: hp: expected shape 4x4x2, got ()"),
    ], ids=["unknown-command", "no-command", "zero-axis", "non-numeric-betas",
            "section-not-an-object", "document-not-an-object", "negative-noise",
            "noise-above-1", "negative-k-sigma", "negative-beta", "empty-betas",
            "eight-angles-not-a-boolean", "out-not-a-path", "ragged-hp", "scalar-hp"])
    def test_command_rejection_is_2(self, tmp_path, capsys, argv, message):
        # argparse exits 2 on a command line it cannot parse, main returns 2
        # on a value a checker refuses; a JSON document in argv is passed as
        # a config file.  An unknown flag: test_restarts_is_not_an_input
        cfgfile = tmp_path / "run.json"
        for arg in argv:
            if not isinstance(arg, str):
                cfgfile.write_text(json.dumps(arg))
        argv = [arg if isinstance(arg, str) else cfgfile for arg in argv]
        try:
            code = run_main([*argv, "--out", tmp_path / "out"])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read"),
        (b'{"beta": ', "malformed JSON"),
        (b"\xff\xfe{}", "malformed JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "malformed JSON: maximum recursion depth"),
    ], ids=["missing", "malformed", "not-utf8", "nested-too-deep"])
    def test_unreadable_json_file_is_2(self, tmp_path, capsys, content, message):
        # a config file and an estimate file fail alike, naming the file
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_bytes(content)
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"baseline_estimate": str(bad)}))
        for argv in (["scan", "--config", bad], ["audit", "--config", cfgfile]):
            assert run_main([*argv, "--shots", 1000, "--out", tmp_path / "out"]) == 2
            assert f"configuration error: {bad}: {message}" in capsys.readouterr().err

    def test_configuration_error_is_2(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        assert run_main(["scan", "--config", path]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_custom_jp_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_main(["scan", "--scenario", "s1", "--model", "custom",
                         "--out", out]) == 2

    def test_seed_beyond_uint64_stream_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_main(["sample", "--seed", 2**64, "--out", out]) == 2
        assert "seed" in capsys.readouterr().err
        # audit draws its observed estimate from seed + 1
        assert run_main(["audit", "--seed", 2**64 - 1, "--out", out]) == 2
        assert run_main(["audit", "--seed", cli.SEED_MAX, "--shots", 1000,
                         "--out", out]) == 0

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_is_2(self, tmp_path, capsys, constant):
        path = tmp_path / "run.json"
        path.write_text('{"settings": {"a": [%s, 0]}}' % constant)
        assert run_main(["sample", "--config", path]) == 2
        assert constant in capsys.readouterr().err
        estimate = tmp_path / "estimate.json"
        estimate.write_text('{"s_hat": %s}' % constant)
        path.write_text(json.dumps({"baseline_estimate": str(estimate)}))
        assert run_main(["audit", "--config", path, "--out", tmp_path / "out"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unwritable_output_is_3(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_main(["sample", "--shots", 1000, "--out", blocker / "sub"]) == 3
        assert "Not a directory" in capsys.readouterr().err

    def test_zero_stderr_estimates_are_4(self, tmp_path, capsys):
        # S = 4 from ten shots per pair, so neither estimate has any spread
        estimate = tmp_path / "estimate.json"
        estimate.write_text(json.dumps({
            "s_hat": 4.0, "stderr": 0.0, "shots_per_pair": 10,
            "correlators": {"ab": 1.0, "abp": 1.0, "apb": 1.0, "apbp": -1.0},
            "counts": dict.fromkeys(("ab", "abp", "apb"), [10, 0, 0, 0])
            | {"apbp": [0, 10, 0, 0]}}))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"baseline_estimate": str(estimate),
                                       "observed_estimate": str(estimate)}))
        assert run_main(["audit", "--config", cfgfile, "--out", tmp_path / "out"]) == 4
        assert "both estimates have zero stderr" in capsys.readouterr().err

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "out of memory")])
    def test_out_of_memory_is_4(self, tmp_path, capsys, monkeypatch, exc, message):
        # a grid too large to allocate; none is allocated here
        def scan(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli.lab, "grid_scan", scan)
        assert run_main(["scan", "--out", tmp_path / "out"]) == 4
        assert f"evaluation error: {message}" in capsys.readouterr().err

    def test_interrupt_is_130(self, tmp_path, capsys, monkeypatch):
        def execute(cfg):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "execute", execute)
        assert run_main(["sample", "--out", tmp_path / "out"]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_binary_contract(self, tmp_path):
        # the installed entry point behaves like main()
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "gupbell.cli", "sample",
             "--shots", "10000", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("sample S=")
        proc = subprocess.run(
            [sys.executable, "-m", "gupbell.cli", "scan", "--scenario", "bogus"],
            capture_output=True, text=True)
        assert proc.returncode == 2


class TestScenarioSemantics:
    """A scenario tag means the same physics and the same validity in
    every command."""

    def test_out_of_range_coupling_is_2(self, tmp_path, capsys):
        # beta * lambda_p / lambda = 3 along the default a = z
        for command in ("sample", "scan"):
            assert run_main([command, "--scenario", "s1", "--beta", 3,
                             "--grid-steps", 5, "--out", tmp_path]) == 2
            assert ">= 1" in capsys.readouterr().err

    def test_s2_cannot_be_sampled(self, tmp_path, capsys):
        # |xi><xi| + beta(|xi_p><xi| + h.c.) has a negative eigenvalue
        for command in ("sample", "audit"):
            assert run_main([command, "--scenario", "s2", "--out", tmp_path]) == 2
            assert "s2" in capsys.readouterr().err

    def test_s3_samples_the_corrected_state(self, tmp_path):
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        hp = np.kron(sy, sy) + np.kron(sx, np.eye(2))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "scenario": "s3", "beta": 0.2, "model": {"rule": "tilt", "m": [1, 0, 0]},
            "hp": np.stack([hp.real, hp.imag], axis=-1).tolist(),
            "shots": 200_000, "noise_p": 0.1, "out": str(tmp_path / "out")}))
        assert run_main(["sample", "--config", cfgfile]) == 0
        doc = json.loads((tmp_path / "out" / "sample.json").read_text())
        # [DERIVED] exact s3 value 2.7838 at the default settings; the Bell
        # state with the same corrected observables gives 2.8119
        assert abs(doc["s_hat"] - 0.9 * 2.7838) < 5.0 * doc["stderr"]


def _pairs(matrix) -> list:
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _hermitian(seed: int, dim: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / np.linalg.norm(a + a.conj().T, 2)


_NON_HERMITIAN_4 = np.diag([-1.0, 0.0, 1.0, 2.0]) + np.diag([0.5, 0.0, 0.0], 1)
# one entry 1e-11 off Hermitian: 10 x tensor.HERMITIAN_TOL
_NEAR_HERMITIAN_4 = np.diag([-1.0, 0.0, 1.0, 2.0]) + np.diag([1e-11, 0.0, 0.0], 1)
# finite entries whose first-order state correction overflows |xi + beta xi_p|^2
_HUGE_HP = np.zeros((4, 4))
_HUGE_HP[0, 0] = _HUGE_HP[0, 1] = _HUGE_HP[1, 0] = 1e300
# s_hat, stderr and correlators as the counts give them
_ESTIMATE = {"s_hat": 2.4, "stderr": 0.05059644256269407, "shots_per_pair": 1000,
             "correlators": {"ab": 0.6, "abp": 0.6, "apb": 0.6, "apbp": -0.6},
             "counts": {"ab": [400, 100, 100, 400], "abp": [400, 100, 100, 400],
                        "apb": [400, 100, 100, 400], "apbp": [100, 400, 400, 100]}}


@pytest.mark.parametrize("target, doc, key", [
    ("config", {"settings": {"a": "12"}}, "settings.a"),
    ("config", {"settings": {"a": [True, False]}}, "settings.a[0]"),
    ("config", {"settings": {"b": [0.25]}}, "settings.b"),
    ("config", {"m": "001"}, "m"),
    ("config", {"model": {"m": [0, 0, True]}}, "model.m[2]"),
    ("config", {"jp": [[["0", 0], [1, 0]], [[1, 0], [0, 0]]]}, "jp[0][0][0]"),
    ("config", {"hp": _pairs(np.diag([-1.0, 0.0, 1.0, 2.0]) + 0j)[:3]
                + [[[0, 0], [0, 0], [0, 0], [True, 0]]]}, "hp[3][3][0]"),
    ("config", {"hp": [[["0.5", 0]] * 4] * 4}, "hp[0][0][0]"),
    ("estimate", {"shots_per_pair": "1000"}, "shots_per_pair"),
    ("estimate", {"s_hat": "2.75"}, "s_hat"),
    ("estimate", {"stderr": True}, "stderr"),
    ("estimate", {"counts": dict(_ESTIMATE["counts"], ab=[412.9, 88, 100, 400])},
     "counts.ab[0]"),
    # integers beyond the float and the int64 range
    ("config", {"beta": 10**400}, "beta"),
    ("estimate", {"counts": dict(_ESTIMATE["counts"], ab=[2**64, 0, 0, 0])},
     "counts.ab[0]"),
    # each bound, and the span, must stay finite in radians
    ("config", {"grid": {"min": -1e308, "max": 1e308}}, "grid.min"),
    ("config", {"grid": {"min": -5e307, "max": 5e307}}, "grid.max"),
    # derived fields must match the counts, which give S = 4
    ("estimate", {"s_hat": 3.9, "stderr": 0.0, "correlators": {"x": "junk"},
                  "counts": dict.fromkeys(("ab", "abp", "apb"), [1000, 0, 0, 0]) | {
                      "apbp": [0, 1000, 0, 0]}}, "s_hat"),
    ("estimate", {"stderr": 0.03}, "stderr"),
    ("estimate", {"correlators": dict(_ESTIMATE["correlators"], apb=0.61)},
     "correlators.apb"),
    ("estimate", {"correlators": dict(_ESTIMATE["correlators"], x=0.6)},
     "correlators.x"),
    ("estimate", {"counts": dict(_ESTIMATE["counts"], zz=[1, 2, 3, 4])}, "counts.zz"),
])
def test_json_numbers_must_be_numbers(tmp_path, capsys, target, doc, key):
    cfgfile = tmp_path / "run.json"
    if target == "estimate":
        estimate = tmp_path / "estimate.json"
        estimate.write_text(json.dumps(dict(_ESTIMATE, **doc)))
        doc = {"baseline_estimate": str(estimate)}
    cfgfile.write_text(json.dumps(dict(doc, shots=1000)))
    command = "audit" if target == "estimate" else "sample"
    assert run_main([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    assert f" {key}: " in capsys.readouterr().err


def test_estimate_counts_sum_without_wrapping(tmp_path, capsys):
    # each row's int64 sum wraps round from 2**64 + 2 to shots_per_pair
    estimate = tmp_path / "estimate.json"
    estimate.write_text(json.dumps(dict(_ESTIMATE, shots_per_pair=2, counts={
        k: [2**62, 2**62, 2**62, 2**62 + 2] for k in _ESTIMATE["counts"]})))
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"baseline_estimate": str(estimate)}))
    assert run_main(["audit", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    assert "invalid counts for pair ab" in capsys.readouterr().err


def test_estimate_without_shots_is_2(tmp_path, capsys):
    # no shot at all: every count 0 sums to shots_per_pair 0
    estimate = tmp_path / "estimate.json"
    estimate.write_text(json.dumps(dict(_ESTIMATE, shots_per_pair=0, counts={
        k: [0, 0, 0, 0] for k in _ESTIMATE["counts"]})))
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"baseline_estimate": str(estimate)}))
    assert run_main(["audit", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    assert f"{estimate}: shots_per_pair: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"model": {"rule": "custom", "jp": _pairs(np.diag([1.0, 0.0]) + 0j)}}, "jp"),
    ({"model": {"rule": "custom", "jp": _pairs(np.array([[0, 1], [0, 0]]) + 0j)}}, "jp"),
    ({"hp": _pairs(_NON_HERMITIAN_4 + 0j)}, "hp"),
    ({"hp": _pairs(_NEAR_HERMITIAN_4 + 0j)}, "hp"),
    # every scenario starts from the Bell state, so no unperturbed
    # Hamiltonian is an input: h0 is refused as an unknown key, whatever
    # its matrix
    ({"h0": _pairs(_NON_HERMITIAN_4 + 0j)}, "h0"),
    ({"h0": _pairs(np.diag([0.0, 0.0, 1.0, 2.0]) + 0j)}, "h0"),
    ({"model": "custom"}, "jp"),
    ({"model": {"rule": "tilt", "jp": _pairs(np.array([[1, 5], [0, 0]]) + 0j)}}, "jp"),
    ({"model": {"rule": "self-cubic", "m": [1, 0, 0]}}, "m"),
    ({"hp": _pairs(_HUGE_HP + 0j)}, "hp"),
], ids=["traceful-jp", "non-hermitian-jp", "non-hermitian-hp", "near-hermitian-hp",
        "non-hermitian-h0", "degenerate-h0", "custom-without-jp", "jp-under-tilt",
        "m-under-self-cubic", "overflowing-hp"])
def test_rejected_matrix_exits_2_in_every_command(tmp_path, capsys, doc, key):
    # the model and the scenario, which checks hp, are built for every run,
    # so the physics rejects an input before any command evaluates a scenario
    cfgfile = tmp_path / "run.json"
    for command in cli.COMMANDS:
        for scenario in lab.SCENARIOS:
            cfgfile.write_text(json.dumps(dict(doc, scenario=scenario)))
            assert run_main([command, "--config", cfgfile,
                             "--out", tmp_path / "out"]) == 2, (command, scenario)
            assert f" {key}: " in capsys.readouterr().err


def test_h0_is_an_unknown_key(tmp_path, capsys):
    # every scenario starts from the Bell state: an h0 with the ground
    # state |00> is refused before any series is evaluated
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"h0": _pairs(np.diag([-2.0, 0.0, 0.0, 2.0]) + 0j),
                                   "betas": [0.001]}))
    assert run_main(["sweep", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == "configuration error: h0: unknown configuration key\n"
    assert not (tmp_path / "out").exists()


small = st.floats(-2.0, 2.0, allow_nan=False)
# a positive norm: [5e-324, 0, 0] is nonzero, but its norm underflows to 0
# and it would normalize to NaN
axes = st.lists(small, min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 0)
fuzz_configs = st.fixed_dictionaries(
    {"scenario": st.sampled_from(lab.SCENARIOS), "beta": st.floats(0.0, 1.5)},
    optional={
        "model": st.one_of(
            st.sampled_from(gup.RULES),
            st.fixed_dictionaries({"rule": st.sampled_from(gup.RULES)},
                                  optional={"m": axes})),
        "m": axes.map(lambda v: (np.asarray(v) / np.linalg.norm(v)).tolist()),
        # traceless, sometimes with an identity part
        "jp": st.tuples(st.integers(0, 99), st.floats(0.0, 2.0),
                        st.sampled_from([0.0, 0.0, 0.5])).map(
            lambda t: _pairs(_hermitian(t[0], 2, t[1]) + t[2] * np.eye(2))),
        "hp": st.tuples(st.integers(0, 99), st.floats(0.0, 1.5)).map(
            lambda t: _pairs(_hermitian(t[0], 4, t[1]))),
        "settings": st.dictionaries(
            st.sampled_from(["a", "a_prime", "b", "b_prime"]),
            st.lists(small, min_size=2, max_size=2)),
        "grid": st.fixed_dictionaries({"steps": st.integers(2, 9)},
                                      optional={"min": small, "max": small}),
        "betas": st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
        "theta_steps": st.integers(2, 9),
        "shots": st.integers(200, 2000),
        "seed": st.integers(0, 2**64),
        "noise_p": st.floats(0.0, 1.0),
        "k_sigma": st.floats(0.0, 10.0),
        "eight_angles": st.booleans(),
    })


def _check_estimate(cfg, s_hat: float, noise_p: float):
    """s_hat within 5 sigma of (1-p) times the exact value, sigma from the
    exact correlators, plus one shot per pair for the skew of rare
    outcomes at a few hundred shots."""
    scenario = cli._scenario_config(cfg)
    settings_ = cli._chsh_settings(cfg)
    exact = evaluate_point(scenario, settings_).value
    model = scenario.operator_model()
    obs = [gup_correct_observable(d, model).j_gup
           for d in (settings_.a, settings_.a_prime, settings_.b, settings_.b_prime)]
    psi = scenario.sampled_state().amplitudes
    rho = np.outer(psi, psi.conj())
    e = [(1.0 - noise_p) * correlator(rho, obs[i], obs[j])
         for i, j in ((0, 2), (0, 3), (1, 2), (1, 3))]
    sigma = math.sqrt(sum(1.0 - x * x for x in e) / cfg["shots"])
    assert abs(s_hat - (1.0 - noise_p) * exact) <= 5.0 * sigma + 8.0 / cfg["shots"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(cli.COMMANDS), doc=fuzz_configs)
def test_fuzz_exit_codes(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(dict(doc, out=str(Path(tmp) / "out"))))
        code = cli.main([command, "--config", str(path)])
        assert code in (0, 2, 3, 4)
        if code == 0 and command in ("sample", "audit"):
            cfg = cli.parse_config([command, "--config", str(path)])
            out = json.loads((Path(tmp) / "out" / f"{command}.json").read_text())
            if command == "sample":
                _check_estimate(cfg, out["s_hat"], cfg["noise_p"])
            else:
                _check_estimate(cfg, out["s_baseline"], 0.0)
                _check_estimate(cfg, out["s_observed"], cfg["noise_p"])


#: the package modules that scan, sweep and optimize load
CORE_MODULES = {"gupbell", *(f"gupbell.{m}" for m in
                             ("cli", "errors", "gup", "lab", "quantum", "tensor"))}
SHOT_MODULES = CORE_MODULES | {"gupbell.shots", "gupbell.kernels"}


@pytest.mark.parametrize("run, loaded", [
    ("import gupbell", {"gupbell"}),
    ("import gupbell.cli", CORE_MODULES),
    (["scan", "--grid-steps", "3"], CORE_MODULES),
    (["sweep", "--betas", "0.1"], CORE_MODULES),
    (["optimize"], CORE_MODULES),
    (["sample", "--shots", "100"], SHOT_MODULES),
    (["audit", "--shots", "100"], SHOT_MODULES | {"gupbell.security"}),
], ids=["package", "cli", "scan", "sweep", "optimize", "sample", "audit"])
def test_each_command_loads_only_its_modules(tmp_path, run, loaded):
    # a fresh interpreter per case; scipy is a test-only dependency, so no
    # run may load it, and the bare package loads no numpy either
    if isinstance(run, list):
        run = f"from gupbell import cli; assert cli.main({run + ['--out', str(tmp_path)]!r}) == 0"
    proc = subprocess.run(
        [sys.executable, "-c", run + "\nimport json, sys\nprint(json.dumps(["
         "sorted(m for m in sys.modules if m.split('.')[0] in ('gupbell', 'scipy')), "
         "'numpy' in sys.modules]))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules, numpy_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert modules == sorted(loaded)
    assert numpy_loaded == (loaded != {"gupbell"})


class TestFirstOrderDomain:
    """A model whose reach beta * |a| (beta for self-cubic), the largest
    |beta'| over all directions, is 1 or more is rejected when it is built:
    the same inputs exit 2 whatever directions a command would evaluate."""

    @pytest.mark.parametrize("doc", [
        {"beta": 1.0001, "m": [0.6, 0.0, 0.8]},
        {"beta": 1.0, "model": "self-cubic"},
        {"beta": 0.5, "model": {"rule": "custom",
                                "jp": _pairs(2.0 * np.array([[0, -1j], [1j, 0]]))}},
    ], ids=["tilt", "self-cubic", "custom"])
    def test_exits_2_in_every_command_and_scenario(self, tmp_path, capsys, doc):
        cfgfile = tmp_path / "run.json"
        for command in cli.COMMANDS:
            key = "betas" if command == "sweep" else "beta"
            for scenario in lab.SCENARIOS:
                cfgfile.write_text(json.dumps(
                    dict(doc, scenario=scenario, betas=[0.1, doc["beta"]])))
                assert run_main([command, "--config", cfgfile,
                                 "--out", tmp_path / "out"]) == 2, (command, scenario)
                err = capsys.readouterr().err
                assert f" {key}: " in err and "first-order treatment invalid" in err

    @pytest.mark.parametrize("steps", [9, 201, 2001])
    def test_scan_at_any_resolution(self, tmp_path, capsys, steps):
        # the grid's directions reach |beta'| >= 1 only from 2001 steps on
        assert run_main(["scan", "--scenario", "s1", "--beta", 1.0001, "--m", "0.6,0,0.8",
                         "--grid-steps", steps, "--out", tmp_path]) == 2
        assert not (tmp_path / "scan.csv").exists()

    def test_settings_that_miss_the_axis(self, tmp_path, capsys):
        # planar settings are orthogonal to m, so every beta' they meet is 0
        assert run_main(["sample", "--scenario", "s1", "--beta", 1.2, "--m", "0,1,0",
                         "--shots", 1000, "--out", tmp_path]) == 2
        assert " beta: " in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:.*no longer small")
def test_zero_corrected_operator_is_2(tmp_path, capsys):
    # beta |a| = 0.9999999999999999: at one setting of the closed-form
    # optimum lambda = |n + beta a| rounds to 0, where J + beta J_p is zero
    v = [-0.5875089970062646, -0.5816553750586216, -0.7423463506589595]
    jp = np.array([[v[2], v[0] - 1j * v[1]], [v[0] + 1j * v[1], -v[2]]])
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"scenario": "s1", "beta": 0.9, "eight_angles": True,
                                   "model": {"rule": "custom", "jp": _pairs(jp)}}))
    assert run_main(["optimize", "--config", cfgfile, "--out", tmp_path / "out"]) == 2
    assert "zero operator" in capsys.readouterr().err


# s2 is not a state: these entries take its sphere maximum far above 4
_LARGE_HP = np.zeros((4, 4))
_LARGE_HP[0, 0] = _LARGE_HP[0, 1] = _LARGE_HP[1, 0] = 1e3


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("command, scenario", [
    ("scan", "s2"), ("sweep", "s2"), ("optimize", "s2")])
def test_s2_beyond_4_is_unphysical_in_every_command(tmp_path, capsys, command, scenario):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"scenario": scenario, "hp": _pairs(_LARGE_HP + 0j),
                                   "grid": {"steps": 21}, "theta_steps": 61}))
    assert run_main([command, "--config", cfgfile, "--out", tmp_path / "out"]) == 0
    summary = capsys.readouterr().out.strip()
    assert float(summary.split("S=")[1].split()[0]) > 4.0
    assert summary.endswith("region=unphysical")


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("scenario, region", [("qm", "quantum"), ("s2", "unphysical")])
def test_sweep_reports_the_tagged_scenario(tmp_path, capsys, scenario, region):
    # sweep.csv holds all four series; the summary is the maximum of the
    # run's own, so the s2 series beyond 4 does not reach a qm sweep's
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({"scenario": scenario, "hp": _pairs(_LARGE_HP + 0j),
                                   "betas": [0.1], "theta_steps": 61}))
    out = tmp_path / "out"
    assert run_main(["sweep", "--config", cfgfile, "--out", out]) == 0
    summary = capsys.readouterr().out.strip()
    value = float(summary.split("S=")[1].split()[0])
    assert summary.endswith(f"region={region}")
    lines = (out / "sweep.csv").read_text().splitlines()
    column = 2 + lab.SCENARIOS.index(scenario)
    assert value == max(float(line.split(",")[column]) for line in lines[1:])
    if scenario == "qm":
        assert value <= TSIRELSON


@pytest.mark.parametrize("flag, key, value, code", [
    ("--model", "model.rule", "self-cubic", 0),
    ("--model", "model.rule", "self_cubic", 2),
    ("--model", "model.rule", "bogus", 2),
    ("--scenario", "scenario", "s9", 2),
])
def test_flag_and_file_share_one_check(tmp_path, capsys, flag, key, value, code):
    # a flag value reaches the checker of its config key, as a file value does
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps({key.split(".")[0]: value}))
    errors = []
    for argv in ([flag, value], ["--config", cfgfile]):
        assert run_main(["optimize", *argv, "--out", tmp_path / "out"]) == code
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    if code:
        assert f"configuration error: {key}: must be one of" in errors[0]


@pytest.mark.filterwarnings("ignore:.*no longer small", "ignore:.*normalizing axis")
@pytest.mark.parametrize("off", [0.0, 1e-7, 1e-5], ids=["unit", "1e-7-off", "1e-5-off"])
def test_one_tilt_axis_rule(tmp_path, capsys, off):
    # the CLI, GupModel and beta_sweep accept (and normalize) the same axes
    m = [0.6 * (1.0 + off), 0.0, 0.8 * (1.0 + off)]
    accepted = off < 1e-6
    assert run_main(["scan", "--scenario", "s1", "--beta", 0.5, "--grid-steps", 5,
                     "--m", ",".join(repr(x) for x in m), "--out", tmp_path]) == (
        0 if accepted else 2)
    if not accepted:
        assert "configuration error: m: axis norm" in capsys.readouterr().err
    for build in (lambda: GupModel(beta=0.5, m=m), lambda: beta_sweep([0.5], [0.0], m=m)):
        if accepted:
            build()
        else:
            with pytest.raises(ValueError, match="axis norm"):
                build()


@pytest.mark.filterwarnings("default::UserWarning")
def test_warnings_print_as_one_line(tmp_path, capsys):
    assert run_main(["scan", "--scenario", "s1", "--beta", 0.5, "--m", "0.6,0,0.8000001",
                     "--grid-steps", 21, "--out", tmp_path]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "warning: m: normalizing axis (norm 1.00000008)",
        "warning: |beta * lambda_p / lambda| > 0.3; perturbative correction is no longer small",
    ]
    assert ".py:" not in err
