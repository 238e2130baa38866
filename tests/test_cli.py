import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gupbell import cli
from gupbell.errors import ValidationError

TSIRELSON = 2.0 * math.sqrt(2.0)


def run_main(argv):
    return cli.main([str(a) for a in argv])


class TestConfigParsing:
    def test_defaults(self):
        cfg = cli.parse_config(["scan"])
        assert cfg.command == "scan"
        assert cfg.scenario == "qm"
        assert cfg.grid_steps == 201
        assert cfg.betas == [0.1, 0.2, 0.5, 0.9]

    def test_cli_overrides_config_file(self, tmp_path):
        doc = {"scenario": "s1", "beta": 0.3, "seed": 7}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        cfg = cli.parse_config(["scan", "--config", str(path), "--beta", "0.5"])
        assert cfg.scenario == "s1"
        assert cfg.beta == 0.5
        assert cfg.seed == 7

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
        assert cfg.model_rule == "tilt"
        assert cfg.m == [0.6, 0.0, 0.8]

    def test_axis_norm_validated(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"m": [1.0, 1.0, 0.0]}))
        with pytest.raises(ValidationError, match="norm"):
            cli.parse_config(["scan", "--config", str(path)])

    def test_axis_tiny_deviation_normalized(self, tmp_path):
        m = [0.0, 0.0, 1.0 + 5e-7]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"m": m}))
        with pytest.warns(UserWarning, match="normalizing"):
            cfg = cli.parse_config(["scan", "--config", str(path)])
        assert cfg.m[2] == pytest.approx(1.0, abs=1e-12)

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


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; the CLI runs on numpy alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gupbell.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
