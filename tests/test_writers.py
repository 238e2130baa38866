"""The column-at-a-time artifact writers against the per-cell oracle.

``scan.csv``, ``scan.svg`` and ``sweep.csv`` must equal, byte for byte,
what ``dense_oracle`` writes with one format call and one colour per
cell: on CLI runs in every scenario, and on synthetic grids that put
values on every colour-rounding tie, on the outline threshold and on
the colour-map clamps.
"""

import json

import numpy as np
import pytest

import dense_oracle
from gupbell import cli, lab


def run_cli(tmp_path, doc, command):
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(doc))
    cfg = cli.parse_config([command, "--config", str(cfgfile),
                            "--out", str(tmp_path / "out")])
    return cfg, cli.execute(cfg)


def assert_scan_matches(out, grid):
    assert (out / "scan.csv").read_bytes() == dense_oracle.scan_csv(grid).encode()
    svg = (out / "scan.svg").read_text()
    lines = svg.split("\n")
    cells = dense_oracle.heatmap_cells(grid.values)
    assert lines[2:2 + len(cells)] == cells
    # the background, the cells and the legend are the only rects
    assert svg.count("<rect ") == len(cells) + 2


@pytest.mark.parametrize("steps", [2, 9, 101, 201])
@pytest.mark.parametrize("scenario", lab.SCENARIOS)
def test_scan_matches_per_cell_oracle(tmp_path, scenario, steps):
    cfg, value = run_cli(tmp_path, {"scenario": scenario, "beta": 0.3,
                                    "grid": {"steps": steps}}, "scan")
    grid = lab.grid_scan(cli._scenario_config(cfg), resolution=steps,
                         theta_min=0.0, theta_max=2.0 * np.pi)
    assert value == float(grid.values.max())
    assert_scan_matches(tmp_path / "out", grid)


def test_scan_custom_bounds_match_per_cell_oracle(tmp_path):
    doc = {"scenario": "s1", "beta": 0.2, "m": [0.6, 0.0, 0.8],
           "grid": {"min": -0.37, "max": 1.21, "steps": 37}}
    cfg, _ = run_cli(tmp_path, doc, "scan")
    grid = lab.grid_scan(cli._scenario_config(cfg), resolution=37,
                         theta_min=-0.37 * np.pi, theta_max=1.21 * np.pi)
    assert_scan_matches(tmp_path / "out", grid)


def _tie_values() -> list:
    """Values v with vmin, vmax = -4, 4 that put 255*(1 + t) (below the
    midpoint) or 255*(1 - t) (from it on), t = v/4, exactly on k + 1/2."""
    ties = set()
    for k in range(255):
        u0 = (k + 0.5) / 255
        for step in range(-16, 17):
            u = u0 + step * 2.0 ** -53
            for v in (4.0 * (u - 1.0), 4.0 * (1.0 - u)):
                t = v / 4.0
                if 255 * (1.0 + t if t < 0 else 1.0 - t) == k + 0.5:
                    ties.add(v)
    return sorted(ties)


def _synthetic_grid(values, n2):
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-len(values) % n2)]).reshape(-1, n2)
    n1 = values.shape[0]
    return lab.ScanGrid(np.linspace(-0.3, 2.7, n1) ** 3, np.geomspace(1e-7, 5e3, n2),
                        values)


def test_colour_rounding_ties_outline_and_clamps(tmp_path, monkeypatch):
    ties = _tie_values()
    assert len(ties) > 300
    # the map's ends -4 and 4, the classical bound 2, the outline threshold
    # 2 + 1e-12 of classify and their neighbours
    edges = [-4.0, 4.0, 2.0, np.nextafter(2.0, 3.0), np.nextafter(2.0, 1.0),
             2.0 + 1e-12, np.nextafter(2.0 + 1e-12, 3.0), np.nextafter(2.0 + 1e-12, 1.0),
             0.0, -0.0, 5e-324]
    grid = _synthetic_grid(edges + ties, n2=7)
    monkeypatch.setattr(lab, "grid_scan", lambda *args, **kwargs: grid)
    cli._run_scan(cli.parse_config(["scan"]), None, tmp_path)
    assert_scan_matches(tmp_path, grid)


@pytest.mark.parametrize("value", [1.0, 3.0, -5.0, 2.0])
def test_constant_grid_takes_the_degenerate_range(tmp_path, value, monkeypatch):
    # a constant grid is mapped over [-4, 4], clamped below -4, and never
    # outlined
    grid = _synthetic_grid(np.full(12, value), n2=4)
    monkeypatch.setattr(lab, "grid_scan", lambda *args, **kwargs: grid)
    cli._run_scan(cli.parse_config(["scan"]), None, tmp_path)
    assert_scan_matches(tmp_path, grid)
    assert "stroke-width=\"0.4\"" not in (tmp_path / "scan.svg").read_text()


@pytest.mark.filterwarnings("ignore:.*no longer small")
@pytest.mark.parametrize("theta_steps", [2, 721])
@pytest.mark.parametrize("betas", [[0.1], [0.1, 0.5], [0.0, 0.3, 0.9],
                                   [0.05, 0.2, 0.45, 0.7]])
def test_sweep_matches_per_cell_oracle(tmp_path, betas, theta_steps):
    doc = {"betas": betas, "theta_steps": theta_steps, "m": [0.6, 0.0, 0.8]}
    cfg, best = run_cli(tmp_path, doc, "sweep")
    curves = lab.beta_sweep(betas, np.linspace(0.0, 2.0 * np.pi, theta_steps),
                            m=cfg["model.m"])
    text, oracle_best = dense_oracle.sweep_csv(curves, cfg["scenario"])
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == text.encode()
    assert best == oracle_best
