"""The optimizer and the connected-component count, checked against
scipy.

scipy is a test-only dependency (the ``test`` extra); these tests are
skipped without it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dense_oracle import superclassical_components
from gupbell import lab
from gupbell.gup import GupModel
from gupbell.lab import BatchEvaluator, ScenarioConfig, optimize_angles
from gupbell.quantum import directions
from test_lab import random_configs

optimize = pytest.importorskip("scipy.optimize")
ndimage = pytest.importorskip("scipy.ndimage")


@pytest.mark.filterwarnings("ignore:.*no longer small")
def test_search_reaches_scipy_nelder_mead_with_many_restarts():
    rng = np.random.default_rng(2024)
    searched = 0
    for cfg in random_configs(np.random.default_rng(7), 2):
        if cfg.scenario not in ("s1", "s3") or cfg.model.shift[1] == 0.0:
            continue  # built in closed form
        ev = BatchEvaluator(cfg)

        def objective(x):
            return -float(ev.values(*directions(x))[0])

        best = max(-optimize.minimize(objective, rng.uniform(0.0, lab.TWO_PI, 4),
                                      method="Nelder-Mead",
                                      options={"xatol": 1e-10, "fatol": 1e-14,
                                               "maxfev": 4000}).fun
                   for _ in range(8))
        opt = optimize_angles(cfg)
        assert (opt.method, opt.converged) == ("search", True)
        assert opt.value >= best - 1e-12
        searched += 1
    assert searched == 8  # s1 and s3, tilt and custom, two draws each


def _components_reference(mask):
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    return int(ndimage.label(mask, structure=cross)[1])


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 1), (1, 40),
                                   (40, 1), (7, 9), (30, 30), (64, 17)])
def test_superclassical_components_match_ndimage(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for density in (0.0, 0.3, 0.5, 0.6, 1.0):
        values = np.where(rng.uniform(size=shape) < density, 2.5, 1.5)
        # a ScanGrid rejects empty grids; the count reads only ``values``
        grid = SimpleNamespace(values=values)
        assert superclassical_components(grid) == \
            _components_reference(values > 2.0)


@pytest.mark.filterwarnings("ignore:.*no longer small")
def test_superclassical_components_on_scan_grid():
    cfg = ScenarioConfig(scenario="s1", model=GupModel(beta=0.4, rule="tilt"))
    grid = lab.grid_scan(cfg, resolution=61)
    for threshold in (1.0, 2.0, 2.5):
        assert superclassical_components(grid, threshold) == \
            _components_reference(grid.values > threshold)
