"""The built-in replacements for scipy routines, checked against scipy.

scipy is a test-only dependency (the ``test`` extra); these tests are
skipped without it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from gupbell import lab
from gupbell.gup import GupModel
from gupbell.lab import (
    BatchEvaluator, ScenarioConfig, _nelder_mead, superclassical_components,
)
from gupbell.quantum import directions

optimize = pytest.importorskip("scipy.optimize")
ndimage = pytest.importorskip("scipy.ndimage")


def chsh_objective(cfg, eight_angles):
    """The objective optimize_angles minimizes: -S at the given angles."""
    ev = BatchEvaluator(cfg)

    def objective(x):
        return -float(ev.values(*directions(x[:4], x[4:] if eight_angles else 0.0))[0])
    return objective


def scenario_configs():
    tilt = GupModel(beta=0.3, rule="tilt", m=np.array([0.6, 0.0, 0.8]))
    jp = np.array([[0.2, 0.3 - 0.1j], [0.3 + 0.1j, -0.2]])
    custom = GupModel(beta=0.25, rule="custom", jp=jp)
    return [ScenarioConfig(), ScenarioConfig(scenario="s1", model=tilt),
            ScenarioConfig(scenario="s2", model=tilt),
            ScenarioConfig(scenario="s3", model=custom)]


@pytest.mark.parametrize("eight_angles", [False, True])
@pytest.mark.parametrize("maxfev", [6, 9, 40, 300, 10_000])
def test_nelder_mead_matches_scipy_bitwise(eight_angles, maxfev):
    rng = np.random.default_rng(maxfev + eight_angles)
    ndim = 8 if eight_angles else 4
    exhausted = 0
    for k, cfg in enumerate(scenario_configs()):
        objective = chsh_objective(cfg, eight_angles)
        x0 = rng.uniform(0.0, lab.TWO_PI, ndim)
        if k % 2:
            # zero coordinates, as from the coarse grid and the phi start
            x0[rng.permutation(ndim)[:ndim // 2]] = 0.0
        ref = optimize.minimize(objective, x0, method="Nelder-Mead",
                                options={"xatol": 1e-9, "fatol": 1e-12,
                                         "maxfev": maxfev})
        x, fun, nfev, converged = _nelder_mead(objective, x0, xatol=1e-9,
                                               fatol=1e-12, maxfev=maxfev)
        assert np.array_equal(x, ref.x)
        assert fun == ref.fun
        assert nfev == ref.nfev
        assert converged == ref.success
        exhausted += not converged
    if maxfev <= 300:
        assert exhausted == 4


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


def test_superclassical_components_on_scan_grid():
    cfg = ScenarioConfig(scenario="s1", model=GupModel(beta=0.4, rule="tilt"))
    grid = lab.grid_scan(cfg, resolution=61)
    for threshold in (1.0, 2.0, 2.5):
        assert superclassical_components(grid, threshold) == \
            _components_reference(grid.values > threshold)
