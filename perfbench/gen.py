"""Seeded input generator for the three workloads.

Operations come in rounds: each round holds one operation of every kind
of the workload, in a seeded order.  The size parameter of each kind is
stratified over blocks of ``BLOCK`` rounds (one draw per equal-width
stratum, strata in seeded order), and the categorical choices (scenario,
rule, default or random hp, and planar or eight-angle for optimize)
cycle jointly through a seeded permutation of all their combinations.  Runs with different seeds therefore
see nearly the same mix of costs, and their medians stay comparable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BLOCK = 8
RULES = ("tilt", "self-cubic", "custom")
MAX_BETA = 0.9


class Strata:
    """Stratified uniforms in [0, 1): one per stratum of each block."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pending = []

    def next(self) -> float:
        if not self.pending:
            order = self.rng.permutation(BLOCK)
            self.pending = list((order + self.rng.uniform(size=BLOCK)) / BLOCK)
        return float(self.pending.pop())


def _unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _hermitian4(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    return rng.uniform(0.05, 1.0) / np.linalg.norm(h, 2) * h


def _direction(rng) -> list:
    """Isotropic direction as [theta/pi, phi/pi]."""
    return [math.acos(rng.uniform(-1.0, 1.0)) / math.pi, rng.uniform(0.0, 2.0)]


def _lerp_int(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


def _log_int(lo: int, hi: int, u: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


class Generator:
    """Endless seeded stream of operation specs for one workload."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = np.random.default_rng([seed, _WORKLOAD_KEYS[workload]])
        self.strata = {}
        self.cycles = {}
        self.queue = []
        self.count = 0

    def _u(self, key: str) -> float:
        if key not in self.strata:
            self.strata[key] = Strata(self.rng)
        return self.strata[key].next()

    def _physics(self, kind: str, scenarios: tuple) -> dict:
        rng = self.rng
        cycle = self.cycles.setdefault(kind, [])
        if not cycle:
            combos = list(itertools.product(
                scenarios, RULES, (False, True),
                (False, True) if kind == "optimize" else (None,)))
            cycle.extend(combos[i] for i in rng.permutation(len(combos)))
        scenario, rule, random_hp, eight_angles = cycle.pop()
        model = {"rule": rule, "beta": rng.uniform(0.0, MAX_BETA)}
        if rule == "tilt":
            model["m"] = _unit(rng)
        elif rule == "custom":
            model["v"] = _unit(rng) * rng.uniform(0.0, 1.0)
        spec = {"scenario": scenario, "model": model,
                "hp": _hermitian4(rng) if random_hp else None}
        if eight_angles is not None:
            spec["eight_angles"] = eight_angles
        return spec

    def next(self) -> dict:
        if not self.queue:
            kinds = KINDS[self.workload]
            self.queue = [kinds[i] for i in self.rng.permutation(len(kinds))]
        kind = self.queue.pop()
        make = {"cli-artifacts": self._cli_artifacts, "landscape": self._landscape,
                "shots": self._shots}[self.workload]
        spec = make(kind)
        spec.update(id=self.count, kind=kind)
        self.count += 1
        return spec

    # one method per workload -------------------------------------------

    def _cli_artifacts(self, kind: str) -> dict:
        rng = self.rng
        sample_like = kind in ("sample", "audit")
        spec = self._physics(kind, ("qm", "s1", "s3") if sample_like else ("qm", "s1", "s2", "s3"))
        if kind == "scan":
            spec["grid_steps"] = _lerp_int(101, 201, self._u(kind))
        elif kind == "sweep":
            spec["betas"] = list(rng.uniform(0.0, MAX_BETA, size=2 + rng.integers(3)))
            spec["theta_steps"] = _lerp_int(361, 721, self._u(kind))
        elif kind == "optimize":
            spec["seed"] = int(rng.integers(1 << 31))
        else:
            spec["shots"] = _log_int(10_000, 1_000_000, self._u(kind))
            spec["noise_p"] = rng.uniform(0.0, 0.3)
            spec["seed"] = int(rng.integers(1 << 31))
            spec["settings"] = {name: _direction(rng)
                                for name in ("a", "a_prime", "b", "b_prime")}
        return spec

    def _landscape(self, kind: str) -> dict:
        rng = self.rng
        spec = self._physics(kind, ("qm", "s1", "s2", "s3"))
        if kind == "scan":
            spec["grid_steps"] = _lerp_int(201, 401, self._u(kind))
        elif kind == "sweep":
            spec["betas"] = list(rng.uniform(0.0, MAX_BETA, size=4))
            spec["theta_steps"] = 721
        else:
            spec["seed"] = int(rng.integers(1 << 31))
        return spec

    def _shots(self, kind: str) -> dict:
        rng = self.rng
        spec = self._physics(kind, ("qm", "s1", "s3"))
        spec["shots"] = _lerp_int(1_000_000, 4_000_000, self._u(kind))
        spec["noise_p"] = rng.uniform(0.0, 0.3)
        spec["seed"] = int(rng.integers(1 << 31))
        spec["settings"] = {name: _direction(rng)
                            for name in ("a", "a_prime", "b", "b_prime")}
        return spec


KINDS = {
    "cli-artifacts": ("scan", "sweep", "optimize", "sample", "audit"),
    "landscape": ("scan", "sweep", "optimize"),
    "shots": ("sample",),
}
_WORKLOAD_KEYS = {"cli-artifacts": 1, "landscape": 2, "shots": 3}
