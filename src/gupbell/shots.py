"""Finite-shot Monte Carlo CHSH experiments with depolarizing noise."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotDichotomicError
from .quantum import (
    CHSH_PAIRS, CHSH_SIGNS, ChshSettings, PureState, moments, pauli_parts,
    spin_observable,
)

#: the labels of the four correlator pairs, in ``CHSH_PAIRS`` order
PAIR_LABELS = ("ab", "abp", "apb", "apbp")


@dataclass(frozen=True)
class ShotPlan:
    """How many shots per setting pair, the stream seed, and the noise."""

    shots_per_pair: int
    seed: int = 42
    noise_p: float = 0.0

    def __post_init__(self):
        # a float seed would sample the stream of its integer part
        for name in ("shots_per_pair", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.shots_per_pair < 1:
            raise ValueError("shots_per_pair must be at least 1")
        # the stream seed is a uint64: any other seed would wrap onto one
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if isinstance(self.noise_p, bool):
            raise TypeError(f"noise_p must be a number, got {self.noise_p!r}")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class CountsTable:
    """Outcome counts per setting pair, binned by outcome sign.

    ``counts[label]`` is [n(+,+), n(+,-), n(-,+), n(-,-)].
    """

    counts: dict
    shots_per_pair: int

    def __post_init__(self):
        for label, row in self.counts.items():
            row = np.asarray(row, dtype=np.int64)
            # the sum of Python ints cannot wrap as an int64 sum can
            if (row.shape != (4,) or row.min() < 0
                    or sum(row.tolist()) != self.shots_per_pair):
                raise ValueError(f"invalid counts for pair {label}")


@dataclass(frozen=True, eq=False)
class ChshEstimate:
    """Shot-based estimate of S with a plug-in standard error."""

    s_hat: float
    stderr: float
    counts: CountsTable
    correlators: dict


def depolarize(state: PureState, p: float):
    """The ``moments`` (r_A, r_B, T) of the depolarized state
    rho = (1-p) |psi><psi| + p I/4: those of |psi><psi| times (1-p), as
    I/4 has none."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing probability must lie in [0, 1]")
    return tuple((1.0 - p) * x for x in moments(state.amplitudes))


def joint_probabilities(rho, obs_a: np.ndarray, obs_b: np.ndarray):
    """Born probabilities for the four joint outcomes, ordered
    (+,+), (+,-), (-,+), (-,-), with the actual outcome eigenvalues, in
    the state whose ``moments`` are rho = (r_A, r_B, T).

    With each observable c0 I + c . sigma, outcomes c0 +- |c| and
    u = c/|c| its unit Bloch direction,
    P(s, t) = (1 + s u_a.r_A + t u_b.r_B + s t u_a.T.u_b) / 4.
    """
    r_a, r_b, t = rho
    a0, a = pauli_parts(obs_a)
    b0, b = pauli_parts(obs_b)
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    if 2.0 * min(norm_a, norm_b) < 1e-12:
        raise NotDichotomicError("observable has a single degenerate eigenvalue")
    ua, ub = a / norm_a, b / norm_b
    sa = np.array([1.0, 1.0, -1.0, -1.0])
    sb = np.array([1.0, -1.0, 1.0, -1.0])
    probs = np.maximum(0.0, (1.0 + sa * (ua @ r_a) + sb * (ub @ r_b)
                             + sa * sb * (ua @ t @ ub)) / 4.0)
    outcomes = np.stack([a0 + sa * norm_a, b0 + sb * norm_b], axis=-1)
    return probs, outcomes


def default_observables(s: ChshSettings):
    """The four uncorrected spin observables [A, A', B, B']."""
    return [spin_observable(d) for d in (s.a, s.a_prime, s.b, s.b_prime)]


def estimate_from_counts(table: CountsTable) -> ChshEstimate:
    """The correlators, S and its plug-in standard error from the counts,
    with outcomes +-1: E = (n(+,+) - n(+,-) - n(-,+) + n(-,-)) / N."""
    n = table.shots_per_pair
    correlators = {}
    s_hat = 0.0
    var_sum = 0.0
    for label, sign in zip(PAIR_LABELS, CHSH_SIGNS):
        # Python ints: an int64 sum of an estimate file's counts could wrap
        pp, pm, mp, mm = np.asarray(table.counts[label]).tolist()
        e_hat = (pp - pm - mp + mm) / n
        correlators[label] = e_hat
        s_hat += sign * e_hat
        var_sum += max(0.0, 1.0 - e_hat * e_hat)
    return ChshEstimate(s_hat=s_hat, stderr=math.sqrt(var_sum / n),
                        counts=table, correlators=correlators)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def estimate_chsh(state: PureState, s: ChshSettings, plan: ShotPlan,
                  observables=None) -> ChshEstimate:
    """Estimate S from N shots per setting pair.

    Shot k of pair j consumes the counter-derived uniform at global
    stream index j*N + k, which makes the estimate reproducible for a
    given seed independent of evaluation order.  So the four pairs are
    dealt round-robin to one thread per usable CPU, at most four: the
    caller samples the first group, and the counts do not depend on the
    number of threads.
    """
    if observables is None:
        observables = default_observables(s)
    if len(observables) != 4:
        raise ValueError("estimate_chsh needs four observables [A, A', B, B'],"
                         f" got {len(observables)}")
    rho = depolarize(state, plan.noise_p)
    n = plan.shots_per_pair
    # every input error raises here, before any thread starts
    cumulative = []
    for a, b in CHSH_PAIRS:
        probs, _ = joint_probabilities(rho, observables[a], observables[b])
        cumulative.append(np.minimum(np.cumsum(probs)[:3], 1.0))
    counts = [None] * len(cumulative)
    errors = []

    def sample(pairs):
        try:
            for j in pairs:
                counts[j] = kernels.sample_counts(plan.seed, j * n, n, cumulative[j])
        except Exception as exc:
            errors.append(exc)

    w = min(len(cumulative), _usable_cpus())
    groups = [range(g, len(cumulative), w) for g in range(w)]
    # daemons, so that an interrupt of the caller ends the process at once
    workers = [threading.Thread(target=sample, args=(group,), daemon=True)
               for group in groups[1:]]
    for worker in workers:
        worker.start()
    sample(groups[0])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return estimate_from_counts(CountsTable(counts=dict(zip(PAIR_LABELS, counts)),
                                            shots_per_pair=n))
