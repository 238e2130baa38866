"""Finite-shot Monte Carlo CHSH experiments with depolarizing noise."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotDichotomicError
from .quantum import (
    CHSH_PAIRS, CHSH_SIGNS, ChshSettings, PureState, frozen, moments,
    pauli_parts, spin_observable,
)

#: the labels of the four correlator pairs, in ``CHSH_PAIRS`` order
PAIR_LABELS = ("ab", "abp", "apb", "apbp")
#: pair j draws its counts from stream indices j·2⁶², j·2⁶² + 1, ...: a
#: few per binomial, so the four ranges never meet below 2⁶⁴
PAIR_STRIDE = 1 << 62


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
        # every count is stored as an int64, so N must lie below 2**63; the
        # limit stays at 2**62, which configurations and estimate files meet
        if self.shots_per_pair > 2**62:
            raise ValueError("shots_per_pair must be at most 2**62")
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

    ``counts[label]`` is [n(+,+), n(+,-), n(-,+), n(-,-)], a read-only
    int64 copy of the row passed in, so no later write can undo the check.
    """

    counts: dict
    shots_per_pair: int

    def __post_init__(self):
        rows = {label: frozen(row, np.int64) for label, row in self.counts.items()}
        for label, row in rows.items():
            # the sum of Python ints cannot wrap as an int64 sum can
            if (row.shape != (4,) or row.min() < 0
                    or sum(row.tolist()) != self.shots_per_pair):
                raise ValueError(f"invalid counts for pair {label}")
        object.__setattr__(self, "counts", rows)


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


#: the signs s and t of the four joint outcomes (+,+), (+,-), (-,+), (-,-)
_S, _T = frozen([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]], float)


def _unit_direction(c: np.ndarray) -> tuple[np.ndarray, float]:
    """c/|c| and |c| of an observable c0 I + c . sigma, whose outcomes are c0 +- |c|."""
    norm = np.linalg.norm(c)
    if 2.0 * norm < 1e-12:
        raise NotDichotomicError("observable has a single degenerate eigenvalue")
    return c / norm, norm


def _born(x, y, z) -> np.ndarray:
    """P(s, t) = (1 + s x + t y + s t z) / 4, x = u_a.r_A, y = u_b.r_B, z = u_a.T.u_b."""
    return np.maximum(0.0, (1.0 + _S * x + _T * y + _S * _T * z) / 4.0)


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
    ua, norm_a = _unit_direction(a)
    ub, norm_b = _unit_direction(b)
    probs = _born(ua @ r_a, ub @ r_b, ua @ t @ ub)
    outcomes = np.stack([a0 + _S * norm_a, b0 + _T * norm_b], axis=-1)
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


def estimate_chsh(state: PureState, s: ChshSettings, plan: ShotPlan,
                  observables=None) -> ChshEstimate:
    """Estimate S from N shots per setting pair.

    Each pair's four counts are one draw of Multinomial(N, p), with p its
    Born probabilities (``kernels.draw_counts``), which costs the same at
    every N.  Pair j reads the seed's stream from index j·``PAIR_STRIDE``,
    so the estimate is reproducible for a given seed.  Each observable's
    unit direction is found once (a setting's unit vector if none is given),
    and p equals ``joint_probabilities``' bit for bit.
    """
    if observables is None:
        vectors = [d.unit_vector() for d in (s.a, s.a_prime, s.b, s.b_prime)]
    elif len(observables) == 4:
        vectors = [pauli_parts(obs)[1] for obs in observables]
    else:
        raise ValueError("estimate_chsh needs four observables [A, A', B, B'],"
                         f" got {len(observables)}")
    u = [_unit_direction(c)[0] for c in vectors]
    r_a, r_b, t = depolarize(state, plan.noise_p)
    along = [ui @ r for ui, r in zip(u, (r_a, r_a, r_b, r_b))]  # each on its own side
    ut = [ua @ t for ua in u[:2]]
    n = plan.shots_per_pair
    counts = {}
    for j, ((a, b), label) in enumerate(zip(CHSH_PAIRS, PAIR_LABELS)):
        probs = _born(along[a], along[b], ut[a] @ u[b])
        cumulative = np.minimum(np.cumsum(probs)[:3], 1.0)
        counts[label] = kernels.draw_counts(plan.seed, j * PAIR_STRIDE, n, cumulative)
    return estimate_from_counts(CountsTable(counts=counts, shots_per_pair=n))
