"""Device-independent security metrics derived from a CHSH violation.

The min-entropy expression is the standard device-independent literature
bound for 2 <= S <= 2*sqrt(2); above the quantum maximum no derivation
exists, so the bound is clamped at one bit, the largest value the
formula gives (at S = 2*sqrt(2)), and flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GupBellError
from .quantum import CLASSICAL_BOUND, TSIRELSON
from .shots import ChshEstimate


@dataclass(frozen=True)
class SecurityReport:
    s_observed: float
    s_baseline: float
    margin: float
    minentropy_bits: float
    beyond_quantum: bool
    alarm: bool
    alarm_sigma: float


def violation_margin(s: float) -> float:
    """Distance of the observed S above the classical bound."""
    if not math.isfinite(s):
        raise ValueError("S must be finite")
    return s - CLASSICAL_BOUND


def minentropy_bound(s: float) -> tuple[float, bool]:
    """Certified min-entropy bits per output bit, and whether the input
    exceeds the quantum maximum (where the bound is clamped)."""
    if not math.isfinite(s):
        raise ValueError("S must be finite")
    if s <= CLASSICAL_BOUND:
        return 0.0, False
    if s > TSIRELSON:
        return 1.0, True
    # max() guards the sqrt against float residue at s = 2*sqrt(2)
    bits = -math.log2(0.5 + 0.5 * math.sqrt(max(0.0, 2.0 - s * s / 4.0)))
    return bits, False


def eavesdrop_test(baseline: ChshEstimate, observed: ChshEstimate,
                   k_sigma: float = 5.0) -> tuple[bool, float]:
    """One-sided drop test: alarm when the observed S falls more than
    k_sigma combined standard errors below the baseline."""
    sigma = math.hypot(baseline.stderr, observed.stderr)
    if sigma == 0.0:
        raise GupBellError("both estimates have zero stderr; significance undefined")
    drop_sigma = (baseline.s_hat - observed.s_hat) / sigma
    return drop_sigma > k_sigma, drop_sigma


def build_report(baseline: ChshEstimate, observed: ChshEstimate,
                 k_sigma: float = 5.0) -> SecurityReport:
    bits, beyond = minentropy_bound(observed.s_hat)
    alarm, drop_sigma = eavesdrop_test(baseline, observed, k_sigma)
    return SecurityReport(
        s_observed=observed.s_hat,
        s_baseline=baseline.s_hat,
        margin=violation_margin(observed.s_hat),
        minentropy_bits=bits,
        beyond_quantum=beyond,
        alarm=alarm,
        alarm_sigma=drop_sigma,
    )
