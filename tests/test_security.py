import inspect
import math
import typing

import pytest

from gupbell import security
from gupbell.errors import GupBellError
from gupbell.security import (
    build_report, eavesdrop_test, minentropy_bound, violation_margin,
)
from gupbell.shots import ChshEstimate, CountsTable

TSIRELSON = 2.0 * math.sqrt(2.0)


def fake_estimate(s_hat, stderr):
    table = CountsTable(counts={k: [1, 0, 0, 0]
                                for k in ("ab", "abp", "apb", "apbp")},
                        shots_per_pair=1)
    return ChshEstimate(s_hat=s_hat, stderr=stderr, counts=table, correlators={})


class TestViolationMargin:
    def test_margin(self):
        assert violation_margin(2.5) == pytest.approx(0.5)
        assert violation_margin(1.0) == pytest.approx(-1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            violation_margin(math.nan)


class TestMinentropyBound:
    def test_boundary_values_exact(self):
        assert minentropy_bound(2.0) == (0.0, False)
        assert minentropy_bound(TSIRELSON) == (1.0, False)

    def test_no_certification_below_classical(self):
        assert minentropy_bound(1.0) == (0.0, False)

    def test_clamped_beyond_quantum(self):
        bits, beyond = minentropy_bound(3.5)
        assert bits == 1.0
        assert beyond

    def test_interior_formula(self):
        s = 2.5
        want = -math.log2(0.5 + 0.5 * math.sqrt(2.0 - s * s / 4.0))
        bits, beyond = minentropy_bound(s)
        assert bits == pytest.approx(want, abs=1e-15)
        assert not beyond

    def test_monotone_in_violation(self):
        grid = [2.0 + 0.8 * k / 50 for k in range(51)]
        bits = [minentropy_bound(s)[0] for s in grid]
        assert all(b1 <= b2 + 1e-15 for b1, b2 in zip(bits, bits[1:]))


class TestEavesdropTest:
    def test_reference_drop(self):
        # [DERIVED] drop of 0.2 against combined sigma 0.01*sqrt(2)
        alarm, drop = eavesdrop_test(fake_estimate(2.9, 0.01),
                                     fake_estimate(2.7, 0.01), k_sigma=5.0)
        assert drop == pytest.approx(0.2 / (0.01 * math.sqrt(2.0)), abs=1e-12)
        assert alarm

    def test_no_alarm_for_small_drop(self):
        alarm, drop = eavesdrop_test(fake_estimate(2.8, 0.01),
                                     fake_estimate(2.79, 0.01), k_sigma=5.0)
        assert not alarm
        assert drop < 5.0

    def test_one_sided(self):
        alarm, drop = eavesdrop_test(fake_estimate(2.5, 0.01),
                                     fake_estimate(2.8, 0.01), k_sigma=5.0)
        assert not alarm
        assert drop < 0.0

    def test_zero_sigma_rejected(self):
        with pytest.raises(GupBellError):
            eavesdrop_test(fake_estimate(2.8, 0.0), fake_estimate(2.7, 0.0))


class TestBuildReport:
    def test_fields(self):
        report = build_report(fake_estimate(2.9, 0.01),
                              fake_estimate(2.7, 0.01), k_sigma=5.0)
        assert report.s_observed == 2.7
        assert report.s_baseline == 2.9
        assert report.margin == pytest.approx(0.7)
        assert report.minentropy_bits == pytest.approx(
            minentropy_bound(2.7)[0])
        assert not report.beyond_quantum
        assert report.alarm
        assert report.alarm_sigma == pytest.approx(14.1421356, abs=1e-6)


@pytest.mark.parametrize("check", [eavesdrop_test, build_report])
@pytest.mark.parametrize("k_sigma", [math.nan, -1.0, math.inf])
def test_rejects_k_sigma_outside_the_cli_range(check, k_sigma):
    # the CLI's k_sigma checker takes finite values >= 0; a nan would
    # compare false against every drop and silently disable the alarm
    with pytest.raises(ValueError, match="k_sigma"):
        check(fake_estimate(2.9, 0.01), fake_estimate(2.7, 0.01), k_sigma=k_sigma)


def test_zero_k_sigma_alarms_on_any_drop():
    alarm, drop = eavesdrop_test(fake_estimate(2.8, 0.01),
                                 fake_estimate(2.79, 0.01), k_sigma=0.0)
    assert alarm and drop > 0.0


@pytest.mark.parametrize("name", sorted(
    name for name, fn in inspect.getmembers(security, inspect.isfunction)
    if fn.__module__ == security.__name__ and not name.startswith("_")))
def test_annotations_name_defined_types(name):
    # every annotation resolves, so each type it names is in scope
    typing.get_type_hints(getattr(security, name))
