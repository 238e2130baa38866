"""Checks of the test-only helpers in ``dense_oracle`` that measure
against the classical bound.  The connected-component count is checked
against scipy in ``test_scipy_oracle``."""

from dense_oracle import lhv_max


class TestLhvMax:
    def test_classical_bound_exact(self):
        best, strategies = lhv_max()
        assert best == 2.0
        assert len(strategies) == 16

    def test_strategy_values_consistent(self):
        _, strategies = lhv_max()
        for a, ap, b, bp, s in strategies:
            assert s == a * (b + bp) + ap * (b - bp)
            assert abs(s) == 2.0
