"""The verdict rule of ``tools/perf_ab.py`` on synthetic paired runs."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "perf_ab.py")
_spec = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ab)
verdict = perf_ab.verdict

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


class TestVerdict:
    def test_gain_lower_is_better(self):
        change = [b - 0.2 for b in BASE]
        assert verdict(BASE, change, "lower", 0.25) == "gain"

    def test_gain_higher_is_better(self):
        change = [b + 0.2 for b in BASE]
        assert verdict(BASE, change, "higher", 0.25) == "gain"

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [b - 0.2 for b in BASE[:8]] + [b + 0.01 for b in BASE[8:]]
        assert verdict(BASE, change, "lower", 0.25) == "no worse"

    def test_ties_count_for_neither(self):
        # 8 wins, 2 ties: below 9/10
        change = [b - 0.2 for b in BASE[:8]] + BASE[8:]
        assert verdict(BASE, change, "lower", 0.25) == "no worse"

    def test_nine_wins_but_gap_within_parent_spread(self):
        # Q1–Q3 of BASE is ~0.03; a 0.01 shift wins every pair but is no gain
        change = [b - 0.01 for b in BASE]
        assert verdict(BASE, change, "lower", 0.25) == "no worse"

    @pytest.mark.parametrize("better,shift", [("lower", 0.3), ("higher", -0.3)])
    def test_worse_beyond_bound(self, better, shift):
        change = [b + shift for b in BASE]
        assert verdict(BASE, change, better, 0.25) == "worse"

    def test_worse_within_bound_is_no_worse(self):
        change = [b + 0.1 for b in BASE]
        assert verdict(BASE, change, "lower", 0.25) == "no worse"

    def test_wide_parent_spread_is_unresolved(self):
        base = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        assert verdict(base, list(base), "lower", 0.25) == "unresolved"

    def test_wide_parent_spread_resolved_when_change_beats_every_run(self):
        base = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        # every change run below every parent run, but the median gap
        # (0.55) is inside the parent's Q1–Q3 distance (0.65): no gain
        change = [0.4, 0.45, 0.42, 0.41, 0.44, 0.43, 0.46, 0.47, 0.48, 0.49]
        assert verdict(base, change, "lower", 0.25) == "no worse"
        change[0] = 0.55  # one change run no longer beats every parent run
        assert verdict(base, change, "lower", 0.25) == "unresolved"
