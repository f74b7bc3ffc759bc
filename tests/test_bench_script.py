"""The claim rule of scripts/bench.py on hand-made pairs of runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_script", Path(__file__).resolve().parents[1] / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def pairs_of(base, change, metric="command_s"):
    return [{"seed": i, "base": {"metrics": {metric: b}}, "change": {"metrics": {metric: c}}}
            for i, (b, c) in enumerate(zip(base, change))]


BASE = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.1, 9.9]


def test_parse_seeds():
    assert bench.parse_seeds("601-603,610") == [601, 602, 603, 610]


def test_claim_met_with_nine_wins_and_a_gap_beyond_the_iqr():
    change = [8.0] * 9 + [10.5]
    s = bench.summarize(pairs_of(BASE, change), "command_s", "lower")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["median_gap_in_better_direction"] > s["base_iqr"]
    assert s["claim_rule_met"]


@pytest.mark.parametrize("change", [
    [8.0] * 8 + [10.5, 10.5],          # 8 of 10 won
    [b - 0.05 for b in BASE],          # every pair won, gap inside the IQR
    [8.0] * 8 + [BASE[8], BASE[9]],    # two ties count for neither side
])
def test_claim_not_met(change):
    assert not bench.summarize(pairs_of(BASE, change), "command_s", "lower")["claim_rule_met"]


def test_higher_is_better_and_failed_runs_count_as_lost():
    pairs = pairs_of(BASE, [b * 2 for b in BASE], "items_per_s")
    assert bench.summarize(pairs, "items_per_s", "higher")["claim_rule_met"]
    pairs[0]["change"] = {"seed": 0, "error": "exit 1"}
    pairs[1]["change"] = {"seed": 1, "error": "exit 1"}
    s = bench.summarize(pairs, "items_per_s", "higher")
    assert s["wins"] == 8 and s["pairs"] == 10 and not s["claim_rule_met"]
