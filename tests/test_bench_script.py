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


WIDE = [6.0, 8.0, 10.0, 12.0, 14.0, 7.0, 9.0, 11.0, 13.0, 10.0]  # IQR 0.35 of the median


@pytest.mark.parametrize("base, change, better, verdict", [
    (BASE, [b * 1.1 for b in BASE], "lower", "within_bound"),     # 10% slower, bound 25%
    (BASE, [b * 1.3 for b in BASE], "lower", "worse"),
    (BASE, [b * 0.7 for b in BASE], "higher", "worse"),
    (WIDE, [w * 1.05 for w in WIDE], "lower", "unresolved"),     # spread wider than the bound
    (WIDE, [5.0] * 10, "lower", "within_bound"),                  # every change run is better
    (WIDE, [15.0] * 10, "higher", "within_bound"),
])
def test_no_regression_verdict(base, change, better, verdict):
    s = bench.summarize(pairs_of(base, change, "m"), "m", better, bound=0.25)
    assert s["verdict"] == verdict and s["bound"] == 0.25


def test_verdict_counts_a_failed_run_as_not_better():
    pairs = pairs_of(WIDE, [5.0] * 10)
    pairs[0]["change"] = {"seed": 0, "error": "exit 1"}
    assert bench.summarize(pairs, "command_s", "lower", bound=0.25)["verdict"] == "unresolved"


def test_a_layer_one_side_could_not_see_is_not_observed():
    # the change traces no step times (its training ran in worker processes)
    pairs = pairs_of([12.0, 11.0, 13.0], [0.0, 0.0, 0.0], "trainer.step_ms.77")
    s = bench.summarize_layer(pairs, "trainer.step_ms.77")
    assert s["base"]["median"] == 12.0 and s["change"] == "not_observed"
    # a 0 beside a 0 is a reading, and so is every value of a side that sees the layer
    s = bench.summarize_layer(pairs_of([0.0, 2.0], [0.0, 3.0], "m"), "m")
    assert s["base"]["median"] == 1.0 and s["change"]["median"] == 1.5


def write_timings(run_dir, k, rows):
    path = run_dir / f"round{k}" / "ablate" / "timings.csv"
    path.parent.mkdir(parents=True)
    path.write_text("context,steps,train_s,step_ms_p50,step_ms_p95,worker_peak_rss_mb\n"
                    + "".join(f"{row}\n" for row in rows))


def test_per_context_timings_are_medians_over_rounds_then_runs(tmp_path):
    run_dir = tmp_path / ".perfbench_out" / "ablate-seed7-trace0"
    write_timings(run_dir, 0, ["512,62,6.0,9.0,12.0,80.0", "77,62,3.0,4.0,6.0,60.0"])
    write_timings(run_dir, 1, ["512,62,6.4,9.4,12.0,81.0", "77,62,3.2,4.2,6.0,61.0"])
    write_timings(run_dir, 2, ["512,62,9.0,9.6,12.0,82.0", "77,62,3.1,4.1,6.0,62.0"])
    timings = bench.read_timings(run_dir)
    assert timings["contexts"] == {
        "512": {"train_s": 6.4, "step_ms_p50": 9.4},
        "77": {"train_s": 3.1, "step_ms_p50": 4.1}}
    assert bench.read_timings(tmp_path / "missing") == {}

    slower = {c: {k: 2 * v for k, v in row.items()} for c, row in timings["contexts"].items()}
    pairs = [{"base": {"contexts": timings["contexts"]}, "change": {"contexts": slower}},
             {"base": {"contexts": slower}, "change": {"contexts": slower}},
             {"base": {"error": "exit 1"}, "change": {"contexts": slower}}]
    s = bench.summarize_contexts(pairs)
    assert list(s) == ["77", "512"]  # by context length
    assert s["512"]["train_s"]["base"] == pytest.approx({"q1": 8.0, "median": 9.6, "q3": 11.2})
    assert s["512"]["train_s"]["change"]["median"] == 12.8
    assert set(s["77"]) == {"train_s", "step_ms_p50"}


def test_worker_peak_rss_is_the_largest_row_of_a_round(tmp_path):
    # 77 runs on whichever worker frees first, so its row reads 62 MB in one
    # round and the 512 worker's 80 MB in another; a round's peak does not move
    run_dir = tmp_path / "ablate-seed7-trace0"
    write_timings(run_dir, 0, ["512,62,6.0,9.0,12.0,80.0", "77,62,3.0,4.0,6.0,62.0"])
    write_timings(run_dir, 1, ["512,62,6.4,9.4,12.0,81.0", "77,62,3.2,4.2,6.0,81.0"])
    write_timings(run_dir, 2, ["512,62,9.0,9.6,12.0,79.0", "77,62,3.1,4.1,6.0,63.0"])
    assert bench.read_timings(run_dir)["worker_peak_rss_mb"] == 80.0

    pairs = [{"base": {"worker_peak_rss_mb": b}, "change": {"worker_peak_rss_mb": c}}
             for b, c in ((80.0, 70.0), (82.0, 72.0), (81.0, 71.0))]
    pairs.append({"base": {"error": "exit 1"}, "change": {"worker_peak_rss_mb": 90.0}})
    s = bench.summarize_worker_peak_rss(pairs)
    assert s["base"] == pytest.approx({"q1": 80.5, "median": 81.0, "q3": 81.5})
    assert s["change"]["median"] == 71.5
