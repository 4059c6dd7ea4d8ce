"""The gain rule of ``scripts/bench_pairs.py``: at least 9 in 10 paired
wins, ties counting for neither, and a median gap, in the metric's
better direction, wider than the parent's interquartile range; and the
verdict line that reports them with the change/parent median ratio."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [100.0, 102.0, 104.0, 106.0, 108.0, 101.0, 103.0, 105.0, 107.0, 109.0]


def test_spread_is_median_and_inclusive_quartiles():
    assert bench_pairs.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.spread([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_holds():
    v = bench_pairs.verdict(PARENT, [p + 20.0 for p in PARENT])
    assert (v.wins, v.ties, v.pairs) == (10, 0, 10)
    assert v.holds


def test_nine_of_ten_wins_is_enough_and_eight_is_not():
    nine = [p + 20.0 for p in PARENT[:9]] + [PARENT[9] - 1.0]
    assert bench_pairs.verdict(PARENT, nine).holds
    eight = nine[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    v = bench_pairs.verdict(PARENT, eight)
    assert v.wins == 8 and not v.holds


def test_ties_count_for_neither_side():
    change = [p + 20.0 for p in PARENT[:9]] + [PARENT[9]]
    v = bench_pairs.verdict(PARENT, change)
    assert (v.wins, v.ties) == (9, 1)
    assert v.holds
    change = [p + 20.0 for p in PARENT[:8]] + PARENT[8:]
    assert not bench_pairs.verdict(PARENT, change).holds


def test_every_win_inside_the_parents_spread_does_not_hold():
    v = bench_pairs.verdict(PARENT, [p + 1.0 for p in PARENT])
    assert v.wins == 10
    assert v.change.median - v.parent.median <= v.parent.q3 - v.parent.q1
    assert not v.holds


def test_lower_is_better_flips_the_direction():
    faster = [p - 20.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, faster, higher_is_better=False).holds
    assert not bench_pairs.verdict(PARENT, faster).holds
    assert bench_pairs.verdict(PARENT, faster).wins == 0


def test_unpaired_input_is_rejected():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1])
    with pytest.raises(ValueError):
        bench_pairs.verdict([], [])


def test_also_lists_extra_metrics_in_order():
    args = bench_pairs.parse_args([
        "--parent", "p", "--change", "c", "--workload", "plan-zoo",
        "--seed", "1", "--also", "peak_rss_mib, setup_s",
    ])
    assert args.also == ["peak_rss_mib", "setup_s"]
    assert args.metric == "ops_per_s"
    assert bench_pairs.parse_args([
        "--parent", "p", "--change", "c", "--workload", "plan-zoo",
        "--seed", "1",
    ]).also == []


@pytest.mark.parametrize("text", ["", "setup_s,", "setup_s,,peak_rss_mib",
                                  "setup_s,setup_s"])
def test_also_rejects_empty_or_repeated_names(text):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args([
            "--parent", "p", "--change", "c", "--workload", "plan-zoo",
            "--seed", "1", "--also", text,
        ])


def test_verdict_line_prints_the_median_ratio():
    change = [p * 1.25 for p in PARENT]
    v = bench_pairs.verdict(PARENT, change)
    assert v.ratio == v.change.median / v.parent.median
    assert abs(v.ratio - 1.25) < 1e-12
    line = bench_pairs.verdict_line(v)
    assert line == (
        f"change wins 10 of 10 pairs (0 ties); change/parent median "
        f"ratio 1.25; parent IQR {v.parent.q3 - v.parent.q1:.4g}; "
        f"gain rule holds"
    )
    slower = bench_pairs.verdict(PARENT, [p * 0.5 for p in PARENT])
    assert "median ratio 0.5;" in bench_pairs.verdict_line(slower)
    assert "does not hold" in bench_pairs.verdict_line(slower)


def test_ratio_of_a_zero_parent_median_is_nan():
    v = bench_pairs.verdict([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert v.ratio != v.ratio
    assert "median ratio nan;" in bench_pairs.verdict_line(v)
