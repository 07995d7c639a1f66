"""The claim rule of tools/bench_pairs.py, on synthetic runs (no subprocess)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
PARENT = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045


def runs(values, failed=0, attempted=10):
    return [{"metrics": {"wall_s": {"value": v}}, "failed": failed, "attempted": attempted} for v in values]


def row(parent, change):
    """(wins, gain, bound) columns of the wall_s line."""
    lines = bench_pairs.summarise(SPEC, runs(parent), runs(change))
    fields = next(line for line in lines if line.startswith("wall_s")).split()
    return fields[5], fields[6], fields[7]


def test_nine_of_ten_wins_beyond_the_iqr_is_a_gain():
    assert row(PARENT, [0.8] * 9 + [2.0]) == ("9/10", "yes", "ok")


def test_eight_of_ten_wins_is_no_gain():
    assert row(PARENT, [0.8] * 8 + [2.0, 2.0]) == ("8/10", "no", "ok")


def test_a_gap_inside_the_parents_iqr_is_no_gain():
    parent = [1.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    change = [v - 0.01 for v in parent[:9]] + [5.0]
    assert row(parent, change) == ("9/10", "no", "ok")


def test_a_median_thirty_percent_worse_breaks_the_bound():
    assert row(PARENT, [1.3 * v for v in PARENT]) == ("0/10", "no", "WORSE")


def test_failed_and_attempted_sum_over_runs():
    parent = runs(PARENT, failed=0, attempted=7)
    change = [dict(r, failed=i % 2) for i, r in enumerate(runs(PARENT, attempted=7))]
    lines = bench_pairs.summarise(SPEC, parent, change)
    assert lines[-2:] == ["parent failed/attempted = 0/70", "change failed/attempted = 5/70"]
