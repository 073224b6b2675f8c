"""scripts/bench_pairs.py: the summary of fixed pairs (no benchmark runs)."""

import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
# the script imports its sibling compare_with, as it does when run directly
sys.path.insert(0, str(SCRIPTS))
try:
    _spec.loader.exec_module(bench_pairs)
finally:
    sys.path.remove(str(SCRIPTS))

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_share", "unit": "share", "better": "higher", "bound": 0.1},
]
# (REV, change) per pair; the change wins pairs 1, 2, 4 and 5 on wall_s
WALLS = [(0.30, 0.20), (0.25, 0.21), (0.20, 0.22), (0.40, 0.19), (0.35, 0.18)]
PAIRS = [({"wall_s": a, "pass_share": 1.0}, {"wall_s": b, "pass_share": 1.0})
         for a, b in WALLS]


def test_summary_medians_quartiles_and_wins():
    wall, share = bench_pairs.summarize(METRICS, PAIRS)
    assert wall == ("wall_s", "s", (0.25, 0.30, 0.35), (0.19, 0.20, 0.21), 4, 0)
    assert share == ("pass_share", "share", (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0, 5)


def test_higher_is_better_counts_the_larger_side():
    pairs = [({"pass_share": a}, {"pass_share": b}) for a, b in ((1.0, 0.9), (0.8, 1.0))]
    (row,) = bench_pairs.summarize(METRICS[1:], pairs)
    assert row[4:] == (1, 0)


def test_table_reads_the_shift_the_spread_and_the_wins():
    table = bench_pairs.format_table(
        "abc123", [("dirac-estimates", 5, bench_pairs.summarize(METRICS, PAIRS))])
    lines = table.splitlines()
    assert lines[0] == ("| workload | metric | abc123 | change | median change | abc123 IQR "
                        "| change better |")
    assert lines[2] == ("| dirac-estimates | `wall_s` | 0.3 [0.25, 0.35] s "
                        "| 0.2 [0.19, 0.21] s | -33.3% | 0.1 s | 4/5 |")
    # every pair tied: no winner to count
    assert lines[3].endswith("| +0.0% | 0 share | — |")


def test_pair_line_prints_every_metric_of_both_sides_in_run_order():
    rev, change = PAIRS[1]
    line = bench_pairs.pair_line("contact-verify", 2, METRICS, {"change": change, "rev": rev})
    assert line == ("contact-verify pair 2: change wall_s 0.21 pass_share 1  "
                    "rev wall_s 0.25 pass_share 1")
