"""``tools/ab.py``: its statistics on fixed numbers, and one child's gated cycles in-process.

The tool is imported with ``tools/`` and ``perfbench/`` on the path; nothing here makes
a worktree or starts a child process.
"""

import importlib
import sys
from pathlib import Path

import pytest

from spinlab import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab():
    paths = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    sys.path[:0] = paths
    try:
        yield importlib.import_module("ab")
    finally:
        for path in paths:
            sys.path.remove(path)


def test_quartiles_and_paired_comparison(ab):
    assert ab.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([10.0, 2.0, 4.0, 8.0]) == (3.5, 6.0, 8.5)
    a = [10.0, 11.0, 12.0, 13.0, 14.0]  # median 12, IQR 2
    b = [9.0, 9.5, 12.5, 9.8, 10.0]  # median 9.8, IQR 0.5
    got = ab.compare(a, b)
    assert got == {
        "rounds": 5,
        "median_a": 12.0,
        "iqr_a": 2.0,
        "median_b": 9.8,
        "iqr_b": 0.5,
        "ratio": 9.8 / 12.0,
        "b_faster": 4,  # not the round where B read 12.5 against 12
        "resolved": True,  # a gap of 2.2 against A's IQR of 2
    }
    # a gap inside A's spread is not resolved, whatever the wins
    near = ab.compare(a, [x - 0.5 for x in a])
    assert near["b_faster"] == 5 and not near["resolved"] and near["ratio"] == 11.5 / 12.0
    assert ab.compare([3.0, 3.0], [3.0, 3.0])["b_faster"] == 0
    for a_, b_ in (([], []), ([1.0], [1.0, 2.0])):
        with pytest.raises(ValueError):
            ab.compare(a_, b_)


def test_verdict_needs_nine_wins_in_ten_and_a_gap_beyond_a_iqr(ab):
    a = [10.0, 11.0, 12.0, 13.0, 14.0] * 2  # median 12, IQR 2
    assert ab.quartiles(a) == (11.0, 12.0, 13.0)

    def verdict(b):
        return ab.verdict(ab.compare(a, b))

    assert verdict([x - 2.5 for x in a]) == "faster"  # 10/10, gap 2.5
    nine = [11.0, 8.0, 9.0, 10.0, 11.0, 7.0, 8.0, 9.0, 10.0, 11.0]  # median 9.5
    assert ab.compare(a, nine)["b_faster"] == 9 and verdict(nine) == "faster"
    eight = [11.0, 12.0, 8.0, 9.0, 10.0, 6.0, 7.0, 8.0, 9.0, 10.0]  # median 9, gap 3
    assert ab.compare(a, eight)["b_faster"] == 8 and ab.compare(a, eight)["resolved"]
    assert verdict(eight) == "unresolved"  # the gap flag alone would read it as a gain
    assert verdict([x - 0.5 for x in a]) == "unresolved"  # 10/10, gap inside A's IQR
    assert verdict([x - 2.0 for x in a]) == "unresolved"  # a gap equal to the IQR
    assert verdict([x + 2.0 for x in a]) == "unresolved"
    assert verdict([x + 2.5 for x in a]) == "slower"
    # slower needs no count of rounds: B faster in 3 of 10, median 15 against 12
    mixed = [9.0, 10.0, 11.0, 16.0, 17.0, 15.0, 15.0, 15.0, 16.0, 17.0]
    assert ab.compare(a, mixed)["b_faster"] == 3 and verdict(mixed) == "slower"
    # below ten rounds nothing is resolved: 2 wins of 2 with a gap, or a gap the other way
    two = ab.compare([10.0, 12.0], [7.0, 8.0])
    assert two["b_faster"] == 2 and two["resolved"] and ab.verdict(two) == "unresolved"
    assert ab.verdict(ab.compare([10.0, 12.0], [15.0, 16.0])) == "unresolved"
    assert ab.verdict(ab.compare(a[:9], [x - 2.5 for x in a[:9]])) == "unresolved"
    line = ab.report("oracle3d", {"A": a, "B": nine}, {"A": a, "B": nine}, 20)
    assert line.startswith("oracle3d (20 cycles a round): ms/cycle A 12.000")
    assert line.endswith("B faster in 9/10 rounds; median gap exceeds A's IQR; verdict: faster")


def test_round_cycles_fill_the_round_for_the_slower_tree(ab):
    assert (ab.CYCLES, ab.ROUND_SECONDS) == (20, 0.5)
    assert ab.round_cycles([0.004, 0.0045]) == 112  # ceil(0.5 / 0.0045): the slower tree
    assert ab.round_cycles([0.0045, 0.004]) == 112
    assert ab.round_cycles([0.025, 0.02]) == 20  # exactly 0.5 s of the slower tree
    assert ab.round_cycles([0.03, 0.2]) == 20  # never fewer than CYCLES


def test_run_cycles_counts_items_and_gate_failures(ab, monkeypatch):
    import workloads

    oracle = workloads.WORKLOADS["oracle3d"]
    items = sum(inv.items for inv in oracle.cycle(1, 0))
    good = ab.run_cycles(cli.main, oracle, seed=1, first=0, cycles=1)
    assert good["items"] == items and good["failed"] == 0 and good["errors"] == []
    assert good["cycles"] == 1 and good["seconds"] > 0.0
    # a command line that exits 0 with output its gate refuses fails its items
    quiet = ab.run_cycles(lambda argv: 0, oracle, seed=1, first=0, cycles=2)
    assert quiet["failed"] == quiet["items"] == 2 * items
    assert len(quiet["errors"]) == 5 and "output is not finite JSON" in quiet["errors"][0]

    def broken(argv):
        raise RuntimeError("boom")

    crashed = ab.run_cycles(broken, oracle, seed=1, first=0, cycles=1)
    assert crashed["failed"] == items and "RuntimeError: boom" in crashed["errors"][0]
