"""``tools/ab_pairs.py`` summarises parent/change pairs per metric: the
parent's median and quartiles, the change's median, the ratio, the
count of pairs the change read lower, and whether the medians differ by
more than the parent's interquartile range."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def _run(wall, rss, correct=True, failed=0):
    return {"correct": correct, "attempted": 24, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


PAIRS = [(_run(1.0, 24.0), _run(0.8, 24.0)),
         (_run(2.0, 24.0), _run(1.5, 24.1)),
         (_run(3.0, 24.0), _run(3.5, 24.1)),
         (_run(4.0, 24.0), _run(2.0, 23.9)),
         (_run(5.0, 24.0), _run(4.0, 24.1))]


def test_summary_per_metric():
    wall, rss = ab_pairs.summary(PAIRS)
    assert wall["metric"] == "wall_s"
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) \
        == (2.0, 3.0, 4.0)
    assert wall["change_median"] == 2.0
    assert wall["ratio"] == pytest.approx(2.0 / 3.0)
    assert (wall["lower"], wall["pairs"]) == (4, 5)
    # equal values are ties, which count for neither side
    assert rss["metric"] == "peak_rss_mb"
    assert (rss["parent_q1"], rss["parent_median"], rss["parent_q3"]) \
        == (24.0, 24.0, 24.0)
    assert rss["change_median"] == 24.1
    assert (rss["lower"], rss["pairs"]) == (1, 5)


def test_one_pair_has_its_value_for_quartiles():
    (wall, _) = ab_pairs.summary(PAIRS[:1])
    assert (wall["parent_q1"], wall["parent_median"], wall["parent_q3"]) \
        == (1.0, 1.0, 1.0)
    assert (wall["lower"], wall["pairs"]) == (1, 1)


def test_a_failed_or_incorrect_run_is_flagged():
    assert not ab_pairs.failed(_run(1.0, 24.0))
    assert ab_pairs.failed(_run(1.0, 24.0, correct=False))
    assert ab_pairs.failed(_run(1.0, 24.0, failed=1))


def test_summary_line_says_whether_the_medians_differ_beyond_the_iqr():
    wall, rss = map(ab_pairs.summary_line, ab_pairs.summary(PAIRS))
    # wall_s: |2.0 - 3.0| is inside the parent's quartiles [2.0, 4.0]
    assert wall == ("  wall_s       3 [2, 4] -> 2 (0.6667), change lower in "
                    "4/5, medians differ by more than the parent's IQR: no")
    # peak_rss_mb: the parent's runs do not spread, so any move is beyond
    assert rss.endswith("24 [24, 24] -> 24.1 (1.0042), change lower in 1/5, "
                        "medians differ by more than the parent's IQR: yes")


def test_pairs_alternate_which_side_runs_first(monkeypatch, tmp_path,
                                               capsys):
    """The parent runs first in odd-numbered pairs, the change in
    even-numbered ones; each pair is still summarised as (parent, change)."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = {parent: [_run(1.0, 24.0), _run(3.0, 24.0)],
            change: [_run(2.0, 24.0), _run(4.0, 24.0)]}
    order = []

    def run_once(directory, workload):
        order.append(directory)
        return runs[directory].pop(0)
    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "2"]
    assert ab_pairs.main(argv) == 0
    assert order == [parent, change, change, parent]
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()[:4]] == [
        "pair 1 parent", "pair 1 change", "pair 2 change", "pair 2 parent"]
    assert "  wall_s       2 [1.5, 2.5] -> 3 (1.5000), change lower in 0/2" \
        in out
