"""``tools/ab_pairs.py`` summarises parent/change pairs per metric: the
parent's median and quartiles, the change's median, the ratio, the
count of pairs the change read lower, whether the medians differ by
more than the parent's interquartile range, whether the claim rule is met,
and whether the change is worse than the metric's bound in
``BENCHMARK.json``."""

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
                    "4/5, medians differ by more than the parent's IQR: no, "
                    "claim rule met: no, worse than the bound (0.24): no")
    # peak_rss_mb: the parent's runs do not spread, so any move is beyond
    assert rss.endswith("24 [24, 24] -> 24.1 (1.0042), change lower in 1/5, "
                        "medians differ by more than the parent's IQR: yes, "
                        "claim rule met: no, worse than the bound (0.15): no")


def _ten_pairs(parent, change):
    return [(_run(p, 24.0), _run(c, 24.0)) for p, c in zip(parent, change)]


SPREAD = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


@pytest.mark.parametrize("change, met", [
    # lower in 10/10 and in 9/10, the medians 0.2 apart, the IQR 0.04
    ([x - 0.2 for x in SPREAD], True),
    ([x - 0.2 for x in SPREAD[:9]] + [1.1], True),
    # a tie counts for neither side: 9 lower and 1 tie still meet it,
    # 8 lower and 2 ties, or 8 lower and 2 higher, do not
    ([x - 0.2 for x in SPREAD[:9]] + [SPREAD[9]], True),
    ([x - 0.2 for x in SPREAD[:8]] + SPREAD[8:], False),
    ([x - 0.2 for x in SPREAD[:8]] + [1.1, 1.1], False),
    # lower in 10/10, but the medians only 0.01 apart
    ([x - 0.01 for x in SPREAD], False),
    # beyond the IQR, but higher
    ([x + 0.2 for x in SPREAD], False),
], ids=["10 of 10", "9 of 10", "9 and a tie", "8 and 2 ties", "8 of 10",
        "inside the IQR", "higher"])
def test_claim_rule(change, met):
    """The claim rule on 10 pairs: the change lower in at least 9, ties
    counting for neither side, and its median below the parent's by more
    than the parent's interquartile range."""
    wall, _ = ab_pairs.summary(_ten_pairs(SPREAD, change))
    assert wall["claim_met"] is met
    assert wall["bound"] == 0.24
    assert f"claim rule met: {'yes' if met else 'no'}," in \
        ab_pairs.summary_line(wall)


def test_claim_rule_needs_ten_pairs():
    """Fewer than 10 pairs never meet the claim rule, however they read."""
    pairs = _ten_pairs(SPREAD, [x - 0.2 for x in SPREAD])
    assert ab_pairs.summary(pairs)[0]["claim_met"]
    assert not ab_pairs.summary(pairs[:9])[0]["claim_met"]
    assert not ab_pairs.summary(pairs[:1])[0]["claim_met"]


@pytest.mark.parametrize("factor, rss_factor, worse", [
    (1.23, 1.14, (False, False)), (1.25, 1.14, (True, False)),
    (1.23, 1.16, (False, True)), (0.5, 0.5, (False, False))])
def test_worse_than_the_bound(factor, rss_factor, worse):
    """A metric is worse than its bound when the change's median exceeds
    the parent's by more than the bound's fraction of it: 0.24 for wall_s
    and 0.15 for peak_rss_mb, read from BENCHMARK.json."""
    pairs = [(_run(1.0, 100.0), _run(factor, 100.0 * rss_factor))] * 10
    wall, rss = ab_pairs.summary(pairs)
    assert (wall["bound"], rss["bound"]) == (0.24, 0.15)
    assert (wall["worse_than_bound"], rss["worse_than_bound"]) == worse
    assert ab_pairs.summary_line(rss).endswith(
        f"worse than the bound (0.15): {'yes' if worse[1] else 'no'}")


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
