"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 7 is a documented exclusion: whole-library cut statistics and the
almost-simple analysis need external databases and are replaced by the
property-based criteria 4-6 below.
"""

import hashlib
import os
import time

import pytest

from gklab import catalog
from gklab.groups import GroupHandle
from gklab.rationality import cut_oracle_via_bg, is_cut_group
from gklab.verify import (_check_group_invariants, _pair_sampling_row,
                          suite_classifier, suite_figure3,
                          suite_frobenius_families, suite_invariants,
                          suite_twofrobenius)


def _report(criterion: str, rows, elapsed: float):
    fails = [r for r in rows if not r[1]]
    status = "PASS" if not fails else "FAIL"
    print(f"\n[{status}] {criterion}: {len(rows) - len(fails)}/{len(rows)}"
          f" in {elapsed:.1f}s")
    for name, _, detail in fails:
        print(f"    fail {name}: {detail}")
    assert not fails, f"{criterion}: {len(fails)} failures"


def _verify_sha256(rows) -> str:
    """sha256 of the rows as ``gklab verify <suite>`` prints them."""
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n"
             for name, ok, detail in rows]
    lines.append(f"{sum(ok for _, ok, _ in rows)}/{len(rows)} pass\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# ``gklab verify <suite>`` output, pinned: every suite prints the same bytes
VERIFY_SHA256 = {
    "figure3":
        "0d4344f87ef63ec84330d533824da79208f38ff85024976613e19e0add963098",
    "twofrobenius":
        "4e9d6e74f4640940a2e5b7807e66617f3d4d5baa2df9dcf346d5945de4fba16e",
    "frobenius-families":
        "6b0f2369a719266d479a6ff450608b39dffbc77885ecf7a1e28e677faf486a71",
    "classifier":
        "d97db74b5fe87257902d639c63ffb836304ba0d65ff5cf6ae24ac90ba128bb95",
    # ``gklab verify invariants --count 60``: every row rests on the
    # normalizer-scan cut oracle
    "invariants":
        "a5d57471f22de27bde76745f00f3c1e599fd38ae4e6aa53437cfe4fecd863924",
}


@pytest.fixture(scope="module")
def corpus_groups() -> dict[str, GroupHandle]:
    return catalog.distinct_corpus(1, 200, 2000)


def test_criterion_1_figure_catalog():
    t0 = time.time()
    rows = suite_figure3()
    elapsed = time.time() - t0
    assert elapsed < 60, f"figure suite took {elapsed:.1f}s"
    _report("criterion 1 (figure catalog)", rows, elapsed)
    assert _verify_sha256(rows) == VERIFY_SHA256["figure3"]


def test_criterion_2_two_frobenius_witnesses():
    t0 = time.time()
    rows = suite_twofrobenius()
    elapsed = time.time() - t0
    assert elapsed < 120, f"two-Frobenius suite took {elapsed:.1f}s"
    _report("criterion 2 (two-Frobenius witnesses)", rows, elapsed)
    assert _verify_sha256(rows) == VERIFY_SHA256["twofrobenius"]


def test_criterion_3_family_sweep():
    t0 = time.time()
    rows = suite_frobenius_families()
    _report("criterion 3 (Frobenius family sweep)", rows, time.time() - t0)
    assert _verify_sha256(rows) == VERIFY_SHA256["frobenius-families"]


def test_criterion_4_dual_oracles(corpus_groups):
    t0 = time.time()
    rows = []
    for label in sorted(corpus_groups):
        G = corpus_groups[label]
        rows.append((label, is_cut_group(G) == cut_oracle_via_bg(G),
                     "dual cut oracles"))
    pair_row = _pair_sampling_row(1, corpus_groups)
    rows.append(pair_row)
    assert int(pair_row[2].split()[0]) >= 50
    _report("criterion 4 (dual oracles + product pairs)", rows,
            time.time() - t0)


def test_criterion_5_lemma_invariants(corpus_groups):
    t0 = time.time()
    rows = []
    for label in sorted(corpus_groups):
        bad = _check_group_invariants(corpus_groups[label])
        rows.append((label, not bad, "; ".join(bad)))
    _report("criterion 5 (lemma invariant scan)", rows, time.time() - t0)


def test_verify_invariants_pinned():
    assert _verify_sha256(suite_invariants(1, 60, 2000)) == \
        VERIFY_SHA256["invariants"]


# ``gklab verify invariants --count 20000 --max-order 20000``, the deep tier:
# 1,529 distinct groups, a few seconds, so it runs only when asked for
DEEP_INVARIANTS_SHA256 = \
    "cf8c37c5073c7c14302af192d7adc404e6fbbf5f5f86bbf03f486152f01aa765"


@pytest.mark.skipif(os.environ.get("GKLAB_DEEP") != "1",
                    reason="the deep invariants tier runs with GKLAB_DEEP=1")
def test_deep_invariants_pinned():
    assert _verify_sha256(suite_invariants(1, 20000, 20000)) == \
        DEEP_INVARIANTS_SHA256


def test_criterion_6_classifier_table():
    t0 = time.time()
    rows = suite_classifier()
    _report("criterion 6 (classifier table)", rows, time.time() - t0)
    assert _verify_sha256(rows) == VERIFY_SHA256["classifier"]


def test_criterion_7_documented_exclusions():
    """Whole-library statistics and character-theoretic machinery are out.

    The cut-percentage statistic over all groups up to order 512 needs a
    small-groups database, and the almost-simple analysis needs character
    tables; neither is shipped.  Criteria 4-6 stand in as property-based
    coverage.  This test pins the dependency surface accordingly.
    """
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'dependencies = ["sympy"]' in text
    print("\n[PASS] criterion 7 (documented exclusion, no extra dependencies)")
