"""``tools/bench.py`` times gklab's frames in fresh processes and writes a
BENCH file.  One small frame, run once on a copy of the source, fills every
key; no timing is asserted.  Two checkouts alternate, each run its own
number of times, and a run past the time limit is ended and fails."""

import hashlib
import json
import shutil
import sys
from pathlib import Path

import pytest

from gklab import cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench


def _copy(checkout: Path) -> Path:
    shutil.copytree(ROOT / "src" / "gklab", checkout / "src" / "gklab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return checkout


def _frame(name: str) -> dict[str, list[str]]:
    return {name: bench.frames(ROOT)[name]}


def test_frames_are_the_suites_and_the_frame_specs():
    frames = bench.frames(ROOT)
    specs = sorted(p.stem for p in (ROOT / "tools" / "frames").glob("*.json"))
    assert list(frames) == [
        "verify classifier", "verify figure3", "verify frobenius-families",
        "verify invariants", "verify twofrobenius",
        "verify invariants --count 1000", *(f"analyze {s}" for s in specs)]
    assert frames["analyze wb6"] == ["analyze", "tools/frames/wb6.json"]


def test_one_small_frame_run_once(tmp_path, capsys):
    """The frame's stdout hash is that of the same command run here, and
    its peak is its own: the launcher holds 128 MB more than the frame
    needs, and none of it is carried into the frame's peak."""
    checkout = _copy(tmp_path / "checkout")
    ballast = bytearray(128 << 20)
    report = bench.bench([checkout], _frame("verify classifier"), runs=1)
    del ballast
    report = json.loads(json.dumps(report))
    assert not bench.failed(report)
    assert set(report) == {"machine", "settings", "checkouts"}
    assert set(report["machine"]) == {"python", "nproc", "cpu",
                                      "loadavg_1m"}
    (frames,) = report["checkouts"]
    assert list(frames) == ["verify classifier"]
    frame = frames["verify classifier"]
    assert set(frame) == {"command", "runs", "wall_s", "peak_rss_mb", "exit",
                          "stdout_sha256", "samples"}
    assert (frame["command"], frame["runs"], frame["exit"]) == (
        ["gklab", "verify", "classifier"], 1, [0])
    for metric in ("wall_s", "peak_rss_mb"):
        assert set(frame[metric]) == {"q1", "median", "q3"}
    (sample,) = frame["samples"]
    assert set(sample) == {"wall_s", "peak_rss_mb", "exit", "stdout_sha256"}
    assert sample["peak_rss_mb"] < 64
    capsys.readouterr()
    assert cli.main(["verify", "classifier"]) == 0
    printed = capsys.readouterr().out.encode()
    assert frame["stdout_sha256"] == [hashlib.sha256(printed).hexdigest()]


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench.main([str(tmp_path)])  # no src/gklab there
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        bench.main([str(ROOT), "--runs", "1"])  # the counts are fixed
    assert exc.value.code == 2


def test_checkouts_alternate(tmp_path):
    """Two copies, two runs of one frame: each copy reports its own two
    runs, in the order the copies were given, with the same bytes."""
    copies = [_copy(tmp_path / name) for name in ("a", "b")]
    report = bench.bench(copies, _frame("verify classifier"), runs=2)
    assert not bench.failed(report)
    a, b = report["checkouts"]
    assert a["verify classifier"]["runs"] == b["verify classifier"]["runs"] \
        == 2
    assert a["verify classifier"]["stdout_sha256"] == \
        b["verify classifier"]["stdout_sha256"]


def test_run_past_the_time_limit_is_ended(tmp_path, monkeypatch):
    """A frame still running after RUN_TIMEOUT_S is ended by SIGALRM,
    reads exit -14, and fails the report."""
    checkout = _copy(tmp_path / "checkout")
    shutil.copytree(ROOT / "tools" / "frames", checkout / "tools" / "frames")
    monkeypatch.setattr(bench, "RUN_TIMEOUT_S", 1)
    report = bench.bench([checkout], _frame("analyze gl2_31"), runs=1)
    (frames,) = report["checkouts"]
    assert frames["analyze gl2_31"]["exit"] == [-14]
    assert bench.failed(report)
