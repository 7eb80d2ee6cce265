"""The README's examples run as shown: the "Quick taste" snippet prints what
its comments say, and the example spec file analyses."""

import json
import re
from pathlib import Path

from gklab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(lang):
    """The one fenced block of the given language in README.md."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return block


def test_quick_taste_prints_its_comments(capsys):
    code = _block("python")
    exec(compile(code, "README.md", "exec"), {})
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert shown == ["6", "True", "PrimeGraph(vertices=(2, 3), edges=())"]
    assert capsys.readouterr().out.splitlines() == shown


def test_example_spec_analyses(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "report.json"
    spec.write_text(_block("json"), encoding="utf-8")
    assert cli.main(["analyze", str(spec), "-o", str(out)]) == 0
    groups = json.loads(out.read_text(encoding="utf-8"))["groups"]
    assert {"s3", "q8", "c2", "d", "e"} <= set(groups)
    assert groups["e"]["order"] == 200
