"""``tools/code_lines.py`` counts code lines only: no docstrings, comments
or blank lines."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""
# a comment

import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        three lines."""
        s = """a string that is no docstring,
        counted on both lines"""
        return (x,
                s)

    async def g(self):
        'one-line docstring'
        return 1


def h():
    return """not a docstring"""
'''


def test_counts_code_lines_only():
    # import, class, def f, s (2 lines), return (2 lines), async def g,
    # return 1, def h, return
    assert code_lines.code_lines(FIXTURE) == 11
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""a docstring"""\n\n# a note\n') == 0


def test_prints_a_count_per_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\ny = 2\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = [line.split(maxsplit=1) for line in proc.stdout.splitlines()]
    assert counts == [["11", str(tmp_path / "a.py")],
                      ["2", str(tmp_path / "sub" / "b.py")],
                      ["13", "total"]]


def test_help_prints_usage_and_a_missing_path_exits_2(tmp_path):
    def run(*args):
        return subprocess.run([sys.executable, str(TOOL), *args],
                              capture_output=True, text=True, timeout=60)
    helped = run("--help")
    assert helped.returncode == 0, helped.stderr
    assert helped.stdout.startswith("usage:") and "PATH" in helped.stdout
    missing = run(str(tmp_path / "absent.py"))
    assert missing.returncode == 2 and missing.stdout == ""
    errors = [line for line in missing.stderr.splitlines() if "error:" in line]
    assert errors == [f"code_lines.py: error: no such file or directory: "
                      f"{tmp_path / 'absent.py'}"]
    assert "Traceback" not in missing.stderr
