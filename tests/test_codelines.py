"""Tests of `tools/codelines.py`, the count of code lines per module."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "codelines.py"

# 7 code lines: the two imports, the constant's two lines, the def, the
# return and the class line; not the docstrings, comments or blank lines
SYNTHETIC = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line
import sys

# a comment line
TEXT = """a string that is not a docstring
spans two lines"""


def f():
    """A function docstring."""
    return os, sys


class C:
    """A class docstring
    over two lines."""
'''


def test_counts_code_lines_of_a_synthetic_module(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["     0  empty.py", "     7  synthetic.py",
                                        "     7  total"]


def test_counts_the_package_by_default():
    proc = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    modules = sorted(p.name for p in (ROOT / "src" / "sheafnet").glob("*.py"))
    assert [line.split()[1] for line in lines] == modules + ["total"]
    assert sum(int(line.split()[0]) for line in lines[:-1]) == int(lines[-1].split()[0])
