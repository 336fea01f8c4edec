"""Smoke tests of `tools/abtime.py`, the interleaved A/B timer.  It unpacks
git revisions, so these run only in a git checkout with a commit."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abtime.py"


def has_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", "HEAD"],
                              cwd=ROOT, capture_output=True)
    except OSError:
        return False
    return proc.returncode == 0


pytestmark = pytest.mark.skipif(not has_commit(), reason="needs a git checkout with a commit")


def abtime(*argv):
    return subprocess.run([sys.executable, str(TOOL), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_a_a_comparison_ends_with_a_json_line():
    proc = abtime("verify.criterion_14", "--base", "HEAD", "--change", "HEAD", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["callable"] == "verify.criterion_14"
    assert result["base"] == result["change"] == "HEAD" and result["pairs"] == 2
    assert result["repeats"] > 1        # one call is far shorter than a sample
    assert result["base_median_s"] > 0 and result["change_median_s"] > 0
    low, high = result["ratio_ci95"]
    assert low <= result["median_ratio"] <= high


def test_bad_callable_exits_non_zero_with_one_line():
    proc = abtime("verify.no_such_criterion", "--pairs", "2")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "verify.no_such_criterion" in proc.stderr
