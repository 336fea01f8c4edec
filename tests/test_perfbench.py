"""The benchmark harness runs against the library as it is.

`perfbench/run.py` calls the library by name (see its workloads), so a
rename or removal that breaks a workload shows here as a failed run, not
only when the benchmark is run.  Each workload makes one short pass; the
harness checks its outputs itself and reports the verdict on its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["acceptance", "symmetry", "pipeline"])
def test_perfbench_workload_runs_correctly(workload):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seconds", "0.1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stdout
