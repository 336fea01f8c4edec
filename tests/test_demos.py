import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's standard output; a change to what a demo prints
# changes its entry here.  They do not depend on PYTHONHASHSEED.
DEMO_STDOUT_SHA256 = {
    "01_sites_and_posets.py": "d446258c0a62182cd3f475e9544d87cd75f205b7e6c14b289021a2976c14beb7",
    "02_alexandrov_opens.py": "9def237b8e2d0e60643e86463fa3216c9f0fffeab048f799473969a8fa117614",
    "03_heyting_logic.py": "9ce4dfd67dc34b52f1139c9a1f38a13feff64d61b2e4eed560bbe893393ed464",
    "04_sections_and_cats_manifolds.py":
        "bdb5177bc014208068bdc5fc29bcc7a7c7de13b78eefa86ab51a557d3bd77fc9",
    "05_groupoid_stacks.py": "2f53b2a3611fb5474eea56f928b3f03a4da6579d49feb6858b6e24cde7fd60ea",
    "06_semantic_information.py":
        "9266b6c75dc814c9c2228bb580186da8e92f82078794da1664e9b589696463a9",
    "07_carnap_language.py": "2c75c66c3f3f81f74474ad1b897b0b49c167ddb71b1dc97d479c6c7d6a77e90e",
    "08_memory_cells_and_cusp.py":
        "d6a85fd539f0526eefb26b9af7100d5468f4c29201ea3443674457417c5256e4",
    "09_backprop_paths.py": "fb679ffa1787ff42a17251c2e6148d65392d10a4026f52a703bc62e7c16eb500",
}


def test_every_demo_has_a_pinned_output():
    assert sorted(DEMO_STDOUT_SHA256) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo.name]
