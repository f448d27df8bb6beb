"""Every demo script runs to completion against the current library, and
the allocation-hierarchy demo still narrates the facts it shows.

Each runs in a fresh interpreter with the working directory in a
temporary directory, so the reports some demos write stay out of the
repository.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# demo -> lines of its output that must appear
NARRATED = {
    "allocation_hierarchy": (
        "nested 4-node carve stays inside its parent: True",
        "conservation audit: ok",
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    for fact in NARRATED.get(demo.stem, ()):
        assert fact in result.stdout, fact
