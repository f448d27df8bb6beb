"""The benchmark harness runs against the current library.

`perfbench/tracer.py` wraps the public calls of every layer (the engine's
`schedule` and `run_until` among them), so an API change that breaks the
harness fails here rather than at the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # the selftest removes its own scratch directory under .perfbench_runs/
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
