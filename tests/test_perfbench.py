"""The benchmark harness runs against the current library.

`perfbench/tracer.py` wraps the public calls of every layer (the engine's
`schedule` and `run_until` among them), so an API change that breaks the
harness fails here rather than at the next benchmark run. So does a
change to the bytes of a workload at the size the benchmark measures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))  # its modules import each other by name

import scenarios  # noqa: E402
import worker  # noqa: E402


def test_perfbench_selftest_passes():
    # the selftest removes its own scratch directory under .perfbench_runs/
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("one_cpu", [True, False], ids=["in_process", "forked"])
def test_hybrid_stream_at_full_size_matches_its_digest(monkeypatch, tmp_path, one_cpu):
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif len(os.sched_getaffinity(0)) < 2:
        pytest.skip("with one usable CPU the service runs in this process")
    workload = scenarios.HybridStream(worker.import_convergesim(ROOT), scenarios.DEFAULT_SEED,
                                      scenarios.SIZES["full"], tmp_path)
    workload.run()
    checks = scenarios.Checks()
    workload.check(checks)
    assert checks.problems == []
    assert workload.digest() == scenarios.EXPECTED_DIGESTS["hybrid_stream"]


@pytest.mark.parametrize("one_cpu", [True, False], ids=["in_process", "forked"])
def test_taxonomy_sweep_at_full_size_matches_its_digest(monkeypatch, tmp_path, one_cpu):
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif len(os.sched_getaffinity(0)) < 2:
        pytest.skip("with one usable CPU the cases run in this process")
    workload = scenarios.TaxonomySweep(worker.import_convergesim(ROOT), scenarios.DEFAULT_SEED,
                                       scenarios.SIZES["full"], tmp_path)
    workload.run()
    checks = scenarios.Checks()
    workload.check(checks)
    assert checks.problems == []
    assert workload.digest() == scenarios.EXPECTED_DIGESTS["taxonomy_sweep"]


def test_wide_placement_at_full_size_matches_its_digest():
    workload = scenarios.WidePlacement(worker.import_convergesim(ROOT), scenarios.DEFAULT_SEED,
                                       scenarios.SIZES["full"])
    workload.run()
    checks = scenarios.Checks()
    workload.check(checks)
    assert checks.problems == []
    assert workload.digest() == scenarios.EXPECTED_DIGESTS["wide_placement"]
