"""Golden reports: the default scenarios at seed 42 must emit exactly the
recorded bytes.

The scaling study and hybrid digests are the benchmark's own
(`perfbench/scenarios.py`, `GOLDEN_REPORTS`), so there is one copy of
them; the taxonomy digests are recorded here. When the checkout has the
committed reports under `out/`, the regenerated files must also equal
them byte for byte.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from convergesim.orchestrator import HYBRID, TAXONOMY, default_config, run_scenario
from convergesim.reporting import emit_report

ROOT = Path(__file__).resolve().parent.parent


def _benchmark_goldens() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_scenarios", ROOT / "perfbench" / "scenarios.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_REPORTS


GOLDEN = {
    **_benchmark_goldens(),
    TAXONOMY: ("taxonomy", {
        "bundle.json": "3e105ff80b5b9b0675987cf9b988bea2bc16df55a799fec38f7b8867e4930c1b",
        "taxonomy_conflict.svg":
            "55d519fabd05e626022546ced7e4871f61e5f8c4c837846b5e793aa2391a5516",
        "taxonomy_metrics.csv":
            "e62292eb9ba4475845d24ea5d71201039e9464745c579e89fd8bbd4467c7fed2",
    }),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_default_reports_match_golden_bytes(kind, tmp_path):
    subdir, expected = GOLDEN[kind]
    paths = emit_report(run_scenario(default_config(kind, seed=42)), tmp_path)
    emitted = {p.name: p.read_bytes() for p in paths}
    assert sorted(emitted) == sorted(expected)
    for name, data in emitted.items():
        assert hashlib.sha256(data).hexdigest() == expected[name], name
    committed = ROOT / "out" / subdir
    if committed.is_dir():
        for name, data in emitted.items():
            assert (committed / name).read_bytes() == data, f"out/{subdir}/{name}"


def _pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# the seed-42 default scenarios, as config files
CLI_CONFIGS = {
    TAXONOMY: "[experiment]\nkind = taxonomy\nseed = 42\n",
    HYBRID: "[experiment]\nkind = hybrid\nseed = 42\n[cluster]\nnodes = 5\n",
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("kind", sorted(CLI_CONFIGS))
def test_cli_report_is_the_same_on_one_cpu_and_on_all(kind, tmp_path):
    # one usable CPU runs the taxonomy cases and the hybrid ML service
    # in-process, more run them in forked processes; both must write the
    # golden bytes
    config = tmp_path / f"{kind}.ini"
    config.write_text(CLI_CONFIGS[kind])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reports = []
    for name, preexec_fn in (("pinned", _pin_to_one_cpu), ("unpinned", None)):
        result = subprocess.run(
            [sys.executable, "-m", "convergesim.cli", "run", "--config", str(config),
             "--out", str(tmp_path / name)],
            env=env, capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn)
        assert result.returncode == 0, result.stderr
        reports.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    pinned, unpinned = reports
    assert pinned == unpinned
    _, expected = GOLDEN[kind]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in pinned.items()} == expected
