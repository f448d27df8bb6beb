"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at the tiny size in each worker mode and requires
no failed operation and no failed check; then shows that the checks
catch a report with one flipped byte, that the committed default reports
still regenerate byte for byte, and that the benchmark refuses to run
without the convergesim sources.  Exits with code 1 if anything fails.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import run
import scenarios
import worker

SCRATCH = run.ROOT / ".perfbench_runs" / "selftest"


def tiny_workers(report):
    for name in scenarios.WORKLOADS:
        for mode in ("plain", "traced", "memory"):
            try:
                result = run.spawn(SCRATCH / f"{name}-{mode}", name, 7, mode, size="tiny")
            except run.WorkerFailed as err:
                report(f"{name} {mode}", False, str(err))
                continue
            ok = result["problems"] == [] and result["failed_ops"] == 0 and result["checks"] > 0
            first = result["iterations"][0]
            if mode == "traced":
                ok = ok and first["layers"]["trace.coverage"] > 0
            if mode == "memory":
                ok = ok and first["mem"]["mem.peak_mb"] > 0
            report(f"{name} {mode}: error_rate 0", ok, result["problems"])
    result = run.spawn(SCRATCH / "growth", None, 7, "growth", size="tiny")
    growth = result["growth"]
    report("growth curve", result["problems"] == [] and len(growth) == 5, result["problems"])
    result = run.spawn(SCRATCH / "golden", None, 7, "golden")
    report("default reports match out/", result["problems"] == [], result["problems"])


def flipped_byte(report):
    cs = worker.import_convergesim(run.ROOT)
    workdir = SCRATCH / "flip"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = scenarios.HybridStream(cs, 7, scenarios.SIZES["tiny"], workdir)
    workload.run()
    clean = scenarios.Checks()
    workload.check(clean)
    report("unmodified report passes", clean.problems == [], clean.problems)
    target = sorted(Path(p) for p in workload.paths)[0]
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    flipped = scenarios.Checks()
    workload.check(flipped)
    report(f"one flipped byte in {target.name} is caught", len(flipped.problems) == 1,
           flipped.problems)


def refuses_without_sources(report):
    bare = SCRATCH / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "hybrid_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    report("refuses to run without src/", done.returncode != 0 and not done.stdout.strip(),
           done.stdout[-500:])


def main():
    failures = []

    def report(name, ok, detail=""):
        print(("PASS " if ok else "FAIL ") + name)
        if not ok:
            print(f"    {detail}")
            failures.append(name)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        tiny_workers(report)
        flipped_byte(report)
        refuses_without_sources(report)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
