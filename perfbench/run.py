"""Benchmark entry point: run one workload for a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports
convergesim from `src/` of that checkout and exits with code 2 if it is
missing.  Every repetition runs in a fresh interpreter (worker.py), so
peak RSS is per repetition and no process-global state carries over; it
measures worker.ITERATIONS fresh instances of the workload.  Repetitions
are started until their measured phases add up to S seconds (at least
MIN_REPS of them).  Times are medians over all measured phases, set-up
time and peak RSS medians over the repetitions.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates plain and traced repetitions and prints the per-layer
metrics, with the tracing overhead, a tracemalloc repetition and, for
wide_placement, the 64..512-node growth curve.  Both modes first
regenerate the committed default reports and compare them with `out/`.

The last line of output is one JSON object: correct, attempted, failed
and metrics.  A record with provenance, every repetition and the span
totals is written to .perfbench_runs/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import scenarios
from worker import NOMINAL_REFERENCE_S, at_nominal

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_REPS = 5
MIN_TRACE_PAIRS = 3
WORKER_TIMEOUT_S = 60
STOP_STARTING_AFTER_S = 110  # with WORKER_TIMEOUT_S, keeps a run under 180 s
DEFAULT_SEED = scenarios.DEFAULT_SEED
# The simulator's matrices are 3x3; a BLAS thread pool would only add
# start-up work that competes for the machine's other CPU.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


class WorkerFailed(Exception):
    pass


def spawn(workdir, workload, seed, mode, size="full"):
    """Run one worker in a fresh interpreter and return its JSON result."""
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(WORKER), "--checkout", str(ROOT), "--mode", mode,
           "--size", size, "--seed", str(seed)]
    if workload is not None:
        cmd += ["--workload", workload]
    cmd += ["--spawn-t", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=workdir, env=WORKER_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}: "
                           f"{err.decode().strip()[-2000:]}")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "convergesim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance():
    return {
        "python": sys.version.split()[0],
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


class Run:
    """Collects repetitions, failures and checks of one benchmark run."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reps = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def worker(self, mode, workload=None):
        """Run a worker; a worker that fails counts as one failed check."""
        label = f"{mode}{len(self.reps)}"
        try:
            result = spawn(self.workdir / label, workload, self.seed, mode)
        except WorkerFailed as err:
            self.attempted += 1
            self.failed += 1
            self.problems.append(str(err))
            return None
        result["mode"] = mode
        self.attempted += result["ops"] + result["checks"]
        self.failed += result["failed_ops"] + len(result["problems"])
        self.problems.extend(result["problems"])
        return result

    def repetition(self, mode):
        result = self.worker(mode, self.workload)
        if result is not None:
            self.reps.append(result)
        return result

    def check_digests(self):
        """Every repetition of a run sees the same seed, so they must all
        produce the same outputs; at the default seed they must also match
        the recorded digest."""
        digests = [r["digest"] for r in self.reps if r.get("digest")]
        for digest in digests[1:]:
            self.expect(digest == digests[0], "repetitions produced different outputs")
        expected = scenarios.EXPECTED_DIGESTS.get(self.workload)
        if digests and self.seed == DEFAULT_SEED and expected is not None:
            # service_wire digests one stream per connection, and runs fewer
            # connections on a single-CPU machine
            parts = digests[0].split(",")
            self.expect(expected.split(",")[:len(parts)] == parts,
                        f"output digest {digests[0]} != recorded {expected}")

    def expect(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def measured_s(self):
        return sum(it["run_s"] for r in self.reps for it in r["iterations"])

    def may_start(self):
        return self.elapsed() < STOP_STARTING_AFTER_S


def median(values):
    return statistics.median(values) if values else 0.0


def samples(run, mode=None):
    """Measured iterations of the run's repetitions, optionally of one mode."""
    return [it for r in run.reps if mode is None or r["mode"] == mode
            for it in r["iterations"]]


def end_to_end(run):
    its = samples(run)
    return {
        "run_s": median([at_nominal(it["run_s"], it["ref_s"]) for it in its]),
        "ops_per_s": median([it["ops"] / at_nominal(it["run_s"], it["ref_s"]) for it in its]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in run.reps]),
        "setup_s": median([at_nominal(r["setup_s"], r["iterations"][0]["ref_s"])
                           for r in run.reps]),
    }


def per_layer(run, memory, growth, units):
    traced = [it for it in samples(run, "traced") if "layers" in it]
    plain = samples(run, "plain")
    metrics = {}
    for key in set().union(*(it["layers"] for it in traced)):
        is_time = units.get(key) in ("s", "us")
        metrics[key] = median([at_nominal(it["layers"][key], it["ref_s"]) if is_time
                               else it["layers"][key] for it in traced])
    for key in ("reporting.files", "reporting.bytes"):
        metrics[key] = median([it["report"][key] for it in traced if "report" in it])
    for i, q in enumerate((50, 90)):
        metrics[f"mlserve.request_us_p{q}"] = median(
            [at_nominal(it["latency_us"][i], it["ref_s"]) for it in plain if "latency_us" in it])
    plain_s = median([at_nominal(it["run_s"], it["ref_s"]) for it in plain])
    traced_s = median([at_nominal(it["run_s"], it["ref_s"]) for it in samples(run, "traced")])
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    mem = memory["iterations"][0].get("mem", {}) if memory else {}
    for key in ("mem.retained_mb", "mem.peak_mb"):
        metrics[key] = mem.get(key, 0.0)
    for n in (64, 128, 256, 512):
        metrics[f"resgraph.carve_us.n{n}"] = 0.0
    metrics["resgraph.growth_exponent"] = 0.0
    if growth is not None:
        metrics.update(growth["growth"])
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "convergesim" / "__init__.py").is_file():
        print(f"no convergesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    runs_dir = ROOT / ".perfbench_runs"
    workdir = runs_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance()}
    run = Run(args.workload, args.seed, workdir)
    memory = growth = None
    try:
        run.worker("golden")  # also fills the bytecode and file caches
        if args.trace:
            if args.workload == "wide_placement":
                growth = run.worker("growth")
            memory = run.worker("memory", args.workload)
            pairs = 0
            while run.may_start() and (pairs < MIN_TRACE_PAIRS
                                       or run.measured_s() < args.seconds):
                # alternate which mode goes first, so drift hits both alike
                order = ("plain", "traced") if pairs % 2 == 0 else ("traced", "plain")
                for mode in order:
                    run.repetition(mode)
                pairs += 1
        else:
            while run.may_start() and (len(run.reps) < MIN_REPS
                                       or run.measured_s() < args.seconds):
                run.repetition("plain")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not run.reps:
        print("no repetition completed: " + "; ".join(run.problems[:3]), file=sys.stderr)
        return 1
    run.check_digests()
    record["provenance"]["numpy"] = run.reps[0].get("numpy")
    units = {entry["name"]: entry["unit"] for entry in declared}
    values = per_layer(run, memory, growth, units) if args.trace else end_to_end(run)

    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            print(f"benchmark computed no value for {entry['name']}", file=sys.stderr)
            return 3
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}

    record.update(result=result, problems=run.problems, repetitions=run.reps,
                  memory=memory, growth=growth)
    runs_dir.mkdir(exist_ok=True)
    (runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    prov = record["provenance"]
    print(f"# {args.workload} seed={args.seed} reps={len(run.reps)} "
          f"python={prov['python']} numpy={prov['numpy']} git={prov['git_revision']} "
          f"src={prov['source_sha256'][:12]} nproc={prov['nproc']} "
          f"load={prov['loadavg_at_start'][0]:.2f}")
    print(f"# error_rate {run.failed / max(1, run.attempted):.6f} "
          f"({run.failed} of {run.attempted})")
    its = samples(run)
    print(f"# unscaled run_s {median([it['run_s'] for it in its]):.6g} s; reference "
          f"kernel {median([it['ref_s'] for it in its]):.6g} s (nominal {NOMINAL_REFERENCE_S})")
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
