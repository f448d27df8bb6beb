"""One repetition of a workload, in a fresh interpreter.

`run.py` starts this script once per repetition, with the working
directory set to a scratch directory of the checkout, and reads the JSON
object it prints as its last line.  Modes:

  plain    set-up, then ITERATIONS measured phases, each checked;
           nothing is wrapped
  traced   the same with every layer wrapped in spans (tracer.py)
  memory   one measured phase under tracemalloc: bytes retained at the
           end, peak
  growth   the wide_placement shape at 64..512 nodes, carve time per job
  golden   regenerate the committed default reports and compare them

`--serve` runs the service process of service_wire instead.
"""

import argparse
import json
import os
import resource
import sys
import threading
import time
import tracemalloc
import traceback
from pathlib import Path
from types import SimpleNamespace

import scenarios
import tracer as tracing

ITERATIONS = 3
GROWTH_NODES = (64, 128, 256, 512)


def import_convergesim(checkout):
    src = (Path(checkout) / "src").resolve()
    sys.path.insert(0, str(src))
    import convergesim
    from convergesim import (hiersched, mlcore, mlserve, orchestrator, reporting,
                             resgraph, simkernel, workloads)

    if Path(convergesim.__file__).resolve().parent != src / "convergesim":
        raise SystemExit(f"convergesim imported from {convergesim.__file__}, not {src}")
    return SimpleNamespace(package=convergesim, hiersched=hiersched, mlcore=mlcore,
                           mlserve=mlserve, orchestrator=orchestrator, reporting=reporting,
                           resgraph=resgraph, simkernel=simkernel, workloads=workloads)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_report(totals, run_s, concurrency=1, wait_s=0.0):
    """Per-layer metrics of a traced repetition, plus the share of the
    measured time that the layers' self times (and, for the socket
    workload, time spent outside the server's handler) account for."""
    layers = tracing.layer_metrics(totals)
    covered = sum(totals["self_s"].get(layer, 0.0) for layer in tracing.LAYERS) + wait_s
    layers["trace.coverage"] = covered / (run_s * concurrency) if run_s > 0 else 0.0
    layers["mlserve.wait_s"] = wait_s
    return layers


class _Cell:
    def __init__(self, value):
        self.value = value


_CELLS = [_Cell(float(i)) for i in range(512)]
_TABLE = {i: _CELLS[i & 511] for i in range(2048)}
# What reference_s() returns on the quiet machine the benchmark was
# written on; times are reported at this speed (see README).
NOMINAL_REFERENCE_S = 0.015
# The simulator slows less than the reference work when the machine does:
# over 25 runs of the four workloads, medians rescaled with this exponent
# spread least (see README).
SPEED_EXPONENT = 0.75


def reference_s():
    """Seconds taken by a fixed piece of interpreter work (attribute, dict
    and float operations, as in the simulator) that allocates no tracked
    objects, so the program's heap cannot change its speed.  Timed next to
    each measured phase, it records how fast the machine ran then."""
    cells, table = _CELLS, _TABLE
    total = 0.0
    t0 = time.perf_counter()
    for i in range(80000):
        cell = cells[(i * 31) & 511]
        cell.value += 1.5
        table[i & 2047] = cell
        total += table.get((i * 7) & 2047, cell).value
    return time.perf_counter() - t0


def at_nominal(seconds, ref_s):
    """Host seconds measured while reference_s() took `ref_s`, rescaled
    to the speed at which it takes NOMINAL_REFERENCE_S."""
    return seconds * (NOMINAL_REFERENCE_S / ref_s) ** SPEED_EXPONENT


def repetition(args, cs):
    """Measure ITERATIONS fresh instances of the workload (one under
    tracemalloc), each checked on its own.  `setup_s` runs from the start
    of the interpreter to the start of the first measured phase."""
    size = scenarios.SIZES[args.size]
    checks = scenarios.Checks()
    warmup_s = reference_s()  # the first call also pays for specialisation
    service = None
    if args.workload == "service_wire":
        service = scenarios.ServiceProcess(
            [sys.executable, str(Path(__file__).resolve()), "--serve",
             "--checkout", args.checkout, "--mode", args.mode])
    samples = []
    try:
        for index in range(1 if args.mode == "memory" else ITERATIONS):
            workdir = Path.cwd() / f"iteration{index}"
            workdir.mkdir()
            samples.append(iteration(args, cs, size, workdir, checks, service, index))
    finally:
        if service is not None:
            code = service.stop()
            checks.expect(code == 0, f"service process exited with {code}")
    measured_at = [s.pop("measure_t") for s in samples]
    digests = {s.pop("digest") for s in samples}
    checks.expect(len(digests) == 1, "iterations produced different outputs")
    peak_rss = max(s.pop("peak_rss_mb", 0.0) for s in samples)
    return {
        # set-up excludes the benchmark's own reference timings
        "setup_s": measured_at[0] - args.spawn_t - warmup_s - samples[0]["ref_before_s"],
        "iterations": samples,
        "peak_rss_mb": max(peak_rss, peak_rss_mb()),
        "digest": digests.pop() if len(digests) == 1 else None,
        "ops": sum(s["ops"] for s in samples),
        "failed_ops": sum(s.pop("failed_ops") for s in samples),
        "checks": checks.count,
        "problems": checks.problems,
    }


def iteration(args, cs, size, workdir, checks, service, index):
    wire = service is not None
    if wire:
        workload = scenarios.ServiceWire(args.seed, size, service, index)
    else:
        workload = scenarios.WORKLOADS[args.workload](cs, args.seed, size, workdir)
    trace = None
    if args.mode == "traced" and not wire:
        trace = tracing.Tracer()
        tracing.install(trace, cs)
    if args.mode == "memory" and not wire:
        tracemalloc.start()

    def machine_speed():
        # the service does most of the work of service_wire
        if wire:
            return (reference_s() + service.command("ref")) / 2
        return reference_s()

    error = None
    ref_before = machine_speed()
    sample = {"measure_t": time.monotonic(), "ref_before_s": ref_before}
    t0 = time.perf_counter()
    try:
        workload.run()
    except Exception:  # the run failed; report it as failed operations
        error = traceback.format_exc(limit=5)
    run_s = time.perf_counter() - t0
    sample.update(run_s=run_s, ops=workload.planned, ref_s=(ref_before + machine_speed()) / 2)

    if args.mode == "memory" and not wire:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sample["mem"] = {"mem.retained_mb": current / 2**20, "mem.peak_mb": peak / 2**20}
    if trace is not None:
        trace.uninstall()
        totals = trace.totals()
        sample["layers"] = layer_report(totals, run_s)
        sample["spans"] = {k: v for k, v in totals.items()
                           if k in ("self_s", "incl_s", "calls", "failed")}
    if wire:
        workload.close()
        stats = service.command("stats")
        sample["peak_rss_mb"] = stats["peak_rss_mb"]
        latencies = workload.latencies
        sample["latency_us"] = [tracing.percentile(latencies, q) * 1e6 for q in (50, 90)]
        if "totals" in stats:
            totals = stats["totals"]
            wait_s = sum(latencies) - totals["incl_s"].get("mlserve.handle_line", 0.0)
            sample["layers"] = layer_report(totals, run_s, len(workload.conns), wait_s)
            sample["spans"] = {k: v for k, v in totals.items()
                               if k in ("self_s", "incl_s", "calls", "failed")}
        if "mem" in stats:
            sample["mem"] = stats["mem"]
    else:
        paths = getattr(workload, "paths", [])
        sample["report"] = {"reporting.files": len(paths),
                            "reporting.bytes": sum(Path(p).stat().st_size for p in paths)}

    if error is None:
        workload.check(checks)
        sample["digest"] = workload.digest()
        sample["failed_ops"] = workload.failed_ops() if wire else 0
    else:
        checks.expect(False, error)
        sample["digest"] = None
        sample["failed_ops"] = workload.planned
    return sample


def growth(args, cs):
    """Carve time per job of the wide_placement shape at 64..512 nodes,
    one job per node, so that the number of live siblings and the number
    of nodes a carve scans both grow with the node count."""
    size = scenarios.SIZES[args.size]
    checks = scenarios.Checks()
    points = []
    reference_s()
    for nodes in GROWTH_NODES:
        workload = scenarios.WidePlacement(cs, args.seed, size, nodes=nodes, jobs=nodes)
        trace = tracing.Tracer()
        tracing.install(trace, cs)
        ref_before = reference_s()
        try:
            workload.run()
        finally:
            trace.uninstall()
        ref_s = (ref_before + reference_s()) / 2
        workload.check(checks)
        carve_s = at_nominal(trace.totals()["incl_s"].get("resgraph.carve", 0.0), ref_s)
        points.append((nodes, carve_s / workload.planned * 1e6))
    growth = {f"resgraph.carve_us.n{n}": us for n, us in points}
    growth["resgraph.growth_exponent"] = scenarios.growth_exponent(points)
    return {"growth": growth, "checks": checks.count, "problems": checks.problems,
            "ops": sum(n for n in GROWTH_NODES), "failed_ops": 0}


def golden(args, cs):
    checks = scenarios.Checks()
    scenarios.golden_check(cs, checks, args.checkout, Path.cwd())
    return {"checks": checks.count, "problems": checks.problems, "ops": 0, "failed_ops": 0}


def serve(args):
    """The service process: bind the unix-socket mount in the working
    directory, print "ready", then answer the commands of
    scenarios.ServiceProcess until stdin closes."""
    cs = import_convergesim(args.checkout)
    trace = None
    if args.mode == "traced":
        trace = tracing.Tracer()
        tracing.install(trace, cs)
    if args.mode == "memory":
        tracemalloc.start()
    server = cs.mlserve.serve_unix(scenarios.SOCKET_NAME)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    reference_s()  # pays for specialisation before the first "ref"
    print("ready", flush=True)
    try:
        for command in sys.stdin:
            if command.strip() == "ref":
                reply = reference_s()
            else:
                reply = {"peak_rss_mb": peak_rss_mb()}
                if trace is not None:
                    reply["totals"] = trace.totals()
                    trace.reset()
                if args.mode == "memory":
                    current, peak = tracemalloc.get_traced_memory()
                    reply["mem"] = {"mem.retained_mb": current / 2**20,
                                    "mem.peak_mb": peak / 2**20}
            print(json.dumps(reply), flush=True)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        os.unlink(scenarios.SOCKET_NAME)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--checkout", required=True)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "traced", "memory", "growth", "golden"))
    parser.add_argument("--serve", action="store_true")
    parser.add_argument("--workload", choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--size", default="full", choices=sorted(scenarios.SIZES))
    parser.add_argument("--spawn-t", type=float, default=None)
    args = parser.parse_args()
    if args.serve:
        serve(args)
        return
    if args.spawn_t is None:
        args.spawn_t = time.monotonic()
    cs = import_convergesim(args.checkout)
    handler = {"growth": growth, "golden": golden}.get(args.mode, repetition)
    result = handler(args, cs)
    import numpy

    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
