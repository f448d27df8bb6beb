"""The benchmark's four workloads and the checks on their outputs.

Each workload object generates its inputs from the seed in its
constructor (set-up), where it also sets `planned`, the number of
operations (simulated jobs or service requests) it will run.  `run()`
does the measured work and `check()` then checks every output.  Only public convergesim calls are made, and always through
module attributes, so that the tracer's wrappers see them.
"""

import hashlib
import json
import math
import os
import selectors
import socket
import subprocess
import time
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42

# Inputs per repetition.  "full" is what the benchmark measures; "tiny"
# is the self-test's size.
SIZES = {
    "full": {"hybrid_train": 6000, "hybrid_test": 600, "taxonomy_jobs": 300,
             "wide_nodes": 256, "wide_jobs": 384, "wire_requests": 6000},
    "tiny": {"hybrid_train": 60, "hybrid_test": 20, "taxonomy_jobs": 6,
             "wide_nodes": 16, "wide_jobs": 24, "wire_requests": 150},
}

# Output digests of a "full" measured phase at DEFAULT_SEED (service_wire:
# one per connection).
EXPECTED_DIGESTS = {
    "hybrid_stream": "190967b14ed2db91ee4ab748a592c7661056d01e7bef3f966366b3cc29b6338f",
    "wide_placement": "2cb5e2858a785eb4f2e1da61495a996d70ff6630d5801c281c13e078810b85c0",
    "taxonomy_sweep": "c5f9f1165d656a3ec276e7fd3128c547ed059cf873c67b5c87178898fad18879",
    "service_wire": "6a7a67e8af2e8dd8a3f8d5ea707e10caeb97506aa172583f1f59fc5208275967,"
                    "4408d0f355aa3f48aee946d3e3e10a946c8f755bba4c6988d60c205fd53adb7b",
}

# sha256 of the committed default reports (`out/`), regenerated from
# default_config(<kind>, seed=42) by `golden_check`.
GOLDEN_REPORTS = {
    "scaling_study": ("scaling", {
        "bundle.json": "839ce6945b2803daebbf6edf00df2834dc96dd5d92c812b5498adfeb8d80d9dc",
        "lammps_samples.csv": "baabd90be57a454c3783eabf82ffd8c1d3eb049e22109a522a587edf5a8183de",
        "lammps_table.csv": "fadc1010802eca058865bbb278cdbdc19810a39d78ab8f9a332f6790c872a1ad",
        "osu_series.csv": "2375ee0c54f0ed5ceedd16614cd500a984ef9b01d1bc4be7f0f0462295db2a5b",
        "scaling_walltime.svg": "8e826a0de0e398c554485342ea008f9d2daf97f1af4f31c86dce729e32253476",
    }),
    "hybrid": ("hybrid", {
        "bundle.json": "4100a73304949bee2f78b43ffc3ec66e16035d07bad54d2a0bedfc2f512f1acc",
        "hybrid_bayesian.csv": "e3f13b4a946e33dff5d27458aedebae910aa8b4bf72f494f4a14da377ffc140f",
        "hybrid_bayesian.svg": "7645dfbca97629aca3491f9e15da7d9c90cc0d44816cf4e99f4fa8f6cfb5c530",
        "hybrid_linear_sgd.csv": "a56a485e12ac00339aaa88a7efa2b0ba39f41a0f823d21d801abbcf29ce477a7",
        "hybrid_linear_sgd.svg": "28436e58eb497f63d75ca4be9d1a577277e5dd6bd034d15a084e45fb4170a85a",
        "hybrid_passive_aggressive.csv":
            "7ba2c0ab4381fbc0932923f86c68bbfe7e3c69390812c72a812f6614bbe41c57",
        "hybrid_passive_aggressive.svg":
            "e542fa421b15b37534d0f95411f6cfeb954524e0e8e6a52767e185fdec4ca201",
        "hybrid_summary.csv": "1796909ee4be77c259d354f8250484a4196b8ec654b78dfe02b66bab95d34e50",
    }),
}


class Checks:
    """Counts output checks and keeps a message for each one that failed."""

    def __init__(self):
        self.count = 0
        self.problems = []

    def expect(self, ok, message):
        self.count += 1
        if not ok:
            self.problems.append(message)

    def call(self, message, fn, *args):
        try:
            fn(*args)
        except Exception as err:  # any exception is a failed check
            self.expect(False, f"{message}: {type(err).__name__}: {err}")
        else:
            self.expect(True, message)


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_report(cs, checks, bundle, out_dir, paths):
    """The emitted files must be exactly what the bundle emits again, and
    the bundle's aggregates must match its raw samples."""
    checks.call("verify_aggregates", bundle.verify_aggregates)
    again = Path(out_dir).with_name(Path(out_dir).name + ".again")
    fresh = {p.name: p.read_bytes() for p in cs.reporting.emit_report(bundle, again)}
    emitted = {Path(p).name: Path(p).read_bytes() for p in paths}
    checks.expect(sorted(fresh) == sorted(emitted), "report file set differs on re-emission")
    for name, data in sorted(emitted.items()):
        checks.expect(fresh.get(name) == data, f"report file {name} differs from its bundle")


# --- hybrid_stream -------------------------------------------------------------


class HybridStream:
    """`run_scenario` on a scaled-up hybrid config, then `emit_report`."""

    def __init__(self, cs, seed, size, workdir):
        self.cs = cs
        cfg = cs.orchestrator.default_config("hybrid", seed=seed)
        cfg.train_count = size["hybrid_train"]
        cfg.test_count = size["hybrid_test"]
        cfg.train_width = 1
        self.cfg = cfg
        self.out = Path(workdir) / "hybrid_report"
        self.planned = cfg.train_count + cfg.test_count

    def run(self):
        self.bundle = self.cs.orchestrator.run_scenario(self.cfg)
        self.paths = self.cs.reporting.emit_report(self.bundle, self.out)

    def check(self, checks):
        check_report(self.cs, checks, self.bundle, self.out, self.paths)
        models = self.bundle.hybrid.get("models", {})
        checks.expect(len(models) == 3, f"hybrid has {len(models)} models, not 3")
        for name, info in sorted(models.items()):
            checks.expect(info["samples_seen"] == self.cfg.train_count,
                          f"{name} trained on {info['samples_seen']} jobs")
            checks.expect(len(info["pairs"]) == self.cfg.test_count,
                          f"{name} scored {len(info['pairs'])} test jobs")
            r2 = info["r_squared"]
            checks.expect(r2 is not None and math.isfinite(r2), f"{name} r_squared is {r2}")

    def digest(self) -> str:
        return sha256_files(self.paths)


# --- taxonomy_sweep ------------------------------------------------------------


class TaxonomySweep:
    """`run_scenario` on taxonomy at 64 nodes, gang sizes 1-16; the suite
    appends the two-level deadlock case itself."""

    GANG_MAX = 16

    def __init__(self, cs, seed, size, workdir):
        self.cs = cs
        cfg = cs.orchestrator.default_config("taxonomy", seed=seed)
        cfg.taxonomy_nodes = 64
        cfg.gang_min = 1
        cfg.gang_max = self.GANG_MAX
        cfg.jobs_per_scheduler = size["taxonomy_jobs"]
        self.cfg = cfg
        self.out = Path(workdir) / "taxonomy_report"
        # 4 modes x gang sizes x 2 schedulers, plus the 2 oversized jobs
        self.planned = 4 * self.GANG_MAX * 2 * cfg.jobs_per_scheduler + 2

    def run(self):
        self.bundle = self.cs.orchestrator.run_scenario(self.cfg)
        self.paths = self.cs.reporting.emit_report(self.bundle, self.out)

    def check(self, checks):
        check_report(self.cs, checks, self.bundle, self.out, self.paths)
        rows = self.bundle.taxonomy_rows
        checks.expect(len(rows) == 4 * self.GANG_MAX + 1, f"{len(rows)} taxonomy rows")
        jobs = 2 * self.cfg.jobs_per_scheduler
        for row in rows[:-1]:
            key = f"{row['mode']} gang {row['gang_size']}"
            checks.expect(row["completed"] + row["rejected"] == jobs,
                          f"{key}: {row['completed']} completed of {jobs}")
            checks.expect(not row["deadlocked"], f"{key} deadlocked")
        if rows:
            last = rows[-1]
            checks.expect(last["mode"] == "two_level" and last["deadlocked"],
                          "the oversized two-level case did not deadlock")

    def digest(self) -> str:
        return sha256_files(self.paths)


# --- wide_placement ------------------------------------------------------------


def wide_jobs(cs, seed, count):
    """A seeded mix over one allocation: a quarter exclusive jobs (half of
    them on 1 node, half on 2), the rest 4-core slices of one node, with
    durations spread evenly over 5-60 virtual seconds.  The counts of each
    kind are fixed and only their order depends on the seed, so every seed
    asks for the same amount of work."""
    rng = np.random.default_rng(seed)
    exclusive = count // 4
    kinds = np.array([1 + i % 2 for i in range(exclusive)] + [0] * (count - exclusive))
    rng.shuffle(kinds)
    durations = np.linspace(5.0, 60.0, count)
    rng.shuffle(durations)
    Request, Job = cs.resgraph.ResourceRequest, cs.hiersched.Job
    slice_request = Request(nodes=1, cores_per_node=4, exclusive=False)
    return [
        Job(job_id=i + 1, request=Request(nodes=int(k)) if k else slice_request,
            duration=float(d))
        for i, (k, d) in enumerate(zip(kinds, durations))
    ]


class WidePlacement:
    """One scheduler instance over a wide allocation, fed the whole job
    mix at virtual time 0 and drained."""

    CORES_PER_NODE = 16

    def __init__(self, cs, seed, size, workdir=None, nodes=None, jobs=None):
        self.cs = cs
        nodes = nodes or size["wide_nodes"]
        self.engine = cs.simkernel.Engine(seed)
        self.graph = cs.resgraph.build_cluster(
            cs.resgraph.ClusterSpec(nodes, self.CORES_PER_NODE))
        self.alloc = self.graph.carve(self.graph.root_allocation,
                                      cs.resgraph.ResourceRequest(nodes=nodes))
        self.instance = cs.hiersched.Instance(self.engine, self.graph, self.alloc.alloc_id)
        self.jobs = wide_jobs(cs, seed, jobs or size["wide_jobs"])
        self.planned = len(self.jobs)

    def run(self):
        for job in self.jobs:
            self.instance.submit(job)
        self.engine.drain()

    def check(self, checks):
        unfinished = [j.job_id for j in self.jobs
                      if j.end_t is None or j.start_t is None or j.end_t < j.start_t]
        checks.expect(not unfinished, f"{len(unfinished)} jobs unfinished")
        inst = self.instance
        checks.expect(inst.completed == len(self.jobs),
                      f"instance completed {inst.completed} of {len(self.jobs)}")
        checks.expect(inst.placed == len(self.jobs),
                      f"instance placed {inst.placed} of {len(self.jobs)}")
        checks.call("audit after drain", self.graph.audit)
        checks.call("release the instance allocation", self.graph.release, self.alloc.alloc_id)
        checks.call("audit after release", self.graph.audit)
        checks.expect(self.graph.root_fully_free(), "root allocation not fully free")

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(f"{job.job_id},{job.start_t!r},{job.end_t!r}\n".encode())
        inst = self.instance
        h.update(f"{inst.attempts},{inst.placed},{inst.completed}\n".encode())
        return h.hexdigest()


# --- service_wire --------------------------------------------------------------

SOCKET_NAME = "wire.sock"
WIRE_MODELS = ("linear_sgd", "bayesian", "passive_aggressive")
WARMUP_TRAIN = 20
METRICS_EVERY = 100
TRAIN, PREDICT, TRUTH, METRICS = range(4)


class _Connection:
    """One client connection and its seeded request stream.

    Warm-up lines (create, train, one predict per model) run during
    set-up.  The measured stream mixes about 1 train : 2 predict :
    1 record_truth, with a metrics call every 100 requests; a
    record_truth reports the prediction the service last returned for
    that model on this connection.  `prefix` keeps the model names of
    successive iterations on one service apart; no measured reply
    contains a name, so every iteration gives the same replies."""

    def __init__(self, seed, index, requests, prefix):
        rng = np.random.default_rng([seed, index])
        names = [f"{prefix}c{index}.{m}" for m in WIRE_MODELS]
        truth = {}

        def sample():
            x, y, z = (float(v) for v in rng.integers(1, 9, size=3))
            walltime = (0.2 + 0.004 * x * y * z) * math.exp(0.05 * rng.standard_normal())
            return f"x:x={x!r} x:y={y!r} x:z={z!r}", walltime

        # (line, model index of a predict or None)
        self.warmup = [(f"create name={n} type={m}\n".encode(), None)
                       for n, m in zip(names, WIRE_MODELS)]
        for _ in range(WARMUP_TRAIN):
            for n in names:
                features, walltime = sample()
                self.warmup.append((f"train name={n} {features} y={walltime!r}\n".encode(), None))
        for i, n in enumerate(names):
            features, truth[i] = sample()
            self.warmup.append((f"predict name={n} {features}\n".encode(), i))
        self.ops = []  # (kind, model index, line or line prefix)
        kinds = rng.choice([TRAIN, PREDICT, PREDICT, TRUTH], size=requests)
        models = rng.integers(0, len(names), size=requests)
        for i in range(requests):
            m, n = int(models[i]), names[int(models[i])]
            if i % METRICS_EVERY == METRICS_EVERY - 1:
                self.ops.append((METRICS, m, f"metrics name={n}\n".encode()))
            elif kinds[i] == TRAIN:
                features, walltime = sample()
                self.ops.append((TRAIN, m, f"train name={n} {features} y={walltime!r}\n".encode()))
            elif kinds[i] == PREDICT:
                features, truth[m] = sample()
                self.ops.append((PREDICT, m, f"predict name={n} {features}\n".encode()))
            else:
                self.ops.append((TRUTH, m, f"record_truth name={n} y_true={truth[m]!r} y_pred="
                                 .encode()))
        self.replies = []
        self.last_prediction = [b"0.0"] * len(names)

    def connect(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(60.0)
        self.sock.connect(SOCKET_NAME)
        self.reader = self.sock.makefile("rb")

    def call(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.reader.readline()
        if not reply:
            raise ConnectionError("service closed the connection")
        return reply

    def note_prediction(self, model, reply):
        # "ok prediction=<float> cold=... samples_seen=..."
        if reply.startswith(b"ok prediction="):
            self.last_prediction[model] = reply.split(b" ", 2)[1][len(b"prediction="):]

    def close(self):
        if hasattr(self, "reader"):
            self.reader.close()
        if hasattr(self, "sock"):
            self.sock.close()


class ServiceProcess:
    """The service process of service_wire (`worker.py --serve`).

    It binds `mlserve.serve_unix` in the working directory, by a relative
    name, so that a long checkout path cannot exceed the length limit of a
    socket address.  Commands on its stdin: "ref" times the reference
    kernel there, "stats" returns its statistics since the last "stats"
    (peak RSS, span totals when traced, tracemalloc figures); end of
    input stops it."""

    def __init__(self, server_cmd):
        self.proc = subprocess.Popen(server_cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        ready = self.proc.stdout.readline()
        if ready.strip() != b"ready":
            self.stop()
            raise RuntimeError(f"service process did not start: {ready!r}")

    def command(self, name):
        self.proc.stdin.write(name.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"service process exited with {self.proc.poll()}")
        return json.loads(reply)

    def stop(self):
        """Close its input and wait for it; returns its exit code."""
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


class ServiceWire:
    """A single-threaded client driving min(2, nproc) connections to the
    service process in a closed loop, with fresh models."""

    def __init__(self, seed, size, service, iteration):
        connections = min(2, os.cpu_count() or 1)
        self.conns = [_Connection(seed, c, size["wire_requests"], f"i{iteration}")
                      for c in range(connections)]
        self.planned = connections * size["wire_requests"]
        self.service = service
        self.latencies = []
        self.warmup_replies = []
        try:
            for conn in self.conns:
                conn.connect()
            for conn in self.conns:
                for line, model in conn.warmup:
                    reply = conn.call(line)
                    self.warmup_replies.append(reply)
                    if model is not None:
                        conn.note_prediction(model, reply)
        except BaseException:
            self.close()
            raise

    def run(self):
        clock = time.perf_counter
        latencies = self.latencies
        selector = selectors.DefaultSelector()
        sent_at = {}
        position = {}

        def send(conn):
            kind, model, line = conn.ops[position[conn]]
            if kind == TRUTH:
                line = line + conn.last_prediction[model] + b"\n"
            sent_at[conn] = clock()
            conn.sock.sendall(line)

        for conn in self.conns:
            position[conn] = 0
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            send(conn)
        active = len(self.conns)
        while active:
            ready = selector.select(timeout=60.0)
            if not ready:
                raise TimeoutError("no reply from the service for 60 s")
            for key, _ in ready:
                conn = key.data
                reply = conn.reader.readline()
                latencies.append(clock() - sent_at[conn])
                if not reply:
                    raise ConnectionError("service closed the connection")
                conn.replies.append(reply)
                kind, model, _ = conn.ops[position[conn]]
                if kind == PREDICT:
                    conn.note_prediction(model, reply)
                position[conn] += 1
                if position[conn] < len(conn.ops):
                    send(conn)
                else:
                    selector.unregister(conn.sock)
                    active -= 1
        selector.close()

    def close(self):
        for conn in self.conns:
            conn.close()

    def check(self, checks):
        bad = [r for r in self.warmup_replies if not r.startswith(b"ok")]
        checks.expect(not bad, f"{len(bad)} warm-up requests failed: {bad[:1]}")
        for conn in self.conns:
            checks.expect(len(conn.replies) == len(conn.ops),
                          f"{len(conn.replies)} replies to {len(conn.ops)} requests")
            last_metrics = [r for (kind, _, _), r in zip(conn.ops, conn.replies)
                            if kind == METRICS][-1:]
            checks.expect(last_metrics and b"r_squared=null" not in last_metrics[0],
                          f"metrics reply without r_squared: {last_metrics}")

    def failed_ops(self) -> int:
        return sum(1 for conn in self.conns for r in conn.replies if not r.startswith(b"ok "))

    def digest(self) -> str:
        return ",".join(hashlib.sha256(b"".join(conn.replies)).hexdigest()
                        for conn in self.conns)


WORKLOADS = {
    "hybrid_stream": HybridStream,
    "wide_placement": WidePlacement,
    "taxonomy_sweep": TaxonomySweep,
    "service_wire": ServiceWire,
}


# --- checks outside a workload ------------------------------------------------------


def golden_check(cs, checks, checkout, workdir):
    """Regenerate the committed default reports at seed 42 and compare them
    byte for byte with `out/` (when the checkout has it) and with their
    recorded digests."""
    for kind, (subdir, expected) in GOLDEN_REPORTS.items():
        target = Path(workdir) / f"golden_{subdir}"
        bundle = cs.orchestrator.run_scenario(cs.orchestrator.default_config(kind, seed=42))
        paths = {Path(p).name: Path(p) for p in cs.reporting.emit_report(bundle, target)}
        checks.expect(sorted(paths) == sorted(expected),
                      f"{kind}: emitted files {sorted(paths)} != {sorted(expected)}")
        committed = Path(checkout) / "out" / subdir
        for name, path in sorted(paths.items()):
            data = path.read_bytes()
            checks.expect(hashlib.sha256(data).hexdigest() == expected.get(name),
                          f"{kind}: {name} differs from its recorded digest")
            if committed.is_dir():
                ref = committed / name
                checks.expect(ref.is_file() and ref.read_bytes() == data,
                              f"{kind}: {name} differs from out/{subdir}/{name}")


def growth_exponent(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0
