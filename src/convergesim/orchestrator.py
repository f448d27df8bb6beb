"""Scenario driver: the five-environment scaling replay, the scheduler
taxonomy comparison, and the hybrid simulate-and-learn run.

Every scenario runs from a ScenarioConfig, one field per key of the
scenario file (see _ini), is seeded from it (seeding is mandatory;
nothing reads the wall clock) and returns a ReportBundle. The scaling
study replays the measured table; the taxonomy and hybrid runs carve from
fresh cluster graphs, which are fully free again after a run (leaked
carves are a bug). No scenario runs pods.

The taxonomy cases are independent (each owns a private engine and
graph), so they are split over this process and one forked worker per
other usable CPU: with n CPUs, this process runs every n-th case from the
first, and each worker every n-th from its own start. With one usable
CPU, for example under `taskset -c 0`, they all run in this process. Rows
keep case order, and a failing sweep raises the error of its first
failing case in case order, so neither the report bytes nor the error
depend on the CPU count.

The hybrid scenario mirrors a batch job that creates two sub-allocations:
a service host (one node by default, where the streaming-ML service is
mounted) and a simulation partition (four nodes) whose workload manager
runs the proxy-app jobs. Completions stream (features, walltime) samples
to the service; a second batch of jobs then asks for predictions and the
realized walltimes score each model with R-squared. The two
sub-allocations never share a node. `service_nodes` is the service
host's node count.

Each phase's jobs stream into the simulation's scheduler instance,
which draws the next job only as its queue drains; each job's walltime is
drawn when the job is made. So the service gets its first samples as
soon as the first jobs complete, and the simulation holds only the
queue's head and the running jobs: its memory does not grow with
`train_count`.

Training jobs run back to back by default (each takes the whole
simulation partition). `train_width` widens the partition to
`width * sim_nodes` nodes so that many jobs run concurrently; training
order then follows virtual completion order, still deterministic for a
fixed seed.

As on the paper's separate service nodes, the ML service runs in its own
forked process when more than one CPU is usable, fed batches of
completed-job samples over a pipe while the simulation runs. With one
usable CPU (`taskset -c 0`) it runs in this process. The simulation never
reads a service reply, so the requests, their order and the report bytes
are the same either way.
"""

import configparser
import functools
import math
import os
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import hiersched, mlcore, mlserve, netmodel, workloads
from .hiersched import Instance, Job, run_taxonomy
from .reporting import ReportBundle
from .resgraph import ClusterSpec, ResourceRequest, build_cluster
from .simkernel import Engine, RngStreams

SCALING_STUDY = "scaling_study"
TAXONOMY = "taxonomy"
HYBRID = "hybrid"
EXPERIMENTS = (SCALING_STUDY, TAXONOMY, HYBRID)

HYBRID_MODELS = tuple(mlcore.MODEL_VARIANTS)

# (benchmark, message bytes) in report order: latency and bw interleaved
# per point-to-point size (1 B .. 4 MiB), barrier, allreduce (4 B .. 4 MiB)
OSU_CASES = (
    tuple((bench, 4**k) for k in range(12) for bench in ("latency", "bw"))
    + (("barrier", 0),)
    + tuple(("allreduce", 4**k) for k in range(1, 12))
)

# Most decision rounds (deadlock_horizon / decision_cost) a taxonomy run
# may take. The two-level hoarding case steps one round at a time up to the
# horizon: 10^7 rounds took 0.9-1.2 s on a 2-vCPU x86-64 Xeon, the default
# 48,000 rounds 0.006 s.
MAX_TAXONOMY_ROUNDS = 10**7


class ConfigError(Exception):
    pass


class ScenarioError(Exception):
    pass


def _ini(section: str, key: str, default=MISSING, *, report: bool = True, low=-math.inf,
         high=math.inf, positive: bool = False, model=None):
    """A ScenarioConfig field read from `key` of INI `[section]`: the
    scenario file's schema is these fields alone. `report=False` leaves it
    out of summary(). validate() refuses NaN and any value outside [`low`,
    `high`]; `positive` sets the finite positive floats. The metadata's
    `bound` is (low, high, the words a refusal and the README use; "" for
    no bound). `model`, a (regressor variant, constructor parameter) pair,
    puts a value that is not None into `model_params`."""
    if positive:  # the least and the greatest positive float
        low, high = math.ulp(0.0), math.nextafter(math.inf, 0)
    words = "finite and positive" if positive else " and ".join(
        f"{op} {b}" for op, b in ((">=", low), ("<=", high)) if math.isfinite(b))
    return field(default=default, metadata={"ini": (section, key), "report": report,
                                            "bound": (low, high, words), "model": model})


@dataclass
class ScenarioConfig:
    experiment: str = _ini("experiment", "kind")
    seed: int = _ini("experiment", "seed")
    cluster_nodes: int = _ini("cluster", "nodes", 33, low=1)
    cores_per_node: int = _ini("cluster", "cores_per_node", 16, low=1)
    out_dir: str = _ini("output", "directory", "out", report=False)
    anchors_path: str | None = _ini("experiment", "anchors", None, report=False)
    # scaling study
    sizes: tuple[int, ...] = _ini("experiment", "sizes", (4, 8, 16, 32))
    iterations: int = _ini("experiment", "iterations", 20, low=1)
    # taxonomy
    taxonomy_nodes: int = _ini("taxonomy", "nodes", 16, low=2)  # a node per scheduler
    gang_min: int = _ini("taxonomy", "gang_min", 1, low=1)
    gang_max: int = _ini("taxonomy", "gang_max", 8)
    jobs_per_scheduler: int = _ini("taxonomy", "jobs_per_scheduler", 200, low=1)
    decision_cost_s: float = _ini("taxonomy", "decision_cost", hiersched.DEFAULT_DECISION_COST_S,
                                  positive=True)
    deadlock_horizon_s: float = _ini("taxonomy", "deadlock_horizon",
                                     hiersched.DEFAULT_DEADLOCK_HORIZON_S, report=False,
                                     positive=True)
    # hybrid
    train_count: int = _ini("hybrid", "train_count", 1000, low=1)
    test_count: int = _ini("hybrid", "test_count", 250, low=1)
    dim_min: int = _ini("hybrid", "dim_min", 1, low=1)
    dim_max: int = _ini("hybrid", "dim_max", 8, high=2**63 - 1)  # the int64 dims draw's limit
    train_width: int = _ini("hybrid", "train_width", 1, low=1)
    noise_sigma: float = _ini("hybrid", "noise_sigma", 0.05, low=0,
                              high=workloads.MAX_NOISE_SIGMA)
    sim_nodes: int = _ini("hybrid", "sim_nodes", 4, low=1)
    service_nodes: int = _ini("hybrid", "service_nodes", 1, low=1)
    # regressor hyperparameters; None keeps the regressor's own default
    learning_rate: float | None = _ini("models", "learning_rate", None, report=False,
                                       model=("linear_sgd", "learning_rate"))
    alpha: float | None = _ini("models", "alpha", None, report=False, model=("bayesian", "alpha"))
    beta: float | None = _ini("models", "beta", None, report=False, model=("bayesian", "beta"))
    aggressiveness: float | None = _ini("models", "aggressiveness", None, report=False,
                                        model=("passive_aggressive", "C"))
    epsilon: float | None = _ini("models", "epsilon", None, report=False,
                                 model=("passive_aggressive", "epsilon"))

    @property
    def cluster(self) -> ClusterSpec:
        return ClusterSpec(self.cluster_nodes, self.cores_per_node)

    @property
    def model_params(self) -> dict:
        """The [models] values set, e.g. {"linear_sgd": {"learning_rate": 0.02}}."""
        params = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["model"] and value is not None:
                variant, param = f.metadata["model"]
                params.setdefault(variant, {})[param] = value
        return params

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.seed is None:
            raise ConfigError("a seed is mandatory (runs never self-seed)")
        for f in fields(self):
            (low, high, words), value = f.metadata["bound"], getattr(self, f.name)
            if words and not low <= value <= high:
                section, key = f.metadata["ini"]
                raise ConfigError(f"[{section}] {key} must be {words}, not {value}")
        if not self.sizes:
            raise ConfigError("[experiment] sizes must be non-empty, not []")
        if len(set(self.sizes)) < len(self.sizes):
            raise ConfigError(f"[experiment] sizes must be distinct, not {list(self.sizes)}")
        if self.experiment == SCALING_STUDY:
            table_sizes = set(workloads.table_sizes())
            bad = [s for s in self.sizes if s not in table_sizes]
            if bad:
                raise ConfigError(f"sizes {bad} have no reference rows")
            need = max(self.sizes) + 1  # kept: the measured in-cluster runs had a control plane
            if need > self.cluster.node_count:
                raise ConfigError(
                    f"cluster of {self.cluster.node_count} nodes is too small for "
                    f"size {max(self.sizes)} plus a control plane")
        if self.dim_min > self.dim_max:
            raise ConfigError("dim range must satisfy dim_min <= dim_max")
        if self.experiment == HYBRID:
            need = self.service_nodes + self.sim_nodes * self.train_width
            if need > self.cluster.node_count:
                raise ConfigError(
                    f"hybrid needs {need} nodes, cluster has {self.cluster.node_count}")
        if self.gang_min > self.gang_max:
            raise ConfigError("gang range must satisfy gang_min <= gang_max")
        rounds = self.deadlock_horizon_s / self.decision_cost_s
        if self.experiment == TAXONOMY and rounds > MAX_TAXONOMY_ROUNDS:
            raise ConfigError(
                f"deadlock_horizon / decision_cost must be <= {MAX_TAXONOMY_ROUNDS} "
                f"rounds, not {rounds}")
        for variant, params in self.model_params.items():
            try:
                mlcore.make_model(variant, **params)  # each regressor checks its parameters
            except ValueError as err:
                raise ConfigError(f"bad [models] value for {variant}: {err}") from err
        if self.anchors_path is not None:
            load_network(self.anchors_path)

    def summary(self) -> dict:
        """The config as embedded in every bundle.json: each field declared
        with report=True, and the [models] values as `model_params`."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["report"]:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        out["model_params"] = self.model_params
        out["pod_specs"] = []  # a constant: the committed bundles' bytes hold this key
        return out


def load_network(anchors_path) -> netmodel.CalibratedNetwork:
    """The network calibrated from an anchor file (None: the packaged one);
    a file that is missing, malformed or inconsistent is a ConfigError."""
    try:
        return netmodel.load_network(anchors_path)
    except netmodel.CalibrationError as err:  # names the file itself
        raise ConfigError(str(err)) from err


def _parse(sec, key: str, kind):
    """The value of `key` in section `sec`, parsed as the field type `kind`."""
    if kind == tuple[int, ...]:
        return tuple(int(tok) for tok in sec[key].split())
    kind = next(k for k in typing.get_args(kind) or (kind,) if k is not type(None))
    getters = {int: sec.getint, float: sec.getfloat}
    return getters.get(kind, sec.get)(key)


def load_config(path) -> ScenarioConfig:
    """Parse the UTF-8, INI-style scenario file (see README for the full
    grammar).

    Every key is one ScenarioConfig field (see _ini), whose type decides
    how the value parses, and a key left out keeps its default. A key the
    schema does not know is an error in a section the schema owns, and so
    is any [pod:*] section; other sections are ignored.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"malformed config file {path}: {err}") from err
    schema: dict[str, dict] = {}  # section -> {key: ScenarioConfig field}
    for f in fields(ScenarioConfig):
        section, key = f.metadata["ini"]
        schema.setdefault(section, {})[key] = f
    for key in ("kind", "seed"):
        if not parser.has_option("experiment", key):
            raise ConfigError(f"bad [experiment] section: {key} is mandatory")
    values = {}
    try:
        for section, sec in parser.items():
            keys = schema.get(section)
            if keys is not None:
                unknown = sorted(set(sec) - set(keys))
                if unknown:
                    raise ConfigError(f"unknown key(s) {unknown} in [{section}]")
                values.update((keys[key].name, _parse(sec, key, keys[key].type)) for key in sec)
            elif section.startswith("pod:"):
                raise ConfigError(f"[{section}]: no scenario runs pods, so none can be declared")
        cfg = ScenarioConfig(**values)
    except ValueError as err:
        raise ConfigError(f"bad config value: {err}") from err
    cfg.validate()
    return cfg


def default_config(experiment: str, seed: int = 42) -> ScenarioConfig:
    cfg = ScenarioConfig(experiment=experiment, seed=seed)
    if experiment == HYBRID:
        cfg.cluster_nodes = 5
    cfg.validate()
    return cfg


def run_scenario(cfg: ScenarioConfig) -> ReportBundle:
    if cfg.experiment == SCALING_STUDY:
        return run_scaling_study(cfg)
    if cfg.experiment == TAXONOMY:
        return run_taxonomy_suite(cfg)
    return run_hybrid(cfg)


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# --- forked processes ---------------------------------------------------------


def _reply_from(target, share, conn, parent_conns):
    """A forked child's body: send ("ok", target(share, conn)) back on
    `conn`, or ("error", exception) for what it raised."""
    for parent_conn in parent_conns:  # else the parent closing its end would not end recv
        parent_conn.close()
    try:
        reply = ("ok", target(share, conn))
    except Exception as err:  # raised again in the parent
        reply = ("error", err)
    try:
        conn.send(reply)
    except OSError:  # the parent closed its end: nobody waits for the reply
        pass


class _Forked:
    """A forked child process per item of `shares` (none for none), child
    i running `target(shares[i], conn)` and reading what `send` writes from
    `conn`. Its one reply is what the target returns or raises."""

    def __init__(self, name: str, target, shares: list):
        self._name = name
        self._children = []  # (connection, process)
        if not shares:
            return
        # imported here: a run that forks nothing would pay for it at start-up.
        # fork, not spawn: a child inherits the imported modules and its
        # share instead of importing numpy again
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        for share in shares:
            conn, child_conn = ctx.Pipe()
            parent_conns = [c for c, _ in self._children] + [conn]
            process = ctx.Process(target=_reply_from,
                                  args=(target, share, child_conn, parent_conns))
            process.start()
            child_conn.close()
            self._children.append((conn, process))

    def send(self, message):
        """Write `message` to every child."""
        for conn, process in self._children:
            try:
                conn.send(message)
            except OSError:  # the child is gone
                raise self._exit_error(process)

    def replies(self) -> list:
        """Each child's reply in child order; raises the first exception
        a child sent, or a ScenarioError with the exit code of a child
        that died before replying."""
        values = []
        for conn, process in self._children:
            try:
                status, value = conn.recv()
            except (EOFError, OSError):  # the child is gone
                raise self._exit_error(process)
            if status == "error":
                raise value
            values.append(value)
        return values

    def close(self):
        for conn, _ in self._children:
            conn.close()
        for _, process in self._children:
            process.join()

    def _exit_error(self, process) -> ScenarioError:
        process.join()
        return ScenarioError(f"{self._name} process exited with code {process.exitcode}")


# --- scaling study ------------------------------------------------------------


def run_scaling_study(cfg: ScenarioConfig) -> ReportBundle:
    """Replay the five environments across the configured sizes.

    Per environment and size the driver draws one walltime per iteration
    from the measured table row (the `workloads.lammps` stream, in
    environment x size x iteration order) and records the benchmark
    curves. Background-cluster environments set the collective models'
    `background` flag.
    """
    cfg.validate()
    rng = RngStreams(cfg.seed).stream("workloads.lammps")
    network = load_network(cfg.anchors_path)
    bundle = ReportBundle(kind=SCALING_STUDY, seed=cfg.seed, config=cfg.summary())
    for env in workloads.ENVIRONMENTS:
        for size in cfg.sizes:
            ranks = size * cfg.cluster.cores_per_node
            values = [workloads.table_walltime(env, size, rng) for _ in range(cfg.iterations)]
            bundle.lammps_samples.extend(
                [env, size, ranks, it, walltime] for it, walltime in enumerate(values))
            bundle.lammps_cells.append(
                {
                    "environment": env,
                    "nodes": size,
                    "ranks": ranks,
                    "mean_s": float(np.mean(values)),
                    "stddev_s": float(np.std(values, ddof=1)) if len(values) > 1 else 0.0,
                    "cpu_pct": workloads.table_row(env, size).cpu_pct,
                }
            )
            bundle.osu_series.extend(
                {"environment": env, "nodes": size, "benchmark": bench, "message_bytes": m,
                 "value": workloads.osu_replay(env, bench, size, m, network)}
                for bench, m in OSU_CASES
            )
    return bundle


# --- taxonomy -----------------------------------------------------------------


def _taxonomy_share(cfg: ScenarioConfig, cases: list, conn=None) -> list:
    """Run `cases`, each (mode, gang size, job count, job duration), in
    order: each gives its metrics, up to and including the first that
    raises, which gives its exception. `conn` is unused: a forked worker
    reads nothing (see _Forked)."""
    outcomes = []
    for mode, gang, count, duration_s in cases:
        try:
            outcomes.append(run_taxonomy(
                mode, hiersched.make_jobs([gang] * count, duration_s),
                ClusterSpec(cfg.taxonomy_nodes, cfg.cluster.cores_per_node),
                decision_cost_s=cfg.decision_cost_s, seed=cfg.seed,
                deadlock_horizon_s=cfg.deadlock_horizon_s))
        except Exception as err:  # raised in case order by the caller
            outcomes.append(err)
            break
    return outcomes


def run_taxonomy_suite(cfg: ScenarioConfig) -> ReportBundle:
    """Sweep gang size across the four comparator architectures, plus the
    oversized-gang hoarding scenario that drives the two-level broker into
    deadlock.

    With n = min(usable CPUs, cases), this process runs `cases[0::n]` and
    forked worker i runs `cases[i::n]` (see the module docstring). A case
    that raises stops only its own share, and the error raised is that of
    the first failing case in case order, as with one CPU.
    """
    cfg.validate()
    bundle = ReportBundle(kind=TAXONOMY, seed=cfg.seed, config=cfg.summary())
    # (mode, gang size, job count, job duration): the sweep, then the
    # hoarding case
    cases = [(mode, gang, 2 * cfg.jobs_per_scheduler, 0.0)
             for mode in hiersched.TAXONOMY_MODES
             for gang in range(cfg.gang_min, cfg.gang_max + 1)]
    cases.append((hiersched.TWO_LEVEL, cfg.taxonomy_nodes // 2 + 1, 2, 300.0))
    n = min(_usable_cpus(), len(cases))
    run_share = functools.partial(_taxonomy_share, cfg)
    workers = _Forked("taxonomy worker", run_share, [cases[i::n] for i in range(1, n)])
    try:
        shares = [run_share(cases[0::n]), *workers.replies()]
    finally:
        workers.close()
    for i, (_, gang, *_) in enumerate(cases):
        # every share ran each of its cases before the first failing one
        metrics = shares[i % n][i // n]
        if isinstance(metrics, Exception):
            raise metrics
        bundle.taxonomy_rows.append({**asdict(metrics), "gang_size": gang})
    return bundle


# --- hybrid -------------------------------------------------------------------

# Completed-job samples per message to the service process, and jobs per
# block of dims draws. A 6,000 + 600 job run took the same time, within
# noise, at every size from 32 to 1,024: the service is the slower side, so
# the pipe's per-message cost is off the critical path. Each side alone,
# minimum of 7 CPU-time runs on one CPU of a 2-vCPU x86-64 host: the
# service about 21 us per sample, the simulation about 11 us per job.
SAMPLE_BATCH = 256


def _check(resp: mlserve.ServiceResponse, verb: str, name: str) -> mlserve.ServiceResponse:
    if resp.status != "ok":
        raise ScenarioError(f"{verb} failed for model {name}: {mlserve.format_response(resp)}")
    return resp


def _replay(service: mlserve.MLService, phase: str, features: dict, y: float):
    """The service requests for one completed job: in the train phase a
    `train` per model; in the test phase a `predict` per model, then a
    `record_truth` of the realized walltime `y` against that prediction."""
    if phase == "train":
        for variant in HYBRID_MODELS:
            _check(service.train(variant, features, y), "train", variant)
    else:
        for variant in HYBRID_MODELS:
            pred = _check(service.predict(variant, features), "predict", variant)
            _check(service.record_truth(variant, y, pred.get("prediction")), "record_truth",
                   variant)


def _hybrid_models(service: mlserve.MLService) -> dict:
    """The bundle's per-model results: scored pairs, R-squared and samples seen."""
    models = {}
    for variant in HYBRID_MODELS:
        entry = service.entry(variant)
        metrics = _check(service.metrics(variant), "metrics", variant)
        models[variant] = {
            "pairs": [[float(a), float(p)] for a, p in entry.truths],
            "r_squared": metrics.get("r_squared"),
            "samples_seen": entry.model.samples_seen,
        }
    return models


def _serve_samples(service: mlserve.MLService, conn) -> dict:
    """Service process: replay every batch read from `conn` until the end
    marker (None), then return the models dict or raise the first
    failure. After a failure it still reads to the end marker, so the
    simulation never writes into a closed pipe."""
    failure = None
    while (batch := conn.recv()) is not None:
        if failure is None:
            try:
                for sample in batch:
                    _replay(service, *sample)
            except Exception as err:  # raised in the parent
                failure = err
    if failure is not None:
        raise failure
    return _hybrid_models(service)


class _ServiceProcess(_Forked):
    """The hybrid ML service in a forked process, fed batches of samples;
    its one reply is read in `finish`."""

    def __init__(self, service: mlserve.MLService):
        # the child inherits the service with its models already created
        super().__init__("ML service", _serve_samples, [service])
        self._batch = []

    def record(self, phase: str, features: dict, y: float):
        self._batch.append((phase, features, y))
        if len(self._batch) == SAMPLE_BATCH:
            self.send(self._batch)
            self._batch = []

    def finish(self) -> dict:
        """Send what is left and the end marker, then return the models
        dict or raise the service's exception."""
        if self._batch:
            self.send(self._batch)
        self.send(None)
        return self.replies()[0]


def run_hybrid(cfg: ScenarioConfig) -> ReportBundle:
    """Stream completed-job samples into the ML service, train phase then
    test phase, and score the models.

    The simulation never waits on a service reply: with more than one
    usable CPU the service runs in a forked process (see the module
    docstring), and the simulation reads its one reply, the models, after
    the last job. Nothing the simulation does depends on a reply, so the
    requests, their order and the report bytes do not depend on the CPU
    count.
    """
    cfg.validate()
    engine = Engine(cfg.seed)
    graph = build_cluster(cfg.cluster)

    service_alloc = graph.carve(
        graph.root_allocation, ResourceRequest(nodes=cfg.service_nodes)
    )
    sim_alloc = graph.carve(
        graph.root_allocation,
        ResourceRequest(nodes=cfg.sim_nodes * cfg.train_width),
    )

    service = mlserve.MLService(model_defaults=cfg.model_params)
    for variant in HYBRID_MODELS:
        _check(service.create(variant, variant), "create", variant)

    instance = Instance(engine, graph, sim_alloc.alloc_id, cfg.decision_cost_s)
    dims_rng = engine.rng.stream("hybrid.dims")
    noise_rng = engine.rng.stream("hybrid.noise")
    ranks = cfg.sim_nodes * cfg.cluster.cores_per_node
    request = ResourceRequest(nodes=cfg.sim_nodes)

    def phase_jobs(phase: str, job_ids: range, record):
        """The phase's jobs, each made with its walltime as the instance
        draws it: in job-id order, the order FCFS places them. Dims are
        drawn for up to SAMPLE_BATCH jobs at a time, never past the phase's
        last job; a block gives the integers that one `size=3` draw per job
        gives (tests/test_orchestrator.py pins this)."""
        for start in range(0, len(job_ids), SAMPLE_BATCH):
            block = job_ids[start:start + SAMPLE_BATCH]
            dims = dims_rng.integers(cfg.dim_min, cfg.dim_max + 1, size=(len(block), 3))
            for job_id, (x, y, z) in zip(block, dims.tolist()):
                walltime = workloads.lammps_walltime(
                    ranks, workloads.LammpsProblem(x, y, z), noise_rng, cfg.noise_sigma)
                features = {"x": float(x), "y": float(y), "z": float(z)}

                def on_complete(job, features=features):
                    record(phase, features, job.duration)

                yield Job(job_id=job_id, request=request, duration=walltime,
                          on_complete=on_complete)

    feed = _ServiceProcess(service) if _usable_cpus() > 1 else None
    try:
        record = feed.record if feed else functools.partial(_replay, service)
        first_id = 1
        for count, phase in ((cfg.train_count, "train"), (cfg.test_count, "test")):
            instance.submit_all(phase_jobs(phase, range(first_id, first_id + count), record))
            engine.drain()
            first_id += count
        models = feed.finish() if feed else _hybrid_models(service)
    finally:
        if feed:
            feed.close()

    bundle = ReportBundle(kind=HYBRID, seed=cfg.seed, config=cfg.summary())
    bundle.hybrid = {
        "models": models,
        "train_count": cfg.train_count,
        "test_count": cfg.test_count,
        "service_nodes": sorted(service_alloc.node_ids),
        "sim_nodes": sorted(sim_alloc.node_ids),
        "makespan_s": engine.now,
    }

    graph.release(sim_alloc.alloc_id)
    graph.release(service_alloc.alloc_id)
    if not graph.root_fully_free():
        raise ScenarioError("hybrid scenario leaked allocations")
    return bundle
