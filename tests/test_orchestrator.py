import contextlib
import filecmp
import itertools
import json
import multiprocessing
import os
import signal
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convergesim import cli, hiersched, mlcore, mlserve, orchestrator, workloads
from convergesim.orchestrator import (
    HYBRID,
    SCALING_STUDY,
    TAXONOMY,
    ConfigError,
    ScenarioConfig,
    ScenarioError,
    default_config,
    load_config,
    run_hybrid,
    run_scaling_study,
    run_scenario,
    run_taxonomy_suite,
)
from convergesim.reporting import ReportBundle, ReportError, emit_report
from convergesim.resgraph import ClusterSpec
from convergesim.simkernel import RngStreams

from helpers import bundle_json_reference

ROOT = Path(__file__).resolve().parent.parent


def small_scaling(seed=7):
    cfg = default_config(SCALING_STUDY, seed=seed)
    cfg.iterations = 3
    cfg.sizes = (4, 8)
    return cfg


def small_taxonomy(seed=7):
    cfg = default_config(TAXONOMY, seed=seed)
    cfg.jobs_per_scheduler = 40
    cfg.gang_max = 4
    return cfg


def small_hybrid(seed=7):
    cfg = default_config(HYBRID, seed=seed)
    cfg.train_count = 60
    cfg.test_count = 20
    return cfg


# --- config ---------------------------------------------------------------------


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[cluster]\n"
        "nodes = 9\n"
        "cores_per_node = 8\n"
        "[experiment]\n"
        "kind = hybrid\n"
        "seed = 99\n"
        "[hybrid]\n"
        "train_count = 12\n"
        "test_count = 5\n"
        "dim_max = 4\n"
        "noise_sigma = 0.0\n"
        "[output]\n"
        "directory = results\n"
    )
    cfg = load_config(path)
    assert cfg.experiment == HYBRID
    assert cfg.seed == 99
    assert cfg.cluster == ClusterSpec(9, 8)
    assert (cfg.train_count, cfg.test_count) == (12, 5)
    assert cfg.dim_max == 4
    assert cfg.noise_sigma == 0.0
    assert cfg.out_dir == "results"


def test_config_requires_seed(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nkind = taxonomy\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        ScenarioConfig(experiment="benchmarking", seed=1).validate()


def test_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_scaling_needs_room_for_control_plane():
    cfg = default_config(SCALING_STUDY)
    cfg.cluster_nodes = 32  # 32 workers + control plane will not fit
    with pytest.raises(ConfigError):
        cfg.validate()


def test_scaling_rejects_sizes_outside_reference_table():
    cfg = default_config(SCALING_STUDY)
    cfg.sizes = (4, 12)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_hybrid_needs_five_nodes():
    cfg = default_config(HYBRID)
    cfg.cluster_nodes = 4
    with pytest.raises(ConfigError):
        cfg.validate()


def test_hybrid_size_rule_is_the_config_rule(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[cluster]\nnodes = 3\n"
        "[experiment]\nkind = hybrid\nseed = 3\n"
        "[hybrid]\ntrain_count = 10\ntest_count = 4\nsim_nodes = 2\n"
    )
    bundle = run_hybrid(load_config(path))
    service_nodes = set(bundle.hybrid["service_nodes"])
    sim_nodes = set(bundle.hybrid["sim_nodes"])
    assert len(service_nodes) == 1 and len(sim_nodes) == 2
    assert not service_nodes & sim_nodes
    assert all(len(info["pairs"]) == 4 for info in bundle.hybrid["models"].values())


# --- scaling study ---------------------------------------------------------------


def test_scaling_study_counts_and_aggregates():
    bundle = run_scaling_study(small_scaling())
    assert len(bundle.lammps_samples) == 5 * 2 * 3
    assert len(bundle.lammps_cells) == 10
    bundle.verify_aggregates()
    envs = {cell["environment"] for cell in bundle.lammps_cells}
    assert envs == set(workloads.ENVIRONMENTS)
    # ranks column mirrors cores-per-node times size
    for cell in bundle.lammps_cells:
        assert cell["ranks"] == cell["nodes"] * 16


def _drop_cell(bundle):
    bundle.lammps_samples = [s for s in bundle.lammps_samples if s[:2] != ["bare_metal", 8]]


def _shift_mean(bundle):
    bundle.lammps_cells[0]["mean_s"] += 1e-6


@pytest.mark.parametrize("corrupt, message", [
    (_drop_cell, r"\('bare_metal', 8, 128\) has no raw samples"),
    (lambda bundle: bundle.lammps_samples.pop(), "has 2 samples, expected 3"),
    (_shift_mean, r"\('bare_metal', 4, 64\) does not match its samples"),
], ids=["no_samples", "sample_count", "mean"])
def test_verify_aggregates_names_each_broken_cell(corrupt, message):
    bundle = run_scaling_study(small_scaling())
    bundle.verify_aggregates()
    corrupt(bundle)
    with pytest.raises(ReportError, match=message):
        bundle.verify_aggregates()


def test_scaling_study_emits_benchmark_series():
    bundle = run_scaling_study(small_scaling())
    benchmarks = {row["benchmark"] for row in bundle.osu_series}
    assert benchmarks == {"bw", "latency", "barrier", "allreduce"}
    latency_rows = [
        r for r in bundle.osu_series
        if r["benchmark"] == "latency" and r["message_bytes"] == 1
    ]
    by_env = {r["environment"]: r["value"] for r in latency_rows if r["nodes"] == 4}
    assert by_env["usernetes"] > by_env["bare_metal"]


def test_scaling_in_cluster_environment_needs_one_extra_node():
    cfg = small_scaling()
    cfg.sizes = (4,)
    cfg.cluster_nodes = 5  # 4 workers + 1 control plane: exactly enough
    bundle = run_scaling_study(cfg)
    assert len(bundle.lammps_samples) == 5 * 1 * 3


@pytest.mark.parametrize("seed, sizes, iterations", [
    (0, None, None), (42, None, None), (2**32 - 1, None, None), (9, (16, 4, 32), 3),
])
def test_scaling_walltimes_are_an_independent_replay_of_the_table_stream(seed, sizes,
                                                                         iterations):
    # the lammps stream is drawn once per iteration of a spread row, in
    # environment x size x iteration order; nothing else draws from it
    cfg = default_config(SCALING_STUDY, seed=seed)
    if sizes is not None:
        cfg.sizes, cfg.iterations = sizes, iterations
    bundle = run_scaling_study(cfg)
    rng = RngStreams(seed).stream("workloads.lammps")
    expected = [
        [env, size, size * cfg.cluster.cores_per_node, it,
         workloads.table_walltime(env, size, rng)]
        for env in workloads.ENVIRONMENTS for size in cfg.sizes
        for it in range(cfg.iterations)
    ]
    assert bundle.lammps_samples == expected


# --- taxonomy ----------------------------------------------------------------------


def test_taxonomy_suite_rows():
    cfg = small_taxonomy()
    bundle = run_taxonomy_suite(cfg)
    # 4 modes x 4 gang sizes, plus the oversized two-level scenario
    assert len(bundle.taxonomy_rows) == 4 * 4 + 1
    hier = [r for r in bundle.taxonomy_rows if r["mode"] == "hierarchical"]
    assert all(r["conflict_fraction"] == 0.0 for r in hier)
    oversized = bundle.taxonomy_rows[-1]
    assert oversized["mode"] == "two_level"
    assert oversized["gang_size"] == 9
    assert oversized["deadlocked"] is True
    shared = [r for r in bundle.taxonomy_rows if r["mode"] == "shared_state"]
    fractions = [r["conflict_fraction"] for r in shared]
    assert fractions == sorted(fractions)


def serial_taxonomy_rows(cfg):
    """The suite's rows by a plain loop of run_taxonomy in this process:
    each mode over the gang range, then the oversized two-level case."""
    cluster = ClusterSpec(cfg.taxonomy_nodes, cfg.cluster.cores_per_node)
    cases = [(mode, gang, 2 * cfg.jobs_per_scheduler, 0.0)
             for mode in hiersched.TAXONOMY_MODES
             for gang in range(cfg.gang_min, cfg.gang_max + 1)]
    cases.append((hiersched.TWO_LEVEL, cfg.taxonomy_nodes // 2 + 1, 2, 300.0))
    rows = []
    for mode, gang, count, duration_s in cases:
        metrics = hiersched.run_taxonomy(
            mode, hiersched.make_jobs([gang] * count, duration_s), cluster,
            decision_cost_s=cfg.decision_cost_s, seed=cfg.seed,
            deadlock_horizon_s=cfg.deadlock_horizon_s)
        rows.append({**asdict(metrics), "gang_size": gang})
    return rows


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when the body runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("cpus", [None, 1, 3], ids=["all_cpus", "one_cpu", "three_cpus"])
@pytest.mark.parametrize("seed, nodes, gang_min, gang_max", [
    (1, 7, 1, 3),    # odd node count: the oversized gang is 4 of 7
    (7, 16, 2, 5),
    (23, 9, 4, 4),   # a single gang size
    (42, 12, 1, 6),
])
def test_taxonomy_suite_rows_equal_a_serial_loop(monkeypatch, cpus, seed, nodes,
                                                 gang_min, gang_max):
    cfg = default_config(TAXONOMY, seed=seed)
    cfg.taxonomy_nodes, cfg.gang_min, cfg.gang_max = nodes, gang_min, gang_max
    cfg.jobs_per_scheduler = 15
    pools = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: pools.append(method) or get_context(method))
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process) or start(process))
    if cpus is not None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    # this process runs one share, and a worker each other one
    workers = min(len(os.sched_getaffinity(0)), 4 * (gang_max - gang_min + 1) + 1) - 1
    with deadline(60):
        rows = run_taxonomy_suite(cfg).taxonomy_rows
    assert rows == serial_taxonomy_rows(cfg)
    # one usable CPU runs the cases in this process and forks nothing
    assert pools == (["fork"] if workers else [])
    assert len(started) == workers
    assert multiprocessing.active_children() == []


def test_taxonomy_case_error_is_raised_and_reported(monkeypatch, tmp_path, capsys):
    run_taxonomy = orchestrator.run_taxonomy

    def refuse_shared_state(mode, *args, **kwargs):
        if mode == hiersched.SHARED_STATE:
            raise ValueError("shared_state refused")
        return run_taxonomy(mode, *args, **kwargs)

    # forked workers inherit the patch
    monkeypatch.setattr(orchestrator, "run_taxonomy", refuse_shared_state)
    with deadline(60), pytest.raises(ValueError, match="shared_state refused"):
        run_taxonomy_suite(small_taxonomy())
    assert multiprocessing.active_children() == []
    config = tmp_path / "taxonomy.ini"
    config.write_text("[experiment]\nkind = taxonomy\nseed = 3\n"
                      "[taxonomy]\njobs_per_scheduler = 20\ngang_max = 3\n"
                      f"[output]\ndirectory = {tmp_path / 'out'}\n")
    with deadline(60):
        assert cli.main(["run", "--config", str(config)]) == 2
    assert "error: shared_state refused" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


# small_taxonomy's cases are the four modes x gangs 1-4, then the hoarding
# case; on two CPUs this process runs the even-numbered ones, the worker the
# odd-numbered ones
@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("failing", [
    # (mode, gang): case 5 in the worker's share, then case 12 in this one's
    ((hiersched.MONOLITHIC_PARTITION, 2), (hiersched.SHARED_STATE, 1)),
    # case 4 in this process's share, then case 13 in the worker's
    ((hiersched.MONOLITHIC_PARTITION, 1), (hiersched.SHARED_STATE, 2)),
], ids=["first_in_the_worker", "first_in_this_process"])
def test_taxonomy_raises_the_first_failing_case_in_case_order(monkeypatch, cpus, failing):
    run_taxonomy = orchestrator.run_taxonomy

    def refuse(mode, workload, *args, **kwargs):
        gang = workload[0].request.nodes
        if (mode, gang) in failing:
            raise ValueError(f"{mode} refused gang {gang}")
        return run_taxonomy(mode, workload, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_taxonomy", refuse)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    (mode, gang), _ = failing
    with deadline(60), pytest.raises(ValueError, match=f"^{mode} refused gang {gang}$"):
        run_taxonomy_suite(small_taxonomy())
    assert multiprocessing.active_children() == []


def test_taxonomy_raises_when_a_worker_process_dies(monkeypatch):
    run_taxonomy, test_pid = orchestrator.run_taxonomy, os.getpid()

    def die_in_a_worker(*args, **kwargs):
        if os.getpid() != test_pid:
            os._exit(3)
        return run_taxonomy(*args, **kwargs)

    monkeypatch.setattr(orchestrator, "run_taxonomy", die_in_a_worker)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with deadline(60), pytest.raises(ScenarioError,
                                     match="^taxonomy worker process exited with code 3$"):
        run_taxonomy_suite(small_taxonomy())
    assert multiprocessing.active_children() == []


# --- hybrid ------------------------------------------------------------------------


def test_hybrid_trains_and_scores_three_models():
    bundle = run_hybrid(small_hybrid())
    models = bundle.hybrid["models"]
    assert sorted(models) == ["bayesian", "linear_sgd", "passive_aggressive"]
    for info in models.values():
        assert len(info["pairs"]) == 20
        assert info["samples_seen"] == 60
        # the reported score matches a recomputation from the emitted pairs
        expected = mlcore.r_squared([tuple(p) for p in info["pairs"]])
        assert info["r_squared"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("verb", ["create", "train", "predict", "record_truth", "metrics"])
def test_hybrid_stops_on_a_rejected_service_reply(monkeypatch, verb):
    monkeypatch.setattr(mlserve.MLService, verb,
                        lambda *args: mlserve.ServiceResponse("bad_request"))
    # the first model the hybrid asks about is the first variant
    with pytest.raises(ScenarioError, match=f"^{verb} failed for model linear_sgd: bad_request$"):
        run_hybrid(small_hybrid())


def hybrid_config(seed, train_count, test_count, train_width=1):
    cfg = default_config(HYBRID, seed=seed)
    cfg.cluster_nodes = 1 + cfg.sim_nodes * train_width
    cfg.train_count, cfg.test_count, cfg.train_width = train_count, test_count, train_width
    return cfg


@pytest.mark.parametrize("seed, train_count, test_count, train_width", [
    (3, 300, 40, 1),   # more samples than one batch
    (11, 90, 30, 2),   # concurrent training jobs
    (29, 1, 1, 1),     # one sample per phase: no R-squared
])
def test_hybrid_bundle_does_not_depend_on_the_cpu_count(monkeypatch, seed, train_count,
                                                        test_count, train_width):
    cfg = hybrid_config(seed, train_count, test_count, train_width)
    contexts = []
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: contexts.append(method) or get_context(method))
    with monkeypatch.context() as one_cpu, deadline(60):
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        pinned = run_hybrid(cfg)
    # one usable CPU runs the service in this process
    assert contexts == []
    with deadline(60):
        unpinned = run_hybrid(cfg)
    assert contexts == (["fork"] if len(os.sched_getaffinity(0)) > 1 else [])
    assert unpinned == pinned
    assert unpinned.to_json() == pinned.to_json()
    assert multiprocessing.active_children() == []


def test_hybrid_service_error_is_raised_and_reported(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise RuntimeError("service refused a sample")

    # a forked service process inherits the patch. The first sample fails,
    # and several batches follow it, which the service must still read
    monkeypatch.setattr(mlserve.MLService, "train", refuse)
    with deadline(60), pytest.raises(RuntimeError, match="^service refused a sample$"):
        run_hybrid(hybrid_config(5, 1200, 20))
    assert multiprocessing.active_children() == []
    config = tmp_path / "hybrid.ini"
    config.write_text("[experiment]\nkind = hybrid\nseed = 5\n"
                      "[cluster]\nnodes = 5\n[hybrid]\ntrain_count = 1200\ntest_count = 20\n"
                      f"[output]\ndirectory = {tmp_path / 'out'}\n")
    with deadline(60):
        assert cli.main(["run", "--config", str(config)]) == 2
    assert "error: service refused a sample" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_hybrid_simulation_error_mid_stream_leaves_no_child(monkeypatch):
    lammps_walltime = workloads.lammps_walltime
    calls = itertools.count(1)

    def fail_on_call_600(*args, **kwargs):
        if next(calls) == 600:  # after two batches have gone to the service
            raise RuntimeError("simulation broke")
        return lammps_walltime(*args, **kwargs)

    monkeypatch.setattr(workloads, "lammps_walltime", fail_on_call_600)
    with deadline(60), pytest.raises(RuntimeError, match="simulation broke"):
        run_hybrid(hybrid_config(5, 1200, 20))
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="with one usable CPU the service runs in this process")
@pytest.mark.parametrize("train_count", [60, 1200], ids=["at_the_end", "mid_stream"])
def test_hybrid_raises_when_the_service_process_dies(monkeypatch, train_count):
    # the dead child is found on reading its reply (one batch) or on
    # sending it the next batch (many)
    monkeypatch.setattr(mlserve.MLService, "train", lambda *args: os._exit(3))
    with deadline(60), pytest.raises(ScenarioError, match="exited with code 3"):
        run_hybrid(hybrid_config(5, train_count, 20))
    assert multiprocessing.active_children() == []


def hybrid_peak_bytes(train_count: int) -> int:
    """The tracemalloc peak of a hybrid run with `train_count` training jobs."""
    tracemalloc.start()
    try:
        run_hybrid(hybrid_config(5, train_count, 20))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hybrid_peak_memory_does_not_grow_with_train_count(monkeypatch):
    # in this process, so that the service's memory is traced as well; jobs
    # made up front would add about 1.2 KB each to the peak
    monkeypatch.setattr(orchestrator, "_usable_cpus", lambda: 1)
    small, large = hybrid_peak_bytes(1200), hybrid_peak_bytes(4800)
    assert large - small < 32 * 1024, (small, large)


def test_hybrid_suballocations_never_share_nodes():
    bundle = run_hybrid(small_hybrid())
    service_nodes = set(bundle.hybrid["service_nodes"])
    sim_nodes = set(bundle.hybrid["sim_nodes"])
    assert service_nodes and sim_nodes
    assert not service_nodes & sim_nodes


def test_hybrid_with_two_node_service_host():
    cfg = small_hybrid()
    cfg.cluster_nodes = 6
    cfg.service_nodes = 2
    bundle = run_hybrid(cfg)
    service_nodes = set(bundle.hybrid["service_nodes"])
    assert len(service_nodes) == 2
    assert not service_nodes & set(bundle.hybrid["sim_nodes"])
    assert len(bundle.hybrid["models"]) == 3


def test_hybrid_train_width_widens_simulation_partition():
    cfg = small_hybrid()
    cfg.cluster_nodes = 9
    cfg.train_width = 2
    bundle = run_hybrid(cfg)
    assert len(bundle.hybrid["sim_nodes"]) == 8
    for info in bundle.hybrid["models"].values():
        assert info["samples_seen"] == 60


def test_hybrid_model_hyperparameters_are_config_overridable(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[cluster]\nnodes = 5\n"
        "[experiment]\nkind = hybrid\nseed = 3\n"
        "[hybrid]\ntrain_count = 5\ntest_count = 2\n"
        "[models]\nlearning_rate = 0.5\nalpha = 2.5\nepsilon = 0.3\n"
    )
    cfg = load_config(path)
    assert cfg.model_params == {
        "linear_sgd": {"learning_rate": 0.5},
        "bayesian": {"alpha": 2.5},
        "passive_aggressive": {"epsilon": 0.3},
    }
    bundle = run_hybrid(cfg)
    assert bundle.config["model_params"]["bayesian"]["alpha"] == 2.5
    # a different learning rate must actually change the trained model
    base = run_hybrid(small_hybrid(seed=3))
    assert (
        bundle.hybrid["models"]["linear_sgd"]["pairs"]
        != base.hybrid["models"]["linear_sgd"]["pairs"]
    )


def test_bad_pod_section_is_config_error(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[cluster]\nnodes = 7\n"
        "[experiment]\nkind = hybrid\nseed = 4\n"
        "[pod:broken]\nreplicas = 0\n"
    )
    with pytest.raises(ConfigError):
        load_config(path)


def test_hybrid_noiseless_walltimes_follow_the_cost_surface():
    cfg = small_hybrid()
    cfg.noise_sigma = 0.0
    bundle = run_hybrid(cfg)
    t_s, k = workloads.volumetric_fit()
    actuals = {
        round(a, 9)
        for a, _ in bundle.hybrid["models"]["linear_sgd"]["pairs"]
    }
    allowed = {
        round(t_s + k * (x * y * z), 9)
        for x in range(1, 9) for y in range(1, 9) for z in range(1, 9)
    }
    assert actuals <= allowed


def test_hybrid_walltimes_are_an_independent_replay_of_the_job_streams():
    # each job's walltime is drawn when the job is made; FCFS without
    # backfill places jobs in that order, so the noise stream is drawn once
    # per job, in job-id order, train jobs first
    cfg = small_hybrid(seed=5)
    cfg.train_count, cfg.test_count = 90, 30
    assert cfg.train_width == 1 and cfg.noise_sigma > 0
    bundle = run_hybrid(cfg)
    streams = RngStreams(cfg.seed)
    dims, noise = streams.stream("hybrid.dims"), streams.stream("hybrid.noise")
    ranks = cfg.sim_nodes * cfg.cluster.cores_per_node
    walltimes = []
    for _ in range(cfg.train_count + cfg.test_count):
        x, y, z = dims.integers(cfg.dim_min, cfg.dim_max + 1, size=3).tolist()
        walltimes.append(workloads.lammps_walltime(
            ranks, workloads.LammpsProblem(x, y, z), noise, cfg.noise_sigma))
    for variant in orchestrator.HYBRID_MODELS:
        actuals = [a for a, _ in bundle.hybrid["models"][variant]["pairs"]]
        assert actuals == walltimes[cfg.train_count:]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), dim_min=st.integers(1, 64),
       span=st.one_of(st.integers(0, 15), st.integers(0, 2**40)),
       phases=st.lists(st.integers(0, 700), min_size=1, max_size=3),
       block=st.sampled_from([1, 2, 3, 7, 100, orchestrator.SAMPLE_BATCH]))
def test_dims_drawn_in_blocks_equal_one_draw_per_job(seed, dim_min, span, phases, block):
    # run_hybrid draws a phase's dims in blocks of at most SAMPLE_BATCH jobs,
    # never past the phase's last job; that keeps every bit only because
    # numpy's bounded integers keep no spare random bits outside the bit
    # generator's own state, so a block continues the stream where one
    # size=3 draw per job would
    high = dim_min + span + 1
    per_job, blocked = RngStreams(seed).stream("d"), RngStreams(seed).stream("d")
    for count in phases:
        expected = [per_job.integers(dim_min, high, size=3).tolist() for _ in range(count)]
        drawn = []
        for start in range(0, count, block):
            n = min(block, count - start)
            drawn += blocked.integers(dim_min, high, size=(n, 3)).tolist()
        assert drawn == expected, (
            "numpy's integers(size=(n, 3)) no longer continues the stream as one "
            "integers(size=3) per job; run_hybrid's block draws change the job dims")


class _CountingDraws:
    """A generator whose `integers` calls are recorded by size."""

    def __init__(self, rng, sizes):
        self._rng, self._sizes = rng, sizes

    def integers(self, *args, size):
        self._sizes.append(size)
        return self._rng.integers(*args, size=size)


def test_in_process_hybrid_scales_each_sample_once_and_draws_dims_in_blocks(monkeypatch):
    cfg = hybrid_config(11, 6000, 300)
    prepares, sizes, solves = [], [], []
    prepare, stream, solve = mlcore.RunningScaler.prepare, RngStreams.stream, np.linalg.solve
    monkeypatch.setattr(orchestrator, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(mlcore.RunningScaler, "prepare",
                        lambda self, x: prepares.append(1) or prepare(self, x))
    monkeypatch.setattr(np.linalg, "solve", lambda A, c: solves.append(1) or solve(A, c))
    monkeypatch.setattr(RngStreams, "stream", lambda self, label: (
        _CountingDraws(stream(self, label), sizes) if label == "hybrid.dims"
        else stream(self, label)))
    bundle = run_hybrid(cfg)
    assert all(m["samples_seen"] == 6000 for m in bundle.hybrid["models"].values())
    assert len(prepares) == 6000  # one per sample, not one per model
    assert len(solves) == 1  # the bayesian weights of 300 predictions, one model state
    batch = orchestrator.SAMPLE_BATCH
    assert sizes == [(min(batch, count - start), 3)
                     for count in (6000, 300) for start in range(0, count, batch)]


# --- emission ----------------------------------------------------------------------


def test_emit_report_files_and_table_columns(tmp_path):
    bundle = run_scaling_study(small_scaling())
    written = emit_report(bundle, tmp_path / "out")
    names = {p.name for p in written}
    assert {"bundle.json", "lammps_table.csv", "lammps_samples.csv",
            "osu_series.csv", "scaling_walltime.svg"} <= names
    header = (tmp_path / "out" / "lammps_table.csv").read_text().splitlines()[0]
    assert header == "environment,nodes,ranks,mean_s,stddev_s,cpu_pct"
    assert len((tmp_path / "out" / "lammps_table.csv").read_text().splitlines()) == 11


@pytest.mark.parametrize("experiment", orchestrator.EXPERIMENTS)
def test_bundle_json_equals_the_asdict_reference(experiment):
    bundle = run_scenario(default_config(experiment))
    assert bundle.to_json() == bundle_json_reference(bundle)


def test_csv_formats_numpy_scalars_as_plain_floats(tmp_path):
    import numpy as np

    from convergesim.reporting import _csv_text

    text = _csv_text(("v",), [{"v": np.float64(82.5)}])
    assert text == "v\n82.5\n"


def test_emit_rejects_unknown_format(tmp_path):
    from convergesim.reporting import ReportError

    bundle = run_taxonomy_suite(small_taxonomy())
    with pytest.raises(ReportError):
        emit_report(bundle, tmp_path, formats=("parquet",))


def test_emitted_bundle_roundtrips(tmp_path):
    bundle = run_taxonomy_suite(small_taxonomy())
    emit_report(bundle, tmp_path)
    text = (tmp_path / "bundle.json").read_text()
    clone = ReportBundle.from_json(text)
    assert clone.taxonomy_rows == bundle.taxonomy_rows
    assert clone.kind == bundle.kind


def test_hybrid_scatter_row_counts(tmp_path):
    bundle = run_hybrid(small_hybrid())
    emit_report(bundle, tmp_path)
    for name in ("linear_sgd", "bayesian", "passive_aggressive"):
        lines = (tmp_path / f"hybrid_{name}.csv").read_text().splitlines()
        assert len(lines) == 1 + 20  # header + one row per test job
        assert (tmp_path / f"hybrid_{name}.svg").exists()


def test_identical_runs_emit_identical_bytes(tmp_path):
    for maker in (small_scaling, small_taxonomy, small_hybrid):
        b1 = run_scenario(maker())
        b2 = run_scenario(maker())
        d1, d2 = tmp_path / f"{b1.kind}_1", tmp_path / f"{b1.kind}_2"
        f1 = emit_report(b1, d1)
        f2 = emit_report(b2, d2)
        assert [p.name for p in f1] == [p.name for p in f2]
        for a, b in zip(f1, f2):
            assert filecmp.cmp(a, b, shallow=False), a.name


# --- CLI ---------------------------------------------------------------------------


def write_config(tmp_path, seed=5):
    path = tmp_path / "scenario.ini"
    path.write_text(
        "[cluster]\nnodes = 5\ncores_per_node = 16\n"
        "[experiment]\nkind = hybrid\nseed = %d\n"
        "[hybrid]\ntrain_count = 30\ntest_count = 10\n"
        "[output]\ndirectory = %s\n" % (seed, tmp_path / "out")
    )
    return path


def test_cli_run_writes_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "out" / "bundle.json").exists()
    assert (tmp_path / "out" / "hybrid_summary.csv").exists()


def test_cli_run_seed_override(tmp_path):
    config = write_config(tmp_path)
    assert cli.main(["run", "--config", str(config), "--seed", "6",
                     "--out", str(tmp_path / "o2")]) == 0
    bundle = json.loads((tmp_path / "o2" / "bundle.json").read_text())
    assert bundle["seed"] == 6


def test_cli_run_bad_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nkind = nonsense\nseed = 1\n")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_report_reemits_from_bundle(tmp_path, capsys):
    config = write_config(tmp_path)
    cli.main(["run", "--config", str(config)])
    bundle_path = tmp_path / "out" / "bundle.json"
    target = tmp_path / "again"
    assert cli.main(["report", "--bundle", str(bundle_path), "--format", "csv",
                     "--out", str(target)]) == 0
    assert (target / "hybrid_summary.csv").exists()
    assert not (target / "hybrid_linear_sgd.svg").exists()


@pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
@pytest.mark.parametrize("kind", ["scaling", "hybrid"])
def test_cli_report_reemits_committed_reports(kind, fmt, tmp_path):
    committed = ROOT / "out" / kind
    assert cli.main(["report", "--bundle", str(committed / "bundle.json"),
                     "--format", fmt, "--out", str(tmp_path)]) == 0
    expected = {p.name: p.read_bytes() for p in committed.glob(f"*.{fmt}")}
    assert expected
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == expected


def test_cli_report_missing_bundle_exits_one(tmp_path):
    assert cli.main(["report", "--bundle", str(tmp_path / "none.json"),
                     "--format", "csv"]) == 1


def bundle_text(**fields) -> bytes:
    return ReportBundle(**{"kind": SCALING_STUDY, "seed": 1, **fields}).to_json().encode()


@pytest.mark.parametrize("content, says", [
    (b"not json", ""), (b'{"kind":"x","seed":1,"bogus":2}', ""), (b"[1,2]", ""), (b"{}", ""),
    (b'{"kind":"caf\xe9"}', ""),
    # these exited 2 with Python's own message: 'int' object is not iterable
    (bundle_text(lammps_cells=5), "field 'lammps_cells' has type int, not list"),
    (bundle_text(hybrid=[]), "field 'hybrid' has type list, not dict"),
    (bundle_text(config=None), "field 'config' has type NoneType, not dict"),
    (bundle_text(seed="42"), "field 'seed' has type str, not int"),
    (bundle_text(seed=True), "field 'seed' has type bool, not int"),
    (bundle_text(kind=1), "field 'kind' has type int, not str"),
    # this one exited 0 and wrote nothing
    (bundle_text(kind="x"), "kind 'x' names no scenario"),
], ids=["not_json", "unknown_key", "not_an_object", "empty", "not_utf8", "cells_int",
        "hybrid_list", "config_null", "seed_str", "seed_bool", "kind_int", "kind_unknown"])
def test_cli_report_on_a_file_that_is_not_a_bundle_exits_one(tmp_path, capsys, content, says):
    # each of the first five exited 2 with Python's own message, not naming the file
    path = tmp_path / "bundle.json"
    path.write_bytes(content)
    out = tmp_path / "out"
    assert cli.main(["report", "--bundle", str(path), "--format", "csv",
                     "--out", str(out)]) == 1
    assert f"config error: bundle file {path}: {says}" in capsys.readouterr().err
    assert not out.exists()


def edited_scaling_bundle(field, edit) -> str:
    """The committed scaling bundle's JSON text after `edit` of one field."""
    raw = json.loads((ROOT / "out" / "scaling" / "bundle.json").read_text())
    raw[field] = edit(raw[field])
    return json.dumps(raw)


@pytest.mark.parametrize("field, edit, fmt, says", [
    ("lammps_cells", lambda cells: [5], "csv", "TypeError: 'int' object is not iterable"),
    ("lammps_cells", lambda cells: [5], "svg", "TypeError: 'int' object is not subscriptable"),
    ("osu_series", lambda rows: [[1]] + rows[1:], "csv", "KeyError: 'nodes'"),
    # one point far out: the chart's axis has no width to scale by
    ("lammps_cells", lambda cells: [{**cells[0], "nodes": 1e308}], "svg",
     "ZeroDivisionError"),
    ("lammps_cells", lambda cells: [{**cells[0], "nodes": "four"}], "svg", "ValueError"),
    ("hybrid", lambda hybrid: {"models": []}, "csv",
     "AttributeError: 'list' object has no attribute 'items'"),
], ids=["cells_int_csv", "cells_int_svg", "osu_row_short_csv", "cells_huge_svg",
        "cells_text_nodes_svg", "hybrid_models_list_csv"])
def test_cli_report_on_a_row_that_does_not_render_exits_one(tmp_path, capsys, field, edit,
                                                            fmt, says):
    # these exited 2, and the osu case only after writing both lammps CSVs
    path = tmp_path / "bundle.json"
    path.write_text(edited_scaling_bundle(field, edit))
    out = tmp_path / "out"
    assert cli.main(["report", "--bundle", str(path), "--format", fmt,
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: bundle file {path}: a row does not render as {fmt}")
    assert says in err
    assert not out.exists()


def test_cli_calibrate_prints_solution(tmp_path, capsys):
    anchors = Path("src/convergesim/data/network_anchors.json")
    assert cli.main(["calibrate", "--anchors", str(anchors)]) == 0
    out = capsys.readouterr().out
    assert "os_bypass" in out and "tap_relay" in out
    assert "7.46e-06" in out


def test_cli_calibrate_missing_file_exits_one(tmp_path):
    assert cli.main(["calibrate", "--anchors", str(tmp_path / "none.json")]) == 1
