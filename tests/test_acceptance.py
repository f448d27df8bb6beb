"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds (run with `pytest -v -s tests/test_acceptance.py`
to see the lines; the test names double as the criterion labels).

Deriveds are recomputed here from independent oracles: closed-form
algebra on the anchor figures, exhaustive enumeration, a brute-force
accounting mirror, and batch solutions for the streaming learners.
"""

import filecmp
import time

import numpy as np
import pytest

from helpers import (
    AccountingMirror,
    GraphRecorder,
    batch_ridge,
    exhaustive_conflict_probability,
    learn_transform,
    moments,
)
from convergesim import netmodel, orchestrator, workloads
from convergesim.hiersched import (
    SHARED_STATE,
    TWO_LEVEL,
    Instance,
    Job,
    make_jobs,
    run_taxonomy,
)
from convergesim.mlcore import BayesianLinear, PassiveAggressive, RunningScaler
from convergesim.netmodel import MIB_4
from convergesim.reporting import emit_report
from convergesim.resgraph import (
    ClusterSpec,
    InsufficientCapacityError,
    ResourceRequest,
    build_cluster,
)
from convergesim.simkernel import Engine

NET = netmodel.load_network()

# pre-registered noise-free oracle scores for the default hybrid run
# (seed 42, 1000 train / 250 test, noise_sigma = 0); the gate below allows
# a 0.05 margin under these. Recompute with:
#   cfg = default_config("hybrid"); cfg.noise_sigma = 0.0; run_hybrid(cfg)
HYBRID_ORACLE_R2 = {
    "bayesian": -4.063334395757722,
    "linear_sgd": 0.7830054202523413,
    "passive_aggressive": 0.597694964247077,
}
HYBRID_R2_MARGIN = 0.05


def _report(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_c01_calibration_roundtrip():
    started = time.perf_counter()
    assert netmodel.p2p_latency(NET.os_bypass, 1) == pytest.approx(7.46e-6, rel=0.005)
    assert netmodel.p2p_latency(NET.tap_relay, 1) == pytest.approx(12.31e-6, rel=0.005)
    assert netmodel.p2p_bandwidth(NET.os_bypass, 1) == pytest.approx(1.712e6, rel=1e-12)
    assert netmodel.p2p_bandwidth(NET.tap_relay, 1) == pytest.approx(1.3e6, rel=1e-12)
    assert netmodel.p2p_bandwidth(NET.os_bypass, MIB_4) == pytest.approx(
        24.202e9, rel=0.01
    )
    assert netmodel.p2p_bandwidth(NET.tap_relay, MIB_4) == pytest.approx(
        24.125e9, rel=0.01
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report("C1 calibration round-trip")


def test_c02_barrier_baseline_from_gap_and_excess():
    # independent solve of {tap - bypass = 31.89 us, tap = 1.7868 * bypass}
    gap, excess = 31.89e-6, 0.7868
    bypass_expected = gap / excess
    tap_expected = bypass_expected + gap
    assert bypass_expected == pytest.approx(40.53e-6, rel=1e-3)
    assert tap_expected == pytest.approx(72.42e-6, rel=1e-3)
    assert netmodel.barrier_time(NET.os_bypass, 4) == pytest.approx(
        bypass_expected, rel=0.005
    )
    assert netmodel.barrier_time(NET.tap_relay, 4) == pytest.approx(
        tap_expected, rel=0.005
    )
    _report("C2 derived barrier baseline")


def test_c03_allreduce_band_containment():
    m = 4.0
    while m <= MIB_4:
        mu4 = netmodel.allreduce_mu(NET.tap_relay, m, 4)
        mu32 = netmodel.allreduce_mu(NET.tap_relay, m, 32)
        assert 3.6 - 1e-9 <= mu4 <= 13.7 + 1e-9, f"mu out of band at m={m}, p=4"
        assert 2.89 - 1e-9 <= mu32 <= 4.32 + 1e-9, f"mu out of band at m={m}, p=32"
        m *= 2.0
    _report("C3 allreduce band containment")


def test_c04_scaling_study_replay_fidelity():
    started = time.perf_counter()
    cfg = orchestrator.default_config(orchestrator.SCALING_STUDY)
    bundle = orchestrator.run_scaling_study(cfg)
    assert len(bundle.lammps_samples) == 400  # 5 envs x 4 sizes x 20 iterations
    for cell in bundle.lammps_cells:
        row = workloads.table_row(cell["environment"], cell["nodes"])
        if row.stddev_s < 1.0:
            assert cell["mean_s"] == pytest.approx(row.mean_s, rel=0.03), cell
        else:
            assert abs(cell["mean_s"] - row.mean_s) <= row.stddev_s, cell
    by_cell = {
        (c["environment"], c["nodes"]): c["mean_s"] for c in bundle.lammps_cells
    }
    gap = by_cell[("usernetes", 32)] - by_cell[("bare_metal", 32)]
    assert abs(gap - 3.35) <= 1.5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("C4 scaling-study replay fidelity")


def test_c05_contention_freedom_oracle():
    rng = np.random.default_rng(777)
    engine = Engine(5)
    graph = build_cluster(ClusterSpec(8, 4))
    root = graph.allocation(graph.root_allocation)
    mirror = AccountingMirror(
        graph.spec,
        graph.root_allocation,
        dict(root.node_slices),
    )
    recorder = GraphRecorder(graph, engine)
    applied = 0

    def sync():
        nonlocal applied
        while applied < len(recorder.ops):
            mirror.apply(recorder.ops[applied])
            applied += 1

    inst_alloc = graph.carve(graph.root_allocation, ResourceRequest(nodes=4))
    sync()
    instance = Instance(engine, graph, inst_alloc.alloc_id, decision_cost_s=1e-4)
    extras = []
    job_id = 0
    while len(recorder.ops) < 10_000:
        action = rng.random()
        if action < 0.5:
            job_id += 1
            instance.submit(
                Job(
                    job_id=job_id,
                    request=ResourceRequest(nodes=int(rng.integers(1, 3))),
                    duration=float(rng.uniform(0.0, 0.01)),
                )
            )
            engine.run_until(engine.now + float(rng.uniform(0.0, 0.02)))
        elif action < 0.75:
            try:
                child = graph.carve(
                    graph.root_allocation,
                    ResourceRequest(
                        nodes=int(rng.integers(1, 3)),
                        cores_per_node=int(rng.integers(1, 3)),
                        exclusive=False,
                    ),
                )
                extras.append(child.alloc_id)
            except InsufficientCapacityError:
                pass
        elif extras:
            victim = extras.pop(int(rng.integers(len(extras))))
            graph.release(victim)
        sync()
    engine.drain()
    for alloc_id in extras:
        graph.release(alloc_id)
    graph.release(inst_alloc.alloc_id)
    sync()
    assert mirror.events >= 10_000
    assert graph.root_fully_free()
    _report("C5 contention-freedom oracle (10^4 events)")


def test_c06_taxonomy_properties():
    cluster16 = ClusterSpec(16, 16)
    # hierarchical: conflict-free for any workload and seed
    for seed in (0, 11, 42):
        workload = make_jobs([1, 2, 4, 8] * 25, duration_s=0.005)
        metrics = run_taxonomy("hierarchical", workload, cluster16, seed=seed)
        assert metrics.conflict_fraction == 0.0

    # two-level: the >50% gang pair deadlocks via hoarded partial offers
    metrics = run_taxonomy(
        TWO_LEVEL, make_jobs([9, 9], duration_s=300.0), cluster16
    )
    assert metrics.deadlocked is True

    # shared-state: conflicts never decrease as gangs grow (fixed seed)
    fractions = []
    for gang in range(1, 9):
        metrics = run_taxonomy(
            SHARED_STATE, make_jobs([gang] * 200), cluster16, seed=123
        )
        fractions.append(metrics.conflict_fraction)
    assert fractions == sorted(fractions)

    # exhaustive interleaving oracle at 4 nodes: enumerate every ordered
    # proposal pair; the collision probability is non-decreasing in gang
    # size, and the saturated regime (2*gang > nodes) pins the simulated
    # conflict fraction at exactly 1/3
    probabilities = [exhaustive_conflict_probability(4, g) for g in (1, 2, 3, 4)]
    assert probabilities == sorted(probabilities)
    for gang, p in zip((1, 2, 3, 4), probabilities):
        metrics = run_taxonomy(
            SHARED_STATE, make_jobs([gang] * 160), ClusterSpec(4, 16), seed=7
        )
        if p == 1.0:
            assert metrics.conflict_fraction == pytest.approx(1 / 3, abs=1e-12)
        else:
            assert metrics.conflict_fraction < 1 / 3
    _report("C6 taxonomy properties")


def test_c07_throughput_anchor():
    engine = Engine(0)
    graph = build_cluster(ClusterSpec(16, 16))
    instance = Instance(engine, graph, graph.root_allocation)  # 1.25 ms decisions
    for i in range(8000):
        instance.submit(
            Job(job_id=i + 1, request=ResourceRequest(nodes=1), duration=0.0)
        )
    engine.drain()
    assert instance.completed == 8000
    assert abs(engine.now - 10.0) <= 0.1
    _report("C7 throughput anchor (800 jobs/s)")


def test_c08_ml_oracles():
    rng = np.random.default_rng(2024)
    # incremental posterior mean == batch ridge, 100 random streams
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        n = int(rng.integers(2, 201))
        alpha = float(rng.uniform(0.2, 4.0))
        beta = float(rng.uniform(0.2, 4.0))
        X = rng.normal(size=(n, dim))
        y = rng.normal(size=n)
        model = BayesianLinear(alpha=alpha, beta=beta)
        names = [f"f{i}" for i in range(dim)]
        for row, target in zip(X, y):
            model.learn(dict(zip(names, row)), float(target))
        assert np.allclose(model.weights(), batch_ridge(X, y, alpha / beta), atol=1e-8)

    # running scaler == batch statistics over 10^4 samples
    scaler = RunningScaler()
    xs = rng.normal(5.0, 7.0, size=10_000)
    for x in xs:
        learn_transform(scaler, {"v": float(x)})
    assert abs(moments(scaler, "v")[0] - xs.mean()) < 1e-10
    assert abs(moments(scaler, "v")[1] - xs.var()) < 1e-10

    # PA-I no-update zone is bit-exact
    pa = PassiveAggressive(C=1.0, epsilon=0.25)
    pa.learn({"a": 1.0, "b": 2.0}, 4.0)
    w_before, b_before = pa.w.copy(), pa.b
    inside = pa.predict({"a": 1.0, "b": 2.0}) + 0.2
    pa.learn({"a": 1.0, "b": 2.0}, inside)
    assert np.array_equal(pa.w, w_before) and pa.b == b_before

    # bayesian permutation invariance within 1e-9
    X = rng.normal(size=(80, 3))
    y = rng.normal(size=80)

    def train(order):
        model = BayesianLinear()
        for i in order:
            model.learn({"a": X[i, 0], "b": X[i, 1], "c": X[i, 2]}, float(y[i]))
        return model.weights()

    base = train(range(80))
    for _ in range(5):
        assert np.allclose(train(rng.permutation(80)), base, atol=1e-9)
    _report("C8 ML oracles")


def test_c09_hybrid_end_to_end():
    started = time.perf_counter()
    # pre-registration check: the committed oracle values reproduce exactly
    oracle_cfg = orchestrator.default_config(orchestrator.HYBRID)
    oracle_cfg.noise_sigma = 0.0
    oracle = orchestrator.run_hybrid(oracle_cfg)
    for name, frozen in HYBRID_ORACLE_R2.items():
        assert oracle.hybrid["models"][name]["r_squared"] == pytest.approx(
            frozen, rel=1e-12
        ), f"noise-free oracle drifted for {name}"

    cfg = orchestrator.default_config(orchestrator.HYBRID)
    bundle = orchestrator.run_hybrid(cfg)
    models = bundle.hybrid["models"]
    assert sorted(models) == sorted(HYBRID_ORACLE_R2)
    for name, info in models.items():
        assert len(info["pairs"]) == 250
        assert info["samples_seen"] == 1000
        threshold = HYBRID_ORACLE_R2[name] - HYBRID_R2_MARGIN
        assert info["r_squared"] >= threshold, (
            f"{name}: r2 {info['r_squared']} under threshold {threshold}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("C9 hybrid end-to-end")


def test_c10_byte_identical_reports(tmp_path):
    scenarios = []
    scaling = orchestrator.default_config(orchestrator.SCALING_STUDY)
    scenarios.append(scaling)
    taxonomy = orchestrator.default_config(orchestrator.TAXONOMY)
    taxonomy.jobs_per_scheduler = 60
    scenarios.append(taxonomy)
    hybrid = orchestrator.default_config(orchestrator.HYBRID)
    hybrid.train_count, hybrid.test_count = 120, 40
    scenarios.append(hybrid)
    for cfg in scenarios:
        first = orchestrator.run_scenario(cfg)
        second = orchestrator.run_scenario(cfg)
        dir_a = tmp_path / f"{cfg.experiment}_a"
        dir_b = tmp_path / f"{cfg.experiment}_b"
        files_a = emit_report(first, dir_a)
        files_b = emit_report(second, dir_b)
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for a, b in zip(files_a, files_b):
            assert filecmp.cmp(a, b, shallow=False), f"{cfg.experiment}/{a.name}"
    _report("C10 determinism (byte-identical reports)")
