import gc
import os
import tracemalloc

import pytest

import convergesim
from helpers import (
    GraphRecorder,
    assert_no_cross_instance_overlap,
    exhaustive_conflict_probability,
    record_dispatches,
)
from convergesim.hiersched import (
    HIERARCHICAL,
    MONOLITHIC_PARTITION,
    SHARED_STATE,
    TWO_LEVEL,
    Instance,
    Job,
    UnsatisfiableRequestError,
    make_jobs,
    run_taxonomy,
)
from convergesim.resgraph import ClusterSpec, ResourceRequest, build_cluster
from convergesim.simkernel import Engine


def setup_instance(node_count=32, cores=16, seed=0):
    engine = Engine(seed)
    graph = build_cluster(ClusterSpec(node_count, cores))
    inst = Instance(engine, graph, graph.root_allocation)
    return engine, graph, inst


def job(job_id, nodes, duration=0.0):
    return Job(job_id=job_id, request=ResourceRequest(nodes=nodes), duration=duration)


def test_root_instance_schedules_any_fitting_job():
    engine, graph, inst = setup_instance(33)
    inst.submit(job(1, 33, duration=2.0))
    engine.drain()
    assert inst.completed == 1
    # the job's carve was released on completion, so the root is free again
    assert graph.root_fully_free()


def test_child_instance_cannot_exceed_its_carve():
    engine = Engine(0)
    graph = build_cluster(ClusterSpec(33, 16))
    carve = graph.carve(graph.root_allocation, ResourceRequest(nodes=32))
    inst = Instance(engine, graph, carve.alloc_id)
    with pytest.raises(UnsatisfiableRequestError):
        inst.submit(job(1, 33))


def test_three_level_nest_stays_bounded():
    engine = Engine(0)
    graph = build_cluster(ClusterSpec(16, 16))
    batch = graph.carve(graph.root_allocation, ResourceRequest(nodes=8))
    inner = graph.carve(batch.alloc_id, ResourceRequest(nodes=4))
    instances = [
        Instance(engine, graph, graph.root_allocation),
        Instance(engine, graph, batch.alloc_id),
        Instance(engine, graph, inner.alloc_id),
    ]
    allowed = [set(range(16)), set(batch.node_ids), set(inner.node_ids)]
    recorder = GraphRecorder(graph, engine)
    for i, inst in enumerate(instances):
        for j in range(20):
            inst.submit(job(100 * i + j, nodes=1, duration=0.01))
    engine.drain()
    for inst, bound in zip(instances, allowed):
        assert inst.completed == 20
        placements = recorder.children_of(inst.alloc_id)
        assert len(placements) == 20
        for span in placements:
            assert set(span.node_ids) <= bound


def test_submit_preserves_fifo_order():
    engine, graph, inst = setup_instance(4)
    jobs = [job(i, 1) for i in range(1000)]
    for j in jobs:
        inst.submit(j)
    assert [j.job_id for j in inst.queue] == list(range(1000))
    engine.drain()
    starts = [(j.start_t, j.job_id) for j in jobs]
    assert starts == sorted(starts)


def test_head_places_when_capacity_suffices():
    engine, graph, inst = setup_instance(32)
    inst.submit(job(1, 4, duration=100.0))
    engine.run_until(1.0)
    free_nodes = sum(
        1 for n in range(32) if graph.free_cores(graph.root_allocation, n) == 16
    )
    assert free_nodes == 28


def test_blocked_head_stalls_queue_without_backfill():
    engine, graph, inst = setup_instance(8)
    inst.submit(job(1, 5, duration=50.0))   # occupies 5 of 8
    inst.submit(job(2, 8, duration=1.0))    # blocked head
    inst.submit(job(3, 1, duration=1.0))    # would fit, but no backfill
    engine.run_until(10.0)
    jobs_running = [j for j in (inst.queue)]
    assert [j.job_id for j in jobs_running] == [2, 3]
    engine.drain()
    # after the blocker drains, strict FCFS proceeds
    assert inst.completed == 3


def test_sibling_instances_never_overlap():
    engine = Engine(1)
    graph = build_cluster(ClusterSpec(16, 16))
    insts = []
    for _ in range(2):
        carve = graph.carve(graph.root_allocation, ResourceRequest(nodes=8))
        insts.append(Instance(engine, graph, carve.alloc_id))
    recorder = GraphRecorder(graph, engine)
    rng = engine.rng.stream("test.workload")
    for i in range(100):
        for inst in insts:
            inst.submit(job(i, int(rng.integers(1, 5)),
                            duration=float(rng.uniform(0.0, 0.5))))
    engine.drain()
    spans = recorder.children_of(insts[0].alloc_id) + recorder.children_of(insts[1].alloc_id)
    assert len(spans) == 200
    assert_no_cross_instance_overlap(spans)


def test_same_workload_twice_in_one_process_gives_identical_traces():
    def traced_run():
        engine = Engine(3)
        dispatched = record_dispatches(engine)
        graph = build_cluster(ClusterSpec(8, 16))
        insts = [
            Instance(engine, graph, graph.carve(graph.root_allocation,
                                                ResourceRequest(nodes=4)).alloc_id)
            for _ in range(2)
        ]
        for i in range(1, 41):
            insts[i % 2].submit(job(i, 1 + i % 3, duration=float(i % 5)))
        engine.drain()
        return dispatched

    first, second = traced_run(), traced_run()
    assert len(first) > 80
    assert first == second


def retained_by_library(jobs: int) -> int:
    """Bytes tracemalloc attributes to convergesim after `jobs` one-node
    jobs ran through one instance whose engine and graph stay alive."""
    tracemalloc.start()
    try:
        engine, graph, inst = setup_instance(16, cores=16)
        for i in range(jobs):
            inst.submit(job(i, 1, duration=1.0))
        engine.drain()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert inst.completed == jobs and graph.root_fully_free()
    package = os.path.join(os.path.dirname(convergesim.__file__), "*")
    library = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    return sum(stat.size for stat in library.statistics("filename"))


def test_retained_memory_does_not_grow_with_job_count():
    # both runs queue more than 16 x 64 jobs, so the instance's deque holds
    # its full cache of 16 freed 64-entry blocks in each
    small, large = retained_by_library(1200), retained_by_library(4800)
    assert large - small < 4096, (small, large)


def test_unsatisfiable_core_request_rejected():
    engine, graph, inst = setup_instance(4, cores=8)
    bad = Job(job_id=1, duration=0.0,
              request=ResourceRequest(nodes=1, cores_per_node=9, exclusive=False))
    with pytest.raises(UnsatisfiableRequestError):
        inst.submit(bad)


# --- taxonomy comparators --------------------------------------------------------


CLUSTER16 = ClusterSpec(16, 16)


def test_hierarchical_runs_conflict_free_for_any_workload():
    for seed in (0, 1, 2):
        workload = make_jobs([1, 2, 4, 8] * 10, duration_s=0.01)
        metrics = run_taxonomy(HIERARCHICAL, workload, CLUSTER16, seed=seed)
        assert metrics.conflict_fraction == 0.0
        assert metrics.completed == 40
        assert metrics.deadlocked is False
        assert 0.0 <= metrics.busyness <= 1.0


def test_monolithic_partition_rejects_oversized_jobs():
    workload = make_jobs([4, 12, 4, 12])  # 12 > half of 16
    metrics = run_taxonomy(MONOLITHIC_PARTITION, workload, CLUSTER16)
    assert metrics.rejected == 2
    assert metrics.completed == 2
    assert metrics.conflict_fraction == 0.0


def test_two_level_completes_small_gangs():
    workload = make_jobs([4] * 20, duration_s=0.01)
    metrics = run_taxonomy(TWO_LEVEL, workload, CLUSTER16)
    assert metrics.completed == 20
    assert metrics.deadlocked is False


def test_two_level_hoarding_deadlocks_on_oversized_gangs():
    # two gang jobs each needing more than half the cluster: the split
    # offers let each scheduler hoard half, and neither can ever finish
    workload = make_jobs([9, 9], duration_s=300.0)
    metrics = run_taxonomy(TWO_LEVEL, workload, CLUSTER16,
                           deadlock_horizon_s=10.0)
    assert metrics.deadlocked is True
    assert metrics.completed == 0


def test_long_job_blocking_the_queue_is_not_a_stall():
    # a 120 s job (longer than the 60 s horizon) runs while a second job
    # waits behind it; the run must ride out the wait, not abort
    def workload():
        return [
            Job(job_id=1, request=ResourceRequest(nodes=16), duration=120.0),
            Job(job_id=2, request=ResourceRequest(nodes=1), duration=0.0),
            Job(job_id=3, request=ResourceRequest(nodes=1), duration=0.0),
        ]

    for mode in (TWO_LEVEL, SHARED_STATE):
        metrics = run_taxonomy(mode, workload(), CLUSTER16, seed=3)
        assert metrics.completed == 3, mode
        assert metrics.deadlocked is False, mode
        assert metrics.makespan_s >= 120.0, mode


def test_two_level_without_hoarding_declines_partial_offers():
    workload = make_jobs([9, 9], duration_s=1.0)
    metrics = run_taxonomy(TWO_LEVEL, workload, CLUSTER16,
                           deadlock_horizon_s=10.0, hoarding=False)
    # no hoards are held, so the no-progress stop is not a hoarding deadlock
    assert metrics.deadlocked is False
    assert metrics.completed == 0


def test_shared_state_conflicts_grow_with_gang_size():
    fractions = []
    for gang in range(1, 9):
        workload = make_jobs([gang] * 200)
        metrics = run_taxonomy(SHARED_STATE, workload, CLUSTER16, seed=123)
        fractions.append(metrics.conflict_fraction)
    assert fractions == sorted(fractions)
    assert fractions[0] < 0.1
    assert fractions[-1] > 0.3


def test_shared_state_matches_exhaustive_oracle_at_toy_scale():
    # the oracle enumerates every ordered pair of gang-sized picks
    probabilities = [exhaustive_conflict_probability(4, g) for g in (1, 2, 3, 4)]
    assert probabilities == sorted(probabilities)
    # hand-countable: 1 - C(3,1)/C(4,1) and 1 - C(2,2)/C(4,2)
    assert probabilities[0] == pytest.approx(0.25, abs=1e-12)
    assert probabilities[1] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert probabilities[2] == probabilities[3] == 1.0
    # once 2*gang exceeds the node count every joint proposal collides, so
    # the losing scheduler retries once per winning placement: the measured
    # conflict fraction is exactly 1/3
    for gang, p in zip((1, 2, 3, 4), probabilities):
        workload = make_jobs([gang] * 160)
        metrics = run_taxonomy(SHARED_STATE, workload, ClusterSpec(4, 16), seed=7)
        if p == 1.0:
            assert metrics.conflict_fraction == pytest.approx(1.0 / 3.0, abs=1e-12)
        else:
            assert metrics.conflict_fraction < 1.0 / 3.0


def test_throughput_anchor_800_jobs_per_second():
    engine, graph, inst = setup_instance(16)
    for i in range(8000):
        inst.submit(job(i, 1, duration=0.0))
    engine.drain()
    assert inst.completed == 8000
    assert abs(engine.now - 10.0) <= 0.1
    throughput = inst.completed / engine.now
    assert throughput == pytest.approx(800.0, abs=8.0)


def test_empty_workload_rejected():
    with pytest.raises(ValueError):
        run_taxonomy(HIERARCHICAL, [], CLUSTER16)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_taxonomy("round_robin", make_jobs([1]), CLUSTER16)
