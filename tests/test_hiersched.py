import gc
import math
import os
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import convergesim
from helpers import (
    GraphRecorder,
    assert_no_cross_instance_overlap,
    exhaustive_conflict_probability,
    record_dispatches,
)
from convergesim.hiersched import (
    DEFAULT_DECISION_COST_S,
    DEFAULT_DEADLOCK_HORIZON_S,
    HIERARCHICAL,
    MONOLITHIC_PARTITION,
    SHARED_STATE,
    TWO_LEVEL,
    Instance,
    Job,
    UnsatisfiableRequestError,
    _RUNNERS,
    make_jobs,
    run_taxonomy,
)
from convergesim.resgraph import (
    ClusterSpec,
    InsufficientCapacityError,
    ResourceRequest,
    build_cluster,
)
from convergesim.simkernel import CausalityError, Engine


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
    with pytest.raises(UnsatisfiableRequestError, match=f"allocation {carve.alloc_id} "):
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
    assert inst.head is jobs[0]
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
    blocked, small = job(2, 8, duration=1.0), job(3, 1, duration=1.0)
    inst.submit(job(1, 5, duration=50.0))   # occupies 5 of 8
    inst.submit(blocked)                    # blocked head
    inst.submit(small)                      # would fit, but no backfill
    engine.run_until(10.0)
    assert inst.head is blocked and small.start_t is None
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


def test_event_ids_count_from_one_however_many_instances_exist():
    engine = Engine()
    graph = build_cluster(ClusterSpec(4, 16))
    for _ in range(3):
        Instance(engine, graph, graph.root_allocation)
    assert [engine.schedule(1.0, lambda: None) for _ in range(3)] == [1, 2, 3]


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


@st.composite
def stream_runs(draw):
    """An instance width (1-16 nodes), a decision cost, the stream's jobs,
    jobs submitted right after the stream and jobs submitted at later
    times; each job as (nodes, cores per node or None for exclusive,
    duration)."""
    width = draw(st.integers(1, 16))
    specs = st.tuples(
        st.integers(1, width),
        st.one_of(st.none(), st.integers(1, 4)),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 5.0)),
    )
    return (
        width,
        draw(st.one_of(st.just(DEFAULT_DECISION_COST_S), st.floats(1e-4, 2.0))),
        draw(st.lists(specs, max_size=40)),
        draw(st.lists(specs, max_size=3)),
        draw(st.lists(st.tuples(st.floats(0.0, 20.0), specs), max_size=4)),
    )


def scheduled_run(run, stream: bool):
    """Run `run` (see `stream_runs`) on one instance over a carve from a
    16-node cluster, its first jobs streamed or submitted one by one.
    Returns each job's (start, end), the instance's counters and the
    dispatch order."""
    width, cost, first, after, late = run
    engine = Engine(0)
    dispatched = record_dispatches(engine)
    graph = build_cluster(ClusterSpec(16, 4))
    alloc = graph.carve(graph.root_allocation, ResourceRequest(nodes=width))
    inst = Instance(engine, graph, alloc.alloc_id, cost)
    job_ids = iter(range(1, 100))

    def make(spec):
        nodes, cores, duration = spec
        request = (ResourceRequest(nodes=nodes) if cores is None else
                   ResourceRequest(nodes=nodes, cores_per_node=cores, exclusive=False))
        return Job(job_id=next(job_ids), request=request, duration=duration)

    first_jobs, after_jobs = [make(s) for s in first], [make(s) for s in after]
    late_jobs = [make(s) for _, s in late]
    for (t, _), late_job in zip(late, late_jobs):
        engine.schedule(t, lambda j=late_job: inst.submit(j))
    if stream:
        inst.submit_all(iter(first_jobs))
    else:
        for j in first_jobs:
            inst.submit(j)
    for j in after_jobs:
        inst.submit(j)
    engine.drain()
    counters = (inst.attempts, inst.placed, inst.completed, inst.busy_s)
    times = [(j.start_t, j.end_t) for j in first_jobs + after_jobs + late_jobs]
    return times, counters, dispatched


@settings(max_examples=300, deadline=None)
@given(run=stream_runs())
def test_a_stream_schedules_exactly_as_submitting_every_job_up_front(run):
    streamed = scheduled_run(run, stream=True)
    assert streamed == scheduled_run(run, stream=False)
    assert streamed[1][2] == len(streamed[0])  # every job completed


def test_a_stream_holds_only_its_head_until_a_placement_empties_the_queue():
    engine, graph, inst = setup_instance(4)
    drawn = []

    def jobs():
        for i in range(1, 4):
            drawn.append(i)
            yield job(i, 4, duration=1.0)

    inst.submit_all(jobs())
    late = job(9, 1)
    inst.submit(late)  # queues behind the stream's remaining jobs
    assert drawn == [1] and inst.head.job_id == 1
    engine.run_until(DEFAULT_DECISION_COST_S)  # job 1 placed, job 2 drawn
    assert drawn == [1, 2] and inst.head.job_id == 2
    engine.drain()
    assert drawn == [1, 2, 3] and inst.completed == 4
    assert late.start_t > 3.0


def test_a_streamed_job_that_can_never_fit_raises_from_the_call_that_draws_it():
    engine, graph, inst = setup_instance(4)
    with pytest.raises(UnsatisfiableRequestError, match="job 1 "):
        inst.submit_all(iter([job(1, 5)]))
    assert inst.head is None
    fits, too_wide, after = job(2, 4, duration=1.0), job(3, 5), job(4, 4, duration=1.0)
    inst.submit_all(iter([fits, too_wide, after]))
    with pytest.raises(UnsatisfiableRequestError, match="job 3 "):
        engine.drain()  # the dispatch that placed job 2 drew job 3
    assert fits.start_t == DEFAULT_DECISION_COST_S and inst.head is None
    engine.drain()
    assert fits.end_t is not None and after.start_t is None
    # the dropped job is gone; the next submit draws the stream's rest first
    inst.submit(job(5, 1))
    engine.drain()
    assert after.end_t is not None and inst.completed == 3 and graph.root_fully_free()


def instance_on(spec, parent_request=None):
    """An instance over the root of a fresh `spec` graph, or over a carve of
    `parent_request` from that root."""
    engine = Engine(0)
    graph = build_cluster(spec)
    alloc_id = graph.root_allocation
    if parent_request is not None:
        alloc_id = graph.carve(alloc_id, parent_request).alloc_id
    return Instance(engine, graph, alloc_id)


def test_unsatisfiable_core_request_rejected():
    slices = ResourceRequest(nodes=2, cores_per_node=4, exclusive=False)
    # (cluster, the instance's carve from the root or None, job request)
    cases = [
        (ClusterSpec(4, 8), None,
         ResourceRequest(nodes=1, cores_per_node=9, exclusive=False)),
        (ClusterSpec(4, 8), slices,
         ResourceRequest(nodes=1, cores_per_node=8, exclusive=False)),
        (ClusterSpec(4, 8), slices, ResourceRequest(nodes=1)),
    ]
    for spec, parent_request, request in cases:
        inst = instance_on(spec, parent_request)
        with pytest.raises(UnsatisfiableRequestError):
            inst.submit(Job(job_id=1, duration=0.0, request=request))
        assert inst.head is None


requests = st.builds(
    ResourceRequest,
    nodes=st.integers(1, 6),
    cores_per_node=st.integers(1, 9),
    exclusive=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    node_count=st.integers(1, 5),
    cores=st.integers(1, 8),
    parent_request=st.none() | requests,
    batch=st.lists(requests, min_size=1, max_size=4),
)
def test_submit_accepts_iff_a_fresh_carve_succeeds(node_count, cores, parent_request, batch):
    spec = ClusterSpec(node_count, cores)
    try:
        inst = instance_on(spec, parent_request)
    except InsufficientCapacityError:
        assume(False)
    # the oracle: the same carves on a fresh graph, whose allocation has no
    # live children when each request is carved from it
    fresh = instance_on(spec, parent_request)
    for job_id, request in enumerate(batch, 1):
        try:
            fresh.graph.release(fresh.graph.carve(fresh.alloc_id, request).alloc_id)
            fits = True
        except InsufficientCapacityError:
            fits = False
        try:
            inst.submit(Job(job_id=job_id, duration=0.0, request=request))
            accepted = True
        except UnsatisfiableRequestError:
            accepted = False
        assert accepted == fits, (job_id, request)


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


@pytest.mark.parametrize("times", [
    {"deadlock_horizon_s": math.inf},
    {"deadlock_horizon_s": math.nan},
    {"deadlock_horizon_s": 0.0},
    {"decision_cost_s": math.nan},
    {"decision_cost_s": math.inf},
    {"decision_cost_s": -1.0},
])
def test_run_taxonomy_rejects_unbounded_times(times):
    # with an infinite horizon the hoarding deadlock below never stops
    with pytest.raises(ValueError):
        run_taxonomy(TWO_LEVEL, make_jobs([9, 9], 300.0), CLUSTER16, **times)


def test_nan_duration_raises_causality_error():
    engine, graph, inst = setup_instance(4)
    inst.submit(Job(job_id=1, request=ResourceRequest(nodes=1), duration=math.nan))
    with pytest.raises(CausalityError):
        engine.drain()
    with pytest.raises(CausalityError):
        run_taxonomy(TWO_LEVEL, [Job(job_id=1, request=ResourceRequest(nodes=1),
                                     duration=math.nan)], CLUSTER16)


# --- idle comparator rounds ------------------------------------------------------


def epoch_runner(mode, workload, cluster, decision_cost_s=DEFAULT_DECISION_COST_S,
                 seed=0, deadlock_horizon_s=DEFAULT_DEADLOCK_HORIZON_S,
                 skip_idle=True):
    """The runner `run_taxonomy` uses. With `skip_idle=False` the next round
    is always one decision cost away, so every round is dispatched: the
    reference for skipping idle rounds."""
    runner = _RUNNERS[mode](mode, workload, cluster, decision_cost_s, seed,
                            deadlock_horizon_s)
    if not skip_idle:
        runner._next_round_t = lambda attempts: runner.engine.now + runner.decision_cost
    return runner


@st.composite
def comparator_runs(draw):
    nodes = draw(st.integers(1, 10))
    cost = draw(st.sampled_from([1e-3, DEFAULT_DECISION_COST_S, 0.01, 0.1, 0.125])
                | st.floats(1e-3, 0.3))
    # whole multiples of the cost let the chain of round times land exactly
    # on a completion or on the horizon, where ties decide the order
    multiple = st.integers(1, 40).map(lambda k: k * cost)
    horizon = draw(st.floats(0.01, 1.0) | multiple)
    duration = (st.just(0.0) | st.floats(0.0, cost) | multiple
                | st.floats(horizon, 2 * horizon) | st.floats(0.0, horizon))
    jobs = draw(st.lists(st.tuples(st.integers(1, nodes), duration),
                         min_size=1, max_size=8))
    mode = draw(st.sampled_from(sorted(_RUNNERS)))
    return mode, ClusterSpec(nodes, 4), cost, horizon, jobs


@settings(max_examples=200, deadline=None)
@given(run=comparator_runs(), seed=st.integers(0, 2**16))
def test_skipping_idle_rounds_changes_no_result(run, seed):
    mode, cluster, cost, horizon, jobs = run

    def workload():
        return [Job(job_id=i, request=ResourceRequest(nodes=n), duration=d)
                for i, (n, d) in enumerate(jobs, 1)]

    fast_jobs, slow_jobs = workload(), workload()
    fast = run_taxonomy(mode, fast_jobs, cluster, decision_cost_s=cost, seed=seed,
                        deadlock_horizon_s=horizon)
    slow = epoch_runner(mode, slow_jobs, cluster, cost, seed, horizon,
                        skip_idle=False).run()
    assert fast == slow
    assert [(j.start_t, j.end_t) for j in fast_jobs] == \
        [(j.start_t, j.end_t) for j in slow_jobs]


def test_hoarding_deadlock_dispatches_three_rounds():
    # the suite's oversized case: both schedulers hoard 32 of 64 nodes in
    # the first round; every later round finds no free node, so the rounds
    # up to the stall are accounted without being dispatched
    def run(skip_idle):
        runner = epoch_runner(TWO_LEVEL, make_jobs([33, 33], 300.0),
                              ClusterSpec(64, 16), seed=42, skip_idle=skip_idle)
        dispatched = record_dispatches(runner.engine)
        return runner.run(), dispatched

    (fast, fast_rounds), (slow, slow_rounds) = run(True), run(False)
    assert len(fast_rounds) == 3 and len(slow_rounds) == 48_001
    # event ids differ: the slow run schedules every round it dispatches
    assert [t for t, _ in fast_rounds] == \
        [t for t, _ in (slow_rounds[0], slow_rounds[1], slow_rounds[-1])]
    assert fast == slow
    assert fast.deadlocked and fast.attempts == 2
    assert fast.makespan_s == 60.001249999963555
    assert fast.busyness == 2.083289931461027e-05


def test_gang_sweep_has_no_idle_rounds():
    # zero-length jobs free their nodes before the next round, so the
    # suite's gang sweep dispatches every round it did before
    dispatched = 0
    for mode in (MONOLITHIC_PARTITION, TWO_LEVEL, SHARED_STATE):
        for gang in range(1, 17):
            runner = epoch_runner(mode, make_jobs([gang] * 600), ClusterSpec(64, 16),
                                  seed=42)
            rounds = record_dispatches(runner.engine)
            runner.run()
            dispatched += len(rounds)
    assert dispatched == 46_175
