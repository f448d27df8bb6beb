"""Scheduler instances bound to allocations, plus comparator architectures.

An Instance owns one allocation and schedules strictly FCFS first-fit
within it: the head of the queue places if and only if capacity
suffices, placements are all-or-nothing (gang), and a blocked head
stalls the queue (no backfill). Every placement carves a child
allocation for the job's lifetime, so a placement can never escape the
instance's own resources. Each placement attempt costs a fixed virtual
decision time (default 1.25 ms, i.e. an 800 decisions/second loop).

`run_taxonomy` compares four ways of running two schedulers over one
cluster:

  hierarchical         two child instances with carved allocations;
                       conflicts are structurally impossible
  monolithic_partition two static halves with one scheduler each
  two_level            a broker pessimistically offers disjoint node
                       bundles to both schedulers each round; gang jobs
                       may hoard partial offers, which can deadlock
  shared_state         both schedulers see all nodes and commit
                       optimistically from the same stale snapshot; a
                       collision rolls the higher-id scheduler back and
                       counts one conflict

All comparator state advances on the single event loop, so the
interleaving is virtual-time deterministic and conflict traces are
reproducible for a fixed seed.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable

from .resgraph import (
    ClusterSpec,
    InsufficientCapacityError,
    ResourceGraph,
    ResourceRequest,
    build_cluster,
)
from .simkernel import Engine

HIERARCHICAL = "hierarchical"
MONOLITHIC_PARTITION = "monolithic_partition"
TWO_LEVEL = "two_level"
SHARED_STATE = "shared_state"
TAXONOMY_MODES = (HIERARCHICAL, MONOLITHIC_PARTITION, TWO_LEVEL, SHARED_STATE)

DEFAULT_DECISION_COST_S = 1.0 / 800.0
DEFAULT_DEADLOCK_HORIZON_S = 60.0


class UnsatisfiableRequestError(Exception):
    """The request can never fit the instance's allocation."""


@dataclass
class Job:
    job_id: int
    request: ResourceRequest
    duration: float | Callable[[], float]
    start_t: float | None = None
    end_t: float | None = None
    realized_duration: float | None = None
    on_complete: Callable[["Job"], None] | None = None

    def resolve_duration(self) -> float:
        if callable(self.duration):
            self.realized_duration = float(self.duration())
        else:
            self.realized_duration = float(self.duration)
        return self.realized_duration


@dataclass
class SchedMetrics:
    mode: str
    throughput: float          # completed jobs per virtual second
    conflict_fraction: float   # conflicts / placement attempts
    busyness: float            # decision time / (makespan * schedulers)
    deadlocked: bool
    makespan_s: float
    completed: int
    attempts: int
    conflicts: int
    rejected: int


class Instance:
    """A scheduler scope bound to one allocation; its id comes from the engine."""

    def __init__(self, engine: Engine, graph: ResourceGraph, alloc_id: int,
                 decision_cost_s: float = DEFAULT_DECISION_COST_S):
        graph.allocation(alloc_id)  # raises for unknown allocations
        self.instance_id = engine.next_id()
        self.engine = engine
        self.graph = graph
        self.alloc_id = alloc_id
        self.decision_cost_s = decision_cost_s
        self.queue: deque[Job] = deque()
        self.attempts = 0
        self.placed = 0
        self.completed = 0
        self.busy_s = 0.0
        self._armed = False

    def submit(self, job: Job) -> int:
        """Queue a job; requests that can never fit are rejected here."""
        job.request.validate()
        alloc = self.graph.allocation(self.alloc_id)
        if job.request.nodes > len(alloc.node_ids):
            raise UnsatisfiableRequestError(
                f"job {job.job_id} wants {job.request.nodes} nodes; instance "
                f"{self.instance_id} owns {len(alloc.node_ids)}"
            )
        if not job.request.exclusive:
            max_cores = max(self.graph.nodes[n].cores for n in alloc.node_ids)
            if job.request.cores_per_node > max_cores:
                raise UnsatisfiableRequestError(
                    f"job {job.job_id} wants {job.request.cores_per_node} cores/node"
                )
        self.queue.append(job)
        self._wake()
        return job.job_id

    def _wake(self):
        if self._armed or not self.queue:
            return
        self._armed = True
        self.engine.schedule(
            self.engine.now + self.decision_cost_s,
            self.step_schedule,
            label=f"sched.decide:{self.instance_id}",
        )

    def step_schedule(self) -> Job | None:
        """One FCFS first-fit pass: place the head job iff capacity suffices.

        Returns the placed job or None. A blocked head stalls the queue
        until a completion frees capacity; there is no backfill past it.
        """
        self._armed = False
        if not self.queue:
            return None
        self.attempts += 1
        self.busy_s += self.decision_cost_s
        job = self.queue[0]
        try:
            child = self.graph.carve(self.alloc_id, job.request)
        except InsufficientCapacityError:
            return None  # wait for a completion to free capacity
        self.queue.popleft()
        job.start_t = self.engine.now
        duration = job.resolve_duration()
        self.placed += 1
        self.engine.schedule(
            self.engine.now + duration,
            lambda: self._complete(job, child.alloc_id),
            label=f"sched.done:{self.instance_id}:{job.job_id}",
        )
        if self.queue:
            self._wake()
        return job

    def _complete(self, job: Job, child_alloc_id: int):
        self.graph.release(child_alloc_id)
        job.end_t = self.engine.now
        self.completed += 1
        if job.on_complete is not None:
            job.on_complete(job)
        self._wake()


def make_jobs(node_counts: list[int], duration_s: float = 0.0) -> list[Job]:
    """Convenience constructor for comparator workloads."""
    return [
        Job(job_id=i + 1, request=ResourceRequest(nodes=n), duration=duration_s)
        for i, n in enumerate(node_counts)
    ]


# --- taxonomy comparators ---------------------------------------------------


def _metrics(mode, *, completed, attempts, conflicts, rejected, busy_s,
             makespan, deadlocked, schedulers=2) -> SchedMetrics:
    throughput = completed / makespan if makespan > 0 else 0.0
    busyness = min(1.0, busy_s / (schedulers * makespan)) if makespan > 0 else 0.0
    conflict_fraction = conflicts / attempts if attempts > 0 else 0.0
    return SchedMetrics(
        mode=mode,
        throughput=throughput,
        conflict_fraction=conflict_fraction,
        busyness=busyness,
        deadlocked=deadlocked,
        makespan_s=makespan,
        completed=completed,
        attempts=attempts,
        conflicts=conflicts,
        rejected=rejected,
    )


def _split_round_robin(workload: list[Job]) -> tuple[list[Job], list[Job]]:
    return list(workload[0::2]), list(workload[1::2])


def _run_hierarchical(workload, cluster, decision_cost, seed) -> SchedMetrics:
    engine = Engine(seed)
    graph = build_cluster(cluster)
    half = cluster.node_count // 2
    instances = []
    for _ in range(2):
        alloc = graph.carve(graph.root_allocation, ResourceRequest(nodes=half))
        instances.append(Instance(engine, graph, alloc.alloc_id, decision_cost))
    rejected = 0
    for jobs, inst in zip(_split_round_robin(workload), instances):
        for job in jobs:
            try:
                inst.submit(job)
            except UnsatisfiableRequestError:
                rejected += 1
    engine.drain()
    makespan = engine.now
    return _metrics(
        HIERARCHICAL,
        completed=sum(i.completed for i in instances),
        attempts=sum(i.attempts for i in instances),
        conflicts=0,
        rejected=rejected,
        busy_s=sum(i.busy_s for i in instances),
        makespan=makespan,
        deadlocked=False,
    )


class _EpochRunner:
    """Shared clockwork for the non-hierarchical comparators: one combined
    decision round every `decision_cost` seconds until the work drains or
    the no-progress horizon trips."""

    def __init__(self, mode, workload, cluster, decision_cost, seed, horizon_s):
        self.mode = mode
        self.engine = Engine(seed)
        self.cluster = cluster
        self.decision_cost = decision_cost
        self.horizon_s = horizon_s
        self.free: set[int] = set(range(cluster.node_count))
        self.queues = [deque(), deque()]
        self.rejected = 0
        for jobs, queue in zip(_split_round_robin(workload), self.queues):
            for job in jobs:
                if job.request.nodes > self._capacity_limit():
                    self.rejected += 1
                else:
                    queue.append(job)
        self.running = 0
        self.completed = 0
        self.attempts = 0
        self.conflicts = 0
        self.busy_s = 0.0
        self.last_progress_t = 0.0
        self.last_completion_t = 0.0
        self.deadlocked = False
        self.stopped = False
        self._armed = False

    def _capacity_limit(self) -> int:
        return self.cluster.node_count

    def run(self) -> SchedMetrics:
        self._arm()
        self.engine.drain()
        makespan = self.last_completion_t if self.completed else self.engine.now
        return _metrics(
            self.mode,
            completed=self.completed,
            attempts=self.attempts,
            conflicts=self.conflicts,
            rejected=self.rejected,
            busy_s=self.busy_s,
            makespan=makespan,
            deadlocked=self.deadlocked,
        )

    def _arm(self):
        # rounds run only while some queue has work; completions re-arm
        if self.stopped or self._armed or not any(self.queues):
            return
        self._armed = True
        self.engine.schedule(
            self.engine.now + self.decision_cost, self._round,
            label=f"taxonomy.round:{self.mode}",
        )

    def _round(self):
        self._armed = False
        # stuck = pending work, nothing running that could free resources,
        # and no launch or completion for a full horizon. A long job merely
        # blocking the queue is not a stall; its completion restarts progress.
        stuck_since = max(self.last_progress_t, self.last_completion_t)
        if (
            any(self.queues)
            and self.running == 0
            and self.engine.now - stuck_since >= self.horizon_s
        ):
            self.stopped = True
            self.deadlocked = self._holds_partial_resources()
            return
        self.round_body()
        self._arm()

    def _holds_partial_resources(self) -> bool:
        return False

    def _launch(self, sched_id: int, nodes: set[int]):
        job = self.queues[sched_id].popleft()
        job.start_t = self.engine.now
        duration = job.resolve_duration()
        self.running += 1
        self.last_progress_t = self.engine.now

        def complete():
            self.free |= nodes
            self.running -= 1
            self.completed += 1
            self.last_completion_t = self.engine.now
            job.end_t = self.engine.now
            if job.on_complete is not None:
                job.on_complete(job)
            self._arm()

        self.engine.schedule(self.engine.now + duration, complete,
                             label=f"taxonomy.done:{self.mode}:{job.job_id}")


class _MonolithicRunner(_EpochRunner):
    """Two static halves, one scheduler each; jobs larger than a half are
    rejected at submit (permanent starvation in a static partition)."""

    def __init__(self, *args):
        super().__init__(*args)
        half = self.cluster.node_count // 2
        self.partitions = [
            set(range(half)),
            set(range(half, self.cluster.node_count)),
        ]

    def _capacity_limit(self) -> int:
        return self.cluster.node_count // 2

    def round_body(self):
        for sched_id in (0, 1):
            queue = self.queues[sched_id]
            if not queue:
                continue
            self.attempts += 1
            self.busy_s += self.decision_cost
            need = queue[0].request.nodes
            mine = sorted(self.partitions[sched_id] & self.free)
            if len(mine) >= need:
                nodes = set(mine[:need])
                self.free -= nodes
                self._launch(sched_id, nodes)


class _TwoLevelRunner(_EpochRunner):
    """Broker offers disjoint bundles of the free nodes to both schedulers
    every round; offers are held until accepted or declined within the
    round. Gang jobs hoard partial offers until their need is met."""

    def __init__(self, mode, workload, cluster, decision_cost, seed, horizon_s,
                 hoarding=True):
        super().__init__(mode, workload, cluster, decision_cost, seed, horizon_s)
        self.hoarding = hoarding
        self.hoards: list[set[int]] = [set(), set()]

    def _holds_partial_resources(self) -> bool:
        return any(self.hoards[i] and self.queues[i] for i in (0, 1))

    def round_body(self):
        pending = [i for i in (0, 1) if self.queues[i]]
        if not pending or not self.free:
            return
        ordered = sorted(self.free)
        if len(pending) == 2:
            mid = (len(ordered) + 1) // 2
            bundles = {0: ordered[:mid], 1: ordered[mid:]}
        else:
            bundles = {pending[0]: ordered}
        for sched_id in pending:
            bundle = bundles[sched_id]
            if not bundle:
                continue
            self.attempts += 1
            self.busy_s += self.decision_cost
            job = self.queues[sched_id][0]
            need = job.request.nodes
            hoard = self.hoards[sched_id]
            if self.hoarding:
                take = set(bundle[: max(0, need - len(hoard))])
                hoard |= take
                self.free -= take
                if len(hoard) >= need:
                    nodes = set(hoard)
                    hoard.clear()
                    self._launch(sched_id, nodes)
            else:
                # pessimistic accept-or-decline: the whole need in one offer
                if len(bundle) >= need:
                    nodes = set(bundle[:need])
                    self.free -= nodes
                    self._launch(sched_id, nodes)


class _SharedStateRunner(_EpochRunner):
    """Both schedulers draw placements from the same free-state snapshot and
    commit optimistically; intersecting commits conflict and the higher
    scheduler id rolls back, retrying after another decision cost."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rng = self.engine.rng.stream("hiersched.shared_state")

    def round_body(self):
        snapshot = sorted(self.free)
        proposals: dict[int, set[int]] = {}
        for sched_id in (0, 1):
            queue = self.queues[sched_id]
            if not queue:
                continue
            need = queue[0].request.nodes
            if len(snapshot) < need:
                continue  # stale view cannot cover the job; wait
            self.attempts += 1
            self.busy_s += self.decision_cost
            picks = self.rng.choice(len(snapshot), size=need, replace=False)
            proposals[sched_id] = {snapshot[i] for i in picks}
        if 0 in proposals and 1 in proposals and (proposals[0] & proposals[1]):
            self.conflicts += 1  # scheduler 1 loses and retries
            del proposals[1]
        for sched_id in sorted(proposals):
            nodes = proposals[sched_id]
            self.free -= nodes
            self._launch(sched_id, nodes)


def run_taxonomy(mode: str, workload: list[Job], cluster: ClusterSpec,
                 decision_cost_s: float = DEFAULT_DECISION_COST_S,
                 seed: int = 0,
                 deadlock_horizon_s: float = DEFAULT_DEADLOCK_HORIZON_S,
                 hoarding: bool = True) -> SchedMetrics:
    """Simulate one comparator architecture over the given workload."""
    if not workload:
        raise ValueError("workload must be non-empty")
    if mode == HIERARCHICAL:
        return _run_hierarchical(workload, cluster, decision_cost_s, seed)
    if mode == MONOLITHIC_PARTITION:
        runner = _MonolithicRunner(mode, workload, cluster, decision_cost_s,
                                   seed, deadlock_horizon_s)
    elif mode == TWO_LEVEL:
        runner = _TwoLevelRunner(mode, workload, cluster, decision_cost_s,
                                 seed, deadlock_horizon_s, hoarding)
    elif mode == SHARED_STATE:
        runner = _SharedStateRunner(mode, workload, cluster, decision_cost_s,
                                    seed, deadlock_horizon_s)
    else:
        raise ValueError(f"unknown taxonomy mode {mode!r}")
    return runner.run()
