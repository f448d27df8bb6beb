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
                       hoard partial offers, which can deadlock
  shared_state         both schedulers see all nodes and commit
                       optimistically from the same stale snapshot; a
                       collision rolls the higher-id scheduler back and
                       counts one conflict

All comparator state advances on the single event loop, so the
interleaving is virtual-time deterministic and conflict traces are
reproducible for a fixed seed. A comparator round that launches nothing
and moves no node is a fixed point: every later round repeats it until
another event fires or the stall check trips, so those rounds are
accounted in one step and never dispatched. Metrics and job times are
bit-identical to dispatching every round.
"""

import math
from collections import deque
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable, Iterator

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
    """A gang job; `duration`, its walltime, is fixed when the job is made."""

    job_id: int
    request: ResourceRequest
    duration: float
    start_t: float | None = None
    end_t: float | None = None
    on_complete: Callable[["Job"], None] | None = None


@dataclass
class SchedMetrics:
    mode: str
    throughput: float = field(init=False)         # completed jobs per virtual second
    conflict_fraction: float = field(init=False)  # conflicts / placement attempts
    busyness: float = field(init=False)           # decision time / (makespan * 2 schedulers)
    deadlocked: bool
    makespan_s: float
    completed: int
    attempts: int
    conflicts: int
    rejected: int
    busy_s: InitVar[float]

    def __post_init__(self, busy_s: float):
        makespan = self.makespan_s
        self.throughput = self.completed / makespan if makespan > 0 else 0.0
        self.conflict_fraction = self.conflicts / self.attempts if self.attempts > 0 else 0.0
        self.busyness = min(1.0, busy_s / (2 * makespan)) if makespan > 0 else 0.0


class Instance:
    """A scheduler scope bound to one allocation.

    Pending jobs are streams: `submit` queues a one-job stream and
    `submit_all` a stream of many. A job becomes the head (is drawn from
    its stream) only when the placement before it leaves no head. The head
    is then always the next job in submission order, and there is a head
    exactly when jobs remain, so a stream schedules exactly as submitting
    every job up front would, while the instance holds only the head and
    the running jobs.
    """

    def __init__(self, engine: Engine, graph: ResourceGraph, alloc_id: int,
                 decision_cost_s: float = DEFAULT_DECISION_COST_S):
        graph.allocation(alloc_id)  # raises for unknown allocations
        self.engine = engine
        self.graph = graph
        self.alloc_id = alloc_id
        self.decision_cost_s = decision_cost_s
        self.head: Job | None = None  # the next job to place
        self._streams: deque[Iterator[Job]] = deque()  # behind the head, in order
        self.attempts = 0
        self.placed = 0
        self.completed = 0
        self.busy_s = 0.0
        self._armed = False
        self._fitting_nodes: dict[int, int] = {}  # by cores needed per node

    def submit(self, job: Job) -> int:
        """Queue a job as a one-job stream; a job that can never fit is rejected here."""
        self._check(job)
        self.submit_all((job,))
        return job.job_id

    def submit_all(self, jobs: Iterable[Job]):
        """Queue a stream of jobs behind every job already queued or pending.

        A job is drawn from `jobs` only when it becomes the head: here, if
        there is no head, else in the dispatch whose placement leaves no
        head. A drawn job gets the same check as `submit`; one that
        can never fit raises `UnsatisfiableRequestError` from the call that
        draws it (this one, or `step_schedule` under `engine.drain()`) and
        is dropped. The jobs after it wait for the next `submit` or
        `submit_all` to draw again.
        """
        self._streams.append(iter(jobs))
        if self.head is None:
            self._draw()
        self._wake()

    def _check(self, job: Job):
        request, graph = job.request, self.graph
        need = graph.spec.cores_per_node if request.exclusive else request.cores_per_node
        fits = self._fitting_nodes.get(need)
        if fits is None:
            # nodes whose grant could hold `need` cores with no live children
            # (an exclusive job needs the whole node); grants never change
            fits = self._fitting_nodes[need] = sum(
                1 for granted in graph.allocation(self.alloc_id).node_slices.values()
                if granted >= need
            )
        if request.nodes > fits:
            raise UnsatisfiableRequestError(
                f"job {job.job_id} wants {request.nodes} node(s); the instance on "
                f"allocation {self.alloc_id} has {fits} that can hold it"
            )

    def _draw(self):
        """Make the next pending job, if one remains, the head."""
        streams = self._streams
        while streams:
            job = next(streams[0], None)
            if job is None:
                streams.popleft()
            else:
                self._check(job)
                self.head = job
                return

    def _wake(self):
        if self._armed or self.head is None:
            return
        self._armed = True
        self.engine.schedule(self.engine.now + self.decision_cost_s, self.step_schedule)

    def step_schedule(self) -> Job | None:
        """One FCFS first-fit pass: place the head job iff capacity suffices.

        Returns the placed job or None. A blocked head stalls the queue
        until a completion frees capacity; there is no backfill past it.
        """
        self._armed = False
        job = self.head
        if job is None:
            return None
        self.attempts += 1
        self.busy_s += self.decision_cost_s
        try:
            child = self.graph.carve(self.alloc_id, job.request)
        except InsufficientCapacityError:
            return None  # wait for a completion to free capacity
        self.head = None
        job.start_t = self.engine.now
        self.placed += 1
        self.engine.schedule(self.engine.now + job.duration,
                             lambda: self._complete(job, child.alloc_id))
        self._draw()
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
    """Convenience constructor for comparator workloads; jobs of one node
    count share one (frozen) request."""
    requests = {n: ResourceRequest(nodes=n) for n in set(node_counts)}
    return [
        Job(job_id=i + 1, request=requests[n], duration=duration_s)
        for i, n in enumerate(node_counts)
    ]


# --- taxonomy comparators ---------------------------------------------------


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
    return SchedMetrics(
        HIERARCHICAL,
        deadlocked=False,
        makespan_s=engine.now,
        completed=sum(i.completed for i in instances),
        attempts=sum(i.attempts for i in instances),
        conflicts=0,
        rejected=rejected,
        busy_s=sum(i.busy_s for i in instances),
    )


class _EpochRunner:
    """Shared clockwork for the non-hierarchical comparators: one combined
    decision round every `decision_cost` seconds until the work drains or
    the no-progress horizon trips. Rounds that repeat a fixed point are
    counted by `_next_round_t` instead of dispatched."""

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
        return SchedMetrics(
            self.mode,
            deadlocked=self.deadlocked,
            makespan_s=self.last_completion_t if self.completed else self.engine.now,
            completed=self.completed,
            attempts=self.attempts,
            conflicts=self.conflicts,
            rejected=self.rejected,
            busy_s=self.busy_s,
        )

    def _arm(self, fire_at: float | None = None):
        # rounds run only while some queue has work; completions re-arm
        if self.stopped or self._armed or not any(self.queues):
            return
        self._armed = True
        if fire_at is None:
            fire_at = self.engine.now + self.decision_cost
        self.engine.schedule(fire_at, self._round)

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
        running, free, attempts = self.running, len(self.free), self.attempts
        self.round_body()
        if self.running == running and len(self.free) == free:
            # a fixed point: nothing launched and no node changed hands
            self._arm(self._next_round_t(self.attempts - attempts))
        else:
            self._arm()

    def _next_round_t(self, attempts: int) -> float:
        """Account the rounds that repeat a fixed point, and return the fire
        time of the first round that may not.

        Until another queued event fires or the stall check trips, each
        later round sees the same queues, free nodes and hoards, so it makes
        the same `attempts` attempts, draws nothing and changes nothing else.
        Those rounds are counted here instead of dispatched: their times
        follow the same `t + decision_cost` chain, and `busy_s` takes the
        same additions in the same order. The returned round fires at or
        after the next queued event (which, queued earlier, fires first at
        an equal time) or is the round whose stall check trips.
        """
        cost = self.decision_cost
        stuck_since = max(self.last_progress_t, self.last_completion_t)
        # the stall check can trip only while nothing runs
        horizon = self.horizon_s if self.running == 0 else math.inf
        limit = self.engine.next_fire_time()
        t = self.engine.now + cost
        rounds = 0
        while t < limit and t - stuck_since < horizon:
            t += cost
            rounds += 1
        busy_s = self.busy_s
        for _ in range(rounds * attempts):
            busy_s += cost
        self.busy_s = busy_s
        self.attempts += rounds * attempts
        return t

    def _holds_partial_resources(self) -> bool:
        return False

    def _launch(self, sched_id: int, nodes: set[int]):
        job = self.queues[sched_id].popleft()
        job.start_t = self.engine.now
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

        self.engine.schedule(self.engine.now + job.duration, complete)


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
    every round. A gang job hoards its offers, off the free list, until the
    hoard meets its need and it launches."""

    def __init__(self, *args):
        super().__init__(*args)
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
            take = set(bundle[: max(0, need - len(hoard))])
            hoard |= take
            self.free -= take
            if len(hoard) >= need:
                nodes = set(hoard)
                hoard.clear()
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
            proposals[sched_id] = {snapshot[i] for i in picks.tolist()}
        if 0 in proposals and 1 in proposals and (proposals[0] & proposals[1]):
            self.conflicts += 1  # scheduler 1 loses and retries
            del proposals[1]
        for sched_id in sorted(proposals):
            nodes = proposals[sched_id]
            self.free -= nodes
            self._launch(sched_id, nodes)


_RUNNERS = {MONOLITHIC_PARTITION: _MonolithicRunner, TWO_LEVEL: _TwoLevelRunner,
            SHARED_STATE: _SharedStateRunner}


def run_taxonomy(mode: str, workload: list[Job], cluster: ClusterSpec,
                 decision_cost_s: float = DEFAULT_DECISION_COST_S,
                 seed: int = 0,
                 deadlock_horizon_s: float = DEFAULT_DEADLOCK_HORIZON_S) -> SchedMetrics:
    """Simulate one comparator architecture over the given workload."""
    if not workload:
        raise ValueError("workload must be non-empty")
    # finite and positive, so that every run ends: rounds advance the clock
    # and a stall trips within the horizon
    for name, value in (("decision_cost_s", decision_cost_s),
                        ("deadlock_horizon_s", deadlock_horizon_s)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, not {value}")
    if mode == HIERARCHICAL:
        return _run_hierarchical(workload, cluster, decision_cost_s, seed)
    if mode not in _RUNNERS:
        raise ValueError(f"unknown taxonomy mode {mode!r}")
    return _RUNNERS[mode](mode, workload, cluster, decision_cost_s, seed,
                          deadlock_horizon_s).run()
