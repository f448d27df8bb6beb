"""Independent oracles shared by the test modules.

Most avoid the library's own code paths: combinatorial enumeration for
conflict probabilities, closed-form batch solutions for the incremental
learners, and a pairwise interval scan for placement overlap.
`AccountingMirror` replays a run's carves and releases into grants of
its own and checks them with `resgraph.check_grants`, the one accounting
checker, which reads nothing but those grants.
`reference_carve` is a carve without the graph's capacity shortcut, and
the `*_update_reference`s the numpy forms of the model updates.

The library keeps no history of a run, so the recorders here wrap the
methods of one live engine or graph and keep what a test checks.
`serving` runs a socket mount for the length of a with-block.
`line_events_per_job` counts the carve's work in traced line events, and
`quadratic_term` fits its growth with the square of the node count.
`learn_transform` and `moments` read and update a scaler through
`prepare`, `commit` and `stats` only. `model_state` and `state_repr`
give the state that the model tests compare and pin, read from public
attributes. `bundle_json_reference` is a bundle's JSON text by
`dataclasses.asdict`.
"""

import contextlib
import itertools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

import convergesim
from convergesim.hiersched import Instance, Job
from convergesim.mlcore import RunningScaler
from convergesim.resgraph import ClusterSpec, ResourceRequest, build_cluster, check_grants
from convergesim.simkernel import Engine
from linecov import LineTracer


def exhaustive_conflict_probability(node_count: int, gang: int) -> float:
    """Exact probability that two independent uniform gang-sized node picks
    from the same free set intersect, by enumerating every ordered pair."""
    subsets = [set(c) for c in itertools.combinations(range(node_count), gang)]
    total = conflicts = 0
    for a in subsets:
        for b in subsets:
            total += 1
            if a & b:
                conflicts += 1
    return conflicts / total


def batch_ridge(X: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge weights (no intercept): (X'X + lam I)^-1 X'y."""
    d = X.shape[1]
    return np.linalg.solve(X.T @ X + lam * np.eye(d), X.T @ y)


class AccountingMirror:
    """Replays the carve and release ops a `GraphRecorder` saw into grants
    of its own, and checks them with `resgraph.check_grants` after every
    event; `children` and `free` are the tree that check rebuilt."""

    def __init__(self, spec, root_id: int, root_slices: dict[int, int]):
        self.spec = spec
        self.grants = {root_id: (None, dict(root_slices))}
        self.children, self.free = check_grants(spec, self.grants)
        self.events = 0

    def apply(self, op: tuple) -> None:
        kind, alloc_id, other_id, slices = op
        if kind == "carve":
            assert other_id in self.grants, "carve from unknown parent"
            assert alloc_id not in self.grants, "allocation id reused"
            self.grants[alloc_id] = (other_id, dict(slices))
        elif kind == "release":
            assert alloc_id in self.grants, "release of unknown allocation"
            assert not self.children[alloc_id], "release with live children"
            del self.grants[alloc_id]
        else:
            raise AssertionError(f"unknown op {kind!r}")
        self.events += 1
        self.children, self.free = check_grants(self.spec, self.grants)


def reference_carve(mirror: AccountingMirror, spec, parent_id: int,
                    request) -> dict[int, int] | None:
    """The node -> cores map a carve of `request` from `parent_id` must
    grant, or None if it must fail: an ascending first-fit scan over the
    mirror's per-node free counts, with no shortcut."""
    parent = mirror.grants[parent_id][1]
    chosen = {}
    for node in sorted(parent):
        if len(chosen) == request.nodes:
            break
        free = mirror.free[parent_id][node]
        if request.exclusive:
            if free == spec.cores_per_node == parent[node]:
                chosen[node] = spec.cores_per_node
        elif free >= request.cores_per_node:
            chosen[node] = request.cores_per_node
    return chosen if len(chosen) == request.nodes else None


def bayesian_update_reference(A: np.ndarray, c: np.ndarray, x: np.ndarray,
                              beta: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """BayesianLinear's update as numpy arrays: A + beta x x^T, c + beta y x."""
    return A + beta * np.outer(x, x), c + beta * y * x


def linear_sgd_update_reference(w: np.ndarray, b: float, x: np.ndarray,
                                learning_rate: float, y: float) -> tuple[np.ndarray, float]:
    """LinearSGD's update as numpy arrays: w -= lr e x, b -= lr e."""
    step = learning_rate * (float(w @ x) + b - y)
    return w - step * x, b - step


def passive_aggressive_update_reference(w: np.ndarray, b: float, x: np.ndarray,
                                        C: float, epsilon: float,
                                        y: float) -> tuple[np.ndarray, float]:
    """PassiveAggressive's PA-I update as numpy arrays."""
    y_hat = float(w @ x) + b
    loss = abs(y_hat - y) - epsilon
    norm_sq = float(x @ x)
    if loss <= 0.0 or norm_sq == 0.0:
        return w, b
    step = math.copysign(min(C, loss / norm_sq), y - y_hat)
    return w + step * x, b + step


def learn_transform(scaler, x: dict) -> dict:
    """Learn x by scaler.prepare and .commit; x scaled, by feature name."""
    stats, out = scaler.prepare(x)
    scaler.commit(stats)
    return dict(zip(stats[0], out))


def model_state(model) -> list[tuple[str, object]]:
    """A scaler's or a regressor's state as (name, value) pairs in name
    order: a scaler's `stats`, or a regressor's public attributes but its
    methods and its class declarations (a str or tuple set on the class,
    such as `variant`)."""
    if isinstance(model, RunningScaler):
        return [("stats", model.stats)]
    cls = type(model)
    return [(name, value) for name in sorted(dir(model)) if not name.startswith("_")
            and not callable(value := getattr(model, name))
            and not isinstance(getattr(cls, name, None), (str, tuple))]


def state_repr(model) -> str:
    """`repr` of `model_state`: equal states render equal text, and a float
    that moves by one ulp changes it."""
    return repr(model_state(model))


def bundle_json_reference(bundle) -> str:
    """A report bundle's JSON text as `dataclasses.asdict` gives it."""
    return json.dumps(asdict(bundle), sort_keys=True, separators=(",", ":"))


def moments(scaler, name: str) -> tuple[float, float, int]:
    """(mean, population variance, count) of one feature of scaler.stats."""
    names, count, means, m2s = scaler.stats
    return means[names.index(name)], m2s[names.index(name)] / count, count


def assert_no_cross_instance_overlap(spans) -> None:
    """No two allocations carved by different instances (different parent
    allocations) may share a node while overlapping in time."""
    for s1, s2 in itertools.combinations(spans, 2):
        if s1.parent == s2.parent:
            continue
        end1 = s1.end_t if s1.end_t is not None else float("inf")
        end2 = s2.end_t if s2.end_t is not None else float("inf")
        if s1.start_t < end2 and s2.start_t < end1:
            shared = set(s1.node_ids) & set(s2.node_ids)
            assert not shared, (
                f"allocations {s1.alloc_id} and {s2.alloc_id} from different "
                f"instances share nodes {sorted(shared)}"
            )


def record_dispatches(engine) -> list[tuple[float, int]]:
    """Wrap `engine.schedule` so that every action, when it runs, first
    appends (fire time, event id) to the returned list: the dispatch order."""
    dispatched = []
    schedule = engine.schedule

    def recording_schedule(fire_at, action):
        def run():
            dispatched.append((float(fire_at), event_id))
            action()
        event_id = schedule(fire_at, run)
        return event_id

    engine.schedule = recording_schedule
    return dispatched


@dataclass
class AllocationSpan:
    alloc_id: int
    parent: int
    node_ids: tuple[int, ...]
    start_t: float | None
    end_t: float | None = None


class GraphRecorder:
    """Wraps `graph.carve` and `graph.release` of one live graph.

    `ops` holds ("carve"|"release", alloc_id, parent_id, slices) for every
    successful operation, in order, as `AccountingMirror.apply` takes it.
    `spans` holds one `AllocationSpan` per carve, in carve order, timed by
    `engine.now` when an engine is given.
    """

    def __init__(self, graph, engine=None):
        self.ops: list[tuple] = []
        self.spans: list[AllocationSpan] = []
        live: dict[int, AllocationSpan] = {}
        carve, release = graph.carve, graph.release

        def now():
            return None if engine is None else engine.now

        def recording_carve(parent_id, request):
            child = carve(parent_id, request)
            self.ops.append(("carve", child.alloc_id, parent_id, dict(child.node_slices)))
            span = AllocationSpan(child.alloc_id, parent_id, tuple(child.node_ids), now())
            self.spans.append(span)
            live[child.alloc_id] = span
            return child

        def recording_release(alloc_id):
            alloc = graph.allocation(alloc_id)
            release(alloc_id)
            self.ops.append(("release", alloc_id, alloc.parent, dict(alloc.node_slices)))
            span = live.pop(alloc_id, None)  # None: carved before recording began
            if span is not None:
                span.end_t = now()

        graph.carve, graph.release = recording_carve, recording_release

    def children_of(self, parent_id: int) -> list[AllocationSpan]:
        return [span for span in self.spans if span.parent == parent_id]


@contextlib.contextmanager
def serving(server):
    """Run `server.serve_forever` on a thread inside the with-block, then
    shut the mount down and close it."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def line_events_per_job(nodes: int) -> float:
    """Line events in the library's frames per job, for one instance over
    `nodes` 16-core nodes draining 1-node 4-core jobs, 16 per node."""
    engine = Engine(0)
    graph = build_cluster(ClusterSpec(nodes, 16))
    inst = Instance(engine, graph, graph.root_allocation)
    shape = ResourceRequest(nodes=1, cores_per_node=4, exclusive=False)
    jobs = [Job(i, shape, 10.0) for i in range(16 * nodes)]
    tracer = LineTracer(os.path.dirname(convergesim.__file__) + os.sep)
    with tracer.active():
        inst.submit_all(jobs)
        engine.drain()
    assert inst.completed == len(jobs)
    return tracer.events / len(jobs)


def quadratic_term(counts: dict) -> float:
    """q of c(n) = a + b*n + q*n^2 through three {n: c(n)} points: their
    second divided difference. A constant a and a linear b*n added to
    every c(n) cancel out of it."""
    (n0, c0), (n1, c1), (n2, c2) = sorted(counts.items())
    return ((c2 - c1) / (n2 - n1) - (c1 - c0) / (n1 - n0)) / (n2 - n0)
