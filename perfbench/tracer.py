"""Per-layer spans around convergesim's public calls.

`install` monkeypatches the entry points of each module for the length
of one traced repetition; `Tracer.uninstall` puts the originals back.
Nothing under `src/` knows about it.

A span covers one call into a layer.  Its self time is its duration
minus the time covered by the spans nested in it, so the self times of
all layers add up to the time covered by the outermost spans.  Spans are
aggregated in memory per thread (the socket mount serves each connection
on its own thread) and merged by `Tracer.totals` when the repetition
ends.

Every wrapped name is looked up with `getattr`, so a later refactor that
removes an internal entry point leaves its metrics at 0 instead of
breaking the benchmark.
"""

import functools
import itertools
import threading
import time
import weakref
from collections import defaultdict


class _ThreadState:
    def __init__(self):
        self.stack = []                    # [span name, seconds covered by children]
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.incl_s = defaultdict(float)   # span name -> seconds (outermost nesting)
        self.calls = defaultdict(int)      # span or counter name -> count
        self.failed = defaultdict(int)     # span name -> calls that raised
        self.samples = defaultdict(list)   # span name -> per-call seconds


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._patches = []
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()
        # kind -> {object serial: len of its retained list at last sight}
        self.retained = defaultdict(dict)
        self.peaks = defaultdict(int)

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def reset(self):
        """Drop everything recorded so far; the wrappers stay installed."""
        with self._lock:
            self._local = threading.local()
            self._states = []
        self.retained.clear()
        self.peaks.clear()

    # --- wrappers -------------------------------------------------------

    def span(self, layer, name, fn, samples=False, after=None):
        """Wrap `fn` in a span of `layer`; `name` may be a callable of
        (args, kwargs) for spans keyed by an argument."""
        state = self.state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            label = name(args, kwargs) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                st.failed[label] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                # a span directly inside one of the same name (transform
                # inside learn_transform) is part of its parent's call
                if not stack or stack[-1][0] != label:
                    st.incl_s[label] += dt
                    st.calls[label] += 1
                    if samples:
                        st.samples[label].append(dt)
            if after is not None:
                after(st, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` to count its calls without timing them."""
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state().calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def note_len(self, kind, obj, attr):
        """Remember len(obj.<attr>) for `obj`, keyed so that objects that
        died (and whose id was reused) keep their own entry."""
        seq = getattr(obj, attr, None)
        if seq is None:
            return
        try:
            serial = self._serials.get(obj)
            if serial is None:
                serial = self._serials[obj] = next(self._next_serial)
        except TypeError:  # not weak-referenceable or not hashable
            serial = id(obj)
        self.retained[kind][serial] = len(seq)

    # --- patching -------------------------------------------------------

    def patch(self, owner, attr, make):
        """Replace owner.<attr> with make(original); no-op if absent."""
        if owner is None or not hasattr(owner, attr):
            return None
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, own))
        return wrapped

    def patch_function(self, modules, attr, make):
        """Wrap a module-level function once and rebind it in every module
        that imported the same object under the same name."""
        first = next((m for m in modules if hasattr(m, attr)), None)
        if first is None:
            return
        original = getattr(first, attr)
        wrapped = make(original)
        for module in modules:
            if getattr(module, attr, None) is original:
                self.patch(module, attr, lambda _orig: wrapped)

    def uninstall(self):
        for owner, attr, own in reversed(self._patches):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patches.clear()

    # --- results --------------------------------------------------------

    def totals(self) -> dict:
        merged = {"self_s": defaultdict(float), "incl_s": defaultdict(float),
                  "calls": defaultdict(int), "failed": defaultdict(int),
                  "samples": defaultdict(list)}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key in ("self_s", "incl_s", "calls", "failed", "samples"):
                target = merged[key]
                for k, v in getattr(st, key).items():
                    target[k] += v
        merged = {key: dict(value) for key, value in merged.items()}
        merged["retained"] = {k: sum(v.values()) for k, v in self.retained.items()}
        merged["peaks"] = dict(self.peaks)
        return merged


_MISSING = object()

LAYERS = ("simkernel", "resgraph", "hiersched", "mlcore", "mlserve",
          "workloads", "orchestrator", "reporting")


def install(tracer: Tracer, cs) -> None:
    """Wrap the public entry points of every convergesim layer.

    `cs` is a namespace holding the imported convergesim modules.
    """
    span = tracer.span

    # simkernel: the dispatch loop; handler bodies are other layers' spans
    def after_schedule(st, args, result):
        engine = args[0]
        size = engine.queue_size() if hasattr(engine, "queue_size") else 0
        if size > tracer.peaks["queue"]:
            tracer.peaks["queue"] = size

    def after_run_until(st, args, result):
        st.calls["simkernel.events"] += int(result or 0)
        tracer.note_len("trace", args[0], "trace")

    engine = getattr(cs.simkernel, "Engine", None)
    tracer.patch(engine, "schedule",
                 lambda f: span("simkernel", "simkernel.schedule", f, after=after_schedule))
    tracer.patch(engine, "run_until",
                 lambda f: span("simkernel", "simkernel.run_until", f, after=after_run_until))
    tracer.patch(engine, "drain", lambda f: span("simkernel", "simkernel.drain", f))

    # resgraph
    def after_graph_op(st, args, result):
        tracer.note_len("oplog", args[0], "oplog")

    graph = getattr(cs.resgraph, "ResourceGraph", None)
    tracer.patch(graph, "carve", lambda f: span("resgraph", "resgraph.carve", f,
                                                samples=True, after=after_graph_op))
    tracer.patch(graph, "release", lambda f: span("resgraph", "resgraph.release", f,
                                                  after=after_graph_op))
    tracer.patch(graph, "free_cores", lambda f: tracer.counter("resgraph.free_cores", f))
    tracer.patch_function(
        (cs.resgraph, cs.hiersched, cs.orchestrator, cs.package), "build_cluster",
        lambda f: span("resgraph", "resgraph.build", f))

    # hiersched: instances and the four comparators
    def after_step(st, args, result):
        if result:
            st.calls["hiersched.placed"] += 1
        tracer.note_len("placements", args[0], "placements")

    def after_taxonomy(st, args, result):
        st.calls["hiersched.conflicts"] += int(getattr(result, "conflicts", 0))

    def taxonomy_label(args, kwargs):
        return "hiersched.taxonomy." + str(args[0] if args else kwargs.get("mode"))

    instance = getattr(cs.hiersched, "Instance", None)
    tracer.patch(instance, "submit", lambda f: span("hiersched", "hiersched.submit", f))
    tracer.patch(instance, "step_schedule",
                 lambda f: span("hiersched", "hiersched.step", f, after=after_step))
    tracer.patch(instance, "_complete", lambda f: span("hiersched", "hiersched.complete", f))
    tracer.patch(getattr(cs.hiersched, "_EpochRunner", None), "_round",
                 lambda f: span("hiersched", "hiersched.round", f))
    tracer.patch_function(
        (cs.hiersched, cs.orchestrator), "run_taxonomy",
        lambda f: span("hiersched", taxonomy_label, f, after=after_taxonomy))
    tracer.patch_function((cs.hiersched,), "make_jobs",
                          lambda f: span("hiersched", "hiersched.make_jobs", f))

    # mlcore
    scaler = getattr(cs.mlcore, "RunningScaler", None)
    for attr in ("learn_transform", "transform"):
        tracer.patch(scaler, attr, lambda f: span("mlcore", "mlcore.scaler", f))
    for variant, cls in getattr(cs.mlcore, "MODEL_VARIANTS", {}).items():
        tracer.patch(cls, "learn", lambda f, v=variant: span("mlcore", f"mlcore.learn.{v}", f))
        tracer.patch(cls, "predict",
                     lambda f, v=variant: span("mlcore", f"mlcore.predict.{v}", f))
    tracer.patch_function((cs.mlcore,), "r_squared", lambda f: span("mlcore", "mlcore.r2", f))

    # mlserve: verbs, the line protocol
    def after_handle(st, args, result):
        st.calls["mlserve.requests." + str(getattr(args[1], "verb", "?"))] += 1
        if getattr(result, "status", "ok") != "ok":
            st.calls["mlserve.bad_requests"] += 1

    tracer.patch(getattr(cs.mlserve, "MLService", None), "handle",
                 lambda f: span("mlserve", "mlserve.handle", f, after=after_handle))
    for attr, label in (("parse_request", "mlserve.parse"),
                        ("format_response", "mlserve.format"),
                        ("handle_line", "mlserve.handle_line")):
        tracer.patch_function((cs.mlserve,), attr, lambda f, n=label: span("mlserve", n, f))

    # workloads, orchestrator, reporting
    tracer.patch_function((cs.workloads,), "lammps_walltime",
                          lambda f: span("workloads", "workloads.walltime", f))
    for attr in ("run_scenario", "run_hybrid", "run_taxonomy_suite", "run_scaling_study"):
        tracer.patch_function((cs.orchestrator, cs.package), attr,
                              lambda f, a=attr: span("orchestrator", f"orchestrator.{a}", f))
    tracer.patch_function((cs.reporting, cs.package), "emit_report",
                          lambda f: span("reporting", "reporting.emit", f))


TAXONOMY_MODES = ("hierarchical", "monolithic_partition", "two_level", "shared_state")
MODEL_VARIANTS = ("linear_sgd", "bayesian", "passive_aggressive")
SERVICE_VERBS = ("create", "train", "predict", "record_truth", "metrics")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced repetition, by benchmark name.

    `totals` is `Tracer.totals()`, possibly after a JSON round trip."""
    calls, incl, own = (lambda key, t=totals[k]: t.get(key, 0)
                        for k in ("calls", "incl_s", "self_s"))
    retained, peaks = totals["retained"], totals["peaks"]
    carves = calls("resgraph.carve")
    carve_failed = totals["failed"].get("resgraph.carve", 0)
    carve_us = [s * 1e6 for s in totals["samples"].get("resgraph.carve", ())]
    decisions, placed = calls("hiersched.step"), calls("hiersched.placed")
    m = {
        "simkernel.events": calls("simkernel.events"),
        "simkernel.schedules": calls("simkernel.schedule"),
        "simkernel.self_s": own("simkernel"),
        "simkernel.queue_peak": peaks.get("queue", 0),
        "simkernel.trace_len": retained.get("trace", 0),
        "resgraph.carves": carves,
        "resgraph.carve_failed": carve_failed,
        "resgraph.carve_ok_ratio": (carves - carve_failed) / carves if carves else 0.0,
        "resgraph.carve_s": incl("resgraph.carve"),
        "resgraph.carve_us_p50": percentile(carve_us, 50),
        "resgraph.carve_us_p99": percentile(carve_us, 99),
        "resgraph.free_cores_calls": calls("resgraph.free_cores"),
        "resgraph.releases": calls("resgraph.release"),
        "resgraph.release_s": incl("resgraph.release"),
        "resgraph.oplog_len": retained.get("oplog", 0),
        "resgraph.self_s": own("resgraph"),
        "hiersched.decisions": decisions,
        "hiersched.placed": placed,
        "hiersched.place_ratio": placed / decisions if decisions else 0.0,
        "hiersched.self_s": own("hiersched"),
        "hiersched.placements_len": retained.get("placements", 0),
        "hiersched.conflicts": calls("hiersched.conflicts"),
        "mlcore.scaler_calls": calls("mlcore.scaler"),
        "mlcore.scaler_s": incl("mlcore.scaler"),
        "mlcore.r2_s": incl("mlcore.r2"),
        "mlcore.self_s": own("mlcore"),
        "mlserve.bad_requests": calls("mlserve.bad_requests"),
        "mlserve.self_s": own("mlserve"),
        "mlserve.parse_s": incl("mlserve.parse"),
        "mlserve.format_s": incl("mlserve.format"),
        "workloads.walltime_calls": calls("workloads.walltime"),
        "workloads.walltime_s": incl("workloads.walltime"),
        "orchestrator.self_s": own("orchestrator"),
        "reporting.emit_s": incl("reporting.emit"),
    }
    for mode in TAXONOMY_MODES:
        m[f"hiersched.taxonomy_s.{mode}"] = incl(f"hiersched.taxonomy.{mode}")
    for variant in MODEL_VARIANTS:
        m[f"mlcore.learn_s.{variant}"] = incl(f"mlcore.learn.{variant}")
        m[f"mlcore.predict_s.{variant}"] = incl(f"mlcore.predict.{variant}")
    for verb in SERVICE_VERBS:
        m[f"mlserve.requests.{verb}"] = calls(f"mlserve.requests.{verb}")
    return m
