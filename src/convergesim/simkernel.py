"""Deterministic discrete-event engine.

Provides the virtual clock, an ordered event queue, and named RNG streams
for every other component. Ties at equal fire times dispatch in insertion
order (FIFO), so the sequence of dispatched (fire time, label) pairs is
reproducible bit for bit for a fixed seed and scenario.

Virtual time is real-valued seconds with no wall-clock coupling. The
engine is single-threaded and must not be shared across threads during a
run; parallelism, if any, belongs at the level of independent scenario
replicas that each own a private engine.
"""

import hashlib
import heapq
from typing import Callable

import numpy as np

# virtual time: non-negative real seconds, no wall-clock coupling
SimTime = float


class CausalityError(Exception):
    """An event was scheduled to fire before the current virtual time."""


class RngStreams:
    """Named, independently seeded random streams.

    A stream is identified by (root seed, stream label). The label is
    hashed with SHA-256 so the seeding is stable across platforms and
    interpreter invocations, and so adding a new consumer module never
    perturbs the draw sequence of an existing one.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, stream_id: str) -> np.random.Generator:
        if stream_id not in self._streams:
            digest = hashlib.sha256(f"{self.seed}/{stream_id}".encode()).digest()
            child_seed = int.from_bytes(digest[:16], "little")
            self._streams[stream_id] = np.random.default_rng(child_seed)
        return self._streams[stream_id]


class Engine:
    """Single-threaded event loop over virtual seconds; it keeps no history."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.rng = RngStreams(seed)
        self.dispatched = 0
        # (fire_at, event id, action, label); the unique id breaks ties FIFO
        self._heap: list[tuple[float, int, Callable[[], None], str]] = []
        self._seq = 0

    def next_id(self) -> int:
        """Next value of the engine's one id counter, shared by events and
        scheduler instances, so ids depend only on what ran on this engine."""
        self._seq += 1
        return self._seq

    def schedule(self, fire_at: SimTime, action: Callable[[], None], label: str = "") -> int:
        """Enqueue `action` to run at virtual time `fire_at`; returns the event id."""
        if fire_at < self.now:
            raise CausalityError(
                f"cannot schedule event at t={fire_at} before current time t={self.now}"
            )
        event_id = self.next_id()
        heapq.heappush(self._heap, (float(fire_at), event_id, action, label))
        return event_id

    def queue_size(self) -> int:
        return len(self._heap)

    def run_until(self, t_end: SimTime) -> int:
        """Dispatch every event with fire_at <= t_end, in (fire_at, seq) order.

        The clock ends at exactly t_end, even if the queue empties earlier.
        Handlers may schedule further events; those at or before t_end are
        dispatched in the same call.
        """
        if t_end < self.now:
            raise CausalityError(f"run_until({t_end}) is in the past (now={self.now})")
        count = 0
        while self._heap and self._heap[0][0] <= t_end:
            fire_at, _, action, _ = heapq.heappop(self._heap)
            self.now = fire_at
            self.dispatched += 1
            count += 1
            action()
        self.now = t_end
        return count

    def drain(self) -> int:
        """Dispatch all remaining events; the clock stops at the last fire time."""
        count = 0
        while self._heap:
            count += self.run_until(self._heap[0][0])
        return count
