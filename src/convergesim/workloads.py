"""Realized-duration models for the molecular-dynamics proxy app and the
point-to-point / collective micro-benchmarks, across the five measured
execution environments.

Walltimes come in two modes:

* table mode replays the measured reference table (one row per
  environment and cluster size at the 16x16x8 problem), drawing
  Normal(mean, stddev) truncated below at half the mean so rows with
  large spreads cannot produce nonphysical near-zero runs;
* model mode prices an arbitrary problem box as
  T = ratio(env) * (t_s + k * x*y*z * (64 / ranks)), the simplest cost
  surface that strong-scales through the 64- and 512-rank reference
  points, with multiplicative lognormal noise.

The reference table ships as a CSV data file; the report generator reads
the same file, so measured-vs-simulated comparisons share one source of
truth.
"""

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import netmodel

BARE_METAL = "bare_metal"
BARE_METAL_WITH_USERNETES = "bare_metal_with_usernetes"
BARE_METAL_CONTAINER = "bare_metal_container"
CONTAINER_WITH_USERNETES = "container_with_usernetes"
USERNETES = "usernetes"

# report order follows the reference table
ENVIRONMENTS = (
    BARE_METAL,
    BARE_METAL_WITH_USERNETES,
    BARE_METAL_CONTAINER,
    CONTAINER_WITH_USERNETES,
    USERNETES,
)

BENCHMARKS = ("bw", "latency", "barrier", "allreduce")

REFERENCE_PROBLEM = (16, 16, 8)
REFERENCE_RANKS = 64


class UnknownEnvironmentError(Exception):
    pass


class UnknownTableRowError(Exception):
    pass


@dataclass(frozen=True)
class LammpsProblem:
    x: int
    y: int
    z: int

    def __post_init__(self):
        if min(self.x, self.y, self.z) < 1:
            raise ValueError("problem dimensions must be >= 1")

    @property
    def volume(self) -> int:
        return self.x * self.y * self.z


@dataclass(frozen=True)
class TableRow:
    environment: str
    nodes: int
    ranks: int
    mean_s: float
    stddev_s: float
    cpu_pct: float


def load_reference_table() -> list[TableRow]:
    text = resources.files("convergesim.data").joinpath("lammps_table.csv").read_text()
    rows = []
    for rec in csv.DictReader(text.splitlines()):
        rows.append(
            TableRow(
                environment=rec["environment"],
                nodes=int(rec["nodes"]),
                ranks=int(rec["ranks"]),
                mean_s=float(rec["mean_s"]),
                stddev_s=float(rec["stddev_s"]),
                cpu_pct=float(rec["cpu_pct"]),
            )
        )
    return rows


_TABLE: list[TableRow] | None = None
_INDEX: dict[tuple[str, int], TableRow] = {}


def reference_table() -> list[TableRow]:
    global _TABLE
    if _TABLE is None:
        _TABLE = load_reference_table()
        _INDEX.update({(r.environment, r.nodes): r for r in _TABLE})
    return _TABLE


def table_row(env: str, nodes: int) -> TableRow:
    reference_table()
    if env not in ENVIRONMENTS:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    row = _INDEX.get((env, nodes))
    if row is None:
        raise UnknownTableRowError(f"no reference row for ({env}, {nodes} nodes)")
    return row


def table_sizes() -> list[int]:
    return sorted({r.nodes for r in reference_table()})


@functools.cache  # the reference table is fixed data
def volumetric_fit() -> tuple[float, float]:
    """(t_s, k): serial floor and per-unit-volume cost at the reference rank count.

    Fit T(p) = t_s + t_p / p through the bare-metal 64- and 512-rank
    reference points, then spread the parallel term over the reference
    problem volume.
    """
    t64 = table_row(BARE_METAL, 4).mean_s
    t512 = table_row(BARE_METAL, 32).mean_s
    p64 = float(table_row(BARE_METAL, 4).ranks)
    p512 = float(table_row(BARE_METAL, 32).ranks)
    t_p = (t64 - t512) / (1.0 / p64 - 1.0 / p512)
    t_s = t64 - t_p / p64
    volume = REFERENCE_PROBLEM[0] * REFERENCE_PROBLEM[1] * REFERENCE_PROBLEM[2]
    k = (t64 - t_s) / volume
    return t_s, k


def environment_ratio(env: str, nodes: int) -> float:
    """Walltime ratio of `env` to bare metal, taken from the reference table."""
    if env == BARE_METAL:
        return 1.0
    reference_table()
    if (env, nodes) in _INDEX and (BARE_METAL, nodes) in _INDEX:
        return _INDEX[(env, nodes)].mean_s / _INDEX[(BARE_METAL, nodes)].mean_s
    ratios = [
        _INDEX[(env, n)].mean_s / _INDEX[(BARE_METAL, n)].mean_s
        for n in table_sizes()
        if (env, n) in _INDEX
    ]
    if not ratios:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    return float(np.mean(ratios))


def lammps_walltime(env: str, nodes: int, ranks: int, problem: LammpsProblem,
                    rng: np.random.Generator, mode: str = "auto",
                    noise_sigma: float = 0.05) -> float:
    """Sample one realized walltime in seconds.

    Table mode requires a reference row for (env, nodes) and the reference
    problem; model mode prices any problem box. mode="auto" picks table
    mode whenever the row and problem match.
    """
    if env not in ENVIRONMENTS:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    reference_table()
    in_table = (env, nodes) in _INDEX and (problem.x, problem.y, problem.z) == REFERENCE_PROBLEM
    if mode == "auto":
        mode = "table" if in_table else "model"
    if mode == "table":
        row = table_row(env, nodes)
        if row.stddev_s == 0.0:
            return row.mean_s
        draw = rng.normal(row.mean_s, row.stddev_s)
        return max(draw, 0.5 * row.mean_s)
    if mode == "model":
        t_s, k = volumetric_fit()
        base = t_s + k * problem.volume * (REFERENCE_RANKS / float(ranks))
        base *= environment_ratio(env, nodes)
        if noise_sigma > 0.0:
            base *= math.exp(rng.normal(0.0, noise_sigma))
        return base
    raise ValueError(f"unknown walltime mode {mode!r}")


def overhead_for(env: str) -> netmodel.OverheadState:
    """The background-cluster overhead state implied by the environment."""
    running = env in (BARE_METAL_WITH_USERNETES, CONTAINER_WITH_USERNETES)
    return netmodel.OverheadState(usernetes_running=running)


def network_path_for(env: str) -> str:
    """Inside the user-space cluster the relay path applies; hosts use bypass."""
    return netmodel.TAP_RELAY if env == USERNETES else netmodel.OS_BYPASS


def osu_replay(env: str, benchmark: str, nodes: int, m: float,
               network: netmodel.CalibratedNetwork | None = None) -> float:
    """Replay one micro-benchmark figure for an environment.

    Returns seconds for latency/barrier/allreduce and bytes/second for bw.
    """
    if env not in ENVIRONMENTS:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    if benchmark not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {benchmark!r}")
    if network is None:
        network = netmodel.default_network()
    params = network.params(network_path_for(env))
    overhead = overhead_for(env)
    if benchmark == "latency":
        return netmodel.p2p_latency(params, m)
    if benchmark == "bw":
        return netmodel.p2p_bandwidth(params, m)
    if benchmark == "barrier":
        return netmodel.barrier_time(params, nodes, overhead)
    return netmodel.allreduce_time(params, m, nodes, overhead)


def cpu_utilization(env: str, nodes: int) -> float:
    """Reported %CPU for a reference cell, used for report parity."""
    return table_row(env, nodes).cpu_pct
