"""Realized-duration models for the molecular-dynamics proxy app and the
point-to-point / collective micro-benchmarks, across the five measured
execution environments.

Walltimes come from two samplers:

* `table_walltime` replays the measured reference table (one row per
  environment and cluster size at the 16x16x8 problem), drawing
  Normal(mean, stddev) truncated below at half the mean so rows with
  large spreads cannot produce nonphysical near-zero runs;
* `lammps_walltime` prices an arbitrary problem box on bare metal as
  T = t_s + k * x*y*z * (64 / ranks), the simplest cost surface that
  strong-scales through the 64- and 512-rank reference points, with
  multiplicative lognormal noise.

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


@functools.cache  # the reference table is fixed data
def reference_table() -> dict[tuple[str, int], TableRow]:
    """The reference rows by (environment, nodes)."""
    text = resources.files("convergesim.data").joinpath("lammps_table.csv").read_text()
    rows = (
        TableRow(
            environment=rec["environment"],
            nodes=int(rec["nodes"]),
            ranks=int(rec["ranks"]),
            mean_s=float(rec["mean_s"]),
            stddev_s=float(rec["stddev_s"]),
            cpu_pct=float(rec["cpu_pct"]),
        )
        for rec in csv.DictReader(text.splitlines())
    )
    return {(r.environment, r.nodes): r for r in rows}


def table_row(env: str, nodes: int) -> TableRow:
    if env not in ENVIRONMENTS:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    row = reference_table().get((env, nodes))
    if row is None:
        raise UnknownTableRowError(f"no reference row for ({env}, {nodes} nodes)")
    return row


def table_sizes() -> list[int]:
    return sorted({nodes for _, nodes in reference_table()})


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


def table_walltime(env: str, nodes: int, rng: np.random.Generator) -> float:
    """Sample one realized walltime in seconds of the reference problem from
    the (env, nodes) reference row."""
    row = table_row(env, nodes)
    if row.stddev_s == 0.0:
        return row.mean_s
    draw = rng.normal(row.mean_s, row.stddev_s)
    return max(draw, 0.5 * row.mean_s)


# A noise_sigma whose factor exp(sigma * z) stays finite: numpy's normal
# returns |z| <= R = 3.6541528853610088 or, from its ziggurat tail, R + x
# with x^2 < -2 log(1 - u) for a 53-bit uniform u <= 1 - 2^-53. So |z| <
# R + sqrt(106 ln 2) = 12.226, and 58 * 12.226 = 709.1 < log(float max).
MAX_NOISE_SIGMA = 58


def lammps_walltime(ranks: int, problem: LammpsProblem, rng: np.random.Generator,
                    noise_sigma: float) -> float:
    """Sample one realized bare-metal walltime in seconds of any problem box;
    `noise_sigma` 0 draws nothing."""
    t_s, k = volumetric_fit()
    base = t_s + k * problem.volume * (REFERENCE_RANKS / ranks)
    if noise_sigma > 0.0:
        base *= math.exp(rng.normal(0.0, noise_sigma))
    return base


def background_cluster(env: str) -> bool:
    """Whether a user-space cluster runs beside the environment's jobs."""
    return env in (BARE_METAL_WITH_USERNETES, CONTAINER_WITH_USERNETES)


def network_path_for(env: str) -> str:
    """Inside the user-space cluster the relay path applies; hosts use bypass."""
    return netmodel.TAP_RELAY if env == USERNETES else netmodel.OS_BYPASS


def osu_replay(env: str, benchmark: str, nodes: int, m: float,
               network: netmodel.CalibratedNetwork) -> float:
    """Replay one micro-benchmark figure for an environment.

    Returns seconds for latency/barrier/allreduce and bytes/second for bw.
    """
    if env not in ENVIRONMENTS:
        raise UnknownEnvironmentError(f"unknown environment {env!r}")
    if benchmark not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {benchmark!r}")
    params = network.params(network_path_for(env))
    if benchmark == "latency":
        return netmodel.p2p_latency(params, m)
    if benchmark == "bw":
        return netmodel.p2p_bandwidth(params, m)
    if benchmark == "barrier":
        return netmodel.barrier_time(params, nodes, background_cluster(env))
    return netmodel.allreduce_time(params, m, nodes, background_cluster(env))
