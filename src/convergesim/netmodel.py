"""Calibrated analytic models of point-to-point and collective time.

Two network paths are modeled. The `os_bypass` path hands messages to a
user-space NIC driver and skips the kernel; the `tap_relay` path is the
rootless-networking route where packets pass through a user-space TAP
device and an intermediate relay, which costs latency and small-message
bandwidth. Model forms:

  latency     L(m) = L0 + m / BW_inf
  bandwidth   BW(m) = BW_inf * m / (m + m_half)
  barrier     B(p) = barrier_base_4node * (log2 p / log2 4) * penalty(p)
  allreduce   T(m, p) = log2(p) * (L0* + m / BW_inf*) * mu(m, p) * penalty(p)

where L0*/BW_inf* are the bypass-path constants (the tap path's allreduce
is measured as a multiplier `mu` over the bypass baseline), and penalty
is the slowdown a background user-space cluster adds to collectives, in
the fixed `PENALTY_STEPS` (1 without one; point-to-point never pays it).

Bandwidth and latency are deliberately independent curves: the bandwidth
benchmark pipelines a window of messages, so 1-byte bandwidth is not the
reciprocal of 1-byte latency. The saturation form is the minimal
two-parameter monotone model that fits both bandwidth anchors: exact at
1 byte, within a fraction of a percent at 4 MiB.

The barrier log2(p) scaling (dissemination style) and the direction of
the mu interpolation (largest multiplier at the smallest message) are
modeling choices; the anchor data only pins the 4-node barrier and the
mu ranges at 4 and 32 nodes.

Anchors ship as a JSON data file (seconds / bytes / bytes-per-second) so
recalibration against new measurements requires no code change.
`load_network` reads, checks and solves such a file in one pass.
"""

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

OS_BYPASS = "os_bypass"
TAP_RELAY = "tap_relay"

MIB_4 = 4 * 1024 * 1024


class CalibrationError(Exception):
    """An anchor file is missing or malformed (not JSON, a key missing or
    not a finite number), or its anchor set is inconsistent (non-positive
    solutions, or a tap path faster than the bypass path)."""


@dataclass(frozen=True)
class NetworkPathParams:
    path: str
    l0_s: float
    bw_inf_Bps: float
    m_half_B: float
    barrier_base_4node_s: float
    # multiplier curve over the bypass allreduce baseline: (nodes, mu_min, mu_max)
    allreduce_mu: tuple[tuple[int, float, float], ...]
    # bypass-path constants the allreduce baseline is built from
    allreduce_base_l0_s: float
    allreduce_base_bw_Bps: float


# (node count, factor): a background user-space cluster multiplies
# collective times by the factor of the last step at or below the node count
PENALTY_STEPS = ((16, 1.15), (32, 1.3))


def collective_penalty(node_count: int, background: bool) -> float:
    """The collective-time factor; exactly 1 without a background cluster, so
    outputs then equal the penalty-free model bit for bit."""
    factor = 1.0
    if background:
        for threshold, value in PENALTY_STEPS:
            if node_count >= threshold:
                factor = value
    return factor


@dataclass(frozen=True)
class CalibratedNetwork:
    os_bypass: NetworkPathParams
    tap_relay: NetworkPathParams

    def params(self, path: str) -> NetworkPathParams:
        if path == OS_BYPASS:
            return self.os_bypass
        if path == TAP_RELAY:
            return self.tap_relay
        raise ValueError(f"unknown network path {path!r}")


def load_network(path=None) -> CalibratedNetwork:
    """Read, check and solve an anchor file (None: the packaged one).

    BW_inf is pinned to the 4 MiB bandwidth anchor and m_half then makes
    the 1-byte anchor exact; the 4 MiB round-trip lands within ~0.5% of
    its anchor, the residual of fitting two parameters to two points with
    one of them treated as the asymptote. The 4-node barrier bases solve
    {tap = bypass + gap, tap = (1 + excess) * bypass}. A file that cannot
    be read or does not solve raises CalibrationError naming the file.
    """
    if path is None:
        path = resources.files("convergesim.data").joinpath("network_anchors.json")
    source = f"anchor file {path}"
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError as err:
        raise CalibrationError(f"{source} does not exist") from err
    except OSError as err:  # a directory, or not readable
        raise CalibrationError(f"{source} cannot be read: {err.strerror}") from err
    except ValueError as err:  # undecodable bytes too
        raise CalibrationError(f"{source} is not JSON: {err}") from err

    def check(ok, message):
        if not ok:
            raise CalibrationError(f"{source}: {message}")

    def number(*keys):
        node = raw
        try:
            for key in keys:
                node = node[key]
            value = float(node)
        except (KeyError, OverflowError, TypeError, ValueError):
            value = math.nan
        check(math.isfinite(value), f"key {'.'.join(keys)} is missing or not a finite number")
        return value

    bands = raw.get("allreduce_multiplier") if isinstance(raw, dict) else None
    check(isinstance(bands, dict) and bands,
          "key allreduce_multiplier is missing or maps no node counts")
    mu = []
    for nodes in bands:
        check(nodes.isdecimal() and int(nodes) >= 1,
              f"allreduce_multiplier key {nodes!r} is not a node count")
        mu.append((int(nodes), number("allreduce_multiplier", nodes, "min"),
                   number("allreduce_multiplier", nodes, "max")))
    mu = tuple(sorted(mu))
    gap = number("barrier_4node", "tap_minus_bypass_seconds")
    excess = number("barrier_4node", "tap_excess_fraction")
    check(gap > 0 and excess > 0, "barrier anchors must be positive")
    check(all(0 < mu_min <= mu_max for _, mu_min, mu_max in mu),
          "allreduce multiplier bands must satisfy 0 < min <= max")
    base_l0 = number("paths", OS_BYPASS, "latency_1b")
    base_bw = number("paths", OS_BYPASS, "bw_4mib")

    def solve_path(name, barrier_base, curve):
        l0 = number("paths", name, "latency_1b")
        bw_inf = number("paths", name, "bw_4mib")
        bw_1b = number("paths", name, "bw_1b")
        m_half = bw_inf / bw_1b - 1.0 if bw_1b > 0 else 0.0
        check(l0 > 0 and bw_inf > 0 and m_half > 0, f"inconsistent anchors for path {name}")
        return NetworkPathParams(path=name, l0_s=l0, bw_inf_Bps=bw_inf, m_half_B=m_half,
                                 barrier_base_4node_s=barrier_base, allreduce_mu=curve,
                                 allreduce_base_l0_s=base_l0, allreduce_base_bw_Bps=base_bw)

    barrier_bypass = gap / excess
    bypass = solve_path(OS_BYPASS, barrier_bypass, tuple((n, 1.0, 1.0) for n, _, _ in mu))
    tap = solve_path(TAP_RELAY, barrier_bypass + gap, mu)
    check(tap.l0_s >= bypass.l0_s and tap.bw_inf_Bps <= bypass.bw_inf_Bps,
          "tap path must not dominate the bypass path")
    return CalibratedNetwork(os_bypass=bypass, tap_relay=tap)


def pre_efa_ethernet(tap: NetworkPathParams) -> NetworkPathParams:
    """Optional preset for the pure-ethernet relay path (no bypass NIC at all).

    Early measurements on plain ethernet showed better than a 2x slowdown,
    represented here by halving the asymptotic bandwidth of the tap path.
    """
    return replace(tap, path="tap_relay_ethernet", bw_inf_Bps=tap.bw_inf_Bps / 2.0)


def p2p_latency(params: NetworkPathParams, m: float) -> float:
    """One-way point-to-point latency in seconds; m below 1 byte clamps to 1."""
    m = max(float(m), 1.0)
    return params.l0_s + m / params.bw_inf_Bps


def p2p_bandwidth(params: NetworkPathParams, m: float) -> float:
    """Streaming bandwidth in bytes/second at message size m (clamped to >= 1)."""
    m = max(float(m), 1.0)
    return params.bw_inf_Bps * m / (m + params.m_half_B)


def barrier_time(params: NetworkPathParams, node_count: int,
                 background: bool = False) -> float:
    if node_count < 2:
        raise ValueError("barrier needs at least 2 nodes")
    scale = math.log2(node_count) / 2.0  # normalized to the 4-node anchor
    return params.barrier_base_4node_s * scale * collective_penalty(node_count, background)


def allreduce_mu(params: NetworkPathParams, m: float, node_count: int) -> float:
    """Multiplier of this path over the bypass allreduce baseline.

    Log-linear in message size between 4 bytes (mu_max) and 4 MiB (mu_min),
    linear in log2(node_count) between the anchored node counts; clamped to
    the anchored range on both axes.
    """
    entries = params.allreduce_mu
    lo_nodes, lo_min, lo_max = entries[0]
    hi_nodes, hi_min, hi_max = entries[-1]
    if hi_nodes == lo_nodes:
        s = 0.0
    else:
        s = (math.log2(node_count) - math.log2(lo_nodes)) / (
            math.log2(hi_nodes) - math.log2(lo_nodes)
        )
        s = min(1.0, max(0.0, s))
    mu_min = lo_min + s * (hi_min - lo_min)
    mu_max = lo_max + s * (hi_max - lo_max)
    m = min(max(float(m), 4.0), float(MIB_4))
    t = (math.log(m) - math.log(4.0)) / (math.log(MIB_4) - math.log(4.0))
    return mu_max + t * (mu_min - mu_max)


def allreduce_time(params: NetworkPathParams, m: float, node_count: int,
                   background: bool = False) -> float:
    """Allreduce completion time in seconds for an m-byte payload on p nodes."""
    if node_count < 2:
        raise ValueError("allreduce needs at least 2 nodes")
    m = max(float(m), 4.0)
    baseline = math.log2(node_count) * (
        params.allreduce_base_l0_s + m / params.allreduce_base_bw_Bps
    )
    penalty = collective_penalty(node_count, background)
    return baseline * allreduce_mu(params, m, node_count) * penalty
