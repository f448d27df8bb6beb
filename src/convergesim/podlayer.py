"""User-space Kubernetes modeled inside one allocation.

A cluster takes the allocation's first node as a control plane (labeled
to accept no workload pods) and the rest as workers. Job sets and
deployments place with anti-affinity (one pod per node); a daemonset
places exactly one pod on every worker and is the mechanism that exposes
the host's kernel-bypass NIC, which every node has, to pods. A pod's
traffic uses the bypass path only if it asked for the device and the
exposing daemonset is deployed; otherwise it falls back to the
user-space TAP relay.

The nodes themselves (cores) are read from the graph's `ClusterSpec`. A
cluster keeps one index: its pods, by pod-set name. A pod's hostname is
`<pod set>-<index>`, so a lookup splits off the index and reads that
pod set. Exposure is read from the pods: an exposing daemonset covers
every worker, so exposure is all or nothing.

CPU limits are modeled as a hard ceiling on the share of cycles, not a
CPU-count bound and not burstable: demand above the ceiling inflates
runtime proportionally. The recommended configuration therefore requests
only the bypass-NIC device and relies on anti-affinity instead of CPU
limits.

Headless-service name resolution is modeled as free: a per-lookup cost
would be a hypothesis, not a measurement.
"""

import math
from dataclasses import dataclass, field

from .netmodel import OS_BYPASS, TAP_RELAY
from .resgraph import ResourceGraph

JOB_SET = "job_set"
DEPLOYMENT = "deployment"
DAEMONSET = "daemonset"
POD_KINDS = (JOB_SET, DEPLOYMENT, DAEMONSET)


class PodLayerError(Exception):
    pass


class UnknownHostnameError(PodLayerError):
    pass


@dataclass(frozen=True)
class PodSpec:
    name: str
    kind: str = DEPLOYMENT
    replicas: int = 1
    cpu_limit: float | None = None
    requires_bypass_nic: bool = False

    def __post_init__(self):
        if self.kind not in POD_KINDS:
            raise ValueError(f"unknown pod kind {self.kind!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        # a zero limit would divide by zero in effective_cpu
        if self.cpu_limit is not None and not 0 < self.cpu_limit < math.inf:
            raise ValueError(f"cpu_limit must be finite and positive, not {self.cpu_limit}")


@dataclass(frozen=True)
class PodPlacement:
    name: str            # pod hostname
    spec_name: str
    kind: str
    node_id: int
    node_cores: int
    cpu_limit: float | None
    network_path: str


@dataclass
class KubeCluster:
    allocation: int
    control_plane_node: int
    worker_nodes: list[int]
    pods: dict[str, list[PodPlacement]] = field(default_factory=dict)  # by spec name


def start_usernetes(graph: ResourceGraph, alloc_id: int) -> KubeCluster:
    """Bring up the pod layer inside an allocation of at least 2 nodes."""
    alloc = graph.allocation(alloc_id)
    nodes = alloc.node_ids
    if len(nodes) < 2:
        raise PodLayerError(
            "a control plane plus at least one worker is required "
            f"(allocation has {len(nodes)} node(s))"
        )
    return KubeCluster(
        allocation=alloc_id,
        control_plane_node=nodes[0],
        worker_nodes=nodes[1:],
    )


def apply(graph: ResourceGraph, kube: KubeCluster, spec: PodSpec) -> list[PodPlacement]:
    """Place a pod set on the workers and register its hostnames.

    Daemonsets land one pod on every worker; job sets and deployments
    land on distinct workers (an error when replicas exceed the worker
    count). The control plane never receives workload pods. A pod-set
    name already applied is an error, checked before anything places.
    """
    if spec.name in kube.pods:
        raise PodLayerError(f"pod set {spec.name!r} is already applied")
    if spec.kind == DAEMONSET:
        targets = kube.worker_nodes
    elif spec.replicas > len(kube.worker_nodes):
        raise PodLayerError(
            f"{spec.replicas} replicas do not fit {len(kube.worker_nodes)} "
            "workers with anti-affinity"
        )
    else:
        targets = kube.worker_nodes[: spec.replicas]
    # a daemonset asking for the NIC exposes it to every later pod set
    exposed = spec.kind == DAEMONSET or any(
        pods[0].kind == DAEMONSET and pods[0].network_path == OS_BYPASS
        for pods in kube.pods.values())
    network_path = OS_BYPASS if spec.requires_bypass_nic and exposed else TAP_RELAY
    placements = [PodPlacement(
        name=f"{spec.name}-{i}",
        spec_name=spec.name,
        kind=spec.kind,
        node_id=node_id,
        node_cores=graph.spec.cores_per_node,
        cpu_limit=spec.cpu_limit,
        network_path=network_path,
    ) for i, node_id in enumerate(targets)]
    kube.pods[spec.name] = placements
    return placements


def effective_cpu(pod: PodPlacement, demand_cores: float) -> tuple[float, float]:
    """(usable fraction, runtime inflation) for a pod demanding `demand_cores`.

    Without a limit the node's core count is the ceiling; with a limit the
    limit is, and demand above it is throttled (cycles capped, runtime
    stretched), never burst over.
    """
    if demand_cores <= 0:
        raise ValueError("demand must be positive")
    demand = float(demand_cores)
    ceiling = float(pod.node_cores) if pod.cpu_limit is None else float(pod.cpu_limit)
    return min(1.0, ceiling / demand), max(1.0, demand / ceiling)


def resolve(kube: KubeCluster, hostname: str) -> int:
    """Headless-service lookup: the node id the hostname runs on."""
    spec_name, _, _ = hostname.rpartition("-")  # the index has no "-"
    for pod in kube.pods.get(spec_name, ()):
        if pod.name == hostname:
            return pod.node_id
    raise UnknownHostnameError(f"hostname {hostname!r} is not registered")
