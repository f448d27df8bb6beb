"""Nested allocations and a user-space cluster living inside one of them.

Builds the 33-node cluster, carves all 33 nodes for the pod layer
(a control plane and 32 workers), brings up the control plane and the
NIC-exposing daemonset, and shows how placement resolves each pod's
network path.
"""

from convergesim import podlayer
from convergesim.resgraph import ClusterSpec, ResourceRequest, build_cluster

graph = build_cluster(ClusterSpec(node_count=33, cores_per_node=16))
root = graph.root_allocation
print(f"cluster: 33 nodes x 16 cores = {graph.allocation(root).total_cores} cores")

# a batch allocation for the user-space cluster, taking every node
kube_alloc = graph.carve(root, ResourceRequest(nodes=33))
print(f"carved {len(kube_alloc.node_ids)} nodes for the pod layer")

kube = podlayer.start_usernetes(graph, kube_alloc.alloc_id)
print(f"control plane: node {kube.control_plane_node}, workers: {len(kube.worker_nodes)}")

# without the daemonset, device-hungry pods fall back to the relay path
probe = podlayer.apply(graph, kube, podlayer.PodSpec(
    name="probe", kind=podlayer.JOB_SET, replicas=2, requires_bypass_nic=True))
print(f"before daemonset: probe pods use {probe[0].network_path}")

nic = podlayer.apply(graph, kube, podlayer.PodSpec(
    name="nic", kind=podlayer.DAEMONSET, requires_bypass_nic=True))
print(f"daemonset placed {len(nic)} pods, exposing the bypass NIC cluster-wide")

mpi = podlayer.apply(graph, kube, podlayer.PodSpec(
    name="mpi", kind=podlayer.JOB_SET, replicas=32, requires_bypass_nic=True))
print(f"after daemonset: mpi pods use {mpi[0].network_path} "
      f"on {len({p.node_id for p in mpi})} distinct nodes")

print(f"headless lookup mpi-17 -> node {podlayer.resolve(kube, 'mpi-17')}")

# CPU ceilings throttle cycles instead of bounding core counts
capped = podlayer.apply(graph, kube, podlayer.PodSpec(
    name="capped", kind=podlayer.DEPLOYMENT, replicas=1, cpu_limit=8.0))[0]
fraction, inflation = podlayer.effective_cpu(capped, demand_cores=16.0)
print(f"demand 16 cores under a limit of 8: {fraction:.0%} of cycles, "
      f"runtime x{inflation:.1f}")

# nested bounding: a sub-partition carved inside the batch allocation can
# never reference nodes outside it
sub = graph.carve(kube_alloc.alloc_id, ResourceRequest(
    nodes=4, cores_per_node=8, exclusive=False))
inside = set(sub.node_ids) <= set(kube_alloc.node_ids)
print(f"nested 4-node carve stays inside its parent: {inside}")
graph.audit()
print("conservation audit: ok")
