"""Nested allocations inside one cluster.

Builds the 33-node cluster, carves all 33 nodes as one batch allocation
(room for a user-space cluster's control plane and 32 workers), carves a
sub-partition inside it, and audits the graph's accounting.
"""

from convergesim.resgraph import ClusterSpec, ResourceRequest, build_cluster

graph = build_cluster(ClusterSpec(node_count=33, cores_per_node=16))
root = graph.root_allocation
print(f"cluster: 33 nodes x 16 cores = {graph.allocation(root).total_cores} cores")

# a batch allocation for the user-space cluster, taking every node
kube_alloc = graph.carve(root, ResourceRequest(nodes=33))
print(f"carved {len(kube_alloc.node_ids)} nodes for the user-space cluster")

# nested bounding: a sub-partition carved inside the batch allocation can
# never reference nodes outside it
sub = graph.carve(kube_alloc.alloc_id, ResourceRequest(
    nodes=4, cores_per_node=8, exclusive=False))
inside = set(sub.node_ids) <= set(kube_alloc.node_ids)
print(f"nested 4-node carve stays inside its parent: {inside}")
graph.audit()
print("conservation audit: ok")
