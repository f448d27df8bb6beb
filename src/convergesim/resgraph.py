"""Cluster resource graph and nested allocations.

A `ClusterSpec` is the only description of the nodes: every node has
`cores_per_node` cores, and the kernel-bypass NIC is on every node
unless the cluster has none or lists the node in `nodes_without_nic`.
An allocation is a per-node grant of core counts carved out of a parent
allocation. The carve/release rules enforce hierarchical bounding: a
child's node set is a subset of its parent's, and on every node the core
counts granted to children never exceed the parent's own grant.

Core grants are counts per node, not individual core identities; nothing
here binds to specific core IDs, which keeps the accounting (and its
brute-force audit) simple. The bypass NIC is a pass-through device
shareable by all allocations on a node, not a partitioned resource.
"""

from dataclasses import dataclass, field


class ResourceError(Exception):
    pass


class UnknownAllocationError(ResourceError):
    pass


class InsufficientCapacityError(ResourceError):
    """The request cannot be satisfied from the parent's free capacity."""


class AllocationInUseError(ResourceError):
    """Release attempted while child allocations are still live."""


@dataclass(frozen=True)
class ClusterSpec:
    node_count: int
    cores_per_node: int
    has_bypass_nic: bool = True
    # the device flag is per node: ids listed here lack the NIC even when
    # the cluster-wide flag is on
    nodes_without_nic: tuple[int, ...] = ()

    def validate(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")
        bad = [i for i in self.nodes_without_nic if not 0 <= i < self.node_count]
        if bad:
            raise ValueError(f"nodes_without_nic out of range: {bad}")


@dataclass(frozen=True)
class ResourceRequest:
    nodes: int
    cores_per_node: int = 0  # ignored when exclusive
    exclusive: bool = True
    require_bypass_nic: bool = False

    def validate(self):
        if self.nodes < 1:
            raise ValueError("request.nodes must be >= 1")
        if not self.exclusive and self.cores_per_node < 1:
            raise ValueError("non-exclusive request needs cores_per_node >= 1")


@dataclass
class Allocation:
    alloc_id: int
    parent: int | None
    node_slices: dict[int, int]  # node_id -> granted core count
    children: set[int] = field(default_factory=set)
    lent: int = 0  # cores granted to live children, summed over nodes
    total_cores: int = field(init=False)  # a grant never changes

    def __post_init__(self):
        self.total_cores = sum(self.node_slices.values())

    @property
    def node_ids(self) -> list[int]:
        return sorted(self.node_slices)


class ResourceGraph:
    """The cluster's spec plus the live allocation tree rooted at
    `root_allocation`, which owns every core of every node.

    Only live allocations are kept; a release drops its entry.
    """

    def __init__(self, spec: ClusterSpec):
        spec.validate()
        self.spec = spec
        self._allocations: dict[int, Allocation] = {}
        self._next_alloc_id = 0
        root = Allocation(
            alloc_id=self._take_id(),
            parent=None,
            node_slices=dict.fromkeys(range(spec.node_count), spec.cores_per_node),
        )
        self._allocations[root.alloc_id] = root
        self.root_allocation = root.alloc_id

    def _take_id(self) -> int:
        self._next_alloc_id += 1
        return self._next_alloc_id

    def has_bypass_nic(self, node_id: int) -> bool:
        return self.spec.has_bypass_nic and node_id not in self.spec.nodes_without_nic

    def allocation(self, alloc_id: int) -> Allocation:
        alloc = self._allocations.get(alloc_id)
        if alloc is None:
            raise UnknownAllocationError(f"allocation {alloc_id} does not exist")
        return alloc

    def live_allocations(self) -> list[Allocation]:
        return list(self._allocations.values())

    def free_cores(self, alloc_id: int, node_id: int) -> int:
        """Cores of `node_id` granted to `alloc_id` and not re-granted to a child."""
        alloc = self.allocation(alloc_id)
        held = alloc.node_slices.get(node_id, 0)
        for child_id in alloc.children:
            held -= self._allocations[child_id].node_slices.get(node_id, 0)
        return held

    def carve(self, parent_id: int, request: ResourceRequest) -> Allocation:
        """Grant a child allocation out of the parent's free capacity.

        Node selection is first-fit in ascending node_id order, which keeps
        placement deterministic. Exclusive requests take every core of each
        granted node and require the node to be entirely free within the
        parent; non-exclusive requests take `cores_per_node` per node. A
        request for more cores than the parent has not lent fails before
        the scan, as Flux's pruning filters skip a vertex.
        """
        request.validate()
        parent = self.allocation(parent_id)
        cores = self.spec.cores_per_node
        need = request.nodes * (cores if request.exclusive else request.cores_per_node)
        if parent.total_cores - parent.lent < need:
            raise InsufficientCapacityError(
                f"allocation {parent_id} has fewer than {need} unlent core(s)")
        chosen: dict[int, int] = {}
        for node_id in parent.node_ids:
            if len(chosen) == request.nodes:
                break
            if request.require_bypass_nic and not self.has_bypass_nic(node_id):
                continue
            free = self.free_cores(parent_id, node_id)
            if request.exclusive:
                if free == cores and parent.node_slices[node_id] == cores:
                    chosen[node_id] = cores
            else:
                if free >= request.cores_per_node:
                    chosen[node_id] = request.cores_per_node
        if len(chosen) < request.nodes:
            raise InsufficientCapacityError(
                f"allocation {parent_id} cannot satisfy {request.nodes} node(s) "
                f"(found {len(chosen)} candidate(s))"
            )
        child = Allocation(alloc_id=self._take_id(), parent=parent_id, node_slices=chosen)
        self._allocations[child.alloc_id] = child
        parent.children.add(child.alloc_id)
        parent.lent += child.total_cores
        return child

    def release(self, alloc_id: int) -> None:
        """Return an allocation's resources to its parent."""
        alloc = self.allocation(alloc_id)
        if alloc.parent is None:
            raise ResourceError("the root allocation cannot be released")
        if alloc.children:
            raise AllocationInUseError(
                f"allocation {alloc_id} still has live children {sorted(alloc.children)}"
            )
        del self._allocations[alloc_id]
        parent = self._allocations[alloc.parent]
        parent.children.discard(alloc_id)
        parent.lent -= alloc.total_cores

    def audit(self) -> None:
        """Assert the bounding and conservation invariants on the live tree.

        Per node: the root grant equals the node's core count, every
        allocation's children stay within its grant, and summing each live
        allocation's free cores recovers the node's core count exactly.
        Each allocation's `lent` equals its children's summed node slices.
        """
        cores = self.spec.cores_per_node
        nodes = range(self.spec.node_count)
        root = self._allocations[self.root_allocation]
        for node_id in nodes:
            if root.node_slices.get(node_id) != cores:
                raise AssertionError(f"root does not own all cores of node {node_id}")
        for alloc in self.live_allocations():
            lent = sum(sum(self._allocations[c].node_slices.values()) for c in alloc.children)
            if lent != alloc.lent:
                raise AssertionError(f"allocation {alloc.alloc_id} lent {lent}, not {alloc.lent}")
            for node_id in alloc.node_slices:
                if self.free_cores(alloc.alloc_id, node_id) < 0:
                    raise AssertionError(
                        f"children of allocation {alloc.alloc_id} oversubscribe node {node_id}"
                    )
            if alloc.parent is not None:
                parent = self._allocations[alloc.parent]
                for node_id, count in alloc.node_slices.items():
                    if node_id not in parent.node_slices:
                        raise AssertionError(
                            f"allocation {alloc.alloc_id} uses node {node_id} "
                            f"outside its parent"
                        )
                    if count > parent.node_slices[node_id]:
                        raise AssertionError(
                            f"allocation {alloc.alloc_id} exceeds parent grant on node {node_id}"
                        )
        for node_id in nodes:
            free_sum = sum(
                self.free_cores(a.alloc_id, node_id)
                for a in self.live_allocations()
                if node_id in a.node_slices
            )
            if free_sum != cores:
                raise AssertionError(
                    f"conservation broken on node {node_id}: free sum {free_sum} "
                    f"!= {cores}"
                )

    def root_fully_free(self) -> bool:
        return not self._allocations[self.root_allocation].children


def build_cluster(spec: ClusterSpec) -> ResourceGraph:
    """Materialize a cluster graph whose root allocation owns every core."""
    return ResourceGraph(spec)
