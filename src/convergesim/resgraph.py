"""Cluster resource graph and nested allocations.

A `ClusterSpec` is the only description of the nodes: every node has
`cores_per_node` cores, and the kernel-bypass NIC is on every node.
An allocation is a per-node grant of core counts carved out of a parent
allocation. The carve/release rules enforce hierarchical bounding: a
child's node set is a subset of its parent's, and on every node the core
counts granted to children never exceed the parent's own grant.

Core grants are counts per node, not individual core identities; nothing
here binds to specific core IDs, which keeps the accounting simple. The
bypass NIC is a pass-through device shareable by all allocations on a
node, not a partitioned resource.

`check_grants` is the one accounting checker: it rebuilds the tree from
parent pointers and node slices alone. `ResourceGraph.audit` and the
tests' replayed mirror both check through it.
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

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")


@dataclass(frozen=True)
class ResourceRequest:
    nodes: int
    cores_per_node: int = 0  # ignored when exclusive
    exclusive: bool = True

    def __post_init__(self):
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

    def allocation(self, alloc_id: int) -> Allocation:
        alloc = self._allocations.get(alloc_id)
        if alloc is None:
            raise UnknownAllocationError(f"allocation {alloc_id} does not exist")
        return alloc

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
        """Check the live tree with `check_grants`, then the state kept
        beside the grants: each allocation's `children` set and `lent`
        must match the tree the grants rebuild."""
        allocs = self._allocations
        children, _ = check_grants(
            self.spec, {a.alloc_id: (a.parent, a.node_slices) for a in allocs.values()})
        for alloc_id, alloc in allocs.items():
            if alloc.children != children[alloc_id]:
                raise AssertionError(
                    f"allocation {alloc_id} lists children {sorted(alloc.children)}, "
                    f"not {sorted(children[alloc_id])}")
            lent = sum(sum(allocs[c].node_slices.values()) for c in children[alloc_id])
            if lent != alloc.lent:
                raise AssertionError(f"allocation {alloc_id} lent {lent}, not {alloc.lent}")

    def root_fully_free(self) -> bool:
        return not self._allocations[self.root_allocation].children


def check_grants(spec: ClusterSpec, grants: dict) -> tuple[dict, dict]:
    """Check a tree of grants, `{alloc_id: (parent, node_slices)}`, and
    return it rebuilt as `(children, free)`: each allocation's set of
    child ids, and its per-node cores not re-granted to a child.

    Reads nothing but `grants`. Raises AssertionError naming the broken rule:
    - exactly one root, and it owns every core of every node;
    - every parent is live;
    - every allocation reaches the root through its parents (no cycle);
    - every node of a child lies in its parent;
    - on every node, an allocation's children hold at most its grant.

    Two further invariants follow. A child never holds more of a node than
    its parent's grant, by the last rule. Conservation, that the free cores
    of a node's allocations sum to the node's core count, holds because
    children come from the parent pointers: each grant is added once as an
    allocation's own and taken once from its parent's free count, so the
    sum telescopes to the root's grant.
    """
    roots = [a for a, (parent, _) in grants.items() if parent is None]
    full = dict.fromkeys(range(spec.node_count), spec.cores_per_node)
    if len(roots) != 1 or grants[roots[0]][1] != full:
        raise AssertionError(f"roots {roots}: need one, owning all cores of every node")
    children = {alloc_id: set() for alloc_id in grants}
    free = {alloc_id: dict(slices) for alloc_id, (_, slices) in grants.items()}
    for alloc_id, (parent, slices) in grants.items():
        if parent is None:
            continue
        if parent not in grants:
            raise AssertionError(f"allocation {alloc_id} has parent {parent}, not live")
        children[parent].add(alloc_id)
        for node_id, count in slices.items():
            if node_id not in free[parent]:
                raise AssertionError(
                    f"allocation {alloc_id} uses node {node_id} outside its parent")
            free[parent][node_id] -= count
    reached = roots[:]  # each allocation has one parent, so no id repeats
    for alloc_id in reached:
        reached.extend(children[alloc_id])
    if len(reached) != len(grants):
        raise AssertionError(f"allocations {sorted(set(grants) - set(reached))} "
                             "do not reach the root through their parents")
    for alloc_id, nodes in free.items():
        for node_id, cores in nodes.items():
            if cores < 0:
                raise AssertionError(
                    f"children of allocation {alloc_id} oversubscribe node {node_id}")
    return children, free


def build_cluster(spec: ClusterSpec) -> ResourceGraph:
    """Materialize a cluster graph whose root allocation owns every core."""
    return ResourceGraph(spec)
