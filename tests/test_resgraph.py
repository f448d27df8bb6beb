import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from helpers import AccountingMirror, GraphRecorder, reference_carve
from convergesim.resgraph import (
    AllocationInUseError,
    ClusterSpec,
    InsufficientCapacityError,
    ResourceRequest,
    UnknownAllocationError,
    build_cluster,
)


def mirror_for(graph):
    root = graph.allocation(graph.root_allocation)
    return AccountingMirror(
        dict.fromkeys(range(graph.spec.node_count), graph.spec.cores_per_node),
        graph.root_allocation,
        dict(root.node_slices),
    )


def test_build_full_cluster():
    graph = build_cluster(ClusterSpec(33, 16))
    assert graph.spec.node_count == 33
    root = graph.allocation(graph.root_allocation)
    assert root.total_cores == 528
    assert sorted(root.node_slices.values()) == [16] * 33


def test_build_minimal_cluster():
    graph = build_cluster(ClusterSpec(1, 1))
    assert graph.allocation(graph.root_allocation).total_cores == 1


def test_build_rejects_empty_spec():
    with pytest.raises(ValueError):
        build_cluster(ClusterSpec(0, 16))
    with pytest.raises(ValueError):
        build_cluster(ClusterSpec(4, 0))


def test_carve_leaves_remainder_free():
    graph = build_cluster(ClusterSpec(33, 16))
    child = graph.carve(graph.root_allocation, ResourceRequest(nodes=32))
    assert len(child.node_ids) == 32
    # exactly one node remains for a control plane
    leftover = graph.carve(graph.root_allocation, ResourceRequest(nodes=1))
    assert len(leftover.node_ids) == 1
    assert not set(leftover.node_ids) & set(child.node_ids)


def test_carve_exhaustion_fails():
    graph = build_cluster(ClusterSpec(4, 8))
    graph.carve(graph.root_allocation, ResourceRequest(nodes=4))
    with pytest.raises(InsufficientCapacityError):
        graph.carve(graph.root_allocation, ResourceRequest(nodes=1))


def test_nested_carves_stay_within_parent_exhaustively():
    # every (parent size, child size) pair on a 4-node toy graph
    for parent_nodes in range(1, 5):
        for child_nodes in range(1, parent_nodes + 1):
            graph = build_cluster(ClusterSpec(4, 8))
            a = graph.carve(graph.root_allocation, ResourceRequest(nodes=parent_nodes))
            b = graph.carve(a.alloc_id, ResourceRequest(nodes=child_nodes))
            assert set(b.node_ids) <= set(a.node_ids)
            graph.audit()


def test_release_restores_parent_capacity_exactly():
    graph = build_cluster(ClusterSpec(4, 8))
    before = [graph.free_cores(graph.root_allocation, n) for n in range(4)]
    child = graph.carve(graph.root_allocation, ResourceRequest(nodes=2))
    graph.release(child.alloc_id)
    after = [graph.free_cores(graph.root_allocation, n) for n in range(4)]
    assert before == after
    assert graph.root_fully_free()


def test_release_with_live_children_fails():
    graph = build_cluster(ClusterSpec(4, 8))
    a = graph.carve(graph.root_allocation, ResourceRequest(nodes=3))
    graph.carve(a.alloc_id, ResourceRequest(nodes=1))
    with pytest.raises(AllocationInUseError):
        graph.release(a.alloc_id)


def test_double_release_fails():
    graph = build_cluster(ClusterSpec(4, 8))
    a = graph.carve(graph.root_allocation, ResourceRequest(nodes=1))
    graph.release(a.alloc_id)
    with pytest.raises(UnknownAllocationError):
        graph.release(a.alloc_id)


def test_unknown_parent_fails():
    graph = build_cluster(ClusterSpec(4, 8))
    with pytest.raises(UnknownAllocationError):
        graph.carve(999, ResourceRequest(nodes=1))


def test_core_level_sharing_on_one_node():
    graph = build_cluster(ClusterSpec(1, 16))
    req = ResourceRequest(nodes=1, cores_per_node=8, exclusive=False)
    graph.carve(graph.root_allocation, req)
    graph.carve(graph.root_allocation, req)
    with pytest.raises(InsufficientCapacityError):
        graph.carve(graph.root_allocation,
                    ResourceRequest(nodes=1, cores_per_node=1, exclusive=False))
    graph.audit()


def test_exclusive_carve_requires_untouched_nodes():
    graph = build_cluster(ClusterSpec(2, 16))
    graph.carve(graph.root_allocation,
                ResourceRequest(nodes=1, cores_per_node=1, exclusive=False))
    # one node is partially used, so only one fully-free node remains
    with pytest.raises(InsufficientCapacityError):
        graph.carve(graph.root_allocation, ResourceRequest(nodes=2))
    graph.carve(graph.root_allocation, ResourceRequest(nodes=1))


def test_bypass_nic_requirement():
    graph = build_cluster(ClusterSpec(4, 8, has_bypass_nic=False))
    with pytest.raises(InsufficientCapacityError):
        graph.carve(graph.root_allocation,
                    ResourceRequest(nodes=1, require_bypass_nic=True))
    nic_graph = build_cluster(ClusterSpec(4, 8, has_bypass_nic=True))
    child = nic_graph.carve(nic_graph.root_allocation,
                            ResourceRequest(nodes=1, require_bypass_nic=True))
    assert nic_graph.has_bypass_nic(child.node_ids[0])


def test_per_node_nic_heterogeneity():
    spec = ClusterSpec(4, 8, has_bypass_nic=True, nodes_without_nic=(0, 2))
    graph = build_cluster(spec)
    assert [graph.has_bypass_nic(i) for i in range(4)] == [
        False, True, False, True,
    ]
    child = graph.carve(graph.root_allocation,
                        ResourceRequest(nodes=2, require_bypass_nic=True))
    assert child.node_ids == [1, 3]
    with pytest.raises(InsufficientCapacityError):
        graph.carve(graph.root_allocation,
                    ResourceRequest(nodes=1, require_bypass_nic=True))
    with pytest.raises(ValueError):
        ClusterSpec(4, 8, nodes_without_nic=(9,)).validate()


def test_randomized_carve_release_against_accounting_mirror():
    rng = np.random.default_rng(1234)
    graph = build_cluster(ClusterSpec(8, 4))
    mirror = mirror_for(graph)
    recorder = GraphRecorder(graph)
    live = [graph.root_allocation]
    applied = 0
    for _ in range(2000):
        do_carve = rng.random() < 0.6 or len(live) == 1
        if do_carve:
            parent = live[int(rng.integers(len(live)))]
            req = ResourceRequest(
                nodes=int(rng.integers(1, 3)),
                cores_per_node=int(rng.integers(1, 3)),
                exclusive=bool(rng.random() < 0.3),
            )
            try:
                live.append(graph.carve(parent, req).alloc_id)
            except InsufficientCapacityError:
                pass
        else:
            candidates = [a for a in live[1:] if not graph.allocation(a).children]
            if candidates:
                victim = candidates[int(rng.integers(len(candidates)))]
                graph.release(victim)
                live.remove(victim)
        if applied < len(recorder.ops):
            mirror.apply(recorder.ops[applied])
            applied += 1
        # after every step, failed ones too: a refused carve must leave
        # each allocation's lent-cores count as it was
        graph.audit()
    assert applied == len(recorder.ops) and applied > 500


def test_audit_recomputes_lent_cores():
    graph = build_cluster(ClusterSpec(4, 8))
    child = graph.carve(graph.root_allocation, ResourceRequest(nodes=2))
    graph.audit()
    graph.allocation(graph.root_allocation).lent -= 1
    with pytest.raises(AssertionError, match="lent"):
        graph.audit()
    graph.allocation(graph.root_allocation).lent += 1
    graph.release(child.alloc_id)
    graph.audit()


REQUESTS = st.builds(ResourceRequest, nodes=st.integers(1, 4),
                     cores_per_node=st.integers(1, 5), exclusive=st.booleans(),
                     require_bypass_nic=st.booleans())


class CarveAgainstReference(RuleBasedStateMachine):
    """Random nested carves and releases of exclusive, shared and NIC
    requests on clusters with NIC gaps: each carve grants exactly the
    node -> cores map of `reference_carve`, or both fail."""

    @initialize(node_count=st.integers(1, 6), cores=st.integers(1, 4),
                has_nic=st.booleans(), data=st.data())
    def build(self, node_count, cores, has_nic, data):
        gaps = data.draw(st.sets(st.integers(0, node_count - 1)))
        self.spec = ClusterSpec(node_count, cores, has_nic, tuple(sorted(gaps)))
        self.graph = build_cluster(self.spec)
        self.mirror = mirror_for(self.graph)
        self.live = [self.graph.root_allocation]

    @rule(data=st.data(), request=REQUESTS)
    def carve(self, data, request):
        parent = data.draw(st.sampled_from(self.live))
        expected = reference_carve(self.mirror, self.spec, parent, request)
        try:
            child = self.graph.carve(parent, request)
        except InsufficientCapacityError:
            assert expected is None, (parent, request)
            return
        assert child.node_slices == expected, (parent, request)
        self.mirror.apply(("carve", child.alloc_id, parent, dict(child.node_slices)))
        self.live.append(child.alloc_id)

    @precondition(lambda self: len(self.live) > 1)
    @rule(data=st.data())
    def release(self, data):
        leaves = [a for a in self.live[1:] if not self.graph.allocation(a).children]
        victim = data.draw(st.sampled_from(leaves))
        parent = self.graph.allocation(victim).parent
        self.graph.release(victim)
        self.mirror.apply(("release", victim, parent, {}))
        self.live.remove(victim)

    @invariant()
    def audited(self):
        self.graph.audit()


TestCarveAgainstReference = CarveAgainstReference.TestCase
TestCarveAgainstReference.settings = settings(max_examples=150, stateful_step_count=40,
                                              deadline=None)
