import pytest
from hypothesis import given, settings, strategies as st

from convergesim.podlayer import (
    DAEMONSET,
    DEPLOYMENT,
    JOB_SET,
    OS_BYPASS,
    TAP_RELAY,
    PodLayerError,
    PodSpec,
    UnknownHostnameError,
    apply,
    effective_cpu,
    resolve,
    start_usernetes,
)
from convergesim.resgraph import ClusterSpec, ResourceRequest, build_cluster


def cluster_with_alloc(nodes, cores=16):
    graph = build_cluster(ClusterSpec(nodes, cores))
    alloc = graph.carve(graph.root_allocation, ResourceRequest(nodes=nodes))
    return graph, alloc


def test_start_splits_control_plane_and_workers():
    graph, alloc = cluster_with_alloc(33)
    kube = start_usernetes(graph, alloc.alloc_id)
    assert kube.control_plane_node == alloc.node_ids[0]
    assert len(kube.worker_nodes) == 32
    assert kube.control_plane_node not in kube.worker_nodes
    assert kube.pods == {}


def test_start_minimum_two_nodes():
    graph, alloc = cluster_with_alloc(2)
    kube = start_usernetes(graph, alloc.alloc_id)
    assert len(kube.worker_nodes) == 1


def test_start_rejects_single_node():
    graph, alloc = cluster_with_alloc(1)
    with pytest.raises(PodLayerError):
        start_usernetes(graph, alloc.alloc_id)


def test_daemonset_covers_every_worker_and_enables_bypass():
    graph, alloc = cluster_with_alloc(33)
    kube = start_usernetes(graph, alloc.alloc_id)
    pods = apply(graph, kube, PodSpec(name="nic", kind=DAEMONSET,
                                      requires_bypass_nic=True))
    assert len(pods) == 32
    assert {p.node_id for p in pods} == set(kube.worker_nodes)
    assert all(p.network_path == OS_BYPASS for p in pods)
    # a later pod set requesting the device now gets the bypass path everywhere
    jobs = apply(graph, kube, PodSpec(name="mpi", kind=JOB_SET, replicas=32,
                                      requires_bypass_nic=True))
    assert all(p.network_path == OS_BYPASS for p in jobs)


def test_bypass_requires_the_daemonset():
    graph, alloc = cluster_with_alloc(5)
    kube = start_usernetes(graph, alloc.alloc_id)
    pods = apply(graph, kube, PodSpec(name="mpi", kind=JOB_SET, replicas=2,
                                      requires_bypass_nic=True))
    assert all(p.network_path == TAP_RELAY for p in pods)


def test_only_a_daemonset_that_asks_for_the_nic_exposes_it():
    graph, alloc = cluster_with_alloc(5)
    kube = start_usernetes(graph, alloc.alloc_id)

    def paths(name):
        pods = apply(graph, kube, PodSpec(name=name, kind=JOB_SET, replicas=2,
                                          requires_bypass_nic=True))
        return {p.network_path for p in pods}

    apply(graph, kube, PodSpec(name="logs", kind=DAEMONSET))  # exposes nothing
    assert paths("after-logs") == {TAP_RELAY}
    apply(graph, kube, PodSpec(name="nic", kind=DAEMONSET, requires_bypass_nic=True))
    assert paths("after-nic") == {OS_BYPASS}


def test_anti_affinity_places_one_pod_per_node():
    graph, alloc = cluster_with_alloc(33)
    kube = start_usernetes(graph, alloc.alloc_id)
    pods = apply(graph, kube, PodSpec(name="app", kind=JOB_SET, replicas=4))
    assert len({p.node_id for p in pods}) == 4
    assert kube.control_plane_node not in {p.node_id for p in pods}


def test_anti_affinity_rejects_overflow():
    graph, alloc = cluster_with_alloc(33)
    kube = start_usernetes(graph, alloc.alloc_id)
    with pytest.raises(PodLayerError):
        apply(graph, kube, PodSpec(name="app", kind=JOB_SET, replicas=33))


def test_control_plane_never_hosts_workload_pods():
    graph, alloc = cluster_with_alloc(6)
    kube = start_usernetes(graph, alloc.alloc_id)
    apply(graph, kube, PodSpec(name="nic", kind=DAEMONSET, requires_bypass_nic=True))
    apply(graph, kube, PodSpec(name="a", kind=JOB_SET, replicas=5))
    apply(graph, kube, PodSpec(name="b", kind=DEPLOYMENT, replicas=3))
    for placement in [p for placed in kube.pods.values() for p in placed]:
        assert placement.node_id != kube.control_plane_node


def test_duplicate_hostnames_rejected():
    graph, alloc = cluster_with_alloc(4)
    kube = start_usernetes(graph, alloc.alloc_id)
    first = apply(graph, kube, PodSpec(name="app", kind=JOB_SET, replicas=1))
    with pytest.raises(PodLayerError, match="already applied"):
        apply(graph, kube, PodSpec(name="app", kind=JOB_SET, replicas=1))
    assert kube.pods == {"app": first}


def test_failed_apply_registers_nothing():
    graph, alloc = cluster_with_alloc(4)
    kube = start_usernetes(graph, alloc.alloc_id)
    # four replicas do not fit three workers
    with pytest.raises(PodLayerError, match="do not fit"):
        apply(graph, kube, PodSpec(name="mpi", kind=JOB_SET, replicas=4,
                                   requires_bypass_nic=True))
    assert kube.pods == {}
    with pytest.raises(UnknownHostnameError):
        resolve(kube, "mpi-0")
    pods = apply(graph, kube, PodSpec(name="mpi", kind=JOB_SET, replicas=1))
    assert kube.pods == {"mpi": pods}
    assert resolve(kube, "mpi-0") == pods[0].node_id


def test_pod_spec_validation():
    with pytest.raises(ValueError):
        PodSpec(name="x", replicas=0)
    with pytest.raises(ValueError):
        PodSpec(name="x", kind="cronjob")


# --- cpu throttling -------------------------------------------------------------


def placed_pod(cpu_limit=None):
    graph, alloc = cluster_with_alloc(2)
    kube = start_usernetes(graph, alloc.alloc_id)
    return apply(graph, kube, PodSpec(name="p", kind=JOB_SET, replicas=1,
                                      cpu_limit=cpu_limit))[0]


def test_effective_cpu_without_limit():
    pod = placed_pod()
    assert effective_cpu(pod, 16.0) == (1.0, 1.0)
    fraction, inflation = effective_cpu(pod, 32.0)
    assert (fraction, inflation) == (0.5, 2.0)


def test_effective_cpu_with_limit():
    pod = placed_pod(cpu_limit=8.0)
    fraction, inflation = effective_cpu(pod, 16.0)
    assert (fraction, inflation) == (0.5, 2.0)


def test_limit_at_half_demand_lands_in_observed_band():
    # a ceiling at half the demand reports 50% utilization, inside the
    # 40-60% throttling band seen when limits are set
    pod = placed_pod(cpu_limit=8.0)
    fraction, _ = effective_cpu(pod, 16.0)
    assert 0.4 <= fraction <= 0.6


def test_inflation_monotone_in_limit():
    inflations = []
    for limit in (2.0, 4.0, 8.0, 16.0):
        pod = placed_pod(cpu_limit=limit)
        inflations.append(effective_cpu(pod, 16.0)[1])
    assert inflations == sorted(inflations, reverse=True)


def test_effective_cpu_rejects_nonpositive_demand():
    with pytest.raises(ValueError):
        effective_cpu(placed_pod(), 0.0)


# --- hostname resolution ---------------------------------------------------------


def test_resolve_registered_hostname():
    graph, alloc = cluster_with_alloc(4)
    kube = start_usernetes(graph, alloc.alloc_id)
    pods = apply(graph, kube, PodSpec(name="app", kind=JOB_SET, replicas=2))
    assert resolve(kube, "app-1") == pods[1].node_id


def test_resolve_unknown_hostname():
    graph, alloc = cluster_with_alloc(4)
    kube = start_usernetes(graph, alloc.alloc_id)
    with pytest.raises(UnknownHostnameError):
        resolve(kube, "ghost-0")


# names with "-" and digits, few enough that they repeat
NAMES = st.text(alphabet="a1-0", min_size=1, max_size=4)
# pod-set applies: (name, kind, replicas, requires_bypass_nic)
APPLIES = st.tuples(NAMES, st.sampled_from([JOB_SET, DEPLOYMENT, DAEMONSET]),
                    st.integers(1, 4), st.booleans())


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(APPLIES, max_size=20), probes=st.lists(NAMES, max_size=10))
def test_resolve_matches_a_reference_of_the_applied_placements(ops, probes):
    graph, alloc = cluster_with_alloc(4)  # three workers
    kube = start_usernetes(graph, alloc.alloc_id)
    live = {}      # pod-set name -> {hostname: node id}, from what apply returned
    for name, kind, replicas, nic in ops:
        spec = PodSpec(name=name, kind=kind, replicas=replicas, requires_bypass_nic=nic)
        before = {key: list(pods) for key, pods in kube.pods.items()}
        if name in live or (kind != DAEMONSET and replicas > 3):
            with pytest.raises(PodLayerError):
                apply(graph, kube, spec)
            assert kube.pods == before
        else:
            live[name] = {p.name: p.node_id for p in apply(graph, kube, spec)}
        reference = {host: node for hosts in live.values() for host, node in hosts.items()}
        for hostname, node_id in reference.items():
            assert resolve(kube, hostname) == node_id
        # zero-padded indexes, bare names and random probes
        padded = {"-0".join(h.rsplit("-", 1)) for h in reference}  # x-1 -> x-01
        absent = padded | set(probes) | set(live)
        for hostname in absent - set(reference):
            with pytest.raises(UnknownHostnameError):
                resolve(kube, hostname)
