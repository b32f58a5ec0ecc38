"""Distance classification (Fig. 1a's domain taxonomy, Table II's labels)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ClusterParams, build_cluster_topology
from repro.node import Node
from repro.topology import Distance, classify_distance, get_system
from repro.topology.distance import message_distance_label

from conftest import small_topo


def test_all_classes_on_mini_topo():
    topo = small_topo()  # LLC pairs: (0,1), (2,3)...
    assert classify_distance(topo, 3, 3) is Distance.SELF
    assert classify_distance(topo, 0, 1) is Distance.CACHE_LOCAL
    assert classify_distance(topo, 0, 2) is Distance.INTRA_NUMA
    assert classify_distance(topo, 0, 4) is Distance.CROSS_NUMA
    assert classify_distance(topo, 0, 8) is Distance.CROSS_SOCKET


def test_symmetry():
    topo = small_topo()
    for a in range(topo.n_cores):
        for b in range(topo.n_cores):
            assert classify_distance(topo, a, b) == classify_distance(topo, b, a)


def test_arm_has_no_cache_local_pairs():
    topo = get_system("arm-n1")
    classes = {classify_distance(topo, 0, b) for b in range(1, 40)}
    assert Distance.CACHE_LOCAL not in classes
    assert Distance.INTRA_NUMA in classes


def test_message_distance_labels_fold_as_in_table2():
    topo = small_topo()
    assert message_distance_label(topo, 0, 1) == "intra-numa"
    assert message_distance_label(topo, 0, 2) == "intra-numa"
    assert message_distance_label(topo, 0, 4) == "inter-numa"
    assert message_distance_label(topo, 0, 8) == "inter-socket"


@settings(max_examples=50, deadline=None)
@given(a=st.integers(0, 31), b=st.integers(0, 31))
def test_epyc1p_never_cross_socket(a, b):
    topo = get_system("epyc-1p")
    assert classify_distance(topo, a, b) is not Distance.CROSS_SOCKET


def test_distance_ordering_is_meaningful():
    assert Distance.SELF < Distance.CACHE_LOCAL < Distance.INTRA_NUMA \
        < Distance.CROSS_NUMA < Distance.CROSS_SOCKET


ROW_TOPOLOGIES = {
    "mini": small_topo,
    "epyc-1p": lambda: get_system("epyc-1p"),
    "epyc-2p": lambda: get_system("epyc-2p"),
    "arm-n1": lambda: get_system("arm-n1"),
    "cluster": lambda: build_cluster_topology(ClusterParams(n_nodes=3)),
}


@pytest.mark.parametrize("name", sorted(ROW_TOPOLOGIES))
def test_distance_rows_match_classify_distance(name):
    """Node.distance reads per-core rows built on first use and shared on
    the topology; every entry equals classify_distance for its pair."""
    topo = ROW_TOPOLOGIES[name]()
    node = Node(topo)
    cores = range(topo.n_cores)
    for a in cores:
        assert [node.distance(a, b) for b in cores] == \
            [classify_distance(topo, a, b) for b in cores]
    assert Node(topo)._dist_rows is node._dist_rows
