"""Counting primitives and substrate types."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from partition_forge import (
    EdgeSubset,
    Hyperedge,
    Hypergraph,
    LimitExceeded,
    MalformedPartition,
    MultiGraph,
    Orientation,
    Partition,
    ValidationError,
    boundary_count,
    contract,
    cross_edges,
    enumerate_partitions,
    induced_edge_count,
    restricted_removal,
    sigma,
)
from partition_forge._kernels import as_mask_array, count_inside
from conftest import (
    complete_graph,
    cycle_graph,
    iter_set_partitions,
    path_graph,
    random_hypergraph,
    random_multigraph,
)

K4 = complete_graph(4)
C3 = cycle_graph(3)


def test_no_loops_allowed():
    with pytest.raises(ValidationError):
        MultiGraph(2, [(0, 0)])
    with pytest.raises(ValidationError):
        MultiGraph(2, [(0, 2)])


def test_hyperedge_needs_two_vertices():
    with pytest.raises(ValidationError):
        Hyperedge([1])
    with pytest.raises(ValidationError):
        Hyperedge([0, 1], head=2)


def test_cross_edges_examples():
    assert cross_edges(K4, Partition.singletons(0b1111)) == 6
    assert cross_edges(K4, Partition.from_sets([[0, 1], [2, 3]])) == 4
    assert cross_edges(K4, Partition.from_sets([[0, 1, 2, 3]])) == 0
    with pytest.raises(MalformedPartition):
        cross_edges(K4, Partition.from_sets([[0, 1]]))


def test_induced_edge_count_examples():
    assert induced_edge_count(K4, [0, 1, 2]) == 3
    assert induced_edge_count(K4, []) == 0
    doubled = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
    assert induced_edge_count(doubled, [0, 1]) == 2


def test_boundary_count_examples():
    assert boundary_count(K4, [0]) == 3
    assert boundary_count(C3, [0, 1]) == 2
    assert boundary_count(K4, [0, 1, 2, 3]) == 0


def test_restricted_removal_examples():
    path = path_graph(3)
    assert restricted_removal(path, [1], []).edge_count == 0
    assert restricted_removal(path, [1], []).n == 3
    kept = restricted_removal(path, [1], [0])
    assert kept.edges == ((0, 1),)
    assert restricted_removal(path, [], None) == path


def test_contract_examples():
    c = contract(C3, [0, 1])
    assert c.n == 2 and c.edge_count == 2
    assert [frozenset(e) for e in c.edges] == [frozenset((0, 1))] * 2
    k = contract(K4, [0, 1, 2])
    assert k.n == 2 and k.edge_count == 3
    single = contract(K4, [2])
    assert single.n == 4 and single.edge_count == 6


def test_contract_hypergraph():
    h = Hypergraph(4, [Hyperedge([0, 1, 2], head=2), Hyperedge([2, 3])])
    c = contract(h, [0, 1])
    # {0,1,2} becomes {u,2} (head 2 kept); {2,3} survives with shifted ids.
    assert c.n == 3
    assert [he.vertices for he in c.hyperedges] == [(0, 1), (1, 2)]
    assert c.hyperedges[0].head == 1
    shrunk = contract(Hypergraph(3, [Hyperedge([0, 1])]), [0, 1])
    assert shrunk.edge_count == 0


def test_sigma_examples():
    assert sigma(C3, [0, 1]) == 1
    h = Hypergraph(3, [Hyperedge([0, 1, 2])])
    assert sigma(h, [0, 1]) == 1
    assert sigma(h, []) == 0


def test_sigma_matches_induced_count_on_graphs(rng):
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(1, 8), rng.randint(0, 10))
        for s in range(1 << g.n):
            assert sigma(g, s) == induced_edge_count(g, s)


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


@pytest.mark.parametrize("n", range(0, 9))
def test_partition_counts_match_bell(n):
    assert sum(1 for _ in enumerate_partitions(range(n))) == BELL[n]


def test_partition_enumeration_is_exact():
    seen = {tuple(sorted(tuple(sorted(b)) for b in p.blocks_as_lists()))
            for p in enumerate_partitions(range(4))}
    expected = {tuple(sorted(tuple(sorted(b)) for b in part))
                for part in iter_set_partitions(range(4))}
    assert seen == expected


def test_partition_limit():
    with pytest.raises(LimitExceeded):
        list(enumerate_partitions(range(13)))


def test_counting_identity_over_all_partitions(rng):
    for _ in range(10):
        g = random_multigraph(rng, rng.randint(1, 6), rng.randint(0, 8))
        for p in enumerate_partitions(range(g.n)):
            inside = sum(induced_edge_count(g, b) for b in p.blocks)
            assert cross_edges(g, p) + inside == g.edge_count


def test_counting_identity_hypergraph():
    h = Hypergraph(4, [Hyperedge([0, 1, 2]), Hyperedge([1, 2, 3]), Hyperedge([0, 3])])
    for p in enumerate_partitions(range(4)):
        inside = sum(induced_edge_count(h, b) for b in p.blocks)
        assert cross_edges(h, p) + inside == h.edge_count


@given(st.integers(0, 63))
def test_boundary_symmetry(mask):
    g = complete_graph(6)
    assert boundary_count(g, mask) == boundary_count(g, g.full_mask & ~mask)


def test_edge_subset_and_orientation_validation():
    with pytest.raises(ValidationError):
        EdgeSubset(C3, [3])
    sub = EdgeSubset(C3, [0, 2])
    assert sub.degrees() == (2, 1, 1)
    assert sub.complement().indices() == (1,)
    with pytest.raises(ValidationError):
        Orientation(C3, [2, 0, 1])  # 2 is not an endpoint of edge (0,1)
    o = Orientation(C3, [1, 2, 2])
    assert o.in_degree(2) == 2 and o.out_degree(0) == 2
    assert o.arcs()[0] == (0, 1)


def test_partition_validation():
    with pytest.raises(MalformedPartition):
        Partition((0b11, 0b10), 0b11)
    with pytest.raises(MalformedPartition):
        Partition((0b01,), 0b11)
    with pytest.raises(MalformedPartition):
        Partition((0b01, 0), 0b01)


def test_hypergraph_rank_and_conversion():
    h = Hypergraph(4, [Hyperedge([0, 1]), Hyperedge([2, 3])])
    assert h.rank == 2
    assert h.to_multigraph().edges == ((0, 1), (2, 3))
    big = Hypergraph(4, [Hyperedge([0, 1, 2])])
    assert big.rank == 3
    with pytest.raises(ValidationError):
        big.to_multigraph()


def test_inside_counts_is_count_inside_of_the_members(rng):
    for _ in range(40):
        n = rng.randint(2, 6)
        host = (random_hypergraph(rng, n, rng.randint(0, 9), 3) if rng.random() < 0.5
                else random_multigraph(rng, n, rng.randint(0, 9)))
        part = EdgeSubset(host, [i for i in range(host.edge_count) if rng.random() < 0.6])
        counts = part.inside_counts()
        assert np.array_equal(counts, count_inside(n, as_mask_array(part.masks())))
        assert counts.tolist() == [
            induced_edge_count(part.as_host(), a) for a in range(1 << n)
        ]
        assert part.inside_counts() is counts
        with pytest.raises(ValueError):
            counts[-1] = 0
