"""Packing: maximum sparse families, witness partitions, decomposition,
tree packing, and the degree-soaking constructions."""

import time
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge import (
    EdgeSubset,
    FamilyNotMaximal,
    Hyperedge,
    Hypergraph,
    HypothesisViolated,
    InternalError,
    LimitExceeded,
    MultiGraph,
    NotPartitionConnected,
    SparseFamily,
    assignment_optimum,
    basis_size,
    constant,
    decompose_pc,
    fn_sum,
    half_degree_pc,
    hyper_bounded,
    is_pc,
    is_sparse,
    max_sparse,
    max_sparse_family,
    pack_trees_pc,
    spanning_host,
    vertex_bulk,
    vertex_weights,
    witness_partition,
)
from partition_forge.bits import bit_list
from conftest import (
    all_multigraphs,
    brute_min_pc,
    complete_graph,
    cycle_graph,
    is_spanning_tree,
    random_connected_multigraph,
    random_hypergraph,
    random_multigraph,
)

K4 = complete_graph(4)
C3 = cycle_graph(3)
L1 = constant(1)


def test_max_sparse_family_examples():
    fam = max_sparse_family(K4, [L1, L1])
    assert fam.size() == 6
    assert all(is_sparse(K4, p.members, L1) for p in fam.parts)
    fam = max_sparse_family(C3, [L1, L1])
    assert fam.size() == 3
    single = max_sparse_family(K4, [L1])
    assert single.parts[0].members == max_sparse(K4, L1).members


def test_family_methods_agree(rng):
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 7))
        fns = [L1] * rng.randint(1, 2)
        a = max_sparse_family(g, fns, method="oracle")
        b = max_sparse_family(g, fns, method="augment")
        assert a.size() == b.size()


def test_family_size_matches_assignment_oracle(rng):
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 7))
        fns = [rng.choice([L1, vertex_bulk(1, 0), constant(2)])
               for _ in range(rng.randint(1, 2))]
        best, _ = assignment_optimum(g, fns)
        fam = max_sparse_family(g, fns, method="augment")
        assert fam.size() == best


def test_witness_partition_examples():
    w = witness_partition(C3, max_sparse_family(C3, [L1]))
    assert w.blocks_as_lists() == [[0, 1, 2]]
    w = witness_partition(K4, max_sparse_family(K4, [L1, L1]))
    assert w.blocks_as_lists() == [[0], [1], [2], [3]]
    empty = MultiGraph(3, [])
    w = witness_partition(empty, max_sparse_family(empty, [L1]))
    assert w.blocks_as_lists() == [[0], [1], [2]]


def test_witness_partition_rejects_non_maximal():
    fam = SparseFamily(K4, [EdgeSubset(K4, [0]), EdgeSubset.empty(K4)], (L1, L1))
    with pytest.raises(FamilyNotMaximal):
        witness_partition(K4, fam)


def test_witness_partition_certificate_random(rng):
    # The two certificate properties are re-verified inside the call; the
    # size bound they imply is checked here against the oracle.
    for _ in range(15):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(0, 6))
        fns = [L1] * rng.randint(1, 2)
        fam = max_sparse_family(g, fns)
        witness_partition(g, fam)
        best, _ = assignment_optimum(g, fns)
        assert fam.size() == best


def test_decompose_examples():
    dec = decompose_pc(K4, [L1, L1])
    assert dec.covers_all
    assert len(dec.parts[0].members | dec.parts[1].members) == 6
    for p in dec.parts:
        assert is_spanning_tree(4, [K4.edges[i] for i in p.members])
    tree = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotPartitionConnected) as err:
        decompose_pc(tree, [L1, L1])
    assert err.value.partition is not None
    connected = MultiGraph(3, [(0, 1), (1, 2), (0, 1)])
    dec = decompose_pc(connected, [L1])
    assert dec.parts[0].members == frozenset(range(3))


def test_decompose_part_sizes_before_leftovers(rng):
    for _ in range(15):
        g = random_connected_multigraph(rng, rng.randint(2, 4), rng.randint(2, 6))
        fns = [L1, L1]
        if not is_pc(g, fn_sum(*fns)):
            continue
        fam = max_sparse_family(g, fns)
        for part, fn in zip(fam.parts, fns):
            assert len(part) == basis_size(g, fn)


def test_decompose_iff_oracle_exhaustive_small():
    # Existence of a two-part packing matches the sum-function
    # connectivity check, both ways, on all 4-vertex multigraphs with up
    # to six edges.
    fns = [L1, vertex_bulk(1, 0)]
    total = fn_sum(*fns)
    cap = sum(basis_size(MultiGraph(4, []), fn) for fn in fns)
    for g in all_multigraphs(4, 6):
        connected = is_pc(g, total)
        best, _ = assignment_optimum(g, fns)
        packable = best == cap
        assert connected == packable
        if connected:
            dec = decompose_pc(g, fns)
            assert dec.covers_all
            for part, fn in zip(dec.parts, fns):
                assert is_pc(spanning_host(g, part.members), fn)
        else:
            with pytest.raises(NotPartitionConnected):
                decompose_pc(g, fns)


def test_pack_trees_examples():
    dec = pack_trees_pc(K4, 2, 0)
    for p in dec.parts:
        assert is_spanning_tree(4, [K4.edges[i] for i in p.members])
    doubled = MultiGraph(4, list(K4.edges) * 2)
    dec = pack_trees_pc(doubled, 2, 1)
    assert len(dec.parts) == 3
    for p, fn in zip(dec.parts, [constant(1), constant(1), vertex_bulk(1, 0)]):
        assert is_pc(spanning_host(doubled, p.members), fn)
    dec = pack_trees_pc(C3, 0, 1)
    part = dec.parts[0]
    assert all(part.degree(v) >= 1 for v in range(3))
    with pytest.raises(NotPartitionConnected):
        pack_trees_pc(MultiGraph(2, [(0, 1)]), 0, 1)


def test_half_degree_examples():
    h = half_degree_pc(K4, L1, 0)
    degs = h.degrees()
    assert degs[0] <= floor(3 / 2) + 1 - 1
    assert all(degs[v] <= ceil(3 / 2) + 1 for v in range(4))
    assert is_pc(spanning_host(K4, h.members), L1)
    c4 = cycle_graph(4)
    h = half_degree_pc(c4, L1, 1)
    assert all(d <= 2 for d in h.degrees())
    with pytest.raises(HypothesisViolated):
        half_degree_pc(MultiGraph(3, [(0, 1), (1, 2), (2, 0)]), constant(2), 0)


def test_half_degree_rank3_hypergraph():
    # Three triples through every pair: 3-edge-connected at rank 3.
    hes = [Hyperedge([0, 1, 2]), Hyperedge([0, 1, 3]), Hyperedge([0, 2, 3]),
           Hyperedge([1, 2, 3])] * 2
    host = Hypergraph(4, hes)
    h = half_degree_pc(host, L1, 0)
    degs = h.degrees()
    for v in range(4):
        assert degs[v] <= ceil(2 * host.degree(v) / 3) + 1
    assert is_pc(spanning_host(host, h.members), L1)


def test_half_degree_bounds_random(rng):
    # Doubling a connected host makes it 2-edge-connected in the needed
    # sense; the halved bounds then hold vertexwise.
    done = 0
    while done < 30:
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 3))
        doubled = MultiGraph(g.n, list(g.edges) * 2)
        u = rng.randrange(g.n)
        h = half_degree_pc(doubled, L1, u)
        degs = h.degrees()
        for v in range(g.n):
            assert degs[v] <= ceil(doubled.degree(v) / 2) + 1
        assert degs[u] <= floor(doubled.degree(u) / 2) + 1 - 1
        done += 1


def test_hyper_bounded_trivial_and_violation():
    host = Hypergraph(3, [Hyperedge([0, 1, 2]), Hyperedge([0, 1, 2])])
    part = hyper_bounded(host, L1, [2, 2, 2])
    assert is_pc(spanning_host(host, part.members), L1)
    with pytest.raises(HypothesisViolated) as err:
        hyper_bounded(host, L1, [1, 1, 1])
    assert err.value.vertex_set is not None


def test_hyper_bounded_nontrivial_instance():
    # Degree 4 at the hub, bounded down to 2: the overshoot weights force
    # the complement part to absorb two hub edges.
    host = Hypergraph(
        3,
        [Hyperedge([0, 1]), Hyperedge([0, 1]), Hyperedge([0, 2]), Hyperedge([0, 2])],
    )
    part = hyper_bounded(host, L1, [2, 2, 2])
    degs = part.degrees()
    assert degs[0] <= 2 and degs[1] <= 2 and degs[2] <= 2
    assert is_pc(spanning_host(host, part.members), L1)


def test_hypergraph_packing_mirrors_graph_case(rng):
    from conftest import random_hypergraph

    for _ in range(10):
        h = random_hypergraph(rng, rng.randint(2, 4), rng.randint(1, 5), 3)
        fns = [L1, vertex_bulk(1, 0)]
        best, _ = assignment_optimum(h, fns)
        fam = max_sparse_family(h, fns, method="augment")
        assert fam.size() == best
        witness_partition(h, fam)


def test_oracle_family_prunes_branches_that_cannot_win():
    # K5 plus three parallel edges on two more vertices: two forests hold
    # 10 of the 13 edges, and the coverage cap of 12 is never reached.
    g = MultiGraph(7, list(complete_graph(5).edges) + [(5, 6)] * 3)
    start = time.perf_counter()
    fam = max_sparse_family(g, [L1, L1], method="oracle")
    assert time.perf_counter() - start < 1.0
    assert fam.size() == max_sparse_family(g, [L1, L1], method="augment").size() == 10
    assert all(is_sparse(g, p.members, L1) for p in fam.parts)


def test_oracle_refuses_past_its_state_budget(monkeypatch):
    # K6 plus the same three parallel edges: the full search visits about
    # 2.75 million states, so the oracle stops at its budget instead.
    import partition_forge.decompose as decompose

    g = MultiGraph(8, list(complete_graph(6).edges) + [(6, 7)] * 3)
    start = time.perf_counter()
    with pytest.raises(LimitExceeded, match="states 250001 exceeds limit "
                       "ASSIGNMENT_ORACLE_STATES = 250000"):
        max_sparse_family(g, [L1, L1], method="oracle")
    assert time.perf_counter() - start < 3.0
    # The K5 host of the test above needs 20229 states.
    k5 = MultiGraph(7, list(complete_graph(5).edges) + [(5, 6)] * 3)
    monkeypatch.setattr(decompose, "ASSIGNMENT_ORACLE_STATES", 20228)
    with pytest.raises(LimitExceeded, match="states 20229 exceeds"):
        assignment_optimum(k5, [L1, L1])
    monkeypatch.setattr(decompose, "ASSIGNMENT_ORACLE_STATES", 20229)
    assert assignment_optimum(k5, [L1, L1])[0] == 10


@pytest.mark.parametrize("n", [6, 7])
def test_decompose_complete_graphs_fast(n):
    g = complete_graph(n)
    for pack in (lambda: decompose_pc(g, [L1, L1]), lambda: pack_trees_pc(g, 2, 0)):
        start = time.perf_counter()
        dec = pack()
        assert time.perf_counter() - start < 1.0
        assert dec.parts[0].members | dec.parts[1].members == frozenset(range(g.edge_count))
        assert not dec.parts[0].members & dec.parts[1].members
        assert all(is_pc(spanning_host(g, p.members), L1) for p in dec.parts)


def test_decompose_k8_completes():
    dec = decompose_pc(complete_graph(8), [L1, L1])
    assert sum(len(p) for p in dec.parts) == 28


def test_witness_partition_on_a_host_with_a_long_closure():
    host = MultiGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
                          (1, 4), (6, 0), (2, 0), (3, 6), (3, 5), (3, 1), (0, 3)])
    fam = max_sparse_family(host, [L1, L1])
    assert fam.size() == 12
    assert witness_partition(host, fam).blocks_as_lists() == [[0, 1, 2, 3, 4, 5, 6]]


@st.composite
def packing_instances(draw):
    n = draw(st.integers(2, 5))
    rank = draw(st.sampled_from([2, 3])) if n >= 3 else 2
    edges = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=rank), max_size=6
    ))
    host = (
        Hypergraph(n, [Hyperedge(e) for e in edges]) if rank == 3
        else MultiGraph(n, [tuple(e) for e in edges])
    )
    fns = draw(st.lists(
        st.sampled_from([L1, constant(2), vertex_bulk(1, 0)]), min_size=1, max_size=2
    ))
    return host, fns


@settings(max_examples=60, deadline=None)
@given(packing_instances())
def test_augment_matches_oracle_and_witness_verifies(instance):
    host, fns = instance
    best, _ = assignment_optimum(host, fns)
    fam = max_sparse_family(host, fns, method="augment")
    assert fam.size() == best
    assert all(is_sparse(host, p.members, l) for p, l in zip(fam.parts, fns))
    witness_partition(host, fam)


def test_every_circuit_the_search_reads_is_the_smallest_pc_set(rng, monkeypatch):
    import partition_forge.decompose as decompose
    import partition_forge.sparse as sparse

    reads = []

    def recorded(edges, l, targets, **kwargs):
        result = sparse.min_pc_subgraph(edges, l, targets, **kwargs)
        reads.append((edges, l, targets, result))
        return result

    monkeypatch.setattr(decompose, "min_pc_subgraph", recorded)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        if rng.random() < 0.5:
            host = random_hypergraph(rng, n, rng.randint(n, 10), 3)
        else:
            host = random_multigraph(rng, n, rng.randint(n, 12))
        fns = [rng.choice([L1, constant(2), vertex_bulk(1, 0),
                           vertex_weights([rng.randint(0, 2) for _ in range(n)])])
               for _ in range(rng.randint(1, 3))]
        reads.clear()
        family = max_sparse_family(host, fns, method="augment")
        witness_partition(host, family)
        for edges, l, targets, result in reads:
            expected = brute_min_pc(host, edges.members, l, bit_list(targets))
            assert expected == [result.vertex_list()] and result.unique
        checked += len(reads)
    assert checked > 50


def test_auto_family_is_the_oracle_family(rng):
    # The first instance is one where augmenting paths alone end at a
    # different maximum family.
    cases = [(MultiGraph(3, [(1, 2), (1, 2), (0, 2), (0, 2), (0, 2), (0, 1), (0, 2),
                             (0, 2)]), [vertex_bulk(1, 0), constant(2)])]
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 8))
        cases.append((g, [rng.choice([L1, vertex_bulk(1, 0), constant(2)])
                          for _ in range(rng.randint(1, 2))]))
    for g, fns in cases:
        best, _ = assignment_optimum(g, fns)
        _, oracle = assignment_optimum(g, fns, cap=best)
        assert max_sparse_family(g, fns).parts == oracle.parts


def test_failed_recheck_raises_internal_error(monkeypatch):
    import partition_forge.decompose as decompose

    monkeypatch.setattr(decompose, "_spans_pc", lambda host, members, l: False)
    with pytest.raises(InternalError):
        decompose_pc(K4, [L1, L1])


def test_witness_partition_reads_the_demand_on_the_host_labels():
    # Block {0, 2} is tight for the vertex_weights part: its demand is read
    # on vertices 0 and 2, not on the relabelled 0 and 1.
    host = MultiGraph(3, [(0, 1), (0, 2), (0, 1), (0, 2), (0, 2), (0, 2)])
    fns = [constant(1), vertex_weights([2, 1, 0])]
    best, _ = assignment_optimum(host, fns)
    fam = max_sparse_family(host, fns)
    assert fam.size() == best == 5
    witness = witness_partition(host, fam)
    assert witness.blocks_as_lists() == [[0, 2], [1]]
