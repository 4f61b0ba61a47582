"""Sparse subgraphs, bases, exchange properties, and the edge-count
identities they satisfy."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge import (
    Disconnected,
    EdgeSubset,
    Hyperedge,
    Hypergraph,
    MultiGraph,
    NotPartitionConnected,
    NotSparse,
    basis_size,
    constant,
    e_star,
    enumerate_bases,
    induced_edge_count,
    is_pc,
    is_sparse,
    max_sparse,
    min_pc_subgraph,
    restricted_removal,
    spanning_host,
    theta,
    theta_oracle,
    theta_without,
    vertex_bulk,
    vertex_weights,
)
from conftest import (
    complete_graph,
    cycle_graph,
    is_spanning_tree,
    path_graph,
    random_connected_multigraph,
    random_multigraph,
)

K4 = complete_graph(4)
C3 = cycle_graph(3)


def test_is_sparse_examples():
    assert not is_sparse(C3, range(3), constant(1))
    assert is_sparse(path_graph(3), range(2), constant(1))
    assert is_sparse(K4, range(6), constant(2))


def test_sparse_equals_forest_for_ones(rng):
    from conftest import is_forest

    for _ in range(40):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        members = [i for i in range(g.edge_count) if rng.random() < 0.5]
        pairs = [g.edges[i] for i in members]
        assert is_sparse(g, members, constant(1)) == is_forest(g.n, pairs)


def test_max_sparse_examples():
    t = max_sparse(K4, constant(1))
    assert len(t) == 3 and is_spanning_tree(4, [K4.edges[i] for i in t])
    assert max_sparse(K4, constant(2)).indices() == (0, 1, 2, 3, 4, 5)
    two = MultiGraph(4, [(0, 1), (2, 3)])
    assert max_sparse(two, constant(1)).indices() == (0, 1)


def test_max_sparse_is_maximum(rng):
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 8))
        for fn in (constant(1), constant(2), vertex_bulk(2, 1)):
            got = len(max_sparse(g, fn))
            best = 0
            for k in range(g.edge_count, -1, -1):
                if k <= best:
                    break
                for combo in combinations(range(g.edge_count), k):
                    if is_sparse(g, combo, fn):
                        best = k
                        break
            assert got == best


def test_enumerate_bases_examples():
    assert [b.indices() for b in enumerate_bases(C3, constant(1))] == [
        (0, 1),
        (0, 2),
        (1, 2),
    ]
    k4_bases = list(enumerate_bases(K4, constant(1)))
    assert len(k4_bases) == 16
    path = path_graph(3)
    assert [b.indices() for b in enumerate_bases(path, constant(1))] == [(0, 1)]


def test_bases_count_matches_brute_force_tree_count():
    # Independent: spanning trees of K4 counted by direct subset check.
    count = sum(
        1
        for combo in combinations(range(6), 3)
        if is_spanning_tree(4, [K4.edges[i] for i in combo])
    )
    assert count == 16


def test_enumerate_bases_requires_connectivity():
    with pytest.raises(NotPartitionConnected) as err:
        list(enumerate_bases(MultiGraph(3, [(0, 1)]), constant(1)))
    assert err.value.partition is not None


def test_every_basis_is_sparse_connected_right_size(rng):
    for _ in range(20):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
        fn = constant(1)
        size = basis_size(g, fn)
        for b in enumerate_bases(g, fn):
            assert len(b.edges) == size
            assert is_sparse(g, b.edges, fn)
            assert is_pc(spanning_host(g, b.edges.members), fn)


def test_min_pc_subgraph_examples():
    path = path_graph(3)
    res = min_pc_subgraph(EdgeSubset(path, [0, 1]), constant(1), [0, 2])
    assert res.vertex_list() == [0, 1, 2]
    g = MultiGraph(3, [(0, 1)])
    res = min_pc_subgraph(EdgeSubset(g, [0]), constant(1), [0, 1])
    assert res.vertex_list() == [0, 1]
    two = MultiGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(Disconnected):
        min_pc_subgraph(EdgeSubset(two, [0, 1]), constant(1), [0, 2])


def test_min_pc_subgraph_uniqueness_flag():
    # Two parallel routes of equal size: the minimizer is not unique.
    g = MultiGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    sub = EdgeSubset(g, [0, 1, 2])  # tree: 0-1-3, 0-2
    res = min_pc_subgraph(sub, constant(1), [0, 3])
    assert res.vertex_list() == [0, 1, 3] and res.unique
    g2 = MultiGraph(3, [(0, 1), (1, 2)])
    res2 = min_pc_subgraph(EdgeSubset(g2, [0, 1]), constant(1), [1])
    assert res2.vertex_list() == [1] and res2.unique


def test_min_pc_subgraph_matches_superset_scan(rng):
    # The intersection of tight sets equals the unique smallest vertex set
    # on which the sparse edges are partition-connected.
    from conftest import brute_min_pc, random_hypergraph

    for _ in range(60):
        n = rng.randint(2, 5)
        if rng.random() < 0.3 and n >= 3:
            g = random_hypergraph(rng, n, rng.randint(1, 7), 3)
        else:
            g = random_multigraph(rng, n, rng.randint(0, 9))
        fn = rng.choice([
            constant(1),
            constant(2),
            vertex_bulk(1, 0),
            vertex_weights([rng.randint(0, 2) for _ in range(n)]),
        ])
        sparse = max_sparse(g, fn)
        members = [i for i in sparse.members if rng.random() < 0.8]
        targets = rng.sample(range(n), rng.randint(1, min(n, 3)))
        expected = brute_min_pc(g, members, fn, targets)
        if not expected:
            with pytest.raises(Disconnected):
                min_pc_subgraph(EdgeSubset(g, members), fn, targets)
            continue
        res = min_pc_subgraph(EdgeSubset(g, members), fn, targets)
        assert expected == [res.vertex_list()] and res.unique


def test_min_pc_subgraph_rejects_non_sparse():
    with pytest.raises(NotSparse) as err:
        min_pc_subgraph(EdgeSubset(C3, range(3)), constant(1), [0])
    assert err.value.vertex_set == 0b111


def test_e_star_examples():
    assert e_star(C3, constant(1), [0, 1]) == 1
    assert e_star(C3, constant(1), []) == 0
    assert e_star(K4, constant(2), [0, 1, 2, 3]) == 6


def test_exchange_preserves_sparseness(rng):
    # Adding a non-member edge that breaks sparseness, then removing any
    # edge of the minimal connected piece spanning it, restores it.
    fn = constant(1)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(2, 8))
        tree = max_sparse(g, fn)
        for e in range(g.edge_count):
            if e in tree.members:
                continue
            if is_sparse(g, tree.members | {e}, fn):
                continue
            res = min_pc_subgraph(tree, fn, g.edge_masks[e])
            inside = [
                f
                for f in tree.members
                if g.edge_masks[f] & ~res.vertices == 0
            ]
            assert inside
            for f in inside:
                swapped = (tree.members - {f}) | {e}
                assert is_sparse(g, swapped, fn)


def test_replacement_preserves_connectivity(rng):
    # For a basis H, a removal set M, and an outside edge joining two
    # components of H minus M, some swap keeps a basis.
    from partition_forge import pc_components

    fn = constant(1)
    for _ in range(25):
        g = random_connected_multigraph(rng, rng.randint(3, 5), rng.randint(1, 5))
        basis = next(iter(enumerate_bases(g, fn)))
        members = list(basis.edges.members)
        m_size = rng.randint(1, len(members))
        m_set = set(rng.sample(members, m_size))
        rest = spanning_host(g, set(members) - m_set)
        comp = pc_components(rest, fn)
        block_of = {}
        for j, b in enumerate(comp.partition.blocks):
            block_of.update({v: j for v in range(g.n) if (b >> v) & 1})
        for e in range(g.edge_count):
            if e in basis.edges.members:
                continue
            u, v = g.edges[e]
            if block_of[u] == block_of[v]:
                continue
            assert any(
                is_pc(
                    spanning_host(g, (set(members) - {f}) | {e}), fn
                )
                for f in m_set
            )


def test_minimally_connected_removal_identity(rng):
    # For every basis H and every S: theta after deleting S equals
    # sum_{v in S}(d_H(v) - l(v)) + l(V) - e_H(S).
    for fn in (constant(1), constant(2)):
        found = 0
        attempts = 0
        while found < 12 and attempts < 300:
            attempts += 1
            g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 10))
            if not is_pc(g, fn):
                continue
            found += 1
            lv = fn.value(g.full_mask)
            for basis in list(enumerate_bases(g, fn))[:6]:
                sub = spanning_host(g, basis.edges.members)
                degs = sub.degrees()
                for s in range(1 << g.n):
                    lhs = theta_without(sub, fn, s)
                    rhs = (
                        sum(
                            degs[v] - fn.value(1 << v)
                            for v in range(g.n)
                            if (s >> v) & 1
                        )
                        + lv
                        - induced_edge_count(sub, s)
                    )
                    assert lhs == rhs
        assert found >= 12


def _theta_restricted_members(host, fn, s_mask, keep_members):
    kept = restricted_removal(host, s_mask, keep_members)
    return theta_oracle(kept, fn)


def test_forced_subgraph_degree_identity(rng):
    # For a sparse host H with a spanning subgraph F and complement FF:
    # sum_{v in S} d_FF(v) = theta(H minus [S,F]) - theta(H) + e_FF(S).
    fn = constant(1)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 6))
        tree = max_sparse(g, fn)
        host = spanning_host(g, tree.members)
        for _ in range(4):
            keep = [i for i in range(host.edge_count) if rng.random() < 0.5]
            ff = EdgeSubset(host, set(range(host.edge_count)) - set(keep))
            ffd = ff.degrees()
            ffh = spanning_host(host, ff.members)
            base_theta = theta(host, fn)
            for s in range(1 << host.n):
                lhs = sum(ffd[v] for v in range(host.n) if (s >> v) & 1)
                rhs = (
                    _theta_restricted_members(host, fn, s, keep)
                    - base_theta
                    + induced_edge_count(ffh, s)
                )
                assert lhs == rhs


def test_removal_bounds_with_forced_subgraph(rng):
    # Nonincreasing nonnegative demands: removing the non-forced edges at
    # S cannot raise theta beyond the slack and inside-edge terms.
    from fractions import Fraction

    from partition_forge import tough_component_condition

    fn = constant(1)
    checked_first = checked_second = 0
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 7))
        keep = [i for i in range(g.edge_count) if rng.random() < 0.5]
        fsub = EdgeSubset(g, keep)
        fd = fsub.degrees()
        fh = spanning_host(g, fsub.members)
        for s in range(1 << g.n):
            lhs = _theta_restricted_members(g, fn, s, keep)
            base = theta_without(g, fn, s)
            slack = sum(
                max(0, fn.value(1 << v) - fd[v])
                for v in range(g.n)
                if (s >> v) & 1
            )
            assert lhs <= base + slack + induced_edge_count(fh, s)
            checked_first += 1
        c = 2
        if tough_component_condition(g, fsub, fn, c) is None:
            for s in range(1 << g.n):
                lhs = _theta_restricted_members(g, fn, s, keep)
                base = theta_without(g, fn, s)
                assert lhs <= base + Fraction(induced_edge_count(fh, s), c - 1)
                checked_second += 1
    assert checked_first > 200 and checked_second > 50


@st.composite
def greedy_instances(draw):
    """A multigraph or rank-3 hypergraph on at most 5 vertices and a demand."""
    n = draw(st.integers(1, 5))
    rank = draw(st.sampled_from([2, 3])) if n >= 3 else 2
    edges = [] if n < 2 else draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=rank), max_size=10
    ))
    host = (
        Hypergraph(n, [Hyperedge(e) for e in edges]) if rank == 3
        else MultiGraph(n, [tuple(e) for e in edges])
    )
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    l = draw(st.sampled_from(
        [constant(1), constant(2), vertex_bulk(1, 0), vertex_bulk(2, 1),
         vertex_weights(weights)]
    ))
    return host, l


@settings(max_examples=120, deadline=None)
@given(greedy_instances())
def test_max_sparse_is_the_index_order_greedy(instance):
    host, l = instance
    n = host.n
    slack = [sum(l.value(1 << v) for v in range(n) if a >> v & 1) - l.value(a)
             for a in range(1 << n)]

    def sparse(masks):
        return all(sum(1 for em in masks if em & ~a == 0) <= slack[a]
                   for a in range(1 << n))

    chosen = []
    for i, em in enumerate(host.edge_masks):
        if sparse([host.edge_masks[j] for j in chosen] + [em]):
            chosen.append(i)
    assert sorted(max_sparse(host, l).members) == chosen
