"""Orientations, minimal arc-connected subdigraphs, and trimming."""

import random
import time
from math import ceil, floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from partition_forge import (
    ConditionViolated,
    DegreeTarget,
    Hyperedge,
    Hypergraph,
    InternalError,
    MultiGraph,
    NotArcConnected,
    NotPartitionConnected,
    NotSparse,
    Orientation,
    ValidationError,
    arc_connectivity_violation,
    constant,
    extract_bounded_via_orientation,
    is_pc,
    is_sparse,
    min_arc_subdigraph,
    orient_arc_connected,
    orient_decompose,
    spanning_host,
    table,
    trim_arc,
    trim_pc,
    trim_sparse,
    vertex_bulk,
    vertex_weights,
)
from conftest import (
    all_multigraphs,
    brute_is_pc,
    complete_graph,
    cycle_graph,
    random_connected_multigraph,
    random_hypergraph,
    random_multigraph,
)

SINGLETON_1 = vertex_bulk(1, 0)


def test_orient_examples():
    tri = cycle_graph(3)
    o = orient_arc_connected(tri, SINGLETON_1)
    assert o is not None and all(o.in_degree(v) == 1 for v in range(3))
    single = MultiGraph(2, [(0, 1)])
    assert orient_arc_connected(single, SINGLETON_1) is None
    any_o = orient_arc_connected(single, constant(0))
    assert any_o is not None


def test_orientation_existence_matches_connectivity_exhaustive():
    # Over all multigraphs with up to four vertices and six edges, an
    # orientation with the demanded in-degrees exists exactly when the
    # host is partition-connected for the same demands (checked inside
    # orient_arc_connected as well).
    for m in (0, 1, 2):
        fn = vertex_bulk(m, 0)
        for n in (2, 3, 4):
            for g in all_multigraphs(n, 6):
                o = orient_arc_connected(g, fn)
                assert (o is not None) == is_pc(g, fn)


def test_infeasible_orientation_search_returns_quickly():
    # 19 random edges on vertices 0-3 and one edge (4, 5): one of 4 and 5
    # has in-degree 0 in every one of the 2**20 orientations.
    rng = random.Random(0)
    g = MultiGraph(6, [tuple(rng.sample(range(4), 2)) for _ in range(19)] + [(4, 5)])
    start = time.perf_counter()
    assert orient_arc_connected(g, SINGLETON_1) is None
    assert time.perf_counter() - start < 2.0


def test_orientation_satisfies_demands(rng):
    for _ in range(20):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(2, 6))
        o = orient_arc_connected(g, SINGLETON_1)
        if o is None:
            continue
        assert arc_connectivity_violation(o, SINGLETON_1) is None


def test_min_arc_subdigraph_examples():
    tri = cycle_graph(3)
    o = Orientation(tri, [1, 2, 0])  # directed cycle 0->1->2->0
    kept = min_arc_subdigraph(o, SINGLETON_1)
    assert kept.indices() == (0, 1, 2)
    doubled = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)])
    od = Orientation(doubled, [1, 1, 2, 2, 0, 0])
    kept = min_arc_subdigraph(od, SINGLETON_1)
    assert len(kept) == 3
    for v in range(3):
        assert sum(1 for i in kept if od.head_of[i] == v) == 1
    kept = min_arc_subdigraph(od, constant(0))
    assert len(kept) == 0


def test_min_arc_requires_connectivity():
    tri = cycle_graph(3)
    o = Orientation(tri, [1, 2, 2])  # vertex 0 has in-degree 0
    with pytest.raises(NotArcConnected):
        min_arc_subdigraph(o, SINGLETON_1)


def test_orient_decompose_doubled_cycle():
    c4d = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
    orientation, parts = orient_decompose(c4d, [SINGLETON_1], 0)
    degs = c4d.degrees()
    for v in range(4):
        assert orientation.out_degree(v) <= ceil(degs[v] / 2)
    assert orientation.out_degree(0) <= floor(degs[0] / 2)
    assert len(parts) == 1
    assert arc_connectivity_violation(orientation, SINGLETON_1, parts[0].members) is None


def test_orient_decompose_rooted():
    c4d = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)] * 2)
    fn = constant(1)  # l(V) = 1, so roots must sum to 1
    orientation, parts = orient_decompose(c4d, [fn], 0, roots=[(1, 0, 0, 0)])
    # Rooted demand: every set missing the root needs an incoming arc.
    part = parts[0]
    for a in range(1, 1 << 4):
        if a & 1:
            continue
        indeg = sum(
            1
            for i in part.members
            if (a >> orientation.head_of[i]) & 1
            and c4d.edge_masks[i] & ~a & c4d.full_mask
        )
        assert indeg >= 1


def test_orient_decompose_no_functions():
    c4 = cycle_graph(4)
    orientation, parts = orient_decompose(c4, [], 0)
    assert parts == []
    for v in range(4):
        assert orientation.out_degree(v) <= 1


def test_orient_decompose_precondition():
    path = MultiGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ConditionViolated):
        orient_decompose(path, [SINGLETON_1], 0)


def test_orient_decompose_refuses_demand_on_the_full_set_without_roots():
    # K4 with every edge doubled is 6-edge-connected, so only l(V) = 1
    # stands in the way; it is refused before any packing.
    k4d = MultiGraph(4, complete_graph(4).edges * 2)
    with pytest.raises(ValidationError, match="l must vanish on the full vertex set"):
        orient_decompose(k4d, [constant(1)], 0)
    orientation, parts = orient_decompose(k4d, [constant(1)], 0, roots=[(1, 0, 0, 0)])
    assert len(parts) == 1


def test_orientation_route_matches_direct_route(rng):
    # Both extraction routes must deliver connected spanning subgraphs
    # within the degree bounds whenever the stronger inside-edges
    # hypothesis holds.
    from fractions import Fraction

    from partition_forge import extract_bounded, induced_edge_count, theta_without

    fn = constant(1)
    done = 0
    while done < 12:
        g = random_connected_multigraph(rng, rng.randint(3, 5), rng.randint(1, 4))
        degs = g.degrees()
        h = [rng.randint(max(1, d - 1), d + 1) for d in degs]
        ok = True
        for s in range(1 << g.n):
            lhs = theta_without(g, fn, s)
            rhs = (
                sum(h[v] - 1 for v in range(g.n) if (s >> v) & 1)
                + 1
                - induced_edge_count(g, s)
            )
            if lhs > rhs:
                ok = False
                break
        if not ok:
            continue
        done += 1
        via_orient = extract_bounded_via_orientation(g, fn, DegreeTarget(h))
        d1 = via_orient.degrees()
        assert all(d1[v] <= h[v] for v in range(g.n))
        assert is_pc(spanning_host(g, via_orient.members), fn)
        eta = [Fraction(h[v] + 1) for v in range(g.n)]
        basis = extract_bounded(g, fn, range(g.n), eta, 1)
        d2 = basis.edges.degrees()
        assert all(d2[v] <= h[v] for v in range(g.n))
        assert is_pc(spanning_host(g, basis.edges.members), fn)


def test_orientation_route_rejects_unreachable_bounds():
    k4 = complete_graph(4)
    with pytest.raises(ConditionViolated):
        extract_bounded_via_orientation(k4, constant(1), DegreeTarget.uniform(2, 4))


def test_orientation_route_reads_a_wider_function_on_the_host():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
    wide = table(4, {m: 1 for m in range(1, 16)}, flags=(
        "nonincreasing", "intersecting-supermodular", "nonnegative"))
    result = extract_bounded_via_orientation(g, wide, 3)
    assert result.members == extract_bounded_via_orientation(g, constant(1), 3).members


def test_trim_pc_examples():
    fn = constant(1)
    h = Hypergraph(3, [Hyperedge([0, 1, 2]), Hyperedge([0, 1, 2])])
    t = trim_pc(h, fn)
    assert t.rank == 2 and t.edge_count == 2
    assert is_pc(t, fn)
    for he, src in zip(t.hyperedges, h.hyperedges):
        assert set(he.vertices) <= set(src.vertices)
    graphlike = Hypergraph(3, [Hyperedge([0, 1]), Hyperedge([1, 2])])
    assert trim_pc(graphlike, fn) == graphlike
    k4h = Hypergraph(4, [Hyperedge(e) for e in complete_graph(4).edges])
    assert trim_pc(k4h, fn) == k4h


def test_trim_pc_requires_connectivity():
    h = Hypergraph(4, [Hyperedge([0, 1, 2])])
    with pytest.raises(NotPartitionConnected):
        trim_pc(h, constant(1))


def test_trim_pc_preserves_heads():
    h = Hypergraph(4, [Hyperedge([0, 1, 2, 3], head=2), Hyperedge([0, 1, 2], head=1),
                       Hyperedge([2, 3], head=3)])
    t = trim_pc(h, constant(1))
    assert [he.head for he in t.hyperedges] == [2, 1, 3]
    for he in t.hyperedges:
        assert he.head in he.vertices and len(he.vertices) == 2


def test_trim_sparse_examples():
    fn = constant(1)
    single = Hypergraph(3, [Hyperedge([0, 1, 2], head=0)])
    t = trim_sparse(single, fn)
    assert t.edge_count == 1 and 0 in t.hyperedges[0].vertices
    graphlike = Hypergraph(3, [Hyperedge([0, 1], head=0)])
    assert trim_sparse(graphlike, fn) == graphlike
    two = Hypergraph(4, [Hyperedge([0, 1, 2], head=0), Hyperedge([0, 1, 3], head=3)])
    t = trim_sparse(two, fn)
    assert t.rank == 2 and is_sparse(t, range(2), fn)
    assert t.hyperedges[0].head == 0 and t.hyperedges[1].head == 3
    with pytest.raises(NotSparse):
        trim_sparse(Hypergraph(2, [Hyperedge([0, 1]), Hyperedge([0, 1])]), fn)


def test_trim_arc_examples():
    ell = SINGLETON_1
    cyclish = Hypergraph(
        3,
        [Hyperedge([0, 1, 2], head=1), Hyperedge([0, 1, 2], head=2),
         Hyperedge([0, 1, 2], head=0)],
    )
    t = trim_arc(cyclish, ell)
    assert t.rank == 2
    assert arc_connectivity_violation(t, ell) is None
    digraph = Hypergraph(3, [Hyperedge([0, 1], head=1), Hyperedge([1, 2], head=2),
                             Hyperedge([0, 2], head=0)])
    assert trim_arc(digraph, ell) == digraph
    zero = trim_arc(cyclish, constant(0))
    assert zero.rank == 2
    with pytest.raises(ValidationError):
        trim_arc(Hypergraph(3, [Hyperedge([0, 1, 2])]), ell)
    with pytest.raises(NotArcConnected):
        trim_arc(Hypergraph(3, [Hyperedge([0, 1, 2], head=0)]), ell)


def test_trimming_preserves_structure_random(rng):
    fn = constant(1)
    done = 0
    while done < 25:
        h = random_hypergraph(rng, rng.randint(2, 6), rng.randint(1, 6), 4)
        if not is_pc(h, fn):
            continue
        done += 1
        t = trim_pc(h, fn)
        assert t.edge_count == h.edge_count
        assert t.rank <= 2
        assert is_pc(t, fn)
        for he, src in zip(t.hyperedges, h.hyperedges):
            assert set(he.vertices) <= set(src.vertices)


def test_trim_sparse_random(rng):
    fn = constant(1)
    done = 0
    while done < 25:
        h = random_hypergraph(rng, rng.randint(2, 6), rng.randint(1, 5), 4,
                              directed=True)
        if not is_sparse(h, range(h.edge_count), fn):
            continue
        done += 1
        t = trim_sparse(h, fn)
        assert t.edge_count == h.edge_count and t.rank <= 2
        assert is_sparse(t, range(t.edge_count), fn)
        for he, src in zip(t.hyperedges, h.hyperedges):
            assert set(he.vertices) <= set(src.vertices)
            assert he.head == src.head


@st.composite
def pc_hypergraphs(draw):
    """A hypergraph of rank at most 4 on at most 6 vertices, headed or
    not, and a demand for which it is partition-connected (brute force)."""
    n = draw(st.integers(3, 6))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    l = draw(st.sampled_from([constant(1), constant(2), vertex_bulk(2, 1),
                              vertex_bulk(1, 0), vertex_weights(weights)]))

    def lval(block):
        return l.value(sum(1 << v for v in block))

    hyperedges = []
    for _ in range(draw(st.integers(1, 14))):
        verts = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4,
                              unique=True))
        head = draw(st.sampled_from([None] + verts))
        hyperedges.append((verts, head))
        if brute_is_pc(n, [frozenset(v) for v, _ in hyperedges], lval):
            break
    assume(brute_is_pc(n, [frozenset(v) for v, _ in hyperedges], lval))
    return n, hyperedges, l, lval


@settings(max_examples=80, deadline=None)
@given(pc_hypergraphs())
def test_trim_pc_matches_brute_force_first_candidate(instance):
    # Oracle: shrink each hyperedge in order by dropping the first vertex
    # in sorted order (never the head, or the smallest vertex when there
    # is none) whose removal keeps the host partition-connected.
    n, hyperedges, l, lval = instance
    hes = [(sorted(v), h) for v, h in hyperedges]
    for idx in range(len(hes)):
        while len(hes[idx][0]) > 2:
            verts, head = hes[idx]
            keep = head if head is not None else verts[0]
            candidates = [v for v in verts if v != keep]
            for pos, x in enumerate(candidates):
                trial = [v for v in verts if v != x]
                edge_sets = [frozenset(trial if j == idx else v)
                             for j, (v, _) in enumerate(hes)]
                if brute_is_pc(n, edge_sets, lval):
                    break
            else:
                pytest.fail("no candidate keeps the host partition-connected")
            # A tight partition pins any failed first candidate down, and
            # then the second candidate always works.
            assert pos <= 1
            hes[idx] = (trial, head)
    expected = Hypergraph(n, [Hyperedge(v, h) for v, h in hes])
    host = Hypergraph(n, [Hyperedge(v, h) for v, h in hyperedges])
    assert trim_pc(host, l) == expected


def test_trim_failure_raises_internal_error(monkeypatch):
    import partition_forge.orient as orient

    # Force the shared loop's check to fail on every candidate.
    real = orient._trim
    monkeypatch.setattr(orient, "_trim", lambda host, keeps: real(host, lambda h: False))
    with pytest.raises(InternalError):
        trim_pc(Hypergraph(3, [Hyperedge([0, 1, 2]), Hyperedge([0, 1, 2])]), constant(1))
    with pytest.raises(InternalError):
        trim_sparse(Hypergraph(3, [Hyperedge([0, 1, 2], head=0)]), constant(1))
    with pytest.raises(InternalError):
        trim_arc(Hypergraph(3, [Hyperedge([0, 1, 2], head=1)]), constant(0))
    # Pairs need no trimming, so the check is never asked.
    pairs = Hypergraph(3, [Hyperedge([0, 1]), Hyperedge([1, 2])])
    assert trim_pc(pairs, constant(1)) == pairs


def test_trim_arc_accepts_an_edgeless_host():
    empty = Hypergraph(3, [])
    assert empty.is_directed() is True
    assert Hypergraph(3, [Hyperedge([0, 1], head=0)]).is_directed() is True
    assert Hypergraph(3, [Hyperedge([0, 1], head=0), Hyperedge([1, 2])]).is_directed() is False
    assert trim_arc(empty, constant(0)) == empty
