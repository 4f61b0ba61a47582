"""Degree-bounded extraction: excess minimization, witnesses, sufficient
conditions, presets, extensions, excess chains."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge import (
    Basis,
    ConditionViolated,
    DegreeTarget,
    EdgeSubset,
    Hyperedge,
    Hypergraph,
    HypothesisViolated,
    Infeasible,
    MultiGraph,
    NoWitness,
    check_main_condition,
    check_tough_extract,
    constant,
    enumerate_bases,
    extract_bounded,
    half_degree_pc,
    induced_edge_count,
    is_pc,
    kl_edge_connected,
    kl_partition_connected,
    lex_min_excess,
    min_excess_basis,
    min_theta_extension,
    preset_eta,
    scale,
    spanning_host,
    structure_witness,
    theta,
    theta_without,
    total_excess,
    vertex_bulk,
    vertex_weights,
)
from partition_forge.bits import bit_list
from conftest import (
    brute_cross,
    complete_graph,
    cycle_graph,
    edge_sets_of,
    iter_set_partitions,
    path_graph,
    random_connected_multigraph,
    random_multigraph,
)

K4 = complete_graph(4)
C3 = cycle_graph(3)
C4 = cycle_graph(4)


def test_total_excess_examples():
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    sub = EdgeSubset.full(star)
    assert total_excess(star, sub, DegreeTarget.uniform(2, 4)) == 1
    assert total_excess(star, sub, DegreeTarget.uniform(3, 4)) == 0
    assert total_excess(C3, EdgeSubset.full(C3), DegreeTarget.uniform(1, 3)) == 3


def test_min_excess_basis_examples():
    _, te = min_excess_basis(C3, constant(1), DegreeTarget.uniform(1, 3))
    assert te == 1
    _, te = min_excess_basis(C3, constant(1), DegreeTarget.uniform(2, 3))
    assert te == 0
    _, te = min_excess_basis(K4, constant(1), DegreeTarget.uniform(1, 4))
    assert te == 2


def test_min_excess_matches_exhaustive(rng):
    for _ in range(15):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
        target = DegreeTarget([rng.randint(1, 3) for _ in range(g.n)])
        basis, te = min_excess_basis(g, constant(1), target)
        best = min(
            total_excess(g, b.edges, target)
            for b in enumerate_bases(g, constant(1))
        )
        assert te == best


def test_min_excess_with_forced_edges(rng):
    fn = constant(1)
    for _ in range(10):
        g = random_connected_multigraph(rng, 4, 3)
        from partition_forge import max_sparse

        tree = max_sparse(g, fn)
        forced = set(list(tree.members)[:1])
        target = DegreeTarget.uniform(2, 4)
        basis, te = min_excess_basis(g, fn, target, forced)
        assert forced <= basis.edges.members
        candidates = [
            total_excess(g, b.edges, target)
            for b in enumerate_bases(g, fn)
            if forced <= b.edges.members
        ]
        assert te == min(candidates)


def test_structure_witness_examples():
    # Zero-excess case: the empty set certifies.
    ham = Basis(EdgeSubset(K4, [0, 3, 5]))  # path 0-1-2-3
    s = structure_witness(K4, constant(1), DegreeTarget.uniform(2, 4), ham)
    assert s == 0
    # Tight case on the triangle: only a two-vertex set certifies.
    path = Basis(EdgeSubset(C3, [0, 2]))  # edges (0,1),(1,2)
    s = structure_witness(C3, constant(1), DegreeTarget.uniform(1, 3), path)
    assert bit_list(s) == [0, 1]
    # A host equal to its own basis with target = degrees.
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    s = structure_witness(
        star, constant(1), DegreeTarget(star.degrees()), Basis(EdgeSubset.full(star))
    )
    assert s == 0


def test_structure_witness_conditions_reverified(rng):
    fn = constant(1)
    for _ in range(20):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 5))
        target = DegreeTarget([rng.randint(1, 3) for _ in range(g.n)])
        basis, _ = min_excess_basis(g, fn, target)
        s = structure_witness(g, fn, target, basis)
        resolved = target.resolve(g)
        degs = basis.edges.degrees()
        sub = spanning_host(g, basis.edges.members)
        assert theta_without(g, fn, s) == theta_without(sub, fn, s)
        for v in range(g.n):
            if degs[v] > resolved[v]:
                assert (s >> v) & 1
            if (s >> v) & 1:
                assert degs[v] >= resolved[v]


def test_structure_witness_rejects_bad_basis():
    # A maximum-excess basis on K4 cannot be certified for target 2.
    star = Basis(EdgeSubset(K4, [0, 1, 2]))  # all edges at vertex 0
    with pytest.raises(NoWitness):
        structure_witness(K4, constant(1), DegreeTarget.uniform(2, 4), star)


def test_structure_witness_with_forced_subgraph(rng):
    # Around a forced sparse subgraph the witness conditions use the
    # restricted removal (edges at S survive only inside the forced set).
    from partition_forge import max_sparse, theta_restricted

    fn = constant(1)
    done = 0
    while done < 10:
        g = random_connected_multigraph(rng, rng.randint(3, 5), rng.randint(1, 4))
        tree = max_sparse(g, fn)
        forced = set(list(tree.members)[: rng.randint(0, 2)])
        fsub = EdgeSubset(g, forced)
        h = [rng.randint(1, 2) for _ in range(g.n)]
        target = DegreeTarget([h[v] + fsub.degree(v) for v in range(g.n)])
        basis, _ = min_excess_basis(g, fn, target, forced)
        s = structure_witness(g, fn, target, basis, forced=forced)
        done += 1
        resolved = target.resolve(g)
        degs = basis.edges.degrees()
        sub = spanning_host(g, basis.edges.members)
        sub_keep = sorted(forced)
        lookup = {orig: i for i, orig in enumerate(basis.edges.indices())}
        assert theta_restricted(g, fn, s, forced) == theta_restricted(
            sub, fn, s, [lookup[i] for i in sub_keep]
        )
        for v in range(g.n):
            if degs[v] > resolved[v]:
                assert (s >> v) & 1
            if (s >> v) & 1:
                assert degs[v] >= resolved[v]


def test_structure_witness_equality_variant():
    # A zero-excess minimum-theta extension always has an equality
    # witness: theta after restricted removal agrees, and S sits exactly
    # at its degree target.
    from partition_forge import theta_restricted

    fn = constant(1)
    g = C4
    forced = {0}
    fsub = EdgeSubset(g, forced)
    target = DegreeTarget([1 + fsub.degree(v) for v in range(g.n)])
    ext = min_theta_extension(g, fn, target, forced)
    s = structure_witness(g, fn, target, ext, forced=forced, equality=True)
    resolved = target.resolve(g)
    degs = ext.degrees()
    for v in range(g.n):
        if (s >> v) & 1:
            assert degs[v] == resolved[v]
    sub = spanning_host(g, ext.members)
    lookup = {orig: i for i, orig in enumerate(ext.indices())}
    assert theta_restricted(g, fn, s, forced) == theta_restricted(
        sub, fn, s, [lookup[i] for i in sorted(forced)]
    )


def test_condition_examples():
    disconnected = MultiGraph(4, [(0, 1), (2, 3)])
    verdict = check_main_condition(
        disconnected, constant(1), range(4), [3] * 4, 1, "intro"
    )
    assert not verdict.holds and verdict.witness == 0
    verdict = check_main_condition(C3, constant(1), range(3), [3] * 3, 1, "sharp")
    assert verdict.holds
    # The intro variant agrees with direct enumeration on K4.
    lam = Fraction(1, 2)
    eta = [Fraction(3, 2) + 1] * 4
    verdict = check_main_condition(K4, constant(1), range(4), eta, lam, "intro")
    fn = constant(1)
    expected = True
    for size in range(5):
        for combo in combinations(range(4), size):
            s = sum(1 << v for v in combo)
            lhs = theta_without(K4, fn, s)
            ls = fn.value(s)
            rhs = (
                sum(eta[v] - 2 for v in combo)
                + 1
                + ls
                - lam * (induced_edge_count(K4, s) + ls)
            )
            if lhs > rhs:
                expected = False
    assert verdict.holds == expected


def test_sharp_condition_matches_independent_oracle(rng):
    # For the all-ones demand the sharp sweep has a fully independent
    # formulation: theta after deleting S is the component count of the
    # remainder, and the basis maximum e*(S) is the best spanning tree
    # counted by hand.
    from itertools import combinations as icombs

    from conftest import component_count, is_spanning_tree

    fn = constant(1)

    def oracle(g, eta, lam):
        trees = [
            combo
            for combo in icombs(range(g.edge_count), g.n - 1)
            if is_spanning_tree(g.n, [g.edges[i] for i in combo])
        ]
        if not trees:
            return False
        for size in range(g.n + 1):
            for sub in icombs(range(g.n), size):
                s = set(sub)
                remaining = [e for e in g.edges if not (set(e) & s)]
                lhs = component_count(g.n - len(s), _relabel(remaining, s, g.n))
                if not s:
                    lhs = component_count(g.n, g.edges)
                ls = 1 if s else 0
                estar = max(
                    sum(1 for i in t if set(g.edges[i]) <= s) for t in trees
                )
                rhs = (
                    1
                    + sum(eta[v] - 2 for v in s)
                    + 1
                    + ls
                    - lam * (estar + ls)
                )
                if not lhs < rhs:
                    return False
        return True

    def _relabel(pairs, removed, n):
        keep = [v for v in range(n) if v not in removed]
        pos = {v: i for i, v in enumerate(keep)}
        return [(pos[u], pos[v]) for u, v in pairs]

    for _ in range(40):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
        lam = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        eta = [Fraction(rng.randint(2, 2 * d + 3), 2) for d in g.degrees()]
        verdict = check_main_condition(g, fn, range(g.n), eta, lam, "sharp")
        assert verdict.holds == oracle(g, eta, lam)


def test_extract_bounded_examples():
    basis = extract_bounded(C4, constant(1), range(4), [3] * 4, 1)
    assert max(basis.edges.degrees()) <= 2
    with pytest.raises(ConditionViolated) as err:
        extract_bounded(
            MultiGraph(4, [(0, 1), (2, 3)]), constant(1), range(4), [9] * 4, 0
        )
    assert err.value.vertex_set == 0


def test_preset_examples():
    from partition_forge.setfn import ceil_fraction

    eta, lam = preset_eta(K4, constant(1), 3, "edge-connected")
    bounds = [ceil_fraction(e - lam * 1) for e in eta]
    assert bounds == [3, 3, 3, 3]
    eta, lam = preset_eta(C4, constant(1), 1, "partition-connected")
    bounds = [ceil_fraction(e - lam * 1) for e in eta]
    assert bounds == [2, 2, 2, 2]
    # Independent-X variants: ceil(d/k) + l(v) and ceil(d/k).
    eta, lam = preset_eta(K4, constant(1), 2, "edge-connected", independent=True)
    bounds = [ceil_fraction(e - lam * 1) for e in eta]
    assert bounds == [3, 3, 3, 3]  # ceil(3/2) + 1
    eta, lam = preset_eta(K4, constant(1), 2, "partition-connected", independent=True)
    bounds = [ceil_fraction(e - lam * 1) for e in eta]
    assert bounds == [2, 2, 2, 2]  # ceil(3/2)


def test_preset_connectivity_precondition():
    with pytest.raises(HypothesisViolated):
        preset_eta(C4, constant(1), 2, "partition-connected")
    with pytest.raises(HypothesisViolated):
        preset_eta(path_graph(3), constant(1), 2, "edge-connected")


def test_preset_pipeline_k4():
    eta, lam = preset_eta(K4, constant(1), 2, "partition-connected")
    basis = extract_bounded(K4, constant(1), range(4), eta, lam)
    degs = basis.edges.degrees()
    assert max(degs) <= 2 and sorted(degs) == [1, 1, 2, 2]


def test_extract_condition_soundness_randomized(rng):
    # Whenever the sharp condition holds, extraction reaches zero excess.
    fn = constant(1)
    held = 0
    for _ in range(60):
        g = random_connected_multigraph(rng, rng.randint(3, 6), rng.randint(0, 4))
        lam = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3)])
        eta = [
            Fraction(rng.randint(2, 2 * d + 2), 2) for d in g.degrees()
        ]
        verdict = check_main_condition(g, fn, range(g.n), eta, lam, "sharp")
        if not verdict.holds:
            continue
        held += 1
        basis = extract_bounded(g, fn, range(g.n), eta, lam)
        from partition_forge.setfn import ceil_fraction

        degs = basis.edges.degrees()
        for v in range(g.n):
            assert degs[v] <= ceil_fraction(eta[v] - lam)
        assert is_pc(spanning_host(g, basis.edges.members), fn)
    assert held >= 10


def test_degree_bound_pipeline_doubled_edges(rng):
    # 2l-edge-connected hosts admit spanning parts within the halved bound.
    fn = constant(1)
    done = 0
    for _ in range(40):
        g = random_connected_multigraph(rng, rng.randint(3, 5), rng.randint(1, 4))
        doubled = MultiGraph(g.n, list(g.edges) * 2)
        if kl_edge_connected(doubled, fn, 2) is not None:
            continue
        eta, lam = preset_eta(doubled, fn, 2, "edge-connected")
        basis = extract_bounded(doubled, fn, range(doubled.n), eta, lam)
        degs = basis.edges.degrees()
        for v in range(doubled.n):
            d = doubled.degree(v)
            assert degs[v] <= -((-(d - 2)) // 2) + 2
        done += 1
    assert done >= 10


def test_min_theta_extension_examples():
    g = path_graph(4)
    ext = min_theta_extension(g, constant(1), DegreeTarget(g.degrees()))
    assert ext.indices() == (0, 1, 2)
    assert theta(spanning_host(g, ext.members), constant(1)) == 1
    ext = min_theta_extension(C3, constant(1), DegreeTarget.uniform(2, 3))
    sub = spanning_host(C3, ext.members)
    assert theta(sub, constant(1)) == 1
    assert total_excess(C3, ext, DegreeTarget.uniform(2, 3)) == 0
    ext = min_theta_extension(C3, constant(1), DegreeTarget.uniform(0, 3))
    assert len(ext) == 0
    assert theta(spanning_host(C3, ext.members), constant(1)) == 3
    with pytest.raises(Infeasible):
        min_theta_extension(C3, constant(1), DegreeTarget.uniform(0, 3), [0])


def test_min_theta_extension_is_minimum(rng):
    fn = constant(1)
    for _ in range(12):
        g = random_multigraph(rng, rng.randint(2, 4), rng.randint(0, 5))
        target = DegreeTarget([rng.randint(0, 3) for _ in range(g.n)])
        try:
            ext = min_theta_extension(g, fn, target)
        except Infeasible:
            continue
        got = theta(spanning_host(g, ext.members), fn)
        resolved = target.resolve(g)
        best = None
        for k in range(g.edge_count + 1):
            for combo in combinations(range(g.edge_count), k):
                sub = EdgeSubset(g, combo)
                degs = sub.degrees()
                if all(degs[v] <= resolved[v] for v in range(g.n)):
                    val = theta(spanning_host(g, combo), fn)
                    best = val if best is None else min(best, val)
        assert got == best


def test_tough_extract_matching_instance():
    matching = EdgeSubset(K4, [0, 5])  # (0,1) and (2,3)
    result = check_tough_extract(
        K4, constant(1), DegreeTarget.uniform(1, 4), matching, 2
    )
    assert matching.members <= result.members
    degs = result.degrees()
    fd = matching.degrees()
    assert all(degs[v] <= 1 + fd[v] for v in range(4))
    assert is_pc(spanning_host(K4, result.members), constant(1))


def test_tough_extract_trivial_when_forced_is_connected():
    tree = EdgeSubset(K4, [0, 1, 2])
    result = check_tough_extract(
        K4, constant(1), DegreeTarget.uniform(1, 4), tree, 2
    )
    assert tree.members <= result.members
    degs = result.degrees()
    fd = tree.degrees()
    assert all(degs[v] <= 1 + fd[v] for v in range(4))


def test_tough_extract_hypothesis_violations():
    # An isolated vertex in the forced subgraph breaks the component rule.
    with pytest.raises(HypothesisViolated) as err:
        check_tough_extract(
            C4, constant(1), DegreeTarget.uniform(1, 4), EdgeSubset(C4, [0]), 2
        )
    assert err.value.clause == "component-condition"


def test_tough_extract_multiplied_host():
    # Two copies of the triangle against doubled demands: any forced
    # doubled path extends within one extra edge per vertex.
    tri2 = MultiGraph(3, [(0, 1), (0, 2), (1, 2)] * 2)
    forced = EdgeSubset(tri2, [0, 1, 3, 4])  # both copies of (0,1),(0,2)
    result = check_tough_extract(
        tri2, scale(2, constant(1)), DegreeTarget.uniform(1, 3), forced, 2
    )
    degs = result.degrees()
    fd = forced.degrees()
    assert all(degs[v] <= 1 + fd[v] for v in range(3))


def test_lex_min_excess_examples():
    targets = [DegreeTarget.uniform(2, 3), DegreeTarget.uniform(1, 3)]
    result = lex_min_excess(C3, constant(1), None, targets)
    sub = EdgeSubset(C3, result.members)
    assert total_excess(C3, sub, targets[0]) == 0
    assert total_excess(C3, sub, targets[1]) == 1
    big = [DegreeTarget.uniform(5, 3)]
    result = lex_min_excess(C3, constant(1), None, big)
    assert total_excess(C3, EdgeSubset(C3, result.members), big[0]) == 0


def test_lex_min_excess_single_target_matches_min_excess(rng):
    fn = constant(1)
    for _ in range(10):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(0, 4))
        target = DegreeTarget([rng.randint(1, 3) for _ in range(g.n)])
        basis, te = min_excess_basis(g, fn, target)
        result = lex_min_excess(g, fn, None, [target])
        assert total_excess(g, EdgeSubset(g, result.members), target) == te
        assert result.members == basis.edges.members


def test_lex_min_excess_order_validation():
    with pytest.raises(Exception):
        lex_min_excess(
            C3,
            constant(1),
            None,
            [DegreeTarget.uniform(1, 3), DegreeTarget.uniform(2, 3)],
        )


def test_adding_edge_between_low_vertices_keeps_excess(rng):
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(1, 6))
        target = DegreeTarget([rng.randint(0, 3) for _ in range(g.n)])
        resolved = target.resolve(g)
        members = {i for i in range(g.edge_count) if rng.random() < 0.5}
        sub = EdgeSubset(g, members)
        degs = sub.degrees()
        for e in range(g.edge_count):
            if e in members:
                continue
            u, v = g.edges[e]
            if degs[u] < resolved[u] and degs[v] < resolved[v]:
                bigger = EdgeSubset(g, members | {e})
                assert total_excess(g, bigger, target) == total_excess(
                    g, sub, target
                )


def test_kl_connectivity_checks():
    assert kl_edge_connected(K4, constant(1), 3) is None
    assert kl_edge_connected(K4, constant(1), 4) is not None
    assert kl_partition_connected(K4, constant(1), 2) is None
    assert kl_partition_connected(C4, constant(1), Fraction(4, 3)) is None
    assert kl_partition_connected(C4, constant(1), 2) is not None


@st.composite
def kl_instances(draw):
    """A multigraph or rank-3 hypergraph on at most 5 vertices, a demand
    and a multiplier k."""
    n = draw(st.integers(2, 5))
    rank = draw(st.sampled_from([2, 3])) if n >= 3 else 2
    edges = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=rank), max_size=10
    ))
    host = (
        Hypergraph(n, [Hyperedge(e) for e in edges]) if rank == 3
        else MultiGraph(n, [tuple(e) for e in edges])
    )
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    l = draw(st.sampled_from(
        [constant(1), constant(2), vertex_bulk(2, 1), vertex_weights(weights)]
    ))
    k = draw(st.sampled_from([1, Fraction(3, 2), 2, 3]))
    return host, l, k


def _restricted_growth(blocks, n):
    """Restricted-growth string of a partition of range(n) (the order of
    ``enumerate_partitions``)."""
    block_of = {v: i for i, b in enumerate(blocks) for v in b}
    label = {}
    return tuple(label.setdefault(block_of[v], len(label)) for v in range(n))


@settings(max_examples=120, deadline=None)
@given(kl_instances())
def test_kl_witnesses_match_brute_force(instance):
    host, l, k = instance
    n = host.n
    edge_sets = edge_sets_of(host)
    everything = frozenset(range(n))

    def lval(block):
        return l.value(sum(1 << v for v in block))

    # Edge-connectivity: the first mask whose boundary is below k*l(A).
    first_set = None
    for a in range(1, (1 << n) - 1):
        inner = frozenset(v for v in range(n) if a >> v & 1)
        if brute_cross(edge_sets, [inner, everything - inner]) < k * lval(inner):
            first_set = a
            break
    assert kl_edge_connected(host, l, k) == first_set
    # Partition-connectivity: the first violating partition in
    # restricted-growth order.
    violating = [
        part for part in iter_set_partitions(range(n))
        if brute_cross(edge_sets, part) < k * (sum(lval(b) for b in part) - lval(everything))
    ]
    got = kl_partition_connected(host, l, k)
    if not violating:
        assert got is None
    else:
        first = min(violating, key=lambda part: _restricted_growth(part, n))
        assert got is not None
        assert sorted(map(sorted, got.blocks_as_lists())) == sorted(map(sorted, first))


def test_half_degree_reports_the_first_weak_set():
    # Each host fails (r*l)-edge-connectivity; the reported set is the
    # first mask whose boundary is below r*l(A), as kl_edge_connected finds.
    cases = [
        (MultiGraph(4, [(0, 1), (0, 2), (0, 3), (2, 3)]), constant(1), 0b0010),
        # Two triangles joined by the bridge (2, 3).
        (MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]),
         constant(1), 0b000111),
        (Hypergraph(5, [Hyperedge(e) for e in [[0, 1, 2], [0, 1, 3], [0, 2, 3],
                                               [1, 2, 3], [2, 3, 4], [1, 3, 4]]]),
         constant(1), 0b01111),
    ]
    for host, l, weak in cases:
        r = host.rank if host.is_hypergraph else 2
        assert kl_edge_connected(host, l, r) == weak
        with pytest.raises(HypothesisViolated) as info:
            half_degree_pc(host, l, 0)
        assert info.value.clause == "rl-edge-connected"
        assert info.value.vertex_set == weak
