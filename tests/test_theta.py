"""The connectivity measure: oracle agreement, components, bounds."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge import (
    Hypergraph,
    HypothesisViolated,
    InternalError,
    MathConditionError,
    MultiGraph,
    boundary_count,
    check_tough_extract,
    constant,
    fn_sum,
    hyper_bounded,
    induced_edge_count,
    induced_host,
    is_pc,
    pc_components,
    pc_violation,
    restricted_removal,
    scale,
    sigma,
    spanning_host,
    table,
    theta,
    theta_oracle,
    theta_restricted,
    theta_without,
    vertex_bulk,
    vertex_weights,
)
from partition_forge import _kernels
from partition_forge.theta import _spans_pc
from conftest import (
    all_simple_graphs,
    brute_cross,
    brute_is_pc,
    brute_theta,
    complete_graph,
    edge_sets_of,
    iter_set_partitions,
    lv_const,
    lv_vertex_bulk,
    path_graph,
    random_connected_multigraph,
    random_hypergraph,
    random_multigraph,
)

K4 = complete_graph(4)


def test_theta_oracle_examples():
    assert theta_oracle(MultiGraph(1, []), constant(1)) == 1
    assert theta_oracle(MultiGraph(2, []), constant(1)) == 2
    assert theta_oracle(K4, constant(2)) == 2
    assert theta_oracle(MultiGraph(0, []), constant(1)) == 0


def test_pc_components_examples():
    path = path_graph(3)
    comp = pc_components(path, constant(1))
    assert comp.partition.blocks_as_lists() == [[0, 1, 2]]
    two = MultiGraph(4, [(0, 1), (2, 3)])
    comp = pc_components(two, constant(1))
    assert comp.partition.blocks_as_lists() == [[0, 1], [2, 3]]
    comp = pc_components(K4, vertex_bulk(2, 1))
    assert comp.partition.blocks_as_lists() == [[0], [1], [2], [3]]
    assert comp.theta_value == 2


def test_theta_examples():
    tree = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert theta(tree, constant(1)) == 1
    assert theta(MultiGraph(2, []), constant(1)) == 2
    assert theta(K4, vertex_bulk(2, 1)) == 2


def test_is_pc_examples():
    assert is_pc(path_graph(4), constant(1))
    assert not is_pc(MultiGraph(3, [(0, 1)]), constant(1))
    assert is_pc(K4, constant(2))


def test_pc_violation_witness_is_valid():
    g = MultiGraph(3, [(0, 1)])
    l = constant(1)
    p = pc_violation(g, l)
    need = sum(l.value(b) for b in p.blocks) - l.value(g.full_mask)
    crossing = sum(
        1 for em in g.edge_masks if not any(em & ~b == 0 for b in p.blocks)
    )
    assert crossing < need


def test_theta_without_examples():
    path = path_graph(3)
    assert theta_without(path, constant(1), [1]) == 2
    assert theta_without(K4, constant(1), [0]) == 1
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert theta_without(star, constant(1), [0]) == 3
    assert theta_without(path, constant(1), [0, 1, 2]) == 0


def test_theta_restricted_examples():
    path = path_graph(3)
    assert theta_restricted(path, constant(1), [1], []) == 3
    assert theta_restricted(path, constant(1), [1], []) == (
        theta_without(path, constant(1), [1]) + 1
    )
    assert theta_restricted(K4, constant(1), [0, 2], range(6)) == theta(K4, constant(1))
    assert theta_restricted(K4, constant(1), [], [0]) == theta(K4, constant(1))


def test_theta_limits():
    from partition_forge import LimitExceeded

    big = MultiGraph(13, [])
    with pytest.raises(LimitExceeded):
        theta_oracle(big, constant(1))
    with pytest.raises(LimitExceeded):
        pc_components(big, constant(1))


FUNCTIONS = [
    (constant(1), lv_const(1)),
    (constant(2), lv_const(2)),
    (vertex_bulk(2, 1), lv_vertex_bulk(2, 1)),
]


def test_theta_equals_oracle_all_simple_graphs_n4():
    for g in all_simple_graphs(4):
        sets = edge_sets_of(g)
        for fn, lval in FUNCTIONS:
            expected = brute_theta(g.n, sets, lval)
            assert theta_oracle(g, fn) == expected
            assert theta(g, fn) == expected


def test_theta_equals_oracle_random_multigraphs(rng):
    for _ in range(120):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 8))
        sets = edge_sets_of(g)
        for fn, lval in FUNCTIONS:
            expected = brute_theta(g.n, sets, lval)
            assert theta(g, fn) == expected
            assert theta_oracle(g, fn) == expected
            assert is_pc(g, fn) == brute_is_pc(g.n, sets, lval)


def test_theta_on_hypergraphs_matches_brute(rng):
    from conftest import random_hypergraph

    for _ in range(40):
        h = random_hypergraph(rng, rng.randint(2, 5), rng.randint(0, 5), 4)
        sets = edge_sets_of(h)
        for fn, lval in FUNCTIONS:
            assert theta_oracle(h, fn) == brute_theta(h.n, sets, lval)


def test_scaling_inequality(rng):
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 5), rng.randint(0, 7))
        for beta in (1, 2, 3):
            assert beta * theta(g, constant(1)) <= theta(g, scale(beta, constant(1)))


def test_edge_monotonicity(rng):
    for _ in range(40):
        g = random_multigraph(rng, rng.randint(2, 5), rng.randint(0, 6))
        u = rng.randrange(g.n - 1)
        v = rng.randrange(u + 1, g.n)
        bigger = MultiGraph(g.n, list(g.edges) + [(u, v)])
        for fn, _ in FUNCTIONS:
            delta = theta(bigger, fn) - theta(g, fn)
            assert delta in (0, -1)


def test_component_blocks_are_maximal(rng):
    from itertools import combinations

    for _ in range(25):
        g = random_multigraph(rng, rng.randint(2, 6), rng.randint(0, 8))
        fn = constant(1)
        comp = pc_components(g, fn)
        blocks = comp.partition.blocks
        for b in blocks:
            sub, _ = induced_host(g, b)
            assert is_pc(sub, fn)
        for r in range(2, len(blocks) + 1):
            for combo in combinations(blocks, r):
                union = 0
                for b in combo:
                    union |= b
                sub, _ = induced_host(g, union)
                assert not is_pc(sub, fn)


def test_basic_union_property(rng):

    fn = vertex_bulk(2, 1)
    for _ in range(15):
        g = random_multigraph(rng, 5, rng.randint(4, 10))
        pc_sets = []
        for mask in range(1, 1 << g.n):
            sub, _ = induced_host(g, mask)
            if is_pc(sub, fn):
                pc_sets.append(mask)
        for x in pc_sets[:20]:
            for y in pc_sets[:20]:
                if x & y:
                    sub, _ = induced_host(g, x | y)
                    assert is_pc(sub, fn)


def _small_hosts(rng, count, max_edges=12, hypergraphs=True):
    """Random multigraphs and (alternately) rank-3 hypergraphs on 2..6
    vertices, each with a demand drawn from five families."""
    for i in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(0, min(2 * n, max_edges))
        if hypergraphs and i % 2:
            host = random_hypergraph(rng, n, m, 3)
        else:
            host = random_multigraph(rng, n, m)
        weights = vertex_weights([rng.randint(0, 2) for _ in range(n)])
        fn = rng.choice([constant(1), constant(2), vertex_bulk(2, 1),
                         vertex_bulk(1, 0), weights])
        yield host, fn


def _lval(fn):
    return lambda block: fn.value(sum(1 << v for v in block))


def test_edge_set_reader_matches_a_rebuilt_host(rng):
    # Rechecks read the host's own partition table over a set of its edges;
    # that agrees with rebuilding the spanning sub-host, and theta_restricted
    # with the stripped host of restricted_removal.
    for host, fn in _small_hosts(rng, 100):
        members = [i for i in range(host.edge_count) if rng.random() < 0.6]
        assert _spans_pc(host, members, fn) == is_pc(spanning_host(host, members), fn)
        if host.is_hypergraph:
            continue
        s = rng.randrange(1 << host.n)
        keep = [i for i in range(host.edge_count) if rng.random() < 0.3]
        assert theta_restricted(host, fn, s, keep) == theta_oracle(
            restricted_removal(host, s, keep), fn
        )


def test_restricted_removal_keeps_the_host_type(rng):
    # A hypergraph keeps its hyperedges (heads included) and its theta is
    # theta_restricted's; a graph keeps the plain edge filter it always had.
    for host, fn in _small_hosts(rng, 80):
        s = rng.randrange(1 << host.n)
        keep = [i for i in range(host.edge_count) if rng.random() < 0.3]
        stays = [
            i for i, em in enumerate(host.edge_masks) if em & s == 0 or i in keep
        ]
        out = restricted_removal(host, s, keep)
        assert theta_oracle(out, fn) == theta_restricted(host, fn, s, keep)
        if host.is_hypergraph:
            assert out == Hypergraph(host.n, [host.hyperedges[i] for i in stays])
        else:
            assert out == MultiGraph(host.n, [host.edges[i] for i in stays])
    directed = random_hypergraph(rng, 5, 8, 3, directed=True)
    out = restricted_removal(directed, 0b1, [0, 1])
    assert out.heads == tuple(
        he.head for i, he in enumerate(directed.hyperedges)
        if he.mask & 1 == 0 or i in (0, 1)
    )


def test_pc_components_are_the_maximal_pc_sets(rng):
    for host, fn in _small_hosts(rng, 60):
        sets = edge_sets_of(host)
        lval = _lval(fn)
        pc_sets = []
        for mask in range(1, 1 << host.n):
            verts = [v for v in range(host.n) if mask >> v & 1]
            inner = [e for e in sets if e <= set(verts)]
            need = lval(verts)
            if all(brute_cross(inner, part) >= sum(lval(b) for b in part) - need
                   for part in iter_set_partitions(verts)):
                pc_sets.append(mask)
        maximal = [a for a in pc_sets if not any(a != b and a & b == a for b in pc_sets)]
        comp = pc_components(host, fn)
        assert sorted(comp.partition.blocks) == sorted(maximal)
        assert comp.theta_value == brute_theta(host.n, sets, lval)


def _reported(call, clause):
    """The vertex set of a HypothesisViolated with the clause, None when
    the call raises no such error."""
    try:
        call()
    except HypothesisViolated as exc:
        return exc.vertex_set if exc.clause == clause else "other clause"
    except MathConditionError:
        pass
    return None


def _members(mask, n):
    return [v for v in range(n) if mask >> v & 1]


def test_theta_sweeps_report_the_first_failing_set(rng):
    # hyper_bounded and check_tough_extract read theta without S off one
    # table of the host; the set they report is the first S, in mask order,
    # that fails a sweep of theta_without, one S at a time.
    reported = {"theta-sigma-condition": 0, "theta-condition": 0}
    for host, fn in _small_hosts(rng, 120, max_edges=8):
        n = host.n
        lg = fn.value(host.full_mask)
        h = [rng.randint(0, 4) for _ in range(n)]
        without = [theta_without(host, fn, s) for s in range(1 << n)]
        if fn.has_flags("subadditive"):
            bad = [
                s for s in range(1 << n)
                if without[s] > sum(h[v] - fn.value(1 << v) for v in _members(s, n))
                + lg - sigma(host, s)
            ]
            got = _reported(lambda: hyper_bounded(host, fn, h), "theta-sigma-condition")
            assert got == (bad[0] if bad else None)
            reported["theta-sigma-condition"] += bool(bad)
    # A forced spanning tree meets, for these two demands, the component
    # condition that check_tough_extract tests before its theta sweep.
    for _ in range(80):
        n = rng.randint(2, 6)
        host = random_connected_multigraph(rng, n, rng.randint(0, 3))
        fn = rng.choice([constant(1), vertex_bulk(1, 0)])
        lg = fn.value(host.full_mask)
        h = [rng.randint(0, 2) for _ in range(n)]
        without = [theta_without(host, fn, s) for s in range(1 << n)]
        c = rng.choice([2, 3])
        forced = range(n - 1)
        bad = [
            s for s in range(1 << n)
            if not without[s] < 1 + lg + Fraction(fn.value(s), c - 1) + sum(
                Fraction(c * h[v], 2 * (c - 1)) - Fraction(fn.value(1 << v), c - 1)
                for v in _members(s, n)
            )
        ]
        got = _reported(lambda: check_tough_extract(host, fn, h, forced, c),
                        "theta-condition")
        if got != "other clause":
            assert got == (bad[0] if bad else None)
            reported["theta-condition"] += bool(bad)
    assert min(reported.values()) >= 10, reported


def test_dense_hosts_have_nontrivial_connected_piece(rng):
    # Hosts with at least sum(l(v)) - l(V) edges contain a partition-
    # connected induced piece on two or more vertices.
    for fn, lval in FUNCTIONS:
        for _ in range(40):
            n = rng.randint(2, 5)
            need = sum(lval(frozenset([v])) for v in range(n)) - lval(
                frozenset(range(n))
            )
            g = random_multigraph(rng, n, need + rng.randint(0, 2))
            if g.edge_count < need:
                continue
            found = False
            for mask in range(1, 1 << n):
                if bin(mask).count("1") < 2:
                    continue
                sub, _ = induced_host(g, mask)
                if is_pc(sub, fn):
                    found = True
                    break
            assert found, (g.edges, fn.name)


def _kl_edge_connected(g, lval, k):
    for a in range(1, g.full_mask):
        if boundary_count(g, a) < k * lval(_fs(a)):
            return False
    return True


def _kl_partition_connected(g, lval, k):
    from conftest import iter_set_partitions, brute_cross

    sets = edge_sets_of(g)
    full = lval(frozenset(range(g.n)))
    for part in iter_set_partitions(range(g.n)):
        need = k * (sum(lval(frozenset(b)) for b in part) - full)
        if brute_cross(sets, part) < need:
            return False
    return True


def _fs(mask):
    return frozenset(v for v in range(8) if (mask >> v) & 1)


def test_high_connectivity_theta_bounds(rng):
    # Removing S from a highly connected host leaves bounded theta.
    fn, lval = constant(1), lv_const(1)
    checked = 0
    for _ in range(60):
        g = random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(2, 8))
        degs = g.degrees()
        for k in (2, 3):
            if _kl_edge_connected(g, lval, k):
                for s in range(1, 1 << g.n):
                    lhs = theta_without(g, fn, s)
                    es = induced_edge_count(g, s)
                    rhs = (
                        sum(Fraction(degs[v], k) for v in range(g.n) if (s >> v) & 1)
                        - Fraction(2, k) * es
                    )
                    assert lhs <= rhs
                    checked += 1
        if _kl_partition_connected(g, lval, 1):
            lg = lval(frozenset(range(g.n)))
            for s in range(1 << g.n):
                lhs = theta_without(g, fn, s)
                es = induced_edge_count(g, s)
                rhs = (
                    sum(degs[v] - 1 for v in range(g.n) if (s >> v) & 1)
                    + lg
                    - es
                )
                assert lhs <= rhs
                checked += 1
    assert checked > 100


def test_high_connectivity_theta_bounds_hypergraph(rng):
    from conftest import random_hypergraph

    fn, lval = constant(1), lv_const(1)
    checked = 0
    for _ in range(60):
        h = random_hypergraph(rng, rng.randint(2, 5), rng.randint(2, 6), 3)
        r = h.rank
        if r < 2:
            continue
        # k*l-partition-connected case with k = 1.
        sets = edge_sets_of(h)
        full = lval(frozenset(range(h.n)))
        ok = True
        from conftest import iter_set_partitions, brute_cross

        for part in iter_set_partitions(range(h.n)):
            if brute_cross(sets, part) < sum(
                lval(frozenset(b)) for b in part
            ) - full:
                ok = False
                break
        if not ok:
            continue
        degs = h.degrees()
        for s in range(1 << h.n):
            lhs = theta_without(h, fn, s)
            rhs = (
                sum(degs[v] - 1 for v in range(h.n) if (s >> v) & 1)
                + full
                - sigma(h, s)
            )
            assert lhs <= rhs
            checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# The rank reader: the pebble game on graphs with a vertex_bulk(a, b) demand.

THETA = sys.modules["partition_forge.theta"]
PAIRS = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 3)]


def _five(host, fn):
    """The answers of the five functions the rank reader serves."""
    comp = pc_components(host, fn, trust_flags=True)
    return (
        theta_oracle(host, fn, trust_flags=True),
        theta(host, fn, trust_flags=True),
        is_pc(host, fn, trust_flags=True),
        pc_violation(host, fn, trust_flags=True),
        comp.partition,
        comp.theta_value,
    )


def _as_table(fn, n):
    """The same values as a table demand, which the reader does not take."""
    return table(n, {m: fn.value(m) for m in range(1 << n)}, flags=fn.flags)


@st.composite
def gated_cases(draw):
    n = draw(st.integers(0, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.lists(pair, max_size=3 * n)) if n >= 2 else []
    terms = [vertex_bulk(a, b) for a, b in
             draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=2))]
    fn = scale(draw(st.integers(1, 2)), fn_sum(*terms))
    return MultiGraph(n, edges), fn


@settings(max_examples=300, deadline=None)
@given(gated_cases())
def test_rank_reader_agrees_with_the_partition_table(case):
    # Theta, the pc test, the violation witness (the table's maximizing
    # partition) and the component blocks (the OR of the table's connected
    # sets) equal the table route's on an equal table demand.
    host, fn = case
    assert _five(host, fn) == _five(host, _as_table(fn, host.n))


def test_rank_reader_answers_without_the_partition_table(monkeypatch):
    def refuse(*args):
        raise RuntimeError("partition table built")

    monkeypatch.setattr(_kernels, "partition_table", refuse)
    tree_and_k4 = MultiGraph(6, list(K4.edges) + [(3, 4), (0, 4), (4, 5)])
    rank2 = Hypergraph(3, [(0, 1), (1, 2), (0, 2)])
    for host in (tree_and_k4, rank2, MultiGraph(3, [(0, 1)]), MultiGraph(0, [])):
        for fn in (constant(1), vertex_bulk(2, 1), vertex_bulk(1, 0)):
            _five(host, fn)
    assert pc_violation(tree_and_k4, constant(2)).blocks_as_lists() == [
        [0, 1, 2, 3, 4], [5]
    ]
    table_host = (tree_and_k4, _as_table(constant(1), 6))
    weights = (tree_and_k4, vertex_weights([1, 0, 1, 0, 1, 0]))
    hyper = (Hypergraph(3, [(0, 1, 2), (0, 1)]), constant(1))
    for host, fn in (table_host, weights, hyper):
        for call in (theta_oracle, theta, is_pc, pc_violation, pc_components):
            with pytest.raises(RuntimeError, match="partition table built"):
                call(host, fn, trust_flags=True)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_rank_reader_refuses_a_wrong_pebble_game(monkeypatch, change):
    # K4 plus a pendant vertex under constant(1): four accepted edges and
    # three rejected ones; one edge more or fewer breaks the certificate.
    host = MultiGraph(5, list(K4.edges) + [(3, 4)])
    pebble = THETA._pebble

    def wrong(n, edge_masks, a, b):
        accepted, joined = pebble(n, edge_masks, a, b)
        if change == "drop":
            return accepted[:-1], joined
        rejected = sorted(set(range(len(edge_masks))) - set(accepted))
        return sorted(accepted + rejected[:1]), joined

    monkeypatch.setattr(THETA, "_pebble", wrong)
    for call in (theta_oracle, theta, is_pc, pc_violation, pc_components):
        with pytest.raises(InternalError):
            call(host, constant(1))
