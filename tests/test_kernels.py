"""Kernels against brute force: each result is compared with a direct
count or a direct search over the same seeded cases."""

import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_cross, brute_theta, edge_sets_of, iter_set_partitions
from partition_forge import Hyperedge, Hypergraph, MultiGraph
from partition_forge import _kernels as K


def _random_masks(rng, k, m, min_bits=2):
    masks = []
    for _ in range(m):
        bits = rng.sample(range(k), rng.randint(min_bits, min(k, 4)))
        masks.append(sum(1 << b for b in bits))
    return np.asarray(masks, dtype=np.int64)


def _random_table(rng, k, lo=-3, hi=5):
    tab = np.asarray([rng.randint(lo, hi) for _ in range(1 << k)], dtype=np.int64)
    tab[0] = 0
    return tab


@pytest.fixture
def cases():
    rng = random.Random(7)
    out = []
    for _ in range(25):
        k = rng.randint(2, 5)
        m = rng.randint(0, 6)
        out.append((k, _random_masks(rng, k, m), _random_table(rng, k), rng))
    return out


@st.composite
def scan_instances(draw):
    """A multigraph or rank-3 hypergraph on k <= 6 vertices, a table of
    signed values (0 on the empty set) and a bound."""
    k = draw(st.integers(0, 6))
    rank = draw(st.sampled_from([2, 3]))
    edges = [] if k < 2 else draw(st.lists(
        st.sets(st.integers(0, k - 1), min_size=2, max_size=rank), max_size=8
    ))
    if rank == 2:
        host = MultiGraph(k, [tuple(e) for e in edges])
    else:
        host = Hypergraph(k, [Hyperedge(e) for e in edges])
    values = draw(st.lists(st.integers(-3, 5), min_size=1 << k, max_size=1 << k))
    tab = np.asarray([0] + values[1:], dtype=np.int64)
    bound = draw(st.integers(-4, 12))
    return host, tab, bound


@settings(max_examples=150, deadline=None)
@given(scan_instances())
def test_partition_scan_matches_brute_force(instance):
    host, tab, bound = instance
    k = host.n
    edge_sets = edge_sets_of(host)

    def lval(block):
        return int(tab[sum(1 << v for v in block)])

    brute = brute_theta(k, edge_sets, lval)
    ems = K.as_mask_array(host.edge_masks)
    best, labels, exceeded = K.partition_scan(k, ems, tab, np.int64(bound))
    assert best == brute
    assert exceeded == (brute > bound)
    # The labels are a restricted-growth string of a partition reaching best.
    labels = [int(x) for x in labels]
    assert len(labels) == k
    assert all(lab <= max(labels[:i], default=-1) + 1 for i, lab in enumerate(labels))
    blocks = [[v for v in range(k) if labels[v] == j]
              for j in range(max(labels, default=-1) + 1)]
    assert sum(lval(b) for b in blocks) - brute_cross(edge_sets, blocks) == best


def test_partition_table_gives_theta_of_every_induced_sub_host(cases):
    for k, masks, tab, _ in cases:
        g, inside = K.partition_table(k, masks, tab)

        def lval(block):
            return int(tab[sum(1 << v for v in block)])

        for sub in range(1 << k):
            verts = [v for v in range(k) if sub >> v & 1]
            inner = [frozenset(v for v in range(k) if em >> v & 1)
                     for em in masks if em & ~sub == 0]
            assert inside[sub] == len(inner)
            best = None
            for part in iter_set_partitions(verts):
                val = sum(lval(b) for b in part) - brute_cross(inner, part)
                best = val if best is None else max(best, val)
            assert g[sub] - inside[sub] == (0 if best is None else best)


def _inside(masks, a):
    """Edge masks contained in the vertex set a, counted directly."""
    return sum(1 for em in masks if int(em) & ~a == 0)


def test_sparse_and_count_match_direct_counts(cases):
    for k, masks, tab, rng in cases:
        slack = np.asarray([rng.randint(0, 3) for _ in range(1 << k)],
                           dtype=np.int64)
        first_bad = next(
            (a for a in range(1 << k) if _inside(masks, a) > slack[a]), -1
        )
        assert int(K.sparse_violation(k, masks, slack)) == first_bad
        assert list(K.count_inside(k, masks)) == [
            _inside(masks, a) for a in range(1 << k)
        ]


def _in_degree(a, arcs):
    """Arcs (head, vertex mask) entering the vertex set a, counted
    directly: the head is in a and some vertex of the arc is not."""
    return sum(1 for h, m in arcs if a >> h & 1 and m & ~a)


def _first_orientation(k, pairs, tab):
    """First orientation bitmask (bit i set: edge i points to pairs[i][1])
    whose every nonempty set meets its demand, by direct search."""
    for om in range(1 << len(pairs)):
        arcs = [(h if om >> i & 1 else t, 1 << t | 1 << h)
                for i, (t, h) in enumerate(pairs)]
        if all(_in_degree(a, arcs) >= tab[a] for a in range(1, 1 << k)):
            return om
    return -1


def _first_short(k, arcs, tab):
    return next(
        (a for a in range(1, 1 << k) if _in_degree(a, arcs) < tab[a]), -1
    )


def test_orientation_kernels_match_direct_search():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(2, 4)
        m = rng.randint(1, 5)
        tails = np.asarray([rng.randrange(k) for _ in range(m)], dtype=np.int64)
        heads = np.asarray(
            [(t + rng.randint(1, k - 1)) % k for t in tails], dtype=np.int64
        )
        tab = _random_table(rng, k, lo=0, hi=2)
        tab[(1 << k) - 1] = 0
        pairs = [(int(t), int(h)) for t, h in zip(tails, heads)]
        first = _first_orientation(k, pairs, tab)
        assert int(K.find_orientation(k, tails, heads, tab)) == first
        arc_masks = np.asarray([(1 << t) | (1 << h) for t, h in pairs],
                               dtype=np.int64)
        arcs = [(h, 1 << t | 1 << h) for t, h in pairs]
        assert int(K.arc_violation(k, heads, arc_masks, tab)) == _first_short(
            k, arcs, tab
        )


@st.composite
def demands(draw, k):
    """Signed demands -1..2 on every vertex set of {0..k-1}."""
    return np.asarray(
        draw(st.lists(st.integers(-1, 2), min_size=1 << k, max_size=1 << k)),
        dtype=np.int64,
    )


@st.composite
def headed_arcs(draw):
    """Arcs of a graph (rank 2) or a rank-3 directed hypergraph on k <= 7
    vertices, possibly none, each headed by its first vertex; an arc of
    one vertex enters no set."""
    k = draw(st.integers(1, 7))
    rank = draw(st.sampled_from([2, 3]))
    arcs = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=rank, unique=True),
        max_size=10,
    ))
    return k, [(verts[0], sum(1 << v for v in verts)) for verts in arcs], draw(demands(k))


@given(headed_arcs())
@settings(max_examples=120, deadline=None)
def test_arc_violation_matches_direct_in_degrees(instance):
    k, arcs, tab = instance
    heads = np.asarray([h for h, _ in arcs], dtype=np.int64)
    masks = np.asarray([m for _, m in arcs], dtype=np.int64)
    assert int(K.arc_violation(k, heads, masks, tab)) == _first_short(k, arcs, tab)


@st.composite
def orientation_instances(draw):
    """Edges (loops allowed) on k <= 5 vertices, at most 8 of them."""
    k = draw(st.integers(1, 5))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=8
    ))
    return k, pairs, draw(demands(k))


@given(orientation_instances(), st.sampled_from([1, 8, K._BLOCK_ENTRIES]))
@settings(max_examples=120, deadline=None)
def test_find_orientation_matches_direct_search(instance, block_entries):
    # Small blocks split the orientations into many blocks of one table.
    k, pairs, tab = instance
    tails = np.asarray([t for t, _ in pairs], dtype=np.int64)
    heads = np.asarray([h for _, h in pairs], dtype=np.int64)
    with mock.patch.object(K, "_BLOCK_ENTRIES", block_entries):
        got = int(K.find_orientation(k, tails, heads, tab))
    assert got == _first_orientation(k, pairs, tab)


def test_assignment_best_matches_product_scan(cases):
    for k, masks, _, rng in cases:
        m = rng.randint(1, 2)
        slacks = np.stack(
            [
                np.asarray([rng.randint(0, 3) for _ in range(1 << k)],
                           dtype=np.int64)
                for _ in range(m)
            ]
        )
        for p in range(m):
            slacks[p][0] = 0

        def sparse(part, p):
            return all(_inside(part, a) <= slacks[p][a] for a in range(1 << k))

        best, best_assign = -1, None
        for assign in itertools.product(range(m + 1), repeat=len(masks)):
            parts = [[em for em, q in zip(masks, assign) if q == p]
                     for p in range(m)]
            if not all(sparse(parts[p], p) for p in range(m)):
                continue
            used = sum(1 for q in assign if q < m)
            if used > best:
                best, best_assign = used, list(assign)
        got_best, got_assign = K.assignment_best(k, masks, slacks, np.int64(-1))
        assert int(got_best) == best
        assert [int(q) for q in got_assign] == best_assign


def _breaks(tab, a, b, mode):
    """Whether the pair (a, b) breaks the two-set property of the mode."""
    if mode == 0:
        return tab[a & b] + tab[a | b] < tab[a] + tab[b]
    if mode == 1:
        return a & b != 0 and tab[a & b] + tab[a | b] < tab[a] + tab[b]
    if mode == 2:
        return (a & b != 0 and tab[a] > 0 and tab[b] > 0
                and tab[a & b] + tab[a | b] < tab[a] + tab[b])
    if mode == 3:
        return a & b == 0 and tab[a] + tab[b] < tab[a | b]
    return a != 0 and a & ~b == 0 and tab[a] < tab[b]


def test_pair_violation_matches_row_major_scan(cases):
    for k, _, tab, _ in cases:
        for mode in range(5):
            first = next(
                ([a, b] for a in range(1 << k) for b in range(1 << k)
                 if _breaks(tab, a, b, mode)),
                [],
            )
            assert [int(x) for x in K.pair_violation(tab, k, mode)] == first


def test_empty_edge_sets():
    tab = np.zeros(4, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    val, rgs, exceeded = K.partition_scan(2, empty, tab, K.HUGE)
    assert int(val) == 0 and not exceeded
    assert int(K.sparse_violation(2, empty, tab)) == -1
    assert int(K.arc_violation(2, empty, empty, tab)) == -1
    assert int(K.find_orientation(2, empty, empty, tab)) == 0
    assert int(K.find_orientation(2, empty, empty, tab + 1)) == -1
    best, assign = K.assignment_best(2, empty, np.zeros((1, 4), dtype=np.int64),
                                     np.int64(-1))
    assert int(best) == 0 and len(assign) == 0
