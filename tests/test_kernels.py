"""Kernels against brute force, and the selected path against the fallback
twins (the same code when numba is absent)."""

import random

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


def test_sparse_and_count_twins(cases):
    for k, masks, tab, rng in cases:
        slack = np.asarray([rng.randint(0, 3) for _ in range(1 << k)],
                           dtype=np.int64)
        assert int(K.sparse_violation(k, masks, slack)) == int(
            K.py_sparse_violation(k, masks, slack)
        )
        assert list(K.count_inside(k, masks)) == list(K.py_count_inside(k, masks))
        assert list(K.count_inside(k, masks)) == [
            sum(1 for em in masks if em & ~a == 0) for a in range(1 << k)
        ]


def test_orientation_twins():
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
        a = int(K.find_orientation(k, tails, heads, tab))
        b = int(K.py_find_orientation(k, tails, heads, tab))
        assert a == b
        arc_masks = np.asarray(
            [(1 << int(t)) | (1 << int(h)) for t, h in zip(tails, heads)],
            dtype=np.int64,
        )
        assert int(K.arc_violation(k, heads, arc_masks, tab)) == int(
            K.py_arc_violation(k, heads, arc_masks, tab)
        )


def test_assignment_twins(cases):
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
        a_best, a_assign = K.assignment_best(k, masks, slacks, np.int64(-1))
        b_best, b_assign = K.py_assignment_best(k, masks, slacks, np.int64(-1))
        assert int(a_best) == int(b_best)
        assert list(a_assign) == list(b_assign)


def test_pair_violation_twins(cases):
    for k, _, tab, _ in cases:
        for mode in range(5):
            a = K.pair_violation(tab, k, mode)
            b = K.py_pair_violation(tab, k, mode)
            assert list(a) == list(b)


def test_empty_edge_sets():
    tab = np.zeros(4, dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    val, rgs, exceeded = K.partition_scan(2, empty, tab, K.HUGE)
    assert int(val) == 0 and not exceeded
    assert int(K.sparse_violation(2, empty, tab)) == -1
    best, assign = K.assignment_best(2, empty, np.zeros((1, 4), dtype=np.int64),
                                     np.int64(-1))
    assert int(best) == 0 and len(assign) == 0
