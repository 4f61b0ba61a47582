"""The partition-connectivity measure.

For a set function ``l``, a host is l-partition-connected when every
partition P of its vertex set has at least ``sum_{A in P} l(A) - l(V)``
crossing edges.  The measure ``theta_l`` is the maximum over partitions
of ``sum l(A) - e(P)``; it equals ``l(V)`` exactly on partition-connected
hosts, and it also arises from the unique decomposition into maximal
partition-connected pieces.  Both routes are implemented and
cross-checked in the tests.

They read one subset DP (:func:`_kernels.partition_table`): with i(X)
the number of edges inside X, the measure of the sub-host induced on S is
``g(S) - i(S)``, where ``g(S)`` is the maximum over partitions of S of
``sum (l(A) + i(A))``.  One O(3^n) table gives it for every S at once.
The oracle, the violation witness and :func:`theta_without` read it
through ``partition_scan``, which also rebuilds a maximizing partition.
Every other question, about a host or about a set of its edges, reads
:func:`_table` on the host's own vertex labels: a sweep over removed
vertex sets S reads ``g(V - S) - i(V - S)``, and a recheck of an edge
set needs no host of its own.

One class of inputs skips the table.  On a graph with the demand
``vertex_bulk(a, b)``, 0 <= b <= a, theta is ``a*n - |F|`` for a maximal
sparse F, which the (a, b)-pebble game finds in O(n*m) (:func:`_rank`).
``theta_oracle``, ``is_pc``, ``pc_violation``, ``pc_components`` and
``theta`` read it there; a witness and the components are the maximal
F-tight sets, from one inside-count table of F.  Each answer leaves with
its weak-duality certificate, a partition P with
``sum_{A in P} l(A) - e(P) = a*n - |F|``.  The vertex limit binds both
routes; the table stays the reader's test oracle.
"""

import numpy as np

from . import _kernels
from .bits import as_mask, bit_count, bit_list, low_bit_index, mask_of
from .errors import InternalError
from .hosts import Partition, _edge_subset_indices, cross_edges, partition_from_labels
from .limits import PARTITION_ENUM_LIMIT, check
from .setfn import ensure_properties


class ComponentDecomposition:
    """Maximal partition-connected blocks plus the measure they realize."""

    def __init__(self, partition, theta_value):
        self.partition = partition
        self.theta_value = theta_value

    def __repr__(self):
        return f"ComponentDecomposition({self.partition!r}, theta={self.theta_value})"


def _table(host, l, members=None, *, limit=PARTITION_ENUM_LIMIT):
    """The partition table of the member edges (every edge when None) on
    the host's own vertex labels: ``(g, inside, ltab)``, each indexed by
    vertex mask, so ``g[S] - inside[S]`` is theta of the spanning subgraph
    of those edges induced on S."""
    check(host.n, limit, "vertex count")
    ltab = l.table(host.n)
    idx = range(host.edge_count) if members is None else members
    ems = _kernels.as_mask_array(host.edge_masks[i] for i in idx)
    g, inside = _kernels.partition_table(host.n, ems, ltab)
    return g, inside, ltab


def _spans_pc(host, members, l):
    """The member edges span an l-partition-connected subgraph."""
    g, inside, ltab = _table(host, l, members)
    return bool(g[-1] - inside[-1] == ltab[-1])


def _sub_tables(host, l, sub_mask):
    """Relabel the induced sub-host on ``sub_mask`` to 0..k-1.

    Returns ``(k, verts, edge_masks, ltab)`` with ``ltab`` the values of
    ``l`` on the relabeled subsets.
    """
    verts = bit_list(sub_mask)
    k = len(verts)
    rel = np.arange(1 << k, dtype=np.int64)
    orig = np.zeros(1 << k, dtype=np.int64)
    for j, v in enumerate(verts):
        orig |= ((rel >> j) & 1) << v
    ltab = l.table(host.n)[orig] if host.n else np.zeros(1, dtype=np.int64)
    pos = {v: j for j, v in enumerate(verts)}
    ems = []
    for em in host.edge_masks:
        if em & ~sub_mask == 0:
            ems.append(mask_of(pos[v] for v in bit_list(em)))
    return k, verts, _kernels.as_mask_array(ems), ltab


def _scan_full(host, l, *, limit, bound=None):
    k = host.n
    check(k, limit, "vertex count")
    if k == 0:
        return 0, None, False
    ltab = l.table(k)
    ems = _kernels.as_mask_array(host.edge_masks)
    b = _kernels.HUGE if bound is None else np.int64(bound)
    val, rgs, exceeded = _kernels.partition_scan(k, ems, ltab, b)
    return int(val), rgs, bool(exceeded)


def _draw_pebble(u, v, pebbles, out):
    """Bring one pebble to u or v from a vertex that their arcs reach,
    reversing the arcs of its path; None when one came, else the reached
    vertices."""
    parent = {u: None, v: None}
    stack = [u, v]
    while stack:
        x = stack.pop()
        for y in out[x]:
            if y in parent:
                continue
            parent[y] = x
            if pebbles[y]:
                pebbles[y] -= 1
                while parent[y] is not None:
                    x = parent[y]
                    out[x].remove(y)
                    out[y].append(x)
                    y = x
                pebbles[y] += 1
                return None
            stack.append(y)
    return parent


def _pebble(n, edge_masks, a, b):
    """The (a, b)-pebble game over the edges in index order (A. Lee,
    I. Streinu, "Pebble game algorithms and sparse graphs", 2008).

    Each vertex starts with a pebbles, and an accepted edge is an arc
    holding one pebble of its tail.  An edge is accepted when b + 1
    pebbles can be gathered on its ends.  When they cannot, the vertices
    its ends reach hold b pebbles and no arc leaves them, so they span
    ``a*|R| - b`` accepted edges: R is tight and holds the edge.  Two
    tight sets that meet join into one, which b <= a keeps tight, and an
    edge inside a joined set is rejected with no search.  Returns the
    accepted edge indices and the joined sets.
    """
    pebbles = [a] * n
    out = [[] for _ in range(n)]
    joined = [0] * n
    accepted = []
    for i, em in enumerate(edge_masks):
        u, v = low_bit_index(em), em.bit_length() - 1
        if em & ~joined[u] == 0:
            continue
        reach = None
        while reach is None and pebbles[u] + pebbles[v] <= b:
            reach = _draw_pebble(u, v, pebbles, out)
        if reach is None:
            tail = u if pebbles[u] else v
            pebbles[tail] -= 1
            out[tail].append(u + v - tail)
            accepted.append(i)
        else:
            tight = mask_of(reach)
            for w in reach:
                tight |= joined[w]
            for w in bit_list(tight):
                joined[w] = tight
    return accepted, {s for s in joined if s}


def _certified(host, l, value, blocks):
    """The partition of the blocks and of singletons on the other vertices,
    after checking that it reaches ``value`` = a*n - |F|.  By weak duality
    every partition P and l-sparse F have ``sum l(A) - e(P) <= a*n - |F|``,
    so reaching it proves the value is theta."""
    rest = host.full_mask
    for s in blocks:
        rest &= ~s
    partition = Partition(list(blocks) + [1 << v for v in bit_list(rest)], host.full_mask)
    if sum(l.value(s) for s in partition.blocks) - cross_edges(host, partition) != value:
        raise InternalError("the pebble game's partition does not certify its rank")
    return partition


def _maximal_blocks(full_mask, sets):
    """The maximal members of ``sets`` (an int64 mask array holding every
    singleton, closed under unions of members that meet): for each lowest
    vertex left, the OR of the members that hold it."""
    blocks = []
    remaining = full_mask
    while remaining:
        low = remaining & -remaining
        block = int(np.bitwise_or.reduce(sets[sets & low != 0]))
        blocks.append(block)
        remaining &= ~block
    return blocks


def _tight_sets(host, l, accepted):
    """The maximal F-tight sets, read off one inside-count table of F as
    :func:`sparse.min_pc_subgraph` reads them, after checking that F is
    l-sparse."""
    ems = _kernels.as_mask_array(host.edge_masks[i] for i in accepted)
    counts = _kernels.count_inside(host.n, ems)
    slack = l.slack_table(host.n)
    if (counts > slack).any():
        raise InternalError("the pebble game accepted an edge set that is not sparse")
    return _maximal_blocks(host.full_mask, np.flatnonzero(counts == slack))


def _rank(host, l, limit):
    """``(theta, F, joined)`` from the pebble game, or None where it does
    not apply.

    On a graph host with ``l = vertex_bulk(a, b)``, 0 <= b <= a, the
    l-sparse edge sets are the independent sets of the (a, b)-count
    matroid, and theta is ``a*n - |F|`` for the maximal sparse F that the
    game accepts (the Edmonds-Rota rank formula).  Callers certify it
    (:func:`_certified`) on the joined tight sets of the game or on the
    maximal F-tight sets (:func:`_tight_sets`).  The vertex limit binds
    here too.
    """
    check(host.n, limit, "vertex count")
    pair = l._pair
    if (pair is None or not 0 <= pair[1] <= pair[0]
            or any(em.bit_count() != 2 for em in host.edge_masks)):
        return None
    a, b = pair
    accepted, joined = _pebble(host.n, host.edge_masks, a, b)
    return a * host.n - len(accepted), accepted, joined


def theta_oracle(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """Maximum of ``sum l(A) - e(P)`` over every partition of the vertex
    set; 0 on the empty host."""
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    rank = _rank(host, l, limit)
    if rank is None:
        value = _scan_full(host, l, limit=limit)[0]
    else:
        value, _, joined = rank
        _certified(host, l, value, joined)
    if host.n == 0:
        return 0
    lg = l.value(host.full_mask)
    if value < lg:
        raise InternalError("theta fell below l(V); the partition table is broken")
    return value


def pc_violation(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """A partition witnessing that the host is not l-partition-connected,
    or None."""
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    if host.n == 0:
        return None
    bound = l.value(host.full_mask)
    rank = _rank(host, l, limit)
    if rank is not None:
        value, accepted, joined = rank
        if value == bound:
            _certified(host, l, value, joined)
            return None
        return _certified(host, l, value, _tight_sets(host, l, accepted))
    _, rgs, exceeded = _scan_full(host, l, limit=limit, bound=bound)
    if not exceeded:
        return None
    return partition_from_labels(rgs, list(range(host.n)), host.full_mask)


def is_pc(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """True iff theta equals l(V), i.e. no partition violates the
    crossing-edge inequality."""
    value = theta_oracle(host, l, limit=limit, trust_flags=trust_flags)
    return value == l.value(host.full_mask)


def pc_components(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """The unique decomposition into maximal l-partition-connected blocks.

    A vertex set S is partition-connected iff ``g(S) - i(S) = l(S)`` in
    the host's partition table, and every singleton is.  For an
    intersecting supermodular l the union of two intersecting
    partition-connected sets is partition-connected (A. Frank,
    *Connections in Combinatorial Optimization*, 2011), so the union of
    all partition-connected sets holding a vertex v is itself one, the
    largest: the block of v.  A connected set meeting that block lies
    inside it, so the blocks are disjoint and the lowest vertex left over
    always starts a new one; each block is one OR over the connected masks
    that hold its vertex.  Where the pebble game applies, the blocks are
    the maximal tight sets of its maximal sparse F instead.
    """
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    rank = _rank(host, l, limit)
    if rank is not None:
        value, accepted, _ = rank
        partition = _certified(host, l, value, _tight_sets(host, l, accepted))
    else:
        g, inside, ltab = _table(host, l, limit=limit)
        blocks = _maximal_blocks(host.full_mask, np.flatnonzero(g - inside == ltab))
        partition = Partition(blocks, host.full_mask)
        value = sum(l.value(b) for b in partition.blocks) - cross_edges(host, partition)
    if value < l.value(host.full_mask):
        raise InternalError("theta fell below l(V)")
    return ComponentDecomposition(partition, value)


def theta(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """The measure via the component decomposition (equals the oracle)."""
    return pc_components(host, l, limit=limit, trust_flags=trust_flags).theta_value


def theta_without(host, l, vertex_set, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """Theta of the sub-host induced on the complement of the vertex set.

    Edges (and hyperedges) touching the removed set disappear.  Defined
    directly as the maximum over partitions of the remainder.
    """
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    s = as_mask(vertex_set, host.n)
    sub = host.full_mask & ~s
    k = bit_count(sub)
    check(k, limit, "vertex count")
    if k == 0:
        return 0
    kk, _, ems, ltab = _sub_tables(host, l, sub)
    val, _, _ = _kernels.partition_scan(kk, ems, ltab, _kernels.HUGE)
    return int(val)


def theta_restricted(graph, l, vertex_set, keep, *, limit=PARTITION_ENUM_LIMIT,
                     trust_flags=None):
    """Theta after dropping the edges incident to the vertex set except
    the kept ones; all vertices remain."""
    ensure_properties(l, ("intersecting-supermodular",), graph.n, trust=trust_flags)
    s = as_mask(vertex_set, graph.n)
    kept = _edge_subset_indices(graph, keep)
    members = [
        i for i, em in enumerate(graph.edge_masks) if em & s == 0 or i in kept
    ]
    g, inside, _ = _table(graph, l, members, limit=limit)
    return int(g[-1] - inside[-1])
