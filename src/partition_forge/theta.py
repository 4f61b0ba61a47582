"""The partition-connectivity measure.

For a set function ``l``, a host is l-partition-connected when every
partition P of its vertex set has at least ``sum_{A in P} l(A) - l(V)``
crossing edges.  The measure ``theta_l`` is the maximum over partitions
of ``sum l(A) - e(P)``; it equals ``l(V)`` exactly on partition-connected
hosts, and it also arises from the unique decomposition into maximal
partition-connected pieces.  Both routes are implemented and
cross-checked in the tests.

They read one subset DP (:func:`_kernels.partition_table`): with
i(X) the number of edges inside X, the measure of the sub-host induced on
S is ``g(S) - i(S)``, where ``g(S)`` is the maximum over partitions of S of
``sum (l(A) + i(A))``.  One O(3^n) table gives it for every S at once.
"""

from itertools import combinations

import numpy as np

from . import _kernels
from .bits import as_mask, bit_count, bit_list, mask_of
from .errors import InternalError
from .hosts import Partition, cross_edges, partition_from_labels, restricted_removal
from .limits import COMPONENT_LIMIT, PARTITION_ENUM_LIMIT, check
from .setfn import ensure_properties


class ComponentDecomposition:
    """Maximal partition-connected blocks plus the measure they realize."""

    def __init__(self, partition, theta_value):
        self.partition = partition
        self.theta_value = theta_value

    def __repr__(self):
        return f"ComponentDecomposition({self.partition!r}, theta={self.theta_value})"


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


def theta_oracle(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """Maximum of ``sum l(A) - e(P)`` over every partition of the vertex
    set; 0 on the empty host."""
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    value, _, _ = _scan_full(host, l, limit=limit)
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
    _, rgs, exceeded = _scan_full(host, l, limit=limit, bound=bound)
    if not exceeded:
        return None
    return partition_from_labels(rgs, list(range(host.n)), host.full_mask)


def is_pc(host, l, *, limit=PARTITION_ENUM_LIMIT, trust_flags=None):
    """True iff theta equals l(V), i.e. no partition violates the
    crossing-edge inequality."""
    return pc_violation(host, l, limit=limit, trust_flags=trust_flags) is None


def pc_components(host, l, *, limit=COMPONENT_LIMIT, trust_flags=None):
    """The unique decomposition into maximal l-partition-connected blocks.

    Greedy over induced subsets in decreasing size: any partition-connected
    set lies inside a single component, so the largest connected subset of
    the remaining vertices is always a component.  Singletons are always
    partition-connected, so the loop terminates.  A set S is
    partition-connected iff ``g(S) - i(S) = l(S)`` in one partition table
    over the host.
    """
    ensure_properties(l, ("intersecting-supermodular",), host.n, trust=trust_flags)
    check(host.n, limit, "vertex count")
    if host.n == 0:
        return ComponentDecomposition(Partition((), 0), 0)
    ltab = l.table(host.n)
    g, inside = _kernels.partition_table(
        host.n, _kernels.as_mask_array(host.edge_masks), ltab
    )
    connected = g - inside == ltab
    blocks = []
    remaining = host.full_mask
    while remaining:
        verts = bit_list(remaining)
        found = None
        for size in range(len(verts), 0, -1):
            for combo in combinations(verts, size):
                m = mask_of(combo)
                if connected[m]:
                    found = m
                    break
            if found is not None:
                break
        blocks.append(found)
        remaining &= ~found
    partition = Partition(blocks, host.full_mask)
    value = sum(l.value(b) for b in partition.blocks) - cross_edges(host, partition)
    if value < l.value(host.full_mask):
        raise InternalError("theta fell below l(V)")
    return ComponentDecomposition(partition, value)


def theta(host, l, *, limit=COMPONENT_LIMIT, trust_flags=None):
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
    stripped = restricted_removal(graph, vertex_set, keep)
    value, _, _ = _scan_full(stripped, l, limit=limit)
    return value if graph.n else 0
