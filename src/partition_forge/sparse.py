"""Sparse spanning subgraphs and their matroid structure.

An edge set F is l-sparse when every vertex set A satisfies
``e_F(A) <= sum_{v in A} l(v) - l(A)``.  The maximal sparse sets are the
bases of a matroid; every basis has exactly ``sum l(v) - l(V)`` edges and
is minimally l-partition-connected.
"""

import numpy as np

from . import _kernels
from .bits import as_mask, bit_list
from .errors import (
    Disconnected,
    InternalError,
    NotPartitionConnected,
    NotSparse,
    ValidationError,
)
from .hosts import EdgeSubset
from .limits import EDGE_SEARCH_LIMIT, SUBSET_LIMIT, check
from .setfn import ensure_properties
from .theta import pc_violation

_BASE_FLAGS = ("intersecting-supermodular", "weakly-subadditive")


class Basis:
    """A maximal l-sparse edge set (minimally partition-connected)."""

    def __init__(self, edges):
        self.edges = edges

    def indices(self):
        return self.edges.indices()

    def __eq__(self, other):
        return isinstance(other, Basis) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"Basis({list(self.indices())})"


def _members(host, edges):
    if isinstance(edges, Basis):
        edges = edges.edges
    if isinstance(edges, EdgeSubset):
        return edges.members
    return frozenset(int(i) for i in edges)


def sparse_violation(host, edges, l, *, limit=SUBSET_LIMIT, trust_flags=None):
    """First vertex set (as a mask) packing too many of the given edges,
    or None if the edge set is l-sparse."""
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    check(host.n, limit, "vertex count")
    members = _members(host, edges)
    ems = _kernels.as_mask_array(host.edge_masks[i] for i in sorted(members))
    bad = int(_kernels.sparse_violation(host.n, ems, l.slack_table(host.n)))
    return None if bad < 0 else bad


def is_sparse(host, edges, l, *, limit=SUBSET_LIMIT, trust_flags=None):
    return sparse_violation(host, edges, l, limit=limit, trust_flags=trust_flags) is None


def _greedy_owner(host, functions):
    """Each edge, in index order, joins the first part it keeps sparse."""
    m = len(functions)
    masks = np.arange(1 << host.n, dtype=np.int64)
    slacks = [l.slack_table(host.n) for l in functions]
    counts = [np.zeros(1 << host.n, dtype=np.int64) for _ in range(m)]
    owner = [m] * host.edge_count
    for e, em in enumerate(host.edge_masks):
        inside_e = (masks & em) == em
        for i in range(m):
            if np.all(counts[i] + inside_e <= slacks[i]):
                counts[i] += inside_e
                owner[e] = i
                break
    return owner


def max_sparse(host, l, *, trust_flags=None):
    """Greedy maximal l-sparse edge set in index order; by the matroid
    property it also has maximum cardinality."""
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    owner = _greedy_owner(host, [l])
    return EdgeSubset(host, [e for e, part in enumerate(owner) if part == 0])


def basis_size(host, l):
    """Edge count of every basis: ``sum_v l(v) - l(V)``."""
    return sum(l.value(1 << v) for v in range(host.n)) - l.value(host.full_mask)


def _is_pc_members(host, members, l):
    """Partition-connectivity of the spanning subgraph with these edges."""
    if host.n == 0:
        return True
    ltab = l.table(host.n)
    ems = _kernels.as_mask_array(host.edge_masks[i] for i in sorted(members))
    _, _, exceeded = _kernels.partition_scan(host.n, ems, ltab, ltab[-1])
    return not exceeded


def _enumerate_bases(host, l, forced=frozenset(), *, trust_flags=None):
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    check(host.edge_count, EDGE_SEARCH_LIMIT, "edge count")
    witness = pc_violation(host, l, trust_flags=True)
    if witness is not None:
        raise NotPartitionConnected("host is not l-partition-connected", witness)
    target = basis_size(host, l)
    slack = l.slack_table(host.n)
    forced = frozenset(forced)
    bad = sparse_violation(host, forced, l, trust_flags=True)
    if bad is not None:
        raise NotSparse("forced edge set is not l-sparse", vertex_set=bad)
    free = [i for i in range(host.edge_count) if i not in forced]
    base = sorted(forced)

    def sparse_ok(members):
        ems = _kernels.as_mask_array(host.edge_masks[i] for i in members)
        return _kernels.sparse_violation(host.n, ems, slack) < 0

    def dfs(start, chosen):
        if len(chosen) == target:
            members = sorted(chosen)
            if not _is_pc_members(host, members, l):
                raise InternalError(
                    "sparse set of full size failed the connectivity recheck"
                )
            yield Basis(EdgeSubset(host, members))
            return
        for pos in range(start, len(free)):
            if len(chosen) + (len(free) - pos) < target:
                return
            i = free[pos]
            trial = chosen + [i]
            if sparse_ok(trial):
                yield from dfs(pos + 1, trial)

    if len(base) > target:
        return
    if len(base) == target:
        if sparse_ok(base):
            yield Basis(EdgeSubset(host, base))
        return
    yield from dfs(0, base)


def enumerate_bases(graph, l, *, trust_flags=None):
    """Every minimally l-partition-connected spanning subgraph, exactly
    once, in lexicographic edge-index order.

    Each yielded basis is rechecked for partition-connectivity before it
    leaves the generator.
    """
    return _enumerate_bases(graph, l, trust_flags=trust_flags)


class MinPcResult:
    """Minimum vertex set spanning the targets, plus a uniqueness flag."""

    __slots__ = ("vertices", "unique")

    def __init__(self, vertices, unique):
        self.vertices = vertices
        self.unique = unique

    def vertex_list(self):
        return bit_list(self.vertices)

    def __repr__(self):
        return f"MinPcResult({self.vertex_list()}, unique={self.unique})"


def min_pc_subgraph(edges, l, targets, *, trust_flags=None):
    """Smallest vertex set X containing the targets such that the induced
    part of the l-sparse edge set on X is l-partition-connected.

    For a sparse F, F[X] is partition-connected exactly when X is tight,
    ``e_F(X) = sum_{v in X} l(v) - l(X)``, and the tight sets containing a
    nonempty target set are closed under intersection.  The answer is the
    intersection of all of them, so it is always ``unique``.  Raises
    :class:`NotSparse` when the edge set is not sparse and
    :class:`Disconnected` when no tight set contains the targets.
    """
    if not isinstance(edges, EdgeSubset):
        raise ValidationError("min_pc_subgraph expects an EdgeSubset")
    host = edges.host
    y = as_mask(targets, host.n)
    if y == 0:
        raise ValidationError("target vertex set must be nonempty")
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    check(host.n, SUBSET_LIMIT, "vertex count")
    slack = l.slack_table(host.n)
    counts = _kernels.count_inside(host.n, _kernels.as_mask_array(edges.masks()))
    bad = np.nonzero(counts > slack)[0]
    if bad.size:
        raise NotSparse("edge set is not l-sparse", vertex_set=int(bad[0]))
    masks = np.arange(1 << host.n, dtype=np.int64)
    tight = masks[(counts == slack) & (masks & y == y)]
    if not tight.size:
        raise Disconnected("no partition-connected vertex set contains the targets")
    return MinPcResult(int(np.bitwise_and.reduce(tight)), True)


def e_star_table(graph, l, *, trust_flags=None):
    """For every vertex set S (indexed by mask): the maximum number of
    edges inside S over all bases."""
    best = np.full(1 << graph.n, -1, dtype=np.int64)
    for basis in _enumerate_bases(graph, l, trust_flags=trust_flags):
        ems = _kernels.as_mask_array(
            graph.edge_masks[i] for i in basis.indices()
        )
        counts = _kernels.count_inside(graph.n, ems)
        np.maximum(best, counts, out=best)
    if best[0] < 0:
        raise Disconnected("host has no basis")
    return best


def e_star(graph, l, vertex_set, *, trust_flags=None):
    """Maximum edge count inside the vertex set over every basis."""
    s = as_mask(vertex_set, graph.n)
    return int(e_star_table(graph, l, trust_flags=trust_flags)[s])
