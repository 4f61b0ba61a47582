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
from .hosts import EdgeSubset, _edge_subset_indices
from .limits import EDGE_SEARCH_LIMIT, SUBSET_LIMIT, check
from .setfn import ensure_properties
from .theta import _spans_pc, pc_violation

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


def sparse_violation(host, edges, l, *, limit=SUBSET_LIMIT, trust_flags=None):
    """First vertex set (as a mask) packing too many of the given edges,
    or None if the edge set is l-sparse."""
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    check(host.n, limit, "vertex count")
    if isinstance(edges, Basis):
        edges = edges.edges
    members = _edge_subset_indices(host, edges)
    ems = _kernels.as_mask_array(host.edge_masks[i] for i in sorted(members))
    bad = int(_kernels.sparse_violation(host.n, ems, l.slack_table(host.n)))
    return None if bad < 0 else bad


def is_sparse(host, edges, l, *, limit=SUBSET_LIMIT, trust_flags=None):
    return sparse_violation(host, edges, l, limit=limit, trust_flags=trust_flags) is None


def _containment(host):
    """``contains[e, A]``: edge e lies inside vertex set A (an E x 2**n
    bool array)."""
    masks = np.arange(1 << host.n, dtype=np.int64)
    ems = _kernels.as_mask_array(host.edge_masks)[:, None]
    return (masks & ems) == ems


def _bitset(flags):
    """Python int with bit j set where ``flags[j]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _greedy_owner(host, functions):
    """Each edge, in index order, joins the first part it keeps sparse.

    Part i keeps the room ``slack - counts`` it has left on every vertex
    set, and an edge fits when it lies inside no set whose room is used
    up.  Both sides of that test are Python-int bitsets over the 2**n
    sets: the edge's row of the containment matrix, and the part's filled
    sets (room <= 0), repacked only when an edge joins the part.  Returns
    the owners and the host's :func:`_containment` matrix, which the
    augmenting search reads too.  The slack tables come first, so a host
    too large for them is refused before the matrix is built.
    """
    m = len(functions)
    rooms = [l.slack_table(host.n).copy() for l in functions]
    contains = _containment(host)
    filled = [_bitset(room <= 0) for room in rooms]
    owner = [m] * host.edge_count
    for e, row in enumerate(contains):
        inside = _bitset(row)
        for i in range(m):
            if inside & filled[i] == 0:
                rooms[i] -= row
                filled[i] = _bitset(rooms[i] <= 0)
                owner[e] = i
                break
    return owner, contains


def max_sparse(host, l, *, trust_flags=None):
    """Greedy maximal l-sparse edge set in index order; by the matroid
    property it also has maximum cardinality."""
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    owner, _ = _greedy_owner(host, [l])
    return EdgeSubset(host, [e for e, part in enumerate(owner) if part == 0])


def basis_size(host, l):
    """Edge count of every basis: ``sum_v l(v) - l(V)``, the slack of the
    full vertex set."""
    return int(l.slack_table(host.n)[host.full_mask])


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
            if not _spans_pc(host, members, l):
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
    intersection of all of them, so it is always ``unique``.  The tight
    sets are read once per edge set and set function, from the edge set's
    :meth:`EdgeSubset.inside_counts`, and cached on the edge set, so
    repeated circuit queries on one part cost one mask filter each.
    Raises :class:`NotSparse` when the edge set is not sparse (nothing is
    cached then) and :class:`Disconnected` when no tight set contains the
    targets.
    """
    if not isinstance(edges, EdgeSubset):
        raise ValidationError("min_pc_subgraph expects an EdgeSubset")
    host = edges.host
    y = as_mask(targets, host.n)
    if y == 0:
        raise ValidationError("target vertex set must be nonempty")
    ensure_properties(l, _BASE_FLAGS, host.n, trust=trust_flags)
    check(host.n, SUBSET_LIMIT, "vertex count")
    tight = edges._tight.get(l)
    if tight is None:
        slack = l.slack_table(host.n)
        counts = edges.inside_counts()
        bad = np.nonzero(counts > slack)[0]
        if bad.size:
            raise NotSparse("edge set is not l-sparse", vertex_set=int(bad[0]))
        tight = edges._tight[l] = np.nonzero(counts == slack)[0]
    tight = tight[tight & y == y]
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
