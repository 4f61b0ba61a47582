"""Packing edge-disjoint sparse/partition-connected spanning subgraphs.

The central object is a family of pairwise edge-disjoint parts, part i
being l_i-sparse.  Each l_i-sparse edge set is independent in a count
matroid, so a maximum family is a matroid partition (J. Edmonds, 1965).
Greedy insertion starts it; shortest augmenting paths in the exchange
graph on edges then grow it to the optimum.  Independence is one
comparison of a part's inside-count table with the slack table, and the
circuit an edge closes in a part is the part's edges inside the minimal
tight set containing it (:func:`~partition_forge.sparse.min_pc_subgraph`).
When no augmenting path is left, the vertex components of the edges the
search reached form the witness partition that certifies maximality; its
defining properties are re-verified before it is returned.  On instances
small enough for the exhaustive edge-assignment oracle, ``method="auto"``
returns the oracle's lexicographically first maximum family, a canonical
tie-break among the many maximum families.

A host is (l_1+...+l_m)-partition-connected exactly when it decomposes
into m edge-disjoint spanning parts, part i being l_i-partition-connected
(the classic two-spanning-trees packing is the constant-1, m=2 case).
"""

from collections import deque
from math import ceil, floor

import numpy as np

from . import _kernels
from .bits import bit_list
from .errors import (
    FamilyNotMaximal,
    HypothesisViolated,
    InternalError,
    NotPartitionConnected,
    ValidationError,
)
from .extract import kl_edge_connected
from .hosts import EdgeSubset, Partition, spanning_host
from .limits import ASSIGNMENT_ORACLE_STATES, PARTITION_ENUM_LIMIT, check
from .setfn import ensure_properties, fn_sum, vertex_bulk, vertex_weights
from .sparse import _greedy_owner, basis_size, min_pc_subgraph
from .theta import pc_violation, theta_without

_PACK_FLAGS = ("intersecting-supermodular", "subadditive")


class SparseFamily:
    """Edge-disjoint parts over one host; part i is l_i-sparse."""

    def __init__(self, host, parts, functions):
        self.host = host
        self.parts = tuple(parts)
        self.functions = tuple(functions)
        seen = set()
        for p in self.parts:
            if p.members & seen:
                raise ValidationError("family parts overlap")
            seen |= p.members
        self.covered = frozenset(seen)

    def size(self):
        return len(self.covered)

    def uncovered(self):
        return frozenset(range(self.host.edge_count)) - self.covered

    def assignment(self):
        """Per-edge part index; m means unused."""
        m = len(self.parts)
        out = [m] * self.host.edge_count
        for i, p in enumerate(self.parts):
            for e in p.members:
                out[e] = i
        return tuple(out)

    def __repr__(self):
        return f"SparseFamily({[list(p.indices()) for p in self.parts]})"


class Decomposition:
    """Edge-disjoint spanning parts, part i l_i-partition-connected."""

    def __init__(self, parts, covers_all):
        self.parts = tuple(parts)
        self.covers_all = covers_all

    def __repr__(self):
        return f"Decomposition({[list(p.indices()) for p in self.parts]})"


def _part_is_pc(host, members, l):
    sub = spanning_host(host, members)
    return pc_violation(sub, l, trust_flags=True) is None


def assignment_optimum(host, functions, *, cap=None):
    """Exhaustive oracle: assign every edge to a part or leave it unused,
    maximizing coverage subject to each part staying sparse.

    Returns ``(best_coverage, SparseFamily)``.
    """
    m = len(functions)
    slacks = np.stack([l.slack_table(host.n) for l in functions])
    ems = _kernels.as_mask_array(host.edge_masks)
    cap_val = np.int64(-1 if cap is None else cap)
    best, assign = _kernels.assignment_best(host.n, ems, slacks, cap_val)
    parts = [
        EdgeSubset(host, [e for e in range(host.edge_count) if assign[e] == i])
        for i in range(m)
    ]
    return int(best), SparseFamily(host, parts, functions)


def _augment(host, functions, owner):
    """One breadth-first search of the exchange graph on edges.

    ``owner[e]`` is the part holding edge e, ``len(functions)`` when e is
    uncovered; the search starts from the uncovered edges.  An edge e
    moves straight into a part i not holding it when part i plus e stays
    sparse; otherwise it may replace any edge of part i inside the
    minimal tight set of part i that contains e (the circuit e closes).
    The first straight move ends a shortest augmenting path, which is
    applied to ``owner`` in place, and None is returned.  Without a path,
    returns the set of edges the search reached.
    """
    m = len(functions)
    ems = host.edge_masks
    masks = np.arange(1 << host.n, dtype=np.int64)
    slacks = [l.slack_table(host.n) for l in functions]
    members = [[e for e in range(host.edge_count) if owner[e] == i] for i in range(m)]
    counts = [
        _kernels.count_inside(host.n, _kernels.as_mask_array(ems[f] for f in part))
        for part in members
    ]
    parent = {e: None for e in range(host.edge_count) if owner[e] == m}
    queue = deque(parent)
    while queue:
        e = queue.popleft()
        inside_e = (masks & ems[e]) == ems[e]
        for i in range(m):
            if owner[e] == i:
                continue
            if np.all(counts[i] + inside_e <= slacks[i]):
                while e is not None:
                    owner[e], i = i, owner[e]
                    e = parent[e]
                return None
            tight = min_pc_subgraph(
                EdgeSubset(host, members[i]), functions[i], ems[e], trust_flags=True
            ).vertices
            for f in members[i]:
                if f not in parent and ems[f] & ~tight == 0:
                    parent[f] = e
                    queue.append(f)
    return frozenset(parent)


def max_sparse_family(host, functions, *, method="auto", trust_flags=None):
    """Family of edge-disjoint sparse parts covering as many edges as
    possible.

    ``method="oracle"`` forces the exhaustive assignment search and
    ``method="augment"`` runs greedy insertion plus augmenting paths.
    ``"auto"`` augments too, then hands the known optimum to the oracle
    when its state count is below a threshold, so small instances get the
    oracle's lexicographically first maximum family.
    """
    functions = list(functions)
    if not functions:
        raise ValidationError("need at least one set function")
    for l in functions:
        ensure_properties(l, _PACK_FLAGS, host.n, trust=trust_flags)
    if method not in ("auto", "oracle", "augment"):
        raise ValidationError("method must be 'auto', 'oracle' or 'augment'")
    m = len(functions)
    cap = min(
        host.edge_count,
        sum(max(0, basis_size(host, l)) for l in functions),
    )
    if method == "oracle":
        _, family = assignment_optimum(host, functions, cap=cap)
        return family
    # Greedy insertion alone often reaches the coverage cap, which is an
    # upper bound on any family; no search is needed then.
    owner = _greedy_owner(host, functions)
    covered = sum(1 for a in owner if a < m)
    if covered < cap:
        while covered < cap and _augment(host, functions, owner) is None:
            covered += 1
        if method == "auto" and (m + 1) ** host.edge_count <= ASSIGNMENT_ORACLE_STATES:
            _, family = assignment_optimum(host, functions, cap=covered)
            return family
    parts = [
        EdgeSubset(host, [e for e in range(host.edge_count) if owner[e] == i])
        for i in range(m)
    ]
    return SparseFamily(host, parts, functions)


def witness_partition(host, family):
    """Partition certifying the family is maximum.

    Blocks are the vertex components of the edges an augmenting-path
    search from the uncovered edges reaches.  Both certificate properties
    are re-verified: no uncovered edge crosses the partition, and every
    part induces a partition-connected piece on every block (one
    partition table per part, on the host's own vertex labels).  Together
    these imply no larger family exists; verification failure means the
    family was not maximum.
    """
    reached = _augment(host, family.functions, list(family.assignment()))
    if reached is None:
        raise FamilyNotMaximal("an augmenting path exists")
    parent = list(range(host.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in reached:
        vs = bit_list(host.edge_masks[e])
        for v in vs[1:]:
            parent[find(v)] = find(vs[0])
    blocks = {}
    for v in range(host.n):
        blocks.setdefault(find(v), 0)
        blocks[find(v)] |= 1 << v
    partition = Partition(tuple(blocks.values()), host.full_mask)

    for e in family.uncovered():
        em = host.edge_masks[e]
        if not any(em & ~b == 0 for b in partition.blocks):
            raise FamilyNotMaximal("an uncovered edge crosses the witness partition")
    check(host.n, PARTITION_ENUM_LIMIT, "vertex count")
    for part, l in zip(family.parts, family.functions):
        ltab = l.table(host.n)
        ems = _kernels.as_mask_array(part.masks())
        g, inside = _kernels.partition_table(host.n, ems, ltab)
        for block in partition.blocks:
            if g[block] - inside[block] != ltab[block]:
                raise FamilyNotMaximal(
                    "a part is not partition-connected inside a witness block"
                )
    return partition


def decompose_pc(host, functions, *, trust_flags=None):
    """Split the host into edge-disjoint spanning parts, part i
    l_i-partition-connected, covering every edge.

    Exists iff the host is (l_1+...+l_m)-partition-connected; that is
    checked first and a violating partition is reported otherwise.  Edges
    left over after packing join part 1 (edge addition preserves
    partition-connectivity), and every part is re-verified.
    """
    functions = list(functions)
    for l in functions:
        ensure_properties(l, _PACK_FLAGS, host.n, trust=trust_flags)
    total = fn_sum(*functions)
    witness = pc_violation(host, total, trust_flags=True)
    if witness is not None:
        raise NotPartitionConnected(
            "host is not partition-connected for the sum function", witness
        )
    family = max_sparse_family(host, functions, trust_flags=True)
    for part, l in zip(family.parts, functions):
        if len(part) != basis_size(host, l):
            raise InternalError(
                "a maximum family part missed its basis size on a "
                "partition-connected host"
            )
    leftovers = family.uncovered()
    parts = [
        EdgeSubset(host, set(family.parts[0].members) | set(leftovers))
    ] + [family.parts[i] for i in range(1, len(functions))]
    for part, l in zip(parts, functions):
        if not _part_is_pc(host, part.members, l):
            raise InternalError("a part failed its recheck")
    return Decomposition(parts, covers_all=True)


def pack_trees_pc(graph, m, p, *, trust_flags=None):
    """Packing of m spanning trees plus p spanning parts that are
    partition-connected for the 1-on-vertices, 0-on-bulk function."""
    if m < 0 or p < 0 or m + p == 0:
        raise ValidationError("need m + p >= 1 parts")
    functions = [vertex_bulk(1, 1) for _ in range(m)] + [
        vertex_bulk(1, 0) for _ in range(p)
    ]
    return decompose_pc(graph, functions, trust_flags=trust_flags)


def half_degree_pc(host, l, u, *, trust_flags=None):
    """Partition-connected spanning part H with
    ``d_H(v) <= ceil((r-1)/r * d(v)) + l(v)`` everywhere and the reduced
    bound ``floor((r-1)/r * d(u)) + l(u) - l(V)`` at the chosen vertex
    (r = 2 on graphs, the rank on hypergraphs).

    Requires the host to be r*l-edge-connected.  The complement part is
    built to soak up degree at every vertex, so the bounds are forced.
    """
    ensure_properties(
        l, ("intersecting-supermodular", "subadditive", "nonnegative"),
        host.n, trust=trust_flags,
    )
    if not 0 <= u < host.n:
        raise ValidationError("u out of range")
    r = host.rank if host.is_hypergraph else 2
    if r < 2:
        raise ValidationError("host has no edges")
    bad = kl_edge_connected(host, l, r)
    if bad is not None:
        raise HypothesisViolated(
            "host is not (rank*l)-edge-connected",
            clause="rl-edge-connected", vertex_set=bad,
        )
    degs = host.degrees()
    lg = l.value(host.full_mask)
    weights = []
    for v in range(host.n):
        if v == u:
            weights.append(ceil(degs[v] / r) - l.value(1 << v) + lg)
        else:
            weights.append(floor(degs[v] / r) - l.value(1 << v))
    if any(w < 0 for w in weights):
        raise InternalError("edge-connectivity check left a negative weight")
    ell = vertex_weights(weights)
    dec = decompose_pc(host, [l, ell], trust_flags=True)
    h = dec.parts[0]
    hd = h.degrees()
    for v in range(host.n):
        if hd[v] > ceil((r - 1) * degs[v] / r) + l.value(1 << v):
            raise InternalError("degree bound failed")
    if hd[u] > floor((r - 1) * degs[u] / r) + l.value(1 << u) - lg:
        raise InternalError("reduced degree bound failed at u")
    return h


def hyper_bounded(host, l, h, *, trust_flags=None):
    """Partition-connected spanning sub-hypergraph with degrees at most h.

    The theta-versus-sigma hypothesis is checked for every vertex set S;
    when it holds, pairing l with the overshoot weights
    ``max(0, d(v) - h(v))`` makes the host decomposable and the l-part
    satisfies the bound.
    """
    from .extract import DegreeTarget
    from .hosts import sigma

    ensure_properties(l, _PACK_FLAGS, host.n, trust=trust_flags)
    hvals = DegreeTarget.of(h, host.n).resolve(host)
    lg = l.value(host.full_mask)
    for s in range(1 << host.n):
        lhs = theta_without(host, l, s, trust_flags=True)
        rhs = (
            sum(hvals[v] - l.value(1 << v) for v in bit_list(s))
            + lg
            - sigma(host, s)
        )
        if lhs > rhs:
            raise HypothesisViolated(
                "theta exceeds the degree-availability bound",
                clause="theta-sigma-condition", vertex_set=s,
            )
    degs = host.degrees()
    ell = vertex_weights([max(0, degs[v] - hvals[v]) for v in range(host.n)])
    dec = decompose_pc(host, [l, ell], trust_flags=True)
    part = dec.parts[0]
    pd = part.degrees()
    if any(pd[v] > hvals[v] for v in range(host.n)):
        raise InternalError("degree bound failed")
    return part
