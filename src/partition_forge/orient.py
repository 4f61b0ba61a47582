"""Constrained orientations and hypergraph trimming.

An orientation is l-arc-connected when every vertex set A has in-degree
at least l(A); for a function that is zero on the whole ground set, such
an orientation exists exactly when the host is l-partition-connected.
Trimming replaces hyperedges of size three or more by smaller subsets
(heads kept in the directed case) while preserving partition-
connectivity, sparseness, or arc-connectivity; every step is re-verified.
"""

from math import ceil, floor

import numpy as np

from . import _kernels
from .errors import (
    ConditionViolated,
    InternalError,
    NotArcConnected,
    NotPartitionConnected,
    NotSparse,
    ValidationError,
)
from .hosts import (
    EdgeSubset,
    Hyperedge,
    Hypergraph,
    Orientation,
    spanning_host,
)
from .limits import ORIENTATION_EDGE_LIMIT, check
from .setfn import ensure_properties, fn_sum, rooted_shift, vertex_weights
from .sparse import sparse_violation
from .theta import _spans_pc, is_pc, pc_violation

_MIN_ARC_FLAGS = (
    "element-nonincreasing",
    "positively-intersecting-supermodular",
    "nonnegative",
)


def _arc_arrays(directed, members=None):
    """Uniform (head vertex, vertex mask) arrays for an orientation or a
    directed hypergraph, optionally restricted to the given arc indices."""
    if isinstance(directed, Orientation):
        n = directed.host.n
        idx = range(directed.host.edge_count) if members is None else sorted(members)
        heads = [directed.head_of[i] for i in idx]
        masks = [directed.host.edge_masks[i] for i in idx]
    elif isinstance(directed, Hypergraph):
        if not all(h is not None for h in directed.heads):
            raise ValidationError("every hyperedge needs a head")
        n = directed.n
        idx = range(directed.edge_count) if members is None else sorted(members)
        heads = [directed.heads[i] for i in idx]
        masks = [directed.edge_masks[i] for i in idx]
    else:
        raise ValidationError("expected an Orientation or a directed Hypergraph")
    return n, np.asarray(heads, dtype=np.int64), _kernels.as_mask_array(masks)


def arc_connectivity_violation(directed, l, members=None):
    """Vertex set (mask) whose in-degree falls below l, or None."""
    n, heads, masks = _arc_arrays(directed, members)
    if n == 0:
        return None
    bad = int(_kernels.arc_violation(n, heads, masks, l.table(n)))
    return None if bad < 0 else bad


def orient_arc_connected(graph, l, *, limit=ORIENTATION_EDGE_LIMIT,
                         require_flags=True, trust_flags=None):
    """Orientation with in-degree at least l(A) on every vertex set, by
    exhaustive search; None when no orientation works.

    For a nonnegative intersecting supermodular l that vanishes on the
    whole vertex set, existence is equivalent to l-partition-connectivity
    of the host; both directions are checked.
    """
    check(graph.edge_count, limit, "edge count")
    if require_flags:
        ensure_properties(
            l, ("intersecting-supermodular", "nonnegative"), graph.n,
            trust=trust_flags,
        )
        if graph.n and l.value(graph.full_mask) != 0:
            raise ValidationError("l must vanish on the full vertex set")
    if graph.n == 0:
        return Orientation(graph, ())
    tails = np.asarray([u for u, _ in graph.edges], dtype=np.int64)
    heads = np.asarray([v for _, v in graph.edges], dtype=np.int64)
    om = int(_kernels.find_orientation(graph.n, tails, heads, l.table(graph.n)))
    if require_flags:
        connected = is_pc(graph, l, trust_flags=True)
        if (om >= 0) != connected:
            raise InternalError(
                "orientation existence disagreed with partition-connectivity"
            )
    if om < 0:
        return None
    head_of = [
        graph.edges[i][1] if (om >> i) & 1 else graph.edges[i][0]
        for i in range(graph.edge_count)
    ]
    return Orientation(graph, head_of)


def min_arc_subdigraph(directed, l, *, trust_flags=None):
    """Greedy arc removal in index order while l-arc-connectivity holds.

    When l carries the interpreted flags (element-nonincreasing and
    positively intersecting supermodular, nonnegative, zero on the full
    set), the result has in-degree exactly l(v) at every vertex; that is
    checked in that case.
    """
    n, all_heads, all_masks = _arc_arrays(directed)
    bad = arc_connectivity_violation(directed, l)
    if bad is not None:
        raise NotArcConnected("input is not l-arc-connected", vertex_set=bad)
    ltab = l.table(n) if n else None
    members = list(range(len(all_heads)))
    for i in list(members):
        trial = [j for j in members if j != i]
        heads = all_heads[trial]
        masks = all_masks[trial]
        if n == 0 or int(_kernels.arc_violation(n, heads, masks, ltab)) < 0:
            members = trial
    host = directed.host if isinstance(directed, Orientation) else directed
    result = EdgeSubset(host, members)
    exact_degrees_expected = (
        l.has_flags(*_MIN_ARC_FLAGS)
        and n > 0
        and l.value(host.full_mask) == 0
    )
    if exact_degrees_expected:
        for v in range(n):
            indeg = sum(1 for j in members if int(all_heads[j]) == v)
            if indeg != l.value(1 << v):
                raise InternalError(
                    "minimal arc-connected subdigraph missed the exact in-degree"
                )
    return result


def orient_decompose(graph, functions, u, roots=None, *, trust_flags=None):
    """Orientation of the whole host together with edge-disjoint spanning
    parts, part i l_i-arc-connected, where every out-degree stays at or
    below ceil(d(v)/2) and at the chosen vertex below floor(d(u)/2).

    Requires the host to be 2*(l_1+...+l_m)-edge-connected, and without
    roots every l_i to vanish on the full vertex set.  With roots, part i
    is instead r_i-rooted l_i-arc-connected (the shifted functions drive
    the same construction).
    """
    from .decompose import decompose_pc
    from .extract import kl_edge_connected

    functions = list(functions)
    if not 0 <= u < graph.n:
        raise ValidationError("u out of range")
    if roots is None and any(l.value(graph.full_mask) != 0 for l in functions):
        raise ValidationError("l must vanish on the full vertex set")
    if functions:
        total = fn_sum(*functions)
        bad = kl_edge_connected(graph, total, 2)
        if bad is not None:
            raise ConditionViolated(
                "host is not 2*(sum l_i)-edge-connected", vertex_set=bad
            )
    # The functions may be wider than the host: roots and balance weights
    # are zero on the vertices beyond it.
    arity = next((l.n for l in functions if l.n is not None), graph.n)
    if roots is not None:
        if len(roots) != len(functions):
            raise ValidationError("one root vector per function required")
        shifted = []
        for l, r in zip(functions, roots):
            if sum(r) != l.value(graph.full_mask):
                raise ValidationError("roots must sum to l(V)")
            shifted.append(rooted_shift(l, list(r) + [0] * (arity - len(r))))
        functions = shifted
    degs = graph.degrees()
    lsum = [sum(l.value(1 << v) for l in functions) for v in range(graph.n)]
    weights = [
        (ceil(degs[v] / 2) if v == u else floor(degs[v] / 2)) - lsum[v]
        for v in range(graph.n)
    ]
    if any(w < 0 for w in weights):
        raise ConditionViolated("a vertex degree is too small for the balance part")
    balance = vertex_weights(weights + [0] * (arity - graph.n))
    dec = decompose_pc(graph, [balance] + functions, trust_flags=trust_flags)
    head_of = [None] * graph.edge_count
    parts = []
    for part, l in zip(dec.parts, [balance] + functions):
        sub = spanning_host(graph, part.members)
        orient = orient_arc_connected(sub, l, require_flags=False)
        if orient is None:
            raise NotArcConnected(
                "a packed part admits no l-arc-connected orientation "
                "(roots may be too uneven)"
            )
        for local, orig in enumerate(part.indices()):
            head_of[orig] = orient.head_of[local]
        parts.append(part)
    orientation = Orientation(graph, head_of)
    if any(orientation.out_degree(v) > ceil(degs[v] / 2) for v in range(graph.n)):
        raise InternalError("an out-degree exceeds half the degree")
    if orientation.out_degree(u) > floor(degs[u] / 2):
        raise InternalError("the out-degree at u exceeds its reduced bound")
    for part, l in zip(parts[1:], functions):
        if arc_connectivity_violation(orientation, l, part.members) is not None:
            raise InternalError("a part lost its arc-connectivity")
    return orientation, parts[1:]


def extract_bounded_via_orientation(graph, l, h, *, trust_flags=None):
    """Degree-bounded partition-connected spanning subgraph by the
    orientation route: orient the host against boosted singleton demands,
    then shrink to a minimal arc-connected subdigraph.

    Requires a nonincreasing nonnegative intersecting supermodular l.
    The underlying edge set is returned; it is partition-connected for l
    and has degree at most h(v) everywhere, both checked.
    """
    from .extract import DegreeTarget

    ensure_properties(
        l, ("nonincreasing", "intersecting-supermodular", "nonnegative"),
        graph.n, trust=trust_flags,
    )
    n = graph.n
    hvals = DegreeTarget.of(h, n).resolve(graph)
    degs = graph.degrees()
    # Root all of l(V) at vertex 0, then raise each singleton demand by
    # the degree that h(v) cuts off at v (l may be wider than the host).
    arity = n if l.n is None else l.n
    lg = l.value(graph.full_mask)
    ell = rooted_shift(l, [lg if v == 0 else 0 for v in range(arity)]).with_flags(
        "intersecting-supermodular",
        "nonnegative",
        "element-nonincreasing",
        "positively-intersecting-supermodular",
    )
    cut = [max(0, degs[v] - hvals[v]) for v in range(n)]
    ell_up = fn_sum(ell, vertex_weights(cut + [0] * (arity - n)))
    witness = pc_violation(graph, ell_up, trust_flags=True)
    if witness is not None:
        raise ConditionViolated(
            "host is not partition-connected for the boosted demands; "
            "the degree bounds are not reachable this way",
        )
    orient = orient_arc_connected(graph, ell_up, require_flags=False)
    if orient is None:
        raise InternalError("partition-connected host had no orientation")
    result = min_arc_subdigraph(orient, ell, trust_flags=True)
    if not _spans_pc(graph, result.members, l):
        raise InternalError("orientation route lost connectivity")
    rd = result.degrees()
    if any(rd[v] > hvals[v] for v in range(n)):
        raise InternalError("degree bound failed")
    return result


def _protected(vertices, head):
    return head if head is not None else min(vertices)


def _trim(host, keeps):
    """Shrink every hyperedge of size three or more to a pair, one vertex
    at a time: drop the first vertex in sorted order (never the head, or
    the smallest vertex of a headless hyperedge) whose removal leaves a
    host on which ``keeps`` holds."""
    hes = [(list(he.vertices), he.head) for he in host.hyperedges]

    def build():
        return Hypergraph(host.n, [Hyperedge(v, h) for v, h in hes])

    for idx in range(len(hes)):
        while len(hes[idx][0]) > 2:
            verts, head = hes[idx]
            keep = _protected(verts, head)
            for x in sorted(v for v in verts if v != keep):
                hes[idx] = ([v for v in verts if v != x], head)
                if keeps(build()):
                    break
            else:
                raise InternalError("no vertex removal preserved the trimmed property")
    return build()


def trim_pc(host, l, *, trust_flags=None):
    """Trim every hyperedge down to size two while preserving
    l-partition-connectivity; heads are kept.

    Let x be the first candidate of a hyperedge Z.  When dropping x breaks
    connectivity, a tight partition has a block B with Z - {x} inside B,
    so the next candidate lies in B and dropping it keeps connectivity;
    every step is re-verified.
    """
    ensure_properties(
        l, ("intersecting-supermodular", "weakly-subadditive"), host.n,
        trust=trust_flags,
    )
    witness = pc_violation(host, l, trust_flags=True)
    if witness is not None:
        raise NotPartitionConnected("host is not l-partition-connected", witness)
    return _trim(host, lambda h: pc_violation(h, l, trust_flags=True) is None)


def trim_sparse(host, l, *, trust_flags=None):
    """Trim every hyperedge down to size two while preserving
    l-sparseness; heads are kept.  Some candidate always works."""
    ensure_properties(
        l, ("intersecting-supermodular", "weakly-subadditive"), host.n,
        trust=trust_flags,
    )
    bad = sparse_violation(host, range(host.edge_count), l, trust_flags=True)
    if bad is not None:
        raise NotSparse("host is not l-sparse", vertex_set=bad)
    return _trim(host, lambda h: sparse_violation(
        h, range(h.edge_count), l, trust_flags=True) is None)


def trim_arc(host, l, *, trust_flags=None):
    """Trim a directed hypergraph to a directed graph while preserving
    l-arc-connectivity; heads are kept.  Some candidate always works."""
    if not host.is_directed():
        raise ValidationError("every hyperedge needs a head")
    ensure_properties(
        l, ("positively-intersecting-supermodular",), host.n, trust=trust_flags
    )
    if host.n and l.value(host.full_mask) != 0:
        raise ValidationError("l must vanish on the full vertex set")
    bad = arc_connectivity_violation(host, l)
    if bad is not None:
        raise NotArcConnected("host is not l-arc-connected", vertex_set=bad)
    return _trim(host, lambda h: arc_connectivity_violation(h, l) is None)
