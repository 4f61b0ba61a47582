"""Combinatorial substrates: multigraphs, hypergraphs, partitions,
edge subsets, orientations, and the counting primitives on them.

All values are immutable after construction and every operation is a pure
function, so concurrent use is safe.  Vertex sets are bit masks (see
:mod:`partition_forge.bits`); parallel edges are distinguished by their
position in the edge sequence.
"""

from . import _kernels
from .bits import as_mask, bit_count, bit_list, low_bit_index, mask_of
from .errors import LimitExceeded, MalformedPartition, ValidationError
from .limits import PARTITION_ENUM_LIMIT


class MultiGraph:
    """Loopless undirected multigraph on vertices ``0..n-1``.

    ``edges`` is a sequence of vertex pairs; its order is the canonical
    edge index, so parallel edges are distinguishable.
    """

    is_hypergraph = False

    def __init__(self, n, edges):
        if n < 0 or n > 64:
            raise ValidationError("vertex count must be in 0..64")
        edges = tuple((int(u), int(v)) for u, v in edges)
        for u, v in edges:
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        self.n = n
        self.edges = edges
        self.edge_masks = tuple((1 << u) | (1 << v) for u, v in edges)
        self.full_mask = (1 << n) - 1

    @property
    def edge_count(self):
        return len(self.edges)

    def degree(self, v):
        bit = 1 << v
        return sum(1 for m in self.edge_masks if m & bit)

    def degrees(self):
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"MultiGraph(n={self.n}, edges={list(self.edges)})"


class Hyperedge:
    """Vertex set of size >= 2 with an optional head vertex."""

    __slots__ = ("vertices", "head", "mask")

    def __init__(self, vertices, head=None):
        vertices = tuple(sorted(set(int(v) for v in vertices)))
        if len(vertices) < 2:
            raise ValidationError("hyperedge needs at least two vertices")
        if head is not None and head not in vertices:
            raise ValidationError(f"head {head} not in hyperedge {vertices}")
        self.vertices = vertices
        self.head = head
        self.mask = mask_of(vertices)

    def __eq__(self, other):
        return (
            isinstance(other, Hyperedge)
            and self.vertices == other.vertices
            and self.head == other.head
        )

    def __hash__(self):
        return hash((self.vertices, self.head))

    def __repr__(self):
        if self.head is None:
            return f"Hyperedge({list(self.vertices)})"
        return f"Hyperedge({list(self.vertices)}, head={self.head})"


class Hypergraph:
    """Hypergraph on vertices ``0..n-1``; hyperedge order is the index."""

    is_hypergraph = True

    def __init__(self, n, hyperedges):
        if n < 0 or n > 64:
            raise ValidationError("vertex count must be in 0..64")
        norm = []
        for he in hyperedges:
            if not isinstance(he, Hyperedge):
                if isinstance(he, tuple) and len(he) == 2 and not isinstance(he[0], int):
                    he = Hyperedge(he[0], he[1])
                else:
                    he = Hyperedge(he)
            norm.append(he)
        for he in norm:
            if he.vertices[-1] >= n:
                raise ValidationError(f"hyperedge {he.vertices} out of range for n={n}")
        self.n = n
        self.hyperedges = tuple(norm)
        self.edge_masks = tuple(he.mask for he in norm)
        self.heads = tuple(he.head for he in norm)
        self.full_mask = (1 << n) - 1

    @property
    def edge_count(self):
        return len(self.hyperedges)

    @property
    def rank(self):
        return max((len(he.vertices) for he in self.hyperedges), default=0)

    def degree(self, v):
        bit = 1 << v
        return sum(1 for m in self.edge_masks if m & bit)

    def degrees(self):
        return tuple(self.degree(v) for v in range(self.n))

    def is_directed(self):
        return all(h is not None for h in self.heads)

    def to_multigraph(self):
        """Convert a rank-2 hypergraph to a multigraph (heads dropped)."""
        if self.rank > 2:
            raise ValidationError("hypergraph has rank above 2")
        return MultiGraph(self.n, (he.vertices for he in self.hyperedges))

    def __eq__(self, other):
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.hyperedges == other.hyperedges
        )

    def __hash__(self):
        return hash((self.n, self.hyperedges))

    def __repr__(self):
        return f"Hypergraph(n={self.n}, hyperedges={list(self.hyperedges)})"


class Partition:
    """Disjoint nonempty blocks covering a ground vertex set.

    Blocks are stored as bit masks in canonical order (ascending by their
    smallest vertex), so equal partitions compare equal.
    """

    def __init__(self, blocks, ground):
        blocks = tuple(sorted((int(b) for b in blocks), key=lambda m: m & -m))
        union = 0
        for b in blocks:
            if b == 0:
                raise MalformedPartition("empty block")
            if union & b:
                raise MalformedPartition("blocks overlap")
            union |= b
        if union != ground:
            raise MalformedPartition("blocks do not cover the ground set")
        self.blocks = blocks
        self.ground = ground

    @classmethod
    def from_sets(cls, sets, ground=None):
        blocks = tuple(mask_of(s) if not isinstance(s, int) else s for s in sets)
        if ground is None:
            g = 0
            for b in blocks:
                g |= b
        else:
            g = ground
        return cls(blocks, g)

    @classmethod
    def singletons(cls, ground):
        return cls(tuple(1 << v for v in bit_list(ground)), ground)

    def blocks_as_lists(self):
        return [bit_list(b) for b in self.blocks]

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.blocks == other.blocks
            and self.ground == other.ground
        )

    def __hash__(self):
        return hash((self.blocks, self.ground))

    def __repr__(self):
        return f"Partition({self.blocks_as_lists()})"


class EdgeSubset:
    """Subset of a host's edge indices (a spanning subgraph).

    The subset never changes, so its inside-count table is computed once
    and shared by every reader (:meth:`inside_counts`), and so are the
    tight sets that :func:`~partition_forge.sparse.min_pc_subgraph` reads
    from it, one array per set function.
    """

    def __init__(self, host, members):
        members = frozenset(int(i) for i in members)
        for i in members:
            if not 0 <= i < host.edge_count:
                raise ValidationError(f"edge index {i} out of range")
        self.host = host
        self.members = members
        self._inside = None
        self._tight = {}

    @classmethod
    def full(cls, host):
        return cls(host, range(host.edge_count))

    @classmethod
    def empty(cls, host):
        return cls(host, ())

    def indices(self):
        return tuple(sorted(self.members))

    def masks(self):
        return [self.host.edge_masks[i] for i in self.indices()]

    def inside_counts(self):
        """``counts[A]`` = member edges inside vertex set A, for every mask
        A over the host's vertices (cached and read-only)."""
        if self._inside is None:
            counts = _kernels.count_inside(
                self.host.n, _kernels.as_mask_array(self.masks())
            )
            counts.flags.writeable = False
            self._inside = counts
        return self._inside

    def degree(self, v):
        bit = 1 << v
        return sum(1 for i in self.members if self.host.edge_masks[i] & bit)

    def degrees(self):
        degs = [0] * self.host.n
        for i in self.members:
            for v in bit_list(self.host.edge_masks[i]):
                degs[v] += 1
        return tuple(degs)

    def complement(self):
        return EdgeSubset(self.host, set(range(self.host.edge_count)) - self.members)

    def union(self, other):
        return EdgeSubset(self.host, self.members | set(other))

    def as_host(self):
        """Same-type host containing only the member edges (reindexed)."""
        idx = self.indices()
        if self.host.is_hypergraph:
            return Hypergraph(self.host.n, [self.host.hyperedges[i] for i in idx])
        return MultiGraph(self.host.n, [self.host.edges[i] for i in idx])

    def __contains__(self, i):
        return i in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.indices())

    def __eq__(self, other):
        return (
            isinstance(other, EdgeSubset)
            and self.host == other.host
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.host, self.members))

    def __repr__(self):
        return f"EdgeSubset({list(self.indices())})"


class Orientation:
    """Per-edge choice of head endpoint for a multigraph."""

    def __init__(self, host, head_of):
        head_of = tuple(int(h) for h in head_of)
        if len(head_of) != host.edge_count:
            raise ValidationError("one head per edge required")
        for (u, v), h in zip(host.edges, head_of):
            if h not in (u, v):
                raise ValidationError(f"head {h} is not an endpoint of ({u},{v})")
        self.host = host
        self.head_of = head_of

    def tail_of(self, i):
        u, v = self.host.edges[i]
        return v if self.head_of[i] == u else u

    def arcs(self):
        return tuple((self.tail_of(i), self.head_of[i]) for i in range(len(self.head_of)))

    def in_degree(self, v):
        return sum(1 for h in self.head_of if h == v)

    def out_degree(self, v):
        return sum(1 for i in range(len(self.head_of)) if self.tail_of(i) == v)

    def __eq__(self, other):
        return (
            isinstance(other, Orientation)
            and self.host == other.host
            and self.head_of == other.head_of
        )

    def __repr__(self):
        return f"Orientation(arcs={list(self.arcs())})"


def _edge_subset_indices(host, edges):
    if edges is None:
        return frozenset()
    if isinstance(edges, EdgeSubset):
        if edges.host is not host and edges.host != host:
            raise ValidationError("edge subset belongs to a different host")
        return edges.members
    return frozenset(int(i) for i in edges)


def cross_edges(host, partition):
    """Number of (hyper)edges meeting at least two blocks of the partition."""
    if partition.ground != host.full_mask:
        raise MalformedPartition("partition does not cover the host's vertices")
    block_of = [0] * host.n
    for j, b in enumerate(partition.blocks):
        for v in bit_list(b):
            block_of[v] = j
    crossing = 0
    for em in host.edge_masks:
        b = partition.blocks[block_of[low_bit_index(em)]]
        if em & ~b:
            crossing += 1
    return crossing


def induced_edge_count(host, vertex_set):
    """Number of (hyper)edges entirely inside the vertex set."""
    a = as_mask(vertex_set, host.n)
    return sum(1 for em in host.edge_masks if em & ~a == 0)


def boundary_count(host, vertex_set):
    """Number of (hyper)edges with a vertex inside and a vertex outside."""
    a = as_mask(vertex_set, host.n)
    return sum(1 for em in host.edge_masks if em & a and em & ~a & host.full_mask)


def restricted_removal(graph, vertex_set, keep):
    """Same-type host without the (hyper)edges incident to the vertex set,
    except the kept ones; no vertices are removed."""
    s = as_mask(vertex_set, graph.n)
    kept = _edge_subset_indices(graph, keep)
    return spanning_host(graph, [
        i for i, em in enumerate(graph.edge_masks) if em & s == 0 or i in kept
    ])


def contract(host, vertex_set):
    """Collapse the vertex set to a single vertex.

    Loops created in a graph are deleted; hyperedges that shrink below
    size 2 are deleted.  The contracted vertex keeps the smallest id of
    the set under the relabeling.
    """
    x = as_mask(vertex_set, host.n)
    if x == 0:
        raise ValidationError("cannot contract the empty set")
    rep = low_bit_index(x)
    keep = sorted(set(bit_list(host.full_mask & ~x)) | {rep})
    relabel = {v: i for i, v in enumerate(keep)}

    def image(v):
        return relabel[rep] if (1 << v) & x else relabel[v]

    if host.is_hypergraph:
        hes = []
        for he in host.hyperedges:
            verts = {image(v) for v in he.vertices}
            if len(verts) < 2:
                continue
            head = None if he.head is None else image(he.head)
            hes.append(Hyperedge(verts, head))
        return Hypergraph(len(keep), hes)
    edges = []
    for u, v in host.edges:
        iu, iv = image(u), image(v)
        if iu != iv:
            edges.append((iu, iv))
    return MultiGraph(len(keep), edges)


def sigma(host, vertex_set):
    """Sum of ``|Z ∩ S| - 1`` over (hyper)edges meeting S.

    On a graph host this equals :func:`induced_edge_count`.
    """
    s = as_mask(vertex_set, host.n)
    total = 0
    for em in host.edge_masks:
        inter = em & s
        if inter:
            total += bit_count(inter) - 1
    return total


def enumerate_partitions(ground, *, limit=PARTITION_ENUM_LIMIT):
    """Yield every set partition of the ground set exactly once, in
    restricted-growth-string order."""
    if not isinstance(ground, int):
        ground = mask_of(ground)
    verts = bit_list(ground)
    k = len(verts)
    if limit is not None and k > limit:
        raise LimitExceeded(f"partition enumeration over {k} elements exceeds {limit}")
    if k == 0:
        yield Partition((), 0)
        return
    a = [0] * k
    bmax = [0] * k
    while True:
        nblocks = max(a) + 1
        blocks = [0] * nblocks
        for i, lab in enumerate(a):
            blocks[lab] |= 1 << verts[i]
        yield Partition(blocks, ground)
        i = k - 1
        while i > 0 and a[i] > bmax[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for t in range(i + 1, k):
            a[t] = 0
            bmax[t] = max(bmax[t - 1], a[t - 1])


def partition_from_labels(labels, verts, ground):
    """Partition from a restricted-growth string over the listed vertices."""
    nblocks = int(max(labels)) + 1 if len(labels) else 0
    blocks = [0] * nblocks
    for i, lab in enumerate(labels):
        blocks[int(lab)] |= 1 << verts[i]
    return Partition(blocks, ground)


def spanning_host(host, members):
    """Same-type host on the full vertex set with only the given edges."""
    return EdgeSubset(host, members).as_host()


def induced_host(host, vertex_set):
    """Induced sub-host on the vertex set, relabeled to 0..k-1.

    Returns ``(sub_host, verts)`` where ``verts[i]`` is the original id of
    new vertex ``i``.  Only (hyper)edges entirely inside the set survive.
    """
    a = as_mask(vertex_set, host.n)
    verts = bit_list(a)
    relabel = {v: i for i, v in enumerate(verts)}
    if host.is_hypergraph:
        hes = [
            Hyperedge(
                (relabel[v] for v in he.vertices),
                None if he.head is None else relabel[he.head],
            )
            for he in host.hyperedges
            if he.mask & ~a == 0
        ]
        return Hypergraph(len(verts), hes), verts
    edges = [
        (relabel[u], relabel[v])
        for (u, v), em in zip(host.edges, host.edge_masks)
        if em & ~a == 0
    ]
    return MultiGraph(len(verts), edges), verts
