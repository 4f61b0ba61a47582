"""Shared brute-force oracles and instance generators.

The oracles here are deliberately independent of the package internals:
set partitions come from a recursive insertion generator (not restricted
growth strings), connectivity from a hand-rolled union-find, and theta
from a direct maximum over the generated partitions.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from partition_forge import (
    Hyperedge,
    Hypergraph,
    MultiGraph,
    induced_host,
    is_pc,
    spanning_host,
    table,
)


# ---------------------------------------------------------------------------
# Independent partition machinery.

def iter_set_partitions(items):
    """All partitions of ``items`` as lists of lists (recursive insertion)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in iter_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def brute_cross(edge_sets, blocks):
    """Edges meeting at least two blocks."""
    blocks = [frozenset(b) for b in blocks]
    return sum(1 for e in edge_sets if not any(e <= b for b in blocks))


def brute_theta(n, edge_sets, lval):
    """Maximum over all partitions of sum(l) minus crossings."""
    best = None
    for part in iter_set_partitions(range(n)):
        val = sum(lval(frozenset(b)) for b in part) - brute_cross(edge_sets, part)
        best = val if best is None else max(best, val)
    return 0 if best is None else best


def brute_is_pc(n, edge_sets, lval):
    full = lval(frozenset(range(n)))
    for part in iter_set_partitions(range(n)):
        need = sum(lval(frozenset(b)) for b in part) - full
        if brute_cross(edge_sets, part) < need:
            return False
    return True


def edge_sets_of(host):
    """Edges of a host as frozensets of vertices (oracle currency)."""
    if host.is_hypergraph:
        return [frozenset(he.vertices) for he in host.hyperedges]
    return [frozenset(e) for e in host.edges]


# Closed-form values for the standard families, independent of the package.

def lv_const(c):
    return lambda b: c if b else 0


def lv_vertex_bulk(vv, bb):
    return lambda b: 0 if not b else (vv if len(b) == 1 else bb)


# ---------------------------------------------------------------------------
# Independent connectivity checks.

class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[ru] = rv
        return True


def is_connected(n, pairs):
    if n <= 1:
        return True
    uf = UnionFind(n)
    comps = n
    for u, v in pairs:
        if uf.union(u, v):
            comps -= 1
    return comps == 1


def is_spanning_tree(n, pairs):
    if len(pairs) != n - 1:
        return False
    uf = UnionFind(n)
    for u, v in pairs:
        if not uf.union(u, v):
            return False
    return True


def is_forest(n, pairs):
    uf = UnionFind(n)
    return all(uf.union(u, v) for u, v in pairs)


def component_count(n, pairs):
    uf = UnionFind(n)
    comps = n
    for u, v in pairs:
        if uf.union(u, v):
            comps -= 1
    return comps


def brute_min_pc(host, members, l, targets):
    """Every smallest vertex set X containing the targets on which the
    member edges inside X form an l-partition-connected host: a superset
    scan in size order, ``is_pc`` on ``induced_host`` with l carried over
    to the relabelled vertices.  Empty when no X works."""
    spanning = spanning_host(host, members)
    targets = sorted(set(targets))
    others = [v for v in range(host.n) if v not in targets]
    for extra in range(len(others) + 1):
        found = []
        for combo in combinations(others, extra):
            verts = sorted(targets + list(combo))
            sub, _ = induced_host(spanning, verts)
            values = {
                m: l.value(sum(1 << verts[j] for j in range(len(verts)) if m >> j & 1))
                for m in range(1 << len(verts))
            }
            relabelled = table(len(verts), values, flags=("intersecting-supermodular",))
            if is_pc(sub, relabelled, trust_flags=True):
                found.append(verts)
        if found:
            return found
    return []


# ---------------------------------------------------------------------------
# Instance generators.

def complete_graph(n):
    return MultiGraph(n, list(combinations(range(n), 2)))


def cycle_graph(n):
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


def all_simple_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield MultiGraph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def all_multigraphs(n, max_edges):
    pairs = list(combinations(range(n), 2))
    for k in range(max_edges + 1):
        for combo in combinations_with_replacement(pairs, k):
            yield MultiGraph(n, combo)


def random_multigraph(rng, n, m):
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return MultiGraph(n, [])
    return MultiGraph(n, [rng.choice(pairs) for _ in range(m)])


def random_connected_multigraph(rng, n, extra):
    """Random spanning tree plus ``extra`` random parallel-friendly edges."""
    edges = []
    verts = list(range(n))
    rng.shuffle(verts)
    for i in range(1, n):
        edges.append((rng.choice(verts[:i]), verts[i]))
    pairs = list(combinations(range(n), 2))
    edges.extend(rng.choice(pairs) for _ in range(extra))
    return MultiGraph(n, edges)


def random_hypergraph(rng, n, m, max_rank, directed=False):
    hes = []
    for _ in range(m):
        size = rng.randint(2, min(max_rank, n))
        verts = rng.sample(range(n), size)
        head = rng.choice(verts) if directed else None
        hes.append(Hyperedge(verts, head))
    return Hypergraph(n, hes)


@pytest.fixture
def rng():
    return random.Random(20240811)
