"""Independent brute-force reference for the benchmark's checks.

Nothing here imports ``partition_forge``.  Set partitions come from a
recursive insertion generator (not restricted-growth strings),
connectivity from union-find, sparseness from a direct check over every
vertex set, and set functions are evaluated from their JSON documents.

Run ``python3 perfbench/reference.py`` to regenerate
``perfbench/instances/reference.json`` from the committed instances.
"""

import json
import os
import sys
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, "instances")


# ---------------------------------------------------------------------------
# Instances in the independent currency: a vertex count and a list of edges,
# each edge a frozenset of vertices.

class Host:
    def __init__(self, n, edges, heads=None):
        self.n = n
        self.edges = [frozenset(e) for e in edges]
        self.heads = heads
        self.full = frozenset(range(n))

    def degrees(self, members=None):
        idx = range(len(self.edges)) if members is None else members
        degs = [0] * self.n
        for i in idx:
            for v in self.edges[i]:
                degs[v] += 1
        return degs


def host_of(doc):
    if doc["type"] == "graph":
        return Host(doc["n"], [tuple(e) for e in doc["edges"]])
    return Host(
        doc["n"],
        [tuple(he["vertices"]) for he in doc["hyperedges"]],
        [he.get("head") for he in doc["hyperedges"]],
    )


class Demand:
    """Set function read straight from its JSON document; ``l(empty)=0``."""

    def __init__(self, doc):
        self.doc = doc
        kind = doc["kind"]
        if kind == "constant":
            c = doc["value"]
            self._f = lambda s: c
        elif kind == "vertex-bulk":
            a, b = doc["vertex"], doc["bulk"]
            self._f = lambda s: a if len(s) == 1 else b
        elif kind == "table":
            vals = {}
            for key, val in doc["values"]:
                vals[frozenset(int(t) for t in key.split(",")) if key else frozenset()] = val
            default = doc.get("default")
            self._f = lambda s: vals.get(s, default)
        else:
            raise ValueError(f"unknown set function kind {kind!r}")
        self._memo = {}

    def __call__(self, s):
        s = frozenset(s)
        if not s:
            return 0
        got = self._memo.get(s)
        if got is None:
            got = self._memo[s] = self._f(s)
        return got

    def __add__(self, other):
        return SumDemand((self, other))


class SumDemand(Demand):
    def __init__(self, parts):
        self.parts = tuple(parts)
        self._memo = {}
        self._f = lambda s: sum(p(s) for p in self.parts)


# ---------------------------------------------------------------------------
# Partitions, connectivity, sparseness.

def set_partitions(items):
    """Every partition of ``items`` as a list of lists (recursive insertion)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def crossing(edges, blocks):
    """Edges meeting at least two blocks."""
    blocks = [frozenset(b) for b in blocks]
    return sum(1 for e in edges if not any(e <= b for b in blocks))


def theta(vertices, edges, l):
    """Max over partitions P of ``vertices`` of sum l(A) - e(P); only edges
    inside ``vertices`` count.  0 on the empty set."""
    vertices = frozenset(vertices)
    inside = [e for e in edges if e <= vertices]
    best = None
    for part in set_partitions(sorted(vertices)):
        val = sum(l(b) for b in part) - crossing(inside, part)
        if best is None or val > best:
            best = val
    return 0 if best is None else best


def is_pc(vertices, edges, l):
    vertices = frozenset(vertices)
    return theta(vertices, edges, l) == l(vertices)


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


def component_count(n, edges):
    uf = UnionFind(n)
    comps = n
    for e in edges:
        vs = sorted(e)
        for v in vs[1:]:
            if uf.union(vs[0], v):
                comps -= 1
    return comps


def vertex_sets(n):
    for m in range(1, 1 << n):
        yield frozenset(v for v in range(n) if m >> v & 1)


def sparse_violation(n, edges, l):
    """First vertex set A with more edges inside than
    ``sum_{v in A} l(v) - l(A)``, or None."""
    for a in vertex_sets(n):
        budget = sum(l((v,)) for v in a) - l(a)
        if sum(1 for e in edges if e <= a) > budget:
            return a
    return None


def rank(n, edges, l):
    """Size of a maximal l-sparse subset, grown greedily with the direct
    check (maximal sparse sets all have one size: the count matroid)."""
    chosen = []
    for e in edges:
        if sparse_violation(n, chosen + [e], l) is None:
            chosen.append(e)
    return len(chosen)


def basis_size(host, l):
    return sum(l((v,)) for v in range(host.n)) - l(host.full)


def bases(host, l):
    """Every basis (sparse edge set of full basis size), by subset search."""
    size = basis_size(host, l)
    for combo in combinations(range(len(host.edges)), size):
        if sparse_violation(host.n, [host.edges[i] for i in combo], l) is None:
            yield combo


def ceil(x):
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


def mask_set(mask):
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


# ---------------------------------------------------------------------------
# Reference values.

def theta_without_table(host, l):
    """Theta of the host minus S (edges touching S dropped), by mask of S."""
    out = []
    for s in range(1 << host.n):
        out.append(theta(host.full - mask_set(s), host.edges, l))
    return out


def e_star_table(host, l):
    """Max edges inside S over every basis = rank of the edges inside S."""
    out = []
    for s in range(1 << host.n):
        ss = mask_set(s)
        out.append(rank(host.n, [e for e in host.edges if e <= ss], l))
    return out


def min_excess(host, l, target):
    best = None
    for combo in bases(host, l):
        degs = host.degrees(combo)
        te = sum(max(0, d - t) for d, t in zip(degs, target))
        if best is None or te < best:
            best = te
    return best


def pair_key(host_name, demand_names):
    return host_name + "|" + "+".join(demand_names)


def load_json(*parts):
    with open(os.path.join(INSTANCES, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def build_reference(manifest):
    """Reference values for every (host, demand) pair the jobs use."""
    wanted = {}
    for jobs in manifest["workloads"].values():
        for job in jobs:
            if "host" not in job or not job["demands"]:
                continue
            key = pair_key(job["host"], job["demands"])
            need = wanted.setdefault(key, set())
            need.add("theta_without")
            kind = job.get("command", job["op"])
            if kind in ("check_main_condition", "extract_bounded", "e-star",
                        "extract", "condition"):
                need.add("e_star")
            target = job.get("target", job.get("opts", {}).get("target"))
            if target is not None:
                need.add("min_excess:%s" % target)
    ref = {}
    for key in sorted(wanted):
        host_name, dnames = key.split("|")
        host = host_of(load_json("hosts", host_name + ".json"))
        l = None
        for d in dnames.split("+"):
            part = Demand(load_json("setfns", d + ".json"))
            l = part if l is None else l + part
        entry = {}
        for need in sorted(wanted[key]):
            if need == "theta_without":
                entry["theta_without"] = theta_without_table(host, l)
            elif need == "e_star":
                entry["e_star"] = e_star_table(host, l)
            else:
                t = int(need.split(":")[1])
                entry.setdefault("min_excess", {})[str(t)] = min_excess(
                    host, l, [t] * host.n
                )
        entry["components"] = component_count(host.n, host.edges)
        ref[key] = entry
        print(f"reference {key}", file=sys.stderr)
    return ref


def main():
    manifest = load_json("manifest.json")
    ref = build_reference(manifest)
    path = os.path.join(INSTANCES, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
