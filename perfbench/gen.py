"""Seeded instance generator for the benchmark.

    python3 perfbench/gen.py [--seed 1806]

Writes hosts and set functions in the package's own JSON formats under
``perfbench/instances/{hosts,setfns}/`` and the job lists of every
workload to ``perfbench/instances/manifest.json``.  The committed files
come from the default seed; ``perfbench/reference.py`` then recomputes the
reference values from them.

Most instances are drawn directly.  ``pack`` and ``extract`` candidates are
drawn in a seeded stream and kept when their jobs finish within a work
budget, counted in calls to the package's exhaustive kernels, so the
selection does not depend on the machine (the package has unbounded
searches on these theorems; see README.md).  The exhaustive assignment
oracle is one kernel call, so ``pack`` keeps oracle-route candidates only
up to ``ORACLE_MAX_EDGES`` edges.
"""

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INSTANCES = os.path.join(HERE, "instances")

SETFNS = {
    "c1": {"kind": "constant", "value": 1},
    "c2": {"kind": "constant", "value": 2},
    "vb21": {"kind": "vertex-bulk", "vertex": 2, "bulk": 1},
    "vb10": {"kind": "vertex-bulk", "vertex": 1, "bulk": 0},
}


# ---------------------------------------------------------------------------
# Host recipes.

def graph_doc(n, edges):
    return {"type": "graph", "n": n, "edges": [list(e) for e in edges]}


def connected_graph(rng, n, extra):
    """Random spanning tree plus ``extra`` random (possibly parallel) edges."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = [(rng.choice(verts[:i]), verts[i]) for i in range(1, n)]
    pairs = list(combinations(range(n), 2))
    edges.extend(rng.choice(pairs) for _ in range(extra))
    rng.shuffle(edges)
    return [tuple(sorted(e)) for e in edges]


def two_blocks(rng, n, split, extra, bridges):
    """Two random connected blocks on ``split`` and ``n - split`` vertices
    joined by ``bridges`` edges (0 gives a disconnected host)."""
    a = connected_graph(rng, split, extra // 2)
    b = connected_graph(rng, n - split, extra - extra // 2)
    edges = a + [(u + split, v + split) for u, v in b]
    for _ in range(bridges):
        edges.append((rng.randrange(split), rng.randrange(split, n)))
    rng.shuffle(edges)
    return [tuple(sorted(e)) for e in edges]


def hypergraph_doc(rng, n, m, max_rank, directed=False):
    """Random hypergraph whose first hyperedges chain every vertex."""
    order = list(range(n))
    rng.shuffle(order)
    hes = []
    i = 0
    while i < n - 1:
        size = min(rng.randint(2, max_rank), n - i)
        hes.append(order[i:i + size])
        i += size - 1
    while len(hes) < m:
        hes.append(rng.sample(range(n), rng.randint(2, max_rank)))
    rng.shuffle(hes)
    out = []
    headless = set(range(n))
    for verts in hes:
        entry = {"vertices": sorted(verts)}
        if directed:
            # Spread heads so that every vertex has an incoming hyperedge.
            fresh = sorted(headless.intersection(verts))
            entry["head"] = rng.choice(fresh or sorted(verts))
            headless.discard(entry["head"])
        out.append(entry)
    return {"type": "hypergraph", "n": n, "hyperedges": out}


def complete_graph(n):
    return list(combinations(range(n), 2))


def subset(rng, n, k):
    return sorted(rng.sample(range(n), k))


# ---------------------------------------------------------------------------
# Library access for candidate selection only.

# Kernel calls a kept candidate's job may make, and the largest oracle-route
# packing instance (3**10 assignment states).
CALL_BUDGET = 12_000
ORACLE_MAX_EDGES = 10
_COUNTED = ("partition_scan", "sparse_violation", "count_inside", "assignment_best",
            "pair_violation")


class _Budget(BaseException):
    pass


def finishes(fn, calls=CALL_BUDGET):
    """Run ``fn``; True when it returns or raises a package error within
    ``calls`` calls to the package's exhaustive kernels."""
    import partition_forge as pf
    from partition_forge import _kernels

    saved = {name: getattr(_kernels, name) for name in _COUNTED}
    left = [calls]

    def counted(kernel):
        def call(*args):
            left[0] -= 1
            if left[0] < 0:
                raise _Budget()
            return kernel(*args)
        return call

    for name, kernel in saved.items():
        setattr(_kernels, name, counted(kernel))
    try:
        fn()
    except _Budget:
        return False
    except pf.PartitionForgeError:
        return True
    finally:
        for name, kernel in saved.items():
            setattr(_kernels, name, kernel)
    return True


def pack_path(doc, fn_docs):
    """Which route ``max_sparse_family(method="auto")`` takes: ``oracle``
    when it calls the exhaustive assignment kernel, ``closure`` when the
    replacement search calls ``min_pc_subgraph``, ``greedy`` when it calls
    neither (greedy insertion reached the cap), and None when it does not
    finish within the work budget.  The route is read from the spans of the
    benchmark's tracer, whose wrappers reach every namespace that imported
    these functions."""
    import partition_forge as pf
    from partition_forge.cli import parse_graph, parse_setfn

    from perfbench import trace

    g = parse_graph(doc)
    fns = [parse_setfn(d) for d in fn_docs]
    tracer = trace.Tracer()
    tracer.install()
    try:
        done = finishes(lambda: pf.max_sparse_family(g, fns))
    finally:
        tracer.uninstall()
    if not done:
        return None
    names = {rec[0] for rec in tracer.spans}
    if "_kernels.assignment_best" in names:
        return "oracle"
    if "sparse.min_pc_subgraph" in names:
        return "closure"
    return "greedy"


# ---------------------------------------------------------------------------
# Workloads.

class Builder:
    def __init__(self, seed):
        self.seed = seed
        self.rng = None
        self.hosts = {}
        self.jobs = {}

    def stream(self, workload):
        """A random stream of the workload's own, so that the selection in
        one workload does not move the draws of another."""
        self.rng = random.Random(f"{self.seed}:{workload}")

    def host(self, name, doc):
        self.hosts[name] = doc
        return name

    def job(self, workload, op, host=None, demands=(), **args):
        jobs = self.jobs.setdefault(workload, [])
        entry = {"id": f"{workload}-{len(jobs):03d}", "op": op}
        if host is not None:
            entry["host"] = host
        if host is not None or demands:
            entry["demands"] = list(demands)
        entry.update(args)
        jobs.append(entry)
        return entry


def build_measure(b):
    rng = b.rng
    pairs = [
        (b.host("m7a", graph_doc(7, connected_graph(rng, 7, 6))), ["c1", "c2", "vb21"]),
        (b.host("m7b", graph_doc(7, connected_graph(rng, 7, 11))), ["c1", "c2", "vb21"]),
        (b.host("m7c", graph_doc(7, two_blocks(rng, 7, 3, 6, 0))), ["c1", "vb21"]),
        (b.host("m8a", graph_doc(8, connected_graph(rng, 8, 8))), ["c1", "c2"]),
        (b.host("m8b", graph_doc(8, two_blocks(rng, 8, 4, 10, 1))), ["c2"]),
        (b.host("m9a", graph_doc(9, connected_graph(rng, 9, 9))), ["c1"]),
        (b.host("mh7", hypergraph_doc(rng, 7, 7, 3)), ["c1", "vb21"]),
        (b.host("mh8", hypergraph_doc(rng, 8, 8, 3)), ["c1"]),
    ]
    for host, demands in pairs:
        n = b.hosts[host]["n"]
        for d in demands:
            ops = ["theta_oracle", "pc_violation", "is_pc", "pc_components", "theta"]
            if n >= 9:
                ops = ["theta_oracle", "is_pc"]
            for op in ops:
                b.job("measure", op, host, [d])
            b.job("measure", "theta_without", host, [d], vertex_set=subset(rng, n, 1))
            b.job("measure", "theta_without", host, [d], vertex_set=subset(rng, n, 3))


def build_extract(b):
    rng = b.rng
    made = 0
    attempt = 0
    # Hosts that are 2-partition-connected for constant(1) and whose sharp
    # condition check finishes within the budget.
    while made < 5:
        attempt += 1
        n = 6 if made < 3 else 7
        edges = connected_graph(rng, n, rng.randint(n - 1, n + 1))
        doc = graph_doc(n, edges)
        if not _extract_ok(doc, n, sharp=(n == 6)):
            continue
        name = b.host(f"e{n}{chr(ord('a') + made)}", doc)
        made += 1
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        eta = [str(Fraction(d, 2) + 1) for d in degs]
        lam = "1/2"
        x_all = list(range(n))
        x_part = subset(rng, n, n // 2)
        b.job("extract", "preset_eta", name, ["c1"], k=2,
              connectivity="partition-connected", independent=False)
        b.job("extract", "preset_eta", name, ["c1"], k=2,
              connectivity="edge-connected", independent=made % 2 == 0)
        b.job("extract", "check_main_condition", name, ["c1"], x=x_all, eta=eta,
              lam=lam, variant="intro")
        b.job("extract", "check_main_condition", name, ["c1"], x=x_part, eta=eta,
              lam="1", variant="intro")
        if n == 6:
            b.job("extract", "check_main_condition", name, ["c1"], x=x_all, eta=eta,
                  lam=lam, variant="sharp")
        if made == 1:
            b.job("extract", "extract_bounded", name, ["c1"], x=x_all, eta=eta, lam=lam)
        for t in (2, 3):
            b.job("extract", "min_excess_basis", name, ["c1"], target=t)
        # A refusal: vertex_bulk(2,1) asks for more than these hosts carry.
        b.job("extract", "preset_eta", name, ["vb21"], k=2,
              connectivity="partition-connected", independent=False)
    b.extract_attempts = attempt


def _extract_ok(doc, n, sharp):
    import partition_forge as pf
    from partition_forge.cli import parse_graph

    g = parse_graph(doc)
    l = pf.constant(1)
    try:
        eta, lam = pf.preset_eta(g, l, 2, "partition-connected")
    except pf.HypothesisViolated:
        return False
    if not sharp:
        return finishes(lambda: pf.min_excess_basis(g, l, 2))
    return finishes(lambda: pf.check_main_condition(g, l, range(n), eta, lam, "sharp"))


def build_pack(b):
    rng = b.rng
    quota = {"greedy": 3, "oracle": 3, "closure": 3}
    kept = {k: 0 for k in quota}
    attempts = 0
    while any(kept[k] < quota[k] for k in quota):
        attempts += 1
        n = rng.choice((5, 6, 7))
        edges = connected_graph(rng, n, rng.randint(n, n + 4))
        doc = graph_doc(n, edges)
        path = pack_path(doc, [SETFNS["c1"], SETFNS["c1"]])
        if path is None or kept[path] >= quota[path]:
            continue
        if path == "oracle" and len(edges) > ORACLE_MAX_EDGES or not _pack_ok(doc):
            continue
        name = b.host(f"p{n}{path[0]}{kept[path]}", doc)
        kept[path] += 1
        b.pack_paths[name] = path
        b.job("pack", "decompose_pc", name, ["c1", "c1"])
        b.job("pack", "max_sparse_family", name, ["c1", "c1"])
        b.job("pack", "pack_trees_pc", name, [], trees=1, pc_parts=1)
    b.pack_attempts = attempts
    # Degree-halving on doubled connected graphs (2-edge-connected for l=1).
    for n in (5, 6):
        base = connected_graph(rng, n, 1)
        name = b.host(f"ph{n}", graph_doc(n, base + base))
        b.job("pack", "half_degree_pc", name, ["c1"], u=rng.randrange(n))
    # Two trees in K6: the packing search does not finish (see README.md).
    k6 = b.host("k6", graph_doc(6, complete_graph(6)))
    b.job("pack", "decompose_pc", k6, ["c1", "c1"], limit_s=1.0)


def _pack_ok(doc):
    import partition_forge as pf
    from partition_forge.cli import parse_graph

    g = parse_graph(doc)
    l = pf.constant(1)

    def family_and_witness():
        fam = pf.max_sparse_family(g, [l, l])
        pf.witness_partition(g, fam)

    return (
        finishes(lambda: pf.decompose_pc(g, [l, l]))
        and finishes(family_and_witness)
        and finishes(lambda: pf.pack_trees_pc(g, 1, 1))
    )


def build_cli(b):
    """One call per subcommand and input; every subcommand appears."""
    rng = b.rng
    c8 = b.host("c8a", graph_doc(8, connected_graph(rng, 8, 7)))
    c7 = b.host("c7a", graph_doc(7, connected_graph(rng, 7, 7)))
    c7n = b.host("c7n", graph_doc(7, two_blocks(rng, 7, 3, 5, 1)))
    c6 = "e6a"
    c5 = b.host("c5a", graph_doc(5, connected_graph(rng, 5, 4)))
    h7 = b.host("ch7", hypergraph_doc(rng, 7, 7, 3))
    hs7 = b.host("chs7", hypergraph_doc(rng, 7, 1, 4))
    hd6 = b.host("chd6", hypergraph_doc(rng, 6, 9, 3, directed=True))
    o6 = b.host("co6", graph_doc(6, connected_graph(rng, 6, 3)))
    dbl = connected_graph(rng, 5, 2)
    d5 = b.host("cd5", graph_doc(5, dbl + dbl))
    pk = next(h for h, p in b.pack_paths.items() if p == "closure")

    def cli(command, host=None, setfns=(), **opts):
        b.job("cli", "cli", host, list(setfns), command=command, opts=opts)

    cli("theta", c8, ["c1"])
    cli("theta", c7, ["c1", "c1"])
    cli("theta", h7, ["vb21"])
    cli("components", c7n, ["c2"])
    cli("components", h7, ["c1"])
    cli("check-pc", c8, ["c2"])
    cli("check-pc", c7, ["c1"])
    cli("validate-setfn", None, ["t7"], n=7)
    cli("sparse-max", c8, ["c1"])
    cli("sparse-max", h7, ["c1"])
    cli("bases", c5, ["c1"])
    cli("e-star", c6, ["c1"], vertex_set=[0, 1, 2])
    cli("extract", c6, ["c1"], preset="partition-connected", k="2")
    cli("witness", c6, ["c1"], target="2")
    cli("decompose", pk, ["c1", "c1"])
    cli("pack", pk, [], trees=1, pc_parts=1)
    cli("trim", h7, ["c1"], goal="pc")
    cli("trim", hs7, ["c1"], goal="sparse")
    cli("trim", hd6, ["t6z"], goal="arc")
    cli("orient", o6, ["vb10"])
    cli("orient", d5, ["vb10"], u=0)
    degs = [0] * 6
    for u, v in b.hosts[c6]["edges"]:
        degs[u] += 1
        degs[v] += 1
    eta = [str(Fraction(d, 2) + 1) for d in degs]
    cli("condition", c6, ["c1"], eta=eta, lam="1/2", variant="intro")
    cli("condition", c6, ["c1"], eta=eta, lam="1/2", variant="sharp", x=[0, 2, 4])


def table_setfns(rng):
    """Table-backed demands for the CLI: a random intersecting
    supermodular function built as a sum of vertex weights and a
    constant, checked exhaustively by ``validate-setfn``; and a function
    vanishing on the whole set for arc trimming."""
    n = 7
    w = [rng.randint(0, 2) for _ in range(n)]
    values = []
    for m in range(1, 1 << n):
        verts = [v for v in range(n) if m >> v & 1]
        val = 1 + (w[verts[0]] if len(verts) == 1 else 0)
        values.append([",".join(map(str, verts)), val])
    t7 = {"kind": "table", "n": n, "values": values,
          "assume": ["intersecting-supermodular", "nonnegative"], "validate": True}
    n6 = 6
    values6 = []
    for m in range(1, 1 << n6):
        verts = [v for v in range(n6) if m >> v & 1]
        values6.append([",".join(map(str, verts)), 1 if len(verts) == 1 else 0])
    values6[-1][1] = 0
    t6z = {"kind": "table", "n": n6, "values": values6,
           "assume": ["positively-intersecting-supermodular"]}
    return t7, t6z


def write(b, seed):
    for sub in ("hosts", "setfns"):
        os.makedirs(os.path.join(INSTANCES, sub), exist_ok=True)
    for name, doc in sorted(b.hosts.items()):
        _dump(os.path.join(INSTANCES, "hosts", name + ".json"), doc)
    for name, doc in sorted(b.setfns.items()):
        _dump(os.path.join(INSTANCES, "setfns", name + ".json"), doc)
    manifest = {
        "seed": seed,
        "pack_paths": b.pack_paths,
        "pack_attempts": b.pack_attempts,
        "extract_attempts": b.extract_attempts,
        "workloads": b.jobs,
    }
    _dump(os.path.join(INSTANCES, "manifest.json"), manifest)


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1806)
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    b = Builder(args.seed)
    b.setfns = dict(SETFNS)
    b.pack_paths = {}
    start = time.perf_counter()
    for name, build in (("measure", build_measure), ("extract", build_extract),
                        ("pack", build_pack), ("cli", build_cli)):
        b.stream(name)
        build(b)
    b.setfns["t7"], b.setfns["t6z"] = table_setfns(b.rng)
    write(b, args.seed)
    print(f"generated in {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
