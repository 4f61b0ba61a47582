"""Output checks for every benchmark job.

Results are first reduced to plain JSON-like data (``normalize``), then
checked against the independent reference in :mod:`reference` and the
properties each method promises.  A documented refusal (a
``MathConditionError`` in the library, exit code 2 in the CLI) passes
when its witness checks out.  Checks run outside the timed phase; a
result equal to one already verified for the same job is not re-checked.
"""

import json
from fractions import Fraction
from itertools import combinations

from perfbench import reference as R

SCHEMA = "partition-forge/1"


class CheckFailed(Exception):
    pass


def need(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Normalization of library results.

def _bits(mask):
    return sorted(R.mask_set(mask))


def normalize(op, result):
    import partition_forge as pf

    if isinstance(result, pf.MathConditionError):
        out = {"refusal": result.kind}
        out.update(result.witness_payload())
        return out
    if op in ("theta_oracle", "theta", "theta_without", "is_pc"):
        return result
    if op == "pc_violation":
        return None if result is None else {"partition": result.blocks_as_lists()}
    if op == "pc_components":
        return {"blocks": result.partition.blocks_as_lists(), "theta": result.theta_value}
    if op == "preset_eta":
        eta, lam = result
        return {"eta": [str(e) for e in eta], "lambda": str(lam)}
    if op == "check_main_condition":
        return {"holds": result.holds, "witness": result.witness_list(),
                "margin": str(result.margin)}
    if op in ("extract_bounded", "half_degree_pc"):
        edges = result.edges if isinstance(result, pf.Basis) else result
        return {"edges": list(edges.indices())}
    if op == "min_excess_basis":
        basis, te, s = result
        return {"basis": list(basis.indices()), "total_excess": te, "witness": _bits(s)}
    if op in ("decompose_pc", "pack_trees_pc"):
        return {"parts": [list(p.indices()) for p in result.parts]}
    if op == "max_sparse_family":
        family, partition = result
        return {"parts": [list(p.indices()) for p in family.parts],
                "partition": partition.blocks_as_lists()}
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# Property checks in the independent currency.

def check_partition(host, blocks):
    seen = set()
    for b in blocks:
        need(b, "empty block")
        need(not seen.intersection(b), "blocks overlap")
        seen.update(b)
    need(seen == set(host.full), "blocks do not cover the vertex set")


def check_violating_partition(host, l, blocks, k=1):
    check_partition(host, blocks)
    deficit = k * (sum(l(b) for b in blocks) - l(host.full))
    need(R.crossing(host.edges, blocks) < deficit,
         "witness partition has enough crossing edges")


def check_pc_spanning(host, members, l, what="part"):
    need(R.is_pc(host.full, [host.edges[i] for i in members], l),
         f"{what} is not partition-connected")


def check_basis(host, members, l):
    need(len(set(members)) == len(members), "repeated edge")
    need(all(0 <= i < len(host.edges) for i in members), "edge index out of range")
    need(len(members) == R.basis_size(host, l), "basis has the wrong size")
    check_pc_spanning(host, members, l, "basis")


def check_parts(host, parts, fns, cover=True):
    seen = set()
    for part in parts:
        need(not seen.intersection(part), "parts share an edge")
        seen.update(part)
    if cover:
        need(seen == set(range(len(host.edges))), "parts do not cover every edge")
    for part, l in zip(parts, fns):
        check_pc_spanning(host, part, l)


def boundary(host, a):
    return sum(1 for e in host.edges if e & a and e - a)


def condition_margins(host, l, ref, x, eta, lam, variant):
    """Every S inside X with its margin, from the reference tables."""
    lg = l(host.full)
    out = []
    for size in range(len(x) + 1):
        for combo in combinations(sorted(x), size):
            s = frozenset(combo)
            mask = sum(1 << v for v in s)
            lhs = Fraction(ref["theta_without"][mask])
            inner = sum(Fraction(eta[v]) - 2 * l((v,)) for v in s)
            if variant == "intro":
                es = sum(1 for e in host.edges if e <= s)
                margin = inner + lg + l(s) - lam * (es + l(s)) - lhs
                ok = margin >= 0
            else:
                # strict: lhs < 1 + rhs, with the slack left out of the margin
                margin = inner + lg + l(s) - lam * (ref["e_star"][mask] + l(s)) - lhs
                ok = margin > -1
            out.append((s, margin, ok))
    return out


def check_condition(host, l, ref, x, eta, lam, variant, verdict):
    lam = Fraction(lam)
    theta_g = ref["theta_without"][0]
    lg = l(host.full)
    if theta_g > lg:
        need(verdict["holds"] is False and verdict["witness"] == [], "host is not pc")
        return
    rows = condition_margins(host, l, ref, x, eta, lam, variant)
    holds = all(ok for _, _, ok in rows)
    need(verdict["holds"] == holds, "condition verdict disagrees with the reference")
    if holds:
        need(Fraction(verdict["margin"]) == min(m for _, m, _ in rows),
             "condition margin disagrees with the reference")
    else:
        s = frozenset(verdict["witness"])
        bad = [m for t, m, ok in rows if t == s and not ok]
        need(bad, "condition witness does not violate the condition")
        need(Fraction(verdict["margin"]) == bad[0], "witness margin is wrong")


def check_structure(host, l, ref, members, te, witness, target):
    degs = host.degrees(members)
    need(te == sum(max(0, d - target) for d in degs), "total excess is miscounted")
    need(te == ref["min_excess"][str(target)], "basis does not minimize total excess")
    s = frozenset(witness)
    need(all(v in s for v in range(host.n) if degs[v] > target),
         "witness misses an over-target vertex")
    need(all(degs[v] >= target for v in s), "witness holds an under-target vertex")
    mask = sum(1 << v for v in s)
    sub = [host.edges[i] for i in members]
    need(R.theta(host.full - s, sub, l) == ref["theta_without"][mask],
         "theta after removing the witness differs between host and basis")


def check_family(host, fns, parts, blocks):
    seen = set()
    for part, l in zip(parts, fns):
        need(not seen.intersection(part), "parts share an edge")
        seen.update(part)
        need(R.sparse_violation(host.n, [host.edges[i] for i in part], l) is None,
             "a family part is not sparse")
    check_partition(host, blocks)
    blocks = [frozenset(b) for b in blocks]
    for i in set(range(len(host.edges))) - seen:
        need(any(host.edges[i] <= b for b in blocks),
             "an uncovered edge crosses the witness partition")
    for part, l in zip(parts, fns):
        for b in blocks:
            inside = [host.edges[i] for i in part if host.edges[i] <= b]
            need(R.is_pc(b, inside, l), "a part is not pc inside a witness block")


def check_half_degree(host, l, members, u):
    check_pc_spanning(host, members, l)
    degs = host.degrees()
    hd = host.degrees(members)
    for v in range(host.n):
        need(hd[v] <= -((-degs[v]) // 2) + l((v,)), "degree over its bound")
    need(hd[u] <= degs[u] // 2 + l((u,)) - l(host.full), "degree over its bound at u")


def check_edge_connected(host, a, k, l):
    need(boundary(host, a) < k * l(a), "witness set has enough boundary edges")


# ---------------------------------------------------------------------------
# Library jobs.

def check_library(job, out, ctx):
    op = job["op"]
    if op == "pack_trees_pc":
        fns = [ctx.demand("c1")] * job["trees"] + [ctx.demand("vb10")] * job["pc_parts"]
    else:
        fns = [ctx.demand(d) for d in job["demands"]]
    host = ctx.host(job["host"])
    l = fns[0] if fns else None
    ref = ctx.ref(job)
    theta_v = ref["theta_without"][0] if ref else None
    if isinstance(out, dict) and "refusal" in out:
        return check_refusal(op, job, out, host, fns, ref)
    if op in ("theta_oracle", "theta"):
        need(out == theta_v, "theta disagrees with the reference")
    elif op == "theta_without":
        mask = sum(1 << v for v in job["vertex_set"])
        need(out == ref["theta_without"][mask], "theta_without disagrees with the reference")
    elif op == "is_pc":
        need(out == (theta_v == l(host.full)), "is_pc disagrees with the reference")
    elif op == "pc_violation":
        if out is None:
            need(theta_v == l(host.full), "pc_violation missed a violation")
        else:
            check_violating_partition(host, l, out["partition"])
    elif op == "pc_components":
        check_partition(host, out["blocks"])
        need(out["theta"] == theta_v, "component theta disagrees with the reference")
        value = sum(l(b) for b in out["blocks"]) - R.crossing(host.edges, out["blocks"])
        need(value == theta_v, "component blocks do not realize theta")
        for b in out["blocks"]:
            need(R.is_pc(b, host.edges, l), "a component block is not pc")
        if ctx.docs("setfns", job["demands"][0]) == {"kind": "constant", "value": 1}:
            need(len(out["blocks"]) == ref["components"] == theta_v,
                 "constant(1) theta differs from the component count")
    elif op == "preset_eta":
        check_preset(job, out, host, l)
    elif op == "check_main_condition":
        check_condition(host, l, ref, job["x"], job["eta"], job["lam"], job["variant"], out)
    elif op == "extract_bounded":
        check_basis(host, out["edges"], l)
        degs = host.degrees(out["edges"])
        lam = Fraction(job["lam"])
        for v in job["x"]:
            need(degs[v] <= R.ceil(Fraction(job["eta"][v]) - lam * l((v,))),
                 "degree over its bound")
    elif op == "min_excess_basis":
        check_basis(host, out["basis"], l)
        check_structure(host, l, ref, out["basis"], out["total_excess"], out["witness"],
                        job["target"])
    elif op in ("decompose_pc", "pack_trees_pc"):
        check_parts(host, out["parts"], fns)
    elif op == "max_sparse_family":
        check_family(host, fns, out["parts"], out["partition"])
    elif op == "half_degree_pc":
        check_half_degree(host, l, out["edges"], job["u"])
    else:
        raise CheckFailed(f"no check for {op}")


def check_preset(job, out, host, l):
    k = Fraction(job["k"])
    degs = host.degrees()
    if job["connectivity"] == "edge-connected":
        for a in R.vertex_sets(host.n):
            if a != host.full:
                need(boundary(host, a) >= k * l(a), "host is not k*l-edge-connected")
        eta = [Fraction(degs[v]) / k + 2 * l((v,)) for v in range(host.n)]
        lam = Fraction(1) if job["independent"] else 2 / k
    else:
        lg = l(host.full)
        for part in R.set_partitions(range(host.n)):
            need(R.crossing(host.edges, part) >= k * (sum(l(b) for b in part) - lg),
                 "host is not k*l-partition-connected")
        eta = [Fraction(degs[v]) / k + l((v,)) for v in range(host.n)]
        lam = Fraction(1) if job["independent"] else 1 / k
    need(out == {"eta": [str(e) for e in eta], "lambda": str(lam)},
         "preset eta or lambda is wrong")


def check_refusal(op, job, out, host, fns, ref):
    kind = out["refusal"]
    l = fns[0] if fns else None
    if kind == "not-partition-connected" and op in ("decompose_pc", "pack_trees_pc"):
        total = fns[0]
        for f in fns[1:]:
            total = total + f
        check_violating_partition(host, total, out["partition"])
    elif kind == "hypothesis-violated" and op == "preset_eta":
        k = Fraction(job["k"])
        if "partition" in out:
            check_violating_partition(host, l, out["partition"], k)
        else:
            check_edge_connected(host, frozenset(out["vertex_set"]), k, l)
    elif kind == "hypothesis-violated" and op == "half_degree_pc":
        check_edge_connected(host, frozenset(out["vertex_set"]), 2, l)
    elif kind == "condition-violated" and op == "extract_bounded":
        verdict = {"holds": False, "witness": out["vertex_set"], "margin": out["margin"]}
        check_condition(host, l, ref, job["x"], job["eta"], job["lam"], "sharp", verdict)
    else:
        raise CheckFailed(f"{op} refused unexpectedly: {out}")


# ---------------------------------------------------------------------------
# CLI jobs: exit code, schema and canonical JSON, then the payload mapped
# back to the committed labels and checked like a library result.

def parse_cli(job, result):
    need(result.code in (0, 2), f"exit code {result.code}")
    lines = result.out.splitlines()
    need(len(lines) == 1, "expected exactly one output line")
    payload = json.loads(lines[0])
    need(json.dumps(payload, sort_keys=True, separators=(",", ":")) == lines[0],
         "output line is not canonical JSON")
    need(payload.get("schema") == SCHEMA, "wrong schema")
    need(payload.get("command") == job["command"], "wrong command echo")
    need(("error" in payload) == (result.code == 2), "exit code and payload disagree")
    return payload


def unrelabel(payload, perm):
    """Map vertex-valued fields of a CLI payload back through ``perm``."""
    inv = {p: v for v, p in enumerate(perm)}

    def vs(lst):
        return sorted(inv[v] for v in lst)

    def blocks(bl):
        return sorted(vs(b) for b in bl)

    out = dict(payload)
    if "error" in out:
        err = dict(out["error"])
        if "partition" in err:
            err["partition"] = blocks(err["partition"])
        if "vertex_set" in err:
            err["vertex_set"] = vs(err["vertex_set"])
        out["error"] = err
        return out
    if "blocks" in out:
        out["blocks"] = blocks(out["blocks"])
    if "witness" in out:
        out["witness"] = vs(out["witness"])
    for key in ("degrees", "eta"):
        if key in out:
            out[key] = [out[key][perm[v]] for v in range(len(perm))]
    if "heads" in out:
        out["heads"] = [inv[h] for h in out["heads"]]
        out["arcs"] = [[inv[a], inv[b]] for a, b in out["arcs"]]
    if "trimmed" in out:
        t = dict(out["trimmed"])
        hes = []
        for he in t["hyperedges"]:
            e = {"vertices": vs(he["vertices"])}
            if "head" in he:
                e["head"] = inv[he["head"]]
            hes.append(e)
        t["hyperedges"] = hes
        out["trimmed"] = t
    if "properties" in out:
        props = {}
        for name, entry in out["properties"].items():
            entry = dict(entry)
            if "counterexample" in entry:
                ce = entry["counterexample"]
                entry["counterexample"] = {
                    "a": vs(ce["a"]), "b": None if ce["b"] is None else vs(ce["b"])}
            props[name] = entry
        out["properties"] = props
    return out


def check_cli(job, out, ctx):
    cmd = job["command"]
    opts = job["opts"]
    fns = [ctx.demand(d) for d in job.get("demands", ())]
    l = None
    for f in fns:
        l = f if l is None else l + f
    if cmd == "validate-setfn":
        return check_validate(job, out, ctx)
    host = ctx.host(job["host"])
    ref = ctx.ref(job)
    theta_v = ref["theta_without"][0] if ref else None
    if "error" in out:
        err = out["error"]
        if cmd == "check-pc":
            need(err["kind"] == "not-partition-connected", "wrong refusal kind")
            check_violating_partition(host, l, err["partition"])
            return
        raise CheckFailed(f"{cmd} refused unexpectedly: {err}")
    if cmd == "theta":
        need(out["theta"] == theta_v, "theta disagrees with the reference")
    elif cmd == "components":
        check_library({"op": "pc_components", "host": job["host"], "demands": job["demands"]},
                      {"blocks": out["blocks"], "theta": out["theta"]}, ctx)
    elif cmd == "check-pc":
        need(theta_v == l(host.full), "check-pc accepted a host that is not pc")
        need(out["partition_connected"] is True and out["l_of_ground"] == l(host.full),
             "check-pc payload is wrong")
    elif cmd == "sparse-max":
        chosen = [host.edges[i] for i in out["edges"]]
        need(out["size"] == len(out["edges"]), "size field is wrong")
        need(R.sparse_violation(host.n, chosen, l) is None, "sparse-max set is not sparse")
        need(len(chosen) == R.rank(host.n, host.edges, l), "sparse-max set is not maximum")
    elif cmd == "bases":
        expected = sorted(list(b) for b in R.bases(host, l))
        need(sorted(out["bases"]) == expected and out["count"] == len(expected),
             "bases differ from the reference")
    elif cmd == "e-star":
        mask = sum(1 << v for v in opts["vertex_set"])
        need(out["e_star"] == ref["e_star"][mask], "e-star disagrees with the reference")
    elif cmd == "extract":
        check_preset({"k": opts["k"], "connectivity": opts["preset"], "independent": False},
                     {"eta": out["eta"], "lambda": out["lambda"]}, host, l)
        check_library({"op": "extract_bounded", "host": job["host"],
                       "demands": job["demands"], "x": list(range(host.n)),
                       "eta": out["eta"], "lam": out["lambda"]},
                      {"edges": out["edges"]}, ctx)
        need(out["degrees"] == host.degrees(out["edges"]), "degrees field is wrong")
    elif cmd == "witness":
        t = int(opts["target"])
        check_basis(host, out["basis"], l)
        check_structure(host, l, ref, out["basis"], out["total_excess"], out["witness"], t)
    elif cmd in ("decompose", "pack"):
        if cmd == "pack":
            fns = [ctx.demand("c1")] * opts["trees"] + [ctx.demand("vb10")] * opts["pc_parts"]
        need(out["covers_all"] is True, "covers_all is not set")
        check_parts(host, out["parts"], fns)
    elif cmd == "trim":
        check_trim(host, l, opts["goal"], out["trimmed"])
    elif cmd == "orient":
        check_orient(host, fns, opts.get("u"), out)
    elif cmd == "condition":
        verdict = {"holds": True, "witness": None, "margin": out["margin"]}
        check_condition(host, l, ref, opts.get("x", list(range(host.n))), opts["eta"],
                        opts["lam"], opts["variant"], verdict)
    else:
        raise CheckFailed(f"no check for {cmd}")


def check_validate(job, out, ctx):
    doc = ctx.docs("setfns", job["demands"][0])
    l = ctx.demand(job["demands"][0])
    n = job["opts"]["n"]
    need(out["n"] == n, "arity is wrong")
    for name, entry in out["properties"].items():
        ce = entry.get("counterexample")
        if entry["holds"]:
            need(property_holds(name, l, n), f"{name} reported to hold but fails")
        else:
            need(not property_holds(name, l, n), f"{name} reported to fail but holds")
            a = frozenset(ce["a"])
            b = None if ce["b"] is None else frozenset(ce["b"])
            need(violates(name, l, a, b), f"{name} counterexample is not a violation")
    for flag in doc.get("assume", ()):
        need(out["properties"][flag]["holds"], f"declared {flag} fails")


def violates(name, l, a, b):
    if name == "supermodular":
        return l(a & b) + l(a | b) < l(a) + l(b)
    if name == "intersecting-supermodular":
        return bool(a & b) and l(a & b) + l(a | b) < l(a) + l(b)
    if name == "positively-intersecting-supermodular":
        return (bool(a & b) and l(a) > 0 and l(b) > 0
                and l(a & b) + l(a | b) < l(a) + l(b))
    if name == "subadditive":
        return not (a & b) and l(a) + l(b) < l(a | b)
    if name == "nonincreasing":
        return bool(a) and a <= b and l(a) < l(b)
    if name == "nonnegative":
        return l(a) < 0
    if name == "weakly-subadditive":
        return l(a) > sum(l((v,)) for v in a)
    if name == "element-subadditive":
        return len(b) == 1 and not (a & b) and l(a) + l(b) < l(a | b)
    if name == "element-nonincreasing":
        return len(b) == 1 and b <= a and l(b) < l(a)
    raise CheckFailed(f"unknown property {name}")


def property_holds(name, l, n):
    sets = [frozenset()] + list(R.vertex_sets(n))
    if name in ("nonnegative", "weakly-subadditive"):
        return not any(violates(name, l, a, None) for a in sets)
    if name in ("element-subadditive", "element-nonincreasing"):
        singles = [frozenset((v,)) for v in range(n)]
        return not any(violates(name, l, a, b) for a in sets for b in singles)
    return not any(violates(name, l, a, b) for a in sets for b in sets)


def check_trim(host, l, goal, trimmed):
    hes = trimmed["hyperedges"]
    need(len(hes) == len(host.edges), "trim changed the hyperedge count")
    edges = []
    for he, orig, head in zip(hes, host.edges, host.heads):
        e = frozenset(he["vertices"])
        need(len(e) == 2 and e <= orig, "a trimmed hyperedge is not a pair inside its original")
        need(he.get("head") == head and (head is None or head in e), "a head was lost")
        edges.append(e)
    if goal == "pc":
        need(R.is_pc(host.full, edges, l), "trimmed host is not pc")
    elif goal == "sparse":
        need(R.sparse_violation(host.n, edges, l) is None, "trimmed host is not sparse")
    else:
        arcs = [(he["head"], e) for he, e in zip(hes, edges)]
        check_arc_connected(host.n, arcs, l)


def check_arc_connected(n, arcs, l):
    """``arcs`` are (head, vertex set) pairs; every A needs in-degree l(A)."""
    for a in R.vertex_sets(n):
        indeg = sum(1 for h, e in arcs if h in a and e - a)
        need(indeg >= l(a), "a vertex set has too small an in-degree")


def check_orient(host, fns, u, out):
    heads = out["heads"]
    need(len(heads) == len(host.edges), "one head per edge")
    for h, e, arc in zip(heads, host.edges, out["arcs"]):
        need(h in e and arc[1] == h and frozenset(arc) == e, "an arc is not an orientation")
    arcs = [(h, e) for h, e in zip(heads, host.edges)]
    if u is None:
        check_arc_connected(host.n, arcs, fns[0])
        return
    degs = host.degrees()
    outdeg = [0] * host.n
    for h, e in arcs:
        for v in e - {h}:
            outdeg[v] += 1
    for v in range(host.n):
        need(outdeg[v] <= -((-degs[v]) // 2), "out-degree over its bound")
    need(outdeg[u] <= degs[u] // 2, "out-degree over its bound at u")
    seen = set()
    for part, l in zip(out["parts"], fns):
        need(not seen.intersection(part), "parts share an edge")
        seen.update(part)
        check_arc_connected(host.n, [arcs[i] for i in part], l)


# ---------------------------------------------------------------------------

class Context:
    """Reference data in the committed labels, loaded once per run."""

    def __init__(self):
        self._docs = {}
        self._hosts = {}
        self._demands = {}
        self._ref = R.load_json("reference.json")
        self._verified = set()

    def docs(self, kind, name):
        key = (kind, name)
        if key not in self._docs:
            self._docs[key] = R.load_json(kind, name + ".json")
        return self._docs[key]

    def host(self, name):
        if name not in self._hosts:
            self._hosts[name] = R.host_of(self.docs("hosts", name))
        return self._hosts[name]

    def demand(self, name):
        if name not in self._demands:
            self._demands[name] = R.Demand(self.docs("setfns", name))
        return self._demands[name]

    def ref(self, job):
        if not job.get("demands") or "host" not in job:
            return None
        return self._ref[R.pair_key(job["host"], job["demands"])]

    def check(self, job, out):
        """Check one normalized output; raises CheckFailed."""
        key = (job["id"], json.dumps(out, sort_keys=True))
        if key in self._verified:
            return
        if job["op"] == "cli":
            check_cli(job, out, self)
        else:
            check_library(job, out, self)
        self._verified.add(key)


def cli_output(job, result, perm):
    """Parse, check the framing of, and un-relabel one CLI result."""
    return unrelabel(parse_cli(job, result), perm)
