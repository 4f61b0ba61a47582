"""Batch command-line interface.

Hosts and set functions travel as JSON files; rationals on the wire are
``"p/q"`` strings, never floating point.  Reports go to stdout, as JSON
with ``--format json`` (byte-identical for identical jobs) or as plain
text lines.  Exit codes: 0 success, 2 a mathematical condition or
hypothesis failed (the witness is in the report), 3 parse or validation
error, 4 a size limit was exceeded, 5 a result failed its internal
re-verification (a bug, not a property of the input).
"""

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import limits as limits_mod
from .bits import bit_list, mask_of
from .decompose import decompose_pc, pack_trees_pc
from .errors import (
    ConditionViolated,
    NotPartitionConnected,
    PartitionForgeError,
    ValidationError,
)
from .extract import (
    DegreeTarget,
    check_main_condition,
    extract_bounded,
    min_excess_basis,
    preset_eta,
    structure_witness,
)
from .hosts import Hyperedge, Hypergraph, MultiGraph
from .orient import orient_arc_connected, orient_decompose, trim_arc, trim_pc, trim_sparse
from .setfn import ALL_PROPERTIES, constant, fn_sum, table, validate, vertex_bulk
from .sparse import e_star, enumerate_bases, max_sparse
from .theta import pc_components, pc_violation, theta

SCHEMA = "partition-forge/1"


# ---------------------------------------------------------------------------
# Parsing and serialization.

@contextmanager
def _malformed(what):
    """Report the errors that reading a malformed input raises (a missing
    key, a value of the wrong type) as a validation error."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc!r}") from exc


def parse_graph(doc):
    with _malformed("graph document"):
        if doc.get("type") != "graph":
            raise ValidationError("expected a graph document")
        return MultiGraph(doc["n"], [tuple(e) for e in doc["edges"]])


def dump_graph(graph):
    return {"type": "graph", "n": graph.n, "edges": [list(e) for e in graph.edges]}


def parse_hypergraph(doc):
    with _malformed("hypergraph document"):
        if doc.get("type") != "hypergraph":
            raise ValidationError("expected a hypergraph document")
        hes = []
        for he in doc["hyperedges"]:
            hes.append(Hyperedge(he["vertices"], he.get("head")))
        return Hypergraph(doc["n"], hes)


def dump_hypergraph(host):
    out = []
    for he in host.hyperedges:
        entry = {"vertices": list(he.vertices)}
        if he.head is not None:
            entry["head"] = he.head
        out.append(entry)
    return {"type": "hypergraph", "n": host.n, "hyperedges": out}


def parse_setfn(doc):
    with _malformed("set function document"):
        kind = doc.get("kind")
        if kind == "constant":
            fn = constant(doc["value"])
        elif kind == "vertex-bulk":
            fn = vertex_bulk(doc["vertex"], doc["bulk"])
        elif kind == "table":
            entries = {}
            for key, value in doc["values"]:
                verts = [int(t) for t in key.split(",")] if key else []
                entries[mask_of(verts)] = value
            fn = table(doc["n"], entries, default=doc.get("default"),
                       flags=doc.get("assume", ()))
        else:
            raise ValidationError(f"unknown set function kind {kind!r}")
        if doc.get("assume") and kind != "table":
            fn = fn.with_flags(*doc["assume"])
    return fn


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_host(args):
    """The host file of the command, refused before any work when it has
    more vertices than an explicit ``--max-n``/``--max-partitions``."""
    if getattr(args, "graph", None):
        host = parse_graph(_load(args.graph))
    elif getattr(args, "hypergraph", None):
        host = parse_hypergraph(_load(args.hypergraph))
    else:
        raise ValidationError("a --graph or --hypergraph file is required")
    limits_mod.check(host.n, getattr(args, "host_limit", None), "vertex count")
    return host


def load_setfns(args, host=None):
    loaded = [(doc, parse_setfn(doc)) for doc in map(_load, args.setfn or [])]
    if not loaded:
        raise ValidationError("at least one --setfn file is required")
    if host is not None:
        for doc, fn in loaded:
            if doc.get("validate"):
                report = validate(fn, host.n)
                bad = report.declared_failures(fn)
                if bad:
                    raise ValidationError(
                        f"declared flags fail validation: {bad}"
                    )
    return [fn for _, fn in loaded]


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational {text!r}") from exc


def _vertex_list(text, n):
    if text is None or text == "":
        return []
    try:
        verts = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"bad vertex list {text!r}") from exc
    for v in verts:
        if not 0 <= v < n:
            raise ValidationError(f"vertex {v} out of range")
    return verts


def _target(text, n):
    parts = text.split(",")
    with _malformed("degree target"):
        if len(parts) == 1 and parts[0] not in ("inf",):
            return DegreeTarget.uniform(int(parts[0]), n)
        if len(parts) != n:
            raise ValidationError("degree target must list every vertex")
        return DegreeTarget([None if p == "inf" else int(p) for p in parts])


def _eta(text, n):
    parts = text.split(",")
    if len(parts) == 1:
        return [_fraction(parts[0])] * n
    if len(parts) != n:
        raise ValidationError("eta must list every vertex")
    return [_fraction(p) for p in parts]


# ---------------------------------------------------------------------------
# Commands.

def _blocks(partition):
    return partition.blocks_as_lists()


def cmd_theta(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    return {"theta": theta(host, l, limit=args.max_n)}


def cmd_components(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    comp = pc_components(host, l, limit=args.max_n)
    return {"blocks": _blocks(comp.partition), "theta": comp.theta_value}


def cmd_check_pc(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    witness = pc_violation(host, l, limit=args.max_n)
    if witness is not None:
        raise NotPartitionConnected("host is not partition-connected", witness)
    return {"partition_connected": True, "l_of_ground": l.value(host.full_mask)}


def cmd_validate_setfn(args):
    fns = [parse_setfn(_load(p)) for p in args.setfn or []]
    if len(fns) != 1:
        raise ValidationError("validate-setfn takes exactly one --setfn")
    fn = fns[0]
    n = args.n if args.n is not None else fn.n
    if n is None:
        raise ValidationError("pass --n for arity-free set functions")
    report = validate(fn, n, limit=args.max_n or limits_mod.VALIDATE_LIMIT)
    props = {}
    for name in ALL_PROPERTIES:
        chk = report.checks[name]
        entry = {"holds": chk.holds}
        if not chk.holds:
            a, b = chk.counterexample
            entry["counterexample"] = {
                "a": bit_list(a),
                "b": None if b is None else bit_list(b),
            }
        props[name] = entry
    bad = report.declared_failures(fn)
    if bad:
        raise ValidationError(f"declared flags fail validation: {bad}")
    return {"n": n, "declared": sorted(fn.flags), "properties": props}


def cmd_sparse_max(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    result = max_sparse(host, l)
    return {"edges": list(result.indices()), "size": len(result)}


def cmd_bases(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    bases = [list(b.indices()) for b in enumerate_bases(host, l)]
    return {"count": len(bases), "bases": bases}


def cmd_e_star(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    s = _vertex_list(args.vertex_set, host.n)
    return {"e_star": e_star(host, l, s)}


def cmd_extract(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    if args.preset:
        if args.k is None:
            raise ValidationError("--preset needs --k")
        eta, lam = preset_eta(host, l, _fraction(args.k), args.preset,
                              independent=args.independent)
    else:
        if args.eta is None or args.lam is None:
            raise ValidationError("pass --eta and --lambda, or --preset")
        eta = _eta(args.eta, host.n)
        lam = _fraction(args.lam)
    x = _vertex_list(args.x, host.n) if args.x else list(range(host.n))
    basis = extract_bounded(host, l, x, eta, lam)
    return {
        "edges": list(basis.indices()),
        "degrees": list(basis.edges.degrees()),
        "eta": [str(e) for e in eta],
        "lambda": str(lam),
    }


def cmd_witness(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    target = _target(args.target, host.n)
    basis, te = min_excess_basis(host, l, target)
    s = structure_witness(host, l, target, basis)
    return {
        "basis": list(basis.indices()),
        "total_excess": te,
        "witness": bit_list(s),
    }


def cmd_decompose(args):
    host = load_host(args)
    fns = load_setfns(args, host)
    dec = decompose_pc(host, fns)
    return {
        "parts": [list(p.indices()) for p in dec.parts],
        "covers_all": dec.covers_all,
    }


def cmd_pack(args):
    host = load_host(args)
    dec = pack_trees_pc(host, args.trees, args.pc_parts)
    return {
        "parts": [list(p.indices()) for p in dec.parts],
        "covers_all": dec.covers_all,
    }


def cmd_trim(args):
    host = load_host(args)
    if not host.is_hypergraph:
        raise ValidationError("trim expects a hypergraph")
    l = fn_sum(*load_setfns(args, host))
    goal = args.goal
    if goal == "pc":
        trimmed = trim_pc(host, l)
    elif goal == "sparse":
        trimmed = trim_sparse(host, l)
    elif goal == "arc":
        trimmed = trim_arc(host, l)
    else:
        raise ValidationError("goal must be pc, sparse or arc")
    return {"trimmed": dump_hypergraph(trimmed)}


def cmd_orient(args):
    host = load_host(args)
    fns = load_setfns(args, host)
    if args.u is not None:
        roots = None
        if args.roots:
            with _malformed("--roots"):
                roots = [
                    [int(t) for t in chunk.split(",")]
                    for chunk in args.roots.split(";")
                ]
        orientation, parts = orient_decompose(host, fns, args.u, roots)
        return {
            "heads": list(orientation.head_of),
            "arcs": [list(a) for a in orientation.arcs()],
            "parts": [list(p.indices()) for p in parts],
        }
    if len(fns) != 1:
        raise ValidationError("plain orientation takes exactly one --setfn")
    orientation = orient_arc_connected(host, fns[0], limit=args.max_edges)
    if orientation is None:
        raise NotPartitionConnected(
            "host is not partition-connected", pc_violation(host, fns[0])
        )
    return {
        "heads": list(orientation.head_of),
        "arcs": [list(a) for a in orientation.arcs()],
    }


def cmd_condition(args):
    host = load_host(args)
    l = fn_sum(*load_setfns(args, host))
    if args.eta is None or args.lam is None:
        raise ValidationError("pass --eta and --lambda")
    x = _vertex_list(args.x, host.n) if args.x else list(range(host.n))
    verdict = check_main_condition(
        host, l, x, _eta(args.eta, host.n), _fraction(args.lam), args.variant
    )
    if not verdict.holds:
        raise ConditionViolated("sufficient condition fails",
                                vertex_set=verdict.witness, margin=verdict.margin)
    return {"holds": True, "margin": str(verdict.margin)}


COMMANDS = {
    "theta": cmd_theta,
    "components": cmd_components,
    "check-pc": cmd_check_pc,
    "validate-setfn": cmd_validate_setfn,
    "sparse-max": cmd_sparse_max,
    "bases": cmd_bases,
    "e-star": cmd_e_star,
    "extract": cmd_extract,
    "witness": cmd_witness,
    "decompose": cmd_decompose,
    "pack": cmd_pack,
    "trim": cmd_trim,
    "orient": cmd_orient,
    "condition": cmd_condition,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="partition-forge",
        description="Partition-connectivity toolkit: measures, sparse "
        "subgraphs, packing, trimming and orientations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--graph")
        p.add_argument("--hypergraph")
        p.add_argument("--setfn", action="append")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--max-n", type=int, default=None)
        p.add_argument("--max-edges", type=int,
                       default=limits_mod.ORIENTATION_EDGE_LIMIT)
        p.add_argument("--max-partitions", type=int, default=None)
        if name == "validate-setfn":
            p.add_argument("--n", type=int, default=None)
        if name == "e-star":
            p.add_argument("--vertex-set", required=True)
        if name in ("extract", "condition"):
            p.add_argument("--eta")
            p.add_argument("--lambda", dest="lam")
            p.add_argument("--x")
        if name == "extract":
            p.add_argument("--preset",
                           choices=("edge-connected", "partition-connected"))
            p.add_argument("--k")
            p.add_argument("--independent", action="store_true")
        if name == "condition":
            p.add_argument("--variant", choices=("intro", "sharp"),
                           default="sharp")
        if name == "witness":
            p.add_argument("--target", required=True)
        if name == "pack":
            p.add_argument("--trees", type=int, required=True)
            p.add_argument("--pc-parts", type=int, default=0)
        if name == "trim":
            p.add_argument("--goal", choices=("pc", "sparse", "arc"),
                           default="pc")
        if name == "orient":
            p.add_argument("--u", type=int, default=None)
            p.add_argument("--roots")
    return parser


def _check_partition_budget(args):
    """Read ``--max-partitions`` as a budget on the partition table's
    (3^n - 1) / 2 block pairs: admit the largest n, up to the table's
    vertex limit, within it."""
    if args.max_partitions is None or args.max_n is not None:
        return
    n = limits_mod.PARTITION_ENUM_LIMIT
    while n > 0 and (3**n - 1) // 2 > args.max_partitions:
        n -= 1
    args.max_n = n


def _emit(payload, fmt, stream):
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
        return
    def lines(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                yield from lines(f"{prefix}{k}.", value[k])
        else:
            yield f"{prefix[:-1]}: {value}"
    for line in lines("", payload):
        stream.write(line + "\n")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format
    try:
        _check_partition_budget(args)
        # Only a limit the user passed bounds every command's host.
        args.host_limit = args.max_n
        if args.max_n is None:
            args.max_n = limits_mod.PARTITION_ENUM_LIMIT
        result = COMMANDS[args.command](args)
    except PartitionForgeError as exc:
        error = {"kind": exc.kind, "message": str(exc), **exc.witness_payload()}
        _emit({"schema": SCHEMA, "command": args.command, "error": error},
              fmt, sys.stdout)
        return exc.exit_code
    payload = {"schema": SCHEMA, "command": args.command}
    payload.update(result)
    _emit(payload, fmt, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
