"""Jobs of the benchmark: loading the committed instances, the first-use
set-up a library user pays once per demand function, and one call per
job into the public API of ``partition_forge``.

Library calls look functions up on the package modules at call time, so
the tracer's wrappers (installed in every module namespace) are seen.
"""

import collections
import contextlib
import functools
import io
import json
import os
import random
import shutil

import partition_forge as pf
from partition_forge import cli

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCES = os.path.join(HERE, "instances")


def load_json(*parts):
    with open(os.path.join(INSTANCES, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def manifest():
    return load_json("manifest.json")


def parse_host(doc):
    if doc["type"] == "graph":
        return cli.parse_graph(doc)
    return cli.parse_hypergraph(doc)


class Loaded:
    """The workload's hosts and demand functions as package objects."""

    def __init__(self, jobs):
        self.hosts = {}
        self.fns = {}
        for job in jobs:
            if "host" in job and job["host"] not in self.hosts:
                self.hosts[job["host"]] = parse_host(load_json("hosts", job["host"] + ".json"))
            for d in job.get("demands", ()):
                if d not in self.fns:
                    self.fns[d] = cli.parse_setfn(load_json("setfns", d + ".json"))

    def first_uses(self, jobs):
        """Every (demand function, arity) the jobs use, once."""
        seen = set()
        for job in jobs:
            if "host" not in job:
                continue
            n = self.hosts[job["host"]].n
            for d in job.get("demands", ()):
                if (d, n) not in seen:
                    seen.add((d, n))
                    yield self.fns[d], n


def first_use(fn, n):
    """Tables and property validation, as a library user pays them before
    the first call."""
    pf.validate(fn, n)
    fn.slack_table(n)


def setup(workload, jobs, step=lambda call: call()):
    """Load the instances and, except on ``cli``, pay the first use of
    every demand function.  Each step (the loading, then one first use)
    runs through ``step``, so that the runner can time steps one by one."""
    loaded = step(lambda: Loaded(jobs))
    if workload != "cli":
        for fn, n in loaded.first_uses(jobs):
            step(functools.partial(first_use, fn, n))
    return loaded


# ---------------------------------------------------------------------------
# Library jobs.  Each returns the result, or the documented refusal (a
# MathConditionError) as a value.

def _library_call(job, loaded):
    op = job["op"]
    host = loaded.hosts[job["host"]]
    fns = [loaded.fns[d] for d in job["demands"]]
    l = fns[0] if fns else None
    if op == "theta_oracle":
        return pf.theta_oracle(host, l)
    if op == "pc_violation":
        return pf.pc_violation(host, l)
    if op == "is_pc":
        return pf.is_pc(host, l)
    if op == "pc_components":
        return pf.pc_components(host, l)
    if op == "theta":
        return pf.theta(host, l)
    if op == "theta_without":
        return pf.theta_without(host, l, job["vertex_set"])
    if op == "preset_eta":
        return pf.preset_eta(host, l, job["k"], job["connectivity"], job["independent"])
    if op == "check_main_condition":
        return pf.check_main_condition(host, l, job["x"], job["eta"], job["lam"],
                                       job["variant"])
    if op == "extract_bounded":
        return pf.extract_bounded(host, l, job["x"], job["eta"], job["lam"])
    if op == "min_excess_basis":
        basis, te = pf.min_excess_basis(host, l, job["target"])
        return basis, te, pf.structure_witness(host, l, job["target"], basis)
    if op == "decompose_pc":
        return pf.decompose_pc(host, fns)
    if op == "pack_trees_pc":
        return pf.pack_trees_pc(host, job["trees"], job["pc_parts"])
    if op == "max_sparse_family":
        family = pf.max_sparse_family(host, fns)
        return family, pf.witness_partition(host, family)
    if op == "half_degree_pc":
        return pf.half_degree_pc(host, l, job["u"])
    raise ValueError(f"unknown op {op!r}")


def run_library(job, loaded):
    try:
        return _library_call(job, loaded)
    except pf.MathConditionError as exc:
        return exc


# ---------------------------------------------------------------------------
# CLI jobs.  Every round relabels the vertices of every instance by a
# seeded permutation and writes fresh files.  A relabelling whose
# (command, inputs) pair was already used in the run is drawn again, so no
# pair repeats within a run.  Edge order is kept.

# Draws per job and round before the run gives up on finding an unused
# relabelling (an instance with few distinct relabellings in a long run).
CLI_DRAWS = 1000


def relabel_host(doc, perm):
    if doc["type"] == "graph":
        return {"type": "graph", "n": doc["n"],
                "edges": [sorted((perm[u], perm[v])) for u, v in doc["edges"]]}
    out = []
    for he in doc["hyperedges"]:
        entry = {"vertices": sorted(perm[v] for v in he["vertices"])}
        if "head" in he:
            entry["head"] = perm[he["head"]]
        out.append(entry)
    return {"type": "hypergraph", "n": doc["n"], "hyperedges": out}


def relabel_setfn(doc, perm):
    if doc["kind"] != "table":
        return doc
    out = dict(doc)
    values = []
    for key, val in doc["values"]:
        verts = sorted(perm[int(t)] for t in key.split(",")) if key else []
        values.append([",".join(map(str, verts)), val])
    out["values"] = values
    return out


class CliRound:
    """Relabelled copies of the cli workload's inputs for one round.
    ``used`` holds the (command, inputs) keys of the run's earlier rounds
    and gains this round's."""

    def __init__(self, jobs, seed, index, root, used):
        self.rng = random.Random(f"{seed}:{index}")
        self.dir = os.path.join(root, f"round-{index}")
        os.makedirs(self.dir, exist_ok=True)
        self.perms = {}
        self.argv = {}
        for job in jobs:
            n = self._arity(job)
            for _ in range(CLI_DRAWS):
                perm = list(range(n))
                self.rng.shuffle(perm)
                docs, opts = self._inputs(job, perm)
                key = json.dumps([job["command"], docs, opts], sort_keys=True)
                if key not in used:
                    break
            else:
                raise RuntimeError(f"{job['id']}: no unused relabelling in {CLI_DRAWS} draws")
            used.add(key)
            self.perms[job["id"]] = perm
            self.argv[job["id"]] = self._argv(job, docs, opts)

    @staticmethod
    def _arity(job):
        if "host" in job:
            return load_json("hosts", job["host"] + ".json")["n"]
        return job["opts"]["n"]

    @staticmethod
    def _inputs(job, perm):
        """The relabelled documents, as (flag, name, doc), and options."""
        docs = []
        if "host" in job:
            doc = load_json("hosts", job["host"] + ".json")
            flag = "--graph" if doc["type"] == "graph" else "--hypergraph"
            docs.append((flag, "host", relabel_host(doc, perm)))
        for i, d in enumerate(job.get("demands", ())):
            docs.append(("--setfn", f"setfn{i}",
                         relabel_setfn(load_json("setfns", d + ".json"), perm)))
        opts = []
        for key in sorted(job["opts"]):
            val = job["opts"][key]
            flag = "--" + key.replace("_", "-")
            if key == "lam":
                flag = "--lambda"
            if key in ("x", "vertex_set"):
                val = ",".join(str(perm[v]) for v in val)
            elif key == "u":
                val = perm[val]
            elif key == "eta":
                moved = [None] * len(val)
                for v, e in enumerate(val):
                    moved[perm[v]] = e
                val = ",".join(moved)
            opts.append((flag, str(val)))
        return docs, opts

    def _argv(self, job, docs, opts):
        argv = [job["command"], "--format", "json"]
        for flag, name, doc in docs:
            path = os.path.join(self.dir, f"{job['id']}-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv += [flag, path]
        for flag, val in opts:
            argv += [flag, val]
        return argv

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


CliResult = collections.namedtuple("CliResult", "code out")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pf.cli.main(argv)
    return CliResult(code, out.getvalue())
