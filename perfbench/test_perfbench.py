"""Tests of the benchmark itself: every checker rejects a corrupted result,
each workload runs a tiny job list cleanly, and the tracer installs and
removes its wrappers."""

import json

import pytest

import partition_forge as pf
from perfbench import checks, gen, trace, workload
from perfbench import reference as R
from perfbench.run import WORKLOADS, Runner
from perfbench.workload import CliResult

JOBS = workload.manifest()["workloads"]


def job(workload_name, pred):
    return next(j for j in JOBS[workload_name] if pred(j))


def library_out(j):
    loaded = workload.setup("lib", [j])
    return checks.normalize(j["op"], workload.run_library(j, loaded))


@pytest.fixture(scope="module")
def ctx():
    return checks.Context()


def test_reference_agrees_with_the_package_on_theta(ctx):
    host = ctx.host("m7a")
    ref = ctx.ref({"host": "m7a", "demands": ["c2"]})["theta_without"]
    g = workload.parse_host(ctx.docs("hosts", "m7a"))
    for s in (0, 5, 66):
        assert ref[s] == pf.theta_without(g, pf.constant(2), s)
    assert R.theta(host.full, host.edges, ctx.demand("c2")) == ref[0]


def test_wrong_theta_is_rejected(ctx):
    j = job("measure", lambda j: j["op"] == "theta_oracle")
    out = library_out(j)
    ctx.check(j, out)
    with pytest.raises(checks.CheckFailed):
        checks.check_library(j, out + 1, ctx)


def test_crossing_uncovered_edge_is_rejected(ctx):
    j = job("pack", lambda j: j["op"] == "max_sparse_family" and j["host"].startswith("p5"))
    out = library_out(j)
    ctx.check(j, out)
    host = ctx.host(j["host"])
    fns = [ctx.demand(d) for d in j["demands"]]
    uncovered = set(range(len(host.edges))) - {e for p in out["parts"] for e in p}
    assert uncovered, "instance should leave an edge uncovered"
    singletons = [[v] for v in range(host.n)]
    with pytest.raises(checks.CheckFailed, match="crosses"):
        checks.check_family(host, fns, out["parts"], singletons)


def test_disconnected_part_is_rejected(ctx):
    j = job("pack", lambda j: j["op"] == "decompose_pc" and j["host"].startswith("p5"))
    out = library_out(j)
    ctx.check(j, out)
    host = ctx.host(j["host"])
    # Hand every edge at vertex 0 to part 0: part 1 leaves vertex 0 isolated.
    at0 = [e for e in out["parts"][1] if 0 in host.edges[e]]
    parts = [out["parts"][0] + at0, [e for e in out["parts"][1] if e not in at0]]
    with pytest.raises(checks.CheckFailed, match="not partition-connected"):
        checks.check_library(j, {"parts": parts}, ctx)


def test_degree_over_bound_is_rejected(ctx):
    j = job("pack", lambda j: j["op"] == "half_degree_pc")
    out = library_out(j)
    ctx.check(j, out)
    every_edge = list(range(len(ctx.host(j["host"]).edges)))
    with pytest.raises(checks.CheckFailed, match="degree over its bound"):
        checks.check_library(j, {"edges": every_edge}, ctx)


def test_non_canonical_json_is_rejected():
    j = job("cli", lambda j: j["command"] == "theta")
    line = json.dumps({"schema": checks.SCHEMA, "command": "theta", "theta": 1})
    with pytest.raises(checks.CheckFailed, match="canonical"):
        checks.parse_cli(j, CliResult(0, line + "\n"))
    canonical = json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    assert checks.parse_cli(j, CliResult(0, canonical + "\n"))["theta"] == 1


def test_wrong_condition_verdict_is_rejected(ctx):
    j = job("extract", lambda j: j["op"] == "check_main_condition")
    out = library_out(j)
    ctx.check(j, out)
    flipped = dict(out, holds=not out["holds"], witness=[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_library(j, flipped, ctx)


TINY = {
    "measure": lambda j: j["op"] == "theta_without" and j["host"] == "m7a",
    "extract": lambda j: j["op"] == "preset_eta" and j["host"] == "e6a",
    "pack": lambda j: j["host"] in ("p5g0", "ph5") and j["op"] != "max_sparse_family",
    "cli": lambda j: j["command"] in ("validate-setfn", "orient", "e-star"),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_each_workload(name, tmp_path):
    jobs = [j for j in JOBS[name] if TINY[name](j)]
    assert 2 <= len(jobs) <= 6
    loaded = workload.setup(name, jobs)
    runner = Runner(name, jobs, loaded, 3, str(tmp_path))
    rounds, wall, attempted, failed = runner.run_phase(0.0)
    assert runner.crashed == [] and runner.wrong == []
    assert (rounds, attempted, failed) == (1, len(jobs), 0)
    assert wall > 0 and sorted(runner.by_job) == sorted(j["id"] for j in jobs)


def test_tracer_reports_layers_and_restores_the_package():
    original = pf.theta.__code__
    jobs = [j for j in JOBS["measure"] if TINY["measure"](j)]
    loaded = workload.setup("measure", jobs)
    tracer = trace.Tracer()
    tracer.install()
    try:
        for j in jobs:
            tracer.job = j["id"]
            workload.run_library(j, loaded)
    finally:
        tracer.uninstall()
    names = {rec[0] for rec in tracer.spans}
    assert {"theta.theta_without", "_kernels.partition_scan"} <= names
    metrics = trace.layer_metrics(tracer.spans, 1)
    assert metrics["theta.theta_without.calls"] == len(jobs)
    assert metrics["kernels.partition_scan.calls"] >= len(jobs)
    assert metrics["setfn.ensure_properties.hit_ratio"] == 1.0
    assert pf.theta.__code__ is original
    assert pf.theta_without.__module__ == "partition_forge.theta"
    assert not hasattr(pf.theta_without, "__wrapped__")


def test_cli_inputs_do_not_repeat_within_a_run(tmp_path):
    # Five-vertex hosts have only 120 relabellings; 40 rounds would repeat
    # one with near certainty if they were drawn independently.
    jobs = [j for j in JOBS["cli"] if j.get("host") in ("c5a", "cd5")]
    assert jobs
    used = set()
    seen = set()
    for index in range(40):
        rnd = workload.CliRound(jobs, 3, index, str(tmp_path), used)
        for j in jobs:
            argv = rnd.argv[j["id"]]
            inputs = []
            for arg in argv:
                if arg.endswith(".json"):
                    with open(arg, encoding="utf-8") as fh:
                        arg = fh.read()
                inputs.append(arg)
            seen.add(tuple(inputs))
        rnd.close()
    assert len(seen) == 40 * len(jobs)


def test_tracer_closes_spans_a_stopped_job_left_open():
    tracer = trace.Tracer()
    tracer.start_job("a")
    # As after a SIGALRM between a wrapper's bookkeeping steps.
    tracer.stack.append(len(tracer.spans))
    tracer.spans.append(["theta.theta", 1.0, 0.0, -1, "a", None])
    tracer.end_job(3.0)
    assert tracer.spans[0][2] == 3.0 and tracer.stack == [] and tracer.job is None
    tracer.start_job("b")
    tracer.spans.append(["theta.theta", 4.0, 5.0, -1, "b", None])
    tracer.end_job(6.0)
    assert tracer.spans[1][2] == 5.0
    assert trace.layer_metrics(tracer.spans, 1)["theta.self_ms"] == 3000.0


@pytest.mark.parametrize("host", ["p5g1", "p5o1", "p6c1"])
def test_generator_reads_the_packing_route_from_spans(host):
    doc = workload.load_json("hosts", host + ".json")
    path = gen.pack_path(doc, [gen.SETFNS["c1"]] * 2)
    assert path == workload.manifest()["pack_paths"][host]
