"""Run one benchmark workload of partition-forge.

    python3 perfbench/run.py --workload {measure,extract,pack,cli} \
        --seed N --seconds S --trace {0,1}

One process, one thread, a closed loop with one client: each job starts
when the previous one has returned.  A run repeats whole rounds of the
workload's fixed job list (each round in a seeded order) until the timed
phase has lasted ``--seconds``.  Every output is checked after its round,
outside the timed phase.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run records and spans go to ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
WORKLOADS = ("measure", "extract", "pack", "cli")
# Set-up is repeated and its median reported; so is the import, each time
# in a fresh interpreter.
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
# A job that runs longer than this is stopped and counted as failed.
JOB_LIMIT_S = 60.0
# Timings are reported at the machine speed where one probe takes this long,
# and imports where the import probe takes this long.
PROBE_REF_S = 0.001
IMPORT_PROBE_REF_S = 0.08


class JobTimeLimit(BaseException):
    """Raised into a job that passed its time limit (not an Exception, so
    no handler in the package can swallow it)."""


def _alarm(signum, frame):
    raise JobTimeLimit()


def probe():
    """Seconds taken by a fixed piece of work of the kind the package's
    fallback kernels do: a Python loop over NumPy int64 scalars, here the
    restricted-growth enumeration of the partitions of six elements, four
    times.

    The shared machine's speed drifts by tens of percent within a minute,
    and this probe's time tracks it closely (on repeated jobs, dividing by
    the probes around each job cut the spread of block medians from about
    36% to 2-5%).  The probe is the benchmark's own code, so a change to
    the package does not move it.
    """
    import numpy as np  # already imported with the package; a dict lookup

    start = time.perf_counter()
    k = 6
    a = np.zeros(k, dtype=np.int64)
    bmax = np.zeros(k, dtype=np.int64)
    ltab = np.arange(1 << k, dtype=np.int64)
    acc = np.int64(0)
    for _ in range(4):
        a[:] = 0
        bmax[:] = 0
        while True:
            acc += ltab[a[0] + a[k - 1]]
            i = k - 1
            while i > 0 and a[i] > bmax[i]:
                i -= 1
            if i == 0:
                break
            a[i] += 1
            for t in range(i + 1, k):
                a[t] = 0
                bmax[t] = max(bmax[t - 1], a[t - 1])
    return time.perf_counter() - start


def at_reference_speed(seconds, probe_before, probe_after):
    """A duration scaled to the speed where a probe takes PROBE_REF_S."""
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)


# A fresh interpreter first imports a fixed set of standard-library modules
# (the import probe), then the package and the benchmark's modules.
IMPORT_CHILD = """\
import sys, time
start = time.perf_counter()
import asyncio, decimal, email.parser, http.client, logging, tarfile, unittest, \\
    xml.dom.minidom, zipfile
probe = time.perf_counter() - start
sys.path[:0] = [{root!r}, {src!r}]
start = time.perf_counter()
from perfbench import trace, workload
print(time.perf_counter() - start, probe)
"""


def import_seconds():
    """Import times of the package and the benchmark's modules, each in a
    fresh interpreter started after the last has ended, as
    (import, import probe) pairs of raw seconds.

    An import is mostly reading, unmarshalling and linking files, which
    the compute probe does not track; the import probe in the same
    interpreter does (see README.md).
    """
    code = IMPORT_CHILD.format(root=ROOT, src=os.path.join(ROOT, "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(tuple(float(x) for x in done.stdout.split()))
    return times


def timed_setup(name, jobs):
    """One set-up of the workload, timed step by step (loading, then the
    first use of each demand function at each arity), each step scaled by
    the medians of three probes on either side of it.  Scaling the whole
    set-up by the probes at its ends follows the machine's speed less well
    (see README.md).  Returns (loaded, raw seconds, scaled seconds)."""
    from perfbench import workload

    before = statistics.median(probe() for _ in range(3))
    raw = scaled = 0.0

    def step(call):
        nonlocal before, raw, scaled
        t0 = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - t0
        after = statistics.median(probe() for _ in range(3))
        raw += seconds
        scaled += at_reference_speed(seconds, before, after)
        before = after
        return out

    loaded = workload.setup(name, jobs, step)
    return loaded, raw, scaled


def parse_args(argv):
    p = argparse.ArgumentParser(description="partition-forge benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Rounds of one workload's jobs, with their checks."""

    def __init__(self, name, jobs, loaded, seed, out_dir):
        from perfbench import checks, workload

        self.name = name
        self.jobs = jobs
        self.loaded = loaded
        self.seed = seed
        self.checks = checks
        self.workload = workload
        self.ctx = checks.Context()
        self.rng = random.Random(seed)
        self.rounds = 0
        self.cli_dir = os.path.join(out_dir, f"cli-{os.getpid()}")
        self.by_job = {}
        self.raw_by_job = {}
        self.cli_used = set()
        self.crashed = []
        self.wrong = []
        signal.signal(signal.SIGALRM, _alarm)

    def run_phase(self, seconds, tracer=None):
        """Whole rounds until the timed wall time reaches ``seconds``.
        Returns (rounds, wall seconds, attempted, failed).  Each job's
        latencies are left in ``raw_by_job`` and, scaled to reference speed
        by the probes run before and after the job, in ``by_job``; a job
        stopped at its limit counts its limit there."""
        wall = 0.0
        self.by_job = {}
        self.raw_by_job = {}
        attempted = failed = rounds = 0
        while rounds == 0 or wall < seconds:
            order = list(self.jobs)
            self.rng.shuffle(order)
            cli_round = None
            if self.name == "cli":
                cli_round = self.workload.CliRound(self.jobs, self.seed, self.rounds,
                                                   self.cli_dir, self.cli_used)
            outputs = []
            start = time.perf_counter()
            before = probe()
            for job in order:
                if tracer is not None:
                    tracer.start_job(job["id"])
                t0 = time.perf_counter()
                result, status = self.run_job(job, cli_round)
                t1 = time.perf_counter()
                raw = t1 - t0
                if tracer is not None:
                    tracer.end_job(t1)
                after = probe()
                if status == "timeout":
                    scaled = job.get("limit_s", JOB_LIMIT_S)
                else:
                    scaled = at_reference_speed(raw, before, after)
                before = after
                self.by_job.setdefault(job["id"], []).append(scaled)
                self.raw_by_job.setdefault(job["id"], []).append(raw)
                attempted += 1
                if status == "ok":
                    outputs.append((job, result))
                else:
                    failed += 1
            wall += time.perf_counter() - start
            rounds += 1
            self.rounds += 1
            self.check_round(outputs, cli_round)
            if cli_round is not None:
                cli_round.close()
        if self.name == "cli":
            os.rmdir(self.cli_dir)
        return rounds, wall, attempted, failed

    def run_job(self, job, cli_round):
        signal.setitimer(signal.ITIMER_REAL, job.get("limit_s", JOB_LIMIT_S))
        try:
            if cli_round is not None:
                return self.workload.run_cli(cli_round.argv[job["id"]]), "ok"
            return self.workload.run_library(job, self.loaded), "ok"
        except JobTimeLimit:
            return None, "timeout"
        except Exception as exc:  # a job that crashes counts as failed
            self.crashed.append(f"{job['id']}: {exc!r}")
            return None, "crash"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def check_round(self, outputs, cli_round):
        for job, result in outputs:
            try:
                if cli_round is not None:
                    out = self.checks.cli_output(job, result, cli_round.perms[job["id"]])
                else:
                    out = self.checks.normalize(job["op"], result)
                self.ctx.check(job, out)
            except self.checks.CheckFailed as exc:
                self.wrong.append(f"{job['id']}: check failed: {exc}")
            except (KeyError, TypeError, ValueError) as exc:
                self.wrong.append(f"{job['id']}: malformed output: {exc!r}")


def typical_rate(by_job, failed_per_round):
    """Jobs completed per round over the sum of each job's median latency:
    the throughput of a typical round."""
    medians = [statistics.median(v) for v in by_job.values()]
    return (len(medians) - failed_per_round) / sum(medians)


def end_to_end(by_job, failed_per_round, setup_s):
    """End-to-end metrics from each job's median latency (at reference
    speed) over the run's rounds."""
    medians = [statistics.median(v) for v in by_job.values()]
    return {
        "jobs_per_s": {"value": typical_rate(by_job, failed_per_round), "unit": "1/s"},
        "job_p50_ms": {"value": 1000.0 * statistics.median(medians), "unit": "ms"},
        "job_geomean_ms": {
            "value": 1000.0 * math.exp(statistics.fmean(math.log(x) for x in medians)),
            "unit": "ms",
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def main(argv=None):
    args = parse_args(argv)
    from perfbench import trace, workload

    import_first_s = time.perf_counter() - _T0
    import_times = import_seconds()
    jobs = workload.manifest()["workloads"][args.workload]
    setup_times = []
    scaled = []
    for _ in range(SETUP_REPEATS):
        loaded, raw, at_ref = timed_setup(args.workload, jobs)
        setup_times.append(raw)
        scaled.append(at_ref)
    import_s = statistics.median(t / p for t, p in import_times) * IMPORT_PROBE_REF_S
    setup_s = import_s + statistics.median(scaled)

    os.makedirs(OUT, exist_ok=True)
    runner = Runner(args.workload, jobs, loaded, args.seed, OUT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "using_numba": workload.pf.USING_NUMBA,
              "python": sys.version.split()[0], "optimized": sys.flags.optimize,
              "setup_times_s": setup_times, "import_and_probe_s": import_times,
              "import_reference_s": import_s, "import_first_s": import_first_s,
              "probe_ref_s": PROBE_REF_S}
    if args.trace:
        half = args.seconds / 2.0
        r0, _, a0, f0 = runner.run_phase(half)
        plain_by_job = runner.by_job
        tracer = trace.Tracer()
        tracer.install()
        try:
            r1, _, a1, f1 = runner.run_phase(half, tracer)
        finally:
            tracer.uninstall()
        attempted, failed = a0 + a1, f0 + f1
        traced_rate = typical_rate(runner.by_job, f1 / r1)
        plain_rate = typical_rate(plain_by_job, f0 / r0)
        metrics = {k: {"value": v, "unit": trace.unit_of(k)}
                   for k, v in trace.layer_metrics(tracer.spans, r1).items()}
        metrics["trace.overhead_ratio"] = {"value": traced_rate / plain_rate,
                                           "unit": "ratio"}
        record.update(rounds=[r0, r1], spans=len(tracer.spans))
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
    else:
        rounds, wall, attempted, failed = runner.run_phase(args.seconds)
        metrics = end_to_end(runner.by_job, failed / rounds, setup_s)
        record.update(rounds=rounds, wall_s=wall, job_latency_s=runner.raw_by_job,
                      job_latency_reference_s=runner.by_job)

    result = {"correct": not runner.wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result=result, crashed=runner.crashed, wrong=runner.wrong)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for e in runner.crashed + runner.wrong:
        print(e, file=sys.stderr)
    print(f"USING_NUMBA={record['using_numba']} rounds={record['rounds']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
