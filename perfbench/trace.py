"""Spans around the public functions of every package module.

``Tracer.install`` wraps each public function and public method defined
in a layer module and puts the wrapper into every ``partition_forge``
namespace that holds the original (``theta`` imports
``ensure_properties`` by name, for example).  Private helpers are not
wrapped, so their time counts toward the public caller.  Spans are kept in
memory as ``[name, start, end, parent, job, info]`` and written out when
the run ends; ``layer_metrics`` reduces them to the per-layer metrics.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("setfn", "_kernels", "hosts", "theta", "sparse", "extract", "decompose",
          "orient", "cli")
# Names whose inclusive time is reported (outermost span only).
INCLUSIVE = ("orient.trim_pc", "theta.pc_components", "sparse.e_star_table",
             "extract.check_main_condition", "extract.min_excess_basis",
             "extract.structure_witness", "decompose.max_sparse_family",
             "decompose.witness_partition", "cli.load_setfns")
TABLE_SPANS = ("setfn.SetFunction.table", "setfn.SetFunction.singleton_sum_table",
               "setfn.SetFunction.slack_table")


@functools.lru_cache(maxsize=None)
def _bell(k):
    """Bell number B(k), by the Bell triangle."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _info(name, args, result):
    """Outcome data the ratios need, for the kernels that have them."""
    if name == "_kernels.partition_scan":
        return (int(args[0]), bool(result[2]))
    if name == "_kernels.sparse_violation":
        return int(result) < 0
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self._first = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def _targets(self):
        """(span name, owner, attribute, original) for every public function
        and method defined in a layer module."""
        out = []
        seen = {}
        for layer in LAYERS:
            mod = sys.modules["partition_forge." + layer]
            names = sorted(vars(mod), key=lambda a: (a.startswith("py_"), a))
            for attr in names:
                obj = vars(mod)[attr]
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if id(obj) not in seen:
                        seen[id(obj)] = f"{layer}.{attr}"
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            out.append((f"{layer}.{attr}.{meth}", obj, meth, fn))
        originals = {}
        for layer in LAYERS:
            mod = sys.modules["partition_forge." + layer]
            for attr, obj in vars(mod).items():
                if id(obj) in seen:
                    originals[id(obj)] = obj
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "partition_forge" and not mod_name.startswith("partition_forge."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in seen and originals.get(id(obj)) is obj:
                    out.append((seen[id(obj)], mod, attr, obj))
        return out

    def install(self):
        wrappers = {}
        for name, owner, attr, fn in self._targets():
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if inspect.isgenerator(result):
                    return tracer._resume(name, result)
                rec[5] = _info(name, args, result)
                return result
            finally:
                stack.pop()
                rec[2] = clock()

        return wrapper

    def _resume(self, name, gen):
        """Re-open a span each time a wrapped generator is resumed."""
        clock = time.perf_counter
        while True:
            rec = [name, clock(), 0.0, self.stack[-1] if self.stack else -1, self.job, None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.stack.pop()
                rec[2] = clock()
            yield item

    # -- jobs ---------------------------------------------------------------

    def start_job(self, job):
        """Every job starts at the top level, so the span stack starts
        empty whatever a job stopped by its time limit left on it."""
        self.stack.clear()
        self.job = job
        self._first = len(self.spans)

    def end_job(self, end):
        """Give the job's spans that are still open the job's end time.  A
        job stopped by its time limit (``SIGALRM``) can leave a span open
        when the signal lands between a wrapper's bookkeeping steps."""
        for rec in self.spans[self._first:]:
            if rec[2] == 0.0:
                rec[2] = end
        self.stack.clear()
        self.job = None

    # -- output -------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:5]) + "\n")


def layer_of(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, rounds):
    """Per-layer metrics per round of the job list."""
    n = len(spans)
    child = [0.0] * n
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls = {}
    incl = {}
    self_by_name = {}
    self_by_layer = {}
    validation_ran = set()
    bell = 0
    exceeded = 0
    accepted = 0
    for i, rec in enumerate(spans):
        name = rec[0]
        dur = rec[2] - rec[1]
        own = dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = layer_of(name)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        if name in INCLUSIVE and not _nested_in_same(spans, i):
            incl[name] = incl.get(name, 0.0) + dur
        if name == "_kernels.partition_scan" and rec[5] is not None:
            bell += _bell(rec[5][0])
            exceeded += rec[5][1]
        elif name == "_kernels.sparse_violation" and rec[5] is not None:
            accepted += rec[5]
        elif name == "_kernels.pair_violation":
            p = rec[3]
            while p >= 0:
                if spans[p][0] == "setfn.ensure_properties":
                    validation_ran.add(p)
                p = spans[p][3]

    def per_round(x):
        return x / rounds

    def ms(x):
        return 1000.0 * x / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    ensure_calls = calls.get("setfn.ensure_properties", 0)
    scans = calls.get("_kernels.partition_scan", 0)
    sparse_calls = calls.get("_kernels.sparse_violation", 0)
    m = {
        "setfn.validate.calls": per_round(calls.get("setfn.validate", 0)),
        "setfn.validate.self_ms": ms(self_by_name.get("setfn.validate", 0.0)),
        "setfn.ensure_properties.hit_ratio":
            ratio(ensure_calls - len(validation_ran), ensure_calls),
        "setfn.table.self_ms": ms(sum(self_by_name.get(s, 0.0) for s in TABLE_SPANS)),
        "setfn.self_ms": ms(self_by_layer.get("setfn", 0.0)),
        "kernels.pair_violation.self_ms": ms(self_by_name.get("_kernels.pair_violation", 0.0)),
        "kernels.partition_scan.calls": per_round(scans),
        "kernels.partition_scan.bell": per_round(bell),
        "kernels.partition_scan.self_ms": ms(self_by_name.get("_kernels.partition_scan", 0.0)),
        "kernels.partition_scan.exceeded_ratio": ratio(exceeded, scans),
        "kernels.sparse_violation.calls": per_round(sparse_calls),
        "kernels.sparse_violation.self_ms":
            ms(self_by_name.get("_kernels.sparse_violation", 0.0)),
        "kernels.sparse_violation.accept_ratio": ratio(accepted, sparse_calls),
        "kernels.count_inside.calls": per_round(calls.get("_kernels.count_inside", 0)),
        "kernels.assignment_best.calls": per_round(calls.get("_kernels.assignment_best", 0)),
        "kernels.assignment_best.self_ms":
            ms(self_by_name.get("_kernels.assignment_best", 0.0)),
        "kernels.find_orientation.self_ms":
            ms(self_by_name.get("_kernels.find_orientation", 0.0)),
        "kernels.arc_violation.self_ms": ms(self_by_name.get("_kernels.arc_violation", 0.0)),
        "kernels.self_ms": ms(self_by_layer.get("_kernels", 0.0)),
        "orient.self_ms": ms(self_by_layer.get("orient", 0.0)),
        "orient.trim_pc.ms": ms(incl.get("orient.trim_pc", 0.0)),
        "theta.self_ms": ms(self_by_layer.get("theta", 0.0)),
        "theta.pc_components.ms": ms(incl.get("theta.pc_components", 0.0)),
        "theta.theta_without.calls": per_round(calls.get("theta.theta_without", 0)),
        "sparse.e_star_table.ms": ms(incl.get("sparse.e_star_table", 0.0)),
        "sparse.self_ms": ms(self_by_layer.get("sparse", 0.0)),
        "sparse.min_pc_subgraph.calls": per_round(calls.get("sparse.min_pc_subgraph", 0)),
        "extract.check_main_condition.ms": ms(incl.get("extract.check_main_condition", 0.0)),
        "extract.min_excess_basis.ms": ms(incl.get("extract.min_excess_basis", 0.0)),
        "extract.structure_witness.ms": ms(incl.get("extract.structure_witness", 0.0)),
        "extract.self_ms": ms(self_by_layer.get("extract", 0.0)),
        "decompose.max_sparse_family.ms": ms(incl.get("decompose.max_sparse_family", 0.0)),
        "decompose.witness_partition.ms": ms(incl.get("decompose.witness_partition", 0.0)),
        "decompose.self_ms": ms(self_by_layer.get("decompose", 0.0)),
        "hosts.self_ms": ms(self_by_layer.get("hosts", 0.0)),
        "cli.self_ms": ms(self_by_layer.get("cli", 0.0)),
        "cli.load_setfns.ms": ms(incl.get("cli.load_setfns", 0.0)),
    }
    return m


def _nested_in_same(spans, i):
    name = spans[i][0]
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


UNITS = {"calls": "count", "bell": "count", "ms": "ms", "self_ms": "ms"}


def unit_of(metric):
    last = metric.rsplit(".", 1)[1]
    return UNITS.get(last, "ratio")
