"""Packing outputs pinned byte for byte.

Seeded hosts (n <= 7; multigraphs and rank-3 hypergraphs) run through
every packing entry point: ``max_sparse_family`` on each method followed by
``witness_partition``, ``decompose_pc``, ``pack_trees_pc`` and
``half_degree_pc``.  The ``repr`` of each output, or the type, message and
witness of each refusal, is reduced to a short digest and compared with
``data/packing_digests.json`` (one line per host, its calls' digests in
call order), so a change of any answer names its host and call.

Regenerate the file (only when an output change is intended and recorded)
with ``PYTHONPATH=src python tests/test_packing_digests.py``.
"""

import hashlib
import json
import random
from pathlib import Path

from partition_forge import (
    MathConditionError,
    PartitionForgeError,
    constant,
    decompose_pc,
    half_degree_pc,
    max_sparse_family,
    pack_trees_pc,
    vertex_bulk,
    witness_partition,
)
from conftest import (
    random_connected_multigraph,
    random_hypergraph,
    random_multigraph,
)

DIGESTS = Path(__file__).resolve().parent / "data" / "packing_digests.json"
SEED = 12
HOSTS = 120
# The exhaustive oracle runs only where its (parts + 1) ** edges states
# stay this small, so the whole file runs in about a second.
ORACLE_STATES = 4096
DEMANDS = {
    "c1": lambda: constant(1),
    "c2": lambda: constant(2),
    "vb11": lambda: vertex_bulk(1, 1),
    "vb10": lambda: vertex_bulk(1, 0),
    "vb21": lambda: vertex_bulk(2, 1),
}


def _host(rng):
    n = rng.randint(2, 7)
    if n >= 3 and rng.random() < 0.35:
        return random_hypergraph(rng, n, rng.randint(1, 2 * n), 3)
    if rng.random() < 0.6:
        return random_connected_multigraph(rng, n, rng.randint(0, n + 2))
    return random_multigraph(rng, n, rng.randint(0, 2 * n))


def _outcome(call):
    try:
        return repr(call())
    except PartitionForgeError as err:
        payload = err.witness_payload() if isinstance(err, MathConditionError) else None
        return f"{type(err).__name__}: {err} {payload}"


def packing_outputs(seed=SEED, hosts=HOSTS):
    """``(case id, output text)`` for every packing call on the seeded
    hosts, in a fixed order."""
    rng = random.Random(seed)
    for h in range(hosts):
        host = _host(rng)
        names = [rng.choice(sorted(DEMANDS)) for _ in range(rng.randint(1, 3))]
        fns = [DEMANDS[name]() for name in names]
        case = f"h{h:03d}-n{host.n}-e{host.edge_count}-{'+'.join(names)}"
        methods = ["auto", "augment"]
        if (len(fns) + 1) ** host.edge_count <= ORACLE_STATES:
            methods.append("oracle")
        for method in methods:
            family = []

            def run(method=method):
                family.append(max_sparse_family(host, fns, method=method))
                return family[0]

            yield f"{case}/{method}", _outcome(run)
            if family:
                yield f"{case}/{method}/witness", _outcome(
                    lambda: witness_partition(host, family[0])
                )
        yield f"{case}/decompose", _outcome(lambda: decompose_pc(host, fns))
        trees = rng.randint(0, len(fns))
        yield f"{case}/trees{trees}", _outcome(
            lambda: pack_trees_pc(host, trees, len(fns) - trees)
        )
        u = rng.randrange(host.n)
        yield f"{case}/half{u}", _outcome(lambda: half_degree_pc(host, fns[0], u))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _digests_by_host():
    """``{host case: [(call, digest), ...]}`` in call order."""
    out = {}
    for case, text in packing_outputs():
        host, call = case.split("/", 1)
        out.setdefault(host, []).append((call, _digest(text)))
    return out


def test_packing_outputs_match_the_pinned_digests():
    # The file keeps one line per host: its calls' digests in call order.
    pinned = {h: d.split() for h, d in json.loads(DIGESTS.read_text()).items()}
    got = _digests_by_host()
    assert list(got) == list(pinned)
    changed = [
        f"{host}/{call}"
        for host, calls in got.items()
        for (call, digest), old in zip(calls, pinned[host])
        if digest != old
    ]
    assert changed == []
    assert [len(calls) for calls in got.values()] == [len(d) for d in pinned.values()]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    out = {
        host: " ".join(digest for _, digest in calls)
        for host, calls in _digests_by_host().items()
    }
    DIGESTS.write_text(json.dumps(out, indent=0) + "\n")
    print(f"wrote {sum(len(d.split()) for d in out.values())} digests to {DIGESTS}")
