"""CLI: file formats, round-trips, determinism, exit codes."""

import io
import json
from contextlib import redirect_stdout

import pytest

from partition_forge.cli import (
    dump_graph,
    dump_hypergraph,
    main,
    parse_graph,
    parse_hypergraph,
    parse_setfn,
)

K4_DOC = {"type": "graph", "n": 4,
          "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
TREE_DOC = {"type": "graph", "n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}
TWO_DOC = {"type": "graph", "n": 2, "edges": []}
HYPER_DOC = {"type": "hypergraph", "n": 3,
             "hyperedges": [{"vertices": [0, 1, 2], "head": 0},
                            {"vertices": [0, 1, 2]}]}
CONST1_DOC = {"kind": "constant", "value": 1}
VB_DOC = {"kind": "vertex-bulk", "vertex": 2, "bulk": 1}
TABLE_DOC = {"kind": "table", "n": 2, "default": 0,
             "values": [["0", 1], ["1", 1], ["0,1", 1]],
             "assume": ["intersecting-supermodular"], "validate": True}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, doc in [
        ("k4", K4_DOC), ("tree", TREE_DOC), ("two", TWO_DOC),
        ("hyper", HYPER_DOC), ("const1", CONST1_DOC), ("vb", VB_DOC),
        ("table", TABLE_DOC),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def run_cli(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_roundtrip_graph_hypergraph():
    assert dump_graph(parse_graph(K4_DOC)) == K4_DOC
    assert dump_graph(parse_graph(dump_graph(parse_graph(TREE_DOC)))) == TREE_DOC
    assert dump_hypergraph(parse_hypergraph(HYPER_DOC)) == HYPER_DOC
    again = parse_hypergraph(dump_hypergraph(parse_hypergraph(HYPER_DOC)))
    assert again == parse_hypergraph(HYPER_DOC)


def test_setfn_parsing():
    assert parse_setfn(CONST1_DOC).value([0, 1]) == 1
    assert parse_setfn(VB_DOC).value([0]) == 2
    fn = parse_setfn(TABLE_DOC)
    assert fn.value([0, 1]) == 1 and fn.value([]) == 0
    assert fn.has_flags("intersecting-supermodular")


def test_decompose_command(files):
    code, out = run_cli([
        "decompose", "--graph", files["k4"],
        "--setfn", files["const1"], "--setfn", files["const1"],
        "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "partition-forge/1"
    parts = doc["parts"]
    assert len(parts) == 2 and len(parts[0]) == 3 and len(parts[1]) == 3
    assert sorted(parts[0] + parts[1]) == list(range(6))


def test_theta_command(files):
    code, out = run_cli([
        "theta", "--graph", files["two"], "--setfn", files["const1"],
        "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["theta"] == 2


def test_check_pc_failure_carries_partition(files):
    code, out = run_cli([
        "check-pc", "--graph", files["tree"],
        "--setfn", files["const1"], "--setfn", files["const1"],
        "--format", "json",
    ])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "not-partition-connected"
    assert doc["error"]["partition"]


def _error_line(command, error):
    return (f'{{"command":"{command}","error":{error},'
            '"schema":"partition-forge/1"}\n')


def _error_text(command, *fields):
    return "".join(f"{line}\n" for line in (
        f"command: {command}", *(f"error.{f}" for f in fields),
        "schema: partition-forge/1"))


REPORT_FILES = {
    "single": {"type": "graph", "n": 2, "edges": [[0, 1]]},
    "cycle": {"type": "graph", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    "k4d": {"type": "graph", "n": 4, "edges": K4_DOC["edges"] * 2},
    "triple": {"type": "hypergraph", "n": 3, "hyperedges": [
        {"vertices": [0, 1, 2]}, {"vertices": [0, 1, 2]}, {"vertices": [0, 1, 2]},
        {"vertices": [0, 1]}]},
    "headed": {"type": "hypergraph", "n": 3,
               "hyperedges": [{"vertices": [0, 1, 2], "head": 0}]},
    "singleton": {"kind": "vertex-bulk", "vertex": 1, "bulk": 0},
    "singletons": {"kind": "table", "n": 3, "default": 0,
                   "values": [["0", 1], ["1", 1], ["2", 1]],
                   "assume": ["positively-intersecting-supermodular"]},
    "false-flag": {"kind": "table", "n": 2, "default": 0,
                   "values": [["0", 1], ["1", 1], ["0,1", 5]],
                   "assume": ["nonincreasing"], "validate": True},
}


@pytest.mark.parametrize("fmt, argv, code, expected", [
    ("json", ["check-pc", "--graph", "tree", "--setfn", "const1", "--setfn", "const1"],
     2, _error_line("check-pc", '{"kind":"not-partition-connected","message":'
                    '"host is not partition-connected","partition":[[0],[1],[2],[3]]}')),
    ("text", ["check-pc", "--graph", "tree", "--setfn", "const1", "--setfn", "const1"],
     2, _error_text("check-pc", "kind: not-partition-connected",
                    "message: host is not partition-connected",
                    "partition: [[0], [1], [2], [3]]")),
    ("json", ["orient", "--graph", "single", "--setfn", "singleton"],
     2, _error_line("orient", '{"kind":"not-partition-connected","message":'
                    '"host is not partition-connected","partition":[[0],[1]]}')),
    ("json", ["condition", "--graph", "tree", "--setfn", "const1", "--setfn", "const1",
              "--eta", "5", "--lambda", "1"],
     2, _error_line("condition", '{"kind":"condition-violated","margin":"-3",'
                    '"message":"sufficient condition fails","vertex_set":[]}')),
    ("json", ["condition", "--graph", "k4", "--setfn", "const1",
              "--eta", "1", "--lambda", "0"],
     2, _error_line("condition", '{"kind":"condition-violated","margin":"-1",'
                    '"message":"sufficient condition fails","vertex_set":[0,1]}')),
    ("text", ["condition", "--graph", "k4", "--setfn", "const1",
              "--eta", "1", "--lambda", "0"],
     2, _error_text("condition", "kind: condition-violated", "margin: -1",
                    "message: sufficient condition fails", "vertex_set: [0, 1]")),
    ("json", ["orient", "--graph", "tree", "--setfn", "singleton", "--u", "0"],
     2, _error_line("orient", '{"kind":"condition-violated","message":'
                    '"host is not 2*(sum l_i)-edge-connected","vertex_set":[0]}')),
    ("json", ["extract", "--graph", "tree", "--setfn", "const1",
              "--preset", "edge-connected", "--k", "2"],
     2, _error_line("extract", '{"clause":"kl-edge-connected","kind":"hypothesis-violated",'
                    '"message":"host is not (k*l)-edge-connected","vertex_set":[0]}')),
    ("text", ["extract", "--graph", "tree", "--setfn", "const1",
              "--preset", "edge-connected", "--k", "2"],
     2, _error_text("extract", "clause: kl-edge-connected", "kind: hypothesis-violated",
                    "message: host is not (k*l)-edge-connected", "vertex_set: [0]")),
    ("json", ["extract", "--graph", "cycle", "--setfn", "const1",
              "--preset", "partition-connected", "--k", "2"],
     2, _error_line("extract", '{"clause":"kl-partition-connected",'
                    '"kind":"hypothesis-violated","message":'
                    '"host is not (k*l)-partition-connected",'
                    '"partition":[[0],[1],[2],[3]]}')),
    ("json", ["trim", "--hypergraph", "triple", "--setfn", "const1", "--goal", "sparse"],
     2, _error_line("trim", '{"kind":"not-sparse","message":"host is not l-sparse",'
                    '"vertex_set":[0,1,2]}')),
    ("text", ["trim", "--hypergraph", "triple", "--setfn", "const1", "--goal", "sparse"],
     2, _error_text("trim", "kind: not-sparse", "message: host is not l-sparse",
                    "vertex_set: [0, 1, 2]")),
    ("json", ["trim", "--hypergraph", "headed", "--setfn", "singletons", "--goal", "arc"],
     2, _error_line("trim", '{"kind":"not-arc-connected",'
                    '"message":"host is not l-arc-connected","vertex_set":[1]}')),
    # Refused before any packing: without --roots, l(V) must be 0.
    ("json", ["orient", "--graph", "k4d", "--setfn", "const1", "--u", "0"],
     3, _error_line("orient", '{"kind":"validation",'
                    '"message":"l must vanish on the full vertex set"}')),
    ("json", ["theta", "--graph", "single", "--setfn", "false-flag"],
     3, _error_line("theta", '{"kind":"validation","message":'
                    '"declared flags fail validation: [\'nonincreasing\']"}')),
    ("text", ["theta", "--graph", "single", "--setfn", "false-flag"],
     3, _error_text("theta", "kind: validation",
                    "message: declared flags fail validation: ['nonincreasing']")),
    ("json", ["theta", "--graph", "k4", "--setfn", "const1", "--max-n", "2"],
     4, _error_line("theta", '{"kind":"limit-exceeded",'
                    '"message":"vertex count 4 exceeds limit 2"}')),
    ("text", ["theta", "--graph", "k4", "--setfn", "const1", "--max-n", "2"],
     4, _error_text("theta", "kind: limit-exceeded",
                    "message: vertex count 4 exceeds limit 2")),
    ("json", ["decompose", "--graph", "k4", "--setfn", "const1", "--setfn", "const1"],
     5, _error_line("decompose", '{"kind":"internal",'
                    '"message":"a part failed its recheck"}')),
    ("text", ["decompose", "--graph", "k4", "--setfn", "const1", "--setfn", "const1"],
     5, _error_text("decompose", "kind: internal", "message: a part failed its recheck")),
], ids=["check-pc", "check-pc-text", "orient", "condition-empty-set", "condition",
        "condition-text", "condition-no-margin", "hypothesis-set", "hypothesis-set-text",
        "hypothesis-partition", "not-sparse", "not-sparse-text", "not-arc-connected",
        "orient-u-demand-on-full-set", "flag-violation", "flag-violation-text", "limit",
        "limit-text", "internal", "internal-text"])
def test_failed_condition_report_bytes(files, tmp_path, monkeypatch, fmt, argv, code,
                                       expected):
    import partition_forge.decompose as decompose

    if code == 5:
        monkeypatch.setattr(decompose, "_spans_pc", lambda host, members, l: False)
    for name, doc in REPORT_FILES.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [files.get(a, a) for a in argv] + ["--format", fmt]
    assert run_cli(argv) == (code, expected)


def test_cli_determinism(files):
    argv = [
        "decompose", "--graph", files["k4"],
        "--setfn", files["const1"], "--setfn", files["const1"],
        "--format", "json",
    ]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_parse_error_exit_code(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, out = run_cli(["theta", "--graph", str(bad),
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "validation"


@pytest.mark.parametrize("graph, setfn, argv", [
    ({"type": "graph", "n": 3}, CONST1_DOC, ["theta"]),
    ({"type": "graph", "n": 2, "edges": [[0, "x"]]}, CONST1_DOC, ["theta"]),
    ({"type": "graph", "n": 3, "edges": [[0, 1, 2]]}, CONST1_DOC, ["theta"]),
    ({"type": "graph", "n": "3", "edges": []}, CONST1_DOC, ["theta"]),
    ([[0, 1]], CONST1_DOC, ["theta"]),
    (K4_DOC, [1], ["theta"]),
    (K4_DOC, {"kind": "constant"}, ["theta"]),
    (K4_DOC, CONST1_DOC, ["witness", "--target", "a"]),
    (K4_DOC, CONST1_DOC, ["extract", "--preset", "partition-connected"]),
    (K4_DOC, CONST1_DOC, ["condition", "--lambda", "1"]),
    (K4_DOC, CONST1_DOC, ["orient", "--u", "0", "--roots", "a"]),
], ids=["no-edges", "edge-not-int", "edge-of-three", "n-not-int", "graph-list",
        "setfn-list", "constant-no-value", "target-not-int", "preset-no-k",
        "condition-no-eta", "roots-not-int"])
def test_malformed_input_exits_3(tmp_path, graph, setfn, argv):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(graph))
    fpath = tmp_path / "l.json"
    fpath.write_text(json.dumps(setfn))
    code, out = run_cli(argv + ["--graph", str(gpath), "--setfn", str(fpath),
                                "--format", "json"])
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "validation"


def test_limit_exit_code(files, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"type": "graph", "n": 20, "edges": []}))
    code, out = run_cli(["theta", "--graph", str(big),
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 4
    assert json.loads(out)["error"]["kind"] == "limit-exceeded"


def test_max_partitions_budget(files, tmp_path):
    mid = tmp_path / "mid.json"
    mid.write_text(json.dumps({"type": "graph", "n": 6, "edges": []}))
    code, out = run_cli(["theta", "--graph", str(mid),
                         "--setfn", files["const1"],
                         "--max-partitions", "100", "--format", "json"])
    assert code == 4


K7_DOC = {"type": "graph", "n": 7,
          "edges": [[u, v] for u in range(7) for v in range(u + 1, 7)]}


@pytest.mark.parametrize("argv", [
    ["extract", "--preset", "partition-connected", "--k", "2"],
    ["extract", "--preset", "edge-connected", "--k", "2"],
    ["condition", "--eta", "5", "--lambda", "1"],
], ids=["extract-pc", "extract-ec", "condition"])
@pytest.mark.parametrize("limit", [["--max-n", "5"], ["--max-partitions", "121"]],
                         ids=["max-n", "max-partitions"])
def test_explicit_vertex_limit_refuses_every_host(files, tmp_path, argv, limit):
    k7 = tmp_path / "k7.json"
    k7.write_text(json.dumps(K7_DOC))
    code, out = run_cli(argv + ["--graph", str(k7), "--setfn", files["const1"],
                                "--format", "json"] + limit)
    assert code == 4
    error = json.loads(out)["error"]
    assert error == {"kind": "limit-exceeded",
                     "message": "vertex count 7 exceeds limit 5"}


def test_components_and_sparse_and_bases(files):
    code, out = run_cli(["components", "--graph", files["tree"],
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 0 and json.loads(out)["blocks"] == [[0, 1, 2, 3]]
    code, out = run_cli(["sparse-max", "--graph", files["k4"],
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 0 and json.loads(out)["size"] == 3
    code, out = run_cli(["bases", "--graph", files["k4"],
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 0 and json.loads(out)["count"] == 16


def test_e_star_and_condition_and_extract(files):
    code, out = run_cli(["e-star", "--graph", files["k4"],
                         "--setfn", files["const1"],
                         "--vertex-set", "0,1", "--format", "json"])
    assert code == 0 and json.loads(out)["e_star"] == 1
    code, out = run_cli(["condition", "--graph", files["tree"],
                         "--setfn", files["const1"], "--setfn", files["const1"],
                         "--eta", "5", "--lambda", "1", "--format", "json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "condition-violated"
    code, out = run_cli(["extract", "--graph", files["k4"],
                         "--setfn", files["const1"],
                         "--preset", "partition-connected", "--k", "2",
                         "--format", "json"])
    assert code == 0
    assert max(json.loads(out)["degrees"]) <= 2


def test_witness_pack_trim_orient(files):
    code, out = run_cli(["witness", "--graph", files["k4"],
                         "--setfn", files["const1"],
                         "--target", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["total_excess"] == 2 and doc["witness"]
    code, out = run_cli(["pack", "--graph", files["k4"], "--trees", "2",
                         "--format", "json"])
    assert code == 0 and len(json.loads(out)["parts"]) == 2
    code, out = run_cli(["trim", "--hypergraph", files["hyper"],
                         "--setfn", files["const1"], "--format", "json"])
    assert code == 0
    trimmed = json.loads(out)["trimmed"]
    assert all(len(he["vertices"]) == 2 for he in trimmed["hyperedges"])
    code, out = run_cli(["validate-setfn", "--setfn", files["vb"], "--n", "3",
                         "--format", "json"])
    assert code == 0
    props = json.loads(out)["properties"]
    assert props["intersecting-supermodular"]["holds"]
    assert not props["supermodular"]["holds"]


def test_orient_command(tmp_path, files):
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(
        {"type": "graph", "n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    ))
    ell = tmp_path / "ell.json"
    ell.write_text(json.dumps({"kind": "vertex-bulk", "vertex": 1, "bulk": 0}))
    code, out = run_cli(["orient", "--graph", str(tri), "--setfn", str(ell),
                         "--format", "json"])
    assert code == 0
    heads = json.loads(out)["heads"]
    assert sorted(heads) == [0, 1, 2]
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"type": "graph", "n": 2, "edges": [[0, 1]]}))
    code, out = run_cli(["orient", "--graph", str(single), "--setfn", str(ell),
                         "--format", "json"])
    assert code == 2


def test_internal_error_exit_code(files, monkeypatch):
    import partition_forge.decompose as decompose

    monkeypatch.setattr(decompose, "_spans_pc", lambda host, members, l: False)
    code, out = run_cli(["decompose", "--graph", files["k4"],
                         "--setfn", files["const1"], "--setfn", files["const1"],
                         "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"


def test_failed_basis_recheck_raises_internal_error(files, monkeypatch):
    import partition_forge.sparse as sparse
    from partition_forge import InternalError, constant, enumerate_bases
    from partition_forge.cli import parse_graph

    monkeypatch.setattr(sparse, "_spans_pc", lambda host, members, l: False)
    with pytest.raises(InternalError):
        list(enumerate_bases(parse_graph(K4_DOC), constant(1)))
    code, out = run_cli(["bases", "--graph", files["k4"], "--setfn", files["const1"],
                         "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"



def test_extract_postconditions_raise_internal_error(files, monkeypatch):
    import partition_forge.extract as extract
    from partition_forge import InternalError, constant, lex_min_excess, min_excess_basis
    from partition_forge.cli import parse_graph

    k4 = parse_graph(K4_DOC)
    monkeypatch.setattr(extract, "_enumerate_bases", lambda *a, **kw: iter(()))
    with pytest.raises(InternalError):
        min_excess_basis(k4, constant(1), 1)
    with pytest.raises(InternalError):
        lex_min_excess(k4, constant(1), None, [2, 1])
    code, out = run_cli(["witness", "--graph", files["k4"], "--setfn", files["const1"],
                         "--target", "1", "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"
    monkeypatch.undo()
    monkeypatch.setattr(extract, "min_excess_basis", lambda *a, **kw: (None, 1))
    with pytest.raises(InternalError):
        extract.extract_bounded(k4, constant(1), [0, 1, 2, 3], [5] * 4, 0)
    code, out = run_cli(["extract", "--graph", files["k4"], "--setfn", files["const1"],
                         "--eta", "5", "--lambda", "0", "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"


def test_orient_postcondition_raises_internal_error(files, monkeypatch, tmp_path):
    import partition_forge.orient as orient
    from partition_forge import InternalError, MultiGraph, vertex_bulk

    monkeypatch.setattr(orient, "is_pc", lambda *a, **kw: False)
    with pytest.raises(InternalError):
        orient.orient_arc_connected(MultiGraph(3, [(0, 1), (1, 2), (2, 0)]),
                                    vertex_bulk(1, 0))
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps(
        {"type": "graph", "n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    ))
    ell = tmp_path / "ell.json"
    ell.write_text(json.dumps({"kind": "vertex-bulk", "vertex": 1, "bulk": 0}))
    code, out = run_cli(["orient", "--graph", str(tri), "--setfn", str(ell),
                         "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"


def test_trim_failure_exits_5(files, monkeypatch):
    import partition_forge.orient as orient

    real = orient._trim
    monkeypatch.setattr(orient, "_trim", lambda host, keeps: real(host, lambda h: False))
    code, out = run_cli(["trim", "--hypergraph", files["hyper"],
                         "--setfn", files["const1"], "--goal", "sparse",
                         "--format", "json"])
    assert code == 5
    assert json.loads(out)["error"]["kind"] == "internal"


def test_trim_arc_on_an_edgeless_file(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"type": "hypergraph", "n": 3, "hyperedges": []}))
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"kind": "constant", "value": 0}))
    code, out = run_cli(["trim", "--hypergraph", str(empty), "--setfn", str(zero),
                         "--goal", "arc", "--format", "json"])
    assert code == 0
    assert json.loads(out)["trimmed"] == {"type": "hypergraph", "n": 3, "hyperedges": []}


def test_text_format(files):
    code, out = run_cli(["theta", "--graph", files["two"],
                         "--setfn", files["const1"]])
    assert code == 0
    assert "theta: 2" in out
