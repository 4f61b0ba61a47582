"""Rules on the package source, read with ``ast``.

* No ``assert`` statement: ``python -O`` strips them, so every
  postcondition raises :class:`InternalError` instead.
* ``enumerate_partitions`` (the Bell(n) walk) lives in ``hosts.py`` and is
  re-exported by ``__init__.py`` as a test oracle; no library code calls it.
* Outside ``_kernels.py`` only ``theta.py`` names ``partition_table``:
  every theta or partition-connectivity question about a host, or a set
  of its edges, reads the table through ``theta._table``.
* ``decompose.py`` does not count edges itself: a part's inside counts come
  from ``EdgeSubset.inside_counts`` and its circuits from
  ``sparse.min_pc_subgraph``, so each part is counted once per search.
* The packing search makes no NumPy call per (edge, part) pair: no
  ``np.all``/``np.any`` (or ``.all()``/``.any()``) call inside a loop of
  ``decompose._augment`` or ``sparse._greedy_owner``, which read one fit
  row per part and Python-int bitsets instead.
* No loop of ``_kernels.assignment_best``, ``find_orientation`` or
  ``arc_violation`` walks the 2**k vertex sets one by one: they read
  whole tables (the edge-in-set matrix, the in-degree table).
* Each error class's report ``kind`` and ``exit_code`` are set in
  ``errors.py`` only, and ``cli.main`` reports every package error through
  one ``except`` clause that returns ``exc.exit_code``, never a literal
  2, 3, 4 or 5.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "partition_forge"
FILES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_the_package_source_is_found():
    assert {"hosts.py", "__init__.py", "extract.py", "orient.py"} <= {
        p.name for p in FILES
    }


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def test_no_bell_walk_outside_hosts():
    users = {p.name for p in FILES if "enumerate_partitions" in _names(_tree(p))}
    assert users == {"hosts.py", "__init__.py"}


def test_only_theta_reads_the_partition_table():
    users = {p.name for p in FILES if "partition_table" in _names(_tree(p))}
    assert users == {"_kernels.py", "theta.py"}


def test_packing_reads_part_counts_from_the_edge_subset():
    names = set(_names(_tree(SRC / "decompose.py")))
    assert "count_inside" not in names
    assert {"inside_counts", "min_pc_subgraph"} <= names


def _function(path, name):
    return next(
        node for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _loop_calls(func):
    """Every call inside a ``for`` or ``while`` statement of the function."""
    for loop in ast.walk(func):
        if isinstance(loop, (ast.For, ast.While)):
            yield from (n for n in ast.walk(loop) if isinstance(n, ast.Call))


@pytest.mark.parametrize("path, name", [
    ("decompose.py", "_augment"),
    ("sparse.py", "_greedy_owner"),
])
def test_packing_search_makes_no_reduction_call_per_edge(path, name):
    reductions = [
        call.lineno for call in _loop_calls(_function(SRC / path, name))
        if isinstance(call.func, ast.Attribute) and call.func.attr in ("all", "any")
    ]
    assert reductions == [], f"{path}:{name} reduces inside a loop at {reductions}"


def _walks_the_masks(loop):
    """A ``for`` over a ``range`` bounded by ``nm`` or by a shift by ``k``,
    the kernel's vertex count: one iteration per vertex set."""
    return (
        isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Call)
        and getattr(loop.iter.func, "id", None) == "range"
        and any(
            isinstance(n, ast.Name) and n.id == "nm"
            or isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)
            and isinstance(n.right, ast.Name) and n.right.id == "k"
            for arg in loop.iter.args
            for n in ast.walk(arg)
        )
    )


@pytest.mark.parametrize("name", [
    "assignment_best", "find_orientation", "arc_violation",
])
def test_kernel_has_no_per_mask_loop(name):
    per_mask = [
        loop.lineno
        for loop in ast.walk(_function(SRC / "_kernels.py", name))
        if _walks_the_masks(loop)
    ]
    assert per_mask == [], f"{name} loops over the masks at lines {per_mask}"


def _targets(stmt):
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


def _assigned_attributes(tree):
    """Names assigned in a class body or to an attribute (``x.name = ...``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                yield from (t.id for t in _targets(stmt) if isinstance(t, ast.Name))
        yield from (t.attr for t in _targets(node) if isinstance(t, ast.Attribute))


def _literal_kinds(tree):
    """Line numbers of dict literals that spell out a ``"kind"`` string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (isinstance(key, ast.Constant) and key.value == "kind"
                        and isinstance(value, ast.Constant)):
                    yield node.lineno


def test_error_kinds_and_exit_codes_live_in_errors():
    setters = {
        p.name for p in FILES
        if {"kind", "exit_code"} & set(_assigned_attributes(_tree(p)))
        or any(_literal_kinds(_tree(p)))
    }
    assert setters == {"errors.py"}


def test_cli_reports_package_errors_through_one_handler():
    error_classes = {
        node.name for node in ast.walk(_tree(SRC / "errors.py"))
        if isinstance(node, ast.ClassDef)
    }
    main = _function(SRC / "cli.py", "main")
    handlers = [
        h for h in ast.walk(main)
        if isinstance(h, ast.ExceptHandler) and h.type is not None
        and error_classes & set(_names(h.type))
    ]
    assert [ast.unparse(h.type) for h in handlers] == ["PartitionForgeError"]
    literal_codes = [
        node.lineno for node in ast.walk(main)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and node.value.value in (2, 3, 4, 5)
    ]
    assert literal_codes == [], f"cli.main returns a literal exit code at {literal_codes}"
