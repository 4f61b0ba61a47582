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
