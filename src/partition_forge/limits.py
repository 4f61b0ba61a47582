"""Default desk-scale enumeration limits.

Each limit can be overridden per call; the CLI exposes them as
``--max-n``, ``--max-edges`` and ``--max-partitions``.
"""

from math import comb

from .errors import LimitExceeded

# Vertex count of the subset-DP partition table (O(3^n) work, an index of
# (3^n - 1) / 2 block pairs): theta oracles, connectivity checks, packing
# witnesses.  The CLI's --max-partitions still reads it as a Bell(n) budget.
PARTITION_ENUM_LIMIT = 12
# Component decomposition enumerates subsets of the vertex set.
COMPONENT_LIMIT = 10
# Subset enumeration for sparseness and condition checks.
SUBSET_LIMIT = 16
# Exhaustive orientation search is 2**|E|.
ORIENTATION_EDGE_LIMIT = 20
# Property validation of a set function costs O(4**n).
VALIDATE_LIMIT = 12
# Exhaustive edge-assignment packing oracle engages below this state count.
ASSIGNMENT_ORACLE_STATES = 250_000
# Subgraph enumeration (minimum-theta extension, basis streams).
EDGE_SEARCH_LIMIT = 24


def check(value, limit, what):
    if limit is not None and value > limit:
        raise LimitExceeded(f"{what} {value} exceeds limit {limit}")


def bell_number(k):
    """Number of set partitions of a k-element set."""
    bells = [1]
    for i in range(k):
        bells.append(sum(comb(i, j) * bells[j] for j in range(i + 1)))
    return bells[k]
