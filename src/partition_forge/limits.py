"""Default desk-scale enumeration limits.

Each limit can be overridden per call; the CLI exposes them as
``--max-n``, ``--max-edges`` and ``--max-partitions``.
"""

from .errors import LimitExceeded

# Vertex count of the subset-DP partition table (O(3^n) work, an index of
# (3^n - 1) / 2 block pairs): theta, components, connectivity checks,
# packing witnesses.  The CLI's --max-partitions is a budget on that
# block-pair count.
PARTITION_ENUM_LIMIT = 12
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

