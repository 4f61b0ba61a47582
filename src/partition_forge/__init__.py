"""Partition-connectivity toolkit.

Measures how strongly a multigraph or hypergraph hangs together against
an intersecting supermodular demand function, and constructs the objects
the theory promises: maximal sparse subgraphs and their matroid bases,
degree-bounded partition-connected spanning subgraphs, packings of
edge-disjoint spanning parts, trimmed hypergraphs, and in-degree-
constrained orientations.  Everything is exact and desk-scale, with
exhaustive oracles backing each construction.
"""

from ._kernels import USING_NUMBA
from .errors import (
    ConditionViolated,
    Disconnected,
    FamilyNotMaximal,
    FlagViolation,
    HypothesisViolated,
    Infeasible,
    InternalError,
    LimitExceeded,
    MalformedPartition,
    MathConditionError,
    NotArcConnected,
    NotPartitionConnected,
    NotSparse,
    NoWitness,
    PartitionForgeError,
    ValidationError,
)
from .hosts import (
    EdgeSubset,
    Hyperedge,
    Hypergraph,
    MultiGraph,
    Orientation,
    Partition,
    boundary_count,
    contract,
    cross_edges,
    enumerate_partitions,
    induced_edge_count,
    induced_host,
    restricted_removal,
    sigma,
    spanning_host,
)
from .setfn import (
    ALL_PROPERTIES,
    PropertyReport,
    SetFunction,
    constant,
    fn_sum,
    rooted_shift,
    scale,
    table,
    validate,
    vertex_bulk,
    vertex_weights,
)
from .theta import (
    ComponentDecomposition,
    is_pc,
    pc_components,
    pc_violation,
    theta,
    theta_oracle,
    theta_restricted,
    theta_without,
)
from .sparse import (
    Basis,
    MinPcResult,
    basis_size,
    e_star,
    e_star_table,
    enumerate_bases,
    is_sparse,
    max_sparse,
    min_pc_subgraph,
    sparse_violation,
)
from .extract import (
    ConditionVerdict,
    DegreeTarget,
    check_main_condition,
    check_tough_extract,
    extract_bounded,
    kl_edge_connected,
    kl_partition_connected,
    lex_min_excess,
    min_excess_basis,
    min_theta_extension,
    preset_eta,
    structure_witness,
    total_excess,
    tough_component_condition,
)
from .decompose import (
    Decomposition,
    SparseFamily,
    assignment_optimum,
    decompose_pc,
    half_degree_pc,
    hyper_bounded,
    max_sparse_family,
    pack_trees_pc,
    witness_partition,
)
from .orient import (
    arc_connectivity_violation,
    extract_bounded_via_orientation,
    min_arc_subdigraph,
    orient_arc_connected,
    orient_decompose,
    trim_arc,
    trim_pc,
    trim_sparse,
)

__version__ = "0.1.0"
