"""Degree-bounded partition-connected spanning subgraphs.

Centers on total excess ``te(H, h) = sum_v max(0, d_H(v) - h(v))``:
minimum-excess bases (optionally around a forced sub-subgraph), the
witness set that certifies minimality, sufficient conditions that force a
zero-excess basis to exist, connectivity-derived presets for the degree
bounds, minimum-theta extensions, and lexicographic excess chains.

All thresholds are exact rationals; ceilings never touch floating point.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np

from . import _kernels
from .bits import as_mask, bit_list, mask_of
from .errors import (
    ConditionViolated,
    HypothesisViolated,
    Infeasible,
    InternalError,
    NoWitness,
    ValidationError,
)
from .hosts import (
    EdgeSubset,
    _edge_subset_indices,
    boundary_count,
    induced_edge_count,
    partition_from_labels,
    spanning_host,
)
from .limits import EDGE_SEARCH_LIMIT, PARTITION_ENUM_LIMIT, SUBSET_LIMIT, check
from .setfn import ceil_fraction, ensure_properties
from .sparse import Basis, _enumerate_bases, e_star_table
from .theta import _spans_pc, _table, pc_components, theta_restricted, theta_without

_COND_FLAGS = ("intersecting-supermodular", "element-subadditive")


class DegreeTarget:
    """Per-vertex integer degree bounds; ``None`` means unconstrained
    (resolved to degree+1, which no subgraph can exceed)."""

    def __init__(self, values):
        vals = []
        for v in values:
            vals.append(None if v is None else int(v))
        self.values = tuple(vals)

    @classmethod
    def uniform(cls, h, n):
        return cls([h] * n)

    @classmethod
    def of(cls, values, n=None):
        if isinstance(values, DegreeTarget):
            return values
        if isinstance(values, int):
            if n is None:
                raise ValidationError("uniform target needs the vertex count")
            return cls.uniform(values, n)
        return cls(values)

    def resolve(self, host):
        if len(self.values) != host.n:
            raise ValidationError("degree target length must match vertex count")
        degs = host.degrees()
        return tuple(
            degs[v] + 1 if self.values[v] is None else self.values[v]
            for v in range(host.n)
        )

    def __repr__(self):
        return f"DegreeTarget({list(self.values)})"


def total_excess(host, edges, target):
    """Sum over vertices of the degree overshoot above the target."""
    if isinstance(edges, Basis):
        edges = edges.edges
    t = DegreeTarget.of(target, host.n).resolve(host)
    degs = edges.degrees()
    return sum(max(0, degs[v] - t[v]) for v in range(host.n))


def _te_of_degrees(degs, resolved):
    return sum(max(0, d - h) for d, h in zip(degs, resolved))


def min_excess_basis(graph, l, target, forced=None, *, trust_flags=None):
    """Basis containing the forced edges with minimum total excess from
    the target; ties break to the lexicographically smallest edge set.

    Returns ``(basis, total_excess)``.
    """
    t = DegreeTarget.of(target, graph.n).resolve(graph)
    best, (best_te,) = _first_min_basis(graph, l, forced, [t], trust_flags)
    return best, best_te


def _first_min_basis(graph, l, forced, resolved, trust_flags):
    """First basis, in enumeration order, whose vector of total excesses
    against the resolved targets is lexicographically smallest; returns
    ``(basis, vector)``.  An all-zero vector cannot be beaten, so the scan
    stops there."""
    forced_members = frozenset() if forced is None else frozenset(forced)
    best = None
    best_vec = None
    for basis in _enumerate_bases(graph, l, forced_members, trust_flags=trust_flags):
        degs = basis.edges.degrees()
        vec = tuple(_te_of_degrees(degs, t) for t in resolved)
        if best_vec is None or vec < best_vec:
            best, best_vec = basis, vec
            if not any(vec):
                break
    if best is None:
        raise InternalError("partition-connected host yielded no basis")
    return best, best_vec


def structure_witness(graph, l, target, basis, *, forced=None, equality=False,
                      trust_flags=None):
    """Vertex set S certifying a minimum-excess basis (or a zero-excess
    minimum-theta subgraph when ``equality`` is set).

    Conditions re-verified on return: theta after removal agrees between
    host and subgraph; S covers every over-target vertex; every vertex of
    S is at (or, with ``equality``, exactly at) its target.  The smallest
    such S is found by subset search; :class:`NoWitness` signals that the
    supplied subgraph was not optimal.
    """
    edges = basis.edges if isinstance(basis, Basis) else basis
    t = DegreeTarget.of(target, graph.n).resolve(graph)
    degs = edges.degrees()
    if forced is None:
        sub = spanning_host(graph, edges.members)

        def theta_pair(s_mask):
            return (
                theta_without(graph, l, s_mask, trust_flags=True),
                theta_without(sub, l, s_mask, trust_flags=True),
            )
    else:
        keep = frozenset(forced)

        def theta_pair(s_mask):
            kept = [
                i for i in edges.members
                if graph.edge_masks[i] & s_mask == 0 or i in keep
            ]
            g, inside, _ = _table(graph, l, kept)
            return (
                theta_restricted(graph, l, s_mask, keep, trust_flags=True),
                int(g[-1] - inside[-1]),
            )

    if equality:
        required = 0
        candidates = [v for v in range(graph.n) if degs[v] == t[v]]
    else:
        required = mask_of(v for v in range(graph.n) if degs[v] > t[v])
        candidates = [
            v for v in range(graph.n) if degs[v] >= t[v] and not (1 << v) & required
        ]
    for extra in range(len(candidates) + 1):
        for combo in combinations(candidates, extra):
            s = required | mask_of(combo)
            a, b = theta_pair(s)
            if a == b:
                return s
    raise NoWitness(
        "no witness set satisfies the structure conditions; "
        "the subgraph is probably not optimal for the target"
    )


class ConditionVerdict:
    """Outcome of a sufficient-condition sweep over subsets of X."""

    def __init__(self, holds, witness=None, margin=None):
        self.holds = holds
        self.witness = witness
        self.margin = margin

    def witness_list(self):
        return None if self.witness is None else bit_list(self.witness)

    def __repr__(self):
        if self.holds:
            return f"ConditionVerdict(holds, margin={self.margin})"
        return f"ConditionVerdict(fails at {self.witness_list()}, margin={self.margin})"


def check_main_condition(graph, l, x_set, eta, lam, variant="sharp", *,
                         trust_flags=None):
    """Sweep every S inside X against the degree-availability condition.

    ``variant="intro"`` uses edge counts of the host and a non-strict
    inequality; ``variant="sharp"`` uses the basis-maximum edge counts
    (e*) and a strict inequality with one unit of slack.  At S = empty
    both reduce to partition-connectivity of the host.
    """
    if variant not in ("intro", "sharp"):
        raise ValidationError("variant must be 'intro' or 'sharp'")
    ensure_properties(l, _COND_FLAGS, graph.n, trust=trust_flags)
    x = as_mask(x_set, graph.n)
    lam = Fraction(lam)
    if not 0 <= lam <= 1:
        raise ValidationError("lambda must lie in [0, 1]")
    eta = [Fraction(e) for e in eta]
    if len(eta) != graph.n:
        raise ValidationError("eta must assign a value to every vertex")

    lg = l.value(graph.full_mask)
    theta_g = theta_without(graph, l, 0, trust_flags=True)
    if theta_g > lg:
        return ConditionVerdict(False, witness=0, margin=Fraction(lg - theta_g))

    estar = None
    if variant == "sharp":
        estar = e_star_table(graph, l, trust_flags=True)

    xs = bit_list(x)
    best_margin = None
    ltab = l.table(graph.n)
    for size in range(0, len(xs) + 1):
        for combo in combinations(xs, size):
            s = mask_of(combo)
            lhs = Fraction(theta_without(graph, l, s, trust_flags=True))
            ls = int(ltab[s])
            inner = sum((eta[v] - 2 * l.value(1 << v)) for v in combo)
            if variant == "intro":
                es = induced_edge_count(graph, s)
                rhs = inner + lg + ls - lam * (es + ls)
                margin = rhs - lhs
            else:
                rhs = 1 + inner + lg + ls - lam * (int(estar[s]) + ls)
                margin = rhs - lhs - 1  # strict: need lhs < rhs
            if (variant == "intro" and lhs > rhs) or (
                variant == "sharp" and not lhs < rhs
            ):
                return ConditionVerdict(False, witness=s, margin=margin)
            if best_margin is None or margin < best_margin:
                best_margin = margin
    return ConditionVerdict(True, margin=best_margin)


def extract_bounded(graph, l, x_set, eta, lam, *, trust_flags=None):
    """Partition-connected spanning basis whose degrees inside X stay at
    or below ``ceil(eta(v) - lambda*l(v))``.

    The sharp sufficient condition is verified first; when it holds, a
    minimum-excess basis is guaranteed to reach zero excess, and that is
    checked.
    """
    verdict = check_main_condition(
        graph, l, x_set, eta, lam, "sharp", trust_flags=trust_flags
    )
    if not verdict.holds:
        raise ConditionViolated(
            "sufficient condition fails",
            vertex_set=verdict.witness,
            margin=verdict.margin,
        )
    x = as_mask(x_set, graph.n)
    lam = Fraction(lam)
    eta = [Fraction(e) for e in eta]
    target = DegreeTarget(
        [
            ceil_fraction(eta[v] - lam * l.value(1 << v)) if (1 << v) & x else None
            for v in range(graph.n)
        ]
    )
    basis, te = min_excess_basis(graph, l, target, trust_flags=True)
    if te != 0:
        raise InternalError("condition held but no zero-excess basis was found")
    return basis


def kl_edge_connected(graph, l, k):
    """First violating vertex set (mask) if some nonempty proper set A has
    fewer than k*l(A) boundary edges, else None.

    With i(X) the number of edges inside X, the boundary of A is
    ``i(V) - i(A) - i(V - A)``, read from one inside-count table; for
    k = p/q the test is ``q * boundary < p * l(A)``.
    """
    check(graph.n, SUBSET_LIMIT, "vertex count")
    k = Fraction(k)
    full = graph.full_mask
    inside = _kernels.count_inside(graph.n, _kernels.as_mask_array(graph.edge_masks))
    a = np.arange(1, full, dtype=np.int64)
    boundary = inside[full] - inside[a] - inside[full ^ a]
    bad = np.nonzero(k.denominator * boundary < k.numerator * l.table(graph.n)[a])[0]
    return int(a[bad[0]]) if bad.size else None


def kl_partition_connected(host, l, k, *, trust_flags=None):
    """A violating partition of maximum violation if some P has fewer
    than ``k*(sum l(A) - l(V))`` crossing edges, else None.

    For k = p/q and e(P) = i(V) - sum i(A), P violates exactly when
    ``sum_A (p*l(A) + q*i(A)) > p*l(V) + q*i(V)``: one partition table
    with block weight ``p*l + (q-1)*i`` (the table adds i itself).
    """
    check(host.n, PARTITION_ENUM_LIMIT, "vertex count")
    k = Fraction(k)
    ems = _kernels.as_mask_array(host.edge_masks)
    w = k.numerator * l.table(host.n) + (k.denominator - 1) * _kernels.count_inside(
        host.n, ems
    )
    _, labels, exceeded = _kernels.partition_scan(host.n, ems, w, w[-1])
    if not exceeded:
        return None
    return partition_from_labels(labels, list(range(host.n)), host.full_mask)


def preset_eta(graph, l, k, connectivity="edge-connected", independent=False, *,
               trust_flags=None):
    """Degree-bound presets derived from k-fold connectivity.

    Returns ``(eta, lambda)`` ready for :func:`extract_bounded`:

    * edge-connected, general X:   eta = d/k + 2l, lambda = 2/k  (k >= 2)
    * partition-connected, general: eta = d/k + l,  lambda = 1/k  (k >= 1)
    * edge-connected, independent X:   eta = d/k + 2l, lambda = 1
    * partition-connected, independent: eta = d/k + l, lambda = 1

    The relevant k-fold connectivity of the host is checked up front.
    """
    k = Fraction(k)
    degs = graph.degrees()
    if connectivity == "edge-connected":
        if k < 2:
            raise ValidationError("edge-connected preset needs k >= 2")
        bad = kl_edge_connected(graph, l, k)
        if bad is not None:
            raise HypothesisViolated(
                "host is not (k*l)-edge-connected", clause="kl-edge-connected",
                vertex_set=bad,
            )
        eta = tuple(Fraction(degs[v]) / k + 2 * l.value(1 << v) for v in range(graph.n))
        lam = Fraction(1) if independent else Fraction(2) / k
    elif connectivity == "partition-connected":
        if k < 1:
            raise ValidationError("partition-connected preset needs k >= 1")
        bad = kl_partition_connected(graph, l, k, trust_flags=trust_flags)
        if bad is not None:
            raise HypothesisViolated(
                "host is not (k*l)-partition-connected",
                clause="kl-partition-connected", partition=bad,
            )
        eta = tuple(Fraction(degs[v]) / k + l.value(1 << v) for v in range(graph.n))
        lam = Fraction(1) if independent else Fraction(1) / k
    else:
        raise ValidationError("connectivity must be 'edge-connected' or "
                              "'partition-connected'")
    return eta, lam


def min_theta_extension(graph, l, target, forced=None, *, trust_flags=None,
                        limit=EDGE_SEARCH_LIMIT):
    """Among spanning subgraphs containing the forced edges and meeting
    every degree target exactly (zero excess), one minimizing theta.

    Adding an edge never increases theta, so only inclusion-maximal
    zero-excess subgraphs are scored; ties break lexicographically.
    """
    ensure_properties(l, ("intersecting-supermodular",), graph.n, trust=trust_flags)
    check(graph.edge_count, limit, "edge count")
    t = DegreeTarget.of(target, graph.n).resolve(graph)
    forced_members = frozenset() if forced is None else frozenset(forced)
    base = EdgeSubset(graph, forced_members)
    if total_excess(graph, base, DegreeTarget(t)) > 0:
        raise Infeasible("the forced edges already exceed a degree target")
    free = [i for i in range(graph.edge_count) if i not in forced_members]
    degs = list(base.degrees())
    best = None

    def room(i):
        return all(degs[v] < t[v] for v in bit_list(graph.edge_masks[i]))

    def score(chosen):
        nonlocal best
        members = sorted(forced_members | set(chosen))
        g, inside, _ = _table(graph, l, members)
        key = (int(g[-1] - inside[-1]), tuple(members))
        if best is None or key < best:
            best = key

    def dfs(pos, chosen):
        if pos == len(free):
            if all(not room(i) for i in free if i not in chosen):
                score(chosen)
            return
        i = free[pos]
        if room(i):
            for v in bit_list(graph.edge_masks[i]):
                degs[v] += 1
            dfs(pos + 1, chosen | {i})
            for v in bit_list(graph.edge_masks[i]):
                degs[v] -= 1
        dfs(pos + 1, chosen)

    dfs(0, set())
    if best is None:
        raise InternalError("no inclusion-maximal zero-excess subgraph was scored")
    return EdgeSubset(graph, best[1])


def tough_component_condition(graph, forced, l, c):
    """Violating component (mask) of the forced subgraph under the
    toughness-style hypothesis, else None.

    Every l-partition-connected component C of the forced subgraph must
    satisfy ``sum_{v in C} l(v) >= c*l(C) - (c-1)/2 * d_F(C)``.
    """
    c = Fraction(c)
    fhost = spanning_host(graph, _edge_subset_indices(graph, forced))
    comp = pc_components(fhost, l, trust_flags=True)
    for block in comp.partition.blocks:
        lhs = sum(l.value(1 << v) for v in bit_list(block))
        df = boundary_count(fhost, block)
        if lhs < c * l.value(block) - Fraction(c - 1, 2) * df:
            return block
    return None


def check_tough_extract(graph, l, h, forced, c, *, trust_flags=None):
    """Partition-connected spanning subgraph H containing the forced
    edges with ``d_H(v) <= h(v) + d_F(v)`` everywhere.

    Requires a nonincreasing nonnegative l, the component condition on
    the forced subgraph (with ``c >= 2``), and a theta bound for every
    vertex set; the violated clause is reported otherwise.
    """
    ensure_properties(
        l,
        ("nonincreasing", "intersecting-supermodular", "nonnegative"),
        graph.n,
        trust=trust_flags,
    )
    c = Fraction(c)
    if c < 2:
        raise ValidationError("c must be at least 2")
    bad = tough_component_condition(graph, forced, l, c)
    if bad is not None:
        raise HypothesisViolated(
            "a component of the forced subgraph is too weak",
            clause="component-condition", vertex_set=bad,
        )
    hvals = DegreeTarget.of(h, graph.n).resolve(graph)
    lg = l.value(graph.full_mask)
    g, inside, _ = _table(graph, l)
    for s in range(1 << graph.n):
        rest = graph.full_mask & ~s
        lhs = Fraction(int(g[rest] - inside[rest]))
        rhs = (
            1
            + sum(
                Fraction(c, 2 * (c - 1)) * hvals[v]
                - Fraction(1, c - 1) * l.value(1 << v)
                for v in bit_list(s)
            )
            + lg
            + Fraction(1, c - 1) * l.value(s)
        )
        if not lhs < rhs:
            raise HypothesisViolated(
                "theta bound fails", clause="theta-condition", vertex_set=s
            )
    forced_sub = EdgeSubset(graph, _edge_subset_indices(graph, forced))
    target = DegreeTarget(
        [hvals[v] + forced_sub.degree(v) for v in range(graph.n)]
    )
    result = min_theta_extension(graph, l, target, forced_sub.members,
                                 trust_flags=True)
    if not _spans_pc(graph, result.members, l):
        raise InternalError(
            "hypotheses held but the extension is not partition-connected"
        )
    return result


def lex_min_excess(graph, l, forced, targets, *, trust_flags=None):
    """Basis containing the forced edges minimizing the vector of total
    excesses against a nonincreasing chain of degree targets.

    Targets must satisfy ``h_1 >= h_2 >= ...`` pointwise (after
    resolution); a single target reduces to :func:`min_excess_basis`.
    """
    resolved = [DegreeTarget.of(t, graph.n).resolve(graph) for t in targets]
    if not resolved:
        raise ValidationError("need at least one degree target")
    for a, b in zip(resolved, resolved[1:]):
        if any(x < y for x, y in zip(a, b)):
            raise ValidationError("degree targets must be pointwise nonincreasing")
    best, _ = _first_min_basis(graph, l, forced, resolved, trust_flags)
    return best.edges
