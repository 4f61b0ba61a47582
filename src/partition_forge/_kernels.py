"""Hot enumeration kernels.

Everything downstream funnels into a handful of exhaustive scans over bit
masks: all set partitions of a small vertex set (restricted-growth
strings), all vertex subsets, all orientations, all edge-to-part
assignments, and all pairs of subsets for property validation.  Set
functions are materialized as ``int64`` tables indexed by mask before a
kernel runs, so the kernels see only integer arrays.

The kernels are compiled with numba when it is importable (the optional
extra ``partition-forge[numba]``); otherwise they run as written.  Set
``PARTITION_FORGE_NO_NUMBA=1`` to force the plain NumPy/Python
implementations instead (the ``py_*`` names are always available,
regardless of the flag; ``benchmarks/bench_kernels.py`` compares the two
paths).
"""

import os

import numpy as np

_HUGE = np.int64(2**62)


def _partition_scan_impl(k, edge_masks, ltab, bound, early_exit):
    """Scan every set partition of {0..k-1}; maximize sum(l) - crossings.

    Returns ``(best_value, best_labels, exceeded)`` where ``best_labels``
    is the restricted-growth string of the maximizing partition and
    ``exceeded`` reports whether any partition value went above ``bound``.
    With ``early_exit`` the scan stops at the first partition above
    ``bound`` and returns that partition.
    """
    a = np.zeros(k, dtype=np.int64)
    bmax = np.zeros(k, dtype=np.int64)
    block = np.zeros(k, dtype=np.int64)
    best = -_HUGE
    best_rgs = np.zeros(k, dtype=np.int64)
    exceeded = False
    ne = edge_masks.shape[0]
    while True:
        nb = np.int64(0)
        for i in range(k):
            if a[i] > nb:
                nb = a[i]
        nb += 1
        for j in range(nb):
            block[j] = 0
        for i in range(k):
            block[a[i]] |= np.int64(1) << i
        val = np.int64(0)
        for j in range(nb):
            val += ltab[block[j]]
        for ei in range(ne):
            em = edge_masks[ei]
            low = em & (-em)
            idx = 0
            t = low
            while t > 1:
                t >>= 1
                idx += 1
            if em & ~block[a[idx]] != 0:
                val -= 1
        if val > best:
            best = val
            for i in range(k):
                best_rgs[i] = a[i]
            if best > bound:
                exceeded = True
                if early_exit:
                    return best, best_rgs, True
        i = k - 1
        moved = False
        while i > 0:
            if a[i] <= bmax[i]:
                a[i] += 1
                for t2 in range(i + 1, k):
                    a[t2] = 0
                    bm = bmax[t2 - 1]
                    if a[t2 - 1] > bm:
                        bm = a[t2 - 1]
                    bmax[t2] = bm
                moved = True
                break
            i -= 1
        if not moved:
            return best, best_rgs, exceeded


def _sparse_violation_impl(k, edge_masks, slack):
    """First mask A with more edges inside A than ``slack[A]`` allows, -1
    if none.  ``slack[A]`` is sum over v in A of l(v), minus l(A)."""
    ne = edge_masks.shape[0]
    for mask in range(1 << k):
        cnt = np.int64(0)
        for ei in range(ne):
            if edge_masks[ei] & ~np.int64(mask) == 0:
                cnt += 1
        if cnt > slack[mask]:
            return np.int64(mask)
    return np.int64(-1)


def _count_inside_impl(k, edge_masks):
    """counts[A] = number of edge masks contained in A."""
    counts = np.zeros(1 << k, dtype=np.int64)
    ne = edge_masks.shape[0]
    for mask in range(1 << k):
        cnt = np.int64(0)
        for ei in range(ne):
            if edge_masks[ei] & ~np.int64(mask) == 0:
                cnt += 1
        counts[mask] = cnt
    return counts


def _find_orientation_impl(k, tails, heads, ltab):
    """First orientation bitmask (bit i set = edge i points tails->heads)
    whose every vertex set A has in-degree >= ltab[A]; -1 if none."""
    ne = tails.shape[0]
    nm = 1 << k
    for om in range(1 << ne):
        ok = True
        for mask in range(1, nm):
            need = ltab[mask]
            if need <= 0:
                continue
            indeg = np.int64(0)
            for i in range(ne):
                if (om >> i) & 1 == 1:
                    h = heads[i]
                    t = tails[i]
                else:
                    h = tails[i]
                    t = heads[i]
                if (mask >> h) & 1 == 1 and (mask >> t) & 1 == 0:
                    indeg += 1
            if indeg < need:
                ok = False
                break
        if ok:
            return np.int64(om)
    return np.int64(-1)


def _arc_violation_impl(k, head_vertices, arc_masks, ltab):
    """First vertex set A whose in-degree (arcs with head in A leaving a
    vertex outside A) is below ltab[A]; -1 if none."""
    ne = head_vertices.shape[0]
    for mask in range(1, 1 << k):
        need = ltab[mask]
        if need <= 0:
            continue
        indeg = np.int64(0)
        for i in range(ne):
            if (mask >> head_vertices[i]) & 1 == 1 and arc_masks[i] & ~np.int64(mask) != 0:
                indeg += 1
        if indeg < need:
            return np.int64(mask)
    return np.int64(-1)


def _assignment_best_impl(k, edge_masks, slacks, cap):
    """Assign each edge to one of m parts or leave it out, maximizing the
    number of assigned edges subject to every part staying sparse.

    ``slacks`` is (m, 2**k).  Assignments are scanned in lexicographic
    order (part 0 < part 1 < ... < unused); the first maximum is kept.
    ``cap >= 0`` allows an early exit once that coverage is reached.
    Returns ``(best_count, assignment)`` with value m meaning unused.
    """
    ne = edge_masks.shape[0]
    m = slacks.shape[0]
    nm = 1 << k
    if ne == 0:
        return np.int64(0), np.zeros(0, dtype=np.int64)
    counts = np.zeros((m, nm), dtype=np.int64)
    assign = np.full(ne, -1, dtype=np.int64)
    best = np.int64(-1)
    best_assign = np.full(ne, m, dtype=np.int64)
    assigned = 0
    pos = 0
    while pos >= 0:
        cur = assign[pos]
        em = edge_masks[pos]
        if 0 <= cur < m:
            for mask in range(nm):
                if em & ~np.int64(mask) == 0:
                    counts[cur, mask] -= 1
            assigned -= 1
        nxt = cur + 1
        placed = False
        while nxt <= m:
            if nxt == m:
                assign[pos] = m
                placed = True
                break
            ok = True
            for mask in range(nm):
                if em & ~np.int64(mask) == 0:
                    counts[nxt, mask] += 1
                    if counts[nxt, mask] > slacks[nxt, mask]:
                        ok = False
            if ok:
                assign[pos] = nxt
                assigned += 1
                placed = True
                break
            for mask in range(nm):
                if em & ~np.int64(mask) == 0:
                    counts[nxt, mask] -= 1
            nxt += 1
        if not placed:
            assign[pos] = -1
            pos -= 1
            continue
        if pos == ne - 1:
            if assigned > best:
                best = np.int64(assigned)
                for i in range(ne):
                    best_assign[i] = assign[i]
                if cap >= 0 and best >= cap:
                    return best, best_assign
        else:
            pos += 1
    return best, best_assign


def _pair_violation_impl(tab, k, mode):
    """First pair (A, B) violating a two-set property of ``tab``.

    mode 0: supermodular over all pairs
    mode 1: supermodular over intersecting pairs
    mode 2: supermodular over intersecting pairs with both values positive
    mode 3: subadditive over disjoint pairs
    mode 4: nonincreasing (nonempty A contained in B)

    Returns ``[A, B]`` or an empty array.
    """
    nm = 1 << k
    out = np.empty(2, dtype=np.int64)
    for a in range(nm):
        for b in range(nm):
            if mode <= 2:
                if mode >= 1 and a & b == 0:
                    continue
                if mode == 2 and (tab[a] <= 0 or tab[b] <= 0):
                    continue
                if tab[a & b] + tab[a | b] >= tab[a] + tab[b]:
                    continue
            elif mode == 3:
                if a & b != 0:
                    continue
                if tab[a] + tab[b] >= tab[a | b]:
                    continue
            else:
                if a == 0 or a & ~b != 0:
                    continue
                if tab[a] >= tab[b]:
                    continue
            out[0] = a
            out[1] = b
            return out
    return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Fallback variants that vectorize naturally with NumPy.

def _sparse_violation_numpy(k, edge_masks, slack):
    masks = np.arange(1 << k, dtype=np.int64)
    counts = np.zeros(1 << k, dtype=np.int64)
    for em in edge_masks:
        counts += (masks & em) == em
    bad = np.nonzero(counts > slack)[0]
    return np.int64(bad[0]) if bad.size else np.int64(-1)


def _count_inside_numpy(k, edge_masks):
    masks = np.arange(1 << k, dtype=np.int64)
    counts = np.zeros(1 << k, dtype=np.int64)
    for em in edge_masks:
        counts += (masks & em) == em
    return counts


# ---------------------------------------------------------------------------
# Path selection.

py_partition_scan = _partition_scan_impl
py_sparse_violation = _sparse_violation_numpy
py_count_inside = _count_inside_numpy
py_find_orientation = _find_orientation_impl
py_arc_violation = _arc_violation_impl
py_assignment_best = _assignment_best_impl
py_pair_violation = _pair_violation_impl

_FORCE_PY = os.environ.get("PARTITION_FORGE_NO_NUMBA", "") not in ("", "0")
if not _FORCE_PY:
    try:
        from numba import njit
    except ImportError:  # numba is the optional extra ``partition-forge[numba]``
        njit = None
else:
    njit = None

if njit is not None:
    _jit = njit(cache=True)
    partition_scan = _jit(_partition_scan_impl)
    sparse_violation = _jit(_sparse_violation_impl)
    count_inside = _jit(_count_inside_impl)
    find_orientation = _jit(_find_orientation_impl)
    arc_violation = _jit(_arc_violation_impl)
    assignment_best = _jit(_assignment_best_impl)
    pair_violation = _jit(_pair_violation_impl)
    USING_NUMBA = True
else:
    partition_scan = py_partition_scan
    sparse_violation = py_sparse_violation
    count_inside = py_count_inside
    find_orientation = py_find_orientation
    arc_violation = py_arc_violation
    assignment_best = py_assignment_best
    pair_violation = py_pair_violation
    USING_NUMBA = False


def as_mask_array(masks):
    return np.asarray(list(masks), dtype=np.int64)


HUGE = _HUGE
