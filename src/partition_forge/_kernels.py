"""Hot enumeration kernels.

Everything downstream funnels into a handful of exhaustive scans over bit
masks: all vertex subsets, all orientations, all edge-to-part
assignments, and all pairs of subsets for property validation.  Set
functions are materialized as ``int64`` tables indexed by mask before a
kernel runs, so the kernels see only integer arrays.

The measure (the maximum over set partitions of ``sum l(A) - e(P)``) is
a subset dynamic program rather than a scan: with i(X) the number of
edges inside X, the crossing count of a partition of S is
``i(S) - sum_A i(A)``, so the maximum over partitions of S equals
``g(S) - i(S)`` with ``g(S)`` the maximum of ``sum_A (l(A) + i(A))``.
:func:`partition_table` fills g for every S at once in O(3^k), one
subset size at a time, from a per-k index of (S, block) pairs.

Every kernel is plain NumPy/Python; ``perfbench/run.py`` times each one
end to end and per layer (``perfbench/README.md``).
"""

import numpy as np

HUGE = np.int64(2**62)


def sparse_violation(k, edge_masks, slack):
    """First mask A with more edges inside A than ``slack[A]`` allows, -1
    if none.  ``slack[A]`` is sum over v in A of l(v), minus l(A)."""
    masks = np.arange(1 << k, dtype=np.int64)
    counts = np.zeros(1 << k, dtype=np.int64)
    for em in edge_masks:
        counts += (masks & em) == em
    bad = np.nonzero(counts > slack)[0]
    return np.int64(bad[0]) if bad.size else np.int64(-1)


def count_inside(k, edge_masks):
    """counts[A] = number of edge masks contained in A: the edge count per
    mask, then a sum over subsets one bit at a time."""
    counts = np.bincount(edge_masks, minlength=1 << k).astype(np.int64)
    for b in range(k):
        view = counts.reshape(-1, 2, 1 << b)
        view[:, 1, :] += view[:, 0, :]
    return counts


def find_orientation(k, tails, heads, ltab):
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


def arc_violation(k, head_vertices, arc_masks, ltab):
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


def assignment_best(k, edge_masks, slacks, cap):
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


def pair_violation(tab, k, mode):
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


def as_mask_array(masks):
    return np.asarray(list(masks), dtype=np.int64)


# ---------------------------------------------------------------------------
# The measure as a subset DP.

# Per-k (S, block) index; it depends on k alone, so it is built once per k.
_PAIR_INDEX = {}


def _pair_index(k):
    """``(layers, row)`` for subsets of {0..k-1}.

    ``layers[s - 1]`` is ``(S, A, B)`` for the vertex sets S of size s in
    increasing order: row r of the 2-D ``A`` lists the 2**(s-1) subsets of
    ``S[r]`` that hold its lowest vertex, largest first (A = S leads), and
    ``B = S ^ A``.  ``row[S]`` is the row of S in its layer.  Masks are
    ``int32``, which k <= 30 allows; the arrays are read-only.
    """
    index = _PAIR_INDEX.get(k)
    if index is not None:
        return index
    masks = np.arange(1 << k, dtype=np.int32)
    sizes = np.zeros(1 << k, dtype=np.int32)
    for b in range(k):
        sizes += (masks >> b) & 1
    row = np.zeros(1 << k, dtype=np.int32)
    layers = []
    for s in range(1, k + 1):
        sets = masks[sizes == s]
        row[sets] = np.arange(sets.size, dtype=np.int32)
        low = sets & -sets
        rest = sets ^ low
        # Bit values of the other s-1 vertices of each set, low to high.
        bits = (rest[:, None] >> np.arange(k, dtype=np.int32)) & 1
        others = np.nonzero(bits)[1].astype(np.int32).reshape(sets.size, s - 1)
        picks = np.arange((1 << (s - 1)) - 1, -1, -1, dtype=np.int32)
        blocks = np.broadcast_to(low[:, None], (sets.size, picks.size)).copy()
        for j in range(s - 1):
            blocks |= ((picks >> j) & 1)[None, :] << others[:, j:j + 1]
        layers.append((sets, blocks, sets[:, None] ^ blocks))
    # Shared by every later call with this k: no caller may write to it.
    for arr in [row] + [a for layer in layers for a in layer]:
        arr.flags.writeable = False
    index = _PAIR_INDEX[k] = (layers, row)
    return index


def partition_table(k, edge_masks, ltab):
    """Subset DP over {0..k-1}: ``(g, inside)`` indexed by mask.

    ``inside[S]`` counts the edge masks contained in S, and ``g[S]`` is the
    maximum over partitions P of S of ``sum_{A in P} (ltab[A] + inside[A])``
    (``g[0] = 0``), so the maximum of ``sum ltab[A] - e(P)`` over the
    partitions of S is ``g[S] - inside[S]``.  Each subset size is one
    vectorized max over the blocks holding the lowest vertex.
    """
    inside = count_inside(k, edge_masks)
    w = ltab + inside
    g = np.zeros(1 << k, dtype=np.int64)
    for sets, blocks, rests in _pair_index(k)[0]:
        g[sets] = (w[blocks] + g[rests]).max(axis=1)
    return g, inside


def partition_scan(k, edge_masks, ltab, bound):
    """Maximize ``sum ltab[A] - crossings`` over every set partition of
    {0..k-1}.

    Returns ``(best_value, best_labels, exceeded)``: ``best_labels`` is
    the restricted-growth string of a maximizing partition, rebuilt from
    :func:`partition_table` by following a maximizing block from the full
    set down, and ``exceeded`` is ``best_value > bound``.
    """
    g, inside = partition_table(k, edge_masks, ltab)
    w = ltab + inside
    layers, row = _pair_index(k)
    labels = np.zeros(k, dtype=np.int64)
    rest = (1 << k) - 1
    label = 0
    while rest:
        _, blocks, rests = layers[rest.bit_count() - 1]
        r = row[rest]
        block = int(blocks[r, np.argmax(w[blocks[r]] + g[rests[r]])])
        labels[[v for v in range(k) if block >> v & 1]] = label
        label += 1
        rest ^= block
    best = int(g[-1] - inside[-1])
    return best, labels, bool(best > bound)
