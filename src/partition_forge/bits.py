"""Bit-mask helpers.

Vertex sets are Python ints used as bit masks (vertex ``v`` is bit
``1 << v``).  Hosts are capped at 64 vertices; the exhaustive kernels are
further capped by the limits in :mod:`partition_forge.limits`.
"""

from .errors import ValidationError


def mask_of(vertices):
    """Bit mask of an iterable of vertex ids."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_list(mask):
    """Sorted vertex ids present in ``mask``."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def bit_count(mask):
    return int(mask).bit_count()


def low_bit_index(mask):
    return (mask & -mask).bit_length() - 1


def as_mask(vertex_set, n, what="vertex set"):
    """Normalize ``vertex_set`` (mask or iterable of ids) to a bit mask of
    vertices ``0..n-1``; raises on out-of-range vertices."""
    if isinstance(vertex_set, int):
        m = vertex_set
        if m < 0 or m >= (1 << n):
            raise ValidationError(f"{what} out of range for {n} vertices")
        return m
    m = 0
    for v in vertex_set:
        if not 0 <= v < n:
            raise ValidationError(f"{what} contains vertex {v}, host has {n}")
        m |= 1 << v
    return m

