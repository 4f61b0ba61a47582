"""Integer-valued set functions on vertex subsets, with structural
property flags and exhaustive validators.

A :class:`SetFunction` maps bit masks to integers and is zero on the
empty set.  Most built-in families are arity-free (they work over any
ground set); table-backed functions carry a fixed arity.  Negative values
are permitted -- only the flags constrain sign.  The built-in families and
their compositions build their ``2**n`` value tables with NumPy; a
function made from any other callable is tabulated one mask at a time.

Two property names are *interpreted*: the defining inequalities for
``element-nonincreasing`` and ``positively-intersecting-supermodular``
are not pinned down by the standard definitions used elsewhere in this
package, so we validate our own readings and callers must opt in:

* ``element-nonincreasing``: ``l({v}) >= l(A)`` for every nonempty A and
  every ``v`` in A (the single-vertex value dominates every set through
  that vertex).
* ``positively-intersecting-supermodular``: the supermodular inequality
  restricted to intersecting pairs on which both values are positive.
"""

from fractions import Fraction

import numpy as np

from . import _kernels
from .bits import as_mask, bit_count, bit_list
from .errors import FlagViolation, LimitExceeded, ValidationError
from .limits import VALIDATE_LIMIT

CORE_PROPERTIES = (
    "intersecting-supermodular",
    "supermodular",
    "subadditive",
    "element-subadditive",
    "weakly-subadditive",
    "nonincreasing",
    "nonnegative",
)
INTERPRETED_PROPERTIES = (
    "element-nonincreasing",
    "positively-intersecting-supermodular",
)
ALL_PROPERTIES = CORE_PROPERTIES + INTERPRETED_PROPERTIES

# Properties preserved by pointwise addition of two functions.
_SUM_CLOSED = frozenset(CORE_PROPERTIES) | {"element-nonincreasing"}
# Properties preserved by subtracting a nonnegative modular function.
_SHIFT_CLOSED = frozenset(
    (
        "intersecting-supermodular",
        "supermodular",
        "subadditive",
        "element-subadditive",
        "weakly-subadditive",
    )
)


def _mask_sums(n, weights):
    """``sums[A] = sum of weights[v] for v in A`` over ``0..n-1``, as an
    int64 array indexed by mask."""
    masks = np.arange(1 << n, dtype=np.int64)
    sums = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        sums += weights[v] * ((masks >> v) & 1)
    return sums


class SetFunction:
    """Integer function on vertex subsets with ``l(empty) = 0``."""

    def __init__(self, fn, *, n=None, flags=(), name="setfn"):
        flags = frozenset(flags)
        unknown = flags - set(ALL_PROPERTIES)
        if unknown:
            raise ValidationError(f"unknown property flags: {sorted(unknown)}")
        if fn(0) != 0:
            raise ValidationError("set function must be zero on the empty set")
        self._fn = fn
        self.n = n
        self.flags = flags
        self.name = name
        # Flags that hold by construction; ensure_properties skips the
        # exhaustive run when every needed flag is among them.
        self._proven = frozenset()
        # Optional NumPy builder of the whole table over 0..n-1; without
        # one, _tabulate evaluates the function once per mask.
        self._builder = None
        self._tables = {}
        self._reports = {}

    def value(self, vertex_set, n=None):
        """Evaluate on a vertex set (mask or iterable)."""
        arity = n if n is not None else (self.n if self.n is not None else 64)
        mask = as_mask(vertex_set, arity, "argument")
        if self.n is not None and mask >= (1 << self.n):
            raise ValidationError("argument outside the function's ground set")
        return int(self._fn(mask))

    def table(self, n):
        """Values on all ``2**n`` masks as an int64 array (cached)."""
        if self.n is not None and n > self.n:
            raise ValidationError(f"function has arity {self.n}, asked for {n}")
        if n not in self._tables:
            if n > 24:
                raise LimitExceeded(f"table for n={n} would be too large")
            self._tables[n] = self._tabulate(n)
        return self._tables[n]

    def _tabulate(self, n):
        """Fresh (uncached) table over ``0..n-1``."""
        if self._builder is not None:
            return self._builder(n)
        return np.fromiter(
            (self._fn(m) for m in range(1 << n)), dtype=np.int64, count=1 << n
        )

    def singleton_sum_table(self, n):
        """``sums[A] = sum of l({v}) for v in A`` as an int64 array."""
        key = ("sum", n)
        if key not in self._tables:
            self._tables[key] = _mask_sums(n, [self._fn(1 << v) for v in range(n)])
        return self._tables[key]

    def slack_table(self, n):
        """``slack[A] = sum_{v in A} l(v) - l(A)`` (sparseness budget)."""
        key = ("slack", n)
        if key not in self._tables:
            self._tables[key] = self.singleton_sum_table(n) - self.table(n)
        return self._tables[key]

    def has_flags(self, *names):
        return all(name in self.flags for name in names)

    def with_flags(self, *names):
        out = SetFunction(
            self._fn, n=self.n, flags=self.flags | set(names), name=self.name
        )
        out._proven = self._proven
        out._builder = self._builder
        return out

    def __add__(self, other):
        if not isinstance(other, SetFunction):
            return NotImplemented
        return fn_sum(self, other)

    def __rmul__(self, beta):
        if not isinstance(beta, int):
            return NotImplemented
        return scale(beta, self)

    def __repr__(self):
        return f"SetFunction({self.name})"


def vertex_bulk(vertex_value, bulk_value, name=None):
    """``vertex_value`` on singletons, ``bulk_value`` on sets of size >= 2.

    Flags are derived exactly from the two values, so no validation run is
    needed for this family.
    """
    vv, bb = int(vertex_value), int(bulk_value)

    def fn(mask):
        c = bit_count(mask)
        if c == 0:
            return 0
        return vv if c == 1 else bb

    flags = set()
    if vv >= bb:
        flags.update(("intersecting-supermodular", "nonincreasing", "element-nonincreasing"))
    if vv >= bb and vv <= 0 and bb <= 0 and bb >= 2 * vv:
        flags.add("supermodular")
    if vv >= 0 and bb >= 0 and 2 * vv >= bb:
        flags.update(("subadditive", "weakly-subadditive"))
    if vv >= 0 and 2 * vv >= bb:
        flags.add("element-subadditive")
    if vv >= 0 and bb >= 0:
        flags.add("nonnegative")
    if vv >= bb or bb <= 0:
        flags.add("positively-intersecting-supermodular")
    out = SetFunction(fn, flags=flags, name=name or f"vertex_bulk({vv},{bb})")
    out._proven = out.flags

    def build(n):
        sizes = _mask_sums(n, [1] * n)
        return np.where(sizes == 1, vv, np.where(sizes == 0, 0, bb)).astype(np.int64)

    out._builder = build
    return out


def constant(value):
    """``value`` on every nonempty set."""
    return vertex_bulk(value, value, name=f"constant({value})")


def vertex_weights(values, name=None):
    """Per-vertex values on singletons, zero on sets of size >= 2.

    Only with nonnegative values is this family intersecting
    supermodular (two sets of size >= 2 can meet in one vertex); it is
    then also subadditive and weakly subadditive.
    """
    values = tuple(int(v) for v in values)

    def fn(mask):
        if mask == 0:
            return 0
        vs = bit_list(mask)
        if len(vs) == 1:
            return values[vs[0]]
        return 0

    flags = set()
    if all(v >= 0 for v in values):
        flags.update(
            (
                "intersecting-supermodular",
                "subadditive",
                "weakly-subadditive",
                "nonnegative",
                "element-subadditive",
                "positively-intersecting-supermodular",
            )
        )
    out = SetFunction(
        fn, n=len(values), flags=flags, name=name or f"vertex_weights{values}"
    )
    out._proven = out.flags

    def build(n):
        tab = np.zeros(1 << n, dtype=np.int64)
        tab[[1 << v for v in range(n)]] = values[:n]
        return tab

    out._builder = build
    return out


def table(n, entries, default=None, flags=()):
    """Set function backed by an explicit table.

    ``entries`` maps vertex sets (masks or iterables) to values; missing
    masks take ``default``.  With ``default=None`` the table must cover
    all ``2**n`` subsets.  Flags are taken on trust; run :func:`validate`
    to check them.
    """
    values = {}
    for key, val in entries.items() if hasattr(entries, "items") else entries:
        values[as_mask(key, n, "table key")] = int(val)
    values.setdefault(0, 0)
    if default is None and len(values) < (1 << n):
        missing = next(m for m in range(1 << n) if m not in values)
        raise ValidationError(
            f"table is missing an entry for {bit_list(missing)} and has no default"
        )

    def fn(mask):
        return values.get(mask, default)

    keys = np.fromiter(values, dtype=np.int64, count=len(values))
    vals = np.fromiter(values.values(), dtype=np.int64, count=len(values))

    def build(k):
        # Every mask below 2**k has an entry when there is no default.
        tab = np.full(1 << k, 0 if default is None else default, dtype=np.int64)
        below = keys < (1 << k)
        tab[keys[below]] = vals[below]
        return tab

    out = SetFunction(fn, n=n, flags=flags, name=f"table(n={n})")
    out._builder = build
    return out


def fn_sum(*fns):
    """Pointwise sum; flags closed under addition are kept."""
    if not fns:
        raise ValidationError("need at least one function")
    arities = {f.n for f in fns if f.n is not None}
    if len(arities) > 1:
        raise ValidationError("summands have incompatible arities")
    flags = frozenset(ALL_PROPERTIES)
    for f in fns:
        flags &= f.flags
    flags &= _SUM_CLOSED

    def fn(mask):
        return sum(f._fn(mask) for f in fns)

    out = SetFunction(
        fn,
        n=next(iter(arities), None),
        flags=flags,
        name="+".join(f.name for f in fns),
    )
    out._proven = flags.intersection(*(f._proven for f in fns))
    out._builder = lambda n: sum(f.table(n) for f in fns)
    return out


def scale(beta, fn):
    """``beta * l`` for an integer ``beta >= 1``; all flags survive."""
    if not isinstance(beta, int) or beta < 1:
        raise ValidationError("scale factor must be an integer >= 1")
    inner = fn._fn
    out = SetFunction(
        lambda mask: beta * inner(mask),
        n=fn.n,
        flags=fn.flags,
        name=f"{beta}*{fn.name}",
    )
    out._proven = fn._proven
    out._builder = lambda n: beta * fn.table(n)
    return out


def rooted_shift(fn, roots):
    """``l(A) - sum_{v in A} r(v)`` for nonnegative integer roots.

    Sign-dependent flags (nonnegative, nonincreasing, the interpreted
    ones) are dropped; revalidate if you need them back.
    """
    roots = tuple(int(r) for r in roots)
    if any(r < 0 for r in roots):
        raise ValidationError("roots must be nonnegative")
    if fn.n is not None and fn.n != len(roots):
        raise ValidationError("root vector length must match the function arity")
    inner = fn._fn

    def shifted(mask):
        return inner(mask) - sum(roots[v] for v in bit_list(mask))

    out = SetFunction(
        shifted,
        n=len(roots),
        flags=fn.flags & _SHIFT_CLOSED,
        name=f"{fn.name}-roots",
    )
    out._builder = lambda n: fn.table(n) - _mask_sums(n, roots)
    return out


class PropertyCheck:
    __slots__ = ("holds", "counterexample")

    def __init__(self, holds, counterexample=None):
        self.holds = holds
        self.counterexample = counterexample

    def __repr__(self):
        if self.holds:
            return "PropertyCheck(holds)"
        return f"PropertyCheck(fails at {self.counterexample})"


class PropertyReport:
    """Outcome of exhaustive validation: one check per property."""

    def __init__(self, n, checks):
        self.n = n
        self.checks = checks

    def holds(self, name):
        return self.checks[name].holds

    def counterexample(self, name):
        return self.checks[name].counterexample

    def failing(self):
        return sorted(name for name, c in self.checks.items() if not c.holds)

    def declared_failures(self, fn):
        return sorted(f for f in fn.flags if not self.checks[f].holds)

    def __repr__(self):
        bad = self.failing()
        return f"PropertyReport(n={self.n}, failing={bad})"


_PAIR_MODES = {
    "supermodular": 0,
    "intersecting-supermodular": 1,
    "positively-intersecting-supermodular": 2,
    "subadditive": 3,
    "nonincreasing": 4,
}


def validate(fn, n=None, *, limit=VALIDATE_LIMIT):
    """Exhaustively check every property over all subset pairs.

    Costs O(4**n); reports are cached per ``(function, n)``.
    """
    if n is None:
        n = fn.n
    if n is None:
        raise ValidationError("validation needs an arity (pass n=...)")
    if limit is not None and n > limit:
        raise LimitExceeded(f"validation at n={n} exceeds limit {limit}")
    if n in fn._reports:
        return fn._reports[n]
    tab = fn.table(n)
    checks = {}
    for name, mode in _PAIR_MODES.items():
        pair = _kernels.pair_violation(tab, n, mode)
        if len(pair):
            checks[name] = PropertyCheck(False, (int(pair[0]), int(pair[1])))
        else:
            checks[name] = PropertyCheck(True)

    neg = np.nonzero(tab < 0)[0]
    checks["nonnegative"] = (
        PropertyCheck(False, (int(neg[0]), None)) if neg.size else PropertyCheck(True)
    )

    weak = np.nonzero(tab > fn.singleton_sum_table(n))[0]
    checks["weakly-subadditive"] = (
        PropertyCheck(False, (int(weak[0]), None)) if weak.size else PropertyCheck(True)
    )

    masks = np.arange(1 << n, dtype=np.int64)
    elem_sub = PropertyCheck(True)
    elem_noninc = PropertyCheck(True)
    for v in range(n):
        bit = 1 << v
        without = masks[(masks & bit) == 0]
        bad = without[tab[without] + tab[bit] < tab[without | bit]]
        if bad.size and elem_sub.holds:
            elem_sub = PropertyCheck(False, (int(bad[0]), bit))
        containing = masks[(masks & bit) != 0]
        bad2 = containing[tab[bit] < tab[containing]]
        if bad2.size and elem_noninc.holds:
            elem_noninc = PropertyCheck(False, (int(bad2[0]), bit))
    checks["element-subadditive"] = elem_sub
    checks["element-nonincreasing"] = elem_noninc

    report = PropertyReport(n, checks)
    fn._reports[n] = report
    return report


def ensure_properties(fn, needed, n, *, trust=None, limit=VALIDATE_LIMIT):
    """Require the named properties of ``fn`` over ``0..n-1``.

    With ``trust=True`` declared flags are believed; with ``trust=False``
    an exhaustive validation run backs them.  The default trusts flags
    proven by construction (the built-in families and their sums and
    multiples) and beyond the validation limit, and validates otherwise.
    """
    needed = tuple(needed)
    if trust is None:
        trust = n > limit or all(p in fn._proven for p in needed)
    if trust:
        missing = [p for p in needed if p not in fn.flags]
        if missing:
            raise FlagViolation(
                f"{fn.name} lacks required flags {missing}", prop=missing[0]
            )
        return
    report = validate(fn, n, limit=limit)
    for p in needed:
        if not report.holds(p):
            raise FlagViolation(
                f"{fn.name} fails required property {p!r} "
                f"at {report.counterexample(p)}",
                prop=p,
                counterexample=report.counterexample(p),
            )


def ceil_fraction(x):
    """Exact ceiling of a Fraction or int."""
    if isinstance(x, int):
        return x
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)
