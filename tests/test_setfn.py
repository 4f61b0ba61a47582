"""Set function families, combinators and exhaustive validation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_forge import (
    FlagViolation,
    ValidationError,
    constant,
    fn_sum,
    rooted_shift,
    scale,
    table,
    validate,
    vertex_bulk,
    vertex_weights,
)
from partition_forge.setfn import ensure_properties


def test_evaluate_examples():
    assert constant(2).value([0, 1]) == 2
    assert vertex_bulk(2, 1).value([0]) == 2
    assert vertex_bulk(2, 1).value([0, 1]) == 1
    assert constant(5).value([]) == 0


def test_zero_on_empty_is_enforced():
    with pytest.raises(ValidationError):
        table(2, {(): 1, (0,): 0, (1,): 0, (0, 1): 0})


def test_table_requires_cover_or_default():
    with pytest.raises(ValidationError):
        table(2, {(0,): 1})
    fn = table(2, {(0,): 1}, default=0)
    assert fn.value([0]) == 1 and fn.value([0, 1]) == 0
    with pytest.raises(ValidationError):
        fn.value([2])


# The seven properties the constant family satisfies (plain supermodularity
# fails for any positive constant: disjoint sets add).
CONSTANT_PROPERTIES = (
    "intersecting-supermodular",
    "subadditive",
    "element-subadditive",
    "weakly-subadditive",
    "nonincreasing",
    "nonnegative",
    "positively-intersecting-supermodular",
)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_constant_passes_all_checks(m):
    report = validate(constant(m), 5)
    for prop in CONSTANT_PROPERTIES:
        assert report.holds(prop), prop
    assert report.holds("element-nonincreasing")


def test_constant_positive_is_not_plain_supermodular():
    report = validate(constant(1), 3)
    assert not report.holds("supermodular")
    a, b = report.counterexample("supermodular")
    assert a & b == 0


def test_validate_finds_nonincreasing_counterexample():
    fn = vertex_bulk(1, 2)
    report = validate(fn, 3)
    assert not report.holds("nonincreasing")
    a, b = report.counterexample("nonincreasing")
    assert bin(a).count("1") == 1 and a & b == a and fn.value(a) < fn.value(b)


def test_counterexamples_reviolate():
    fn = table(
        3,
        {m: v for m, v in enumerate([0, 1, 1, 3, 1, 0, 0, 0])},
    )
    report = validate(fn, 3)
    for prop in report.failing():
        a, b = report.counterexample(prop)
        if prop in ("supermodular", "intersecting-supermodular",
                    "positively-intersecting-supermodular"):
            assert fn.value(a & b) + fn.value(a | b) < fn.value(a) + fn.value(b)
        elif prop == "subadditive":
            assert a & b == 0
            assert fn.value(a) + fn.value(b) < fn.value(a | b)
        elif prop == "nonincreasing":
            assert fn.value(a) < fn.value(b) and a & b == a
        elif prop == "weakly-subadditive":
            singles = sum(fn.value(1 << v) for v in range(3) if (a >> v) & 1)
            assert singles < fn.value(a)
        elif prop == "element-subadditive":
            assert fn.value(a) + fn.value(b) < fn.value(a | b)
        elif prop == "nonnegative":
            assert fn.value(a) < 0
        elif prop == "element-nonincreasing":
            assert fn.value(b) < fn.value(a) and a & b == b


@given(st.integers(0, 63))
def test_sum_and_scale_algebra(mask):
    l1, l2 = vertex_bulk(2, 1), constant(3)
    assert fn_sum(l1, l2).value(mask, n=6) == l1.value(mask, n=6) + l2.value(mask, n=6)
    assert scale(3, l1).value(mask, n=6) == 3 * l1.value(mask, n=6)
    assert (l1 + l2).value(mask, n=6) == fn_sum(l1, l2).value(mask, n=6)


def test_sum_scale_shortcuts():
    assert fn_sum(constant(1), constant(1)).value([0, 1, 2]) == constant(2).value([0, 1, 2])
    assert scale(3, constant(1)).value([0]) == constant(3).value([0])
    with pytest.raises(ValidationError):
        scale(0, constant(1))


def test_rooted_shift_example():
    fn = rooted_shift(constant(1), (1, 0, 0))
    assert fn.value([0]) == 0
    assert fn.value([1]) == 1
    assert fn.value([0, 1]) == 0
    with pytest.raises(ValidationError):
        rooted_shift(constant(1), (-1, 0))


def test_flag_propagation():
    s = fn_sum(constant(1), constant(2))
    assert s.has_flags("intersecting-supermodular", "subadditive", "nonincreasing")
    sc = scale(2, vertex_bulk(2, 1))
    assert sc.flags == vertex_bulk(2, 1).flags
    sh = rooted_shift(constant(1), (0, 1))
    assert sh.has_flags("intersecting-supermodular", "subadditive")
    assert not sh.has_flags("nonnegative")
    assert not sh.has_flags("nonincreasing")


def test_vertex_weights_flags():
    fn = vertex_weights([2, 0, 1])
    report = validate(fn, 3)
    assert report.holds("intersecting-supermodular")
    assert report.holds("subadditive")
    assert not validate(vertex_weights([-1, 0, 0])).holds("nonnegative")


def test_negative_vertex_weights_are_not_intersecting_supermodular():
    fn = vertex_weights([-1, 0, 0])
    assert not validate(fn).holds("intersecting-supermodular")
    assert not fn.has_flags("intersecting-supermodular")
    with pytest.raises(FlagViolation):
        ensure_properties(fn, ("intersecting-supermodular",), 3)


def test_declared_flags_of_built_ins_hold():
    rng = random.Random(5)
    pool = [constant(c) for c in range(-3, 4)]
    pool += [vertex_bulk(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    pool += [
        vertex_weights([rng.randint(-2, 2) for _ in range(rng.randint(1, 5))])
        for _ in range(30)
    ]
    combos = []
    for _ in range(60):
        f, g = rng.choice(pool), rng.choice(pool)
        if f.n is None or g.n is None or f.n == g.n:
            combos.append(fn_sum(f, g))
        combos.append(scale(rng.randint(1, 3), f))
    for fn in pool + combos:
        for n in range(1, 6) if fn.n is None else [fn.n]:
            assert validate(fn, n).declared_failures(fn) == [], (fn, n)


def test_proven_flags_skip_validation():
    s = fn_sum(constant(1), scale(2, vertex_bulk(2, 1)))
    ensure_properties(s, ("intersecting-supermodular", "subadditive"), 5)
    assert 5 not in s._reports
    # Exhaustive on request, and for flags added on trust.
    ensure_properties(s, ("intersecting-supermodular",), 5, trust=False)
    assert 5 in s._reports
    claimed = vertex_bulk(1, 2).with_flags("nonincreasing")
    with pytest.raises(FlagViolation):
        ensure_properties(claimed, ("nonincreasing",), 3)
    # A table's flags are never proven.
    liar = table(2, {0: 0, 1: 5, 2: 5, 3: -1}, flags=("nonnegative",))
    with pytest.raises(FlagViolation):
        ensure_properties(liar, ("nonnegative",), 2)


def test_ensure_properties_trust_and_validate():
    liar = table(2, {0: 0, 1: 5, 2: 5, 3: -1}, flags=("nonnegative",))
    # Trusted: declared flag is believed.
    ensure_properties(liar, ("nonnegative",), 2, trust=True)
    # Validated: the lie is caught.
    with pytest.raises(FlagViolation):
        ensure_properties(liar, ("nonnegative",), 2, trust=False)
    # Missing undeclared-but-true properties pass validation.
    honest = table(2, {0: 0, 1: 1, 2: 1, 3: 1})
    ensure_properties(honest, ("intersecting-supermodular",), 2, trust=False)
    with pytest.raises(FlagViolation):
        ensure_properties(honest, ("intersecting-supermodular",), 2, trust=True)


def test_validation_limit():
    from partition_forge import LimitExceeded

    with pytest.raises(LimitExceeded):
        validate(constant(1), 13)


def test_interpreted_flags_on_families():
    # 1-on-vertices, 0-on-bulk: the interpreted properties hold.
    fn = vertex_bulk(1, 0)
    report = validate(fn, 4)
    assert report.holds("element-nonincreasing")
    assert report.holds("positively-intersecting-supermodular")
    assert fn.has_flags("element-nonincreasing",
                        "positively-intersecting-supermodular")


# ---------------------------------------------------------------------------
# NumPy-built tables against one evaluation per mask.

SMALL = st.integers(-3, 3)


@st.composite
def set_functions(draw, arity, depth=2):
    """A built-in family or a composition of them; every arity-bound piece
    has the given arity, so sums stay compatible."""
    kinds = ["bulk", "constant", "weights", "table"]
    if depth:
        kinds += ["sum", "scale", "shift", "flags"]
    kind = draw(st.sampled_from(kinds))
    if kind == "bulk":
        return vertex_bulk(draw(SMALL), draw(SMALL))
    if kind == "constant":
        return constant(draw(SMALL))
    if kind == "weights":
        return vertex_weights(draw(st.lists(SMALL, min_size=arity, max_size=arity)))
    if kind == "table":
        default = draw(st.one_of(st.none(), SMALL))
        size = 1 << arity
        if default is None:
            values = [0] + draw(st.lists(SMALL, min_size=size - 1, max_size=size - 1))
            return table(arity, dict(enumerate(values)))
        entries = draw(st.dictionaries(st.integers(1, size - 1), SMALL, max_size=8))
        return table(arity, entries, default=default)
    inner = set_functions(arity, depth - 1)
    if kind == "sum":
        return fn_sum(*draw(st.lists(inner, min_size=1, max_size=3)))
    if kind == "scale":
        return scale(draw(st.integers(1, 3)), draw(inner))
    if kind == "shift":
        roots = draw(st.lists(st.integers(0, 2), min_size=arity, max_size=arity))
        return rooted_shift(draw(inner), roots)
    return draw(inner).with_flags("nonnegative")


@st.composite
def tabulated(draw):
    n = draw(st.integers(0, 8))
    arity = draw(st.integers(max(n, 1), 8))
    return n, draw(set_functions(arity))


@settings(max_examples=150, deadline=None)
@given(tabulated())
def test_tables_equal_per_mask_values(case):
    n, fn = case
    values = [fn.value(m) for m in range(1 << n)]
    sums = [sum(fn.value(1 << v) for v in range(n) if m >> v & 1)
            for m in range(1 << n)]
    tab = fn.table(n)
    assert tab.dtype == np.int64 and tab.tolist() == values
    assert fn.singleton_sum_table(n).tolist() == sums
    assert fn.slack_table(n).tolist() == [s - v for s, v in zip(sums, values)]
