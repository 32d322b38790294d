"""Unit tests for Cantor normal form arithmetic."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_ord_compare
from scatter_calc.ordinal import (
    EXPONENT_DEPTH_LIMIT,
    SHARED_NATURALS,
    CnfOrdinal,
    NotALimit,
    OMEGA,
    ONE,
    OrdinalError,
    OverflowBeyondEpsilon0,
    OrdinalSyntaxError,
    ZERO,
    format_ordinal,
    from_int,
    from_terms,
    fundamental_sequence,
    omega_power,
    ord_add,
    ord_compare,
    ord_mul,
    ord_pow,
    parse_ordinal,
)

W = OMEGA
W2 = ord_pow(W, 2)


def o(text):
    return parse_ordinal(text)


# -- random ordinal strategy --------------------------------------------------

small_naturals = st.integers(min_value=0, max_value=5)
coefficients = st.integers(min_value=1, max_value=4)


@st.composite
def ordinals(draw, depth=2):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    value = ZERO
    for _ in range(n_terms):
        if depth > 0 and draw(st.booleans()):
            exponent = draw(ordinals(depth=depth - 1))
        else:
            exponent = from_int(draw(small_naturals))
        value = ord_add(value, omega_power(exponent, draw(coefficients)))
    return value


# -- spec examples ------------------------------------------------------------

def test_compare_examples():
    assert ord_compare(ZERO, ZERO) == 0
    assert ord_compare(W, ord_add(W, 1)) == -1
    # leading-term comparison: w^2*3 vs w^2*2 + w*9
    assert ord_compare(ord_mul(W2, 3), ord_add(ord_mul(W2, 2), ord_mul(W, 9))) == 1


def test_compare_against_surrogate_triples():
    # ordinals below w^2*k correspond to triples (a, b, c) = w^2*a + w*b + c,
    # ordered lexicographically
    pool = [(a, b, c) for a in range(3) for b in range(4) for c in range(4)]
    def build(t):
        return ord_add(ord_add(ord_mul(W2, t[0]), ord_mul(W, t[1])), t[2])
    for x in pool:
        for y in pool:
            expected = (x > y) - (x < y)
            assert ord_compare(build(x), build(y)) == expected


def test_add_examples():
    assert ord_add(1, W) == W
    assert ord_add(W, 1) == o("w + 1")


def test_absorbed_sum_is_b_and_constructs_nothing(constructions):
    for a, b in [(ONE, OMEGA), (o("w*3 + 2"), o("w^2"))]:
        before = len(constructions)
        total = ord_add(a, b)
        assert len(constructions) == before
        assert total is b and reference_ord_compare(total, b) == 0


@settings(max_examples=200, deadline=None)
@given(ordinals(), ordinals())
def test_sum_is_b_exactly_when_a_is_absorbed(a, b):
    absorbed = not b.is_zero() and all(
        reference_ord_compare(e, b.terms[0][0]) < 0 for e, _ in a.terms)
    total = ord_add(a, b)
    assert (reference_ord_compare(total, b) == 0) == (absorbed or a.is_zero())
    if absorbed:
        assert total is b


def test_mul_omega_plus_one_times_omega():
    # oracle: (w+1)*n by repeated addition, then the limit absorbs into w^2
    acc = ZERO
    for n in range(1, 21):
        acc = ord_add(acc, ord_add(W, 1))
        assert ord_mul(ord_add(W, 1), n) == acc
        assert ord_compare(acc, W2) < 0
    assert ord_mul(ord_add(W, 1), W) == W2


def test_pow_examples():
    assert ord_pow(W, 2) == o("w^2")
    assert ord_pow(2, W) == W
    assert ord_pow(2, ord_add(W, 2)) == ord_mul(W, 4)
    assert ord_pow(W, W) == o("w^w")
    assert ord_pow(ord_add(W, 1), W) == o("w^w")
    assert ord_pow(2, W2) == o("w^w")
    assert ord_pow(3, ord_mul(W2, 2)) == o("w^(w*2)")


def test_pow_depth_guard():
    tower = W
    with pytest.raises(OverflowBeyondEpsilon0):
        for _ in range(EXPONENT_DEPTH_LIMIT + 2):
            tower = ord_pow(W, tower)


def test_fundamental_sequence_examples():
    assert fundamental_sequence(W, 3) == from_int(4)
    assert fundamental_sequence(ord_add(W2, W), 2) == o("w^2 + 3")
    assert fundamental_sequence(o("w^w"), 1) == W2
    with pytest.raises(NotALimit):
        fundamental_sequence(ord_add(W, 1), 0)
    with pytest.raises(NotALimit):
        fundamental_sequence(from_int(5), 0)


def test_fundamental_sequence_monotone_bounded():
    for text in ["w", "w^2", "w^w", "w^2*3 + w*2", "w^(w + 1)", "w^(w*2)*2"]:
        a = o(text)
        prev = None
        for i in range(6):
            x = fundamental_sequence(a, i)
            assert ord_compare(x, a) < 0
            if prev is not None:
                assert ord_compare(prev, x) < 0
            prev = x


def test_parse_format_roundtrip_examples():
    for text in ["0", "7", "w", "w + 1", "w^2*3 + w*9", "w^w", "w^(w + 1)*2 + w^2*3 + 5",
                 "w^(w^2)", "w^(w^(w + 1))*3 + w*2 + 11"]:
        assert format_ordinal(parse_ordinal(text)) == text


def test_parse_errors_have_positions():
    for bad in ["w^", "3 +", "w*", "(w", "q", "w^2*", "1 2"]:
        with pytest.raises(OrdinalSyntaxError):
            parse_ordinal(bad)


def test_parse_rejects_deep_nesting():
    with pytest.raises(OrdinalSyntaxError):
        parse_ordinal("w^(" * 3000 + "1" + ")" * 3000)


# -- property tests -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(ordinals(), ordinals(), ordinals())
def test_order_is_total_and_transitive(a, b, c):
    cab, cba = ord_compare(a, b), ord_compare(b, a)
    assert cab == -cba
    assert (cab == 0) == (a == b)
    if ord_compare(a, b) <= 0 and ord_compare(b, c) <= 0:
        assert ord_compare(a, c) <= 0


@settings(max_examples=500, deadline=None)
@given(ordinals(depth=3), ordinals(depth=3))
def test_key_order_matches_recursive_reference(a, b):
    expected = reference_ord_compare(a, b)
    assert ord_compare(a, b) == expected
    assert (a < b, a <= b, a > b, a >= b) == (
        expected < 0, expected <= 0, expected > 0, expected >= 0)
    assert (a == b) == (expected == 0)
    twin = rebuild(a)
    assert twin is not a and twin == a and hash(twin) == hash(a)
    if expected == 0:
        assert hash(a) == hash(b)


def rebuild(a):
    """An equal ordinal that shares no object with a."""
    return CnfOrdinal(tuple((rebuild(e), c) for e, c in a.terms))


def test_constructor_rejects_non_decreasing_exponents():
    two = from_int(2)
    for exponents in [(ONE, ONE), (ONE, W), (ZERO, two), (W, ord_add(W, 1)), (W, rebuild(W))]:
        with pytest.raises(OrdinalError):
            CnfOrdinal(tuple((e, 1) for e in exponents))
    with pytest.raises(OrdinalError):
        CnfOrdinal(((two, 1), (ONE, 2), (ONE, 1)))
    assert CnfOrdinal(((two, 1), (ONE, 2), (ZERO, 1))) == o("w^2 + w*2 + 1")


@settings(max_examples=300, deadline=None)
@given(ordinals(), ordinals(), ordinals())
def test_add_mul_laws(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))
    assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))


@settings(max_examples=300, deadline=None)
@given(ordinals(), ordinals(), ordinals())
def test_add_strict_right_monotone(a, b, c):
    if ord_compare(b, c) < 0:
        assert ord_compare(ord_add(a, b), ord_add(a, c)) < 0
        assert ord_compare(ord_add(b, a), ord_add(c, a)) <= 0


@settings(max_examples=200, deadline=None)
@given(ordinals(), ordinals())
def test_indecomposable_absorption(b, c):
    for a in [ONE, W, W2, o("w^w"), o("w^(w + 2)")]:   # single omega-powers
        if ord_compare(b, a) < 0 and ord_compare(c, a) < 0:
            assert ord_compare(ord_add(b, c), a) < 0


@settings(max_examples=200, deadline=None)
@given(ordinals())
def test_format_parse_roundtrip(a):
    assert parse_ordinal(format_ordinal(a)) == a


def test_compare_strict_total_order_bulk():
    rng = random.Random(42)
    pool = []
    menu = ["0", "1", "5", "w", "w + 3", "w*2", "w^2", "w^2 + w*2 + 1",
            "w^3*2", "w^w", "w^w + w^2*3", "w^(w + 1)"]
    for text in menu:
        pool.append(o(text))
    for _ in range(10_000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert ord_compare(a, b) == -ord_compare(b, a)
        if ord_compare(a, b) <= 0 and ord_compare(b, c) <= 0:
            assert ord_compare(a, c) <= 0


# -- shared naturals ----------------------------------------------------------

def test_small_naturals_are_shared():
    for n in range(SHARED_NATURALS):
        assert from_int(n) is from_int(n)
    assert from_int(0) is ZERO and from_int(1) is ONE


@pytest.mark.parametrize("offset", [-1, 0])
def test_naturals_at_the_table_bound_are_exact(offset):
    n = SHARED_NATURALS + offset
    fresh = CnfOrdinal(((ZERO, n),))
    x = from_int(n)
    assert x.key == fresh.key and hash(x) == hash(fresh) and x == fresh
    assert format_ordinal(x) == format_ordinal(fresh) == str(n)
    assert x.as_int() == n and from_int(n + 1) > x > from_int(n - 1)


@pytest.mark.parametrize("bad", [True, False, 1.0, -1, "1"])
def test_from_int_refuses_what_is_not_a_natural(bad):
    with pytest.raises(OrdinalError):
        from_int(bad)


@settings(max_examples=200, deadline=None)
@given(ordinals())
def test_from_terms_is_the_normal_form(a):
    b = from_terms(a.terms)
    assert b.key == a.key and format_ordinal(b) == format_ordinal(a)
    if a.is_finite():
        assert b is from_int(a.as_int())


def test_finite_results_are_shared_naturals():
    two, three = from_int(2), from_int(3)
    assert ord_add(two, three) is from_int(5)
    assert ord_mul(two, three) is from_int(6)
    assert ord_pow(two, three) is from_int(8)
    assert omega_power(ZERO, 7) is from_int(7)
    assert from_int(9).predecessor() is from_int(8)
    assert fundamental_sequence(W, 3) is from_int(4)
