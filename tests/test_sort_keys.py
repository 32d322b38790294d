"""The sort keys behind the element order.

Each term compiles a key kernel that maps an element to a flat tuple of
ints, and the element order is the tuple order of the keys.  The keys of a
term must be prefix-free (no key a proper prefix of another), since a
reversed term negates its inner keys and a composite term splices its
children's keys between tokens of its own.  Both properties are checked
here against the reference comparators of oracles.py, which walk the terms
and the Cantor normal forms and read no key.
"""

import pytest
from hypothesis import given, settings

from corpus import COMPOSITE_TEXT, CORPUS_TEXT
from oracles import reference_cmp, reference_ord_compare
from test_golden import EXTRA_TEXT
from test_ordinal import ordinals

from scatter_calc import materialize, parse_term, sample_elements

TEXTS = CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT


def sign(a, b):
    return (a > b) - (a < b)


def is_flat(key):
    return type(key) is tuple and all(type(v) is int for v in key)


def assert_prefix_free(keys):
    """No key is a proper prefix of another.  In sorted order every key that
    extends a given one comes right after it, so adjacent keys suffice."""
    ordered = sorted(set(keys))
    for a, b in zip(ordered, ordered[1:]):
        assert b[:len(a)] != a, (a, b)


def small_finite(term):
    size = term.finite_size
    return size is not None and size <= 256


@pytest.mark.parametrize("text", TEXTS)
def test_key_order_matches_reference_cmp(text):
    term = parse_term(text)
    key = term._key
    for seed in (7, 8):
        pool = sample_elements(term, 48, seed)
        keys = [key(x) for x in pool]
        assert all(is_flat(k) for k in keys)
        for x, kx in zip(pool, keys):
            for y, ky in zip(pool, keys):
                assert sign(kx, ky) == reference_cmp(term, x, y), (text, x, y)


@pytest.mark.parametrize("text", TEXTS)
def test_keys_are_prefix_free_and_one_per_element(text):
    """On samples at two seeds, and on every element of a small finite term,
    whose materialization ascends by key."""
    term = parse_term(text)
    key = term._key
    elems = sample_elements(term, 32, 0) + sample_elements(term, 32, 1)
    if small_finite(term):
        every = [key(x) for x in materialize(term)]
        assert all(a < b for a, b in zip(every, every[1:])), text
        elems += materialize(term)
    keys = [key(x) for x in elems]
    assert_prefix_free(keys)
    # equal keys exactly for equal elements
    assert len(set(keys)) == len(set(elems))


@settings(max_examples=300, deadline=None)
@given(ordinals(depth=5), ordinals(depth=5))
def test_ordinal_key_order_matches_reference(a, b):
    assert is_flat(a.key) and is_flat(b.key)
    assert sign(a.key, b.key) == reference_ord_compare(a, b)
    assert_prefix_free([a.key, b.key])
