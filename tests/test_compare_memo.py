"""Differential tests of compare_elements, which validates each distinct
element object once per term, against the reference in oracles.py, which
validates on every call.  Equal look-alikes of valid elements (True for 1,
1.0, lists for tuples, explicit zeros in a finite support) are sent after
their valid twins, so a memo that trusted equality would accept them."""

import copy
import gc
import random
import sys
import weakref

import pytest

from corpus import COMPOSITE_TEXT, CORPUS_TEXT
from oracles import reference_compare_elements
from test_golden import EXTRA_TEXT

from scatter_calc import (
    Fin,
    FinSupp,
    Ord,
    Rev,
    Scaled,
    Shuffle,
    SumList,
    compare_elements,
    parse_term,
    sample_elements,
    validate_element,
)
from scatter_calc.ordinal import from_int
from scatter_calc.terms import CHECKED_LIMIT, InvalidElement


def lookalikes(term, elem):
    """Fresh objects built from a valid element of term: equal to it where
    Python allows, and mostly refused by term."""
    if isinstance(term, Fin):
        return [float(elem)] + ([bool(elem)] if elem in (0, 1) else [])
    if isinstance(term, Ord):
        return [elem.as_int()] if elem.is_finite() else []
    if isinstance(term, Rev):
        return lookalikes(term.inner, elem)
    if isinstance(term, Shuffle):
        return [list(elem)] + [elem[:j] + (x.as_int(),) + elem[j + 1:]
                               for j, x in enumerate(elem) if x.is_finite()]
    if isinstance(term, (SumList, Scaled)):
        first, second = ((Fin(len(term.children)), term.children[elem[0]])
                         if isinstance(term, SumList) else (term.index, term.inner))
        return ([list(elem)]
                + [(a, elem[1]) for a in lookalikes(first, elem[0])]
                + [(elem[0], a) for a in lookalikes(second, elem[1])])
    assert isinstance(term, FinSupp)
    out = [list(elem), tuple(list(entry) for entry in elem)]
    for i, (p, v) in enumerate(elem):
        out += [elem[:i] + ((p, a),) + elem[i + 1:] for a in lookalikes(term.inner, v)]
    if not term.length.is_zero():   # position 0 mapped to the designated zero
        kept = elem[:-1] if elem and elem[-1][0].is_zero() else elem
        out.append(kept + ((from_int(0), term.zero),))
    return out


def outcome(compare, term, x, y):
    try:
        return compare(term, x, y)
    except Exception as exc:   # the type and message must match the reference
        return type(exc), str(exc)


@pytest.mark.parametrize("text", CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT)
def test_compare_elements_matches_reference_with_lookalikes(text):
    term = parse_term(text)
    for seed in range(4):
        # a pool past CHECKED_LIMIT makes the memo clear mid-sequence
        pool = sample_elements(term, 48 if seed < 2 else 100, seed)
        rng = random.Random(seed)
        for _ in range(150):
            x, y = rng.choice(pool), rng.choice(pool)
            twin = rng.choice(lookalikes(term, x) + [None, copy.deepcopy(x)])
            for u, v in [(x, y), (twin, y), (y, twin), (twin, twin)]:
                want = outcome(reference_compare_elements, term, u, v)
                assert outcome(compare_elements, term, u, v) == want, (text, u, v)


def test_lookalikes_after_their_twins_are_refused():
    fin3, sums = Fin(3), parse_term("sum[fin(2), fin(2)]")
    support = parse_term("finsupp(w, fin(2), 0)")
    one = ((from_int(1), 1),)
    cases = [(fin3, 1, True), (fin3, 1, 1.0), (fin3, 0, False), (fin3, 0, None),
             (sums, (0, 1), (False, 1)), (sums, (1, 0), [1, 0]),
             (support, one, ((from_int(1), True),)),
             (support, one, ((from_int(1), 1), (from_int(0), 0))),
             (support, one, ([from_int(1), 1],))]
    for term, valid, alike in cases:
        assert compare_elements(term, valid, valid) == 0
        with pytest.raises(InvalidElement, match="is not an element of"):
            compare_elements(term, alike, valid)
        with pytest.raises(InvalidElement, match="is not an element of"):
            compare_elements(term, valid, alike)


def test_finsupp_supports_with_list_entries_are_refused():
    # a list entry could change after a check and the memo would still vouch
    # for it, so only a tuple of 2-tuples is an element
    term = parse_term("finsupp(w, fin(2), 0)")
    entry = [from_int(2), 1]
    for elem in [(entry,), ((from_int(3), 1), entry), [(from_int(2), 1)],
                 ((from_int(2), 1, 0),), ((from_int(2),),)]:
        assert validate_element(term, elem) is False
        with pytest.raises(InvalidElement, match="is not an element of"):
            compare_elements(term, elem, ())
        with pytest.raises(InvalidElement, match="is not an element of"):
            compare_elements(term, (), elem)


def test_a_dropped_element_does_not_vouch_for_a_new_one_at_its_id():
    term = parse_term("sum[fin(2), fin(2)]")
    anchor = (0, 0)
    for i in range(300):
        good = tuple([i % 2, 1])
        assert compare_elements(term, good, anchor) == 1
        del good
        bad = tuple([2, 1])   # child 2 does not exist; often at good's old id
        with pytest.raises(InvalidElement):
            compare_elements(term, bad, anchor)


def test_memo_stays_bounded_and_keeps_nothing_alive():
    term = parse_term("finsupp(w^3, fin(2), 0)")
    # an element is a tuple, which takes no weak reference, so its reference
    # count shows the memo holding it and letting it go
    elem = ((from_int(0), 1),)
    before = sys.getrefcount(elem)
    compare_elements(term, elem, ())
    assert sys.getrefcount(elem) == before + 1   # held while the memo remembers it
    for i in range(1, 3 * CHECKED_LIMIT):
        compare_elements(term, ((from_int(i), 1),), ())
        assert len(term._checked) <= CHECKED_LIMIT
    assert sys.getrefcount(elem) == before
    # the memo makes no cycle: a fresh term dies with its last reference
    gc.disable()
    try:
        fresh = parse_term("sum[finsupp(w^4 + 3, fin(7), 5), fin(11)]")
        compare_elements(fresh, (1, 2), (0, ()))
        assert fresh._checked
        term_ref = weakref.ref(fresh)
        del fresh
        assert term_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("text", ["ord(w^3 * 2 + 7)", "scaled(shuffle(w), fin(5))",
                                  "sum[finsupp(w^2 + 1, fin(3), 0), rev(ord(w^2))]"])
def test_a_sample_and_its_compares_key_each_pool_element_once(text):
    term = parse_term(text)
    term._checked.clear()   # interned terms share one memo across tests
    kernel, keyed = term._key, []

    def counting(elem):
        keyed.append(elem)   # kept alive, so no two keyed elements share an id
        return kernel(elem)

    object.__setattr__(term, "_key", counting)
    try:
        sample = sample_elements(term, CHECKED_LIMIT // 2, 3)
        pooled = len(keyed)
        orders = [[compare_elements(term, x, y) for y in sample] for x in sample]
    finally:
        object.__setattr__(term, "_key", kernel)
    assert len(sample) == CHECKED_LIMIT // 2 and pooled > len(sample)
    assert len(keyed) == pooled == len({id(elem) for elem in keyed})
    assert orders == [[(i > j) - (i < j) for j in range(len(sample))]
                      for i in range(len(sample))]
