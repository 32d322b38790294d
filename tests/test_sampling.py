"""Differential tests of the sampler's draw kernels against the reference
sampler in oracles.py: the same draws from the same random stream, one
draw at a time, and the same samples from a pool keyed by JSON text."""

import random
import time

import pytest

from corpus import COMPOSITE_TEXT, CORPUS_TEXT
from oracles import (element_key, reference_random_element, reference_random_ordinal_below,
                     reference_sample)
from test_golden import EXTRA_TEXT

from scatter_calc import Ord, parse_term, sample_elements
from scatter_calc.ordinal import ZERO, CnfOrdinal, format_ordinal, from_int, parse_ordinal
from scatter_calc.terms import TermError, _below

# one bound per branch of the kernel's one closure: naturals, w^e with e = 1
# and e > 1, one term with a coefficient, several terms with and without
# coefficient 1; the last tower is tall enough for draws to reach the
# recursion's depth cap
BOUNDS = ["1", "7", "w", "w^2", "w*2", "w + 1", "w^w", "w^w*3 + w", "w^(w + 1)*2 + w^2*3",
          "w^(w^2)", "w^(w^(w^(w^(w^w))))"]
# w whose exponent 1 is not from_int's shared object: the compiler compares by key
OMEGA_UNSHARED = CnfOrdinal(((CnfOrdinal(((ZERO, 1),)), 1),))
ALL_TEXT = CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT


def _twins(seed):
    return random.Random(seed), random.Random(seed)


def test_below_follows_randrange_and_choice():
    # the kernels read getrandbits through _below on CPython's randrange rule;
    # if a Python release changes the rule, this test names it
    for n in range(1, 1101):
        width, items = n.bit_length(), list(range(n))
        for seed in range(n % 7, 40, 7):
            rng, reference = _twins(seed)
            bits = rng.getrandbits
            for _ in range(3):
                assert _below(bits, n, width) == reference.randrange(n)
                assert 1 + _below(bits, 4, 3) == reference.randrange(1, 5)
                assert _below(bits, 8, 4) == reference.randrange(0, 8)
                assert _below(bits, 4, 3) == reference.randrange(0, 4)
                assert items[_below(bits, n, width)] == reference.choice(items)
            assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("a", [parse_ordinal(text) for text in BOUNDS] + [OMEGA_UNSHARED],
                         ids=BOUNDS + ["w-unshared"])
def test_random_ordinal_below_matches_reference(a):
    draw = Ord(a)._draw
    for seed in range(250):
        rng, reference = _twins(seed)
        for _ in range(3):   # later draws start from the state the first left
            x = draw(rng)
            y = reference_random_ordinal_below(a, reference)
            assert x == y and format_ordinal(x) == format_ordinal(y)
            assert x < a
            assert rng.getstate() == reference.getstate()
            if x.is_finite():
                assert x is from_int(x.as_int())


@pytest.mark.parametrize("text", ALL_TEXT)
def test_each_kernel_draw_matches_the_reference_draw(text):
    term = parse_term(text)
    draw = term._draw
    for seed in range(200):
        rng, reference = _twins(seed)
        for _ in range(3):
            x, y = draw(rng), reference_random_element(term, reference)
            assert x == y and element_key(term, x) == element_key(term, y), seed
            assert rng.getstate() == reference.getstate(), seed


@pytest.mark.parametrize("text", ALL_TEXT)
def test_sample_matches_reference_sampler(text):
    term = parse_term(text)
    for budget in (1, 5, 12, 48, 100):
        for seed in range(4):
            got = [element_key(term, e) for e in sample_elements(term, budget, seed)]
            want = [element_key(term, e) for e in reference_sample(term, budget, seed)]
            assert got == want, (budget, seed)


EMPTY_SUBTERM_TEXT = [
    "sum[fin(0), ord(w)]",
    "sum[ord(0), ord(w)]",
    "sum[ord(w^2), rev(fin(0)), fin(3)]",
    "sum[scaled(ord(w), fin(0)), rev(ord(w))]",
    "scaled(sum[fin(0), ord(w)], fin(2))",
]


@pytest.mark.parametrize("text", EMPTY_SUBTERM_TEXT)
def test_sums_with_empty_children_sample_their_other_children(text):
    term = parse_term(text)
    draw = term._draw
    for seed in range(50):
        rng, reference = _twins(seed)
        for _ in range(3):
            x = draw(rng)
            assert x == reference_random_element(term, reference) and term.validate(x)
            assert rng.getstate() == reference.getstate()
    for budget in (1, 12, 48):
        for seed in range(3):
            got = [element_key(term, e) for e in sample_elements(term, budget, seed)]
            assert got == [element_key(term, e) for e in reference_sample(term, budget, seed)]
            assert len(got) == budget


@pytest.mark.parametrize("text", ["scaled(ord(w), fin(0))", "scaled(fin(0), ord(w))",
                                  "scaled(shuffle(2), rev(ord(0)))", "rev(fin(0))", "ord(0)"])
def test_empty_terms_sample_to_nothing(text):
    term = parse_term(text)
    assert term.finite and term.finite_size == 0 and term.materialize() == []
    assert term.well_ordered and term.anti_well_ordered
    assert term.empty and term._draw is None
    assert sample_elements(term, 12, 0) == []


@pytest.mark.parametrize("budget, seed", [(2.5, 0), (True, 0), (12, None), (12, 1.0), (12, False)])
def test_sample_refuses_a_budget_or_seed_that_is_not_an_int(budget, seed):
    with pytest.raises(TermError, match="must be an int"):
        sample_elements(parse_term("ord(w)"), budget, seed)


@pytest.mark.parametrize("text", ALL_TEXT)
def test_canonical_witnesses_are_capped(text):
    term = parse_term(text)
    for want in (1, 5, 12, 48):
        assert len(term.canonical(want)) <= max(want, 8), want


def test_a_deep_power_samples_at_once():
    # each scaled level keeps at most max(want, 8) canonical witnesses, so
    # the witnesses of a 2^64-point power stay few
    term = parse_term("pow(fin(2), 64)")
    start = time.perf_counter()
    got = sample_elements(term, 10, 0)
    assert time.perf_counter() - start < 0.1
    assert len(got) == 10 and all(term.validate(x) for x in got)
    assert all(term._key(x) < term._key(y) for x, y in zip(got, got[1:]))
