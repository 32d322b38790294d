"""Differential tests of the sampler's draw path against the reference
sampler in oracles.py: the same ordinals from the same random draws, and
the same samples from a pool keyed by JSON text."""

import random

import pytest

from corpus import COMPOSITE_TEXT, CORPUS_TEXT
from oracles import element_key, reference_random_ordinal_below, reference_sample
from test_golden import EXTRA_TEXT

from scatter_calc import parse_term, sample_elements
from scatter_calc.ordinal import format_ordinal, parse_ordinal
from scatter_calc.terms import _random_ordinal_below

BOUNDS = ["1", "7", "w", "w^w", "w^(w + 1)*2 + w^2*3", "w^(w^2)"]


@pytest.mark.parametrize("bound", BOUNDS)
def test_random_ordinal_below_matches_reference(bound):
    a = parse_ordinal(bound)
    for seed in range(250):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):   # later draws start from the state the first left
            x = _random_ordinal_below(a, rng)
            y = reference_random_ordinal_below(a, reference)
            assert x == y and format_ordinal(x) == format_ordinal(y)
            assert x < a
            assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("text", CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT)
def test_sample_matches_reference_sampler(text):
    term = parse_term(text)
    for budget in (1, 5, 12, 48, 100):
        for seed in range(4):
            got = [element_key(term, e) for e in sample_elements(term, budget, seed)]
            want = [element_key(term, e) for e in reference_sample(term, budget, seed)]
            assert got == want, (budget, seed)
