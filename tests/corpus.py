"""Fixed regression corpus shared by the unit and acceptance suites."""

import itertools

from scatter_calc import parse_term
from scatter_calc.ordinal import omega_power, parse_ordinal

# 30 terms covering every constructor, nesting depth <= 4.
CORPUS_TEXT = [
    "fin(1)",
    "fin(3)",
    "fin(7)",
    "ord(w)",
    "ord(w^2)",
    "ord(w^3 + w*2 + 1)",
    "ord(w^w)",
    "ord(w^(w + 1)*2 + w^2*3)",
    "rev(ord(w))",
    "rev(ord(w^2 + 1))",
    "rev(fin(5))",
    "sum[fin(2), ord(w), rev(ord(w))]",
    "sum[ord(w^2), rev(ord(w^2))]",
    "sum[fin(1), fin(2), fin(3)]",
    "scaled(ord(w), fin(2))",
    "scaled(fin(2), rev(fin(2)))",
    "scaled(ord(w), rev(ord(w)))",
    "scaled(rev(ord(w)), ord(w^2))",
    "scaled(scaled(ord(w), ord(w)), ord(w))",
    "scaled(sum[ord(w), rev(ord(w))], fin(3))",
    "shuffle(2)",
    "shuffle(w)",
    "shuffle(w^2)",
    "finsupp(w, fin(2), 0)",
    "finsupp(w^2, fin(3), 1)",
    "finsupp(3, fin(2), 0)",
    'finsupp(w, rev(ord(w)), "0")',
    "pow(fin(2), 3)",
    "rev(scaled(ord(w), fin(2)))",
    "rev(sum[fin(2), scaled(ord(w), fin(2))])",
]

# Composite terms for the decomposition-avoidance sweep.  Every realized
# label here is at least 5, so the size-4^i finite approximants exceed any
# 200-point sample.
COMPOSITE_TEXT = [
    "scaled(ord(w^2), fin(2))",
    "scaled(ord(w), rev(ord(w)))",
    "scaled(ord(w), ord(w))",
    "sum[scaled(ord(w^2), fin(2)), scaled(ord(w^3), fin(2))]",
    "scaled(ord(w^3), rev(ord(w)))",
    "scaled(rev(ord(w^2)), ord(w^2))",
    "scaled(scaled(ord(w), ord(w)), ord(w))",
    "sum[scaled(ord(w), ord(w)), scaled(rev(ord(w)), rev(ord(w)))]",
    "scaled(ord(w^2), rev(ord(w^3)))",
    "scaled(sum[ord(w^2), rev(ord(w^2))], fin(3))",
]


def corpus_terms():
    return [parse_term(text) for text in CORPUS_TEXT]


def composite_terms():
    return [parse_term(text) for text in COMPOSITE_TEXT]


def bound_corpus():
    """The ordinals of acceptance criterion 4: one, two and three CNF terms."""
    exponents = [parse_ordinal(t) for t in [
        "0", "1", "2", "w", "w + 1", "w + 2", "w*2", "w*2 + 1", "w*3",
        "w^2", "w^2 + 1", "w^2 + w", "w^2 + w*2 + 2", "w^2*2", "w^2*2 + w",
        "w^2*3 + w*3 + 1",
    ]]
    corpus = []
    for e1 in exponents:
        for c1 in (1, 2, 3):
            corpus.append(omega_power(e1, c1))
    for i, e1 in enumerate(exponents):
        for e2 in exponents[:i]:
            corpus.append(omega_power(e1, 2) + omega_power(e2, 3))
    triples = list(itertools.combinations(exponents, 3))[:60]
    for e1, e2, e3 in triples:
        corpus.append(omega_power(e3, 1) + omega_power(e2, 2) + omega_power(e1, 3))
    return corpus
