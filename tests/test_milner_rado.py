"""Unit tests for the decomposition labelling and its symbolic bounds."""

import sys
import time

import pytest

from corpus import COMPOSITE_TEXT, bound_corpus, composite_terms, corpus_terms
from oracles import (
    reference_bound_within_power,
    reference_down_up_power,
    reference_ks_omega_check,
    reference_label_ordinal,
    reference_label_within_power,
)

from scatter_calc import decode_element, parse_term, sample_elements
from scatter_calc import milner_rado
from scatter_calc.milner_rado import (
    ElementOutOfRange,
    UnsupportedConstructor,
    cantor1,
    ks_omega_check,
    mr_class_type_bound,
    mr_label_ordinal,
    mr_label_term,
    mr_label_term_trace,
    mr_labeling,
)
from scatter_calc.ordinal import (
    OMEGA,
    ZERO,
    from_int,
    omega_power,
    ord_add,
    ord_compare,
    ord_mul,
    ord_pow,
    parse_ordinal,
)
from scatter_calc.terms import Fin, FinSupp, Shuffle

W = OMEGA


def o(text):
    return parse_ordinal(text)


def check_pairing(pi, bound):
    """Pointwise check of injectivity and the m+n+1 lower bound on [0, bound)^2."""
    seen = {}
    for m in range(bound):
        for n in range(bound):
            v = pi(m, n)
            if v < m + n + 1 or seen.setdefault(v, (m, n)) != (m, n):
                return False
    return True


def test_pairing_contract():
    assert check_pairing(cantor1, 12)
    assert not check_pairing(lambda m, n: m + n + 1, 12)        # not injective
    assert not check_pairing(lambda m, n: cantor1(m, n) - 1, 12)  # pi(0, 0) = 0
    assert cantor1(0, 1) == 3
    assert cantor1(1, 1) == 5
    assert cantor1(0, 0) == 1


# -- ordinal labels -----------------------------------------------------------

def test_label_examples():
    assert mr_label_ordinal(5, 3) == 0
    for xi in range(6):
        assert mr_label_ordinal(W, xi) == 1
    alpha = o("w^2 + 3")
    assert mr_label_ordinal(alpha, o("w^2 + 1")) == 0
    assert mr_label_ordinal(alpha, o("w*4 + 2")) == 2
    with pytest.raises(ElementOutOfRange):
        mr_label_ordinal(5, 7)


def test_label_constant_on_pure_powers():
    for k in range(1, 5):
        alpha = ord_pow(W, k)
        for xi in sample_elements(parse_term(f"ord(w^{k})"), 15, 2):
            assert mr_label_ordinal(alpha, xi) == k


def test_label_limit_exponent():
    alpha = o("w^w")
    # labels are 2 + (least i with xi < w^(i+1))
    assert mr_label_ordinal(alpha, ZERO) == 2
    assert mr_label_ordinal(alpha, o("5")) == 2
    assert mr_label_ordinal(alpha, o("w*3 + 1")) == 3
    assert mr_label_ordinal(alpha, o("w^2")) == 4
    assert mr_label_ordinal(alpha, o("w^5 + w^2*2")) == 7


def test_bound_examples():
    assert mr_class_type_bound(5, 0) == from_int(5)
    assert mr_class_type_bound(W, 1) == W
    assert ord_compare(mr_class_type_bound(ord_pow(W, 3), 2), ord_pow(W, 2)) <= 0
    assert mr_class_type_bound(ord_pow(W, 3), 3) == ord_pow(W, 3)


def test_bound_matches_exact_class_types_small():
    # w^2: label is constantly 2, class 2 has type w^2 exactly
    assert mr_class_type_bound(ord_pow(W, 2), 2) == ord_pow(W, 2)
    assert mr_class_type_bound(ord_pow(W, 2), 1) == ZERO
    # w*2 + 3: class 1 = two omega-blocks, class 0 = finite tail
    alpha = o("w*2 + 3")
    assert mr_class_type_bound(alpha, 1) == o("w*2")
    assert mr_class_type_bound(alpha, 0) == from_int(3)


def test_class_merge_stays_below_next_power():
    # two classes bounded below w^(n+1) merge to one still below it
    samples = ["0", "5", "w", "w*3 + 2", "w^2", "w^2*2 + w", "w^3 + w^2*3"]
    for n in range(1, 5):
        cap = omega_power(from_int(n + 1))
        for x in samples:
            for y in samples:
                bx, by = o(x), o(y)
                if ord_compare(bx, cap) < 0 and ord_compare(by, cap) < 0:
                    assert ord_compare(ord_add(bx, by), cap) < 0


def test_bound_strictly_below_next_power():
    corpus = []
    exponents = ["0", "1", "2", "w", "w + 1", "w*2", "w^2", "w^2 + w", "w^2*2"]
    for e1 in exponents:
        for c1 in (1, 3):
            corpus.append(ord_mul(omega_power(o(e1)), c1))
    for alpha in corpus:
        for n in range(8):
            bound = mr_class_type_bound(alpha, n)
            assert ord_compare(bound, omega_power(from_int(n + 1))) < 0


# -- term labels -----------------------------------------------------------------

def test_term_label_examples():
    t = parse_term("scaled(ord(w), fin(2))")
    for elem in sample_elements(t, 10, 1):
        assert mr_label_term(t, elem) == 3          # pi(0, 1)
    t2 = parse_term("scaled(ord(w), rev(ord(w)))")
    for elem in sample_elements(t2, 10, 1):
        assert mr_label_term(t2, elem) == 5         # pi(1, 1)
    assert mr_label_term(Fin(7), 3) == 0


def test_term_label_compositionality():
    # label = pi(index label, inner label) pointwise on scaled terms
    t = parse_term("scaled(ord(w^2), rev(ord(w^3)))")
    for ie, pe in sample_elements(t, 20, 7):
        m = mr_label_ordinal(ord_pow(W, 3), ie)
        n = mr_label_ordinal(ord_pow(W, 2), pe)
        assert mr_label_term(t, (ie, pe)) == cantor1(m, n)


def test_term_label_trace():
    t = parse_term("scaled(ord(w), fin(2))")
    label, trace = mr_label_term_trace(t, (0, from_int(4)))
    assert label == 3
    assert trace == [(0, 1, 3)]


def test_term_label_unsupported():
    with pytest.raises(UnsupportedConstructor):
        mr_label_term(parse_term("shuffle(w)"), ())
    with pytest.raises(UnsupportedConstructor):
        mr_label_term(parse_term("rev(shuffle(w))"), ())


def test_reversed_terms_keep_label_and_chain():
    for text in COMPOSITE_TEXT + ["sum[fin(2), scaled(ord(w), fin(2))]"]:
        term, reversed_term = parse_term(text), parse_term(f"rev({text})")
        for elem in sample_elements(reversed_term, 25, 11):
            assert mr_label_term_trace(reversed_term, elem) == mr_label_term_trace(term, elem)


def test_the_fragment_is_every_corpus_term_but_shuffle_and_finsupp():
    labelled = []
    for term in corpus_terms():
        try:
            for elem in sample_elements(term, 10, 4):
                mr_label_term(term, elem)
            labelled.append(term)
        except UnsupportedConstructor:
            assert isinstance(term, (Shuffle, FinSupp))
    assert len(labelled) == 23


def block_cases():
    """(alpha, xi, class indices) on the criterion-4 corpus, on exponents
    below 900 and on fundamental-sequence indices below 900, where the
    recursive reference still fits the stack."""
    cases = []
    for index, alpha in enumerate(a for a in bound_corpus() if not a.is_zero()):
        cases.append((alpha, sample_elements(parse_term(f"ord({alpha})"), 12, 900 + index),
                      range(12)))
    for e in list(range(0, 900, 61)) + [898, 899]:
        for text in (f"w^{e}*2", f"w^(w + {e}) + w^{e}*3", f"w^(w^2*2 + {e})"):
            alpha = o(text)
            cases.append((alpha, sample_elements(parse_term(f"ord({alpha})"), 6, e),
                          {0, 1, 2, e // 2, e, e + 1, e + 2, e + 3}))
    # below w^k, the limit exponent w descends at index k of its sequence
    ks = list(range(0, 900, 37)) + [898, 899]
    for text in ("w^w", "w^(w^2)", "w^(w + 1)"):
        cases.append((o(text), [o(f"w^{k}{tail}") for k in ks
                                for tail in ("", f"*3 + w^{k // 2} + 1")], range(4)))
    return cases


def test_labels_and_bounds_match_the_recursive_references(monkeypatch):
    cases = block_cases()
    assert sum(len(xis) for _, xis, _ in cases) > 1000

    def run():
        return ([mr_label_ordinal(alpha, xi) for alpha, xis, _ in cases for xi in xis],
                [mr_class_type_bound(alpha, n) for alpha, _, ns in cases for n in ns])

    labels, bounds = run()
    monkeypatch.setattr(milner_rado, "_label_within_power", reference_label_within_power)
    monkeypatch.setattr(milner_rado, "_bound_within_power", reference_bound_within_power)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3000))   # the references recurse once per step
    try:
        assert run() == (labels, bounds)
    finally:
        sys.setrecursionlimit(limit)
    assert max(labels) >= 899 and o("w^901") in bounds


def test_labels_match_the_block_walk_reference():
    pairs = 0
    for index, alpha in enumerate(a for a in bound_corpus() if not a.is_zero()):
        for xi in sample_elements(parse_term(f"ord({alpha})"), 25, 900 + index):
            expected = reference_label_ordinal(alpha, xi, milner_rado._label_within_power)
            assert mr_label_ordinal(alpha, xi) == expected
            pairs += 1
    assert pairs > 4000


def test_deep_exponents_are_labelled_and_bounded_at_once():
    alpha = o("w^5000")
    assert mr_label_ordinal(alpha, ZERO) == 5000
    assert mr_label_ordinal(alpha, o("w^4999*3 + w^7")) == 5000
    assert mr_class_type_bound(alpha, 5000) == alpha
    assert mr_class_type_bound(alpha, 4999) == ZERO
    assert mr_class_type_bound(o("w^(w + 5000)"), 6000) == o("w^6000")
    start = time.perf_counter()
    huge = o("w^1000000000")
    assert mr_class_type_bound(huge, 10 ** 9) == huge
    assert mr_class_type_bound(huge, 10 ** 9 - 1) == ZERO
    assert mr_label_ordinal(huge, o("w^999999999*7 + w^5")) == 10 ** 9
    assert time.perf_counter() - start < 0.1


def test_a_large_index_is_found_at_once():
    term = parse_term("ord(w^w)")
    start = time.perf_counter()
    assert mr_label_term(term, decode_element(term, "w^10000000")) == 10000002
    assert time.perf_counter() - start < 1
    assert mr_label_ordinal(o("w^w"), o("w^899")) == 901


def test_composite_corpus_labels_at_least_five():
    for term in composite_terms():
        for elem in sample_elements(term, 25, 3):
            assert mr_label_term(term, elem) >= 5


# -- subset avoidance check ----------------------------------------------------------

def test_down_up_pattern_sizes():
    assert reference_down_up_power(0).finite_size == 1
    assert reference_down_up_power(1).finite_size == 4
    assert reference_down_up_power(3).finite_size == 64


def test_ks_omega_check_matches_the_pattern_search():
    for n in range(6):
        sizes = list(range(301)) + [4 ** n - 1, 4 ** n, 4 ** n + 1]
        for size in sizes:
            classes = {n: list(range(size)), n + 1: [0]}
            assert ks_omega_check(classes, n) is reference_ks_omega_check(classes, n), (n, size)
        assert ks_omega_check({}, n) is reference_ks_omega_check({}, n) is True


def test_ks_omega_check_passes_below_4_to_the_n_only():
    for n in (7, 127, 10 ** 9):   # 4^7 > 10^4, the largest sample budget
        assert ks_omega_check({n: list(range(10 ** 4))}, n) is True
    assert ks_omega_check({6: list(range(4 ** 6 - 1))}, 6) is True
    assert ks_omega_check({6: list(range(4 ** 6))}, 6) is False


@pytest.mark.parametrize("bad", [-1, True, 1.0, "1"])
def test_ks_omega_check_refuses_what_is_not_a_natural(bad):
    with pytest.raises(ValueError, match="class index must be a natural number"):
        ks_omega_check({1: [0]}, bad)


def test_ks_omega_check_examples():
    single = {1: ["a"]}
    assert ks_omega_check(single, 1) is True
    # 4-chain labelled 1: the 4-point down-up approximant embeds
    chain = {1: [0, 1, 2, 3]}
    assert ks_omega_check(chain, 1) is False
    # label-0 class must be empty to pass at n = 0
    assert ks_omega_check({0: [0]}, 0) is False
    assert ks_omega_check({3: [0]}, 0) is True


def test_ks_omega_check_on_labelled_term_samples():
    term = parse_term("scaled(ord(w), fin(2))")
    sample = sample_elements(term, 40, 5)
    classes = mr_labeling(term, sample)
    assert sum(len(members) for members in classes.values()) == len(sample)
    for label, members in classes.items():
        assert members == [e for e in sample if mr_label_term(term, e) == label]
    for n in range(6):
        assert ks_omega_check(classes, n) is True
