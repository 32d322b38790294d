"""Unit tests for the order-term algebra, parser and comparators."""

import copy
import itertools
import pickle
import random
import time
import weakref

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from corpus import COMPOSITE_TEXT, CORPUS_TEXT, corpus_terms
from oracles import (
    element_key,
    eta_embedding,
    reference_admissible_index,
    reference_anti_well_ordered,
    reference_cmp,
    reference_depth,
    reference_finite_size,
    reference_well_ordered,
    textbook_materialize,
)
from test_golden import EXTRA_TEXT
from test_sampling import EMPTY_SUBTERM_TEXT

from scatter_calc import (
    Fin,
    FinSupp,
    Ord,
    Rev,
    ScatterCalcError,
    Scaled,
    Shuffle,
    SumList,
    compare_elements,
    decode_element,
    encode_element,
    finsupp_elem,
    materialize,
    parse_term,
    pow_term,
    sample_elements,
    search_embedding,
    validate_element,
)
from scatter_calc.ordinal import (TERM_DEPTH_LIMIT, OMEGA, OrdinalError, from_int,
                                  ord_pow, parse_ordinal)
from scatter_calc.terms import (
    InvalidElement,
    InvalidIndexTerm,
    PatternNotFinite,
    TermError,
    TermSyntaxError,
    OrderTerm,
    SIZE_LIMIT,
    TermTooDeep,
)

W = OMEGA


# -- parser and text form ----------------------------------------------------------

def test_parse_examples():
    assert parse_term("scaled(ord(w), fin(2))") == Scaled(Ord(W), Fin(2))
    assert parse_term("rev(ord(w^2))") == Rev(Ord(ord_pow(W, 2)))
    t = parse_term("scaled(shuffle(w), ord(w))")
    assert t == Scaled(Shuffle(W), Ord(W))


def test_parse_format_roundtrip_corpus():
    for term in corpus_terms():
        assert parse_term(term.format()) == term


def test_parse_rejects_non_bl_index():
    with pytest.raises(InvalidIndexTerm):
        parse_term("scaled(ord(w), shuffle(w))")
    with pytest.raises(InvalidIndexTerm):
        parse_term("scaled(fin(2), finsupp(w, fin(2), 0))")


def test_parse_error_positions():
    for bad in ["fin(x)", "sum[]", "scaled(fin(2))", "ord(w", "unknown(3)", "fin(3) junk"]:
        with pytest.raises(TermSyntaxError):
            parse_term(bad)


def test_ordinal_errors_inside_terms_have_absolute_positions():
    for bad, position in [("ord(w^)", 6), ("shuffle(w +)", 11), ("finsupp(w*, fin(2), 0)", 10)]:
        with pytest.raises(TermSyntaxError) as err:
            parse_term(bad)
        assert err.value.position == position


def test_term_depth_limit():
    with pytest.raises(TermSyntaxError):
        parse_term("rev(" * 3000 + "fin(1)" + ")" * 3000)
    with pytest.raises(TermTooDeep):
        pow_term(Fin(2), 5000)
    with pytest.raises(TermTooDeep):
        parse_term(f"pow(pow(fin(2), {TERM_DEPTH_LIMIT}), 2)")
    assert parse_term(f"pow(fin(2), {TERM_DEPTH_LIMIT})").finite_size == 2 ** TERM_DEPTH_LIMIT


LONG_LITERAL = "9" * 4301   # one digit past Python's default int-to-text limit
PARSER_TOKENS = ["fin", "ord", "rev", "sum", "scaled", "shuffle", "finsupp", "pow", "(", ")",
                 "[", "]", ",", "w", "^", "*", "+", "0", "1", "7", " ", "\n", '"', "{", "}",
                 ":", "-", "x", "²", "٣", LONG_LITERAL]
parser_texts = (st.lists(st.sampled_from(PARSER_TOKENS), max_size=12).map("".join)
                | st.text(max_size=12))
DECODE_TERMS = [parse_term(t) for t in (
    "fin(3)", "ord(w^2)", "rev(ord(w))", "sum[fin(2), ord(w)]", "scaled(ord(w), fin(2))",
    "shuffle(w)", "finsupp(w, fin(3), 0)")]
json_data = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | parser_texts,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["i", "e", "supp", "pos"]), kids, max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(parser_texts, st.sampled_from(DECODE_TERMS), json_data)
@example(f"fin({LONG_LITERAL})", Ord(W), LONG_LITERAL)
@example(f"finsupp(w, fin(3), {LONG_LITERAL})", Shuffle(W), [f"w^{LONG_LITERAL}"])
@example("finsupp(w, fin(3), " + "[" * 100_000, DECODE_TERMS[-1],
         {"supp": [{"pos": "²", "e": 1}]})
def test_parsers_raise_only_library_errors(text, term, data):
    # each call returns a value or raises ScatterCalcError; anything else fails here
    for parse in (parse_term, parse_ordinal):
        try:
            parse(text)
        except ScatterCalcError:
            pass
    try:
        decode_element(term, data)
    except ScatterCalcError:
        pass


def test_finite_powers_are_admissible_indices():
    # finite order types count as admissible indices regardless of shape
    pattern = pow_term(parse_term("scaled(fin(2), rev(fin(2)))"), 3)
    assert pattern.finite_size == 64
    index = parse_term("scaled(fin(2), rev(fin(2)))")
    assert index.well_ordered and index.anti_well_ordered


# -- interned nodes and their facts ------------------------------------------------

SMALL_ORDINALS = [from_int(n) for n in range(4)] + [W, W + 1, W * 2, ord_pow(W, 2)]


@st.composite
def order_terms(draw, depth=3):
    """Terms of every constructor, pow() included, so subterms are shared."""
    kinds = ["fin", "ord", "shuffle"]
    if depth > 0:
        kinds += ["rev", "sum", "scaled", "finsupp", "pow"]
    kind = draw(st.sampled_from(kinds))
    if kind == "fin":
        return Fin(draw(st.integers(0, 3)))
    if kind == "ord":
        return Ord(draw(st.sampled_from(SMALL_ORDINALS)))
    if kind == "shuffle":
        return Shuffle(draw(st.sampled_from(SMALL_ORDINALS[2:])))
    sub = order_terms(depth - 1)
    if kind == "rev":
        return Rev(draw(sub))
    if kind == "sum":
        return SumList(tuple(draw(st.lists(sub, min_size=1, max_size=3))))
    if kind == "scaled":
        return Scaled(draw(sub), draw(sub.filter(reference_admissible_index)))
    if kind == "pow":
        return pow_term(draw(sub.filter(reference_admissible_index)), draw(st.integers(0, 3)))
    inner = draw(sub)
    zeros = inner.canonical(4)
    assume(zeros)
    return FinSupp(draw(st.sampled_from(SMALL_ORDINALS)), inner, draw(st.sampled_from(zeros)))


@settings(max_examples=400, deadline=None)
@given(order_terms())
def test_node_facts_match_tree_walks(term):
    size = reference_finite_size(term)
    assert term.finite_size == size
    assert term.finite == (size is not None)
    assert term.depth == reference_depth(term)
    assert term.well_ordered == reference_well_ordered(term)
    assert term.anti_well_ordered == reference_anti_well_ordered(term)
    assert term.empty == (size == 0)
    twin = parse_term(term.format())
    assert twin is term and hash(twin) == hash(term)


def test_a_size_past_the_limit_reads_the_limit_plus_one():
    huge = parse_term("finsupp(100000, fin(3), 0)")   # 3^100000 has 47713 digits
    nest = "pow(" * 120 + "fin(2)" + ", 2)" * 120     # 2^(2^120) points
    for term in (huge, SumList((huge, huge)), parse_term(nest)):
        assert term.finite_size == SIZE_LIMIT + 1
    assert parse_term("pow(fin(2), 128)").finite_size == 2 ** 128
    # a clamped size still counts as finite and non-empty
    assert huge.finite and not huge.empty and huge.well_ordered


def test_sampling_a_huge_finite_support_power_stops_counting():
    # 3^10000000 has 4.8M digits; counting it exactly takes seconds
    start = time.perf_counter()
    term = parse_term("finsupp(10000000, fin(3), 0)")
    sample = sample_elements(term, 5)
    wide = parse_term('finsupp(w, finsupp(10000000, fin(3), 0), {"supp": []})')
    elapsed = time.perf_counter() - start
    assert len(sample) == 5
    assert all(compare_elements(term, x, y) < 0 for x, y in zip(sample, sample[1:]))
    assert not wide.finite and term.finite_size == SIZE_LIMIT + 1
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    assert parse_term("finsupp(40, fin(3), 0)").finite_size == 3 ** 40


@settings(max_examples=200, deadline=None)
@given(order_terms(2), order_terms(2))
def test_scaled_admits_exactly_the_reference_indices(inner, index):
    if reference_admissible_index(index):
        assert Scaled(inner, index).index is index
    else:
        with pytest.raises(InvalidIndexTerm):
            Scaled(inner, index)


def test_separately_parsed_equal_terms_are_one_object():
    for text in CORPUS_TEXT + COMPOSITE_TEXT:
        a, b = parse_term(text), parse_term(text)
        assert a is b and hash(a) == hash(b)
        assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
    assert Fin(3) is Fin(3) and Fin(3) != Fin(4) and Fin(2) != Ord(from_int(2))
    assert parse_term("sum[fin(2), ord(w)]").children[0] is Fin(2)
    assert parse_term("finsupp(w, fin(2), 0)") is not parse_term("finsupp(w, fin(2), 1)")
    with pytest.raises(AttributeError):
        Fin(3).size = 4


def _nodes(term, seen):
    """term and every node below it, each once."""
    if term not in seen:
        seen[term] = None
        for name in term.fields:
            value = getattr(term, name)
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, OrderTerm):
                    _nodes(child, seen)
    return seen


@pytest.mark.parametrize("text", CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT + EMPTY_SUBTERM_TEXT)
def test_nodes_are_complete_when_interned(text, monkeypatch):
    # a fresh intern table, so every node of the term is built here
    monkeypatch.setattr(OrderTerm, "_table", weakref.WeakValueDictionary())
    nodes = _nodes(parse_term(text), {})
    assert set(nodes) <= set(OrderTerm._table.values())
    for node in nodes:
        slots = {name for cls in type(node).__mro__ for name in getattr(cls, "__slots__", ())}
        slots.discard("__weakref__")   # every other slot is set at interning
        assert all(hasattr(node, name) for name in slots), node
        assert node._checked == {}
        assert (node._draw is None) == node.empty
        if not node.empty:
            elem = node._draw(random.Random(0))
            assert node.validate(elem) and type(node._key(elem)) is tuple


@pytest.mark.parametrize("text", ["finsupp(0, ord(w), 0)", "finsupp(0, shuffle(2), [])",
                                  "finsupp(0, rev(ord(w)), 0)", "finsupp(w, fin(1), 0)"])
def test_a_finsupp_with_only_the_empty_support_is_one_point(text):
    # a length of 0 or a one-point inner order leaves only the empty
    # support, whether or not the other is infinite
    term = parse_term(text)
    assert term.finite_size == 1 and term.well_ordered and term.anti_well_ordered
    assert term.materialize() == [()] and sample_elements(term, 5) == [()]
    assert parse_term(f"scaled(ord(w), {text})").index is term


def test_deep_pow_nest_is_linear_to_parse():
    # 120 nested squarings share every subterm; walked as a tree they would
    # take 2^120 steps, and the finite size, which has 2^120 bits, is
    # stored clamped, so each level multiplies two bounded sizes
    text = "pow(" * 120 + "fin(2)" + ", 2)" * 120
    start = time.perf_counter()
    term = parse_term(text)
    elapsed = time.perf_counter() - start
    assert parse_term(text) is term
    assert term.depth == 121 and term.finite and term.well_ordered
    assert elapsed < 0.05


# -- validation ----------------------------------------------------------------------

def test_validate_examples():
    assert validate_element(Fin(3), 2) is True
    assert validate_element(Fin(3), 3) is False
    shuffle = Shuffle(W)
    assert validate_element(shuffle, tuple(map(from_int, (5, 0, 2)))) is True
    assert validate_element(shuffle, (from_int(1), 2)) is False


def test_validate_finsupp():
    host = parse_term("finsupp(w, fin(2), 0)")
    assert validate_element(host, finsupp_elem({3: 1})) is True
    assert validate_element(host, finsupp_elem({3: 0})) is False     # maps to zero
    assert validate_element(host, 3) is False


# -- comparators -----------------------------------------------------------------------

def test_compare_examples():
    t = Scaled(Ord(W), Fin(2))
    assert compare_elements(t, (0, from_int(5)), (1, from_int(0))) == -1
    assert compare_elements(Rev(Ord(W)), from_int(3), from_int(5)) == 1
    anti = Scaled(Ord(W), Rev(Ord(W)))
    assert compare_elements(anti, (from_int(4), from_int(0)),
                            (from_int(3), from_int(100))) == -1


def test_compare_anti_index_against_truncation():
    # materialize a finite truncation of w*(w reversed): indices 9..0, inner 0..5
    anti = Scaled(Ord(W), Rev(Ord(W)))
    elems = [(from_int(i), from_int(j)) for i in range(10) for j in range(6)]
    expected = sorted(elems, key=lambda e: (-e[0].as_int(), e[1].as_int()))
    assert sorted(elems, key=anti._key) == expected


def test_compare_invalid_element():
    with pytest.raises(InvalidElement):
        compare_elements(Fin(2), 0, 5)


def test_compare_rejects_entries_at_the_bound():
    # each element sits exactly at its term's bound, so only a strict
    # key comparison in validate_element rejects it
    cases = [
        (Ord(W), W, from_int(3)),
        (Shuffle(W), (from_int(1), W), (from_int(1),)),
        (parse_term("finsupp(w, fin(2), 0)"), ((W, 1),), ()),
    ]
    for term, bad, good in cases:
        assert validate_element(term, good)
        with pytest.raises(InvalidElement):
            compare_elements(term, bad, good)
        with pytest.raises(InvalidElement):
            compare_elements(term, good, bad)


def test_finsupp_elem_rejects_non_decreasing_positions():
    # a tuple holds any support; the term's validation refuses it
    host = parse_term("finsupp(w*2, fin(2), 0)")
    for positions in [(from_int(1), from_int(2)), (from_int(2), from_int(2)),
                      (from_int(3), W), (2, 1)]:
        elem = tuple((p, 1) for p in positions)
        assert validate_element(host, elem) is False
        with pytest.raises(InvalidElement):
            compare_elements(host, elem, ())


def test_cmp_matches_reference_on_corpus_pools():
    # the corpus includes finsupp(w^2, fin(3), 1), whose designated zero is 1
    for t_index, term in enumerate(corpus_terms()):
        pool = sample_elements(term, 48, 2000 + t_index)
        for x in pool:
            for y in pool:
                kx, ky = term._key(x), term._key(y)
                assert (kx > ky) - (kx < ky) == reference_cmp(term, x, y), (term.format(), x, y)


def test_shuffle_examples():
    zero, one = from_int(0), from_int(1)
    shuffle = Shuffle(W)
    assert compare_elements(shuffle, (), ()) == 0
    assert compare_elements(shuffle, (one,), (zero,)) == -1          # <1> below <0>
    assert compare_elements(shuffle, (zero,), (zero, zero)) == -1    # odd split, prefix below
    with pytest.raises(InvalidElement):
        compare_elements(Shuffle(from_int(2)), (from_int(5),), (zero,))
    with pytest.raises(InvalidElement):
        compare_elements(shuffle, (zero,), (one, W))    # an entry equal to the alphabet


def test_shuffle_brute_force_total_order():
    # all sequences of length <= 2 over {0,1,2}: comparator must sort them totally
    seqs = [()]
    for length in (1, 2):
        seqs.extend(itertools.product([from_int(i) for i in range(3)], repeat=length))
    seqs = [tuple(s) for s in seqs]
    shuffle = Shuffle(from_int(3))
    for s, t in itertools.combinations(seqs, 2):
        cst, cts = compare_elements(shuffle, s, t), compare_elements(shuffle, t, s)
        assert cst in (-1, 1) and cts == -cst
    for s, t, u in itertools.permutations(seqs, 3):
        if compare_elements(shuffle, s, t) < 0 and compare_elements(shuffle, t, u) < 0:
            assert compare_elements(shuffle, s, u) < 0


@pytest.mark.parametrize("alphabet", ["2", "w"])
def test_shuffle_contains_eta(alphabet):
    # the tree images rise strictly and the depth-9 one refines the depth-8
    # one, so the recursion embeds the dyadic rationals: shuffle is not scattered
    shuffle = Shuffle(parse_ordinal(alphabet))
    d8, d9 = eta_embedding(8), eta_embedding(9)
    for image in (d8, d9):
        assert all(compare_elements(shuffle, x, y) == -1 for x, y in zip(image, image[1:]))
    assert len(d8) == 255 and d9[1::2] == d8


def test_shuffle_descending_first_level():
    # each one-letter sequence sits below the empty sequence, and they descend
    k = 4
    shuffle = Shuffle(from_int(k))
    empty = ()
    prev = None
    for j in range(k):
        s = (from_int(j),)
        assert compare_elements(shuffle, s, empty) == -1
        if prev is not None:
            assert compare_elements(shuffle, s, prev) == -1
        prev = s


def test_reverse_term_flips_and_involutes():
    t = Scaled(Ord(W), Fin(2))
    rng = random.Random(5)
    sample = sample_elements(t, 30, 9)
    rt = Rev(t)
    for _ in range(10_000):
        x, y = rng.choice(sample), rng.choice(sample)
        assert compare_elements(rt, x, y) == -compare_elements(t, x, y)


# -- finite-denotation oracle -------------------------------------------------------

def test_materialize_matches_textbook_oracle():
    for term in corpus_terms():
        size = term.finite_size
        if size is None or size > 8:
            continue
        expected = textbook_materialize(term)
        assert materialize(term) == expected
        # comparator sort of the same elements reproduces the textbook order
        shuffled = list(expected)
        random.Random(1).shuffle(shuffled)
        assert sorted(shuffled, key=term._key) == expected


def test_finsupp_binary_is_binary_counting():
    host = parse_term("finsupp(3, fin(2), 0)")
    elems = materialize(host)
    assert len(elems) == 8
    def as_int(e):
        return sum(1 << p.as_int() for p, v in e)
    assert [as_int(e) for e in elems] == list(range(8))


# -- sampling -------------------------------------------------------------------------

def test_sample_examples():
    assert sample_elements(Fin(3), 10, 0) == [0, 1, 2]
    s = sample_elements(Ord(ord_pow(W, 2)), 6, 3)
    assert len(s) == 6
    assert s == sorted(s, key=Ord(ord_pow(W, 2))._key)
    sh = sample_elements(Shuffle(W), 20, 4)
    assert len(sh) == 20
    assert sh == sorted(sh, key=Shuffle(W)._key)


def test_sample_of_a_complete_finite_pool_makes_no_draws(monkeypatch):
    reads = []

    class CountingRandom(random.Random):
        """A random stream that records each read."""

        def getrandbits(self, k):
            reads.append(k)
            return super().getrandbits(k)

        def random(self):
            reads.append(None)
            return super().random()

    monkeypatch.setattr(random, "Random", CountingRandom)
    assert sample_elements(Fin(3), 48, 0) == [0, 1, 2]
    host = parse_term("finsupp(3, fin(2), 0)")
    assert sample_elements(host, 48, 0) == textbook_materialize(host)
    assert reads == []
    # an infinite term still tops its pool up with random draws
    sample_elements(parse_term("ord(w^2)"), 48, 0)
    assert reads


def test_sampling_below_w_constructs_no_ordinal(constructions):
    term = parse_term("ord(w)")
    constructions.clear()
    sample = sample_elements(term, 48, 0)
    assert len(sample) == 48 and constructions == []


def _infinite_nodes(x, seen):
    """The infinite ordinals in x's normal form, x included, not yet in seen."""
    if x.is_finite() or id(x) in seen:
        return 0
    seen.add(id(x))
    return 1 + sum(_infinite_nodes(exponent, seen) for exponent, _ in x.terms)


def test_finite_draws_are_shared_naturals(constructions):
    # an infinite draw constructs each infinite ordinal of its normal form
    # once, and none of the bound's, which it reuses
    for bound in ("7", "w", "w^2", "w*2", "w^w", "w^w*3 + w", "w^(w + 1)*2 + w^2*3",
                  "w^(w^(w + 1))"):
        a, rng = parse_ordinal(bound), random.Random(5)
        draw = Ord(a)._draw
        finite = 0
        for _ in range(600):
            before = len(constructions)
            x = draw(rng)
            if x.is_finite():
                finite += 1
                assert x is from_int(x.as_int()) and len(constructions) == before
            else:
                seen = set()
                _infinite_nodes(a, seen)
                assert len(constructions) - before == _infinite_nodes(x, seen) > 0
        assert finite > 10


def test_sample_deterministic_and_valid():
    for term in corpus_terms():
        a = sample_elements(term, 17, 11)
        b = sample_elements(term, 17, 11)
        assert [element_key(term, x) for x in a] == [element_key(term, x) for x in b]
        for elem in a:
            assert validate_element(term, elem)


# -- element encodings ------------------------------------------------------------------

def test_encoding_roundtrip():
    for term in corpus_terms():
        for elem in sample_elements(term, 12, 3):
            data = encode_element(term, elem)
            assert decode_element(term, data) == elem


def test_decode_rejects_bad_shapes():
    with pytest.raises(InvalidElement):
        decode_element(Fin(3), "x")
    with pytest.raises(InvalidElement):
        decode_element(Fin(3), 7)
    with pytest.raises(InvalidElement):
        decode_element(parse_term("finsupp(w, fin(2), 0)"), {"supp": [{"pos": "0", "e": 0}]})


def test_decode_validates_a_nested_element_once(monkeypatch):
    # children decode with _decode, so only the boundary validates: one call
    # per node on the element's path, not one per node per level
    calls = []
    for cls in (Fin, SumList):
        def counted(self, elem, validate=cls.validate):
            calls.append(self)
            return validate(self, elem)
        monkeypatch.setattr(cls, "validate", counted)
    term, data = Fin(3), 2
    for _ in range(8):
        term, data = SumList((term, Fin(1))), {"i": 0, "e": data}
    assert encode_element(term, decode_element(term, data)) == data
    assert len(calls) == 9
    with pytest.raises(InvalidElement, match=r"for sum\[fin\(3\), fin\(1\)\]: decoded value"):
        decode_element(SumList((Fin(3), Fin(1))), {"i": 0, "e": 5})


def test_decode_rejects_booleans():
    cases = [
        (Fin(3), True),
        (Ord(W), True),
        (Ord(W), False),
        (parse_term("sum[fin(2), fin(2)]"), {"i": True, "e": 0}),
        (Shuffle(W), ["1", True]),
        (parse_term("finsupp(w, fin(2), 0)"), {"supp": [{"pos": True, "e": 1}]}),
    ]
    for term, data in cases:
        with pytest.raises(InvalidElement):
            decode_element(term, data)
    assert not validate_element(Fin(3), True)
    assert not validate_element(parse_term("sum[fin(2), fin(2)]"), (True, 0))
    with pytest.raises(InvalidElement):
        parse_term("finsupp(w, fin(2), true)")
    for bad in (True, False, 1.0):
        with pytest.raises(OrdinalError):
            from_int(bad)
        with pytest.raises(TermError):
            Fin(bad)
    with pytest.raises(OrdinalError):
        finsupp_elem({True: 1})


# -- pattern search ----------------------------------------------------------------------

def test_search_embedding_examples():
    assert search_embedding(Fin(2), [0]) is None
    found = search_embedding(Fin(3), [5, 6, 7, 8])
    assert found is not None and len(found) == 3
    pattern = pow_term(parse_term("scaled(fin(2), rev(fin(2)))"), 2)
    target = materialize(pattern)
    assert len(target) == 16
    assert search_embedding(pattern, target) is not None


def test_search_embedding_matches_brute_force():
    # tiny cases: exhaustive injection search agrees with the library verdict
    def brute(pattern_size, sample_size):
        sample = list(range(sample_size))
        for combo in itertools.combinations(sample, min(pattern_size, sample_size)):
            if len(combo) == pattern_size:
                return True
        return False
    for p in range(1, 5):
        for s in range(0, 5):
            lib = search_embedding(Fin(p), list(range(s))) is not None
            assert lib == brute(p, s)


def test_search_embedding_requires_finite_pattern():
    with pytest.raises(PatternNotFinite):
        search_embedding(Ord(W), [0, 1, 2])
