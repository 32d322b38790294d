"""Unit tests for finite-support sums, value trees and the chain embedding."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_disagreement, reference_validate_alpha_tree
from scatter_calc.antilex import (
    AlphaTree,
    EqualInputs,
    FinSuppFn,
    FragmentIncomplete,
    HostMismatch,
    NotSorted,
    TreeDomainMiss,
    UnsupportedHost,
    check_antilex_lemma,
    compare_antilex,
    dec_seq,
    delta_prime,
    induced_seq_coloring,
    ks_embed,
    search_alpha_tree,
    validate_alpha_tree,
    verify_color_collapse,
)
from scatter_calc.ordinal import OMEGA, from_int, ord_pow, parse_ordinal
from scatter_calc.terms import (Fin, FinSupp, InvalidElement, compare_elements, finsupp_elem,
                                parse_term)

W = OMEGA
HOST = FinSupp(ord_pow(W, 2), Fin(3), 0)

POSITION_MENU = [parse_ordinal(t) for t in
                 ["0", "1", "2", "3", "7", "w", "w + 1", "w + 4", "w*2", "w*2 + 3", "w*5"]]


def random_elem(rng: random.Random) -> tuple:
    size = rng.randrange(4)
    positions = rng.sample(POSITION_MENU, size)
    return finsupp_elem({p: rng.choice([1, 2]) for p in positions})


def random_fn(rng: random.Random) -> FinSuppFn:
    return FinSuppFn(HOST, random_elem(rng))


def fn(host, mapping) -> FinSuppFn:
    return FinSuppFn(host, finsupp_elem(mapping))


# -- delta-prime and the order ---------------------------------------------------

def test_delta_prime_examples():
    f = finsupp_elem({2: 1})
    assert delta_prime(HOST, f, ()) == from_int(2)
    f2 = finsupp_elem({3: 1, 1: 2})
    g2 = finsupp_elem({3: 1, 0: 2})
    assert delta_prime(HOST, f2, g2) == from_int(1)
    with pytest.raises(EqualInputs):
        delta_prime(HOST, f, f)
    # a support at w^2 and one mapping to the zero are not elements of HOST
    for bad in (finsupp_elem({ord_pow(W, 2): 1}), ((from_int(2), 0),), [(from_int(2), 1)]):
        with pytest.raises(InvalidElement):
            delta_prime(HOST, bad, f)
        with pytest.raises(InvalidElement):
            delta_prime(HOST, f, bad)


def test_delta_prime_matches_reference():
    # the second host's designated zero is 1, so its supports carry 0 and 2
    rng = random.Random(23)
    for host, values in [(HOST, [1, 2]), (FinSupp(ord_pow(W, 2), Fin(3), 1), [0, 2])]:
        for _ in range(300):
            f, g = (finsupp_elem({p: rng.choice(values)
                                  for p in rng.sample(POSITION_MENU, rng.randrange(4))})
                    for _ in range(2))
            expected = reference_disagreement(host.inner, host.zero, f, g)
            if expected is None:
                with pytest.raises(EqualInputs):
                    delta_prime(host, f, g)
            else:
                assert delta_prime(host, f, g) == expected[0]


def test_compare_examples():
    z = fn(HOST, {})
    g = fn(HOST, {0: 1})
    assert compare_antilex(z, z) == 0
    assert compare_antilex(z, g) == -1
    assert compare_antilex(g, z) == 1


def test_compare_decided_at_delta_prime():
    rng = random.Random(11)
    for _ in range(300):
        f, g = random_fn(rng), random_fn(rng)
        if f.elem == g.elem:
            continue
        d = delta_prime(HOST, f.elem, g.elem)
        fd, gd = dict(f.elem).get(d, 0), dict(g.elem).get(d, 0)
        expected = compare_elements(Fin(3), fd, gd)
        assert compare_antilex(f, g) == expected


def test_compare_agrees_with_term_comparator():
    # round-trip coherence with the host-term comparator
    rng = random.Random(91)
    for _ in range(200):
        f, g = random_fn(rng), random_fn(rng)
        assert compare_antilex(f, g) == compare_elements(HOST, f.elem, g.elem)


def test_antilex_lemma_fixed_triples():
    a = fn(HOST, {0: 1})
    b = fn(HOST, {1: 1})
    c = fn(HOST, {2: 1})
    assert check_antilex_lemma(a, b, c) is True
    assert delta_prime(HOST, a.elem, c.elem) == from_int(2)
    # degenerate: g shares f's support except one point
    f = fn(HOST, {5: 1, 2: 1})
    g = fn(HOST, {5: 1, 2: 2})
    h = fn(HOST, {7: 1})
    assert check_antilex_lemma(f, g, h) is True
    with pytest.raises(NotSorted):
        check_antilex_lemma(c, b, a)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_antilex_lemma_random(seed):
    import functools
    rng = random.Random(seed)
    fns = [random_fn(rng) for _ in range(3)]
    if len({f.elem for f in fns}) < 3:
        return
    fns.sort(key=functools.cmp_to_key(compare_antilex))
    assert check_antilex_lemma(*fns) is True


# -- value trees ----------------------------------------------------------------------

def test_validate_tree_examples():
    ok = AlphaTree(from_int(3), {dec_seq([0]): from_int(5)})
    assert validate_alpha_tree(ok) is None
    bad = AlphaTree(from_int(3), {dec_seq([1]): from_int(5),
                                  dec_seq([1, 0]): from_int(7)})
    witness = validate_alpha_tree(bad)
    assert witness is not None and witness[0] == "child-not-below-parent"
    siblings = AlphaTree(from_int(3), {dec_seq([0]): from_int(5),
                                       dec_seq([1]): from_int(4)})
    witness = validate_alpha_tree(siblings)
    assert witness == ("siblings-not-increasing", dec_seq([0]), dec_seq([1]))
    equal = AlphaTree(from_int(3), {dec_seq([2]): from_int(4), dec_seq([0]): from_int(4)})
    assert validate_alpha_tree(equal) == ("siblings-not-increasing", dec_seq([0]), dec_seq([2]))


def test_validate_tree_matches_the_pairwise_reference():
    # values shrink with depth, so most parents sit above their children and
    # the sibling check is reached; small value ranges make equal siblings
    rng = random.Random(29)
    universe = [s for n in range(1, 4) for s in itertools.combinations(range(4, -1, -1), n)]
    kinds = set()
    for _ in range(3000):
        seqs = rng.sample(universe, rng.randrange(1, 9))
        if rng.random() < 0.02:
            seqs.append(())
        alpha = from_int(4 if rng.random() < 0.05 else 5)
        tree = AlphaTree(alpha, {
            dec_seq(s): from_int(rng.randrange(3) + 3 * (3 - len(s)) + rng.choice([0, 0, 0, 3]))
            for s in seqs})
        got, want = validate_alpha_tree(tree), reference_validate_alpha_tree(tree)
        assert (got is None) == (want is None)
        if got is None:
            continue
        kinds.add(got[0])
        assert got[0] == want[0]
        if got[0] != "siblings-not-increasing":
            assert got == want
            continue
        low, high = got[1], got[2]
        assert low[:-1] == high[:-1]
        assert low[-1] < high[-1]
        assert tree.entries[low] >= tree.entries[high]
    assert kinds == {"empty-sequence", "entry-above-alpha", "child-not-below-parent",
                     "siblings-not-increasing"}


def test_validate_tree_with_4000_siblings_is_fast():
    tree = AlphaTree(from_int(4000), {dec_seq([i]): from_int(i) for i in range(4000)})
    start = time.perf_counter()
    assert validate_alpha_tree(tree) is None
    assert time.perf_counter() - start < 1.0


def test_dec_seq_rejects_increase():
    with pytest.raises(Exception):
        dec_seq([0, 1])


def test_validate_tree_refuses_a_node_that_does_not_decrease():
    # a library caller keys the tree by plain tuples, which dec_seq does not check
    for node in [(from_int(0), from_int(1)), (from_int(1), from_int(1)),
                 (from_int(2), from_int(0), from_int(1))]:
        tree = AlphaTree(from_int(3), {node: from_int(0)})
        assert validate_alpha_tree(tree) == ("sequence-not-decreasing", node)
        assert reference_validate_alpha_tree(tree) == ("sequence-not-decreasing", node)
    rising = (from_int(0), from_int(1))
    tree = AlphaTree(from_int(3), {(from_int(0),): from_int(5), rising: from_int(1)})
    assert validate_alpha_tree(tree) == ("sequence-not-decreasing", rising)


def test_search_alpha_tree_constant():
    found = search_alpha_tree(lambda chain: 0, 2, 4, 2)
    assert found is not None
    tree, colours = found
    assert validate_alpha_tree(tree) is None
    assert set(colours.values()) == {0}


def test_search_alpha_tree_length_oracle():
    found = search_alpha_tree(lambda chain: len(chain), 2, 6, 2)
    assert found is not None
    tree, colours = found
    assert colours == {0: 1, 1: 2}
    assert validate_alpha_tree(tree) is None


def test_search_alpha_tree_exhaustive_none():
    # delta=2, level_bound=2 needs three strictly related values; with
    # mu_range=1 there is no admissible assignment
    assert search_alpha_tree(lambda chain: 0, 2, 1, 2) is None


def test_search_alpha_tree_adversarial_none():
    # colouring by the last tree value: level 0 would need x(<0>) = x(<1>),
    # which sibling monotonicity forbids; the search must refute exhaustively
    assert search_alpha_tree(lambda chain: chain[-1], 2, 6, 1) is None


def test_search_returns_least_witness():
    tree, _ = search_alpha_tree(lambda chain: 0, 2, 4, 2)
    values = {tuple(x.as_int() for x in seq): val.as_int()
              for seq, val in tree.entries.items()}
    # nodes in assignment order: (0,), (1,), (1,0); least admissible values
    assert values == {(0,): 0, (1,): 1, (1, 0): 0}


# -- embedding and collapse ---------------------------------------------------------

def test_ks_embed_examples():
    small = FinSupp(from_int(1), Fin(3), 0)
    big = FinSupp(from_int(12), Fin(3), 0)
    tree = AlphaTree(from_int(1), {dec_seq([0]): from_int(9)})
    assert ks_embed(tree, small, (), big) == ()
    f = finsupp_elem({0: 2})
    assert ks_embed(tree, small, f, big) == ((from_int(9), 2),)
    with pytest.raises(TreeDomainMiss):
        ks_embed(AlphaTree(from_int(1), {}), small, f, big)
    with pytest.raises(HostMismatch):
        ks_embed(tree, small, f, FinSupp(from_int(12), Fin(3), 1))


def test_ks_embed_refuses_an_image_outside_the_target():
    # a tree value past the target's length, and an incoherent tree that
    # sends a support's two positions to one value or to increasing values
    small = FinSupp(from_int(2), Fin(3), 0)
    big = FinSupp(from_int(9), Fin(3), 0)
    f = finsupp_elem({1: 1, 0: 2})
    for one, two in [(9, 5), (5, 5), (5, 6)]:
        tree = AlphaTree(from_int(2), {dec_seq([1]): from_int(one),
                                       dec_seq([1, 0]): from_int(two)})
        with pytest.raises(InvalidElement, match="is not an element of finsupp"):
            ks_embed(tree, small, f, big)


def test_ks_embed_order_preserved():
    delta = 3
    small = FinSupp(from_int(delta), Fin(3), 0)
    big = FinSupp(from_int(9), Fin(3), 0)
    found = search_alpha_tree(lambda chain: 0, delta, 9, delta)
    assert found is not None
    tree, _ = found
    rng = random.Random(23)
    def rand_small():
        size = rng.randrange(delta + 1)
        positions = rng.sample(range(delta), size)
        return finsupp_elem({from_int(p): rng.choice([1, 2]) for p in positions})
    for _ in range(500):
        f, g = rand_small(), rand_small()
        c = compare_elements(small, f, g)
        ci = compare_elements(big, ks_embed(tree, small, f, big), ks_embed(tree, small, g, big))
        assert ci == c


def test_ks_embed_support_image_law():
    delta = 3
    small = FinSupp(from_int(delta), Fin(3), 0)
    big = FinSupp(from_int(9), Fin(3), 0)
    tree, _ = search_alpha_tree(lambda chain: 0, delta, 9, delta)
    f = finsupp_elem({2: 1, 0: 2})
    image = ks_embed(tree, small, f, big)
    prefixes = [dec_seq([2]), dec_seq([2, 0])]
    expected = tuple(sorted((tree.entries[p] for p in prefixes),
                            key=lambda x: -x.as_int()))
    assert tuple(p for p, _ in image) == expected
    assert len(image) == len(f)


def test_induced_coloring_examples():
    host = FinSupp(from_int(8), Fin(3), 0)
    const = induced_seq_coloring(lambda f: 7, host, dec_seq([5, 2]), [0, 1, 2])
    assert set(const.values()) == {7}
    parity = induced_seq_coloring(lambda f: len(f) % 2, host,
                                  dec_seq([5, 2]), [0, 1, 2])
    for values, colour in parity.items():
        assert colour == sum(1 for v in values if v != 0) % 2
    empty = induced_seq_coloring(lambda f: 9, host, dec_seq([]), [0, 1, 2])
    assert empty == {(): 9}


def test_induced_coloring_refuses_a_position_or_letter_outside_the_host():
    # a refusal, not a colouring: H is never asked about a point that is
    # not an element of the host
    host = FinSupp(from_int(8), Fin(3), 0)
    asked = []
    for seq, alphabet in [(dec_seq([8, 2]), [0, 1]), (dec_seq([9]), [1]),
                          (dec_seq([5, 2]), [0, 3]), (dec_seq([5]), [1, True]),
                          ((from_int(2), from_int(5)), [1]), ((5, 2), [1])]:
        with pytest.raises(InvalidElement, match="is not an element of finsupp"):
            induced_seq_coloring(asked.append, host, seq, alphabet)
    assert asked == []


NOT_A_HOST = [Fin(3), parse_term("sum[fin(2), ord(w)]"), None]


@pytest.mark.parametrize("host", NOT_A_HOST, ids=repr)
def test_each_entry_point_refuses_a_host_that_is_not_finsupp(host):
    # each refusal names the role of the host it refuses
    small = FinSupp(from_int(1), Fin(3), 0)
    tree = AlphaTree(from_int(1), {dec_seq([0]): from_int(0)})
    calls = [
        (lambda: FinSuppFn(host, ()), "host"),
        (lambda: delta_prime(host, 0, 1), "host"),
        (lambda: induced_seq_coloring(lambda f: 0, host, dec_seq([0]), [0, 1]), "host"),
        (lambda: ks_embed(tree, host, (), small), "source host"),
        (lambda: ks_embed(tree, small, (), host), "target host"),
    ]
    for call, role in calls:
        with pytest.raises(UnsupportedHost, match=f"^{role} must be a finite-support term$"):
            call()


def test_verify_color_collapse_and_negative_control():
    delta, mu = 2, 6
    small = FinSupp(from_int(delta), Fin(3), 0)
    big = FinSupp(from_int(mu), Fin(3), 0)
    alphabet = [0, 1, 2]

    def H(f):
        return len(f) % 2

    cache = {}
    def F(chain):
        if chain not in cache:
            cache[chain] = induced_seq_coloring(H, big, dec_seq(chain), alphabet)
        return cache[chain]

    found = search_alpha_tree(F, delta, mu, delta)
    assert found is not None
    tree, colours = found
    sample = []
    for size in range(delta + 1):
        for positions in itertools.combinations(range(delta), size):
            for values in itertools.product([1, 2], repeat=size):
                sample.append(finsupp_elem(
                    dict(zip(map(from_int, sorted(positions, reverse=True)), values))))
    ok, realized = verify_color_collapse(H, tree, colours, small, sample, big)
    assert ok is True
    assert realized <= {0, 1}
    # corrupt the level pattern: verification must fail
    corrupted = {level: {k: (v + 1) % 2 for k, v in p.items()}
                 for level, p in colours.items()}
    ok2, _ = verify_color_collapse(H, tree, corrupted, small, sample, big)
    assert ok2 is False


def test_missing_level_pattern_says_which_support_size():
    small, big = FinSupp(from_int(1), Fin(3), 0), FinSupp(from_int(12), Fin(3), 0)
    tree = AlphaTree(from_int(1), {dec_seq([0]): from_int(9)})
    f = finsupp_elem({0: 2})
    with pytest.raises(FragmentIncomplete) as info:
        verify_color_collapse(lambda g: 0, tree, {}, small, [f], big)
    assert str(info.value) == "no level pattern for support size 1"
