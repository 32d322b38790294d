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
from scatter_calc.terms import Fin, FinSupp, compare_elements

W = OMEGA
HOST = FinSupp(ord_pow(W, 2), Fin(3), 0)

POSITION_MENU = [parse_ordinal(t) for t in
                 ["0", "1", "2", "3", "7", "w", "w + 1", "w + 4", "w*2", "w*2 + 3", "w*5"]]


def random_fn(rng: random.Random) -> FinSuppFn:
    size = rng.randrange(4)
    positions = rng.sample(POSITION_MENU, size)
    return FinSuppFn.build(HOST, {p: rng.choice([1, 2]) for p in positions})


# -- delta-prime and the order ---------------------------------------------------

def test_delta_prime_examples():
    f = FinSuppFn.build(HOST, {2: 1})
    assert delta_prime(f, FinSuppFn.build(HOST, {})) == from_int(2)
    f2 = FinSuppFn.build(HOST, {3: 1, 1: 2})
    g2 = FinSuppFn.build(HOST, {3: 1, 0: 2})
    assert delta_prime(f2, g2) == from_int(1)
    with pytest.raises(EqualInputs):
        delta_prime(f, f)
    other = FinSupp(W, Fin(3), 0)
    with pytest.raises(HostMismatch):
        delta_prime(f, FinSuppFn.build(other, {}))


def test_delta_prime_matches_reference():
    # the second host's designated zero is 1, so its supports carry 0 and 2
    rng = random.Random(23)
    for host, values in [(HOST, [1, 2]), (FinSupp(ord_pow(W, 2), Fin(3), 1), [0, 2])]:
        for _ in range(300):
            f, g = (FinSuppFn.build(host, {p: rng.choice(values)
                                           for p in rng.sample(POSITION_MENU, rng.randrange(4))})
                    for _ in range(2))
            expected = reference_disagreement(host.inner, host.zero, f.elem, g.elem)
            if expected is None:
                with pytest.raises(EqualInputs):
                    delta_prime(f, g)
            else:
                assert delta_prime(f, g) == expected[0]


def test_compare_examples():
    z = FinSuppFn.build(HOST, {})
    g = FinSuppFn.build(HOST, {0: 1})
    assert compare_antilex(z, z) == 0
    assert compare_antilex(z, g) == -1
    assert compare_antilex(g, z) == 1


def test_compare_decided_at_delta_prime():
    rng = random.Random(11)
    for _ in range(300):
        f, g = random_fn(rng), random_fn(rng)
        if f.elem == g.elem:
            continue
        d = delta_prime(f, g)
        fd, gd = dict(f.elem.entries).get(d, 0), dict(g.elem.entries).get(d, 0)
        expected = compare_elements(Fin(3), fd, gd)
        assert compare_antilex(f, g) == expected


def test_compare_agrees_with_term_comparator():
    # round-trip coherence with the host-term comparator
    rng = random.Random(91)
    for _ in range(200):
        f, g = random_fn(rng), random_fn(rng)
        assert compare_antilex(f, g) == compare_elements(HOST, f.elem, g.elem)


def test_antilex_lemma_fixed_triples():
    a = FinSuppFn.build(HOST, {0: 1})
    b = FinSuppFn.build(HOST, {1: 1})
    c = FinSuppFn.build(HOST, {2: 1})
    assert check_antilex_lemma(a, b, c) is True
    assert delta_prime(a, c) == from_int(2)
    # degenerate: g shares f's support except one point
    f = FinSuppFn.build(HOST, {5: 1, 2: 1})
    g = FinSuppFn.build(HOST, {5: 1, 2: 2})
    h = FinSuppFn.build(HOST, {7: 1})
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
    zero = FinSuppFn.build(small, {})
    assert ks_embed(tree, zero, big).elem.entries == ()
    f = FinSuppFn.build(small, {0: 2})
    image = ks_embed(tree, f, big)
    assert image.elem.entries == ((from_int(9), 2),)
    with pytest.raises(TreeDomainMiss):
        ks_embed(AlphaTree(from_int(1), {}), f, big)


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
        return FinSuppFn.build(small, {from_int(p): rng.choice([1, 2])
                                       for p in positions})
    for _ in range(500):
        f, g = rand_small(), rand_small()
        c = compare_antilex(f, g)
        ci = compare_antilex(ks_embed(tree, f, big), ks_embed(tree, g, big))
        assert ci == c


def test_ks_embed_support_image_law():
    delta = 3
    small = FinSupp(from_int(delta), Fin(3), 0)
    big = FinSupp(from_int(9), Fin(3), 0)
    tree, _ = search_alpha_tree(lambda chain: 0, delta, 9, delta)
    f = FinSuppFn.build(small, {2: 1, 0: 2})
    image = ks_embed(tree, f, big)
    prefixes = [dec_seq([2]), dec_seq([2, 0])]
    expected = tuple(sorted((tree.entries[p] for p in prefixes),
                            key=lambda x: -x.as_int()))
    assert tuple(p for p, _ in image.elem.entries) == expected
    assert len(image.elem.entries) == len(f.elem.entries)


def test_induced_coloring_examples():
    host = FinSupp(from_int(8), Fin(3), 0)
    const = induced_seq_coloring(lambda f: 7, host, dec_seq([5, 2]), [0, 1, 2])
    assert set(const.values()) == {7}
    parity = induced_seq_coloring(lambda f: len(f.elem.entries) % 2, host,
                                  dec_seq([5, 2]), [0, 1, 2])
    for values, colour in parity.items():
        assert colour == sum(1 for v in values if v != 0) % 2
    empty = induced_seq_coloring(lambda f: 9, host, dec_seq([]), [0, 1, 2])
    assert empty == {(): 9}


def test_verify_color_collapse_and_negative_control():
    delta, mu = 2, 6
    small = FinSupp(from_int(delta), Fin(3), 0)
    big = FinSupp(from_int(mu), Fin(3), 0)
    alphabet = [0, 1, 2]

    def H(f):
        return len(f.elem.entries) % 2

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
                sample.append(FinSuppFn.build(
                    small, dict(zip(map(from_int, sorted(positions, reverse=True)), values))))
    ok, realized = verify_color_collapse(H, tree, colours, sample, big)
    assert ok is True
    assert realized <= {0, 1}
    # corrupt the level pattern: verification must fail
    corrupted = {level: {k: (v + 1) % 2 for k, v in p.items()}
                 for level, p in colours.items()}
    ok2, _ = verify_color_collapse(H, tree, corrupted, sample, big)
    assert ok2 is False


def test_missing_level_pattern_says_which_support_size():
    small, big = FinSupp(from_int(1), Fin(3), 0), FinSupp(from_int(12), Fin(3), 0)
    tree = AlphaTree(from_int(1), {dec_seq([0]): from_int(9)})
    f = FinSuppFn.build(small, {0: 2})
    with pytest.raises(FragmentIncomplete) as info:
        verify_color_collapse(lambda g: 0, tree, {}, [f], big)
    assert str(info.value) == "no level pattern for support size 1"
