"""Unit tests for colourings and the extraction recursions."""

import itertools
import random

import pytest

from scatter_calc.partition import (
    BadColouringDomain,
    Labeling,
    NonInjectiveTag,
    PairColoring,
    PartitionError,
    RealizerContractViolation,
    check_lex_power,
    extract_unary,
    find_homogeneous,
    lex_power_domain,
    make_unary_realizer,
    sierpinski_color,
    sierpinski_coloring,
    step_up_extract,
    trivial_pair_realizer,
)


# -- sierpinski colouring --------------------------------------------------------

def test_sierpinski_examples():
    assert sierpinski_color([0, 1], 0, 1) == 0
    assert sierpinski_color([7, 2], 0, 1) == 1


def test_sierpinski_rejects_non_injective():
    with pytest.raises(NonInjectiveTag):
        sierpinski_coloring([0, 1, 2], [1, 1, 2])


def test_sierpinski_blocking_exhaustive_small():
    # every 0-homogeneous subset is tag-increasing, every 1-homogeneous one
    # tag-decreasing; exhaustive over a 5-element domain with random tags
    rng = random.Random(3)
    for _ in range(5):
        tags = rng.sample(range(50), 5)
        col = sierpinski_coloring(list(range(5)), tags)
        for size in range(2, 6):
            for combo in itertools.combinations(range(5), size):
                colours = {col.colour(i, j) for i, j in itertools.combinations(combo, 2)}
                if colours == {0}:
                    assert all(tags[a] < tags[b]
                               for a, b in itertools.combinations(combo, 2))
                if colours == {1}:
                    assert all(tags[a] > tags[b]
                               for a, b in itertools.combinations(combo, 2))


# -- brute-force homogeneous search ------------------------------------------------

def test_find_homogeneous_examples():
    col = PairColoring.from_function([0, 1, 2], 2, lambda i, j: 0)
    assert find_homogeneous(col, 3, 0) == (0, 1, 2)
    # tag-increasing 4-chain: no 1-homogeneous pair at all
    chain = sierpinski_coloring(list(range(4)), [0, 1, 2, 3])
    assert find_homogeneous(chain, 2, 1) is None
    with pytest.raises(ValueError):
        find_homogeneous(col, 4, 0)


def test_find_homogeneous_least_witness():
    def fn(i, j):
        return 1 if (i, j) in {(1, 2), (1, 3), (2, 3)} else 0
    col = PairColoring.from_function(list(range(4)), 2, fn)
    assert find_homogeneous(col, 3, 1) == (1, 2, 3)


def test_pair_coloring_json_roundtrip():
    col = PairColoring.from_function([0, 1, 2], 3, lambda i, j: (i + j) % 3)
    again = PairColoring.from_json(col.to_json())
    assert again.table == col.table


def test_pair_coloring_totality_check():
    with pytest.raises(BadColouringDomain):
        PairColoring([0, 1, 2], 2, {(0, 1): 0}).validate()


# -- extract_unary ---------------------------------------------------------------------

def verify_unary(P, nu, F, witness, colour):
    assert len(witness) == len(P)
    assert len(set(witness)) == len(P)
    for g in witness:
        assert len(g) == nu and all(x in P for x in g)
        assert F(g) == colour
    assert witness == sorted(witness, key=lambda g: [P.index(x) for x in g])


def test_extract_unary_single_colour():
    w, c = extract_unary([0, 1], 1, lambda g: 0)
    assert (w, c) == ([(0,), (1,)], 0)


def test_extract_unary_first_coordinate():
    w, c = extract_unary([0, 1], 2, lambda g: g[0])
    verify_unary([0, 1], 2, lambda g: g[0], w, c)
    assert c == 1 and w == [(1, 0), (1, 1)]


def test_extract_unary_exhaustive_3_2():
    P = [0, 1, 2]
    domain = lex_power_domain(P, 2)
    for bits in range(2 ** 9):
        table = {g: (bits >> i) & 1 for i, g in enumerate(domain)}
        F = table.__getitem__
        witness, colour = extract_unary(P, 2, F)
        verify_unary(P, 2, F, witness, colour)


def test_extract_unary_rejects_partial_colouring():
    with pytest.raises(BadColouringDomain):
        extract_unary([0, 1], 2, lambda g: {(0, 0): 0}[g])
    with pytest.raises(BadColouringDomain):
        extract_unary([0, 1], 2, lambda g: 5)


# -- step_up_extract ----------------------------------------------------------------------

def setup_step_up(p=4, n=2):
    P = list(range(p))
    R = lex_power_domain(P, p - 1)
    return P, R, make_unary_realizer(P, p - 1), trivial_pair_realizer(p)


def test_unary_realizer_needs_exactly_the_ascending_power():
    P, R, unary, _ = setup_step_up(p=3)
    colour = lambda t: 0
    witness, c = unary(R, 1, colour)
    assert c == 0 and witness
    assert unary(iter(R), 1, colour) == (witness, c)
    for bad in [R[:-1], R + [R[0]], R[::-1], [list(t) for t in R], [], R[:4] + [None] + R[5:]]:
        with pytest.raises(RealizerContractViolation, match="lexicographic power domain"):
            unary(bad, 1, colour)
    with pytest.raises(RealizerContractViolation, match="at most 2 colours"):
        unary(R, 3, colour)


def test_step_up_constant_zero():
    P, R, unary, pair = setup_step_up()
    res = step_up_extract(P, R, 2, lambda x, y: 0, unary, pair)
    assert res.side == "zero" and len(res.witness) == len(P)
    firsts = [a for a, _ in res.witness]
    assert firsts == P


def test_step_up_constant_one():
    P, R, unary, pair = setup_step_up()
    res = step_up_extract(P, R, 2, lambda x, y: 1, unary, pair)
    assert res.side == "one" and len(res.witness) == 3


def test_step_up_seeded_random_runs():
    P, R, unary, pair = setup_step_up()
    pair_index = {}
    for a in P:
        for b in R:
            pair_index[(a, b)] = len(pair_index)
    rng = random.Random(101)
    for _ in range(25):
        seed = rng.randrange(1 << 30)
        cache = {}

        def colour(x, y, seed=seed, cache=cache):
            key = (pair_index[x], pair_index[y]) if pair_index[x] < pair_index[y] \
                else (pair_index[y], pair_index[x])
            if key not in cache:
                cache[key] = random.Random(f"{seed}:{key}").randrange(2)
            return cache[key]

        res = step_up_extract(P, R, 2, colour, unary, pair)
        expected = 0 if res.side == "zero" else 1
        for x, y in itertools.combinations(res.witness, 2):
            assert colour(x, y) == expected
        if res.side == "zero":
            assert len(res.witness) == len(P)
        else:
            assert len(res.witness) == 3


def test_step_up_takes_only_a_callable_colour():
    P, R, unary, pair = setup_step_up(p=2)
    table = PairColoring.from_function([(a, b) for a in P for b in R], 2, lambda i, j: 0)
    for colour in (table, {}, 0):
        with pytest.raises(BadColouringDomain):
            step_up_extract(P, R, 2, colour, unary, pair)


def test_lex_power_limit_admits_p7_and_refuses_p8_before_building():
    assert len(lex_power_domain(range(7), 6)) == 7 ** 6
    with pytest.raises(PartitionError):
        lex_power_domain(range(8), 7)
    # one tuple of a billion entries, and a power far too large to compute
    for base_size, nu in [(1, 10 ** 9), (10 ** 30, 10 ** 30)]:
        with pytest.raises(PartitionError):
            check_lex_power(base_size, nu)
    check_lex_power(10 ** 9, 0)


def test_step_up_surfaces_realizer_violations():
    P, R, unary, pair = setup_step_up()

    def broken_unary(pool, colours, g):
        return [pool[1], pool[0]], 0   # descending: violates the order contract

    def always_one(x, y):
        return 1

    with pytest.raises(RealizerContractViolation):
        step_up_extract(P, R, 2, always_one, broken_unary, pair)


def test_labeling_classes():
    lab = Labeling([10, 20, 30], [0, 2, 0])
    lab.validate()
    assert lab.class_indices(0) == [0, 2]
    assert lab.realized_labels() == [0, 2]
