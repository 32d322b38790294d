"""Unit tests for colourings and the extraction recursions."""

import itertools
import random

import pytest

from scatter_calc import partition
from scatter_calc.partition import (
    BadColouringDomain,
    NonInjectiveTag,
    PartitionError,
    check_lex_power,
    extract_unary,
    find_homogeneous,
    sierpinski_coloring,
    step_up_extract,
)


# -- sierpinski colouring --------------------------------------------------------

def test_sierpinski_examples():
    assert sierpinski_coloring([0, 1])(0, 1) == 0
    assert sierpinski_coloring([7, 2])(0, 1) == 1
    assert sierpinski_coloring([7, 2])(1, 0) == 1
    with pytest.raises(PartitionError, match="two distinct points"):
        sierpinski_coloring([7, 2])(1, 1)


def test_sierpinski_rejects_non_injective():
    with pytest.raises(NonInjectiveTag):
        sierpinski_coloring([1, 1, 2])


def test_sierpinski_blocking_exhaustive_small():
    # every 0-homogeneous subset is tag-increasing, every 1-homogeneous one
    # tag-decreasing; exhaustive over a 5-element domain with random tags
    rng = random.Random(3)
    for _ in range(5):
        tags = rng.sample(range(50), 5)
        col = sierpinski_coloring(tags)
        for size in range(2, 6):
            for combo in itertools.combinations(range(5), size):
                colours = {col(i, j) for i, j in itertools.combinations(combo, 2)}
                if colours == {0}:
                    assert all(tags[a] < tags[b]
                               for a, b in itertools.combinations(combo, 2))
                if colours == {1}:
                    assert all(tags[a] > tags[b]
                               for a, b in itertools.combinations(combo, 2))


# -- brute-force homogeneous search ------------------------------------------------

def test_find_homogeneous_examples():
    asked = []

    def zero(i, j):
        asked.append((i, j))
        return 0

    assert find_homogeneous(3, zero, 3, 0) == (0, 1, 2)
    assert asked == [(0, 1), (0, 2), (1, 2)]   # each pair once
    # tag-increasing 4-chain: no 1-homogeneous pair at all
    chain = sierpinski_coloring([0, 1, 2, 3])
    assert find_homogeneous(4, chain, 2, 1) is None
    for k in (4, 0):
        with pytest.raises(ValueError):
            find_homogeneous(3, zero, k, 0)


def test_find_homogeneous_least_witness():
    def fn(i, j):
        return 1 if (i, j) in {(1, 2), (1, 3), (2, 3)} else 0
    assert find_homogeneous(4, fn, 3, 1) == (1, 2, 3)


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
    domain = list(itertools.product(P, repeat=2))
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

def setup_step_up(p=4):
    P = list(range(p))
    return P, list(itertools.product(P, repeat=p - 1))


def test_step_up_constant_zero():
    P, _ = setup_step_up()
    res = step_up_extract(P, lambda x, y: 0)
    assert res.side == "zero" and len(res.witness) == len(P)
    firsts = [a for a, _ in res.witness]
    assert firsts == P


def test_step_up_constant_one():
    P, _ = setup_step_up()
    res = step_up_extract(P, lambda x, y: 1)
    assert res.side == "one" and len(res.witness) == 3


def test_step_up_seeded_random_runs():
    P, R = setup_step_up()
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

        res = step_up_extract(P, colour)
        expected = 0 if res.side == "zero" else 1
        for x, y in itertools.combinations(res.witness, 2):
            assert colour(x, y) == expected
        if res.side == "zero":
            assert len(res.witness) == len(P)
        else:
            assert len(res.witness) == 3


def test_lex_power_limit_admits_p7_and_refuses_p8_before_building():
    check_lex_power(7, 6)
    with pytest.raises(PartitionError, match="8\\^7 tuples of length 7 exceed the limit"):
        check_lex_power(8, 7)
    with pytest.raises(PartitionError):
        step_up_extract(range(8), lambda x, y: 0)
    # one tuple of a billion entries, and a power far too large to compute
    for base_size, nu in [(1, 10 ** 9), (10 ** 30, 10 ** 30)]:
        with pytest.raises(PartitionError):
            check_lex_power(base_size, nu)
    check_lex_power(10 ** 9, 0)


def test_extract_unary_refuses_a_large_power_before_colouring():
    calls = []
    with pytest.raises(PartitionError, match="8\\^7 tuples of length 7 exceed the limit"):
        extract_unary(range(8), 7, lambda g: calls.append(g) or 0)
    assert calls == []


def test_step_up_n_and_p_bounds():
    with pytest.raises(ValueError):
        step_up_extract([], lambda x, y: 0)
    assert step_up_extract([7], lambda x, y: 1).witness == [(7, ())]
    # n is 2: every blocked stage ends in a triangle or a copy of P
    for p in range(2, 6):
        res = step_up_extract(range(p), lambda x, y: 1)
        assert res.side == "one" and len(res.witness) == 3
        assert step_up_extract(range(p), lambda x, y: 0).side == "zero"


def blocked_at_stage_two(x, y):
    """Stage 2 of P = [0, 1, 2] is blocked; R gets first failure index 0 at
    (0, 0) and 1 elsewhere, so extract_unary returns B = [(1, 0), (1, 1),
    (1, 2)] with index 1, and the fibre over 2 is all 1s.  The point (2,
    (0, 0)) has colour 0 with the stage-1 point (1, (0, 0))."""
    x, y = sorted((x, y))
    if y[0] < 2:
        return 0
    if x[0] == 2:
        return 1
    return int((x[0] == 0) == (y[1] == (0, 0)))


def test_step_up_witness_check_catches_a_broken_unary_step(monkeypatch):
    res = step_up_extract(range(3), blocked_at_stage_two)
    assert (res.side, res.witness) == ("one", [(1, (0, 0)), (2, (1, 0)), (2, (1, 1))])
    real = partition.extract_unary

    def descending(P, nu, F):
        witness, colour = real(P, nu, F)
        return witness[::-1], colour

    def non_homogeneous(P, nu, F):
        witness, colour = real(P, nu, F)
        return [(0, 0)] + witness[1:], colour   # F((0, 0)) is 0, not 1

    def outside(P, nu, F):
        return [(1, 0, 0), (1, 1), (1, 2)], 1

    def short(P, nu, F):
        witness, colour = real(P, nu, F)
        return witness[:2], colour

    def fibre_zero(x, y):
        return 0 if x[0] == y[0] else blocked_at_stage_two(x, y)

    res = step_up_extract(range(3), fibre_zero)
    assert (res.side, res.witness) == ("zero", [(2, (1, 0)), (2, (1, 1)), (2, (1, 2))])
    for broken, colour, problem in [(descending, blocked_at_stage_two, "not strictly ascending"),
                                    (non_homogeneous, blocked_at_stage_two, "homogeneity"),
                                    (outside, blocked_at_stage_two, "not in P x R"),
                                    (short, fibre_zero, "zero witness has 2 points, needs 3")]:
        monkeypatch.setattr(partition, "extract_unary", broken)
        with pytest.raises(PartitionError, match=problem):
            step_up_extract(range(3), colour)


# -- one colour guard for both extractors ------------------------------------------------

@pytest.mark.parametrize("value, problem", [
    (True, "colouring value True at (0, 0) not a colour below 2"),
    (1.0, "colouring value 1.0 at (0, 0) not a colour below 2"),
    (2, "colouring value 2 at (0, 0) not a colour below 2"),
    (KeyError("gap"), "colouring undefined at (0, 0): 'gap'"),
])
def test_extract_unary_refuses_what_is_not_a_colour(value, problem):
    def F(g):
        if isinstance(value, Exception):
            raise value
        return value

    with pytest.raises(BadColouringDomain) as info:
        extract_unary([0, 1], 2, F)
    assert str(info.value) == problem


@pytest.mark.parametrize("value, problem", [
    (True, "colouring value True at (0, (0,)), (1, (0,)) not a colour below 2"),
    (1.0, "colouring value 1.0 at (0, (0,)), (1, (0,)) not a colour below 2"),
    (2, "colouring value 2 at (0, (0,)), (1, (0,)) not a colour below 2"),
    (KeyError("gap"), "colouring undefined at (0, (0,)), (1, (0,)): 'gap'"),
])
def test_step_up_refuses_what_is_not_a_colour(value, problem):
    def colour(x, y):
        if isinstance(value, Exception):
            raise value
        return value

    with pytest.raises(BadColouringDomain) as info:
        step_up_extract(range(2), colour)
    assert str(info.value) == problem


def test_step_up_reports_a_bad_colour_in_a_blocked_stage_once():
    # the first 9 colours block a stage; the bad colour is met inside
    # extract_unary, whose guard passes the inner guard's error on as it is
    calls = []

    def colour(x, y):
        calls.append((x, y))
        return 1 if len(calls) <= 9 else 2

    with pytest.raises(BadColouringDomain) as info:
        step_up_extract(range(3), colour)
    assert str(info.value) == "colouring value 2 at (0, (0, 0)), (1, (0, 0)) not a colour below 2"
