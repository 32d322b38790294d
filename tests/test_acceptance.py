"""Acceptance suite: one test per criterion, exact checks, one line each.

Scale notes: the singleton-extraction sweep is exhaustive wherever the
colouring space has at most 2^9 members (the largest exhaustively sweepable
size); the 3^3-domain case is covered by a 20000-colouring seeded sweep
because its 2^27 colourings do not fit the runtime budget.
"""

import itertools
import json
import random
import subprocess
import sys

import numpy as np

from corpus import bound_corpus, composite_terms, corpus_terms
from oracles import element_key, grid_vertices, textbook_materialize

from scatter_calc import (
    Fin,
    FinSupp,
    build_neg_graph,
    check_corner_invariant,
    check_triangle_free,
    compare_elements,
    compose_negative_coloring,
    extract_unary,
    find_homogeneous,
    finsupp_elem,
    materialize,
    parse_term,
    pow_term,
    sample_elements,
    search_embedding,
    sierpinski_coloring,
    step_up_extract,
)
from scatter_calc.antilex import (
    FinSuppFn,
    check_antilex_lemma,
    compare_antilex,
    dec_seq,
    induced_seq_coloring,
    ks_embed,
    search_alpha_tree,
    verify_color_collapse,
)
from scatter_calc.milner_rado import (
    mr_class_type_bound,
    mr_label_ordinal,
    mr_label_term,
)
from scatter_calc.neg_graph import NegGraphParams
from scatter_calc.ordinal import (
    from_int,
    omega_power,
    ord_compare,
    parse_ordinal,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}",
          flush=True)
    assert ok, f"criterion {number} failed: {description}"


# -- 1: order laws --------------------------------------------------------------------

def test_criterion_1_order_laws():
    ok = True
    for t_index, term in enumerate(corpus_terms()):
        pool = sample_elements(term, 48, 1000 + t_index)
        rng = random.Random(5000 + t_index)
        keys = [element_key(term, e) for e in pool]
        for _ in range(10_000):
            ia, ib, ic = (rng.randrange(len(pool)) for _ in range(3))
            a, b, c = pool[ia], pool[ib], pool[ic]
            cab = compare_elements(term, a, b)
            cba = compare_elements(term, b, a)
            cbc = compare_elements(term, b, c)
            cac = compare_elements(term, a, c)
            if cab not in (-1, 0, 1) or cba != -cab:
                ok = False
            if (cab == 0) != (keys[ia] == keys[ib]):
                ok = False
            if cab <= 0 and cbc <= 0 and cac > 0:
                ok = False
            if cab < 0 and cbc < 0 and cac >= 0:
                ok = False
            if not ok:
                break
        if not ok:
            break
    report(1, "trichotomy + transitivity, 10^4 seeded triples per corpus term", ok)


# -- 2: finite-denotation oracle --------------------------------------------------------

def test_criterion_2_finite_denotation_oracle():
    checked = 0
    ok = True
    for term in corpus_terms():
        size = term.finite_size
        if size is None or size > 8:
            continue
        checked += 1
        expected = textbook_materialize(term)
        got = materialize(term)
        shuffled = list(expected)
        random.Random(17).shuffle(shuffled)
        resorted = sorted(shuffled, key=term._key)
        if got != expected or resorted != expected:
            ok = False
    ok = ok and checked >= 5
    report(2, f"comparator sort equals textbook materialization on {checked} finite terms", ok)


# -- 3: blocking colouring ---------------------------------------------------------------

def test_criterion_3_sierpinski_blocking():
    rng = random.Random(33)
    ok = True
    for n in range(1, 8):
        for _ in range(3):
            tags = rng.sample(range(100), n)
            colouring = sierpinski_coloring(tags)
            for size in range(2, n + 1):
                for combo in itertools.combinations(range(n), size):
                    colours = {colouring(i, j)
                               for i, j in itertools.combinations(combo, 2)}
                    if colours == {0} and any(
                            tags[a] > tags[b]
                            for a, b in itertools.combinations(combo, 2)):
                        ok = False
                    if colours == {1} and any(
                            tags[a] < tags[b]
                            for a, b in itertools.combinations(combo, 2)):
                        ok = False
    report(3, "0-homogeneous sets tag-increase, 1-homogeneous tag-decrease, sizes <= 7", ok)


# -- 4: decomposition bounds --------------------------------------------------------------

def test_criterion_4_class_bounds():
    corpus = [alpha for alpha in bound_corpus() if not alpha.is_zero()]
    assert len(corpus) >= 200
    ok = True
    for a_index, alpha in enumerate(corpus):
        term = parse_term(f"ord({alpha})")
        realized = set()
        for xi in sample_elements(term, 25, 900 + a_index):
            realized.add(mr_label_ordinal(alpha, xi))
        for n in sorted(realized) + [max(realized) + 1]:
            bound = mr_class_type_bound(alpha, n)
            if ord_compare(bound, omega_power(from_int(n + 1))) >= 0:
                ok = False
    report(4, f"class bounds strictly below w^(n+1) on {len(corpus)} ordinals", ok)


# -- 5: composite decomposition avoidance ---------------------------------------------------

def _approximants(i: int):
    updown = parse_term("scaled(fin(2), rev(fin(2)))")
    downup = parse_term("scaled(rev(fin(2)), fin(2))")
    big = parse_term("scaled(fin(3), rev(fin(3)))")
    return [pow_term(updown, i), pow_term(downup, i), pow_term(big, i),
            pow_term(Fin(4), i)]


def test_criterion_5_composite_label_avoidance():
    ok = True
    hits = []
    for t_index, term in enumerate(composite_terms()):
        sample = sample_elements(term, 200, 7000 + t_index)
        labels = [mr_label_term(term, e) for e in sample]
        classes = {}
        for elem, label in zip(sample, labels):
            classes.setdefault(label, []).append(elem)
        for label, members in sorted(classes.items()):
            for pattern in _approximants(label):
                found = search_embedding(pattern, members)
                if found is not None:
                    hits.append((term.format(), label))
                    ok = False
    report(5, f"no down-up/nested approximant embeds into any label class "
              f"(10 composite terms, 200-point samples); hits: {hits}", ok)


# -- 6: extractors ----------------------------------------------------------------------------

def _verify_unary_witness(P, nu, F, witness, colour):
    if len(witness) != len(P) or len(set(witness)) != len(P):
        return False
    if sorted(witness) != witness:
        return False
    return all(F(g) == colour for g in witness)


def test_criterion_6_extractors():
    ok = True
    # exhaustive wherever the 2-colour space is at most 2^9
    for p in (1, 2, 3):
        for nu in (1, 2, 3):
            P = list(range(p))
            domain = list(itertools.product(P, repeat=nu))
            cells = len(domain)
            space = 1 if nu == 1 else 2 ** cells
            if space > 512:
                continue
            for bits in range(space):
                table = {g: (bits >> i) & 1 for i, g in enumerate(domain)}
                F = table.__getitem__
                witness, colour = extract_unary(P, nu, F)
                if not _verify_unary_witness(P, nu, F, witness, colour):
                    ok = False
    # the 3^3 domain: seeded sweep of 20000 colourings (2^27 is out of budget)
    P = [0, 1, 2]
    domain = list(itertools.product(P, repeat=3))
    rng = random.Random(606)
    for _ in range(20_000):
        bits = rng.getrandbits(len(domain))
        table = {g: (bits >> i) & 1 for i, g in enumerate(domain)}
        F = table.__getitem__
        witness, colour = extract_unary(P, 3, F)
        if not _verify_unary_witness(P, 3, F, witness, colour):
            ok = False
    report(6, "singleton extraction verified (exhaustive sweeps + 2*10^4 seeded 3^3 cases)", ok)


def test_criterion_6_step_up():
    p = 4
    P = list(range(p))
    R = list(itertools.product(P, repeat=p - 1))
    flat = {(a, b): a * len(R) + bi for a in P for bi, b in enumerate(R)}
    total = p * len(R)
    ok = True
    zero_count = one_count = 0
    for trial in range(1000):
        rng = np.random.default_rng(4242 + trial)
        # mix fair and 1-heavy colourings so both extraction branches run
        density = 0.5 if trial < 700 else 0.95
        matrix = (rng.random((total, total)) < density).astype(np.int8)

        def colour(x, y, matrix=matrix):
            i, j = flat[x], flat[y]
            if i > j:
                i, j = j, i
            return int(matrix[i, j])

        result = step_up_extract(P, colour)
        expected = 0 if result.side == "zero" else 1
        if result.side == "zero":
            zero_count += 1
            if len(result.witness) != p:
                ok = False
        else:
            one_count += 1
            if len(result.witness) != 3:
                ok = False
        # find_homogeneous re-verification on the witness domain
        witness = result.witness
        if find_homogeneous(len(witness), lambda i, j: colour(witness[i], witness[j]),
                            len(witness), expected) != tuple(range(len(witness))):
            ok = False
    ok = ok and zero_count > 0 and one_count > 0
    report(6, f"pair extraction verified on 10^3 seeded colourings "
              f"({zero_count} chain copies, {one_count} triangles)", ok)


# -- 7: graph construction -----------------------------------------------------------------------

def _random_params(rng: random.Random) -> NegGraphParams:
    k = rng.randint(1, 5)
    l = rng.randint(k, 40)
    d = {}
    g = {}
    for rho in range(k, l):
        take = min(rho, rng.randint(0, 4))
        if take:
            d[rho] = frozenset(rng.sample(range(rho), take))
        g[rho] = tuple(sorted(rng.sample(range(rho), k)))
    u = {}
    for rho in range(l):
        seq = []
        v = rng.randint(0, 3)
        for _ in range(k):
            v += rng.randint(1, 3)
            seq.append(v)
        u[rho] = tuple(seq)
    return NegGraphParams(k=k, l=l, d=d, u=u, g=g)


def test_criterion_7_negative_graph():
    rng = random.Random(777)
    ok = True
    built = 0
    edge_total = 0
    for _ in range(120):
        params = _random_params(rng)
        graph = build_neg_graph(params)
        built += 1
        edge_total += len(graph.edges)
        if check_triangle_free(graph) is not None:
            ok = False
        if check_corner_invariant(graph) is not None:
            ok = False
        verts = grid_vertices(graph.k, graph.l)
        colouring = compose_negative_coloring(graph, verts)
        if len(verts) >= 3 and find_homogeneous(len(verts), colouring, 3, 1) is not None:
            ok = False
    ok = ok and built >= 100 and edge_total > 0
    report(7, f"{built} seeded parameter sets: triangle-free, corner invariant, "
              f"no 1-homogeneous triple ({edge_total} edges built)", ok)


# -- 8: finite-support suite -----------------------------------------------------------------------

def test_criterion_8_antilex_suite():
    ok = True

    # (a) the disagreement lemma on 10^4 sorted random triples
    host = FinSupp(parse_ordinal("w^2"), Fin(3), 0)
    menu = [parse_ordinal(t) for t in
            ["0", "1", "2", "3", "7", "w", "w + 1", "w + 4", "w*2", "w*2 + 3", "w*5"]]
    rng = random.Random(88)
    done = 0
    while done < 10_000:
        fns = []
        for _ in range(3):
            size = rng.randrange(4)
            positions = rng.sample(menu, size)
            fns.append(FinSuppFn(host, finsupp_elem({p: rng.choice([1, 2]) for p in positions})))
        if len({f.elem for f in fns}) < 3:
            continue
        import functools
        fns.sort(key=functools.cmp_to_key(compare_antilex))
        if check_antilex_lemma(*fns) is not True:
            ok = False
        done += 1

    # (b) + (c): micro-grid tree searches, embedding preservation, collapse
    alphabet = [0, 1, 2]
    somes = 0
    oracles = {
        "const": lambda f: 0,
        "parity": lambda f: len(f) % 2,
        "weighted": lambda f: (sum(p.as_int() * v for p, v in f) + 1) % 3,
    }
    for delta in (1, 2, 3):
        small = FinSupp(from_int(delta), Fin(3), 0)
        for mu_range in (4, 8):
            big = FinSupp(from_int(mu_range), Fin(3), 0)
            for level_bound in (1, 2, 3):
                for name, H in oracles.items():
                    cache = {}

                    def F(chain, H=H, big=big, cache=cache):
                        if chain not in cache:
                            cache[chain] = induced_seq_coloring(
                                H, big, dec_seq(chain), alphabet)
                        return cache[chain]

                    found = search_alpha_tree(F, delta, mu_range, level_bound)
                    if found is None:
                        continue
                    somes += 1
                    tree, colours = found
                    fragment = []
                    for size in range(min(delta, level_bound) + 1):
                        for positions in itertools.combinations(range(delta), size):
                            for values in itertools.product([1, 2], repeat=size):
                                mapping = dict(zip(
                                    map(from_int, sorted(positions, reverse=True)),
                                    values))
                                fragment.append(finsupp_elem(mapping))
                    good, _ = verify_color_collapse(H, tree, colours, small, fragment, big)
                    if not good:
                        ok = False
                    # embedding preserves order on 10^3 seeded pairs
                    prng = random.Random(9000 + somes)
                    for _ in range(1000):
                        f, g = prng.choice(fragment), prng.choice(fragment)
                        image_f, image_g = (ks_embed(tree, small, x, big) for x in (f, g))
                        if compare_elements(big, image_f, image_g) != compare_elements(small, f, g):
                            ok = False
    ok = ok and somes >= 1
    report(8, f"disagreement lemma 10^4 triples; {somes} searched trees all "
              "collapse-verified with order-preserving embeddings", ok)


# -- 9: CLI determinism ------------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    py = [sys.executable, "-m", "scatter_calc"]

    params = {
        "k": 2, "l": 6,
        "d": {"2": [0, 1], "3": [1, 2], "4": [0, 3], "5": [2, 4]},
        "u": {str(r): [1, 3] for r in range(6)},
        "g": {"2": [0, 1], "3": [0, 2], "4": [1, 3], "5": [2, 4]},
    }
    pfile = tmp_path / "params.json"
    pfile.write_text(json.dumps(params))
    unary_spec = {"p": 2, "nu": 2,
                  "F": [{"g": [a, b], "c": a} for a in (0, 1) for b in (0, 1)]}
    ufile = tmp_path / "unary.json"
    ufile.write_text(json.dumps(unary_spec))
    tree = {"alpha": "1", "entries": [{"seq": ["0"], "val": "4"}]}
    tfile = tmp_path / "tree.json"
    tfile.write_text(json.dumps(tree))

    commands = [
        ["parse", "--term", "finsupp(w^2, fin(3), 1)"],
        ["compare", "--term", "shuffle(w)", "--a", '["1"]', "--b", '["0"]'],
        ["sample", "--term", "scaled(ord(w^2), fin(2))", "--budget", "15", "--seed", "7"],
        ["embed-search", "--pattern", "fin(4)", "--term", "ord(w^2)",
         "--budget", "10", "--seed", "5"],
        ["sierpinski", "--tags", "[4, 0, 2, 1]"],
        ["extract-unary", "--input", str(ufile)],
        ["step-up", "--p", "4", "--n", "2", "--seed", "12"],
        ["mr-label", "--term", "scaled(ord(w^3), rev(ord(w)))",
         "--elem", '{"i": "2", "e": "w*4 + 1"}'],
        ["mr-bound", "--alpha", "w^2*2 + w*3", "--n", "2"],
        ["ks-check", "--term", "scaled(ord(w), fin(2))", "--n", "3",
         "--budget", "30", "--seed", "4"],
        ["neg-graph", "build", "--params", str(pfile)],
        ["ks", "search", "--delta", "2", "--mu-range", "6",
         "--level-bound", "2", "--oracle", "length"],
        ["ks", "verify", "--tree", str(tfile), "--oracle", "const"],
        ["ks", "embed", "--tree", str(tfile),
         "--source-host", "finsupp(1, fin(3), 0)",
         "--target-host", "finsupp(6, fin(3), 0)",
         "--f", '{"supp": [{"pos": "0", "e": 2}]}'],
    ]
    ok = True
    for argv in commands:
        first = subprocess.run(py + argv, capture_output=True)
        second = subprocess.run(py + argv, capture_output=True)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            ok = False
    # and a pipeline: build | check twice, byte-identical
    build = subprocess.run(py + ["neg-graph", "build", "--params", str(pfile)],
                           capture_output=True)
    checks = [subprocess.run(py + ["neg-graph", "check", "-"],
                             input=build.stdout, capture_output=True)
              for _ in range(2)]
    if checks[0].stdout != checks[1].stdout or checks[0].returncode != 0:
        ok = False
    report(9, f"{len(commands)} CLI commands re-run byte-identically under fixed seeds", ok)
