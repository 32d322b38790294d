"""The benchmark's three workloads.

Each workload turns (seed, op index) into one op's inputs with ``make_op``
(untimed, no library calls), runs the op against scatter_calc's public
names or ``cli.main`` with ``run`` (timed), and judges the outputs with
``check`` against answers from ``oracles`` (untimed, no library calls).
``check`` returns (ok, verdict); verdicts are deterministic strings that
the run digests.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import scatter_calc as sc
from scatter_calc import cli

import oracles as O

# The 30 corpus terms of the order-law criterion (every constructor,
# nesting depth <= 4), plus the anti-lexicographic host of criterion 8.
CORPUS = [
    "fin(1)", "fin(3)", "fin(7)",
    "ord(w)", "ord(w^2)", "ord(w^3 + w*2 + 1)", "ord(w^w)", "ord(w^(w + 1)*2 + w^2*3)",
    "rev(ord(w))", "rev(ord(w^2 + 1))", "rev(fin(5))",
    "sum[fin(2), ord(w), rev(ord(w))]", "sum[ord(w^2), rev(ord(w^2))]",
    "sum[fin(1), fin(2), fin(3)]",
    "scaled(ord(w), fin(2))", "scaled(fin(2), rev(fin(2)))", "scaled(ord(w), rev(ord(w)))",
    "scaled(rev(ord(w)), ord(w^2))", "scaled(scaled(ord(w), ord(w)), ord(w))",
    "scaled(sum[ord(w), rev(ord(w))], fin(3))",
    "shuffle(2)", "shuffle(w)", "shuffle(w^2)",
    "finsupp(w, fin(2), 0)", "finsupp(w^2, fin(3), 1)", "finsupp(3, fin(2), 0)",
    'finsupp(w, rev(ord(w)), "0")', "pow(fin(2), 3)",
    "rev(scaled(ord(w), fin(2)))", "rev(sum[fin(2), scaled(ord(w), fin(2))])",
]
ANTILEX_HOST = "finsupp(w^2, fin(3), 0)"


def rng_for(seed, *parts):
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def permuted(seed, tag, block, items):
    order = list(items)
    rng_for(seed, tag, block).shuffle(order)
    return order


def digest(values):
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


class OrderSweep:
    """Sample a pool per corpus term and check the order laws on it."""

    name = "order-sweep"
    texts = CORPUS + [ANTILEX_HOST]
    cycle = len(texts)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.budget = 12 if tiny else 48
        self.triples = 40 if tiny else 500
        self.finite = {}
        for text in self.texts:
            ast = O.parse_text(text)
            size = O.finite_size(ast)
            if size is not None and size <= 8:
                self.finite[text] = O.textbook(ast)

    def make_op(self, i, stream="run"):
        text = permuted(self.seed, stream, i // self.cycle, self.texts)[i % self.cycle]
        rng = rng_for(self.seed, stream, i)
        triples = [tuple(rng.randrange(self.budget) for _ in range(3))
                   for _ in range(self.triples)]
        shuffle = list(range(len(self.finite.get(text, ()))))
        rng.shuffle(shuffle)
        return {"text": text, "pool_seed": rng.randrange(10**6), "triples": triples,
                "shuffle": shuffle}

    def run(self, op, rec):
        term = sc.parse_term(op["text"])
        pool = sc.sample_elements(term, self.budget, op["pool_seed"])
        n = len(pool)
        keys = [json.dumps(sc.encode_element(term, e), sort_keys=True) for e in pool]
        out = {"n": n, "keys": keys, "laws": [], "lemma": []}
        if op["text"] == ANTILEX_HOST:
            fns = [sc.FinSuppFn(term, e) for e in pool]
            for triple in op["triples"]:
                picked = sorted({j % n for j in triple})
                if len(picked) < 3:
                    continue
                fs = sorted(((fns[j], j) for j in picked),
                            key=functools.cmp_to_key(lambda x, y: sc.compare_antilex(x[0], y[0])))
                out["lemma"].append(([j for _, j in fs],
                                     sc.check_antilex_lemma(*(f for f, _ in fs))))
        else:
            cmp = sc.compare_elements
            for a, b, c in op["triples"]:
                x, y, z = pool[a % n], pool[b % n], pool[c % n]
                out["laws"].append((a % n, b % n, cmp(term, x, y), cmp(term, y, x),
                                    cmp(term, y, z), cmp(term, x, z)))
        if op["text"] in self.finite:
            elems = sc.materialize(term)
            out["materialized"] = [sc.encode_element(term, e) for e in elems]
            order = functools.cmp_to_key(lambda x, y: sc.compare_elements(term, x, y))
            resorted = sorted((elems[j] for j in op["shuffle"]), key=order)
            out["resorted"] = [sc.encode_element(term, e) for e in resorted]
        return out

    def check(self, op, out):
        keys, n = out["keys"], out["n"]
        ok = 1 <= n <= self.budget and len(set(keys)) == n
        tally = [0, 0, 0]
        for ia, ib, cab, cba, cbc, cac in out["laws"]:
            if cab not in (-1, 0, 1) or cba != -cab or (cab == 0) != (keys[ia] == keys[ib]):
                ok = False
            if (cab <= 0 and cbc <= 0 and cac > 0) or (cab < 0 and cbc < 0 and cac >= 0):
                ok = False
            tally[cab + 1] += 1
        for order, holds in out["lemma"]:
            # the pool is sorted ascending, so the antilex sort must agree
            ok = ok and holds is True and order == sorted(order)
        if op["text"] in self.finite:
            expected = self.finite[op["text"]]
            ok = ok and out["materialized"] == expected and out["resorted"] == expected
        verdict = [op["text"], n, digest(keys), tally, len(out["lemma"])]
        return ok, verdict


class GridPipe:
    """Build, pipe through JSON, and check the grid graph; one op in five
    has a planted corner-shaped triangle that the checker must report."""

    name = "grid-graph"
    ks = (4, 5, 6, 7, 8)
    cycle = len(ks)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.rows = 12 if tiny else 110      # rows at k = 8; smaller k gets more

    def make_op(self, i, stream="run"):
        block = i // self.cycle
        k = permuted(self.seed, stream + "-k", block, self.ks)[i % self.cycle]
        plant_at = rng_for(self.seed, stream + "-plant", block).randrange(self.cycle)
        planted = plant_at == i % self.cycle
        rng = rng_for(self.seed, stream, i)
        l = max(k, round(self.rows * 64 / (k * k)))
        return {"k": k, "l": l, "params": O.neg_graph_params(rng, k, l),
                "planted": planted, "plant_seed": rng.randrange(10**6)}

    def run(self, op, rec):
        params = sc.NegGraphParams.from_json(op["params"])
        graph = sc.build_neg_graph(params)
        text = json.dumps(graph.to_json())
        rec.count("neg_graph.json_bytes", len(text))
        data = json.loads(text)
        if op["planted"]:
            O.plant_triangle(data, random.Random(op["plant_seed"]))
        piped = sc.GridGraph.from_json(data)
        return {"data": data,
                "verdict": (sc.check_triangle_free(piped), sc.check_corner_invariant(piped))}

    @staticmethod
    def tally(verdicts):
        planted = [v for v in verdicts if v[3]]
        return {"planted": len(planted), "planted_detected": sum(v[4] is not None for v in planted)}

    def check(self, op, out):
        data = out["data"]
        witness, corner = out["verdict"]
        if op["planted"]:
            ok = corner is None and O.is_triangle(O.edge_set(data), witness)
        else:
            ok = witness is None and corner is None
        ok = ok and all(O.corner_shaped(e) for e in data["edges"])
        verdict = [op["k"], op["l"], len(data["edges"]), op["planted"],
                   None if witness is None else [list(v) for v in witness],
                   None if corner is None else [list(v) for v in corner]]
        return ok, verdict


class CliVerbs:
    """One in-process ``cli.main(argv)`` call per op, every verb once per
    block of ops in seeded order."""

    name = "cli-verbs"
    kinds = ("parse", "compare", "sample", "embed-search", "sierpinski", "extract-unary",
             "step-up", "mr-label", "mr-bound", "ks-check", "neg-graph-build",
             "neg-graph-check", "ks-search", "ks-verify", "ks-embed")
    cycle = len(kinds)

    def __init__(self, seed, tiny=False):
        self.seed = seed
        self.step_up_p = 3 if tiny else 4

    def make_op(self, i, stream="run"):
        kind = permuted(self.seed, stream, i // self.cycle, self.kinds)[i % self.cycle]
        rng = rng_for(self.seed, stream, i)
        op = {"kind": kind, "stdin": None, "code": 0}
        op.update(getattr(self, "_make_" + kind.replace("-", "_"))(rng))
        return op

    # -- op generation: argv, stdin and the expected answer -------------------------

    def _make_parse(self, rng):
        t = O.rand_term(rng)
        return {"argv": ["parse", "--term", O.fmt_term(t)], "command": "parse",
                "want": {"term": O.fmt_term(t), "finite_size": O.finite_size(t)}}

    def _make_compare(self, rng):
        if rng.random() < 0.3:      # plain integers in fin(n) or ord(w)
            t = rng.choice([("fin", 50), ("ord", ((1, 1),))])
            a, b = rng.randrange(50), rng.randrange(50)
        else:
            t = O.rand_term(rng, full=False)
            a = O.rand_elem(t, rng)
            b = a if rng.random() < 0.2 else O.rand_elem(t, rng)
        word = {-1: "Less", 0: "Equal", 1: "Greater"}[O.compare_enc(t, a, b)]
        return {"argv": ["compare", "--term", O.fmt_term(t), "--a", json.dumps(a),
                         "--b", json.dumps(b)],
                "command": "compare", "want": {"result": word}}

    def _make_sample(self, rng):
        t = O.rand_term(rng, full=False)
        budget = rng.randint(4, 24)
        return {"argv": ["sample", "--term", O.fmt_term(t), "--budget", str(budget),
                         "--seed", str(rng.randrange(1000))],
                "command": "sample", "term": t, "budget": budget}

    def _make_embed_search(self, rng):
        t = O.rand_term(rng, full=False)
        while O.finite_size(t) is not None:
            t = O.rand_term(rng, full=False)
        budget = rng.randint(10, 30)
        # an infinite order's sample of >= 10 points holds any chain of <= 6;
        # no sample of at most `budget` points holds a longer chain
        size = rng.randint(1, 6) if rng.random() < 0.75 else budget + rng.randint(1, 3)
        return {"argv": ["embed-search", "--pattern", f"fin({size})", "--term", O.fmt_term(t),
                         "--budget", str(budget), "--seed", str(rng.randrange(1000))],
                "command": "embed-search", "term": t, "size": size,
                "want": {"found": size <= 6}}

    def _make_sierpinski(self, rng):
        tags = rng.sample(range(100), rng.randint(2, 8))
        pairs = [{"a": i, "b": j, "c": 0 if tags[i] < tags[j] else 1}
                 for i in range(len(tags)) for j in range(i + 1, len(tags))]
        return {"argv": ["sierpinski", "--tags", json.dumps(tags)], "command": "sierpinski",
                "pairs": pairs}

    def _make_extract_unary(self, rng):
        p, nu = rng.randint(2, 3), rng.randint(2, 3)
        table = {}
        for idx in range(p ** nu):
            g = tuple((idx // p ** (nu - 1 - j)) % p for j in range(nu))
            table[g] = rng.randrange(nu)
        request = {"p": p, "nu": nu, "F": [{"g": list(g), "c": c} for g, c in table.items()]}
        return {"argv": ["extract-unary", "--input", "-"], "stdin": json.dumps(request),
                "command": "extract-unary", "p": p, "nu": nu, "table": table}

    def _make_step_up(self, rng):
        return {"argv": ["step-up", "--p", str(self.step_up_p), "--n", "2",
                         "--seed", str(rng.randrange(10**6))],
                "command": "step-up", "p": self.step_up_p}

    def _make_mr_label(self, rng):
        t = O.rand_term(rng, full=False)
        x = O.rand_elem(t, rng)
        chain = []
        label = O.mr_label(t, x, chain)
        return {"argv": ["mr-label", "--term", O.fmt_term(t), "--elem", json.dumps(x)],
                "command": "mr-label",
                "want": {"term": O.fmt_term(t), "label": label, "chain": chain}}

    def _make_mr_bound(self, rng):
        alpha, n = O.rand_ordinal(rng, 4), rng.randint(0, 4)
        return {"argv": ["mr-bound", "--alpha", O.ord_text(alpha), "--n", str(n)],
                "command": "mr-bound", "n": n,
                "want": {"alpha": O.ord_text(alpha), "n": n,
                         "bound": O.ord_text(O.class_bound(alpha, n))}}

    def _make_ks_check(self, rng):
        t = O.rand_term(rng, full=False)
        while O.finite_size(t) is not None:
            t = O.rand_term(rng, full=False)
        # a class of at most 40 sampled points cannot hold the 4^n >= 64
        # point down-up pattern, so the check must pass
        return {"argv": ["ks-check", "--term", O.fmt_term(t), "--n", str(rng.randint(3, 4)),
                         "--budget", str(rng.randint(10, 40)), "--seed", str(rng.randrange(1000))],
                "command": "ks-check", "want": {"ok": True}}

    def _make_neg_graph_build(self, rng):
        k = rng.randint(2, 4)
        params = O.neg_graph_params(rng, k, rng.randint(k + 1, 14))
        return {"argv": ["neg-graph", "build", "--params", "-"], "stdin": json.dumps(params),
                "command": "neg-graph build", "k": k}

    def _make_neg_graph_check(self, rng):
        graph = O.small_graph(rng, rng.randint(2, 5), rng.randint(3, 10))
        triangle = O.has_triangle(graph)
        return {"argv": ["neg-graph", "check", "-"], "stdin": json.dumps({"graph": graph}),
                "command": "neg-graph check", "code": 2 if triangle else 0, "graph": graph,
                "want": {"triangle_free": not triangle, "corner_ok": True}}

    def _tree(self, rng):
        while True:
            delta, level_bound = rng.randint(1, 3), rng.randint(1, 3)
            mu_range = rng.randint(delta, 6)
            values = O.greedy_tree(delta, mu_range, level_bound)
            if values is not None:
                return delta, mu_range, level_bound, values

    def _make_ks_search(self, rng):
        delta, mu_range, level_bound, values = self._tree(rng)
        oracle = rng.choice(["const", "length"])
        colour = O.KS_ORACLES[oracle]
        # without colour constraints the backtracking search never backtracks,
        # so its least witness is the greedy tree
        levels = {str(len(s) - 1): colour(tuple(range(len(s)))) for s in values}
        return {"argv": ["ks", "search", "--delta", str(delta), "--mu-range", str(mu_range),
                         "--level-bound", str(level_bound), "--oracle", oracle],
                "command": "ks search", "values": values,
                "delta": delta, "want": {"found": True, "levels": levels}}

    def _make_ks_verify(self, rng):
        delta, _, _, values = self._tree(rng)
        level1 = [s for s in values if len(s) == 1]
        if len(level1) >= 2 and rng.random() < 0.3:
            s, t = rng.sample(level1, 2)
            values[s], values[t] = values[t], values[s]
        oracle = rng.choice(sorted(O.KS_ORACLES))
        ok = O.tree_ok(values, delta, O.KS_ORACLES[oracle])
        return {"argv": ["ks", "verify", "--tree", "-", "--oracle", oracle],
                "stdin": json.dumps(O.tree_json(delta, values)), "command": "ks verify",
                "code": 0 if ok else 2, "want": {"ok": ok}}

    def _make_ks_embed(self, rng):
        delta, mu_range, level_bound, values = self._tree(rng)
        positions = sorted(rng.sample(range(delta), rng.randint(0, min(delta, level_bound))),
                           reverse=True)
        colours = [rng.randint(1, 2) for _ in positions]
        f = {"supp": [{"pos": str(p), "e": c} for p, c in zip(positions, colours)]}
        image = {"supp": [{"pos": str(values[tuple(positions[: j + 1])]), "e": c}
                          for j, c in enumerate(colours)]}
        return {"argv": ["ks", "embed", "--tree", "-",
                         "--source-host", f"finsupp({delta}, fin(3), 0)",
                         "--target-host", f"finsupp({mu_range}, fin(3), 0)",
                         "--f", json.dumps(f)],
                "stdin": json.dumps(O.tree_json(delta, values)), "command": "ks embed",
                "want": {"image": image}}

    # -- running and checking ----------------------------------------------------------

    def run(self, op, rec):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(op["stdin"] or "")
        try:
            with rec.span("cli." + op["argv"][0]), redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(op["argv"])
                except SystemExit as exc:
                    code = exc.code
        finally:
            sys.stdin = saved
        rec.count("cli.stdout_bytes", len(out.getvalue()))
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op, out):
        verdict = [op["kind"], out["code"],
                   hashlib.sha256(out["stdout"].encode()).hexdigest()[:16]]
        if out["code"] != op["code"]:
            return False, verdict + [out["stderr"][-200:]]
        payload = json.loads(out["stdout"])
        ok = (str(payload.get("schema", "")).startswith("scatter-calc.")
              and payload.get("command") == op["command"]
              and all(payload.get(key) == value for key, value in op.get("want", {}).items()))
        extra = getattr(self, "_check_" + op["kind"].replace("-", "_"), None)
        return bool(ok and (extra is None or extra(op, payload))), verdict

    def _check_sample(self, op, payload):
        t, elems = op["term"], payload["elements"]
        return (1 <= len(elems) <= op["budget"]
                and all(O.valid_enc(t, x) for x in elems)
                and all(O.compare_enc(t, x, y) < 0 for x, y in zip(elems, elems[1:])))

    def _check_embed_search(self, op, payload):
        if not payload["found"]:
            return payload["embedding"] is None
        pairs = payload["embedding"]
        targets = [p["target"] for p in pairs]
        return ([p["pattern"] for p in pairs] == list(range(op["size"]))
                and all(O.valid_enc(op["term"], x) for x in targets)
                and all(O.compare_enc(op["term"], x, y) < 0 for x, y in zip(targets, targets[1:])))

    def _check_ks_search(self, op, payload):
        tree = payload["tree"]
        return tree["alpha"] == str(op["delta"]) and O.tree_from_json(tree) == op["values"]

    def _check_sierpinski(self, op, payload):
        pairs = sorted(payload["coloring"]["pairs"], key=lambda q: (q["a"], q["b"]))
        return pairs == op["pairs"]

    def _check_extract_unary(self, op, payload):
        witness, colour = [tuple(g) for g in payload["witness"]], payload["colour"]
        return (0 <= colour < op["nu"] and len(witness) == op["p"]
                and all(op["table"].get(g) == colour for g in witness)
                and witness == sorted(set(witness)))

    def _check_step_up(self, op, payload):
        p, side = op["p"], payload["side"]
        points = [(a, tuple(b)) for a, b in payload["witness"]]
        return (side in ("zero", "one") and len(points) == (p if side == "zero" else 3)
                and all(0 <= a < p and len(b) == p - 1 and all(0 <= x < p for x in b)
                        for a, b in points)
                and points == sorted(set(points)))

    def _check_mr_bound(self, op, payload):
        return O.parse_ord(payload["bound"]) < ((op["n"] + 1, 1),)

    def _check_neg_graph_build(self, op, payload):
        graph = payload["graph"]
        return (graph["k"] == op["k"] and all(O.corner_shaped(e) for e in graph["edges"])
                and not O.has_triangle(graph))

    def _check_neg_graph_check(self, op, payload):
        witness = payload["triangle_witness"]
        return witness is None or O.is_triangle(O.edge_set(op["graph"]), witness)


WORKLOADS = {w.name: w for w in (OrderSweep, GridPipe, CliVerbs)}
