"""Independent answers for the benchmark's correctness gates.

Nothing here imports scatter_calc.  Terms are small tuples built and
formatted from the README's grammar, elements are handled in the documented
JSON encoding, and every expected verdict is derived from first principles
(textbook materialization, ordinal arithmetic below w^w, brute-force
triangle search, direct value-tree checks), so a defect in the library
cannot hide behind the same defect in its checker.

Term tuples: ("fin", n), ("ord", o), ("rev", t), ("sum", (t, ...)),
("scaled", inner, index), ("shuffle", o), ("finsupp", o, inner, zero).
An ordinal o below w^w is a tuple of (exponent, coefficient) pairs with
strictly decreasing natural exponents; Python tuple order is CNF order.
"""

from __future__ import annotations

import itertools
import json
import re

# -- ordinals below w^w ---------------------------------------------------------

_ORD_PART = re.compile(r"w(?:\^(\d+))?(?:\*(\d+))?$")


def ord_text(o):
    """Canonical text, matching the README's ordinal format."""
    if not o:
        return "0"
    parts = []
    for e, c in o:
        if e == 0:
            parts.append(str(c))
            continue
        body = "w" if e == 1 else f"w^{e}"
        parts.append(body + (f"*{c}" if c > 1 else ""))
    return " + ".join(parts)


def parse_ord(text):
    """Inverse of ord_text; ValueError outside the fragment below w^w."""
    if isinstance(text, int):
        return ((0, text),) if text > 0 else ()
    text = text.strip()
    if text == "0":
        return ()
    out = []
    for part in text.split(" + "):
        if part.isdigit():
            out.append((0, int(part)))
            continue
        m = _ORD_PART.match(part)
        if not m:
            raise ValueError(f"ordinal {text!r} is outside the w^w fragment")
        out.append((int(m.group(1) or 1), int(m.group(2) or 1)))
    if any(a[0] <= b[0] for a, b in zip(out, out[1:])) or any(c < 1 for _, c in out):
        raise ValueError(f"ordinal {text!r} is not in Cantor normal form")
    return tuple(out)


def cmp3(x, y):
    return (x > y) - (x < y)


def rand_ordinal(rng, max_exp=3):
    """A seeded nonzero ordinal below w^(max_exp+1)."""
    exps = rng.sample(range(max_exp + 1), rng.randint(1, min(3, max_exp + 1)))
    return tuple((e, rng.randint(1, 4)) for e in sorted(exps, reverse=True))


def rand_below(o, rng):
    """A seeded ordinal strictly below o (o nonzero)."""
    j = rng.randrange(len(o))
    e, c = o[j]
    lead = rng.randrange(c)
    out = list(o[:j]) + ([(e, lead)] if lead else [])
    if e > 0:
        lower = sorted(rng.sample(range(e), rng.randint(0, min(2, e))), reverse=True)
        out += [(x, rng.randint(1, 9)) for x in lower]
    return tuple(out)


def block_exponent(alpha, xi):
    """Exponent of the CNF summand block of alpha that contains xi."""
    for j in range(len(alpha)):
        if xi < alpha[: j + 1]:
            return alpha[j][0]
    raise ValueError("element not below alpha")


# -- terms --------------------------------------------------------------------------


def fmt_term(t):
    kind = t[0]
    if kind == "fin":
        return f"fin({t[1]})"
    if kind == "ord":
        return f"ord({ord_text(t[1])})"
    if kind == "rev":
        return f"rev({fmt_term(t[1])})"
    if kind == "sum":
        return "sum[" + ", ".join(fmt_term(c) for c in t[1]) + "]"
    if kind == "scaled":
        return f"scaled({fmt_term(t[1])}, {fmt_term(t[2])})"
    if kind == "shuffle":
        return f"shuffle({ord_text(t[1])})"
    zero = json.dumps(t[3], sort_keys=True, separators=(",", ":"))
    return f"finsupp({ord_text(t[1])}, {fmt_term(t[2])}, {zero})"


def finite_size(t):
    kind = t[0]
    if kind == "fin":
        return t[1]
    if kind == "ord":
        o = t[1]
        if o is None or any(e > 0 for e, _ in o):
            return None
        return sum(c for _, c in o)
    if kind == "rev":
        return finite_size(t[1])
    if kind == "sum":
        sizes = [finite_size(c) for c in t[1]]
        return None if None in sizes else sum(sizes)
    if kind == "scaled":
        a, b = finite_size(t[1]), finite_size(t[2])
        return None if a is None or b is None else a * b
    if kind == "shuffle":
        return None
    inner = finite_size(t[2])
    if inner is None:
        return None
    if inner <= 1:
        return 1
    length = finite_size(("ord", t[1]))
    return None if length is None else inner ** length


def rand_index(rng):
    """A scaled() index: finite, well-ordered or anti-well-ordered."""
    r = rng.random()
    if r < 0.4:
        return ("fin", rng.randint(1, 3))
    o = rand_ordinal(rng, 2)
    return ("ord", o) if r < 0.75 else ("rev", ("ord", o))


def rand_term(rng, depth=2, full=True):
    """Seeded term.  full=False keeps to the fragment every verb labels and
    compares: fin, ord, sum, scaled, and rev over fin or ord."""
    kinds = ["fin", "ord", "rev"] + (["sum", "scaled"] if depth > 0 else [])
    if full:
        kinds += ["shuffle", "finsupp"]
    kind = rng.choice(kinds)
    if kind == "fin":
        return ("fin", rng.randint(1, 6))
    if kind == "ord":
        return ("ord", rand_ordinal(rng))
    if kind == "rev":
        if full and depth > 0:
            return ("rev", rand_term(rng, depth - 1, full))
        return ("rev", rng.choice([("fin", rng.randint(1, 6)), ("ord", rand_ordinal(rng))]))
    if kind == "sum":
        return ("sum", tuple(rand_term(rng, depth - 1, full) for _ in range(rng.randint(2, 3))))
    if kind == "scaled":
        return ("scaled", rand_term(rng, depth - 1, full), rand_index(rng))
    if kind == "shuffle":
        return ("shuffle", rng.choice([((0, 2),), ((0, 3),), ((1, 1),), ((2, 1),)]))
    if rng.random() < 0.5:
        n = rng.randint(1, 3)
        return ("finsupp", rand_ordinal(rng, 2), ("fin", n), rng.randrange(n))
    return ("finsupp", rand_ordinal(rng, 2), ("ord", rand_ordinal(rng, 1)), "0")


def rand_elem(t, rng):
    """Seeded element of a full=False term, in the JSON encoding."""
    kind = t[0]
    if kind == "fin":
        return rng.randrange(t[1])
    if kind == "ord":
        return ord_text(rand_below(t[1], rng))
    if kind == "rev":
        return rand_elem(t[1], rng)
    if kind == "sum":
        k = rng.randrange(len(t[1]))
        return {"i": k, "e": rand_elem(t[1][k], rng)}
    return {"i": rand_elem(t[2], rng), "e": rand_elem(t[1], rng)}


def compare_enc(t, a, b):
    """Order of two encoded elements of a full=False term."""
    kind = t[0]
    if kind == "fin":
        return cmp3(a, b)
    if kind == "ord":
        return cmp3(parse_ord(a), parse_ord(b))
    if kind == "rev":
        return -compare_enc(t[1], a, b)
    if kind == "sum":
        if a["i"] != b["i"]:
            return cmp3(a["i"], b["i"])
        return compare_enc(t[1][a["i"]], a["e"], b["e"])
    return compare_enc(t[2], a["i"], b["i"]) or compare_enc(t[1], a["e"], b["e"])


def valid_enc(t, x):
    kind = t[0]
    if kind == "fin":
        return isinstance(x, int) and 0 <= x < t[1]
    if kind == "ord":
        try:
            return parse_ord(x) < t[1]
        except (ValueError, AttributeError):
            return False
    if kind == "rev":
        return valid_enc(t[1], x)
    if not (isinstance(x, dict) and set(x) == {"i", "e"}):
        return False
    if kind == "sum":
        return (isinstance(x["i"], int) and 0 <= x["i"] < len(t[1])
                and valid_enc(t[1][x["i"]], x["e"]))
    return valid_enc(t[2], x["i"]) and valid_enc(t[1], x["e"])


def cantor1(m, n):
    return (m + n) * (m + n + 1) // 2 + n + 1


def mr_label(t, x, chain):
    """Decomposition label: an element of a w^e block of an ordinal gets
    label e; composites pair (index label, summand label) with cantor1.
    Appends each (m, n, value) to chain, innermost first."""
    kind = t[0]
    if kind == "fin":
        return 0
    if kind == "ord":
        return block_exponent(t[1], parse_ord(x))
    if kind == "rev":
        return mr_label(t[1], x, chain)
    if kind == "sum":
        m, n = 0, mr_label(t[1][x["i"]], x["e"], chain)
    else:
        m, n = mr_label(t[2], x["i"], []), mr_label(t[1], x["e"], chain)
    chain.append({"m": m, "n": n, "value": cantor1(m, n)})
    return chain[-1]["value"]


def class_bound(alpha, n):
    """Order type of class n of alpha < w^w: the w^n blocks, i.e. w^n*c_n."""
    c = dict(alpha).get(n, 0)
    return ((n, c),) if c else ()


# -- textbook materialization of finite corpus terms -----------------------------------


class _Text:
    def __init__(self, text):
        self.text, self.pos = text, 0

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, ch):
        self.skip()
        if not self.text.startswith(ch, self.pos):
            raise ValueError(f"expected {ch!r} at {self.pos} in {self.text!r}")
        self.pos += len(ch)

    def until(self, stops):
        self.skip()
        start, depth = self.pos, 0
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in "([":
                depth += 1
            elif ch in ")]" and depth > 0:
                depth -= 1
            elif depth == 0 and ch in stops:
                break
            self.pos += 1
        return self.text[start:self.pos].strip()

    def term(self):
        self.skip()
        name = re.match(r"[a-z]+", self.text[self.pos:]).group(0)
        self.pos += len(name)
        if name == "sum":
            self.take("[")
            kids = [self.term()]
            self.skip()
            while self.text.startswith(",", self.pos):
                self.take(",")
                kids.append(self.term())
                self.skip()
            self.take("]")
            return ("sum", tuple(kids))
        self.take("(")
        if name in ("fin", "ord", "shuffle"):
            arg = self.until(")")
            out = ("fin", int(arg)) if name == "fin" else (name, _maybe_ord(arg))
        elif name == "rev":
            out = ("rev", self.term())
        elif name in ("scaled", "pow"):
            first = self.term()
            self.take(",")
            if name == "pow":
                out = ("fin", 1)
                for i in range(int(self.until(")"))):
                    out = first if i == 0 else ("scaled", out, first)
            else:
                out = ("scaled", first, self.term())
        elif name == "finsupp":
            length = _maybe_ord(self.until(","))
            self.take(",")
            inner = self.term()
            self.take(",")
            out = ("finsupp", length, inner, json.loads(self.until(")")))
        else:
            raise ValueError(f"unknown constructor {name!r}")
        self.take(")")
        return out


def _maybe_ord(text):
    """Ordinal tuple below w^w, or None for an infinite ordinal beyond it."""
    try:
        return parse_ord(text)
    except ValueError:
        return None


def parse_text(text):
    return _Text(text).term()


def textbook(t):
    """Encoded elements of a finite term in ascending order, straight from
    the constructor definitions (no comparator involved)."""
    kind = t[0]
    if kind == "fin":
        return list(range(t[1]))
    if kind == "ord":
        return [str(i) for i in range(finite_size(t))]
    if kind == "rev":
        return textbook(t[1])[::-1]
    if kind == "sum":
        return [{"i": k, "e": e} for k, c in enumerate(t[1]) for e in textbook(c)]
    if kind == "scaled":
        inner = textbook(t[1])
        return [{"i": i, "e": e} for i in textbook(t[2]) for e in inner]
    inner, zero = textbook(t[2]), t[3]
    length = finite_size(("ord", t[1]))
    if len(inner) <= 1 or length == 0:
        return [{"supp": []}]
    rows = [[]]
    for p in reversed(range(length)):          # most significant position first
        rows = [row + [(p, v)] for row in rows for v in inner]
    return [{"supp": [{"pos": str(p), "e": v} for p, v in row if v != zero]} for row in rows]


# -- grid graphs ----------------------------------------------------------------------


def neg_graph_params(rng, k, l):
    """Seeded hypothesis families in the documented params JSON format."""
    d, g, u = {}, {}, {}
    for rho in range(k, l):
        take = min(rho, rng.randint(0, 4))
        if take:
            d[str(rho)] = sorted(rng.sample(range(rho), take))
        g[str(rho)] = sorted(rng.sample(range(rho), k))
    for rho in range(l):
        v = rng.randint(0, 3)
        seq = []
        for _ in range(k):
            v += rng.randint(1, 3)
            seq.append(v)
        u[str(rho)] = seq
    return {"k": k, "l": l, "d": d, "u": u, "g": g}


def corner_shaped(edge):
    (a, ra), (b, rb) = edge
    return a < b and rb < ra


def plant_triangle(graph, rng):
    """Add a corner-shaped triangle to a graph in JSON form, growing the
    C-sets so the per-column degree bound still holds."""
    k, l = graph["k"], graph["l"]
    cols = sorted(rng.sample(range(k), 3))
    rows = sorted(rng.sample(range(l), 3), reverse=True)
    verts = [(c, r) for c, r in zip(cols, rows)]
    csets = {(c["row"], c["col"]): c for c in graph["csets"]}
    for (a, ra), (b, rb) in itertools.combinations(verts, 2):
        graph["edges"].append([[a, ra], [b, rb]])
        entry = csets.get((ra, b))
        if entry is None:
            entry = csets[(ra, b)] = {"row": ra, "col": b, "entries": []}
            graph["csets"].append(entry)
        if rb not in entry["entries"]:
            entry["entries"] = sorted(entry["entries"] + [rb])


def edge_set(graph):
    return {frozenset((tuple(a), tuple(b))) for a, b in graph["edges"]}


def is_triangle(edges, witness):
    if witness is None or len({tuple(v) for v in witness}) != 3:
        return False
    return all(frozenset((tuple(x), tuple(y))) in edges
               for x, y in itertools.combinations(witness, 2))


def small_graph(rng, k, l):
    """A corner-shaped graph given by random C-sets (edge ((i, r), (n, x))
    for x in C[r, n], i < n), which may contain triangles."""
    csets, edges = [], []
    for r in range(1, l):
        for n in range(1, k):
            if rng.random() < 0.5:
                entries = sorted(rng.sample(range(r), min(r, rng.randint(1, 2))))
                csets.append({"row": r, "col": n, "entries": entries})
                edges += [[[i, r], [n, x]] for x in entries for i in range(n)]
    return {"k": k, "l": l, "edges": edges, "csets": csets}


def has_triangle(graph):
    adj = {}
    for a, b in graph["edges"]:
        adj.setdefault(tuple(a), set()).add(tuple(b))
        adj.setdefault(tuple(b), set()).add(tuple(a))
    return any(adj[tuple(a)] & adj[tuple(b)] for a, b in graph["edges"])


# -- value trees ----------------------------------------------------------------------

KS_ORACLES = {
    "const": lambda chain: 0,
    "length": lambda chain: len(chain),
    "parity": lambda chain: sum(chain) % 2,
}


def universe(delta, level_bound):
    nodes = [tuple(sorted(c, reverse=True))
             for n in range(1, level_bound + 1)
             for c in itertools.combinations(range(delta), n)]
    return sorted(nodes, key=lambda s: (len(s), s))


def greedy_tree(delta, mu_range, level_bound):
    """Least admissible value per node in search order: values fall into
    parents and rise across siblings.  None when the greedy pass gets stuck."""
    values = {}
    for node in universe(delta, level_bound):
        lo = 0
        sibling = node[:-1] + (node[-1] - 1,)
        if node[-1] > 0 and sibling in values:
            lo = values[sibling] + 1
        hi = values[node[:-1]] if len(node) > 1 else mu_range
        if lo >= hi:
            return None
        values[node] = lo
    return values


def tree_json(delta, values):
    return {"alpha": str(delta),
            "entries": [{"seq": [str(x) for x in s], "val": str(v)}
                        for s, v in sorted(values.items(), key=lambda kv: (len(kv[0]), kv[0]))]}


def tree_from_json(data):
    return {tuple(int(x) for x in e["seq"]): int(e["val"]) for e in data["entries"]}


def tree_ok(values, delta, oracle):
    """Coherent (children below parents, siblings increasing) and every
    chain colour constant on its level."""
    for s, v in values.items():
        if not s or any(x >= delta for x in s) or list(s) != sorted(set(s), reverse=True):
            return False
        if len(s) > 1 and s[:-1] in values and v >= values[s[:-1]]:
            return False
    for s, t in itertools.combinations(values, 2):
        siblings = len(s) == len(t) and s[:-1] == t[:-1]
        if siblings and cmp3(s[-1], t[-1]) != cmp3(values[s], values[t]):
            return False
    levels = {}
    for s in values:
        chain = tuple(values[s[: i + 1]] for i in range(len(s)))
        if levels.setdefault(len(s), oracle(chain)) != oracle(chain):
            return False
    return True
