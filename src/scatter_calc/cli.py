"""Command-line front end.

Every command prints a JSON certificate.  Each verb returns only its own
keys and its exit code; ``main`` adds the one reproducibility header
(schema, command and seed; the schema fixes the pairing, ``cantor1``, and
the fundamental sequences, ``wainer-cnf``) and writes the result.  Exit
codes: 0 success or verified-ok, 1 usage or input error, 2 a verification
witness was found.  A lone ``-`` means stdin or stdout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import shutil
import sys

from .errors import InvalidInput, ScatterCalcError
from . import antilex, milner_rado, neg_graph, partition, terms
from .ordinal import format_ordinal, parse_ordinal

SCHEMA = "scatter-calc.v4"


class _CliParser(argparse.ArgumentParser):
    def error(self, message):   # one line, like every other refusal
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _element(term, raw: str):
    return terms.decode_element(term, json.loads(raw))


_COMPARE_WORD = {-1: "Less", 0: "Equal", 1: "Greater"}


# -- command bodies: each returns (its own certificate keys, exit code) -------------


def cmd_parse(args):
    term = terms.parse_term(args.term)
    text = term.format()
    size = term.finite_size
    if size is not None and size > terms.SIZE_LIMIT:
        raise terms.TermError(f"finite size has more than {len(str(terms.SIZE_LIMIT))} digits")
    return {"term": text, "finite_size": size}, 0


def cmd_compare(args):
    term = terms.parse_term(args.term)
    a = _element(term, args.a)
    b = _element(term, args.b)
    result = terms.compare_elements(term, a, b)
    return {"term": term.format(), "result": _COMPARE_WORD[result]}, 0


def cmd_sample(args):
    term = terms.parse_term(args.term)
    sample = terms.sample_elements(term, args.budget, args.seed)
    return {"term": term.format(),
            "elements": [terms.encode_element(term, e) for e in sample]}, 0


def cmd_embed_search(args):
    pattern = terms.parse_term(args.pattern)
    target_term = terms.parse_term(args.term)
    sample = terms.sample_elements(target_term, args.budget, args.seed)
    mapping = terms.search_embedding(
        pattern, sample, lambda x, y: terms.compare_elements(target_term, x, y))
    return {
        "pattern": pattern.format(),
        "term": target_term.format(),
        "found": mapping is not None,
        "embedding": None if mapping is None else [
            {"pattern": terms.encode_element(pattern, p),
             "target": terms.encode_element(target_term, t)}
            for p, t in mapping
        ],
    }, 0


def cmd_sierpinski(args):
    tags = json.loads(args.tags)
    if not (isinstance(tags, list) and all(type(t) is int for t in tags)):
        raise InvalidInput("tags", f"expected a JSON list of integers, got {args.tags}")
    colour = partition.sierpinski_coloring(tags)
    return {"coloring": {
        "elements": list(range(len(tags))),
        "colour_count": 2,
        "pairs": [{"a": i, "b": j, "c": colour(i, j)}
                  for i, j in itertools.combinations(range(len(tags)), 2)],
    }}, 0


def cmd_extract_unary(args):
    request = json.loads(_read(args.input))
    if not isinstance(request, dict):
        raise InvalidInput("request", 'expected {"p": ..., "nu": ..., "F": [...]}')
    for name in ("p", "nu"):
        if type(request.get(name)) is not int:
            raise InvalidInput(name, f"expected an integer, got {request.get(name)!r}")
    if not isinstance(request.get("F"), list):
        raise InvalidInput("F", "expected a list")
    for item in request["F"]:
        if not (isinstance(item, dict) and isinstance(item.get("g"), list)
                and all(type(x) is int for x in item["g"])):
            raise InvalidInput("F", f'{item!r} is not {{"g": [integers], "c": colour}}')
    p, nu = request["p"], request["nu"]
    table = {tuple(item["g"]): item["c"] for item in request["F"]}
    witness, colour = partition.extract_unary(range(p), nu, table.__getitem__)
    return {"witness": [list(g) for g in witness], "colour": colour}, 0


def _step_up_colour(seed: int, x, y) -> int:
    """Colour of the pair {x, y} of P x R in the ``step-up`` verb: the low bit
    of the one-byte BLAKE2b digest of ``json.dumps([seed, low, high])``,
    where low < high in the lexicographic order of P x R."""
    low, high = (x, y) if x < y else (y, x)
    digest = hashlib.blake2b(json.dumps([seed, low, high]).encode(), digest_size=1)
    return digest.digest()[0] & 1


def cmd_step_up(args):
    seed, p = args.seed, args.p
    if p < 1:
        raise partition.PartitionError(f"step-up needs --p of at least 1, got {p}")
    result = partition.step_up_extract(range(p), lambda x, y: _step_up_colour(seed, x, y))
    return {"side": result.side, "witness": [[a, list(b)] for a, b in result.witness]}, 0


def cmd_mr_label(args):
    term = terms.parse_term(args.term)
    elem = _element(term, args.elem)
    label, trace = milner_rado.mr_label_term_trace(term, elem)
    return {"term": term.format(), "label": label,
            "chain": [{"m": m, "n": n, "value": v} for m, n, v in trace]}, 0


def cmd_mr_bound(args):
    alpha = parse_ordinal(args.alpha)
    bound = milner_rado.mr_class_type_bound(alpha, args.n)
    return {"alpha": format_ordinal(alpha), "n": args.n, "bound": format_ordinal(bound)}, 0


def cmd_ks_check(args):
    term = terms.parse_term(args.term)
    sample = terms.sample_elements(term, args.budget, args.seed)
    classes = milner_rado.mr_labeling(term, sample)
    ok = milner_rado.ks_omega_check(classes, args.n)
    return {"term": term.format(), "n": args.n, "ok": ok}, 0 if ok else 2


def cmd_neg_graph(args):
    if args.action == "build":
        params = neg_graph.NegGraphParams.from_json(json.loads(_read(args.params)))
        return {"graph": neg_graph.build_neg_graph(params).to_json()}, 0
    # check
    data = json.loads(_read(args.graph))
    if isinstance(data, dict) and "graph" in data:     # a build certificate
        data = data["graph"]
    graph = neg_graph.GridGraph.from_json(data)
    triangle = neg_graph.check_triangle_free(graph)
    corner = neg_graph.check_corner_invariant(graph)
    return {
        "triangle_free": triangle is None,
        "corner_ok": corner is None,
        "triangle_witness": None if triangle is None else [list(v) for v in triangle],
        "corner_witness": None if corner is None else [list(v) for v in corner],
    }, 0 if triangle is None and corner is None else 2


_KS_ORACLES = {
    "const": lambda chain: 0,
    "length": lambda chain: len(chain),
    "parity": lambda chain: sum(chain) % 2,
}


def cmd_ks(args):
    if args.action == "search":
        found = antilex.search_alpha_tree(_KS_ORACLES[args.oracle], args.delta,
                                          args.mu_range, args.level_bound)
        if found is None:
            return {"oracle": args.oracle, "found": False}, 0
        tree, colours = found
        return {"oracle": args.oracle, "found": True, "tree": tree.to_json(),
                "levels": {str(k): v for k, v in sorted(colours.items())}}, 0
    if args.action == "embed":
        for name in ("source_host", "target_host", "f"):
            if getattr(args, name) is None:
                raise InvalidInput("--" + name.replace("_", "-"), "required by ks embed")
        tree = antilex.AlphaTree.from_json(json.loads(_read(args.tree)))
        witness = antilex.validate_alpha_tree(tree)
        if witness is not None:
            raise antilex.AntilexError(f"tree is not coherent: {witness[0]}")
        source = terms.parse_term(args.source_host)
        target = terms.parse_term(args.target_host)
        if not isinstance(source, terms.FinSupp) or not isinstance(target, terms.FinSupp):
            raise ScatterCalcError("hosts must be finsupp(...) terms")
        image = antilex.ks_embed(tree, source, _element(source, args.f), target)
        return {"image": terms.encode_element(target, image)}, 0
    # verify: re-run the searched tree against its oracle on all chains
    tree = antilex.AlphaTree.from_json(json.loads(_read(args.tree)))
    oracle = _KS_ORACLES[args.oracle]
    witness = antilex.validate_alpha_tree(tree)
    levels: dict = {}
    ok = witness is None
    if ok:
        for seq in sorted(tree.entries, key=lambda s: (len(s), s)):
            chain = tuple(tree.value(seq[:i + 1]).as_int() for i in range(len(seq)))
            colour = oracle(chain)
            level = len(seq) - 1
            if level in levels and levels[level] != colour:
                ok = False
                break
            levels[level] = colour
    tree_witness = None if witness is None else [witness[0]] + [
        [format_ordinal(x) for x in seq] for seq in witness[1:]]
    return {"ok": ok, "tree_witness": tree_witness}, 0 if ok else 2


# -- wiring ---------------------------------------------------------------------------


def _arg(*names, **options):
    return names, options


# verb -> (command, help, its arguments as (names, add_argument options)), in
# the order the verbs are listed in the help
_VERBS = {
    "parse": (cmd_parse, "parse a term and echo its canonical form", [
        _arg("--term", required=True)]),
    "compare": (cmd_compare, "compare two elements of a term", [
        _arg("--term", required=True),
        _arg("--a", required=True, help="JSON element encoding"),
        _arg("--b", required=True, help="JSON element encoding")]),
    "sample": (cmd_sample, "deterministic sorted sample of a term", [
        _arg("--term", required=True),
        _arg("--budget", type=int, default=20),
        _arg("--seed", type=int, default=None)]),
    "embed-search": (cmd_embed_search, "search a finite pattern inside a sampled fragment", [
        _arg("--pattern", required=True),
        _arg("--term", required=True),
        _arg("--budget", type=int, default=40),
        _arg("--seed", type=int, default=None)]),
    "sierpinski": (cmd_sierpinski, "emit the order-vs-tag pair colouring", [
        _arg("--tags", required=True, help="JSON list of injective naturals")]),
    "extract-unary": (cmd_extract_unary, "monochromatic copy inside a lexicographic power", [
        _arg("--input", default="-", help="JSON {p, nu, F}")]),
    "step-up": (cmd_step_up, "run the pair extraction on a seeded random colouring", [
        _arg("--p", type=int, default=4),
        _arg("--n", type=int, default=2, choices=(2,),
             help="the one-side witness has n + 1 points; only 2 is supported"),
        _arg("--seed", type=int, default=None)]),
    "mr-label": (cmd_mr_label, "decomposition label of a term element", [
        _arg("--term", required=True),
        _arg("--elem", required=True, help="JSON element encoding")]),
    "mr-bound": (cmd_mr_bound, "symbolic class-size bound", [
        _arg("--alpha", required=True),
        _arg("--n", type=int, required=True)]),
    "ks-check": (cmd_ks_check, "class-size check in a labelled sample", [
        _arg("--term", required=True),
        _arg("--n", type=int, required=True),
        _arg("--budget", type=int, default=40),
        _arg("--seed", type=int, default=None)]),
    "neg-graph": (cmd_neg_graph, "build or check the grid graph", [
        _arg("action", choices=("build", "check")),
        _arg("--params", default="-", help="params JSON (build)"),
        _arg("graph", nargs="?", default="-", help="graph JSON (check)")]),
    "ks": (cmd_ks, "value-tree search, embedding and verification", [
        _arg("action", choices=("search", "embed", "verify")),
        _arg("--delta", type=int, default=2),
        _arg("--mu-range", dest="mu_range", type=int, default=6),
        _arg("--level-bound", dest="level_bound", type=int, default=2),
        _arg("--oracle", default="const", choices=sorted(_KS_ORACLES)),
        _arg("--tree", default="-", help="tree JSON file"),
        _arg("--source-host", dest="source_host", default=None),
        _arg("--target-host", dest="target_host", default=None),
        _arg("--f", default=None, help="JSON element of the source host")]),
}


def build_parser(verb=None) -> _CliParser:
    """The ``scatter-calc`` parser, with the terminal width read once.

    Every verb is registered, so the top-level help, the missing-verb error
    and the invalid-choice error list them all.  But argparse only ever
    parses the verb named first, so when ``verb`` names one, only that
    verb's subparser gets ``--out`` and its own arguments; adding the other
    verbs' arguments was most of the cost of a call.  With no ``verb``, or
    a word that is no verb, every subparser gets its arguments.

    argparse builds a help formatter for every argument it adds, and each
    formatter asks the terminal for its width.  So the width is read here,
    as argparse reads it, and every parser gets a formatter fixed at it.  A
    parser kept across calls would freeze that width, so one built once per
    process must read it at format time.
    """
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    parser = _CliParser(prog="scatter-calc", formatter_class=formatter,
                        description="scattered order calculator and verifiers")
    sub = parser.add_subparsers(dest="verb", required=True)
    every = verb not in _VERBS
    for name, (fn, help_text, arguments) in _VERBS.items():
        p = sub.add_parser(name, formatter_class=formatter, help=help_text)
        p.set_defaults(fn=fn)
        if every or name == verb:
            p.add_argument("--out", default="-", help="output file, - for stdout")
            for names, options in arguments:
                p.add_argument(*names, **options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if "seed" in args and args.seed is None:    # only verbs that declare --seed
            env = os.environ.get("SCATTER_CALC_SEED")
            args.seed = int(env) if env else 0
        fields, code = args.fn(args)
        payload = {
            "schema": SCHEMA,
            "command": f"{args.verb} {args.action}" if "action" in args else args.verb,
            "seed": getattr(args, "seed", None),
            **fields,
        }
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if args.out and args.out != "-":
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (ScatterCalcError, KeyError, ValueError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
