"""Golden digest of the term layer's observable behaviour.

One SHA-256 covers, for every corpus and composite term plus a few shared
and nested ones: the text form, the finite size, the encoded keys of the
samples at budget 48 and seeds 0-2, each sampled element re-encoded after
an encode/decode round trip, the materialized elements of terms with at
most 256 points and the full compare matrix of the seed-0 sample.  The
expected value was re-pinned once for schema ``scatter-calc.v4``, when draws
below 1 stopped reading the random stream and canonical witnesses were
capped, so any other change in what the term layer prints, samples or
decides shows up here.
The test reads only names exported by ``scatter_calc``.
"""

import hashlib
import json

from corpus import COMPOSITE_TEXT, CORPUS_TEXT

from scatter_calc import (
    compare_elements,
    decode_element,
    encode_element,
    materialize,
    parse_term,
    sample_elements,
)

EXTRA_TEXT = [
    "pow(sum[rev(fin(2)), fin(2)], 3)",
    'finsupp(2, scaled(fin(2), rev(fin(2))), {"i": 0, "e": 1})',
    "sum[shuffle(3), rev(finsupp(w, fin(2), 1))]",
    "scaled(pow(rev(ord(w)), 2), pow(fin(2), 2))",
    # sizes at the canonical-pool thresholds: 48 points, and an 8-point inner
    "scaled(fin(6), fin(8))",
    'finsupp(w, pow(fin(2), 3), {"i": 0, "e": {"i": 0, "e": 0}})',
]

GOLDEN = "8cba40a60d60dee94f02f4d497ceab6f7f97b0282351f772864193ecfe09a3e9"


def _key(term, elem):
    return json.dumps(encode_element(term, elem), sort_keys=True, separators=(",", ":"))


def record(text):
    term = parse_term(text)
    size = term.finite_size
    out = {"text": text, "term": term.format(), "size": size}
    for seed in range(3):
        pool = sample_elements(term, 48, seed)
        out[f"sample{seed}"] = [_key(term, e) for e in pool]
        out[f"roundtrip{seed}"] = [
            _key(term, decode_element(term, json.loads(_key(term, e)))) for e in pool]
    if size is not None and size <= 256:
        out["materialize"] = [_key(term, e) for e in materialize(term)]
    pool = sample_elements(term, 48, 0)
    out["compare"] = "".join("<=>"[compare_elements(term, x, y) + 1]
                             for x in pool for y in pool)
    return out


def golden_digest():
    records = [record(text) for text in CORPUS_TEXT + COMPOSITE_TEXT + EXTRA_TEXT]
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def test_term_layer_matches_golden_digest():
    assert golden_digest() == GOLDEN
