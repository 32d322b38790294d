"""Re-measure the ROADMAP baseline readings that the traced run covers.

    python3 perfbench/baseline.py

Prints, beside each ROADMAP reading, the harness's value: checked
compare_elements in µs/op on sampled pairs of the four named terms
(untimed sampling, median of 5 timed passes), and build / triangle check /
corner check seconds for a k=8, l=400 grid graph from the benchmark's
params generator (median of 3).  These are raw wall-clock figures; the
run's reference pass time is printed with them, since the host's speed
drifts.  Nothing is written.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import run

ROADMAP_COMPARE_US = {
    "scaled(scaled(ord(w),ord(w)),ord(w))": 14.0,
    "finsupp(w^2,fin(3),1)": 29.1,
    "shuffle(w^2)": 27.9,
    "sum[ord(w^2),rev(ord(w^2))]": 4.0,
}
ROADMAP_GRID_S = {"build": 0.33, "triangle": 0.50, "corner": 0.82}
ROADMAP_GRID_EDGES = 139_000


def compare_us(sc, text, pairs=20_000, passes=5):
    term = sc.parse_term(text)
    pool = sc.sample_elements(term, 48, 0)
    rng = random.Random(0)
    sample = [(rng.choice(pool), rng.choice(pool)) for _ in range(pairs)]
    times = []
    for _ in range(passes):
        start = perf_counter()
        for x, y in sample:
            sc.compare_elements(term, x, y)
        times.append(perf_counter() - start)
    return statistics.median(times) / pairs * 1e6


def grid_s(sc, oracles, repeats=3):
    params = sc.NegGraphParams.from_json(oracles.neg_graph_params(random.Random(0), 8, 400))
    phases = {"build": [], "triangle": [], "corner": []}
    for _ in range(repeats):
        start = perf_counter()
        graph = sc.build_neg_graph(params)
        built = perf_counter()
        assert sc.check_triangle_free(graph) is None
        checked = perf_counter()
        assert sc.check_corner_invariant(graph) is None
        phases["build"].append(built - start)
        phases["triangle"].append(checked - built)
        phases["corner"].append(perf_counter() - checked)
    return {k: statistics.median(v) for k, v in phases.items()}, len(graph.edges)


def main():
    sc = run.load_package()
    import oracles
    print(f"{'reading':48s} {'ROADMAP':>10s} {'harness':>10s}")
    for text, roadmap in ROADMAP_COMPARE_US.items():
        label = "compare_elements us/op " + text
        print(f"{label:48s} {roadmap:10.2f} {compare_us(sc, text):10.2f}")
    times, edges = grid_s(sc, oracles)
    for phase, roadmap in ROADMAP_GRID_S.items():
        print(f"{'grid k=8 l=400 ' + phase + ' s':48s} {roadmap:10.2f} {times[phase]:10.3f}")
    print(f"{'grid k=8 l=400 edges':48s} {ROADMAP_GRID_EDGES:10d} {edges:10d}")
    probe = run.SpeedProbe()
    for _ in range(21):
        probe.sample()
    pass_ms = statistics.median(probe.samples) * 1e3
    print(f"{'reference pass ms (median of 21)':48s} {'':10s} {pass_ms:10.3f}")


if __name__ == "__main__":
    main()
