"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Records tiny-size references in memory from the current code, then checks
that: every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit; a clean run has no failed item; a corrupted reference
value makes items fail; the computed counts repeat exactly across seeds.
Exits 0 when all hold.
"""
import copy
import json
import sys

import run
from run import spans, wl

TINY = {
    "torus": {"N": 2},
    "interval": {"T": 0.1, "sweep_n_t": 65, "r_points": 3, "samples": 2,
                 "ode_n_t": 65, "appendix_n_t": 65, "appendix_records": 2,
                 "peano_n": 65, "rank_one_n": 131073},
    "annulus": {"T": 0.5, "n_t": 17, "n_theta": 8, "r_points": 3, "samples": 1,
                "appendix_R": 20.0},
}
SECONDS = 0.3


def expect(ok, message):
    if not ok:
        raise AssertionError(message)


def declared(section):
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emitted(line):
    return {name: m["unit"] for name, m in line["metrics"].items()}


def main():
    run.OUT.mkdir(exist_ok=True)
    e2e, layer = declared("end_to_end"), declared("per_layer")
    computed = wl.SETUP_COUNTS + wl.ITEM_COUNTS
    for name in wl.WORKLOADS:
        sizes = TINY[name]
        refs = wl.record_references(name, sizes, run.OUT, spans.NullTracer())

        line, _ = run.run(name, 1, SECONDS, 0, sizes, refs)
        expect(emitted(line) == e2e, f"{name}: end-to-end metrics differ from BENCHMARK.json")
        expect(line["correct"] and line["failed"] == 0, f"{name}: clean run failed: {line}")

        counts = []
        for seed in (1, 2):
            line, info = run.run(name, seed, SECONDS, 1, sizes, refs)
            expect(emitted(line) == layer, f"{name}: per-layer metrics differ from BENCHMARK.json")
            expect(line["correct"], f"{name}: traced run failed: {info['failures']}")
            counts.append({c: line["metrics"][c]["value"] for c in computed})
        expect(counts[0] == counts[1], f"{name}: computed counts differ: {counts}")

        bad = copy.deepcopy(refs)
        k = wl.item_stream(1, run.WARMUP)[1]
        group = next(iter(bad[k]))
        bad[k][group][0] *= 1.0 + 1e-6
        line, info = run.run(name, 1, SECONDS, 0, sizes, bad)
        fail_frac = 1.0 - line["metrics"]["pass_frac"]["value"]
        expect(fail_frac > 0.0 and f"reference-{group}" in info["failures"],
               f"{name}: corrupted reference went unnoticed")
        print(f"selftest {name}: ok ({info['items']} items, fail_frac {fail_frac:.3f} "
              f"with a corrupted reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
