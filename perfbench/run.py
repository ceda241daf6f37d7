"""ucp-lab benchmark: seeded closed-loop item runs per workload.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 40 --trace 0

One process runs one workload: it imports ucp_lab from ``src/`` of the
checkout, sets the workload up, runs WARMUP untimed items, then runs items
one after another for ``--seconds``.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the environment, the sizes and the
item-level details.  ``--record-references`` rewrites references.json from
the current code instead.  See README.md.
"""
import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

if __name__ == "__main__" and not (SRC / "ucp_lab" / "__init__.py").is_file():
    print(f"error: no ucp_lab package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
import numpy  # noqa: E402
import scipy  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Host load moves all timings by up to 2x for tens of seconds, so set-up is
# sampled at several points of the run: SETUPS set-ups (one before the items,
# the rest after them) and fresh-interpreter imports before, midway through
# and after the items.
SETUPS = 3
WARMUP = 2
IMPORT_PROBE = [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {str(SRC)!r}); import numpy, scipy, ucp_lab"]

E2E_UNITS = {"items_per_s": "1/s", "item_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "pass_frac": "fraction"}


def per_layer_units():
    """Unit of every per-layer metric, in output order."""
    units = {}
    for names, per in ((wl.SETUP_SPANS, "setup"), (wl.ITEM_SPANS, "item")):
        for name in names:
            units[f"{name}.calls"] = f"1/{per}"
            units[f"{name}.self_s"] = f"s/{per}"
            units[f"{name}.share"] = "fraction"
            units[f"{name}.failed"] = "count"
    units.update({name: "bytes" if name.endswith("bytes") else "count"
                  for name in wl.SETUP_COUNTS})
    units.update({name: "1/item" for name in wl.ITEM_COUNTS})
    units["bench.self_s"] = "s/item"
    units["trace.overhead"] = "ratio"
    return units


def environment():
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def import_probe():
    """Wall time for a fresh interpreter to start and import numpy, scipy and
    ucp_lab."""
    start = time.perf_counter()
    subprocess.run(IMPORT_PROBE, check=True)
    return time.perf_counter() - start


def run(workload, seed, seconds, trace, sizes, references):
    """One run of one workload; returns (result line, info record)."""
    setup, item = wl.WORKLOADS[workload]
    tracer = spans.Tracer() if trace else spans.NullTracer()
    null = spans.NullTracer()
    origin = time.perf_counter()
    imports, setup_times = [import_probe()], []

    def build():
        tracer.item = None
        start = time.perf_counter()
        built = setup(tracer, sizes, OUT)
        setup_times.append(time.perf_counter() - start)
        return built

    state = build()

    def one(i, tr):
        rng, k = wl.item_stream(seed, i)
        res = item(tr, state, rng, k)
        res.failures += wl.reference_failures(res.scalars, references[k])
        return res

    def timed(i, tr):
        tr.item = i
        start = time.perf_counter()
        try:
            res = tr.call("item", one, i, tr)
        except Exception as exc:  # an item that raises is a failed item
            res = wl.ItemResult([f"raised {type(exc).__name__}: {exc}"], {})
        return res, time.perf_counter() - start

    warm = [timed(i, null)[0] for i in range(WARMUP)]
    times = {True: [], False: []}
    results = []
    midway = time.perf_counter() + seconds / 2
    deadline = midway + seconds / 2
    i = WARMUP
    while not results or time.perf_counter() < deadline:
        if len(imports) == 1 and time.perf_counter() >= midway:
            imports.append(import_probe())
        traced = bool(trace) and i % 2 == 0
        res, dt = timed(i, tracer if traced else null)
        times[traced].append(dt)
        results.append(res)
        i += 1
    wl.checkpoint_path(OUT).unlink(missing_ok=True)
    imports.append(import_probe())
    for _ in range(SETUPS - 1):
        state = None  # release the previous set-up before building the next
        state = build()

    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    all_times = times[True] + times[False]
    failures = sorted({f for r in warm + results for f in r.failures})
    spreads = [r.spread for r in results if not math.isnan(r.spread)]
    counts = {}
    for r in results:
        for name, v in r.counts.items():
            counts.setdefault(name, set()).add(v)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "sizes": sizes,
        "state_bytes_computed": state.state_bytes,
        "setup_times_s": setup_times, "import_probe_s": imports,
        "items": attempted, "warmup_items": WARMUP, "fail_frac": failed / attempted,
        "item_p50_ms": 1e3 * statistics.median(all_times),
        "failures": failures,
        "sweep_spread_median": statistics.median(spreads) if spreads else None,
        "item_counts_repeat": all(len(v) == 1 for v in counts.values()),
    }

    if not trace:
        deciles = statistics.quantiles(all_times, n=10) if attempted > 1 else all_times * 9
        metrics = {
            "items_per_s": attempted / sum(all_times),
            "item_p90_ms": 1e3 * deciles[8],
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        units = E2E_UNITS
    else:
        metrics = layer_metrics(tracer, state, counts, times, setup_times)
        units = per_layer_units()
        tracer.dump(OUT / f"trace-{workload}-seed{seed}.json", info, origin)
    line = {"correct": not failures and bool(info["item_counts_repeat"]),
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}
    return line, info


def layer_metrics(tracer, state, counts, times, setup_times):
    traced_items = len(times[True])
    item_s = sum(times[True])
    setup_s = sum(setup_times)
    out = {}
    for names, phase, per, total in ((wl.SETUP_SPANS, "setup", len(setup_times), setup_s),
                                     (wl.ITEM_SPANS, "item", traced_items, item_s)):
        stats = tracer.stats(phase)
        for name in names:
            calls, self_s, failed = stats.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = calls / per
            out[f"{name}.self_s"] = self_s / per
            out[f"{name}.share"] = self_s / total
            out[f"{name}.failed"] = failed
    for name in wl.SETUP_COUNTS:
        out[name] = state.counts.get(name, 0)
    for name in wl.ITEM_COUNTS:
        out[name] = max(counts.get(name, {0}))
    out["bench.self_s"] = tracer.stats("item").get("item", (0, 0.0, 0))[1] / traced_items
    untraced = times[False]
    out["trace.overhead"] = ((sum(untraced) / len(untraced)) / (item_s / traced_items)
                             if untraced else 1.0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_references and args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)

    if args.record_references:
        table = {name: wl.record_references(name, wl.SIZES[name], OUT, spans.NullTracer())
                 for name in wl.WORKLOADS}
        REFERENCES.write_text(json.dumps({"sizes": wl.SIZES, "pool": wl.POOL,
                                          "references": table}, indent=1) + "\n")
        return 0

    recorded = json.loads(REFERENCES.read_text())
    if recorded["sizes"] != wl.SIZES or recorded["pool"] != wl.POOL:
        print("error: references.json was recorded for other sizes", file=sys.stderr)
        return 2
    line, info = run(args.workload, args.seed, args.seconds, args.trace,
                     wl.SIZES[args.workload], recorded["references"][args.workload])
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
