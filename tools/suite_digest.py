"""Print a sha256 for every output file and for the stdout of the six
default suites, of decay at perturbation = pointwise and rank-one, of
carleman at perturbation = pointwise and of sw-gradcheck, sw-flow and
observables at N = 8, each run at seed 42 into a temporary directory,
one for the sw-flow checkpoint as load_checkpoint reads it back, and one
for the first items of each benchmark workload at a fixed seed.
Run it on two source trees and diff the two listings to check that a change
leaves every suite output, the checkpoint load and every benchmark item
bit-identical.  The torus suites write other bytes with another BLAS thread
count, so it runs with OPENBLAS_NUM_THREADS=1 unless the caller set the
variable, and prints the value it ran under as its first line:

    python3 tools/suite_digest.py [SRC_DIR]
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# before numpy loads: OpenBLAS reads the variable once, at load time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

SEED = "42"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_SEED, BENCH_ITEMS = 3, 4


# runs beyond the defaults: (label, suite, config text)
VARIANTS = [("decay[pointwise]", "decay", "perturbation = pointwise\n"),
            ("decay[rank-one]", "decay", "perturbation = rank-one\n"),
            ("carleman[pointwise]", "carleman", "perturbation = pointwise\n"),
            # the torus suites at the benchmark's N, whose bytes depend on the BLAS thread count
            ("sw-gradcheck[N=8]", "sw-gradcheck", "N = 8\n"),
            ("sw-flow[N=8]", "sw-flow", "N = 8\n"),
            ("observables[N=8]", "observables", "N = 8\n")]


def suite_digests(cli, root: Path):
    """(name, sha256) of stdout and of every file the suite writes, in path
    order, for each default suite and each of VARIANTS."""
    runs = [(suite, suite, None) for suite in cli.SUITES] + VARIANTS
    for label, suite, config in runs:
        out = root / label
        args = ["run", "--suite", suite, "--seed", SEED, "--out", str(out)]
        if config is not None:
            path = root / f"{label}.cfg"
            path.write_text(config)
            args += ["--config", str(path)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(args)
        yield f"{label} exit", str(code)
        yield f"{label} stdout", hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            yield (f"{label} {path.relative_to(out).as_posix()}",
                   hashlib.sha256(path.read_bytes()).hexdigest())


def checkpoint_digest(root: Path):
    """(name, sha256) of the alpha and psi bytes that load_checkpoint reads
    back from the sw-flow suite's flow_final.ckpt under root."""
    from ucp_lab.checkpoint import load_checkpoint
    config, _ = load_checkpoint(root / "sw-flow" / "flow_final.ckpt")
    digest = hashlib.sha256(config.alpha.tobytes() + config.psi.tobytes()).hexdigest()
    return "sw-flow flow_final.ckpt read back", digest


def bench_digests(root: Path):
    """(name, sha256) per benchmark workload over its first BENCH_ITEMS items
    at BENCH_SEED: each item's failed checks and the float.hex of every
    reference scalar, so equal digests mean bit-identical items.  The
    workloads are imported without writing bytecode next to them, and the
    torus items write their checkpoint under root."""
    sys.dont_write_bytecode = True
    sys.path.append(str(BENCH))
    import spans
    import workloads as wl
    tracer = spans.NullTracer()
    for workload, (setup, item) in wl.WORKLOADS.items():
        state = setup(tracer, wl.SIZES[workload], root)
        digest = hashlib.sha256()
        for i in range(BENCH_ITEMS):
            rng, k = wl.item_stream(BENCH_SEED, i)
            res = item(tracer, state, rng, k)
            scalars = {group: [float(v).hex() for v in values]
                       for group, values in sorted(res.scalars.items())}
            digest.update(repr((res.failures, scalars)).encode())
        yield f"bench {workload}", digest.hexdigest()


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from ucp_lab import cli
    print(f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in suite_digests(cli, Path(tmp)):
            print(f"{digest}  {name}")
        name, digest = checkpoint_digest(Path(tmp))
        print(f"{digest}  {name}")
        for name, digest in bench_digests(Path(tmp)):
            print(f"{digest}  {name}")
