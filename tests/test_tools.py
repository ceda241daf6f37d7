import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from ucp_lab import (carleman, checkpoint, cli, counterexamples, operators, perturbations,
                     torus)

CODE_SIZE = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"
KERNELS = CODE_SIZE.with_name("kernels.py")


def run_code_size(*args):
    return subprocess.run([sys.executable, str(CODE_SIZE), *args],
                          capture_output=True, text=True, timeout=120)


def test_code_size_rejects_an_argument_that_is_not_a_source_dir(tmp_path):
    for args in (["--help"], [str(tmp_path)], [str(tmp_path / "missing")],
                 [str(CODE_SIZE.parents[1] / "src"), "extra"]):
        res = run_code_size(*args)
        assert res.returncode == 2, args
        assert res.stdout == "" and res.stderr.startswith("usage: "), args


def test_code_size_reads_the_source_dir():
    res = run_code_size(str(CODE_SIZE.parents[1] / "src"))
    assert res.returncode == 0, res.stderr
    names = [line.split(":")[0] for line in res.stdout.splitlines()]
    assert names == ["src lines", "defaulted parameters", "config keys"]


def load_kernels():
    spec = importlib.util.spec_from_file_location("kernels", KERNELS)
    kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(kernels)
    return kernels


def test_every_kernel_runs_against_the_source_tree(tmp_path):
    """tools/kernels.py builds each layer's kernels at a small size and every
    kernel runs once, so the tool follows the package's API."""
    kernels = load_kernels()
    built = {**kernels.torus_kernels(torus, checkpoint, 2, tmp_path),
             **kernels.annulus_kernels(carleman, operators, perturbations, 33, 16),
             **kernels.interval_kernels(carleman, operators, perturbations, counterexamples,
                                        cli)}
    assert "run_flow_1_semi_implicit" in built
    for fn in built.values():
        fn()


def test_kernel_cost_has_every_unit_and_the_traced_peak():
    """A kernel's cost carries each key the tool states a unit for; peak_mb
    is the traced peak of a call, here one 2 MB array."""
    kernels = load_kernels()
    cost = kernels.median_cost(lambda: np.ones(250_000))
    assert set(cost) == set(kernels.UNITS) == {"ms", "minflt", "peak_mb"}
    assert 2.0 <= cost["peak_mb"] < 2.1
