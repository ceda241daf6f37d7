import subprocess
import sys
from pathlib import Path

CODE_SIZE = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"


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
