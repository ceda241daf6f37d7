"""Print a sha256 for every output file and for the stdout of the six
default suites, each run at seed 42 into a temporary directory.  Run it on
two source trees and diff the two listings to check that a change leaves
every suite output byte-identical:

    python3 tools/suite_digest.py [SRC_DIR]
"""
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SEED = "42"


def suite_digests(cli, root: Path):
    """(name, sha256) of stdout and of every file the suite writes, in path order."""
    for suite in cli.SUITES:
        out = root / suite
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["run", "--suite", suite, "--seed", SEED, "--out", str(out)])
        yield f"{suite} exit", str(code)
        yield f"{suite} stdout", hashlib.sha256(stdout.getvalue().encode()).hexdigest()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            yield (f"{suite} {path.relative_to(out).as_posix()}",
                   hashlib.sha256(path.read_bytes()).hexdigest())


if __name__ == "__main__":
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src.resolve()))
    from ucp_lab import cli
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in suite_digests(cli, Path(tmp)):
            print(f"{digest}  {name}")
