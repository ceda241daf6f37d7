"""Print the three code-size numbers ROADMAP.md tracks for src/: the line
count of its Python files, the number of function parameters that have a
default value, counted with ast, and the number of config keys over all
suites of ucp_lab.cli.SUITES.  Any argument other than one directory
holding ucp_lab/ exits 2 with a usage line.

    python3 tools/code_size.py [SRC_DIR]
"""
import ast
import sys
from pathlib import Path


def code_size(src: Path):
    lines = defaulted = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
    return lines, defaulted


def config_keys(src: Path) -> int:
    sys.path.insert(0, str(src.resolve()))
    from ucp_lab import cli
    return sum(len(defaults) for _, defaults, _ in cli.SUITES.values())


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    if len(sys.argv) > 2 or not (root / "ucp_lab").is_dir():
        print("usage: python3 tools/code_size.py [SRC_DIR], where SRC_DIR holds ucp_lab/",
              file=sys.stderr)
        sys.exit(2)
    lines, defaulted = code_size(root)
    print(f"src lines: {lines}")
    print(f"defaulted parameters: {defaulted}")
    print(f"config keys: {config_keys(root)}")
