"""Every public name serves a suite.  Each non-module name in ucp_lab.__all__
is used by the package's code outside its own definition, by the benchmark
workloads under perfbench/, or listed under "Library API" in CONVENTIONS.md."""
import ast
import re
import types
from pathlib import Path

import ucp_lab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ucp_lab"


def referenced_names(path, skip=None):
    """Names, attributes and imports the file's code uses, leaving out the
    top-level definition named skip."""
    out = set()
    for top in ast.parse(path.read_text()).body:
        if getattr(top, "name", None) == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name)
    return out


def exports():
    return [name for name in ucp_lab.__all__
            if not isinstance(getattr(ucp_lab, name), types.ModuleType)]


def library_api():
    text = (ROOT / "CONVENTIONS.md").read_text()
    section = text.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `(\w+)`", section, flags=re.M)


def reached(name):
    """Whether the package outside __init__ and the name's own definition, or
    the benchmark workloads, use the name."""
    home = getattr(ucp_lab, name).__module__.rsplit(".", 1)[-1]
    for path in SRC.glob("*.py"):
        if path.stem != "__init__" and name in referenced_names(
                path, skip=name if path.stem == home else None):
            return True
    return any(name in referenced_names(path) for path in (ROOT / "perfbench").rglob("*.py"))


def test_every_export_is_reached_or_declared_library_api():
    declared = set(library_api())
    assert [name for name in exports() if name not in declared and not reached(name)] == []


def test_library_api_lists_only_unreached_exports():
    listed = library_api()
    assert listed
    for name in listed:
        assert name in exports(), name
        assert not reached(name), f"{name} is reached; drop it from the Library API list"
