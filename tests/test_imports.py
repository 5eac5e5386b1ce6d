import ast
from pathlib import Path

import phaselab

SRC = Path(phaselab.__file__).resolve().parent


def _private_imports(path):
    """(module, name) for each _-prefixed name imported from another phaselab module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("phaselab"):
            continue
        for alias in node.names:
            dunder = alias.name.startswith("__") and alias.name.endswith("__")
            if alias.name.startswith("_") and not dunder:
                found.append((node.module, alias.name))
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: _private_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_detects_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .game import _BLOCK, sign_rows\nfrom . import __version__\n")
    assert _private_imports(probe) == [("game", "_BLOCK")]
