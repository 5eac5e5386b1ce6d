import ast
import importlib
import inspect
import subprocess
import sys
import tomllib
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


def _public_defs_and_all(path):
    """(public top-level def and class names, names listed in __all__) of a module."""
    tree = ast.parse(path.read_text())
    defs = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    return defs, listed


def test_every_public_def_is_in_all_and_every_listed_name_exists():
    for path in sorted(SRC.glob("*.py")):
        defs, listed = _public_defs_and_all(path)
        assert listed, f"{path.name} has no __all__"
        assert defs <= listed, (path.name, sorted(defs - listed))
        name = "phaselab" if path.stem == "__init__" else f"phaselab.{path.stem}"
        module = importlib.import_module(name)
        assert [n for n in listed if not hasattr(module, n)] == [], path.name


def test_import_loads_no_thread_pool():
    """concurrent.futures (and the logging it pulls in) is imported only when threads run."""
    probe = "import sys, phaselab.cli; print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=SRC.parent, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]


def test_no_public_rng_parameter_has_a_default():
    """A routine that draws takes its stream from the caller: no hidden seed.

    subset_norm_conjecture is the one exception: its brute mode draws nothing, and
    greedy mode refuses a missing stream.
    """
    defaults = set()
    for path in sorted(SRC.glob("*.py")):
        dotted = "phaselab" if path.stem == "__init__" else f"phaselab.{path.stem}"
        module = importlib.import_module(dotted)
        for name in module.__all__:
            obj = getattr(module, name)
            rng = inspect.signature(obj).parameters.get("rng") if inspect.isfunction(obj) else None
            if rng is not None and rng.default is not inspect.Parameter.empty:
                defaults.add(name)
    assert defaults == {"subset_norm_conjecture"}


def _child_arguments(path):
    """Source of each .child(...) argument that is neither an integer constant nor the name b."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "child":
                for arg in node.args:
                    fixed = isinstance(arg, ast.Constant) and type(arg.value) is int
                    if not (fixed or (isinstance(arg, ast.Name) and arg.id == "b")):
                        found.append(ast.unparse(arg))
    return found


def test_every_child_stream_is_fixed_or_a_block_index():
    """The stream rule (see RngStream): a routine hands a fixed child to each routine it calls,
    or block b of its parallel_blocks loop draws from rng.child(b)."""
    offenders = {p.name: _child_arguments(p) for p in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_detects_a_per_draw_child(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "for d in range(3):\n    f(rng.child(d))\n"
        "g(rng.child(0), rng.child(b), rng.child(draws), rng.child(1.0))\n"
    )
    assert sorted(_child_arguments(probe)) == ["1.0", "d", "draws"]


def test_detects_a_public_def_missing_from_all(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('__all__ = ["listed"]\ndef listed(): pass\ndef unlisted(): pass\nx = 1\n')
    assert _public_defs_and_all(probe) == ({"listed", "unlisted"}, {"listed"})


def _tail_report_builders(path):
    """The top-level def (None outside one) around each TailReport(...) call of a module."""
    found = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "TailReport":
                    found.append(owner)
    return found


def test_only_tail_report_builds_a_tail_report():
    """A bench report's verdict is decided in one place, bench._tail_report."""
    modules = sorted(SRC.glob("*.py"))
    builders = {(p.name, owner) for p in modules for owner in _tail_report_builders(p)}
    assert builders == {("bench.py", "_tail_report")}


def test_detects_a_tail_report_built_elsewhere(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _tail_report():\n    return TailReport()\n"
        "def width_tail_bench():\n    return bench.TailReport(passed=True)\n"
        "REPORT = TailReport()\n"
    )
    assert _tail_report_builders(probe) == ["_tail_report", "width_tail_bench", None]


def _capacity_raisers(path):
    """The top-level def (None outside one) around each `raise CapacityError` of a module."""
    found = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name == "CapacityError":
                    found.append(owner)
    return found


def test_only_the_budget_checks_and_cutoffs_raise_capacity_errors():
    """One refusal rule: a size is refused by check_norm_budget or check_entries, called by the
    routine that allocates, or by one of the three search cutoffs."""
    modules = sorted(SRC.glob("*.py"))
    raisers = {(p.name, owner) for p in modules for owner in _capacity_raisers(p)}
    assert raisers == {
        ("numerics.py", "check_norm_budget"),
        ("numerics.py", "check_entries"),
        ("game.py", "check_bruteforce_size"),
        ("relaxations.py", "subset_norm_conjecture"),  # SUBSET_CUTOFF
        ("attacks.py", "bv_query_dimension"),
    }


def test_detects_a_capacity_error_raised_elsewhere(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def check_entries():\n    raise CapacityError('x')\n"
        "def random_family():\n    if big:\n        raise numerics.CapacityError\n"
        "def other():\n    raise ValueError('x')\n"
        "raise CapacityError('top')\n"
    )
    assert _capacity_raisers(probe) == ["check_entries", "random_family", None]


def _constants_and_reads(path):
    """(UPPER_CASE names assigned at module level, names loaded or read as attributes)."""
    tree = ast.parse(path.read_text())
    assigned = set()
    for node in tree.body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        assigned |= {
            t.id for t in targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
        }
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return assigned, reads


def test_every_module_constant_is_read():
    """Deleting a code path deletes its tuning constants: each one is read somewhere in src/."""
    assigned, reads = set(), set()
    for path in sorted(SRC.glob("*.py")):
        names, loaded = _constants_and_reads(path)
        assigned |= {(path.name, name) for name in names}
        reads |= loaded
    assert len(assigned) > 20
    assert sorted(c for c in assigned if c[1] not in reads) == []


def test_detects_an_unread_constant(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "_BLOCK = 8\nUNREAD: int = 2\nSTALE = 3\nlower = 4\n__all__ = []\n"
        "def f(x):\n    STALE = 5\n    return x[:_BLOCK] + mod.LIMIT\n"
    )
    assigned, reads = _constants_and_reads(probe)
    assert assigned == {"_BLOCK", "UNREAD", "STALE"}
    assert sorted(assigned - reads) == ["STALE", "UNREAD"]


def test_pyproject_version_is_the_package_version():
    """Every record carries phaselab.__version__; pyproject.toml's must be bumped with it."""
    with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == phaselab.__version__
