"""Static checks on the package source.

Every module-level import must be used, so that dead code does not linger
behind an import that still looks needed.  No module may read the process
environment: behaviour is selected by explicit arguments (fault injection
goes through ``IterationOptions.flip_jump_sign``), never by a variable that
one caller sets and every other run in the process inherits.  No module
calls ``time.time``: durations come from a monotonic clock, which a step
of the wall clock cannot make negative.  Only
``fields.py`` spells the 17-digit table format, and no module calls
``savetxt``: every CSV table goes through ``fields.write_table``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fblab"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "config.py", "fbiter.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    reads = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr in (
                "environ", "environb", "getenv") \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "os":
            reads.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(a.name in ("environ", "environb", "getenv")
                        for a in node.names):
            reads.append(node.lineno)
    assert not reads, f"{path.name}: environment read at lines {reads}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "fields.py"],
    ids=lambda p: p.name)
def test_table_format_only_in_fields(path):
    text = path.read_text()
    assert "17g" not in text, f"{path.name}: spells the table format"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_savetxt(path):
    calls = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call)
             and "savetxt" in (getattr(node.func, "attr", None),
                               getattr(node.func, "id", None))]
    assert not calls, f"{path.name}: savetxt called at lines {calls}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_wall_clock_durations(path):
    calls = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr == "time" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "time":
            calls.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "time" \
                and any(a.name == "time" for a in node.names):
            calls.append(node.lineno)
    assert not calls, f"{path.name}: time.time used at lines {calls}"
