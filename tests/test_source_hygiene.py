"""Static checks on the package source.

Every module-level import must be used, so that dead code does not linger
behind an import that still looks needed.  No module may read the process
environment: behaviour is selected by explicit arguments, never by a
variable that one caller sets and every other run in the process inherits;
fault injection is input data, such as the negated level set of
``verify``'s negative control, not an option.  No module
calls ``time.time``: durations come from a monotonic clock, which a step
of the wall clock cannot make negative.  Only
``fields.py`` spells the 17-digit table format, and no module calls
``savetxt``: a field file goes through ``fields.write_field`` and every
other CSV table through ``fields.write_table``.  SciPy is reached one
way: the only scipy import statement is a module-level ``import scipy``,
and each submodule is an attribute at its call site, so it loads on first
use and ``fblab diagnose`` loads none of ``scipy.sparse``,
``scipy.spatial``, ``scipy.fft`` and ``scipy.optimize``.  Only
``prandtl.py`` reaches ``scipy.optimize``, and never at import time: the
two-plane fit solves its LPs in-house, so ``fblab solve`` does not load it
either.  Every
public function, class and method is named by the package or the
benchmark, apart from a few kept for a stated reason: an API that only
tests reach is code nothing needs.  Every private module-level function,
class and constant is read by the package or the benchmark: a helper left
behind when its caller goes is dead code.  Every parameter is read by its
function, apart from an interface's that a caller passes to every
implementation: an argument nothing reads is a knob that does nothing.
Only ``diagnostics.ball_quadrature`` integrates over the balls, through
``_cell_energy`` and ``boundary_square_integral``: the Weiss and ACF
monitors are arithmetic on its rows, so no monitor integrates a field of
its own.
"""

import ast
import fnmatch
import pathlib
import re
import textwrap

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


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: every one outside a
    function body, under ``if``, ``try`` or a class included, and the
    decorators and default values of each function and lambda."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        found.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            todo.extend(getattr(node, "decorator_list", []))
            todo.extend(node.args.defaults)
            todo.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        todo.extend(ast.iter_child_nodes(node))
    return found


def _all_nodes(tree):
    """Every node of ``tree``, at any depth."""
    return list(ast.walk(tree))


def _scipy_names(node):
    """Dotted names that ``node`` imports or, as ``scipy.<attr>``, spells;
    ``from scipy import optimize`` names scipy.optimize."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [f"{'.' * node.level}{node.module or ''}.{alias.name}"
                for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "scipy":
        return [f"scipy.{node.attr}"]
    return []


def _optimize_uses(tree, nodes=_import_time_nodes):
    """Lines where ``nodes(tree)``, by default those that run at import
    time, import scipy.optimize or reach it as an attribute of scipy."""
    return sorted({node.lineno for node in nodes(tree)
                   if any((name + ".").startswith("scipy.optimize.")
                          for name in _scipy_names(node))})


def _scipy_imports(tree):
    """Lines of the import statements, at any depth, that name scipy or a
    scipy submodule, other than a module-level ``import scipy``."""
    allowed = [node for node in tree.body if isinstance(node, ast.Import)
               and [(a.name, a.asname) for a in node.names]
               == [("scipy", None)]]
    return sorted(node.lineno for node in _all_nodes(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and node not in allowed
                  and any(name.split(".")[0] == "scipy"
                          for name in _scipy_names(node)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_imported_one_way(path):
    lines = _scipy_imports(_tree(path))
    assert not lines, "; ".join(
        f"{path.name}:{line} imports scipy another way: import scipy at "
        f"module level and reach its submodules as attributes where they "
        f"are called" for line in lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_time_optimize(path):
    lines = _optimize_uses(_tree(path))
    assert not lines, "; ".join(
        f"{path.name}:{line} uses scipy.optimize at import time: reach it "
        f"inside the function that finds the root" for line in lines)


def test_import_time_optimize_found():
    module = ast.parse(textwrap.dedent("""
        import scipy.optimize
        from scipy import optimize, sparse
        from scipy.optimize import linprog
        import scipy.sparse
        from .optimize import step
        try:
            from scipy.optimize._linprog import linprog
        except ImportError:
            pass

        class Solver:
            from scipy.optimize import brentq

        def polish():
            from scipy.optimize import linprog
            return linprog

        import scipy
        import scipy as sp
        import numpy, scipy
        from . import fields
        ROOT = scipy.optimize.brentq

        @scipy.optimize.fixture
        def search(tol=scipy.optimize.tol):
            return scipy.optimize.brentq(tol)

        spy = lambda *, f=scipy.optimize: f
        late = lambda: scipy.optimize.brentq
        tree = scipy.spatial.cKDTree
    """))
    assert _optimize_uses(module) == [2, 3, 4, 8, 13, 23, 25, 26, 29]
    assert _optimize_uses(module, _all_nodes) == [
        2, 3, 4, 8, 13, 16, 23, 25, 26, 27, 29, 30]
    assert _scipy_imports(module) == [2, 3, 4, 5, 8, 13, 16, 20, 21]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "prandtl.py"],
    ids=lambda p: p.name)
def test_optimize_only_in_prandtl(path):
    lines = _optimize_uses(_tree(path), _all_nodes)
    assert not lines, f"{path.name}: uses scipy.optimize at lines {lines}"


# the ball integrals, and the one function that may use them
BALL_INTEGRALS = ("_cell_energy", "boundary_square_integral")
INTEGRATOR = "ball_quadrature"


def _integral_users(tree):
    """(owner, name, line) of each use of a ball integral in ``tree``; the
    owner is the top-level definition that holds it, None at module level.
    """
    found = []
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = getattr(sub, "id", None) if isinstance(sub, ast.Name) \
                else getattr(sub, "attr", None)
            if name in BALL_INTEGRALS:
                found.append((owner, name, sub.lineno))
    return found


def test_only_ball_quadrature_integrates():
    found = [f"{path.name}:{line} {owner} uses {name}"
             for path in MODULES
             for owner, name, line in _integral_users(_tree(path))
             if owner != INTEGRATOR]
    assert not found, f"only {INTEGRATOR} may integrate: {found}"


def test_integral_user_found():
    module = ast.parse(textwrap.dedent("""
        def ball_quadrature(u):
            return _cell_energy(u)

        def acf_product(u):
            return diagnostics.boundary_square_integral(u)

        energy = _cell_energy
    """))
    assert _integral_users(module) == [
        ("ball_quadrature", "_cell_energy", 3),
        ("acf_product", "boundary_square_integral", 6),
        (None, "_cell_energy", 8)]


PERFBENCH = SRC.parent.parent / "perfbench"
# the production paths: the package and the benchmark's non-test modules
PRODUCTION = MODULES + [PERFBENCH / f"{name}.py"
                        for name in ("run", "child", "workloads", "tracer")]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

# Public names that no production path reaches, each kept for a reason.
REACHED_BY_TESTS_ONLY = {
    # builds variable-coefficient fields, for Hölder coefficient studies
    "from_functions",
    # the oracle profile's derivative: tests check that it solves its ODE
    "du",
}


def _public_definitions(tree):
    """(name, line) of the module's public top-level functions and classes
    and of the public methods of its top-level classes."""
    defs = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs.extend(item for item in node.body
                        if isinstance(item, ast.FunctionDef))
    return [(d.name, d.lineno) for d in defs if not d.name.startswith("_")]


class _References(ast.NodeVisitor):
    """Names used through ``Name`` and ``Attribute`` nodes and as parts of
    dotted string constants (``"fblab.cli.main"``), except inside the
    definition that binds the same name and inside the definitions named in
    ``exempt``: what only an exempt definition uses is not reached."""

    def __init__(self, exempt=frozenset()):
        self.names = set()
        self._enclosing = []
        self._exempt = exempt

    def _use(self, name):
        if name not in self._enclosing \
                and self._exempt.isdisjoint(self._enclosing):
            self.names.add(name)

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_ClassDef = _definition

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                self._use(part)


def _unreached(production, modules, exempt):
    """``module:line name`` of each public definition of ``modules``, (name,
    tree) pairs, that no tree of ``production`` reaches and ``exempt`` does
    not name."""
    refs = _References(exempt)
    for tree in production:
        refs.visit(tree)
    return [f"{module}:{line} {name}" for module, tree in modules
            for name, line in _public_definitions(tree)
            if name not in refs.names | exempt]


def test_public_names_reached():
    modules = [(path.name, _tree(path)) for path in MODULES]
    unreached = _unreached([_tree(path) for path in PRODUCTION], modules,
                           REACHED_BY_TESTS_ONLY)
    assert not unreached, \
        f"public names no production path reaches: {unreached}"
    assert REACHED_BY_TESTS_ONLY <= {
        name for _, tree in modules for name, _ in _public_definitions(tree)
    }, "stale exemption"


def _private_definitions(tree):
    """(name, line) of the module's private top-level functions, classes
    and assigned constants; dunder names are not private."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defs.extend((name.id, node.lineno) for target in targets
                        for name in ast.walk(target)
                        if isinstance(name, ast.Name))
    return [(name, line) for name, line in defs
            if name.startswith("_") and not name.startswith("__")]


# Parameters that may go unread, as (module, function pattern, parameter).
UNREAD_BY_INTERFACE = {
    # run_suite calls every criterion as fn(ctx, out_dir)
    ("verify.py", "criterion_*", "ctx"),
    ("verify.py", "criterion_*", "out_dir"),
}


def _unread_parameters(tree):
    """(function, parameter, line) of each parameter of a function, method
    or lambda of ``tree`` that its body never reads."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs \
            + [arg for arg in (args.vararg, args.kwarg) if arg]
        body = node.body if isinstance(node.body, list) else [node.body]
        reads = {name.id for stmt in body for name in ast.walk(stmt)
                 if isinstance(name, ast.Name)
                 and isinstance(name.ctx, ast.Load)}
        unread.extend((getattr(node, "name", "<lambda>"), arg.arg,
                       node.lineno)
                      for arg in params if arg.arg not in reads)
    return unread


def _exemption(module, function, param):
    """The entry of UNREAD_BY_INTERFACE that covers the parameter, or None."""
    return next((entry for entry in UNREAD_BY_INTERFACE
                 if entry[0] == module and entry[2] == param
                 and fnmatch.fnmatchcase(function, entry[1])), None)


def test_no_unused_parameters():
    unread = [(path.name, *entry) for path in MODULES
              for entry in _unread_parameters(_tree(path))]
    flagged = [f"{module}:{line} {function}({param})"
               for module, function, param, line in unread
               if _exemption(module, function, param) is None]
    assert not flagged, f"parameters nothing reads: {flagged}"
    covered = {_exemption(*entry[:3]) for entry in unread}
    assert UNREAD_BY_INTERFACE <= covered, "stale exemption"


def test_unread_parameter_found():
    module = ast.parse(textwrap.dedent("""
        def mix(phi, g, memory, cap):
            def image():
                return g
            return image() - phi, memory

        scale = lambda x, unused: 2 * x
    """))
    assert _unread_parameters(module) == [("mix", "cap", 2),
                                          ("<lambda>", "unused", 7)]


class _Reads(_References):
    """Like :class:`_References`, but a name that is only bound, as the
    target of an assignment, is not read."""

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.attr)
        self.generic_visit(node)


def test_private_names_read():
    reads = _Reads()
    for path in PRODUCTION:
        reads.visit(_tree(path))
    unread = [f"{path.name}:{line} {name}" for path in MODULES
              for name, line in _private_definitions(_tree(path))
              if name not in reads.names]
    assert not unread, f"private names nothing reads: {unread}"


def test_exempt_definition_reaches_nothing():
    module = ast.parse(textwrap.dedent("""
        def helper():
            return 1

        def kept_for_tests():
            return helper()

        def main():
            return 0
    """))
    caller = ast.parse("main()")
    assert _unreached([module, caller], [("synthetic.py", module)],
                      {"kept_for_tests"}) == ["synthetic.py:2 helper"]
