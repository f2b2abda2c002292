"""The package metadata in pyproject.toml points only at code that exists,
every module of the package uses each name it imports, every private
module-level name is read somewhere in the package, and every backticked
name in a docstring names something that exists."""

import ast
import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_script_targets_resolve():
    """Each [project.scripts] target `module:attr` imports and names a callable,
    so an installed command does not fail at start-up."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; the project allows 3.10
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{name} = {target!r} is not callable"


SOURCE = Path(__file__).resolve().parents[1] / "src" / "dyadlab"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in the module, with its line; `from
    __future__` imports bind no name."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    """Every name the code under `tree` reads, including those of string
    annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    """A name a module imports is read somewhere in that module, so a
    deletion cannot leave a dead import behind."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported_names(tree).items() if name not in _used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level private function, class and constant (one leading
    underscore), with the statement that defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        defined.update((name, node) for name in targets if name.startswith("_") and not name.startswith("__"))
    return defined


def test_every_private_name_is_read():
    """Each module-level private name in the package is read by some
    statement of the package other than the one that defines it (a function
    calling itself does not count), so a deletion cannot leave a private
    helper or constant behind that nothing reaches."""
    statements = []
    private = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += tree.body
        private.update((name, (path.name, node)) for name, node in _private_definitions(tree).items())
    assert private, "the package defines no private module-level name"
    reads = [(node, _used_names(node)) for node in statements]
    unread = sorted(
        f"{module}:{name}"
        for name, (module, definition) in private.items()
        if not any(name in used for node, used in reads if node is not definition)
    )
    assert not unread, f"private names that nothing in the package reads: {unread}"


def _raised_names() -> set[str]:
    """The name of every exception class that a `raise` statement in the
    package builds or re-raises by name."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    """Each DyadlabError subclass in `errors` is raised somewhere in the
    package, so an exception type cannot outlive its last raiser."""
    errors = importlib.import_module("dyadlab.errors")
    subclasses = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.DyadlabError) and obj is not errors.DyadlabError
    }
    assert subclasses, "errors defines no DyadlabError subclass"
    unraised = sorted(subclasses - _raised_names())
    assert not unraised, f"errors defines types the package never raises: {unraised}"


FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    """Under the project's warning filters, a failing `@given` test is
    reported as one failure and the tests after it still run: the run does
    not end in an INTERNALERROR raised while hypothesis reports its
    falsifying example."""
    pytest.importorskip("hypothesis")
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    cmd = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
           "-p", "no:cacheprovider", "test_two.py"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout[-2000:]
    assert "1 failed, 1 passed" in out.stdout, out.stdout[-2000:]


PACKAGE = importlib.import_module("dyadlab")
MODULES = {path.stem: importlib.import_module(f"dyadlab.{path.stem}") for path in sorted(SOURCE.glob("*.py"))}
NAME = re.compile(r"[A-Za-z_][\w.]*")


def _documented_nodes(tree: ast.Module):
    """The module and each function and class under it, with the parameter
    names of each function (none for the module or a class)."""
    yield tree, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield node, {arg.arg for arg in every if arg is not None}
        elif isinstance(node, ast.ClassDef):
            yield node, set()


def _class_members() -> set[str]:
    """Every member and annotated field of every class the package defines,
    base classes included."""
    members = set()
    for module in MODULES.values():
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__.startswith("dyadlab"):
                members |= set(dir(obj))
                for klass in obj.__mro__:
                    members |= set(getattr(klass, "__annotations__", {}))
    return members


MEMBERS = _class_members()


def _stale_span(span: str, params: set[str]) -> bool:
    """Whether the backticked name `span` names nothing: its first part is
    not a parameter of the documented function, a class member or field, a
    module-level name of the package, a package module, `np` or `math`, or a
    later part is not an attribute of what the parts before it name."""
    first, *rest = span.split(".")
    roots = {"np": np, "math": math, "dyadlab": PACKAGE, **MODULES}
    found = [vars(module)[first] for module in MODULES.values() if first in vars(module)]
    obj = roots.get(first, found[0] if found else None)
    if obj is None:
        # a parameter or a member, whose type the docstring does not state
        return first not in params | MEMBERS or any(part not in MEMBERS for part in rest)
    for part in rest:
        if not hasattr(obj, part):
            return True
        obj = getattr(obj, part)
    return False


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_docstring_names_resolve(path):
    """Every backticked name in a docstring of the module names something
    that exists, so a deletion cannot leave a docstring pointing at a name
    that is gone."""
    stale = []
    for node, params in _documented_nodes(ast.parse(path.read_text(), filename=str(path))):
        doc = ast.get_docstring(node) or ""
        for span in re.findall(r"`([^`]*)`", doc):
            if NAME.fullmatch(span) and _stale_span(span, params):
                stale.append(f"{getattr(node, 'name', path.stem)}: `{span}`")
    assert not stale, f"{path.name} docstrings name what does not exist: {stale}"


def _raises_not_implemented_only(body: list[ast.stmt]) -> bool:
    """Whether a function body, past its docstring, is one `raise
    NotImplementedError`: an abstract method, whose parameters only name
    what its overrides take."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _unread_parameters(tree: ast.Module) -> list[str]:
    """`name:line parameter` for each parameter of each function or lambda
    under `tree` that its body never reads; a nested function's read counts
    for the function around it."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        if _raises_not_implemented_only(body):
            continue
        args = node.args
        every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        read = set().union(*(_used_names(stmt) for stmt in body))
        name = getattr(node, "name", "lambda")
        unread += [f"{name}:{node.lineno} {arg.arg}" for arg in every if arg is not None and arg.arg not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """Every parameter of every function in the module, `self` included, is
    read in that function's body, so a removed branch cannot leave its flag
    behind.  A body that only raises NotImplementedError is exempt."""
    unread = _unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    assert not unread, f"{path.name} has parameters that nothing reads: {unread}"


def test_unread_parameter_found():
    """The scan finds a flag that a body no longer reads, and passes an
    abstract method and a parameter read only by a nested function."""
    tree = ast.parse(
        "def write(blocks, transpose=False):\n    return blocks\n"
        "def abstract(self, x):\n    '''doc'''\n    raise NotImplementedError\n"
        "def outer(cells):\n    block = lambda: cells\n    return block\n"
    )
    assert _unread_parameters(tree) == ["write:1 transpose"]


def _bool_checks(tree: ast.AST) -> list[int]:
    """The line of each `isinstance` call under `tree` whose class argument
    names `bool` or numpy's `bool_`, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            classes = node.args[1] if len(node.args) == 2 else ast.Tuple(elts=[])
            elts = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            names = {getattr(c, "id", None) or getattr(c, "attr", None) for c in elts}
            if names & {"bool", "bool_"}:
                lines.append(node.lineno)
    return lines


def test_argument_rule_lives_in_errors():
    """Only `errors` decides whether a bool counts as an integer or a real
    argument; every other module asks `errors.is_integer`, `errors.integer`
    or `errors.real`, so the modules cannot drift apart on what they take."""
    hits = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "errors.py"
        for line in _bool_checks(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, f"bool checks outside errors.py: {hits}"
    assert _bool_checks(ast.parse((SOURCE / "errors.py").read_text())), "errors.py holds no bool check"


def test_bool_check_found():
    """The scan finds a bare and a tupled bool class, numpy's too, and
    passes an isinstance call that names no bool."""
    tree = ast.parse("isinstance(x, bool)\nisinstance(x, (int, np.bool_))\nisinstance(x, int)\n")
    assert _bool_checks(tree) == [1, 2]
