"""The package metadata in pyproject.toml points only at code that exists,
every module of the package uses each name it imports, and every private
module-level name is read somewhere in the package."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

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
