"""Static checks on the package source."""
import ast
import inspect
import types
from pathlib import Path

import postulate_sim

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "postulate_sim"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. `__future__` imports are
    directives, not names."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Module-level private functions, classes and assignments that the
    module itself never reads. Dunder names are the interpreter's."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_unused_imports_detected():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom a import b, c\nc(np.x)\n"
    assert unused_imports(source) == ["os", "b"]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_unread_private_names_detected():
    source = ("__all__ = []\n_A, _B = 1, 2\n_C: int = 3\ndef _helper(x): pass\n"
              "def _dead(): pass\nclass _Gone: pass\nPUBLIC = _helper(_B)\n"
              "def f():\n    _local = 1\n    _C = 2\n")
    assert unread_private_names(source) == ["_A", "_C", "_dead", "_Gone"]


def test_no_unread_private_names():
    """A private helper that its own module never reads is dead code."""
    found = {path.name: unread_private_names(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unread_parameters(source: str) -> list[str]:
    """`qualified.name.parameter` for every parameter of a function or method
    that its body never reads; a closure in the body reads for it. Defaults
    and annotations are not the body. `self` and `cls` are skipped, and
    dunder methods are exempt: the interpreter fixes their signatures."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                named = isinstance(child, ast.ClassDef)
                visit(child, f"{prefix}{child.name}." if named else prefix)
                continue
            name = prefix + child.name
            if not (child.name.startswith("__") and child.name.endswith("__")):
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{name}.{p}" for p in params
                             if p not in read and p not in ("self", "cls"))
            visit(child, f"{name}.")

    visit(ast.parse(source), "")
    return found


def test_unread_private_parameters_detected():
    source = ("def _f(a, b, /, c, *args, d=1, **kw):\n    return a + c + kw['x']\n"
              "def _g(x, y: int = 0):\n    def inner(z):\n        return x\n    return inner\n"
              "def public(unused):\n    pass\n"
              "class _C:\n    def _m(self, unused):\n        pass\n"
              "    @classmethod\n    def make(cls, n):\n        return cls(n)\n"
              "    def __exit__(self, *exc):\n        pass\n")
    assert unread_parameters(source) == ["_f.b", "_f.d", "_f.args", "_g.y", "_g.inner.z",
                                         "public.unused", "_C._m.unused"]


def test_no_unread_private_parameters():
    """A parameter that a function or method never reads is a dead argument
    at every call site."""
    found = {path.name: unread_parameters(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def unreferenced_errors(errors_source: str, other_sources: list[str]) -> list[str]:
    """Exception classes that `errors_source` defines and no other module
    names: an error that nothing raises or catches is dead API."""
    defined = [node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)]
    named = {node.id for source in other_sources for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name)}
    return [name for name in defined if name not in named]


def test_unreferenced_errors_detected():
    errors = ("class BaseError(Exception): pass\nclass Raised(BaseError): pass\n"
              "class Caught(BaseError): pass\nclass Dead(BaseError): pass\n")
    others = ["from .errors import Raised\nraise Raised('x')\n",
              "try:\n    pass\nexcept (Caught, BaseError):\n    pass\n"]
    assert unreferenced_errors(errors, others) == ["Dead"]


def test_every_error_is_referenced():
    others = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "errors.py"]
    assert unreferenced_errors((PACKAGE / "errors.py").read_text(), others) == []


def export_drift(module) -> tuple[list[str], list[str]]:
    """Names in `module.__all__` that do not resolve on the module, bound or
    through its `__getattr__`, and public names it binds, submodules apart,
    that `__all__` leaves out."""
    listed = list(getattr(module, "__all__", ()))
    unresolved = [name for name in listed if not hasattr(module, name)]
    unlisted = [name for name, value in vars(module).items()
                if not name.startswith("_") and not inspect.ismodule(value) and name not in listed]
    return unresolved, unlisted


def test_export_drift_detected():
    module = types.ModuleType("synthetic")
    exec("import os\n__all__ = ['kept', 'gone', '__version__']\n__version__ = '0'\n"
         "kept = 1\nextra = 2\n_private = 3\ndef helper(): pass\n", vars(module))
    assert export_drift(module) == (["gone"], ["extra", "helper"])
    # a listed name may resolve through a module `__getattr__` (PEP 562)
    lazy = types.ModuleType("lazy")
    exec("__all__ = ['lazy', 'gone']\n"
         "def __getattr__(name):\n"
         "    if name == 'lazy':\n"
         "        return 1\n"
         "    raise AttributeError(name)\n", vars(lazy))
    assert export_drift(lazy) == (["gone"], [])


def test_all_matches_the_package_namespace():
    """`__all__` lists exactly the public names the package binds."""
    assert export_drift(postulate_sim) == ([], [])


def test_child_only_lines_match_one_place():
    """Each line that `tests/line_reach.py` lists as run only in a child
    process still occurs once in its module, and the test named for it exists."""
    import line_reach
    for module, lines, _, test in line_reach.CHILD_ONLY:
        assert len(line_reach.occurrences(module, lines)) == 1, (module, lines[0])
        path, *names = test.split("::")
        assert f"def {names[-1]}(" in (Path(__file__).parent / path).read_text(), test
