"""The package's import layering, read from the source: each module may
import only the modules below it, so the kernels never reach up into the
engine and a block never runs a loss. And no import is dead."""

import ast
import pathlib

import locallearn

PACKAGE = pathlib.Path(locallearn.__file__).parent

_BASE = {"errors", "rng", "numerics"}
_ENGINE = _BASE | {"data", "layers", "losses", "trainer"}
ALLOWED = {
    "errors": set(),
    "rng": set(),
    "numerics": {"errors"},
    "losses": {"numerics", "errors"},
    "layers": {"numerics", "errors"},
    "data": _BASE,
    "trainer": _ENGINE - {"trainer"},
    "gradcheck": _ENGINE,
    "cli": _ENGINE | {"gradcheck"},
    "__init__": _ENGINE | {"gradcheck"},
    "__main__": {"cli"},
}


def package_imports(path: pathlib.Path) -> set:
    """The package modules a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:  # from . import x, from .x import y
            found |= {node.module.split(".")[0]} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("locallearn"):
            parts = node.module.split(".")
            found |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("locallearn.")}
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_each_module_imports_only_the_modules_below_it():
    reaches = {p.stem: package_imports(p) - ALLOWED[p.stem] for p in PACKAGE.glob("*.py")}
    assert {name: found for name, found in reaches.items() if found} == {}


def unread_imports(path: pathlib.Path) -> set:
    """The names a module's imports bind that its code never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_read():
    # the package's __init__ is exempt: its imports are its exports
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    dead = {f"{p.parent.name}/{p.name}": names for p in paths if (names := unread_imports(p))}
    assert dead == {}


def defined_names(path: pathlib.Path) -> set:
    """The public functions, classes and constants a module defines at its
    top level."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def read_names(path: pathlib.Path) -> set:
    """The names a source reads: loaded names and attributes, and the
    identifiers it spells as strings (__all__, and perfbench wraps the
    functions it times by name)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


# the IDX fixture writers, which only the tests call
_READ_BY_TESTS_ALONE = {"data.write_idx_images", "data.write_idx_labels"}


def test_every_public_name_has_a_reader():
    # a reader is a package module (the defining one too, beyond the
    # definition), the benchmark or a demo; the tests do not count
    root = pathlib.Path(__file__).resolve().parent.parent
    readers = [*PACKAGE.glob("*.py"), *(root / "perfbench").glob("*.py"), *(root / "demos").glob("*.py")]
    read = set().union(*map(read_names, readers))
    unread = {
        f"{p.stem}.{name}" for p in PACKAGE.glob("*.py") if p.name != "__init__.py" for name in defined_names(p) - read
    }
    assert unread - _READ_BY_TESTS_ALONE == set()
