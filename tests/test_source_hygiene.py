"""Source hygiene of the package, checked on its syntax trees.

Every imported name is used (or re-exported through __all__), every
private function, class, method and module constant is read somewhere in
the package, and so is every public upper-case module constant and every
method of a package class, dunders aside, so dead code, dead settings and
methods only the tests call show up here.  No
verdict rests on floating point: the package has no float or complex
literal and no float() or complex() call, elapsed times aside.  Importing
the package generates no code: no module uses dataclasses or namedtuple,
which compile methods from source text, or calls exec or eval.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "heavenly"


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SOURCE.glob("*.py"))}


def _loaded(tree) -> set[str]:
    """Names read as variables or as attributes anywhere in the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
    return out


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree):
    """(line, bound name) for every import, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _module_constants(tree):
    """(line, name) for every name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield node.lineno, t.id


def _private_definitions(tree):
    """(line, name) for private module functions, classes and constants,
    and for private methods of module classes."""
    yield from _module_constants(tree)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.lineno, item.name


def test_every_import_is_used():
    unused = []
    for name, tree in _trees().items():
        used = _loaded(tree) | _exported(tree)
        unused += [f"{name}:{line} {bound}"
                   for line, bound in _imported(tree) if bound not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_every_private_definition_is_read():
    trees = _trees()
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    unread = [f"{name}:{line} {defined}"
              for name, tree in trees.items()
              for line, defined in _private_definitions(tree)
              if _is_private(defined) and defined not in loaded]
    assert not unread, "defined but never read: " + ", ".join(unread)


def _methods(tree):
    """(line, name) for every method of a module class, dunders aside."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.lineno, item.name


def _read_attributes(tree) -> set[str]:
    """Names read as attributes: unlike _loaded, a variable named like a
    method (x, say) does not count as reading it."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_public_method_is_read():
    # matched by name, like the private rule above: a method that shares
    # its name with one the package does read passes unread (Perm.inverse
    # beside _Lattice.inverse, say), so this catches only names that no
    # class of the package is ever asked for
    trees = _trees()
    read = set().union(*(_read_attributes(tree) for tree in trees.values()))
    unread = [f"{name}:{line} {method}"
              for name, tree in trees.items()
              for line, method in _methods(tree) if method not in read]
    assert not unread, "method never read in the package: " + ", ".join(
        unread)


def test_every_public_constant_is_read():
    trees = _trees()
    loaded = set().union(*(_loaded(tree) for tree in trees.values()))
    unread = [f"{name}:{line} {defined}"
              for name, tree in trees.items()
              for line, defined in _module_constants(tree)
              if not _is_private(defined) and defined.isupper()
              and defined not in loaded]
    assert not unread, "public constant never read: " + ", ".join(unread)


def _is_elapsed_time(node) -> bool:
    """Whether every argument of the call names an elapsed_seconds field,
    the wall-clock time that reports carry beside their exact content."""
    return bool(node.args) and all(
        getattr(arg, "id", getattr(arg, "attr", None)) == "elapsed_seconds"
        for arg in node.args)


def test_no_floating_point():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(
                    node.value, (float, complex)):
                found.append(f"{name}:{node.lineno} {node.value!r}")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("float", "complex")
                  and not _is_elapsed_time(node)):
                found.append(f"{name}:{node.lineno} {node.func.id}()")
    assert not found, "floating point in the package: " + ", ".join(found)


_GENERATORS = {"dataclasses", "namedtuple", "NamedTuple", "exec", "eval"}


def test_no_code_generation():
    found = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                used = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                used = {node.module} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Call):
                func = node.func
                used = {getattr(func, "id", getattr(func, "attr", None))}
            else:
                continue
            found += [f"{name}:{node.lineno} {u}" for u in used & _GENERATORS]
    assert not found, "code generated at run time: " + ", ".join(found)
