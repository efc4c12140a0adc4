"""Every module-level import of the package is used in its module, every
module-level private name is used somewhere in the package, and every
defaulted parameter is passed by some call."""

import ast
import builtins
import functools
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gfsheaf"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(nodes):
    """Name -> line of the names bound by the import statements in nodes
    (from __future__ imports excluded)."""
    imported = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    return imported


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_scope(fn):
    """The nodes of a function's body outside its nested functions."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(tree):
    """Module-level imports that nothing reads.  A read inside a function
    that imports the same name itself (or inside a function nested in one)
    reads the local import, so it does not count."""
    imported = imported_names(tree.body)
    used = set()
    todo = [(tree, frozenset())]
    while todo:
        node, local = todo.pop()
        if isinstance(node, FUNCTIONS):
            local = local | set(imported_names(own_scope(node)))
        elif isinstance(node, ast.Name) and node.id not in local:
            used.add(node.id)
        todo.extend((child, local) for child in ast.iter_child_nodes(node))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_package_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_a_read_under_a_local_import_does_not_count():
    tree = ast.parse(
        "import os\n"
        "from json import dumps, loads\n"
        "def f():\n"
        "    from json import dumps\n"
        "    return dumps(os.sep)\n"
        "def g():\n"
        "    import json\n"
        "    def h():\n"
        "        from json import loads\n"
        "        return loads\n"
        "    return loads, h\n")
    # f reads its own dumps; h's local loads does not shadow g's read
    assert unused_imports(tree) == [(2, "dumps")]


ROOT = SRC.parent.parent
CALLERS = ("src", "tests", "demos", "perfbench")


def is_dataclass(node):
    for deco in node.decorator_list:
        f = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(f, "attr", getattr(f, "id", None)) == "dataclass":
            return True
    return False


def defaulted_parameters(tree):
    """(callee name, positional slot or None, parameter, line) for every
    parameter with a default of the functions, methods and dataclasses in
    tree.  A method's slot does not count self; __init__ and the fields of
    a dataclass are called by the class name; keyword-only parameters have
    no slot."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if is_dataclass(child):
                    fields = [s for s in child.body
                              if isinstance(s, ast.AnnAssign)
                              and isinstance(s.target, ast.Name)]
                    out.extend((child.name, i, s.target.id, s.lineno)
                               for i, s in enumerate(fields)
                               if s.value is not None)
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                pos = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls is not None and not static else 0
                name = (cls.name if cls is not None
                        and child.name == "__init__" else child.name)
                first = len(pos) - len(args.defaults)
                out.extend((name, first + i - skip, arg.arg, child.lineno)
                           for i, arg in enumerate(pos[first:]))
                out.extend((name, None, arg.arg, child.lineno)
                           for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def passed_arguments(trees):
    """Callee name -> (keywords passed, most positional arguments, whether
    some call unpacks * or ** arguments).  A call is named by its function
    or attribute name, so obj.m(...) counts for every method m."""
    seen = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name is None:
                continue
            kw, npos, star = seen.get(name, (set(), 0, False))
            kw |= {k.arg for k in node.keywords if k.arg is not None}
            star = star or any(k.arg is None for k in node.keywords) or \
                any(isinstance(a, ast.Starred) for a in node.args)
            seen[name] = (kw, max(npos, len(node.args)), star)
    return seen


def unset_parameters(defining, calling):
    """'module:line name(parameter)' for every defaulted parameter of the
    modules in defining (path -> tree) that no call in calling passes."""
    seen = passed_arguments(calling)
    out = []
    for path, tree in defining.items():
        for name, slot, param, line in defaulted_parameters(tree):
            kw, npos, star = seen.get(name, (set(), 0, False))
            if not (star or param in kw or slot is not None and npos > slot):
                out.append(f"{path.name}:{line} {name}({param})")
    return out


def test_every_defaulted_parameter_is_passed_by_some_call():
    # fixtures.py draws seeded test data; its generator knobs are for
    # draws beyond the pinned ones (the Künneth oracle of ROADMAP item 3
    # draws random_circle_morse with terms=3)
    defining = {p: tree for p, tree in package_trees().items()
                if p.name != "fixtures.py"}
    calling = [ast.parse(p.read_text(), str(p))
               for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))]
    # a field parameter defaults to F2 where no route passes Q yet;
    # ROADMAP item 2 threads --field q through those routes
    unset = [u for u in unset_parameters(defining, calling)
             if not u.endswith("(field)")]
    assert unset == []


def test_an_unset_parameter_is_found():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "class C:\n"
        "    def __init__(self, x=0, y=1):\n"
        "        pass\n"
        "    def m(self, z=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(w=0):\n"
        "        pass\n"
        "@dataclass\n"
        "class D:\n"
        "    p: int\n"
        "    q: int = 0\n"
        "    r: int = 1\n")
    calls = ast.parse("f(0, 1, e=5)\nC(1)\nc.m(0)\nC.s(**kw)\nD(0, 1)\n")
    assert unset_parameters({Path("t.py"): tree}, [calls]) == [
        "t.py:2 f(c)", "t.py:2 f(d)", "t.py:5 C(y)", "t.py:16 D(r)"]


def private_definitions(tree):
    """Module-level functions, classes and assigned names that start with
    an underscore (dunders excluded), as name -> defining node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                out[name] = node
    return out


def referenced_names(tree, skip=None):
    """Names read, imported or used as attributes in tree, outside skip."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    out = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


PACKAGE = sorted(SRC.glob("*.py"))


@functools.lru_cache(maxsize=None)
def package_trees():
    return {p: ast.parse(p.read_text(), str(p)) for p in PACKAGE}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    trees = package_trees()
    elsewhere = set()
    for p, tree in trees.items():
        if p != path:
            elsewhere |= referenced_names(tree)
    tree = trees[path]
    dead = sorted(name for name, node in private_definitions(tree).items()
                  if name not in elsewhere
                  and name not in referenced_names(tree, skip=node))
    assert dead == []


def exception_classes(trees):
    """Names of the package's exception classes: their bases reach a
    built-in exception, directly or through another package class."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}
    found = set()

    def is_exception(name):
        if name in found:
            return True
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        if any(is_exception(b) for b in bases.get(name, ())):
            found.add(name)
            return True
        return False

    return {name for name in bases if is_exception(name)}


def write_only_attributes(trees):
    """(class, attribute) for every attribute a method assigns on self that
    no code of the package loads by name.  A getattr by string does not
    count; the fields of an exception class are for its callers."""
    trees = list(trees)
    skip = exception_classes(trees)
    loaded, stored = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    not isinstance(node.ctx, ast.Store):
                loaded.add(node.attr)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute):
                loaded.add(node.target.attr)
            if isinstance(node, ast.ClassDef) and node.name not in skip:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) and \
                            isinstance(sub.ctx, ast.Store) and \
                            isinstance(sub.value, ast.Name) and \
                            sub.value.id == "self":
                        stored.add((node.name, sub.attr))
    return sorted((cls, attr) for cls, attr in stored if attr not in loaded)


def test_no_write_only_attributes():
    assert write_only_attributes(package_trees().values()) == []


def test_write_only_attribute_found():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "        self.dropped = 2\n"
        "        self.counted = 0\n"
        "        self.counted += 1\n"
        "    def get(self):\n"
        "        return getattr(self, 'dropped'), self.kept\n"
        "class Oops(ValueError):\n"
        "    pass\n"
        "class Failure(Oops):\n"
        "    def __init__(self, detail):\n"
        "        self.detail = detail\n")
    assert write_only_attributes([tree]) == [("A", "dropped")]
