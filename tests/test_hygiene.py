"""Every module-level import of the package, its tests and its demos is
used in its module, no function imports again a name its module already
imports, every module-level private name is used somewhere in the
package, every public name of the package is read by the library, a demo
or the benchmark (or pinned with its reason), no module but complexes.py
names the private kernel of the Morse elimination, products.py reads the
stalks only through their corners, every defaulted parameter is passed by
some call, every record field is read, no assert statement stands in for a
check, no module switches on a presentation name, and the README lists the
task ops and command-line options that exist."""

import ast
import builtins
import functools
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gfsheaf"
MODULES = sorted(SRC.glob("*.py"))
# the test modules and the demos import from the package like any caller
SCRIPTS = sorted(p for d in ("tests", "demos")
                 for p in (SRC.parent.parent / d).glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
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


def repeated_local_imports(tree):
    """(line, name) of every function-local `from m import name` whose
    module already binds name from m at module level."""
    def bindings(node):
        return {(alias.asname or alias.name, node.level, node.module,
                 alias.name) for alias in node.names}

    top = set().union(*(bindings(node) for node in tree.body
                        if isinstance(node, ast.ImportFrom)))
    return sorted((node.lineno, binding[0])
                  for fn in ast.walk(tree) if isinstance(fn, FUNCTIONS)
                  for node in own_scope(fn)
                  if isinstance(node, ast.ImportFrom)
                  for binding in bindings(node) if binding in top)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_repeated_local_imports(path):
    assert repeated_local_imports(ast.parse(path.read_text(), str(path))) \
        == []


def test_a_repeated_local_import_is_found():
    tree = ast.parse(
        "from .grids import BoxGrid, SampledFunction\n"
        "from .linalg import GF2 as F\n"
        "def f():\n"
        "    from .grids import SampledFunction, circle_grid\n"
        "    from .linalg import GF2\n"
        "    from grids import BoxGrid\n"
        "    def g():\n"
        "        from .linalg import GF2 as F\n"
        "        return F\n"
        "    return SampledFunction, circle_grid, GF2, BoxGrid, g\n")
    # a new name, another alias and another module are not repeats
    assert repeated_local_imports(tree) == [(4, "SampledFunction"),
                                            (8, "F")]


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
    calling = caller_trees()
    # a field parameter defaults to F2 where no route passes Q yet;
    # ROADMAP item 2 threads --field q through those routes
    unset = [u for u in unset_parameters(defining, calling)
             if not u.endswith("(field)")]
    assert unset == []


def test_the_settable_values_are_pinned():
    # every defaulted parameter of the package is a value a caller can
    # set; a change that adds one raises this number in its own diff
    assert sum(len(defaulted_parameters(tree))
               for tree in package_trees().values()) == 94


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


@functools.lru_cache(maxsize=None)
def package_trees():
    return {p: ast.parse(p.read_text(), str(p)) for p in MODULES}


@functools.lru_cache(maxsize=None)
def caller_trees():
    """The parsed files of the package, its tests, demos and benchmark."""
    return tuple(ast.parse(p.read_text(), str(p))
                 for d in CALLERS for p in sorted((ROOT / d).rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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


def public_definitions(tree):
    """Qualified name -> defining node of the public module-level functions
    and classes of tree and of the public methods of its classes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not node.name.startswith("_"):
            out[node.name] = node
        if isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{sub.name}", sub) for sub in node.body
                       if isinstance(sub, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                       and not sub.name.startswith("_"))
    return out


def unread_public_names(defining, library, readers, strings):
    """'module.name' for every public definition of the modules in defining
    (path -> tree) whose name no tree of library (path -> tree) names
    outside its own definition, no tree of readers names, and no string of
    strings is."""
    outside = set(strings).union(*(referenced_names(t) for t in readers))
    out = []
    for path, tree in defining.items():
        elsewhere = outside.union(*(referenced_names(t)
                                    for p, t in library.items() if p != path))
        for name, node in public_definitions(tree).items():
            bare = name.rsplit(".", 1)[-1]
            if bare not in elsewhere and \
                    bare not in referenced_names(tree, skip=node):
                out.append(f"{path.stem}.{name}")
    return sorted(out)


# public names that no library code, demo or benchmark reads, each kept for
# its reason
UNREAD_PUBLIC = {
    # the direct window, the reference of every window the tests rank
    "complexes.FilteredComplex.window",
    # the restriction of the Floer side to a subgrid, for ROADMAP item 21
    "floer.reduce_to_Z",
}


def test_every_public_name_is_read_outside_the_tests():
    # fixtures.py draws the seeded test data; the benchmark's tracer names
    # the functions it wraps by string
    defining = {p: t for p, t in package_trees().items()
                if p.name != "fixtures.py"}
    readers = [ast.parse(p.read_text(), str(p)) for d in ("demos", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    strings = {n.value for n in ast.walk(tracer)
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert unread_public_names(defining, package_trees(), readers,
                               strings) == sorted(UNREAD_PUBLIC)


def test_an_unread_public_name_is_found():
    lib = ast.parse(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return helper\n"
        "def traced():\n"
        "    pass\n"
        "def lonely():\n"
        "    return lonely()\n"
        "class K:\n"
        "    def shown(self):\n"
        "        pass\n"
        "    def hidden(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n")
    other = ast.parse("from m import used\nused()\n")
    demo = ast.parse("K().shown()\n")
    # a name read only inside its own definition is not read
    assert unread_public_names({Path("m.py"): lib},
                               {Path("m.py"): lib, Path("o.py"): other},
                               [demo], {"traced"}) == ["m.K.hidden",
                                                       "m.lonely"]


def stalk_record_reads(tree):
    """(line, attribute) of every read of a stalk record field or of the
    record itself (CellSheaf.strata) in tree."""
    record = {"strata", "off", "lab", "ldeg", "dptr", "size"}
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in record)


def test_the_product_maps_read_the_stalks_only_through_their_corners():
    # CellSheaf.corners is the one rank-one check; products.py reads
    # openings, degrees and labels off it and no stalk size of its own
    assert stalk_record_reads(package_trees()[SRC / "products.py"]) == []


# the private kernel of the package's one Morse elimination,
# complexes.IndexComplex.retract
MORSE_KERNEL = {"_sparse_product", "_sparse_sum", "_check_matching"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_complexes_names_the_morse_kernel(path):
    # another module eliminates a matching through IndexComplex.retract,
    # which checks the matching first
    names = referenced_names(package_trees()[path]) & MORSE_KERNEL
    assert path.name == "complexes.py" or names == set()


# helpers that chose the code by the presentation of a sheaf; each
# presentation is a class that answers for itself
GONE_DISPATCH = {"_as_cellsheaf", "_band_floor", "_breaks_of"}


def presentation_switches(tree):
    """(line, what) of every read of a .kind attribute that is not numpy's
    dtype.kind, and of every name of GONE_DISPATCH (read, defined or
    imported), in tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "kind" and \
                getattr(node.value, "attr", None) != "dtype":
            out.append((node.lineno, ".kind"))
        # a Name, an attribute, a def or an imported alias
        name = getattr(node, "id", getattr(node, "attr",
                                           getattr(node, "name", None)))
        if name in GONE_DISPATCH:
            out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_switches_on_a_presentation_name(path):
    # each presentation is a class of its own, which answers for itself;
    # numpy's dtype.kind is the one kind the package reads
    assert presentation_switches(package_trees()[path]) == []


def test_a_presentation_switch_is_found():
    tree = ast.parse(
        "from .sheaves import _as_cellsheaf\n"
        "def _band_floor(F):\n"
        "    if F.kind == 'gf' and x.dtype.kind in 'iu':\n"
        "        return sheaves._breaks_of(F)\n"
        "    return np.argsort(v, kind='stable')\n")
    assert presentation_switches(tree) == [
        (1, "_as_cellsheaf"), (2, "_band_floor"), (3, ".kind"),
        (4, "_breaks_of")]


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


def is_record(node):
    """A dataclass or a NamedTuple class."""
    return is_dataclass(node) or any(
        getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
        for b in node.bases)


def unread_fields(defining, reading):
    """'Class.field' for every field of the dataclasses and NamedTuples in
    defining whose name no attribute load in reading reads."""
    read = set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
    return sorted(f"{node.name}.{s.target.id}"
                  for tree in defining for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and is_record(node)
                  for s in node.body
                  if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)
                  and s.target.id not in read)


def test_every_record_field_is_read():
    assert unread_fields(package_trees().values(), caller_trees()) == []


def test_an_unread_field_is_found():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    kept: int\n"
        "    dropped: float = 0.0\n"
        "class N(NamedTuple):\n"
        "    counted: int\n"
        "    ignored: int\n"
        "class Plain:\n"
        "    note: int = 0\n")
    reads = ast.parse("d.kept\nn.counted += 1\nn.ignored = 2\n")
    assert unread_fields([tree], [reads]) == ["D.dropped", "N.ignored"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, and a check must not go with them
    lines = [node.lineno for node in ast.walk(package_trees()[path])
             if isinstance(node, ast.Assert)]
    assert lines == []


def readme_names(opening):
    """The backticked names of the README sentence that begins with
    opening, up to its first full stop."""
    text = " ".join((ROOT / "README.md").read_text().split())
    start = text.index(opening)
    return re.findall(r"`([^`]+)`", text[start:text.index(". ", start)])


def test_the_readme_lists_the_task_ops():
    from gfsheaf.scenarios import _RUNNERS
    ops = readme_names("Supported task ops:")
    assert len(ops) == len(set(ops))
    assert set(ops) == set(_RUNNERS)


def test_the_readme_flags_line_names_the_cli_options():
    # the long options of every add_argument call in the command line
    tree = ast.parse((SRC / "cli.py").read_text())
    options = {node.args[0].value for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "add_argument"
               and str(node.args[0].value).startswith("--")}
    flags = [name.split()[0] for name in readme_names("Flags:")]
    assert len(flags) == len(set(flags))
    assert set(flags) == options


# the class calculus runs on one complex form, IndexComplex
CLASS_CALCULUS = ("apply_d", "class_coordinates", "cohomology_basis")


def type_switches(tree, names):
    """(function, line) of every isinstance call inside the module-level
    functions of tree named in names."""
    return sorted((fn.name, node.lineno) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name in names
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "isinstance")


def test_the_class_calculus_takes_one_complex_type():
    tree = package_trees()[SRC / "complexes.py"]
    defined = {fn.name for fn in tree.body
               if isinstance(fn, ast.FunctionDef)}
    assert set(CLASS_CALCULUS) <= defined
    assert type_switches(tree, CLASS_CALCULUS) == []


# the cup task's two sides and its runner hold classes on ids: neither the
# tuple complex type nor its cubical builder is named there
TUPLE_FORM = {"ChainComplex", "cubical_complex"}


@pytest.mark.parametrize("name", ["floer.py", "products.py", "scenarios.py"])
def test_the_cup_route_names_no_tuple_complex(name):
    assert referenced_names(package_trees()[SRC / name]) & TUPLE_FORM == \
        set()


def message_matches(tree):
    """Lines of the comparisons inside an except body that read str() of
    the caught exception: a handler that chooses by message text."""
    out = []
    for handler in ast.walk(tree):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Compare) and any(
                        isinstance(call, ast.Call)
                        and getattr(call.func, "id", None) == "str"
                        and any(getattr(a, "id", None) == handler.name
                                for a in call.args)
                        for part in [node.left] + node.comparators
                        for call in ast.walk(part)):
                    out.append(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_handler_chooses_by_message_text(path):
    # a refusal is told apart by its type; a message that happens to match
    # must not swallow a broken invariant
    assert message_matches(package_trees()[path]) == []


def test_a_handler_that_chooses_by_message_text_is_found():
    tree = ast.parse(
        "try:\n"
        "    f()\n"
        "except ValueError as e:\n"
        "    if not any(r in str(e) for r in REFUSALS):\n"
        "        raise\n"
        "except KeyError as e:\n"
        "    log(str(e))\n"
        "    ok = str(e) == 'x'\n"
        "except OSError:\n"
        "    pass\n")
    assert message_matches(tree) == [4, 8]
