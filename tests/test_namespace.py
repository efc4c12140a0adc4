"""The package namespace is lazy: `import gfsheaf` loads no submodule, a
pair-route process loads only the pair route's modules, and every exported
name resolves to the object of its home module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gfsheaf

SRC = Path(__file__).resolve().parent.parent / "src"

# what a pair pass of the benchmark (perfbench/passes.py) imports
PAIR_ROUTE = "import gfsheaf.fixtures, gfsheaf.genfun, gfsheaf.linalg"
NOT_PAIR_ROUTE = {"sheaves", "minimal", "products", "rectify", "floer",
                  "scenarios", "cli", "io"}


def loaded_modules(code):
    """The gfsheaf submodules in sys.modules after code runs in a fresh
    interpreter."""
    script = (code + "\nimport sys\nprint(' '.join(sorted(m for m in "
              "sys.modules if m.startswith('gfsheaf.'))))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("gfsheaf.") for m in proc.stdout.split()}


def test_import_gfsheaf_loads_no_submodule():
    assert loaded_modules("import gfsheaf") == set()


def test_the_pair_route_loads_no_other_route():
    assert loaded_modules(PAIR_ROUTE) & NOT_PAIR_ROUTE == set()


def test_the_export_table_names_each_name_once():
    assert len(gfsheaf.__all__) == len(set(gfsheaf.__all__))


@pytest.mark.parametrize("name", gfsheaf.__all__)
def test_every_exported_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"gfsheaf.{gfsheaf._HOME[name]}")
    assert getattr(gfsheaf, name) is getattr(home, name)
    assert vars(gfsheaf)[name] is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gfsheaf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gfsheaf.__all__)


def test_dir_lists_every_exported_name():
    assert set(gfsheaf.__all__) <= set(dir(gfsheaf))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError,
                       match="^module 'gfsheaf' has no attribute 'nope'$"):
        gfsheaf.nope
    with pytest.raises(ImportError):
        exec("from gfsheaf import nope", {})
