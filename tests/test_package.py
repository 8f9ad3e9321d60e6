"""The package's public name list, and its lazy resolution (PEP 562).

The lazy checks run in a fresh interpreter, where no clasplab submodule
is loaded yet, so they see the first lookup of each name.
"""

import os
import subprocess
import sys
from pathlib import Path

import clasplab

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code):
    """Run ``code`` in a new interpreter; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_names_exist_once():
    assert len(clasplab.__all__) == len(set(clasplab.__all__))
    missing = [n for n in clasplab.__all__ if not hasattr(clasplab, n)]
    assert missing == []


def test_each_name_is_its_home_modules_attribute():
    assert fresh("""
import importlib, clasplab
for name in clasplab.__all__:
    home = importlib.import_module("clasplab." + clasplab._HOMES[name])
    value = getattr(clasplab, name)
    assert value is getattr(home, name), name
    # defined there
    assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert vars(clasplab)[name] is value, name
print("ok")
""") == "ok\n"


def test_dir_lists_every_public_name():
    assert fresh("""
import clasplab
print(sorted(set(clasplab.__all__) - set(dir(clasplab))))
""") == "[]\n"


def test_star_import_binds_every_name():
    assert fresh("""
import clasplab
from clasplab import *
print([n for n in clasplab.__all__
       if globals().get(n) is not getattr(clasplab, n)])
""") == "[]\n"


def test_unknown_name_is_an_attribute_error():
    assert fresh("""
import sys, clasplab
try:
    clasplab.no_such_name
except AttributeError as exc:
    print(exc)
print(hasattr(clasplab, "no_such_name"), hasattr(clasplab, "__wrapped__"))
print([m for m in sys.modules if m.startswith("clasplab.")])
""") == ("module 'clasplab' has no attribute 'no_such_name'\n"
         "False False\n[]\n")


def test_removed_names_are_attribute_errors():
    """Test oracles, their errors and helpers live in tests/conftest.py,
    and the aliases and wrappers are gone: none of these resolves any
    more."""
    assert fresh("""
import clasplab
removed = ["EMPTY_RULING", "InternalInvariantError", "NormalRuling",
           "UnknownEye", "brute_force_rulings", "brute_pair_clasps",
           "disjoint_union", "n_components", "normalize", "stacked_union"]
for name in removed:
    try:
        getattr(clasplab, name)
    except AttributeError:
        continue
    print(name)
print(len(clasplab.__all__), sorted(set(removed) & set(clasplab.__all__)))
""") == "58 []\n"


def test_no_module_loads_dataclasses():
    """dataclasses (which imports inspect, ast, dis and tokenize) would
    cost every CLI start; prints the first module that loads either."""
    names = sorted(p.stem for p in (SRC / "clasplab").glob("*.py")
                   if p.stem != "__init__")
    assert "cli" in names  # the glob found the package
    assert fresh(f"""
import importlib, sys
for name in {names!r}:
    importlib.import_module("clasplab." + name)
    if "dataclasses" in sys.modules or "inspect" in sys.modules:
        print(name)
        break
""") == ""
