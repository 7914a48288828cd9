"""A fresh process loads only the layers its calls use.

`import quiverdg` binds the function ginzburg and resolves every other
public name from its home module on first use (a module-level __getattr__),
and quiverdg.cli imports algebras, koszul, reflexivity and surfaces inside
the command handlers that use them.  Each check that reads sys.modules runs
in a new interpreter, because this test process has imported every module
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverdg

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code):
    """The JSON that `code` prints last, run in a new interpreter that
    imports quiverdg from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m.partition('.')[0] in ('quiverdg', 'sympy'))))")


def test_import_quiverdg_loads_no_deferred_layer():
    loaded = fresh("import quiverdg; " + LOADED)
    deferred = {"quiverdg." + m for m in (
        "algebras", "koszul", "reflexivity", "surfaces", "certificates", "cli")}
    assert not deferred & set(loaded), loaded
    assert "sympy" not in loaded
    assert "quiverdg.ginzburg" in loaded


def test_a_deferred_layer_loads_on_first_use():
    loaded = fresh("import quiverdg; quiverdg.check; " + LOADED)
    assert "quiverdg.reflexivity" in loaded and "quiverdg.surfaces" in loaded
    assert "quiverdg.koszul" not in loaded


def test_import_cli_loads_no_command_layer():
    loaded = fresh("from quiverdg import cli; " + LOADED)
    deferred = {"quiverdg." + m for m in ("algebras", "koszul", "reflexivity", "surfaces")}
    assert not deferred & set(loaded), loaded
    assert "sympy" not in loaded
    assert "quiverdg.cli" in loaded


def test_every_public_name_is_its_home_modules_object():
    # resolved cold, in the order of __all__, and checked against the
    # module that defines each object
    mismatched = fresh(
        "import json, sys, quiverdg\n"
        "bad = []\n"
        "for name in quiverdg.__all__:\n"
        "    value = getattr(quiverdg, name)\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    home = sys.modules[value.__module__]\n"
        "    if not home.__name__.startswith('quiverdg.') or getattr(home, name) is not value:\n"
        "        bad.append(name)\n"
        "print(json.dumps(bad))")
    assert mismatched == []


def test_ginzburg_stays_the_function_after_its_module_is_imported():
    kinds = fresh(
        "import json, sys, types\n"
        "import quiverdg.ginzburg\n"
        "import quiverdg\n"
        "from quiverdg import ginzburg\n"
        "module = sys.modules['quiverdg.ginzburg']\n"
        "print(json.dumps([quiverdg.ginzburg is module.ginzburg, ginzburg is module.ginzburg,\n"
        "                  isinstance(quiverdg.ginzburg, types.ModuleType)]))")
    assert kinds == [True, True, False]


def test_star_import_and_dir_list_every_public_name():
    missing = fresh(
        "import json, quiverdg\n"
        "namespace = {}\n"
        "exec('from quiverdg import *', namespace)\n"
        "print(json.dumps([sorted(set(quiverdg.__all__) - set(namespace)),\n"
        "                  sorted(set(quiverdg.__all__) - set(dir(quiverdg)))]))")
    assert missing == [[], []]


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quiverdg.no_such_name
    assert not hasattr(quiverdg, "dual_bar_of")
    with pytest.raises(ImportError):
        from quiverdg import no_such_name  # noqa: F401
