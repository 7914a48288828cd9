"""perfbench/tracer.py and the lazily resolved package attributes.

The tracer patches the bindings that exist when it is installed and puts
them back on uninstall.  A public name of quiverdg other than ginzburg is
not bound on the package; it is read from its home module on each access.
So a name resolved for the first time while the tracer is installed gives
the wrapper then, and the original once the tracer is gone, and nothing is
left behind.  Imports moved into a function body are read at call time, so
they get spans too.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import quiverdg

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

FIRST_RESOLVED_WHILE_TRACED = """
import importlib, json, sys
sys.path.insert(0, %r)
import tracer
import quiverdg

for module, _ in tracer.TARGETS:
    importlib.import_module("quiverdg." + module)


def bindings():
    return {name: {key: id(value) for key, value in vars(module).items()}
            for name, module in sys.modules.items()
            if name == "quiverdg" or name.startswith("quiverdg.")}


before = bindings()
originals = {name: getattr(quiverdg, name) for name in ("cohomology", "check", "dual_bar")}
t = tracer.Tracer()
t.install()
try:
    traced = {name: getattr(quiverdg, name) for name in quiverdg.__all__}
finally:
    t.uninstall()
print(json.dumps({
    "wrapped_while_traced": sorted(
        name for name, original in originals.items()
        if getattr(traced[name], "__wrapped__", None) is original),
    "changed": sorted(name for name, keys in bindings().items() if keys != before.get(name)),
    "wrappers_left": sorted(name for name in quiverdg.__all__
                            if hasattr(getattr(quiverdg, name), "__wrapped__")),
    "restored": all(getattr(quiverdg, name) is original
                    for name, original in originals.items()),
}))
"""


def test_names_first_resolved_while_traced_keep_no_wrapper():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", FIRST_RESOLVED_WHILE_TRACED % str(PERFBENCH)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"wrapped_while_traced": ["check", "cohomology", "dual_bar"],
                      "changed": [], "wrappers_left": [], "restored": True}


def _tracer():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("tracer")


def test_verify_koszul_pair_records_dual_bar_through_its_moved_import():
    t = _tracer().Tracer()
    point = quiverdg.QuiverPresentation(("v",), ())
    t.install()
    try:
        report = quiverdg.verify_koszul_pair(point, 2, 4, (-4, 0))
    finally:
        t.uninstall()
    assert report.all_match
    names = [span[0] for span in t.spans]
    parent = t.spans[names.index("koszul.dual_bar")][3]
    assert names[parent] == "ginzburg.verify_koszul_pair"
    assert not hasattr(sys.modules["quiverdg.koszul"].dual_bar, "__wrapped__")
