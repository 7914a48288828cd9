"""The benchmark's tracer still finds every function it wraps.

perfbench/tracer.py patches each TARGETS entry by name: a module-level
function in every quiverdg module that binds it, and a "Class.method" entry
in its class's own body.  A renamed function or an inherited method would
make a traced benchmark run fail or lose its spans, so this checks the hooks
from the test suite.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("tracer")


def _owner_and_key(module, attribute):
    owner = importlib.import_module("quiverdg." + module)
    if "." in attribute:
        cls_name, method = attribute.split(".")
        return getattr(owner, cls_name), method
    return owner, attribute


def _bindings():
    """Every attribute of every quiverdg module and TARGETS class, by id."""
    tracer = _tracer()
    owners = [mod for name, mod in sys.modules.items()
              if name == "quiverdg" or name.startswith("quiverdg.")]
    owners += [_owner_and_key(m, a)[0] for m, a in tracer.TARGETS if "." in a]
    return {(id(owner), key): value
            for owner in owners for key, value in list(vars(owner).items())}


def test_every_target_is_patched_and_restored():
    tracer = _tracer()
    originals = {}
    for module, attribute in tracer.TARGETS:
        owner, key = _owner_and_key(module, attribute)
        assert key in vars(owner), "%s.%s is not defined where the tracer looks" % (
            module, attribute)
        originals[(module, attribute)] = vars(owner)[key]
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for (module, attribute), original in originals.items():
            owner, key = _owner_and_key(module, attribute)
            wrapped = vars(owner)[key]
            assert getattr(wrapped, "__wrapped__", None) is original, (module, attribute)
    finally:
        t.uninstall()
    assert _bindings() == before


def test_bar_cohomology_records_its_spans():
    from quiverdg.dgalgebra import DgAlgebraPresentation, realize
    from quiverdg.koszul import bar
    from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation

    q = QuiverPresentation(("v",), (Arrow("eps", "v", "v", 0),))
    square = PathAlgebraElement.from_path(q.path(["eps", "eps"]))
    t = realize(DgAlgebraPresentation(("v",), q.arrows, relations=(square,)), (0, 0), 2)
    b = bar(t, 3, (-3, 0))
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        dims = b.cohomology_dims((-3, 0))
    finally:
        tracer.uninstall()
    assert dims == {-3: 1, -2: 1, -1: 1, 0: 1}
    # the bar path runs the ranks step alone: no kernel, no matrix
    assert [span[0] for span in tracer.spans] == ["koszul.cohomology_dims"]
