"""Exact computation with presented dg algebras over quivers.

Calabi-Yau completions and Ginzburg dg algebras, truncated bar/cobar Koszul
duals, graded gentle algebras from marked surfaces, and reflexivity verdicts
with replayable certificates, all over exact ground fields.

The usual session starts from a presentation (a quiver with a superpotential,
a marked surface with arcs, or generators and relations written out), realizes
it on a degree window with a word-length bound, and hands the truncation to
`cohomology`, `dual_bar`, `completeness_report`, or `check`.  Everything an
answer depends on is either verified exactly or tagged with the window it was
checked in; nothing extrapolates silently.

`import quiverdg` loads only the layers that ginzburg needs (fields, linalg,
quiver, dgalgebra and ginzburg itself).  Every other public name resolves on
first use, and its home module (algebras, certificates, koszul, reflexivity
or surfaces) is imported then.  The function ginzburg is bound eagerly: it
shares its name with its module, which would otherwise shadow it.
"""

from importlib import import_module

from .ginzburg import ginzburg

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "BoundaryComponent",
    "CompletenessTriple",
    "DgAlgebraPresentation",
    "FiniteDimAlgebra",
    "GentlePresentation",
    "GroundField",
    "MarkedSurfaceArcSystem",
    "PathAlgebraElement",
    "QuiverPresentation",
    "ReflexivityVerdict",
    "Superpotential",
    "SymbolicFamily",
    "__version__",
    "bar",
    "check",
    "classify",
    "cobar",
    "cohomology",
    "completeness_report",
    "cy_completion",
    "decompose_commutative",
    "dual_bar",
    "dual_coalgebra",
    "extract_sod",
    "format_scalar",
    "fukaya_verdict",
    "gentle_presentation",
    "ginzburg",
    "h0_algebra",
    "jacobi_basis",
    "parse_scalar",
    "quadratic_dual",
    "realize",
    "replay_certificate",
    "two_out_of_three",
    "verify_differential",
    "verify_koszul_pair",
]

# The home module of each public name but ginzburg and __version__, which
# are bound above.  ginzburg is bound eagerly because importing its module
# binds the module on the package under the same name; the binding made
# after that import replaces it.
_EXPORTS = {
    "algebras": ("FiniteDimAlgebra", "decompose_commutative"),
    "certificates": ("ReflexivityVerdict", "replay_certificate"),
    "dgalgebra": ("DgAlgebraPresentation", "classify", "cohomology", "h0_algebra",
                  "realize", "verify_differential"),
    "fields": ("GroundField", "format_scalar", "parse_scalar"),
    "ginzburg": ("cy_completion", "jacobi_basis", "verify_koszul_pair"),
    "koszul": ("bar", "cobar", "completeness_report", "dual_bar", "dual_coalgebra"),
    "quiver": ("Arrow", "PathAlgebraElement", "QuiverPresentation", "Superpotential"),
    "reflexivity": ("CompletenessTriple", "SymbolicFamily", "check", "two_out_of_three"),
    "surfaces": ("BoundaryComponent", "GentlePresentation", "MarkedSurfaceArcSystem",
                 "extract_sod", "fukaya_verdict", "gentle_presentation", "quadratic_dual"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """A public name, read from its home module, which is imported on first
    use.  The value is not stored on the package: each access reads the home
    module's binding as it is then, so a function that is patched there and
    restored later (as perfbench/tracer.py does) is never kept here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module(__name__ + "." + home), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
