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
"""

from .algebras import FiniteDimAlgebra, decompose_commutative
from .certificates import ReflexivityVerdict, replay_certificate
from .dgalgebra import (
    DgAlgebraPresentation,
    classify,
    cohomology,
    h0_algebra,
    realize,
    verify_differential,
)
from .fields import GroundField, format_scalar, parse_scalar
from .ginzburg import cy_completion, ginzburg, jacobi_basis, verify_koszul_pair
from .koszul import bar, cobar, completeness_report, dual_bar, dual_coalgebra
from .quiver import Arrow, PathAlgebraElement, QuiverPresentation, Superpotential
from .reflexivity import CompletenessTriple, SymbolicFamily, check, two_out_of_three
from .surfaces import (
    BoundaryComponent,
    GentlePresentation,
    MarkedSurfaceArcSystem,
    extract_sod,
    fukaya_verdict,
    gentle_presentation,
    quadratic_dual,
)

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
