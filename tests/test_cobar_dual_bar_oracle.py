"""cobar(dual_coalgebra(t)) against dual_bar(t), on random presentations.

Both build the Koszul dual of an augmented truncation t as a free dg
algebra on one generator per basis word of the augmentation ideal, but
along separate paths: dual_bar writes the differential directly, while
dual_coalgebra writes a coalgebra presentation (its own validation, weight
settling and coassociativity check) and cobar shifts it back.  Their
cohomology must agree degree by degree on every window.

Presentations are augmented, on one or two vertices over Q, F_5 and F_101:
closed base arrows of degree -1..1, then up to two arrows each with a
differential on base paths of one length and one degree up, so d o d is
zero.  Such an arrow mostly weighs what its differential weighs, and
otherwise weighs 1, so the differential can leave the weight bound.
Relations are monomials or binomials in base paths, so some are not
weight-homogeneous.  A draw is skipped, and counted, when t cannot be
dualized (its ledger is not empty, or an escaping product meets
inhomogeneous relations) or when the coalgebra is not conilpotent; a
window that a dual's ledger meets is counted too, and both duals must then
raise UnsafeWindow at the same degrees.  The last test prints the counts
of one run (pytest -s).

The two paths stay separate because they do not accept the same inputs: a
plain test pins an augmented truncation that dual_bar dualizes and
dual_coalgebra rejects as not conilpotent, so building dual_bar as
cobar(dual_coalgebra(t)) would change an answer.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    TruncatedDgAlgebra,
    UnsafeWindow,
    cohomology,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.koszul import NotConilpotent, cobar, dual_bar, dual_coalgebra
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, enumerate_paths

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
COEFFS = (1, -1, 2, -3, Fraction(1, 2))
WINDOWS = ((0, 3), (-1, 2), (1, 4))
SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SEEN = Counter()


@st.composite
def presentations(draw):
    field = draw(st.sampled_from(FIELDS))
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 2)))]
    base = [Arrow("a%d" % n, draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)),
                  draw(st.integers(-1, 1)))
            for n in range(draw(st.integers(1, 3)))]
    quiver = QuiverPresentation(vertices, base)
    by_kind = {}
    for path in enumerate_paths(quiver, 2):
        if path.labels:
            key = (path.source, path.target, quiver.path_degree(path))
            by_kind.setdefault(key, []).append(path)

    def combination(paths, size):
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=size, unique=True))
        return PathAlgebraElement({p: draw(st.sampled_from(COEFFS)) for p in chosen})

    arrows, differential = list(base), {}
    weights = {a.name: 1 for a in base}
    for n in range(draw(st.integers(0, 2))):
        (source, target, degree), paths = draw(st.sampled_from(sorted(by_kind.items())))
        weight = len(draw(st.sampled_from(paths)).labels)
        paths = [p for p in paths if len(p.labels) == weight]
        name = "h%d" % n
        arrows.append(Arrow(name, source, target, degree - 1))
        # a lighter arrow than its differential leaves a ledger at the bound
        weights[name] = draw(st.sampled_from((weight, weight, 1)))
        differential[name] = combination(paths, 2)
    relations = [combination(by_kind[draw(st.sampled_from(sorted(by_kind)))], 2)
                 for _ in range(draw(st.sampled_from((0, 0, 1))))]
    presentation = DgAlgebraPresentation(vertices, arrows, differential=differential,
                                         relations=relations, weights=weights, field=field)
    return presentation, draw(st.integers(2, 3)), draw(st.integers(2, 4))


def dims_or_overflow(truncation, window):
    try:
        return cohomology(truncation, window).dims
    except UnsafeWindow as err:
        return "UnsafeWindow", err.degrees


@SETTINGS
@given(presentations())
def test_cobar_of_the_dual_coalgebra_has_the_dual_bar_cohomology(case):
    p, bound, word_bound = case
    try:
        t = realize(p, (0, 0), bound)
        dual = dual_bar(t, word_bound, (-8, 8))
        coalgebra = dual_coalgebra(t)
    except (InconsistentPresentation, UnsafeWindow, ValueError) as err:
        SEEN["t not dualized: " + type(err).__name__] += 1
        return
    except NotConilpotent:
        SEEN["NotConilpotent"] += 1
        return
    other = cobar(coalgebra, word_bound, (-8, 8))
    for window in WINDOWS:
        want = dims_or_overflow(dual, window)
        assert dims_or_overflow(other, window) == want, window
        SEEN["UnsafeWindow" if isinstance(want, tuple) else "compared"] += 1


def test_the_draws_compare_cohomology():
    if not SEEN["compared"]:
        test_cobar_of_the_dual_coalgebra_has_the_dual_bar_cohomology()
    print(dict(SEEN))
    assert SEEN["compared"]


def test_dual_bar_dualizes_what_the_dual_coalgebra_rejects():
    # a*a = a: the letter [a] splits as [a] (x) [a], which does not descend
    # in weight, so the dual coalgebra is not conilpotent; dual_bar writes
    # the dual of the product into its differential all the same
    q = QuiverPresentation(("v",), (Arrow("a", "v", "v", 0),))
    a = PathAlgebraElement.from_path(q.path(["a"]))
    idempotent = PathAlgebraElement.from_path(q.path(["a", "a"])) - a
    t = realize(DgAlgebraPresentation(("v",), q.arrows, relations=(idempotent,)), (0, 0), 3)
    dual = dual_bar(t, 3, (0, 3))
    assert isinstance(dual, TruncatedDgAlgebra)
    assert dual.dims() == {0: 1, 1: 1, 2: 1, 3: 1}
    with pytest.raises(NotConilpotent) as err:
        dual_coalgebra(t)
    assert str(err.value) == "splitting [a] -> [a] (x) [a] does not descend in weight"
