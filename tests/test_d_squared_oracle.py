"""cohomology's d o d check against the direct squaring it replaced.

cohomology used to square every word of degrees lo - 1 to hi through the
truncation's columns, in id order, after the ledger gate.  It now reads
d o d = 0 into each window degree off the ranks that cohomology_of_complex
takes anyway, and squares only the words of degree hi directly.  The
reference below is the gate and the old squaring, on the path-level views
d_of and d_element.  For every window and both strict values the outcome
must agree: the same UnsafeWindow degrees, the same DSquaredNonzero degree,
witness word and message, or no exception on either side.

Random presentations live on one vertex over Q and F_5: two or three
generators of weight 1..2, with degrees within two of each other in -1..3,
each with a random differential on paths of length 1..3, so differentials
chain and d o d is often nonzero.  On half the draws no term of a
differential outweighs its generator, so the ledger is empty; on the others
it often meets the window.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_dgalgebra import d_squared_failure_presentation

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    UnsafeWindow,
    cohomology,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.linalg import DSquaredNonzero
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, enumerate_paths

FIELDS = (GroundField(0), GroundField(5))
COEFFS = (1, -1, 2, -3, Fraction(1, 2))
WINDOWS = ((-2, 0), (-1, 1), (0, 0), (0, 2), (1, 3), (2, 2))
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ref_check(t, window, strict):
    """The ledger gate, then the square of every word of degrees lo - 1 to
    hi in id order, as cohomology took them."""
    lo, hi = window
    check_lo, check_hi = (lo - 1, hi + 1) if strict else (lo, hi)
    touched = sorted({e.degree for e in t.differential_ledger
                      if check_lo <= e.degree <= check_hi})
    if touched:
        raise UnsafeWindow(touched, "")
    for degree in range(lo - 1, hi + 1):
        for word in t.words(degree):
            dw = t.d_of(word)
            square = None if dw is None else t.d_element(PathAlgebraElement(dw))
            if square is not None and not square.is_zero():
                raise DSquaredNonzero(degree, str(word))


def outcome(run):
    try:
        run()
    except UnsafeWindow as err:
        return ("unsafe", err.degrees)
    except DSquaredNonzero as err:
        return ("d_squared", err.degree, err.witness, str(err))
    return None


@st.composite
def presentations(draw):
    field = draw(st.sampled_from(FIELDS))
    # degrees within two of each other, so that differentials can chain
    low = draw(st.integers(-1, 1))
    arrows = [Arrow("g%d" % n, "v", "v", low + draw(st.integers(0, 2)))
              for n in range(draw(st.integers(2, 3)))]
    weights = {a.name: draw(st.sampled_from((1, 1, 2))) for a in arrows}
    quiver = QuiverPresentation(["v"], arrows)
    by_degree = {}
    for path in enumerate_paths(quiver, 3):
        if path.labels:
            by_degree.setdefault(quiver.path_degree(path), []).append(path)
    # on some draws no term outweighs its generator, so the ledger is empty
    # and every window reaches the d o d check
    light = draw(st.booleans())
    differential = {}
    for a in arrows:
        candidates = [path for path in by_degree.get(a.degree + 1, ())
                      if not light or sum(map(weights.get, path.labels)) <= weights[a.name]]
        if candidates and draw(st.integers(0, 3)):
            chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3,
                                   unique=True))
            differential[a.name] = PathAlgebraElement(
                {path: draw(st.sampled_from(COEFFS)) for path in chosen})
    presentation = DgAlgebraPresentation(["v"], arrows, differential=differential,
                                         weights=weights, field=field)
    return presentation, draw(st.integers(2, 4))


@SETTINGS
@given(presentations())
def test_cohomology_raises_as_the_direct_squaring_did(case):
    p, bound = case
    t = realize(p, (0, 0), bound)
    for window in WINDOWS:
        for strict in (False, True):
            want = outcome(lambda: ref_check(t, window, strict))
            got = outcome(lambda: cohomology(t, window, strict))
            assert got == want, (window, strict)


def test_rank_check_names_the_failing_word_below_the_top_degree():
    # dx = y and dy = xy - yx, so d(d(x)) = xy - yx.  In the window (2, 2)
    # the direct squaring covers only degree 2, so the witness in degree 1
    # comes from the ranks; in (1, 1) degree 1 is the top and is squared.
    t = realize(d_squared_failure_presentation(), (0, 3), 3)
    for window in ((2, 2), (1, 1)):
        with pytest.raises(DSquaredNonzero) as err:
            cohomology(t, window)
        assert (err.value.degree, err.value.witness) == (1, "x")
