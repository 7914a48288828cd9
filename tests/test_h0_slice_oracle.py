"""h0_algebra against a copy of the version that realized again at L + 1.

For a presentation with no relations whose differential preserves weight,
h0_algebra now reads dim H^0 at L + 1 off the words of weight exactly L + 1
alone; any other presentation is still realized again.  The reference below
is h0_algebra as it was, realizing every presentation again at L + 1.  Per
draw the two must agree on the result (basis labels, structure constants
and unit with scalar types, representatives, stabilized_at and
dims_checked), or raise the same NotStabilized message, or the same
DSquaredNonzero degree and witness.

Three kinds of draw, on one to three vertices over Q, F_5 and F_101:

- free and weight-graded: each differential term weighs what its generator
  weighs, so the slice is used;
- free and not weight-graded, so the presentation is realized again;
- weight-graded, with monomial or binomial relations, realized again.

Two plain tests pin the DSquaredNonzero witness where d o d first fails
among the words of weight L + 1, with two failing words whose label order
differs from the order the quiver walk meets them.

Differentials are random combinations, so d o d often fails, at L or only
among the heavier words of L + 1.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from test_realize_oracle import SETTINGS

from quiverdg.algebras import FiniteDimAlgebra
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    H0Result,
    InconsistentPresentation,
    NotStabilized,
    UnsafeWindow,
    cohomology,
    h0_algebra,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.linalg import DSquaredNonzero
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, enumerate_paths

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def ref_h0_algebra(t):
    coh = cohomology(t, (0, 0))
    again = realize(t.presentation, t.window, t.weight_bound + 1)
    coh_next = cohomology(again, (0, 0))
    if coh.dims[0] != coh_next.dims[0]:
        raise NotStabilized(
            "H^0 dimension moved from %d to %d between weight bounds %d and %d"
            % (coh.dims[0], coh_next.dims[0], t.weight_bound, t.weight_bound + 1))
    reps = coh.representatives[0]
    field = t.field

    def coordinates(element):
        if element is None:
            raise NotStabilized(
                "representative product escapes weight bound %d; raise it"
                % t.weight_bound)
        coords = coh.class_coordinates(0, element)
        if coords is None:
            raise NotStabilized(
                "element does not lie in the computed cocycle span; raise the bound")
        return coords

    structure = {}
    for i, left in enumerate(reps):
        for j, right in enumerate(reps):
            coords = coordinates(t.product(left, right))
            if coords:
                structure[(i, j)] = coords
    unit = coordinates(t.qb.reduce(t.unit_element()))
    labels = [str(r) for r in reps]
    algebra = FiniteDimAlgebra(field, labels, structure, unit)
    return H0Result(algebra, reps, t.weight_bound, (coh.dims[0], coh_next.dims[0]))


def typed(vec):
    return [(k, repr(c), type(c)) for k, c in vec.items()]


def outcome(h0, t):
    try:
        result = h0(t)
    except NotStabilized as err:
        return ("NotStabilized", str(err))
    except DSquaredNonzero as err:
        return ("DSquaredNonzero", err.degree, err.witness)
    except (UnsafeWindow, InconsistentPresentation) as err:
        return (type(err).__name__, str(err))
    algebra = result.algebra
    return ("H0", algebra.basis, [(k, typed(v)) for k, v in algebra.structure.items()],
            typed(algebra.unit), [repr(r) for r in result.representatives],
            result.stabilized_at, result.dims_checked)


@st.composite
def presentations(draw, kind):
    """Base arrows of degree -1..1 and weight 1..2, then one or two arrows
    running along a base path one degree below it, then up to two more
    running along a path of those; each arrow may get a differential, and
    one of the last round always has its path among its terms.  kind is
    "graded", "ungraded" or "relations"."""
    field = draw(st.sampled_from(FIELDS))
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 3)))]
    arrows = []
    weights = {}
    along = {}  # the path each added arrow runs along
    for n in range(draw(st.integers(1, 3))):
        a = Arrow("g%d" % n, draw(st.sampled_from(vertices)),
                  draw(st.sampled_from(vertices)), draw(st.integers(-1, 1)))
        arrows.append(a)
        weights[a.name] = draw(st.sampled_from((1, 1, 2)))
    # two rounds, so that an arrow of the second can run along one of the
    # first, whose differential then makes its d o d nonzero
    for prefix, length in (("h", 3), ("k", 2)):
        base = QuiverPresentation(vertices, arrows)
        targets = [(path, w) for path, w in enumerate_paths(base, length, weights).items()
                   if path.labels]
        for n in range(draw(st.integers(2 - len(prefix), 2)) if targets else 0):
            path, w = draw(st.sampled_from(targets))
            name = "%s%d" % (prefix, n)
            arrows.append(Arrow(name, path.source, path.target, base.path_degree(path) - 1))
            along[name] = path
            weights[name] = w if kind != "ungraded" else draw(st.sampled_from((1, 2, 3)))
    quiver = QuiverPresentation(vertices, arrows)
    by_kind = {}
    for path, w in enumerate_paths(quiver, 4, weights).items():
        if path.labels:
            key = (path.source, path.target, quiver.path_degree(path))
            by_kind.setdefault(key, []).append((path, w))

    def combination(candidates, size):
        chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=size,
                               unique=True))
        return PathAlgebraElement({path: draw(st.sampled_from(COEFFS)) for path in chosen})

    differential = {}
    for a in arrows:
        candidates = [path for path, w in by_kind.get((a.source, a.target, a.degree + 1), ())
                      if kind == "ungraded" or w == weights[a.name]]
        if candidates and draw(st.integers(0, 3)):
            differential[a.name] = combination(candidates, 3)
        if a.name.startswith("k"):
            differential[a.name] = differential.get(a.name, PathAlgebraElement()) + \
                PathAlgebraElement.from_path(along[a.name], draw(st.sampled_from(COEFFS)))
    relations = []
    if kind == "relations":
        for _ in range(draw(st.integers(1, 2))):
            key = draw(st.sampled_from(sorted(by_kind)))
            relations.append(combination([path for path, _ in by_kind[key]], 2))
    presentation = DgAlgebraPresentation(vertices, arrows, differential=differential,
                                         relations=relations, weights=weights, field=field)
    return presentation, draw(st.integers(1, 4))


def assert_agrees(case):
    p, bound = case
    try:
        t = realize(p, (-1, 0), bound)
    except InconsistentPresentation:
        return None
    expected = outcome(ref_h0_algebra, t)
    assert outcome(h0_algebra, t) == expected
    return expected


@SETTINGS
@given(presentations("graded"))
def test_the_weight_slice_matches_the_full_realization(case):
    p, _ = case
    assert not p.relations and p.is_weight_graded()
    assert_agrees(case)


@SETTINGS
@given(presentations("ungraded"))
def test_free_presentations_that_are_not_weight_graded_agree(case):
    assert_agrees(case)


@SETTINGS
@given(presentations("relations"))
def test_presentations_with_relations_agree(case):
    assert_agrees(case)


def loops(*arrows, differential):
    """One vertex, the given (name, degree) loops of weight 2 each."""
    q = QuiverPresentation(["v"], [Arrow(name, "v", "v", degree) for name, degree in arrows])
    return DgAlgebraPresentation(
        ["v"], q.arrows, weights={name: 2 for name, _ in arrows},
        differential={name: PathAlgebraElement.from_path(q.path([term]))
                      for name, term in differential.items()})


def test_a_slice_rank_failure_names_the_first_column():
    # d(k1) = d(k2) = x and d(x) = u, so d o d fails out of degree -1 on both
    # k1 and k2, words of weight 2 only: the truncation at L = 1 holds just
    # the trivial path.
    p = loops(("k1", -1), ("k2", -1), ("x", 0), ("u", 1),
              differential={"k1": "x", "k2": "x", "x": "u"})
    t = realize(p, (-1, 0), 1)
    expected = outcome(ref_h0_algebra, t)
    assert expected == ("DSquaredNonzero", -1, "k1")
    assert outcome(h0_algebra, t) == expected


def test_a_slice_square_failure_names_the_first_degree_zero_word():
    p = loops(("x1", 0), ("x2", 0), ("u", 1), ("z", 2),
              differential={"x1": "u", "x2": "u", "u": "z"})
    t = realize(p, (-1, 0), 1)
    expected = outcome(ref_h0_algebra, t)
    assert expected == ("DSquaredNonzero", 0, "x1")
    assert outcome(h0_algebra, t) == expected
