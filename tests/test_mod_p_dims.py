"""Whole presentations with integer data: nothing shrinks mod p.

For a free presentation whose differentials have integer coefficients,
every differential matrix of a truncation over F_p is the reduction mod p
of the one over Q, on the same words.  A rank can only fall mod p, so
dim H^i = n_i - rank d_i - rank d_{i-1} can only grow, degree by degree.
Likewise reduce_modulo_relations spans the same integer product vectors
over both fields whenever the heaviest term of each relation survives mod
p, so the quotient basis over F_p is at least as large as over Q.  The
product span depends on the weight of each relation's heaviest term, so
those terms get coefficients that are units mod 5 and mod 101.  Without
that condition the F_p basis can be smaller; a pinned counterexample
shows it.

Random presentations live on one or two vertices: one to three closed
generators in degrees -1..1, and one to three generators whose
differentials are combinations of paths of length 1..3 in the closed ones,
so d o d = 0.  On half the draws one more generator has a differential on
paths of length 1..2 in all the others; d o d may then fail, and a draw
whose cohomology over Q raises DSquaredNonzero is skipped.  Every
generator weighs as much as its heaviest term, so the ledger is empty.
Coefficients include 5, -10, 101 and 505, so terms die mod p, and 4, 6,
102 and -102, so columns that are independent over Q become dependent
mod p.  Relation sets take two or three arrows on one or two vertices and
one to four relations, each on up to three parallel paths of length 1..3.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.dgalgebra import DgAlgebraPresentation, cohomology, realize
from quiverdg.fields import GroundField
from quiverdg.linalg import DSquaredNonzero
from quiverdg.quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    enumerate_paths,
    reduce_modulo_relations,
)

QQ = GroundField(0)
PRIMES = (GroundField(5), GroundField(101))
# units mod 5 and mod 101, some of them congruent to +-1 mod one prime
UNITS = (1, -1, 2, 4, 6, 102, -102)
COEFFS = UNITS + (5, -10, 101, 505)
WINDOW = (-9, 9)
SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def paths_by_shape(quiver, length):
    """Paths of length 1..length keyed by (source, target, degree)."""
    out = {}
    for path in enumerate_paths(quiver, length):
        if path.labels:
            out.setdefault((path.source, path.target, quiver.path_degree(path)),
                           []).append(path)
    return out


@st.composite
def free_presentations(draw):
    vertices = draw(st.sampled_from((("v",), ("u", "v"))))
    closed = [Arrow("c%d" % n, draw(st.sampled_from(vertices)),
                    draw(st.sampled_from(vertices)), draw(st.integers(-1, 1)))
              for n in range(draw(st.integers(1, 3)))]
    arrows = list(closed)
    weights = {a.name: 1 for a in closed}
    differential = {}

    def add_generator(name, shapes):
        (source, target, degree), paths = draw(st.sampled_from(list(shapes.items())))
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True))
        arrows.append(Arrow(name, source, target, degree - 1))
        # as heavy as its heaviest term, so the ledger stays empty
        weights[name] = max(sum(weights[x] for x in path.labels) for path in chosen)
        differential[name] = PathAlgebraElement(
            {path: draw(st.sampled_from(COEFFS)) for path in chosen})

    # generators killing paths in the closed ones: d o d = 0 on these
    shapes = paths_by_shape(QuiverPresentation(vertices, closed), 3)
    for n in range(draw(st.integers(1, 3))):
        add_generator("k%d" % n, shapes)
    # and on some draws one generator whose terms may hold the others
    if draw(st.booleans()):
        add_generator("w", paths_by_shape(QuiverPresentation(vertices, arrows), 2))
    return vertices, arrows, differential, weights, draw(st.integers(2, 4))


def dims_over(field, case):
    vertices, arrows, differential, weights, bound = case
    p = DgAlgebraPresentation(vertices, arrows, differential=differential,
                              weights=weights, field=field)
    return cohomology(realize(p, WINDOW, bound), WINDOW).dims


@SETTINGS
@given(free_presentations())
def test_cohomology_of_presentations_grows_mod_p(case):
    try:
        over_q = dims_over(QQ, case)
    except DSquaredNonzero:
        return
    for fp in PRIMES:
        over_p = dims_over(fp, case)
        assert list(over_p) == list(over_q)
        for degree, dim in over_q.items():
            assert over_p[degree] >= dim, (fp, degree)


@st.composite
def relation_sets(draw):
    vertices = draw(st.sampled_from((("v",), ("u", "v"))))
    arrows = [Arrow("a%d" % n, draw(st.sampled_from(vertices)),
                    draw(st.sampled_from(vertices)))
              for n in range(draw(st.integers(2, 3)))]
    quiver = QuiverPresentation(vertices, arrows)
    shapes = list(paths_by_shape(quiver, 3).values())
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        terms = draw(st.lists(st.sampled_from(draw(st.sampled_from(shapes))),
                              min_size=1, max_size=3, unique=True))
        heaviest = max(len(path) for path in terms)
        relations.append(PathAlgebraElement(
            {path: draw(st.sampled_from(UNITS if len(path) == heaviest else COEFFS))
             for path in terms}))
    return quiver, relations, draw(st.integers(2, 5))


@SETTINGS
@given(relation_sets())
def test_quotient_bases_grow_mod_p(case):
    quiver, relations, bound = case
    over_q = len(reduce_modulo_relations(quiver, relations, bound, field=QQ))
    for fp in PRIMES:
        assert len(reduce_modulo_relations(quiver, relations, bound, field=fp)) >= over_q


@pytest.mark.parametrize("fp", PRIMES, ids=str)
def test_a_coefficient_divisible_by_p_opens_cohomology(fp):
    # dy = p * x: over Q the pair (x, y) is acyclic, mod p both survive
    quiver = QuiverPresentation(["v"], [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)])
    differential = {"y": PathAlgebraElement({quiver.path(["x"]): fp.characteristic})}
    case = (["v"], quiver.arrows, differential, {"x": 1, "y": 1}, 1)
    assert dims_over(QQ, case) == {d: int(d == 0) for d in range(-9, 10)}
    over_p = dims_over(fp, case)
    assert (over_p[-1], over_p[0]) == (1, 2)


def test_a_heaviest_term_that_dies_mod_p_shrinks_the_quotient():
    # a0 + 100 a0a0 at bound 2: over Q only the relation itself fits, so
    # a0a0 goes and e_v, a0 stay.  Mod 5 the relation is a0, whose product
    # a0 * a0 fits too, so only e_v stays.  100 is a unit mod 101.
    quiver = QuiverPresentation(["v"], [Arrow("a0", "v", "v")])
    relation = PathAlgebraElement({quiver.path(["a0"]): 1,
                                   quiver.path(["a0", "a0"]): 100})
    sizes = [len(reduce_modulo_relations(quiver, [relation], 2, field=field))
             for field in (QQ,) + PRIMES]
    assert sizes == [2, 1, 2]
