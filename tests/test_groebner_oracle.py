"""reduce_modulo_relations against the span construction it replaced.

The reference, ref_reduce_modulo_relations, spans every product u*r*v whose
heaviest term fits the bound and eliminates; the engine computes a
weight-truncated Groebner basis instead.  Random presentations live on one
to three vertices over Q, F_5 and F_101, with arrow weights 1 to 3 and one
to three relations.  Each relation is drawn homogeneous (all terms of one
weight) or mixed-weight, and the coefficients include 5, which vanishes
mod 5, so a relation can be lighter over F_5 than over Q.

With binomial and monomial relations every normal form has at most one
term, and per draw these must agree:

- the quotient basis, in order;
- qb.reduce of every word within the bound and of random combinations of
  them, as item lists with scalar types, so key order counts;
- the ValueError, message included, for a path beyond the bound.

With up to four terms per relation a normal form can have several terms.
The span construction orders those by its elimination history and the
rewriting by weight, heaviest first, so there the basis must agree in order
and reduce as a set of typed items.

Nothing else may raise: the tests call the engine outside any handler, so
a stray exception fails the draw.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_realize_oracle import FIELDS
from test_word_records_oracle import ref_reduce_modulo_relations, typed

from quiverdg.quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    enumerate_paths,
    reduce_modulo_relations,
)

COEFFS = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def presentations(draw, max_terms):
    """(quiver, weights, field, relations, bound).  Most draws have one
    vertex and light arrows, and relation terms weigh at most 3 against a
    bound of 3 to 5, so that overlaps of leading words fit the bound and
    the Groebner basis grows past the relations."""
    field = draw(st.sampled_from(FIELDS))
    vertices = ["v%d" % i for i in range(draw(st.sampled_from((1, 1, 1, 2, 3))))]
    arrows = [Arrow("a%d" % n, draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices)))
              for n in range(draw(st.sampled_from((1, 2, 2, 3, 3))))]
    quiver = QuiverPresentation(vertices, arrows)
    weights = {a.name: draw(st.sampled_from((1, 1, 1, 1, 2, 3))) for a in arrows}
    by_ends, by_weight = {}, {}
    for path, weight in enumerate_paths(quiver, 3, weights).items():
        if path.labels:
            by_ends.setdefault((path.source, path.target), []).append(path)
            by_weight.setdefault((path.source, path.target, weight), []).append(path)
    relations = []
    for _ in range(draw(st.sampled_from((1, 2, 2, 3, 3)))):
        pool = by_weight if draw(st.booleans()) else by_ends
        paths = draw(st.sampled_from(sorted(pool.values(), key=str)))
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=max_terms,
                               unique=True))
        relations.append(PathAlgebraElement(
            {path: draw(st.sampled_from(COEFFS)) for path in chosen}))
    return quiver, weights, field, relations, draw(st.integers(3, 5))


@st.composite
def loop_presentations(draw):
    """Two or three loops of weight 1 at one vertex and two or three
    relations of one to three words of length 1 to 3.  Words of different
    lengths in one relation make leading words of slack above 0, and
    inclusion pairs matter on a few percent of these draws."""
    field = draw(st.sampled_from(FIELDS))
    quiver = QuiverPresentation(["v"], [Arrow("a%d" % n, "v", "v")
                                        for n in range(draw(st.integers(2, 3)))])
    weights = {a.name: 1 for a in quiver.arrows}
    words = [path for path in enumerate_paths(quiver, 3) if path.labels]
    relations = []
    for _ in range(draw(st.integers(2, 3))):
        chosen = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
        relations.append(PathAlgebraElement(
            {path: draw(st.sampled_from(COEFFS)) for path in chosen}))
    return quiver, weights, field, relations, draw(st.integers(3, 5))


def probes(quiver, weights, field, bound, data):
    """Every word within the bound with coefficient one, then random
    combinations of those words."""
    words = list(enumerate_paths(quiver, bound, weights))
    one = field.one()
    out = [PathAlgebraElement.from_path(w, one) for w in words]
    for _ in range(4):
        chosen = data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6,
                                    unique=True))
        out.append(PathAlgebraElement({w: data.draw(st.sampled_from(COEFFS)) for w in chosen}))
    return out


def beyond(quiver, weights, bound):
    """A path just past the bound, or None when the quiver has no arrow."""
    words = enumerate_paths(quiver, bound, weights)
    for path in enumerate_paths(quiver, bound + 3, weights):
        if path not in words:
            return PathAlgebraElement.from_path(path)
    return None


def both(case):
    quiver, weights, field, relations, bound = case
    qb = reduce_modulo_relations(quiver, relations, bound, field=field, weights=weights)
    ref = ref_reduce_modulo_relations(quiver, relations, bound, field, weights)
    assert qb.basis == ref.basis
    return qb, ref


@SETTINGS
@given(presentations(max_terms=2), st.data())
def test_binomial_relations_match_the_span_term_for_term(case, data):
    quiver, weights, field, _, bound = case
    qb, ref = both(case)
    for element in probes(quiver, weights, field, bound, data):
        assert typed(qb.reduce(element).terms.items()) == typed(
            ref.reduce(element).terms.items()), element
    far = beyond(quiver, weights, bound)
    if far is not None:
        with pytest.raises(ValueError) as expected:
            ref.reduce(far)
        with pytest.raises(ValueError) as raised:
            qb.reduce(far)
        assert str(raised.value) == str(expected.value)


@SETTINGS
@given(st.one_of(presentations(max_terms=4), loop_presentations()), st.data())
def test_longer_relations_match_the_span_up_to_key_order(case, data):
    quiver, weights, field, _, bound = case
    qb, ref = both(case)
    for element in probes(quiver, weights, field, bound, data):
        assert sorted(typed(qb.reduce(element).terms.items())) == sorted(
            typed(ref.reduce(element).terms.items())), element
