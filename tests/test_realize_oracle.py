"""realize against a copy of the column loop it had before the letter table.

The reference below builds each word's differential the old way: the free
Leibniz extension on paths (its own copy of d_of_element, with a field sign
at every letter), then the weight check, then reduction by the quotient
basis and a path -> id lookup.  It shares with realize only
reduce_modulo_relations.  Per word, the columns must agree as item lists,
so key order counts, with the same scalar types; so must the ledger entries
in order, mul_overflow (counted here over all word pairs) and dims().
Where the reference raises InconsistentPresentation, realize must raise it
with the same message.

Random presentations live on one to three vertices over Q, F_5 and F_101:
generators of degree -2..2 and weight 1..3, differentials that are
combinations of paths of length 1..3 with non-unit and fractional
coefficients, and on some draws monomial or binomial relations.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.quiver import (
    Arrow,
    Path,
    PathAlgebraElement,
    QuiverPresentation,
    enumerate_paths,
    reduce_modulo_relations,
)

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
COEFFS = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ref_d_of_element(p, element):
    """The free Leibniz extension on paths, as d_of_element computed it."""
    total = {}
    for word, coeff in element.terms.items():
        prefix_degree = 0
        for i, label in enumerate(word.labels):
            gen = p.quiver.arrow(label)
            dg = p.differential.get(label)
            if dg is not None:
                sign = p.field.of(-1 if prefix_degree % 2 else 1)
                for term, c in dg.terms.items():
                    new = Path(word.labels[:i] + term.labels + word.labels[i + 1:],
                               word.source, word.target)
                    s = total.get(new)
                    s = coeff * sign * c if s is None else s + coeff * sign * c
                    if s:
                        total[new] = s
                    else:
                        total.pop(new, None)
            prefix_degree += gen.degree
    return PathAlgebraElement(total)


def ref_realize(p, bound):
    """(words, columns as item lists or None, ledger, mul_overflow, dims)."""
    qb = reduce_modulo_relations(p.quiver, p.relations, bound,
                                 field=p.field, weights=p.weights)
    for r in p.relations:
        dr = ref_d_of_element(p, r)
        if dr.is_zero() or any(p.weight_of(t) > bound for t in dr.terms):
            continue
        residue = qb.reduce(dr)
        if not residue.is_zero():
            raise InconsistentPresentation(
                "d of relation %r leaves the relation ideal: residue %r" % (r, residue))
    by_degree = {}
    for path in qb.basis:
        by_degree.setdefault(p.degree_of(path), []).append(path)
    words = [w for d in sorted(by_degree) for w in by_degree[d]]
    ids = {w: i for i, w in enumerate(words)}
    one = p.field.one()
    columns, ledger = [], []
    for w in words:
        free = ref_d_of_element(p, PathAlgebraElement.from_path(w, one))
        if any(p.weight_of(t) > bound for t in free.terms):
            ledger.append(("differential", p.degree_of(w), str(w)))
            columns.append(None)
            continue
        columns.append([(ids[path], c) for path, c in qb.reduce(free).terms.items()])
    overflow = {}
    for u in words:
        for v in words:
            if u.target == v.source and p.weight_of(u) + p.weight_of(v) > bound:
                landing = p.degree_of(u) + p.degree_of(v)
                overflow[landing] = overflow.get(landing, 0) + 1
    dims = {d: len(ws) for d, ws in sorted(by_degree.items())}
    return words, columns, ledger, dict(sorted(overflow.items())), dims


def typed(items):
    return None if items is None else [(k, c, type(c)) for k, c in items]


def is_native(field, c):
    """An int in range(p) over F_p; over Q an int, or a Fraction that is
    not integral."""
    if field.characteristic:
        return type(c) is int and 0 <= c < field.characteristic
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@st.composite
def presentations(draw):
    """Closed-or-not base arrows, then one or two arrows, each with the
    endpoints of a base path and one degree below it, so that a
    differential can reach that path; any arrow may get a differential."""
    field = draw(st.sampled_from(FIELDS))
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 3)))]
    arrows = []
    for n in range(draw(st.integers(1, 3))):
        arrows.append(Arrow("g%d" % n, draw(st.sampled_from(vertices)),
                            draw(st.sampled_from(vertices)), draw(st.integers(-2, 2))))
    base = QuiverPresentation(vertices, arrows)
    targets = [path for path in enumerate_paths(base, 2)
               if path.labels and -1 <= base.path_degree(path) <= 3]
    for n in range(draw(st.integers(1, 2)) if targets else 0):
        path = draw(st.sampled_from(targets))
        arrows.append(Arrow("h%d" % n, path.source, path.target, base.path_degree(path) - 1))
    weights = {a.name: draw(st.sampled_from((1, 1, 2, 3))) for a in arrows}
    quiver = QuiverPresentation(vertices, arrows)
    by_kind = {}
    for path in enumerate_paths(quiver, 3):
        if path.labels:
            key = (path.source, path.target, quiver.path_degree(path))
            by_kind.setdefault(key, []).append(path)

    def combination(candidates, size):
        chosen = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=size,
                               unique=True))
        return PathAlgebraElement({path: draw(st.sampled_from(COEFFS)) for path in chosen})

    differential = {}
    for a in arrows:
        candidates = by_kind.get((a.source, a.target, a.degree + 1))
        if candidates and draw(st.integers(0, 3)):
            differential[a.name] = combination(candidates, 3)
    relations = []
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        kind = draw(st.sampled_from(sorted(by_kind)))
        relations.append(combination(by_kind[kind], 2))
    presentation = DgAlgebraPresentation(vertices, arrows, differential=differential,
                                         relations=relations, weights=weights, field=field)
    return presentation, draw(st.integers(2, 4))


@SETTINGS
@given(presentations())
def test_realize_matches_the_old_column_loop(case):
    p, bound = case
    try:
        words, columns, ledger, overflow, dims = ref_realize(p, bound)
    except InconsistentPresentation as err:
        try:
            realize(p, (0, 0), bound)
        except InconsistentPresentation as raised:
            assert str(raised) == str(err)
        else:
            raise AssertionError("realize accepted an inconsistent presentation")
        return
    t = realize(p, (0, 0), bound)
    assert t._words == words
    for i, word in enumerate(words):
        col = t.d_of(word)
        expected = columns[i]
        assert typed(None if col is None else col.items()) == typed(
            None if expected is None else [(words[k], c) for k, c in expected]), word
    assert all(is_native(p.field, c) for col in t._columns if col for c in col.values())
    assert [(e.kind, e.degree, e.word) for e in t.differential_ledger] == ledger
    assert t.mul_overflow == overflow
    assert t.dims() == dims


@SETTINGS
@given(presentations())
def test_d_of_element_matches_the_old_extension(case):
    p, bound = case
    element = PathAlgebraElement()
    for r in p.relations:
        element = element + r
    for value in p.differential.values():
        element = element + value
    expected = ref_d_of_element(p, element)
    got = p.d_of_element(element)
    assert typed(got.terms.items()) == typed(expected.terms.items())
