"""verify_differential against a naive all-pairs checker on random inputs.

The reference below works on paths only: it visits every ordered pair of
basis words, keeps the composable pairs whose weights fit the bound, and
multiplies by reducing the concatenation with the truncation's quotient
basis (one generator at a time when the product escapes a certified
finite-dimensional truncation).  It shares no code with verify_differential
beyond the realized columns, read through d_of.  The full reports, failure
order included, must agree.

Random presentations live on one or two vertices over Q or F_101: closed
degree 0 arrows, degree -1 arrows whose differential is a combination of
degree 0 paths, and optionally a degree -2 arrow whose differential is a
combination of degree -1 paths, so d*d need not vanish.  Three cases cover
products reduced against relations, differentials that escape the weight
bound, and a doubled column.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.dgalgebra import DgAlgebraPresentation, realize, verify_differential
from quiverdg.fields import GroundField
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, concat, enumerate_paths

FIELDS = (GroundField(0), GroundField(101))
SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def bump(total, path, coeff):
    s = total.get(path)
    s = coeff if s is None else s + coeff
    if s:
        total[path] = s
    else:
        total.pop(path, None)


def naive_report(t):
    """(checked_words, skipped_words, checked_pairs, skipped_pairs, failures)
    by the all-pairs scan, on paths."""
    p = t.presentation
    one = t.field.one()
    words = [w for d in sorted(t.basis_by_degree) for w in t.basis_by_degree[d]]

    def reduce(terms):
        return t.qb.reduce(PathAlgebraElement(terms)).terms

    def times(u, v):
        if u.target != v.source:
            return {}
        if p.weight_of(u) + p.weight_of(v) <= t.weight_bound:
            return reduce({concat(u, v): one})
        if not t.certified_finite_dimensional:
            return None
        acc = reduce({u: one})
        for label in v.labels:
            step = PathAlgebraElement(acc) * PathAlgebraElement.from_path(p.quiver.path([label]))
            acc = reduce(step.terms)
        return acc

    def combine(pieces):
        total = {}
        for coeff, vec in pieces:
            if vec is None:
                return None
            for path, c in vec.items():
                bump(total, path, coeff * c)
        return total

    def d(vec):
        return combine((c, t.d_of(w)) for w, c in vec.items())

    checked_words = skipped_words = checked_pairs = skipped_pairs = 0
    failures = []
    for w in words:
        col = t.d_of(w)
        dd = None if col is None else d(col)
        if dd is None:
            skipped_words += 1
            continue
        checked_words += 1
        if dd:
            failures.append(("d_squared", str(w), repr(PathAlgebraElement(dd))))
    for a in words:
        for b in words:
            if (a.target != b.source
                    or p.weight_of(a) + p.weight_of(b) > t.weight_bound):
                continue
            da, db = t.d_of(a), t.d_of(b)
            if da is None or db is None:
                skipped_pairs += 1
                continue
            sign = t.field.of(-1 if p.degree_of(a) % 2 else 1)
            lhs = d(times(a, b))
            rhs = combine([(c, times(u, b)) for u, c in da.items()]
                          + [(sign * c, times(a, v)) for v, c in db.items()])
            if lhs is None or rhs is None:
                skipped_pairs += 1
                continue
            checked_pairs += 1
            if lhs != rhs:
                failures.append(("leibniz", str(a), str(b)))
    return (checked_words, skipped_words, checked_pairs, skipped_pairs, failures)


def as_tuple(report):
    return (report.checked_words, report.skipped_words, report.checked_pairs,
            report.skipped_pairs, list(report.failures))


def paths_between(arrows, vertices, source, target, degree, max_length):
    quiver = QuiverPresentation(vertices, arrows)
    return [path for path in enumerate_paths(quiver, max_length)
            if (path.source, path.target) == (source, target) and path.labels
            and quiver.path_degree(path) == degree]


def combination(draw, field, paths):
    if not paths:
        return {}
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
    coeffs = st.integers(-3, 3).filter(bool)
    total = {}
    for path in chosen:
        bump(total, path, field.of(draw(coeffs)))
    return total


@st.composite
def presentations(draw, relations, heavy_loop):
    """(presentation, weight bound, the loop z0 at u).

    The loop a0 at u is always present and z0 at u always has a0 in its
    differential; with heavy_loop the differential also has the term a0*a0,
    which outweighs z0 and so escapes the bound in the heaviest words.
    """
    field = draw(st.sampled_from(FIELDS))
    vertices = ["u", "v"][:draw(st.integers(1, 2))]
    vertex = st.sampled_from(vertices)
    arrows = [Arrow("a0", "u", "u", 0)]
    arrows += [Arrow("a%d" % i, draw(vertex), draw(vertex), 0)
               for i in range(1, draw(st.integers(1, 2)))]
    degree_zero = list(arrows)
    quiver = QuiverPresentation(vertices, degree_zero)
    loop_terms = {quiver.path(["a0"]): field.one()}
    if heavy_loop:
        loop_terms[quiver.path(["a0", "a0"])] = field.of(draw(st.integers(1, 3)))
    differential = {"z0": PathAlgebraElement(loop_terms)}
    arrows.append(Arrow("z0", "u", "u", -1))
    weights = {}
    for i in range(1, draw(st.integers(1, 2))):
        s, t = draw(vertex), draw(vertex)
        name = "z%d" % i
        arrows.append(Arrow(name, s, t, -1))
        weights[name] = draw(st.integers(1, 2))
        differential[name] = PathAlgebraElement(combination(
            draw, field, paths_between(degree_zero, vertices, s, t, 0, 2)))
    if draw(st.booleans()):
        s, t = draw(vertex), draw(vertex)
        arrows.append(Arrow("y", s, t, -2))
        differential["y"] = PathAlgebraElement(combination(
            draw, field, paths_between(arrows[:-1], vertices, s, t, -1, 2)))
    kept = []
    if relations:
        # the first relation lives at u, where a0 always gives paths
        ends = [("u", "u")] + [(draw(vertex), draw(vertex))
                               for _ in range(draw(st.integers(0, 1)))]
        for s, t in ends:
            terms = combination(draw, field, paths_between(degree_zero, vertices, s, t, 0, 2))
            if terms:
                kept.append(PathAlgebraElement(terms))
    bound = draw(st.integers(2, 3 if len(arrows) > 3 else 4))
    presentation = DgAlgebraPresentation(
        vertices, arrows, differential=differential, relations=kept,
        weights=weights, field=field)
    z0 = presentation.quiver.path(["z0"])
    return presentation, bound, z0


def realized(presentation, bound):
    return realize(presentation, (-2 * bound, 0), bound)


@SETTINGS
@given(presentations(relations=True, heavy_loop=False))
def test_products_reduced_against_relations(case):
    presentation, bound, _ = case
    t = realized(presentation, bound)
    assert len(t.qb.basis) < len(enumerate_paths(presentation.quiver, bound,
                                                 presentation.weights))
    assert as_tuple(verify_differential(t)) == naive_report(t)


@SETTINGS
@given(presentations(relations=False, heavy_loop=True))
def test_escaping_differentials_skip_pairs(case):
    presentation, bound, _ = case
    t = realized(presentation, bound)
    expected = naive_report(t)
    assert expected[3] > 0
    assert as_tuple(verify_differential(t)) == expected


@SETTINGS
@given(presentations(relations=False, heavy_loop=False))
def test_doubled_column_fails_the_same_pairs(case):
    presentation, bound, z0 = case
    t = realized(presentation, bound)
    k = t._id[z0]
    t._columns[k] = {i: 2 * c for i, c in t._columns[k].items()}
    expected = naive_report(t)
    assert expected[4]
    assert as_tuple(verify_differential(t)) == expected
