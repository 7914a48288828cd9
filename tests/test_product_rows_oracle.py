"""verify_differential's product rows against _multiply and the pair scan
they replaced.

verify_differential reads every product i*j from a row of i, filled in walk
order from the row entry of j's prefix (see dgalgebra._product_rows).  Per
draw these must agree:

- every row entry with _multiply(i, j), as item lists with scalar types, an
  id entry standing for that word with coefficient one, and each row's keys
  with the words that start at the target of i and fit its room;
- the whole DifferentialReport, failure order included, with
  ref_verify_differential, a copy of the scan that called _multiply once per
  pair through a product memo.

The draws are test_realize_oracle's presentations (differentials, odd
degrees, relations, weights 1 to 3, over Q, F_5 and F_101) and
test_groebner_oracle's relation draws (mixed-weight relations, leading
words of slack above 0), realized with no differential.  Fixed cases add
presentations under which a row that carried a reduced prefix product
would be wrong, anticommuting generators (products with coefficient -1),
and Calabi-Yau completions and a Ginzburg algebra over F_5 and F_101,
where odd left words negate their right pieces.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_groebner_oracle import loop_presentations
from test_groebner_oracle import presentations as relation_presentations
from test_realize_oracle import presentations

from quiverdg import quiver as quiver_module
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    DifferentialReport,
    InconsistentPresentation,
    _product_rows,
    realize,
    verify_differential,
)
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, Superpotential

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
_UNSET = object()


def ref_verify_differential(t):
    """verify_differential as it was before the product rows: one _multiply
    per pair, read through a product memo."""
    report = DifferentialReport(0, 0, 0, 0)
    records, columns, weight, degree = t._records, t._columns, t._weight, t._degree
    for i, col in enumerate(columns):
        dd = None if col is None else t._d(col)
        if dd is None:
            report.skipped_words += 1
            continue
        report.checked_words += 1
        if dd:
            report.failures.append(
                ("d_squared", t._name(i), repr(PathAlgebraElement(t._paths_of(dd)))))
    by_source = {}
    for i, record in enumerate(records):
        by_source.setdefault(record[1], {}).setdefault(record[4], []).append(i)
    runs_at = {v: list(runs.values()) for v, runs in by_source.items()}
    products = [{} for _ in records]
    add_term, axpy = t._scalars.add_term, t._scalars.axpy

    def product(i, j):
        pq = products[i].get(j, _UNSET)
        if pq is _UNSET:
            pq = products[i][j] = t._multiply(i, j)
        return pq

    for i, record in enumerate(records):
        dp = columns[i]
        room = t.weight_bound - weight[i]
        odd = degree[i] % 2
        for run in runs_at.get(record[2], ()):
            for j in run:
                if weight[j] > room:
                    break
                dq = columns[j]
                if dp is None or dq is None:
                    report.skipped_pairs += 1
                    continue
                pq = product(i, j)
                if len(pq) == 1:
                    [(k, c)] = pq.items()
                    lhs = columns[k] if c == 1 else t._d(pq)
                else:
                    lhs = t._d(pq)
                if lhs is None:
                    report.skipped_pairs += 1
                    continue
                rhs = {}
                for pieces, sign in (((product(u, j), cu) for u, cu in dp.items()), 1), \
                        (((product(i, v), cv) for v, cv in dq.items()), -1 if odd else 1):
                    for piece, c in pieces:
                        if piece is None:
                            rhs = None
                            break
                        if len(piece) == 1:
                            [(k, a)] = piece.items()
                            add_term(rhs, k, sign * c * a)
                        else:
                            axpy(rhs, sign * c, piece)
                    if rhs is None:
                        break
                if rhs is None:
                    report.skipped_pairs += 1
                    continue
                report.checked_pairs += 1
                if lhs != rhs:
                    report.failures.append(("leibniz", t._name(i), t._name(j)))
    return report


def typed(vec):
    return [(k, c, type(c)) for k, c in vec.items()]


def assert_rows_match_multiply(t):
    row_of, records, weight = _product_rows(t), t._records, t._weight
    for i, record in enumerate(records):
        row = row_of(i)
        room = t.weight_bound - weight[i]
        assert sorted(row) == [j for j, q in enumerate(records)
                               if q[1] == record[2] and weight[j] <= room]
        for j, entry in row.items():
            got = {entry: 1} if entry.__class__ is int else entry
            assert typed(got) == typed(t._multiply(i, j)), (t._name(i), t._name(j))


def assert_both_agree(p, bound, window=(0, 0)):
    try:
        t = realize(p, window, bound)
    except InconsistentPresentation:
        return None
    assert_rows_match_multiply(t)
    expected = ref_verify_differential(t)
    assert verify_differential(t) == expected
    return t


def relations_only(case):
    quiver, weights, field, relations, bound = case
    return DgAlgebraPresentation(quiver.vertices, quiver.arrows, relations=relations,
                                 weights=weights, field=field), bound


@SETTINGS
@given(presentations())
def test_rows_and_report_match_on_differential_draws(case):
    assert_both_agree(*case)


@SETTINGS
@given(st.one_of(relation_presentations(max_terms=4), loop_presentations()))
def test_rows_and_report_match_on_relation_draws(case):
    assert_both_agree(*relations_only(case))


def loops(names, weights):
    quiver = QuiverPresentation(["v"], [Arrow(name, "v", "v") for name in names])
    return quiver, dict(zip(names, weights))


def element(quiver, terms):
    return PathAlgebraElement({quiver.path(list(word)): c for word, c in terms})


# Relations on loops whose truncated Groebner bases hold a rule of slack
# above 0: there a product i*p can reduce to one word k with coefficient one
# while i*p*a does not reduce to k*a, so a row that carried k would be wrong.
SLACK_CASES = [
    (("a0", "a1"), (1, 1), 5, [[(("a0",), 2), (("a0", "a0", "a1"), -3), (("a1", "a1", "a0"), 2)],
                               [(("a0", "a0"), 2), (("a1", "a1", "a0"), 2)],
                               [(("a0", "a0", "a1"), -3), (("a0", "a1", "a0"), -3)]]),
    (("a0", "a1"), (1, 1), 6, [[(("a0", "a0", "a0"), Fraction(1, 2)), (("a1", "a0", "a1"), 2),
                                (("a1", "a1", "a0"), 2)],
                               [(("a1", "a1"), -3), (("a0", "a1", "a0"), 1)]]),
    (("a0", "a1", "a2"), (2, 1, 1), 5, [[(("a1", "a1"), -3), (("a2", "a1", "a2"), Fraction(1, 2))]]),
    (("a0", "a1"), (1, 1), 6, [[(("a1", "a1", "a1"), -3)],
                               [(("a0", "a0"), -1), (("a0", "a1"), 1),
                                (("a1", "a1", "a1"), Fraction(1, 2))]]),
]


@pytest.mark.parametrize("names,weights,bound,relations", SLACK_CASES)
@pytest.mark.parametrize("field", [GroundField(0), GroundField(5)], ids=["Q", "F5"])
def test_a_reduced_prefix_product_is_not_carried_under_a_slack_rule(
        names, weights, bound, relations, field):
    quiver, weights = loops(names, weights)
    p = DgAlgebraPresentation(["v"], quiver.arrows,
                              relations=[element(quiver, r) for r in relations],
                              weights=weights, field=field)
    t = assert_both_agree(p, bound)
    assert any(slack for slack, _ in t.qb._rewriting.rules.values())


@pytest.mark.parametrize("field", [GroundField(0), GroundField(5), GroundField(101)],
                         ids=["Q", "F5", "F101"])
def test_anticommuting_generators(field):
    # x and y of degree 1 with xy = -yx, and d(z) = xy for z of degree 1:
    # every product yx is the word xy with coefficient -1
    arrows = [Arrow("x", "v", "v", 1), Arrow("y", "v", "v", 1), Arrow("z", "v", "v", 1)]
    quiver = QuiverPresentation(["v"], arrows)
    relations = [element(quiver, [(("x", "y"), 1), (("y", "x"), 1)]),
                 element(quiver, [(("x", "x"), 1)]), element(quiver, [(("y", "y"), 1)])]
    differential = {"z": element(quiver, [(("x", "y"), 1)])}
    p = DgAlgebraPresentation(["v"], arrows, differential=differential,
                              relations=relations, field=field)
    t = assert_both_agree(p, 5, (0, 5))
    row_of = _product_rows(t)
    x, y = t._id[quiver.path(["x"])], t._id[quiver.path(["y"])]
    minus_one = t._scalars.native(-1)
    assert typed(row_of(y)[x]) == [(t._id[quiver.path(["x", "y"])], minus_one, int)]


@pytest.mark.parametrize("field", [GroundField(5), GroundField(101)], ids=["F5", "F101"])
@pytest.mark.parametrize("build,bound", [
    (lambda field: cy_completion(loops(["x"], [1])[0], 3, field=field), 6),
    (lambda field: cy_completion(QuiverPresentation(
        ("1", "2", "3"), (Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1"))),
        3, field=field), 6),
    (lambda field: ginzburg(loops(["x"], [1])[0], Superpotential(
        loops(["x"], [1])[0], {("x", "x", "x"): 1}, field=field)), 7),
], ids=["loop-cy3", "3-cycle-cy3", "x^3-ginzburg"])
# ginzburg warns that its downstream certificates assume characteristic 0
@pytest.mark.filterwarnings("ignore::quiverdg.ginzburg.CharacteristicWarning")
def test_odd_left_words_over_f_p(field, build, bound):
    t = assert_both_agree(build(field), bound, (-bound, 0))
    report = verify_differential(t)
    assert report.ok and report.checked_pairs > 0
    assert any(d % 2 for d in t._degree)


def test_c3_products_reduce_only_off_the_carried_rows(monkeypatch):
    # the commutative k[x, y, z] at L = 10: every rule has slack 0, so a
    # product whose prefix product is one word with coefficient one is read
    # off the step table; 1,947 products remain to be reduced (5,577 when
    # every pair was reduced)
    quiver, _ = loops("xyz", (1, 1, 1))
    relations = [element(quiver, [((a, b), 1), ((b, a), -1)]) for a, b in ("xy", "xz", "yz")]
    t = realize(DgAlgebraPresentation(("v",), quiver.arrows, relations=relations), (0, 0), 10)
    reduced = quiver_module.QuotientBasis._reduced
    calls = []

    def counted(self, vec):
        calls.append(1)
        return reduced(self, vec)
    monkeypatch.setattr(quiver_module.QuotientBasis, "_reduced", counted)
    report = verify_differential(t)
    assert report.ok and (report.checked_words, report.checked_pairs) == (286, 8008)
    assert len(calls) <= 1947
