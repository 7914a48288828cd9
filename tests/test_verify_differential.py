"""The check set of verify_differential, and the products it relies on.

Each DifferentialReport below is the tuple (checked_words, skipped_words,
checked_pairs, skipped_pairs, failures) recorded with the all-pairs scan that
verify_differential used before it bucketed pairs by endpoint and weight.  A
faster scan must run exactly the same checks, so these tuples, failure order
included, must not move.
"""

import pytest
from test_acceptance import (
    CORPUS,
    cubic_loop_potential,
    cycle_potential,
    one_loop,
    three_cycle,
)
from test_dgalgebra import (
    cone_presentation,
    d_squared_failure_presentation,
    element,
    odd_square_presentation,
    preprojective_a2_presentation,
)

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    NotStabilized,
    h0_algebra,
    realize,
    verify_differential,
)
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.koszul import bar, cobar, dual_bar, dual_coalgebra
from quiverdg.quiver import Arrow, QuiverPresentation

QQ = GroundField(0)

# (realize at L = 3, cobar of the dual coalgebra, dual bar); the last two
# are built from the L = 2 truncation, exactly as in test_01.
COMPLETION_REPORTS = {
    "point": ((2, 0, 3, 0), (4, 0, 10, 0)),
    "one loop": ((20, 0, 63, 0), (483, 0, 2106, 0)),
    "A_2": ((14, 0, 36, 0), (170, 0, 760, 0)),
    "3-cycle": ((60, 0, 189, 0), (423, 0, 1542, 0)),
}
GINZBURG_REPORTS = {
    "x^3": ((8, 0, 20, 0), (85, 0, 380, 0)),
    "xyz": ((24, 0, 60, 0), (255, 0, 1140, 0)),
}


def as_tuple(report):
    return (report.checked_words, report.skipped_words, report.checked_pairs,
            report.skipped_pairs, list(report.failures))


def test_corpus_reports_are_pinned():
    corpus = [("%s n=%d" % (name, n), cy_completion(make(), n), letters,
               COMPLETION_REPORTS[name])
              for n in (1, 2, 3) for name, make, letters in CORPUS]
    corpus.append(("x^3", ginzburg(one_loop(), cubic_loop_potential()), 6,
                   GINZBURG_REPORTS["x^3"]))
    corpus.append(("xyz", ginzburg(three_cycle(), cycle_potential()), 6,
                   GINZBURG_REPORTS["xyz"]))
    for label, presentation, letters, (realized, dual) in corpus:
        expected_realized = realized + ([],)
        expected_dual = dual + ([],)
        report = verify_differential(realize(presentation, (-6, 0), 3))
        assert as_tuple(report) == expected_realized, label
        small = realize(presentation, (-6, 0), 2)
        report = verify_differential(cobar(dual_coalgebra(small), letters, (-40, 8)))
        assert as_tuple(report) == expected_dual, label
        report = verify_differential(dual_bar(small, letters, (-40, 8)))
        assert as_tuple(report) == expected_dual, label


def test_hand_case_reports_are_pinned():
    cone = verify_differential(realize(cone_presentation(), (-2, 0), 5))
    assert as_tuple(cone) == (63, 0, 321, 0, [])
    odd = verify_differential(realize(odd_square_presentation(), (0, 4), 5))
    assert as_tuple(odd) == (5, 1, 15, 6, [])
    broken = verify_differential(realize(d_squared_failure_presentation(), (0, 3), 3))
    assert as_tuple(broken) == (4, 11, 21, 28, [
        ("d_squared", "x", "1 x*y + -1 y*x"),
        ("d_squared", "y", "-1 x*x*y + 1 y*x*x"),
        ("d_squared", "x*x", "1 x*x*y + -1 y*x*x"),
    ])


def test_leibniz_failure_is_reported():
    # Doubling the column of z1 keeps d*d = 0 (d of a*ad vanishes) but breaks
    # d(pq) = (dp)q + (-1)^|p| p(dq) on every checked pair that contains z1.
    p = preprojective_a2_presentation()
    t = realize(p, (-2, 0), 4)
    z1 = p.quiver.path(["z1"])
    k = t._id[z1]
    t._columns[k] = {i: 2 * c for i, c in t._columns[k].items()}
    report = verify_differential(t)
    assert as_tuple(report) == (24, 0, 76, 0, [
        ("leibniz", "z1", "z1"),
        ("leibniz", "z1", "a"),
        ("leibniz", "z1", "a*ad"),
        ("leibniz", "ad", "z1"),
        ("leibniz", "a*ad", "z1"),
    ])


def cubic_minus_linear():
    """k[x]/(x^3 - x): certified finite-dimensional at L = 3 with basis
    e, x, x^2, while x^2 * x^2 escapes the bound."""
    arrows = [Arrow("x", "v", "v", 0)]
    q = QuiverPresentation(["v"], arrows)
    relation = element(q, (1, ["x", "x", "x"], None), (-1, ["x"], None))
    return q, realize(DgAlgebraPresentation(["v"], arrows, relations=[relation]),
                      (0, 0), 3)


def test_product_recovers_escaping_pairs_letterwise():
    q, t = cubic_minus_linear()
    assert t.certified_finite_dimensional
    assert [str(w) for w in t.qb.basis] == ["e_v", "x", "x*x"]
    square = element(q, (1, ["x", "x"], None))
    assert t.product(square, square) == square
    # (x + 2x^2)(x^2 + 3e) = x^3 + 3x + 2x^4 + 6x^2 = 4x + 8x^2
    left = element(q, (1, ["x"], None), (2, ["x", "x"], None))
    right = element(q, (1, ["x", "x"], None), (3, [], "v"))
    expected = element(q, (4, ["x"], None), (8, ["x", "x"], None))
    first = t.product(left, right)
    assert first == expected
    first.terms.clear()
    assert t.product(left, right) == expected
    assert t.product(square, square) == square


def test_word_product_is_memoised_per_truncation():
    q, t = cubic_minus_linear()
    x, xx = q.path(["x"]), q.path(["x", "x"])
    # each read is computed afresh and is the caller's to change
    first, second = t.word_product(xx, xx), t.word_product(xx, xx)
    assert first == second == {xx: QQ.one()}
    first.clear()
    assert second == {xx: QQ.one()} == t.word_product(xx, xx)
    unit = t._multiply(t._id[x], t._id[x])
    unit.clear()
    assert t._multiply(t._id[x], t._id[x]) == {t._id[xx]: 1}
    assert t.word_product(x, xx) == {x: QQ.one()}
    assert t.word_product(q.trivial("v"), x) == {x: QQ.one()}
    # without the certificate an escaping product is refused, not guessed
    free = DgAlgebraPresentation(["v"], [Arrow("x", "v", "v", 0)])
    assert realize(free, (0, 0), 2).word_product(x, xx) is None
    assert realize(free, (0, 0), 3).word_product(x, xx) == {q.path(["x", "x", "x"]): QQ.one()}


def attribute_state(obj):
    """Each attribute of obj with its len() where it has one and, for a
    list, the number of its None entries: a memo filled in place keeps its
    identity but changes one of the two."""
    state = {}
    for name, value in vars(obj).items():
        size = len(value) if hasattr(value, "__len__") else None
        nones = sum(v is None for v in value) if isinstance(value, list) else None
        state[name] = (value, size, nones)
    return state


def assert_state_unchanged(before, after):
    assert before.keys() == after.keys()
    for name, (value, size, nones) in before.items():
        assert after[name][0] is value, name
        assert after[name][1:] == (size, nones), name


def test_reading_products_leaves_no_state_on_the_truncation():
    # x of degree 0 and y of degree -1 with dy = x, modulo x*y - y*x, whose
    # differential x*x - x*x is zero; and the truncation the duals of the
    # benchmark read, the rank-3 completion of the 3-cycle over F_101 at
    # L = 2, where dim H^0 moves from 9 to 12 at L = 3
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    commuting = DgAlgebraPresentation(
        ["v"], arrows, differential={"y": element(q, (1, ["x"], None))},
        relations=[element(q, (1, ["x", "y"], None), (-1, ["y", "x"], None))])
    cycle = cy_completion(three_cycle(), 3, field=GroundField(101))
    for t in (realize(commuting, (-3, 0), 4), realize(cycle, (-6, 2), 2)):
        t._id  # the path -> id map, built on first read
        before = attribute_state(t), attribute_state(t.qb)
        bar(t, 3, t.window)
        dual_bar(t, 3, t.window)
        dual_coalgebra(t)
        if t.presentation.relations:
            assert h0_algebra(t).algebra.dim == 1
            x, y = q.path(["x"]), q.path(["y"])
            assert t.word_product(y, x) == {q.path(["x", "y"]): QQ.one()}
        else:
            with pytest.raises(NotStabilized):
                h0_algebra(t)
        assert verify_differential(t).ok
        for p in t._words:
            for r in t._words:
                t.word_product(p, r)
        assert_state_unchanged(before[0], attribute_state(t))
        assert_state_unchanged(before[1], attribute_state(t.qb))
