"""Tests for the bar complex, Koszul duals, cobar, and completeness reports.

The dimension tables and differential columns asserted here come from hand
computations or from classical Ext algebras worked out independently; the
comments next to each fixture say which.  Sign conventions are pinned by the
frozen bar columns and by the requirement that cobar of the dual coalgebra
reproduces the dual bar presentation exactly.
"""

import pytest

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    UnsafeWindow,
    cohomology,
    realize,
    verify_differential,
)
from quiverdg.koszul import (
    BarWord,
    CoalgebraPresentation,
    NotConilpotent,
    bar,
    cobar,
    completeness_report,
    dual_bar,
    dual_coalgebra,
)
from quiverdg.linalg import SparseMatrix, cohomology_of_complex
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation


def element(quiver, *terms):
    """Sum of coeff * path(labels) built on a scratch quiver."""
    total = PathAlgebraElement.zero()
    for coeff, labels, base in terms:
        path = quiver.path(labels, base=base)
        total = total + PathAlgebraElement.from_path(path, coeff)
    return total


def dual_numbers(eps_degree):
    q = QuiverPresentation(["v"], [Arrow("eps", "v", "v", eps_degree)])
    return DgAlgebraPresentation(
        ["v"], [Arrow("eps", "v", "v", eps_degree)],
        relations=[element(q, (1, ["eps", "eps"], None))])


def truncated_polynomials(power, x_degree=0):
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v", x_degree)])
    return DgAlgebraPresentation(
        ["v"], [Arrow("x", "v", "v", x_degree)],
        relations=[element(q, (1, ["x"] * power, None))])


def square_zero_with_differential():
    # k + (kp + kq) with every product of generators zero and dp = q; the
    # inclusion of k is a quasi-isomorphism, so every dual in sight should
    # have the cohomology of the base field.
    arrows = [Arrow("p", "v", "v", 0), Arrow("q", "v", "v", 1)]
    q = QuiverPresentation(["v"], arrows)
    relations = [element(q, (1, [a, b], None))
                 for a in ("p", "q") for b in ("p", "q")]
    return DgAlgebraPresentation(
        ["v"], arrows, relations=relations,
        differential={"p": element(q, (1, ["q"], None))})


def odd_generator_with_square_differential():
    # Free on one odd generator with dx = x^2; at weight bound 5 the value
    # d(x^5) overflows, so downstream constructions must either avoid the
    # affected degrees or refuse.
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v", 1)])
    return DgAlgebraPresentation(
        ["v"], [Arrow("x", "v", "v", 1)],
        differential={"x": element(q, (1, ["x", "x"], None))})


def test_bar_words_of_exterior_generator():
    # |eps| = -1: the word with m letters sits in degree -2m and the bar
    # differential vanishes (d eps = 0 and eps^2 = 0), so every word is a
    # permanent cocycle.
    t = realize(dual_numbers(-1), (-8, 8), 2)
    b = bar(t, 3, (-6, 0))
    assert b.all_dims() == {0: 1, -2: 1, -4: 1, -6: 1}
    assert b.dims() == {d: (1 if d in (0, -2, -4, -6) else 0)
                        for d in range(-6, 1)}
    assert b.differential_ledger == []
    assert b.cohomology_dims((-6, 0)) == {
        -6: 1, -5: 0, -4: 1, -3: 0, -2: 1, -1: 0, 0: 1}


def test_bar_of_base_only():
    t = realize(DgAlgebraPresentation(["u", "w"], []), (-2, 2), 1)
    b = bar(t, 3, (-1, 1))
    assert b.all_dims() == {0: 2}
    assert b.cohomology_dims((-1, 1)) == {-1: 0, 0: 2, 1: 0}


def test_bar_merge_columns_of_truncated_polynomials():
    # k[x]/x^3 with |x| = 0: expanding the merge term by hand,
    #   d[x|x]   = [x*x]
    #   d[x^2|x] = [x^3] = 0 in the quotient
    #   d[x|x|x] = [x*x|x] - [x|x*x]
    # and the word count doubles per letter since the ideal basis is {x, x^2}.
    t = realize(truncated_polynomials(3), (-6, 6), 4)
    b = bar(t, 4, (-4, 0))
    q = t.presentation.quiver
    x = q.path(["x"])
    xx = q.path(["x", "x"])
    one = t.field.one()
    assert b.d_of(BarWord((x, x), "v")) == {BarWord((xx,), "v"): one}
    assert b.d_of(BarWord((xx, x), "v")) == {}
    assert b.d_of(BarWord((x, x, x), "v")) == {
        BarWord((xx, x), "v"): one, BarWord((x, xx), "v"): -one}
    assert b.all_dims() == {0: 1, -1: 2, -2: 4, -3: 8, -4: 16}
    assert b.differential_ledger == []


def test_bar_requires_augmentation():
    pres = DgAlgebraPresentation(
        ["v"], [Arrow("x", "v", "v", 0)], augmented=False)
    t = realize(pres, (-2, 2), 2)
    with pytest.raises(ValueError, match="augmented"):
        bar(t, 2, (-1, 1))


def test_bar_ledger_blocks_only_touched_degrees():
    # With d(x^5) unknown and products past weight 5 unavailable, the bar
    # columns of words touching those escape; all of them live in degrees
    # 4 and up, so windows below stay quotable.
    t = realize(odd_generator_with_square_differential(), (-1, 12), 5)
    assert sorted({e.degree for e in t.differential_ledger}) == [5]
    b = bar(t, 2, (0, 8))
    assert sorted({e.degree for e in b.differential_ledger}) == [4, 5, 6, 7, 8]
    assert b.all_dims() == {0: 3, 1: 3, 2: 4, 3: 5, 4: 6, 5: 4, 6: 3, 7: 2, 8: 1}
    assert b.cohomology_dims((0, 3)) == {0: 1, 1: 0, 2: 0, 3: 0}
    with pytest.raises(UnsafeWindow) as err:
        b.cohomology_dims((0, 4))
    assert err.value.degrees == [4]


def test_dual_bar_of_dual_numbers_family():
    # k[eps]/eps^2 with |eps| = 1 - n dualizes to the weight-truncated power
    # series algebra on one degree-n generator: one word per length m, placed
    # in degree m*n.
    for n in (1, 2, 3):
        t = realize(dual_numbers(1 - n), (-20, 20), 2)
        d = dual_bar(t, 6, (min(0, 6 * n), max(0, 6 * n)))
        gens = d.presentation.generators
        assert [(g.degree,) for g in gens] == [(n,)]
        expected = {m * n: 1 for m in range(7)}
        assert {deg: c for deg, c in d.dims().items() if c} == expected
        assert d.differential_ledger == []
        assert verify_differential(d).ok


def test_dual_bar_of_base_only():
    t = realize(DgAlgebraPresentation(["u", "w"], []), (-2, 2), 1)
    d = dual_bar(t, 4, (-1, 1))
    assert not d.presentation.generators
    assert d.reported_dims() == {-1: 0, 0: 2, 1: 0}


def test_dual_bar_of_square_zero_extension():
    # k + V with V two-dimensional in degree -1 and all products zero: the
    # dual is free on two degree-2 generators, hence has dimension 2^m in
    # degree 2m.
    arrows = [Arrow("u", "v", "v", -1), Arrow("w", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    relations = [element(q, (1, [a, b], None))
                 for a in ("u", "w") for b in ("u", "w")]
    t = realize(DgAlgebraPresentation(["v"], arrows, relations=relations),
                (-9, 9), 2)
    d = dual_bar(t, 4, (0, 8))
    assert {deg: c for deg, c in d.dims().items() if c} == {
        0: 1, 2: 2, 4: 4, 6: 8, 8: 16}
    assert verify_differential(d).ok


def test_dual_bar_of_truncated_polynomials_has_ext_cohomology():
    # The Yoneda algebra of k over k[x]/x^3 is one-dimensional in every
    # cohomological degree, with the degree-2j class in weight 3j and the
    # degree-(2j+1) class in weight 3j+1 (classical minimal resolution).
    # Weight bound 6 covers weights 0, 1, 3, 4, 6 for degrees 0 through 4.
    t = realize(truncated_polynomials(3), (-9, 9), 6)
    d = dual_bar(t, 6, (0, 5))
    assert sorted((g.name, g.degree) for g in d.presentation.generators) == [
        ("[x*x]", 1), ("[x]", 1)]
    minus_one = -t.field.one()
    xi_x = d.presentation.quiver.path(["[x]"])
    square = d.presentation.quiver.path(["[x]", "[x]"])
    assert d.presentation.differential == {
        "[x*x]": PathAlgebraElement.from_path(square, minus_one)}
    assert d.differential_ledger == []
    assert cohomology(d, (0, 4)).dims == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


def test_dual_bar_refuses_incomplete_differential():
    t = realize(odd_generator_with_square_differential(), (-1, 12), 5)
    with pytest.raises(UnsafeWindow) as err:
        dual_bar(t, 3, (0, 4))
    assert err.value.degrees == [5]


def test_dual_bar_of_coconnective_input_is_connective():
    # Generators in degrees >= 2 force every dual word into degree <= 0.
    t = realize(dual_numbers(2), (-9, 9), 2)
    d = dual_bar(t, 5, (-9, 9))
    populated = [deg for deg, ws in d.basis_by_degree.items() if ws]
    assert populated and max(populated) <= 0


def test_dual_coalgebra_table_of_truncated_polynomials():
    # Splittings dualize multiplication: x*x = x^2 is the only product of
    # ideal basis elements, so [x*x] splits as [x] (x) [x] and nothing else;
    # weights are inherited from the word lengths in the algebra.
    t = realize(truncated_polynomials(3), (-6, 6), 4)
    c = dual_coalgebra(t)
    assert sorted((g.name, g.degree) for g in c.cogenerators) == [
        ("[x*x]", 0), ("[x]", 0)]
    assert c.weights == {"[x]": 1, "[x*x]": 2}
    assert c.differential == {}
    minus_one = -t.field.one()
    assert c.comultiplication == {"[x*x]": [(minus_one, "[x]", "[x]")]}


def test_cobar_of_point_dual_is_polynomial():
    # The dual coalgebra of k[eps]/eps^2 with |eps| = 1 has one cogenerator
    # and no splittings (eps^2 = 0), so cobar is free on one degree-0
    # generator with zero differential: k[t] up to the weight truncation.
    t = realize(dual_numbers(1), (-8, 8), 2)
    c = dual_coalgebra(t)
    omega = cobar(c, 6, (-1, 1))
    assert omega.presentation.differential == {}
    assert [(g.degree,) for g in omega.presentation.generators] == [(0,)]
    assert omega.reported_dims() == {-1: 0, 0: 7, 1: 0}


def cobar_equals_dual_bar(presentation, weight_bound, word_bound, window):
    t = realize(presentation, (-30, 30), weight_bound)
    via_dual = dual_bar(t, word_bound, window)
    via_cobar = cobar(dual_coalgebra(t), word_bound, window)
    left, right = via_dual.presentation, via_cobar.presentation
    assert sorted((g.name, g.source, g.target, g.degree)
                  for g in left.generators) == sorted(
        (g.name, g.source, g.target, g.degree) for g in right.generators)
    assert left.weights == right.weights
    assert left.differential == right.differential
    return via_dual, via_cobar


def test_cobar_of_dual_coalgebra_matches_dual_bar():
    # The two routes to the Koszul dual must agree term for term, which pins
    # the sign conventions on both sides at once.
    for degree in (1, -1, 2):
        cobar_equals_dual_bar(dual_numbers(degree), 2, 4, (-9, 9))
    cobar_equals_dual_bar(truncated_polynomials(3), 6, 6, (0, 6))
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    cone = DgAlgebraPresentation(
        ["v"], arrows, differential={"y": element(q, (1, ["x"], None))})
    via_dual, via_cobar = cobar_equals_dual_bar(cone, 3, 3, (-4, 4))
    assert verify_differential(via_dual).ok
    assert cohomology(via_dual, (-2, 2)).dims == cohomology(via_cobar, (-2, 2)).dims


def test_transposed_bar_matrices_give_the_dual_cohomology():
    # Independent route to H of the dual: transpose the bar differential
    # matrices directly (dual word of degree d pairs with bar words of
    # degree -d).  Valid here because every ideal basis element has weight
    # one, so the word-count and weight truncations coincide.
    t = realize(square_zero_with_differential(), (-9, 9), 3)
    assert t.certified_finite_dimensional
    b = bar(t, 3, (-4, 1))
    assert b.differential_ledger == []
    assert b.all_dims() == {-3: 1, -2: 4, -1: 6, 0: 4}
    d = dual_bar(t, 3, (-1, 4))
    assert {deg: c for deg, c in d.dims().items() if c} == {
        0: 4, 1: 6, 2: 4, 3: 1}
    dims = {-deg: n for deg, n in b.all_dims().items()}

    def transposed(m):
        out = SparseMatrix(m.cols, m.rows)
        for (r, c), v in m.entries.items():
            out.set(c, r, v)
        return out

    matrices = {deg: transposed(b.matrix_between(-deg - 1))
                for deg in range(-1, 5)}
    oracle = cohomology_of_complex(dims, matrices, (0, 3), t.field)
    assert {deg: rank for deg, (rank, _) in oracle.items()} == {
        0: 1, 1: 0, 2: 0, 3: 0}
    assert cohomology(d, (0, 3)).dims == {0: 1, 1: 0, 2: 0, 3: 0}
    # and the algebra itself is a resolution of the base field
    assert cohomology(t, (-1, 2)).dims == {-1: 0, 0: 1, 1: 0, 2: 0}


def test_coalgebra_presentation_validation():
    v = [Arrow("g", "v", "v", 0)]
    with pytest.raises(NotConilpotent, match="splitting cycle"):
        CoalgebraPresentation(
            ["v"], v, comultiplication={"g": [(1, "g", "g")]})
    with pytest.raises(NotConilpotent, match="descend in weight"):
        CoalgebraPresentation(
            ["v"],
            [Arrow("g", "v", "v", 0), Arrow("a", "v", "v", -1),
             Arrow("b", "v", "v", 1)],
            comultiplication={"g": [(1, "a", "b")]},
            weights={"g": 1, "a": 1, "b": 1})
    with pytest.raises(InconsistentPresentation, match="coassociative"):
        CoalgebraPresentation(
            ["v"],
            [Arrow("g", "v", "v", -3), Arrow("a", "v", "v", -2),
             Arrow("b", "v", "v", -1), Arrow("c", "v", "v", -1)],
            comultiplication={"g": [(1, "a", "b")], "a": [(1, "b", "c")]})
    with pytest.raises(InconsistentPresentation, match="composability"):
        CoalgebraPresentation(
            ["v", "w"],
            [Arrow("g", "v", "v", 0), Arrow("a", "v", "w", 0),
             Arrow("b", "v", "v", 0)],
            comultiplication={"g": [(1, "a", "b")]})
    with pytest.raises(InconsistentPresentation, match="changes degree"):
        CoalgebraPresentation(
            ["v"],
            [Arrow("g", "v", "v", 0), Arrow("a", "v", "v", -1),
             Arrow("b", "v", "v", 0)],
            comultiplication={"g": [(1, "a", "b")]})
    with pytest.raises(InconsistentPresentation, match="degree"):
        CoalgebraPresentation(
            ["v"], [Arrow("g", "v", "v", 0), Arrow("h", "v", "v", 0)],
            differential={"g": [(1, "h")]})


def test_dual_of_inhomogeneous_quotient_is_not_conilpotent():
    # k[x]/(x^2 - x^3) is a product of a point and a nilpotent piece; its
    # total dual is not conilpotent, and the witness is the splitting of
    # [x*x] into two weight-2 factors.
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v", 0)])
    pres = DgAlgebraPresentation(
        ["v"], [Arrow("x", "v", "v", 0)],
        relations=[element(q, (1, ["x", "x"], None), (-1, ["x", "x", "x"], None))])
    t = realize(pres, (-2, 2), 3)
    assert t.certified_finite_dimensional
    with pytest.raises(NotConilpotent, match="descend in weight"):
        dual_coalgebra(t)


def test_completeness_of_dual_numbers_in_both_gradings():
    # Proper algebras are derived complete, and the window verdicts reflect
    # that once the word bound covers the window: |eps| = 1 checks degrees
    # 0..3 and |eps| = -1 checks -3..0.
    t_plus = realize(dual_numbers(1), (-8, 8), 2)
    plus = completeness_report(t_plus, 6, (0, 3))
    assert plus.kind == "CompleteWithinWindow"
    assert {d: row["double_dual"] for d, row in plus.rows.items()} == {
        0: 1, 1: 1, 2: 0, 3: 0}
    assert all(row["match"] and row["stable"] for row in plus.rows.values())
    t_minus = realize(dual_numbers(-1), (-8, 8), 2)
    minus = completeness_report(t_minus, 6, (-3, 0))
    assert minus.kind == "CompleteWithinWindow"
    assert {d: row["double_dual"] for d, row in minus.rows.items()} == {
        -3: 0, -2: 0, -1: 1, 0: 1}


def test_completeness_of_base_and_of_finite_quotient():
    base = realize(DgAlgebraPresentation(["u", "w"], []), (-2, 2), 1)
    report = completeness_report(base, 2, (-1, 1))
    assert report.kind == "CompleteWithinWindow"
    assert report.rows[0] == {"algebra": 2, "double_dual": 2, "match": True,
                              "stable": True, "saturated": True}
    t = realize(truncated_polynomials(3), (-9, 9), 6)
    report = completeness_report(t, 6, (0, 3))
    assert report.kind == "CompleteWithinWindow"
    assert report.rows[0]["algebra"] == 3


def test_completeness_inconclusive_paths():
    t = realize(odd_generator_with_square_differential(), (-1, 12), 5)
    touching = completeness_report(t, 3, (0, 5))
    assert touching.kind == "Inconclusive"
    assert "input truncation" in touching.notes[0]
    inside = completeness_report(t, 3, (0, 4))
    assert inside.kind == "Inconclusive"
    assert "double dual" in inside.notes[0]
    with pytest.raises(ValueError, match="word bound"):
        completeness_report(t, 1, (0, 2))


def test_completeness_detects_unstable_dimensions():
    # The free algebra on one degree -1 generator: low word bounds leave the
    # double dual still growing inside the window, and the report must say
    # so instead of quoting a lucky agreement.
    free = DgAlgebraPresentation(["v"], [Arrow("x", "v", "v", -1)])
    for bound, moving in ((2, -2), (3, -3)):
        t = realize(free, (-9, 9), bound)
        report = completeness_report(t, bound, (-3, 0))
        assert report.kind == "Inconclusive"
        assert str(moving) in report.notes[0]
        assert report.rows[moving]["stable"] is False
    t = realize(free, (-9, 9), 4)
    assert completeness_report(t, 4, (-3, 0)).kind == "CompleteWithinWindow"
