"""Tests for presented dg algebras and truncated realizations.

Expected dimensions are frozen from hand computations recorded next to each
fixture; nothing below trusts the code under test for its own answers.
"""

import gc
import weakref

import pytest

from quiverdg import quiver
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    H0Result,
    InconsistentPresentation,
    NotStabilized,
    UnsafeWindow,
    classify,
    cohomology,
    h0_algebra,
    realize,
    verify_differential,
)
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion
from quiverdg.linalg import DSquaredNonzero
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, QuotientBasis

QQ = GroundField(0)


def element(quiver, *terms):
    """Sum of coeff * path(labels) built on a scratch quiver."""
    total = PathAlgebraElement.zero()
    for coeff, labels, base in terms:
        path = quiver.path(labels, base=base)
        total = total + PathAlgebraElement.from_path(path, coeff)
    return total


def dual_numbers_presentation(eps_degree):
    q = QuiverPresentation(["v"], [Arrow("eps", "v", "v", eps_degree)])
    return DgAlgebraPresentation(
        ["v"], [Arrow("eps", "v", "v", eps_degree)],
        relations=[element(q, (1, ["eps", "eps"], None))])


def preprojective_a2_presentation():
    # The 2-Calabi-Yau completion of 1 -> 2: degree-0 arrows both ways and a
    # degree -1 loop at each vertex whose differential is the commutator
    # [a, ad] cut down to that vertex.
    arrows = [
        Arrow("a", "1", "2", 0),
        Arrow("ad", "2", "1", 0),
        Arrow("z1", "1", "1", -1),
        Arrow("z2", "2", "2", -1),
    ]
    q = QuiverPresentation(["1", "2"], arrows)
    return DgAlgebraPresentation(
        ["1", "2"], arrows,
        differential={
            "z1": element(q, (1, ["a", "ad"], None)),
            "z2": element(q, (-1, ["ad", "a"], None)),
        },
        weights={"z1": 2, "z2": 2})


def cone_presentation():
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    return DgAlgebraPresentation(["v"], arrows,
                                 differential={"y": element(q, (1, ["x"], None))})


def odd_square_presentation():
    arrows = [Arrow("x", "v", "v", 1)]
    q = QuiverPresentation(["v"], arrows)
    return DgAlgebraPresentation(["v"], arrows,
                                 differential={"x": element(q, (1, ["x", "x"], None))})


def d_squared_failure_presentation():
    arrows = [Arrow("x", "v", "v", 1), Arrow("y", "v", "v", 2)]
    q = QuiverPresentation(["v"], arrows)
    return DgAlgebraPresentation(
        ["v"], arrows,
        differential={
            "x": element(q, (1, ["y"], None)),
            "y": element(q, (1, ["x", "y"], None), (-1, ["y", "x"], None)),
        })


def test_presentation_validation():
    loop = [Arrow("x", "v", "v", 0)]
    q = QuiverPresentation(["v"], loop)
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], loop, differential={"y": element(q, (1, ["x"], None))})
    # d must raise degree by exactly one
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], loop, differential={"x": element(q, (1, ["x", "x"], None))})
    # no curvature: vertex terms are rejected
    odd = [Arrow("y", "v", "v", -1)]
    qo = QuiverPresentation(["v"], odd)
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], odd, differential={"y": element(qo, (1, [], "v"))})
    # endpoints of d(g) must match g
    two = [Arrow("a", "1", "2", 0), Arrow("b", "2", "2", -1)]
    qt = QuiverPresentation(["1", "2"], two)
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["1", "2"], two, differential={"b": element(qt, (1, ["a"], None))})
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], loop, weights={"x": 0})
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], loop, weights={"ghost": 1})
    # relations must be degree-homogeneous with terms of length >= 1
    mixed = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", 1)]
    qm = QuiverPresentation(["v"], mixed)
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], mixed,
                              relations=[element(qm, (1, ["x"], None), (1, ["y"], None))])
    with pytest.raises(InconsistentPresentation):
        DgAlgebraPresentation(["v"], loop,
                              relations=[element(q, (1, [], "v"), (1, ["x"], None))])


def test_dual_numbers_even_generator():
    p = dual_numbers_presentation(2)
    t = realize(p, (0, 2), 2)
    assert t.dims() == {0: 1, 2: 1}
    assert t.differential_ledger == []
    assert t.certified_finite_dimensional
    coh = cohomology(t, (0, 2))
    assert coh.dims == {0: 1, 1: 0, 2: 1}
    flags = classify(t, coh)
    assert flags["connective"] == {"value": False, "scope": "exact"}
    assert flags["strictly_coconnective"] == {"value": True, "scope": "exact"}
    assert flags["a1_zero"] == {"value": True, "scope": "exact"}
    assert flags["locally_proper_within_window"] == {"value": True, "scope": "exact"}
    assert flags["a0"] == {"dim": 1, "equals_base": True, "scope": "exact"}
    # the class of eps squares to zero in cohomology
    assert coh.product(2, 0, 0, 0) == {0: QQ.one()}
    # eps * eps lands in degree 4, outside the window
    with pytest.raises(ValueError):
        coh.product(2, 0, 2, 0)


def test_dual_numbers_odd_generator():
    t = realize(dual_numbers_presentation(-1), (-1, 0), 2)
    assert t.dims() == {-1: 1, 0: 1}
    flags = classify(t)
    assert flags["connective"] == {"value": True, "scope": "exact"}
    assert flags["strictly_coconnective"] == {"value": False, "scope": "exact"}
    assert flags["a1_zero"] == {"value": True, "scope": "exact"}


def test_cone_is_acyclic_away_from_degree_zero():
    # Free algebra on x (degree 0) and y (degree -1) with dy = x.  The
    # underlying complex of generators is acyclic, so the tensor algebra has
    # cohomology k in degree 0 and nothing else.  d preserves word weight,
    # so every truncation window is safe.
    p = cone_presentation()
    assert p.is_weight_graded()
    t = realize(p, (-2, 0), 5)
    assert t.differential_ledger == []
    coh = cohomology(t, (-2, 0), strict=True)
    assert coh.dims == {-2: 0, -1: 0, 0: 1}
    report = verify_differential(t)
    assert report.ok
    assert report.checked_words > 0 and report.skipped_words == 0
    assert report.checked_pairs > 0 and report.skipped_pairs == 0


def test_odd_generator_with_square_differential():
    # x in degree 1 with dx = x*x.  For a word x^k the Leibniz signs
    # alternate, so d(x^k) = (1 - 1 + 1 - ...) x^(k+1): zero for even k and
    # x^(k+1) for odd k.  Cohomology is k in degree 0 alone, and the only
    # word whose differential escapes weight 5 is x^5.
    p = odd_square_presentation()
    assert not p.is_weight_graded()
    t = realize(p, (0, 4), 5)
    assert [(e.degree, e.word) for e in t.differential_ledger] == [(5, "x*x*x*x*x")]
    coh = cohomology(t, (0, 4))
    assert coh.dims == {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}
    with pytest.raises(UnsafeWindow):
        cohomology(t, (0, 4), strict=True)
    report = verify_differential(t)
    assert report.ok
    assert report.skipped_words == 1
    assert report.skipped_pairs > 0


def test_d_squared_failure_is_reported_not_raised():
    t = realize(d_squared_failure_presentation(), (0, 3), 3)
    report = verify_differential(t)
    assert not report.ok
    assert any(kind == "d_squared" and witness == "x"
               for kind, witness, _ in report.failures)
    with pytest.raises(DSquaredNonzero):
        cohomology(t, (1, 1))


def test_relation_differential_consistency():
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    anticommute = element(q, (1, ["x", "y"], None), (1, ["y", "x"], None))
    cube = element(q, (1, ["x", "x", "x"], None))
    # dy = x*x sends the anticommutator to 2 x^3, which lies in the ideal
    # only when x^3 is also imposed.
    good = DgAlgebraPresentation(["v"], arrows,
                                 differential={"y": element(q, (1, ["x", "x"], None))},
                                 relations=[anticommute, cube])
    t = realize(good, (-3, 0), 3)
    # Normal forms: y*x reduces to -x*y and x^3 to 0, leaving e; x, y;
    # x^2, x*y, y^2; x^2*y, x*y^2, y^3.
    assert len(t.qb) == 9
    assert verify_differential(t).ok
    bad = DgAlgebraPresentation(["v"], arrows,
                                differential={"y": element(q, (1, ["x", "x"], None))},
                                relations=[anticommute])
    with pytest.raises(InconsistentPresentation, match="leaves the relation ideal"):
        realize(bad, (-3, 0), 3)
    # a relation that is itself a generator whose differential survives
    shrunk = DgAlgebraPresentation(["v"], arrows,
                                   differential={"y": element(q, (1, ["x"], None))},
                                   relations=[element(q, (1, ["y"], None))])
    with pytest.raises(InconsistentPresentation):
        realize(shrunk, (0, 0), 3)


@pytest.mark.parametrize("a_degree, ledgered", [(-1, False), (-2, True)])
def test_cancelling_escapes_do_not_ledger_a_word(a_degree, ledgered):
    # d(a*b) = a*c*b + (-1)^|a| a*c*b, and a*c*b (weight 5) escapes L = 2:
    # the two terms cancel for odd |a|, and add up for even |a|.
    arrows = [Arrow("a", "v", "v", a_degree), Arrow("b", "v", "v", 0),
              Arrow("c", "v", "v", 1)]
    q = QuiverPresentation(["v"], arrows)
    p = DgAlgebraPresentation(["v"], arrows, weights={"c": 3}, differential={
        "a": element(q, (1, ["a", "c"], None)),
        "b": element(q, (1, ["c", "b"], None))})
    t = realize(p, (-4, 0), 2)
    ab = q.path(["a", "b"])
    assert (str(ab) in [e.word for e in t.differential_ledger]) == ledgered
    assert t.d_of(ab) == (None if ledgered else {})


def count_reductions(monkeypatch):
    """Records each vector handed to the quotient basis's label-keyed
    reduction, which every reduction inside a truncation goes through."""
    calls = []
    reduce = QuotientBasis._reduced

    def counted(self, vec):
        calls.append(dict(vec))
        return reduce(self, vec)

    monkeypatch.setattr(QuotientBasis, "_reduced", counted)
    return calls


def test_realize_reduces_no_column_of_a_free_presentation(monkeypatch):
    a3 = QuiverPresentation(("1", "2", "3"), (Arrow("a", "1", "2", 0), Arrow("b", "2", "3", 0)))
    p = cy_completion(a3, 2)
    calls = count_reductions(monkeypatch)
    t = realize(p, (-4, 0), 4)
    assert calls == []
    assert verify_differential(t).ok


def test_realize_reduces_columns_that_leave_the_basis(monkeypatch):
    # The presentation `good` of test_relation_differential_consistency.
    # Three reductions: d of the anticommutator, d(x*y) = x^3 and
    # d(y*y) = x*x*y - y*x*x, both of which vanish modulo the relations;
    # the heavier words are ledgered unreduced.
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    good = DgAlgebraPresentation(
        ["v"], arrows, differential={"y": element(q, (1, ["x", "x"], None))},
        relations=[element(q, (1, ["x", "y"], None), (1, ["y", "x"], None)),
                   element(q, (1, ["x", "x", "x"], None))])
    calls = count_reductions(monkeypatch)
    t = realize(good, (-3, 0), 3)
    assert len(calls) == 3
    assert t.d_of(q.path(["x", "y"])) == {}
    assert t.d_of(q.path(["y", "y"])) == {}


def test_preprojective_completion_of_a2():
    p = preprojective_a2_presentation()
    assert p.is_weight_graded()
    t = realize(p, (-2, 0), 4)
    assert t.differential_ledger == []
    # Degree-0 words of weight <= 4 alternate a and ad: two trivial paths
    # plus the eight alternating words of lengths 1 through 4.
    assert len(t.words(0)) == 10
    coh = cohomology(t, (0, 0))
    assert coh.dims[0] == 4
    result = h0_algebra(t)
    assert isinstance(result, H0Result)
    assert result.algebra.dim == 4
    assert result.algebra.verify() == []
    assert result.dims_checked == (4, 4)


def test_h0_of_quotient_by_coboundaries():
    # dy = x^2 makes H^0 the dual numbers even though no relation says so.
    arrows = [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)]
    q = QuiverPresentation(["v"], arrows)
    p = DgAlgebraPresentation(["v"], arrows,
                              differential={"y": element(q, (1, ["x", "x"], None))})
    assert not p.is_weight_graded()
    t = realize(p, (0, 0), 4)
    assert any(e.degree == -1 for e in t.differential_ledger)
    coh = cohomology(t, (0, 0))
    assert coh.dims[0] == 2
    with pytest.raises(UnsafeWindow):
        cohomology(t, (0, 0), strict=True)
    with pytest.raises(UnsafeWindow) as info:
        cohomology(t, (-1, 0))
    assert -1 in info.value.degrees
    result = h0_algebra(t)
    assert result.algebra.dim == 2
    x_index = [i for i, r in enumerate(result.representatives)
               if not r.terms.get(q.trivial("v"))][0]
    assert result.algebra.mul({x_index: QQ.one()}, {x_index: QQ.one()}) == {}


def test_h0_stability_guard():
    arrows = [Arrow("x", "v", "v", 0)]
    p = DgAlgebraPresentation(["v"], arrows)
    t = realize(p, (0, 0), 3)
    with pytest.raises(NotStabilized):
        h0_algebra(t)


def test_realize_keeps_no_word_walk_and_counts_overflow_when_read(monkeypatch):
    walks = []

    class Watched(quiver._WordWalk):
        def __init__(self, *args):
            super().__init__(*args)
            walks.append(weakref.ref(self))
    a2 = QuiverPresentation(["1", "2"], [Arrow("a", "1", "2")])
    p = cy_completion(a2, 3)
    monkeypatch.setattr(quiver, "_WordWalk", Watched)
    t = realize(p, (-3, 0), 3)
    gc.collect()
    assert len(walks) == 1 and walks[0]() is None
    assert "mul_overflow" not in t.__dict__
    overflow = t.mul_overflow
    assert overflow and t.mul_overflow == overflow and "mul_overflow" in t.__dict__


def test_multiplication_overflow_is_counted():
    arrows = [Arrow("x", "v", "v", 0)]
    p = DgAlgebraPresentation(["v"], arrows)
    t = realize(p, (0, 0), 2)
    # basis e, x, x^2; the escaping products are x*x^2, x^2*x, x^2*x^2
    assert t.mul_overflow == {0: 3}
    assert not t.certified_finite_dimensional
    one = QQ.one()
    x = PathAlgebraElement.from_path(p.quiver.path(["x"]), one)
    xx = t.product(x, x)
    assert xx is not None and not xx.is_zero()
    assert t.product(x, xx) is None


def test_inverted_window_reports_nothing():
    p = dual_numbers_presentation(1)
    t = realize(p, (1, 0), 2)
    assert t.reported_dims() == {}
    with pytest.raises(ValueError):
        cohomology(t, (1, 0))
