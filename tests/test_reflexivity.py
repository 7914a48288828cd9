from fractions import Fraction

import pytest

from quiverdg.fields import GroundField
from quiverdg.quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    Superpotential,
)
from quiverdg.algebras import FiniteDimAlgebra, decompose_commutative
from quiverdg.dgalgebra import DgAlgebraPresentation, realize
from quiverdg.ginzburg import (
    CharacteristicWarning,
    ShortCycleWarning,
    cy_completion,
    ginzburg,
)
from quiverdg.certificates import (
    ASSUMED_BY_USER,
    VERIFIED_EXACTLY,
    VERIFIED_WITHIN_WINDOW,
    replay_certificate,
)
from quiverdg import reflexivity
from quiverdg.reflexivity import (
    CompletenessTriple,
    SymbolicFamily,
    TooFewKnownFlags,
    check,
    two_out_of_three,
)
from quiverdg.surfaces import BoundaryComponent, GentlePresentation, MarkedSurfaceArcSystem

QQ = GroundField(0)
F2 = GroundField(2)
F3 = GroundField(3)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# fixtures

def square_zero_algebra(degree=None):
    """k[u]/u^2 as structure constants, optionally with u in a given degree."""
    structure = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE}}
    degrees = None if degree is None else [0, degree]
    return FiniteDimAlgebra(QQ, ["e", "u"], structure, {0: ONE}, degrees=degrees)


def k_times_k():
    structure = {(0, 0): {0: ONE}, (1, 1): {1: ONE}}
    return FiniteDimAlgebra(QQ, ["e1", "e2"], structure, {0: ONE, 1: ONE})


def local_noncommutative():
    """Basis e, x, y, xy with xy nonzero but yx = x^2 = y^2 = 0."""
    structure = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (0, 2): {2: ONE},
                 (0, 3): {3: ONE}, (1, 0): {1: ONE}, (2, 0): {2: ONE},
                 (3, 0): {3: ONE}, (1, 2): {3: ONE}}
    return FiniteDimAlgebra(QQ, ["e", "x", "y", "xy"], structure, {0: ONE})


def matrix_algebra():
    names = [("e11", 0, 0), ("e12", 0, 1), ("e21", 1, 0), ("e22", 1, 1)]
    structure = {}
    for i, (_, a, b) in enumerate(names):
        for j, (_, c, d) in enumerate(names):
            if b == c:
                k = next(t for t, (_, x, y) in enumerate(names) if (x, y) == (a, d))
                structure[(i, j)] = {k: ONE}
    return FiniteDimAlgebra(QQ, [n for n, _, _ in names], structure,
                            {0: ONE, 3: ONE})


def triangular_algebra():
    """Upper triangular 2x2 matrices: basis e11, e22, e12."""
    structure = {(0, 0): {0: ONE}, (1, 1): {1: ONE},
                 (0, 2): {2: ONE}, (2, 1): {2: ONE}}
    return FiniteDimAlgebra(QQ, ["e11", "e22", "e12"], structure,
                            {0: ONE, 1: ONE})


def truncated_polynomial_dg(power, degree=0, field=QQ):
    """k[x]/x^power with |x| = degree, realized wide enough to stabilize."""
    arrow = Arrow("x", "v", "v", degree)
    q = QuiverPresentation(["v"], [arrow])
    rel = PathAlgebraElement.from_path(q.path(["x"] * power))
    pres = DgAlgebraPresentation(["v"], [arrow], relations=[rel], field=field)
    span = max(2, abs(degree) * power)
    return realize(pres, (-span, span), power + 2)


def one_loop():
    return QuiverPresentation(("v",), (Arrow("x", "v", "v", 0),))


def a2_quiver():
    return QuiverPresentation(("1", "2"), (Arrow("a", "1", "2", 0),))


def annulus_with_core_arc(loop_degree, winding):
    """Annulus, outer boundary marked twice, inner fully marked; one arc."""
    outer = BoundaryComponent("C", False, intervals=(("p1", "p2"),))
    inner = BoundaryComponent("B", True, winding=winding,
                              enclosed_after_slot="p1")
    return MarkedSurfaceArcSystem(
        (outer, inner), {"g": ("p1", "p2")}, {"p1": loop_degree})


def annulus_with_spanning_arc(winding):
    """Annulus, outer boundary marked once, inner fully marked; one arc."""
    outer = BoundaryComponent("C", False, intervals=(("p",),))
    inner = BoundaryComponent("B", True, winding=winding, slots=("q",))
    return MarkedSurfaceArcSystem(
        (outer, inner), {"g": ("p", "q")}, {"q": winding})


# ---------------------------------------------------------------------------
# symbolic families

def test_polynomial_ring_in_degree_zero_is_not_reflexive():
    verdict = check(SymbolicFamily("polynomial", 0))
    assert verdict.verdict == "NotReflexive"
    assert verdict.certificate.criterion == "polynomial-ring-in-degree-zero"
    assert replay_certificate(verdict.certificate) == []


def test_laurent_rings_are_not_reflexive_in_any_degree():
    for degree in (0, 1, -4):
        verdict = check(SymbolicFamily("laurent", degree))
        assert verdict.verdict == "NotReflexive"
        assert verdict.certificate.criterion == "graded-laurent-polynomials"
        assert replay_certificate(verdict.certificate) == []


def test_power_series_are_reflexive():
    verdict = check(SymbolicFamily("power-series-complete-local", variables=3))
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "complete-local-power-series"
    assert not verdict.window_conditional


def test_family_tag_validation():
    with pytest.raises(ValueError, match="unknown family kind"):
        SymbolicFamily("weyl")
    with pytest.raises(ValueError, match="at least one variable"):
        SymbolicFamily("polynomial", variables=0)
    with pytest.raises(ValueError, match="just polynomials"):
        SymbolicFamily("power-series-complete-local", degree=2)


def test_graded_polynomial_ring_matches_its_annulus():
    # k[t] with |t| = d is the gentle algebra of the annulus whose fully
    # marked boundary winds d times, so the symbolic verdict must agree
    # with the winding scan on the surface.
    for degree in (1, 3, -2):
        symbolic = check(SymbolicFamily("polynomial", degree))
        geometric = check(annulus_with_spanning_arc(degree))
        assert symbolic.verdict == geometric.verdict == "Reflexive"
    assert check(SymbolicFamily("polynomial", 0)).verdict \
        == check(annulus_with_spanning_arc(0)).verdict == "NotReflexive"


def test_multivariable_graded_polynomials_stay_unknown():
    verdict = check(SymbolicFamily("polynomial", 2, variables=2))
    assert verdict.verdict == "Unknown"
    assert "single-variable" in verdict.certificate.witness


# ---------------------------------------------------------------------------
# finite dimensional algebras

def test_commutative_square_zero_is_reflexive():
    verdict = check(square_zero_algebra())
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "finite-product-of-complete-local"
    assert verdict.characteristic == "0"
    assert replay_certificate(verdict.certificate) == []


def test_commutative_decompose_splits_known_products():
    assert len(decompose_commutative(square_zero_algebra())) == 1
    factors = decompose_commutative(k_times_k())
    assert [f.residue_dimension for f in factors] == [1, 1]
    assert [f.radical_dimension for f in factors] == [0, 0]


def test_local_noncommutative_algebra_is_reflexive():
    a = local_noncommutative()
    assert a.verify() == []
    assert not a.is_commutative()
    verdict = check(a)
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "connective-local-finite-dimensional"
    assert replay_certificate(verdict.certificate) == []


def test_matrix_algebra_is_proper_coconnective():
    verdict = check(matrix_algebra())
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "proper-coconnective"
    assert replay_certificate(verdict.certificate) == []


def test_triangular_algebra_splits_over_its_quotient():
    verdict = check(triangular_algebra())
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion \
        == "connective-with-commutative-semisimple-quotient"
    assert replay_certificate(verdict.certificate) == []


def test_graded_square_zero_routes_by_sign():
    coconnective = check(square_zero_algebra(2))
    assert coconnective.certificate.criterion == "proper-coconnective"
    connective = check(square_zero_algebra(-3))
    assert connective.certificate.criterion \
        == "connective-local-finite-dimensional"
    for verdict in (coconnective, connective):
        assert verdict.verdict == "Reflexive"
        assert replay_certificate(verdict.certificate) == []


def test_mixed_degree_commutative_algebra_stays_unknown():
    structure = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                 (0, 2): {2: ONE}, (2, 0): {2: ONE}}
    mixed = FiniteDimAlgebra(QQ, ["e", "u", "w"], structure, {0: ONE},
                             degrees=[0, 1, -1])
    verdict = check(mixed)
    assert verdict.verdict == "Unknown"
    assert verdict.certificate.criterion == "no-criterion-applies"
    assert "not connective" in verdict.certificate.witness
    assert "not coconnective" in verdict.certificate.witness


def unit_with_square_zero_pair(w_degree):
    """e, u, w with unit e, |u| = 0 and every product of u and w zero."""
    structure = {(0, 0): {0: ONE}, (0, 1): {1: ONE}, (1, 0): {1: ONE},
                 (0, 2): {2: ONE}, (2, 0): {2: ONE}}
    return FiniteDimAlgebra(QQ, ["e", "u", "w"], structure, {0: ONE},
                            degrees=[0, 0, w_degree])


def matrices_over_f2(eps_degree=None):
    """M_2(F_2), ungraded; or M_2(F_2) x k[eps]/eps^2 on e11, e12, e21, e22,
    f, eps with unit e11 + e22 + f, every degree 0 but |eps|."""
    one = F2.one()
    names = [(0, 0), (0, 1), (1, 0), (1, 1)]
    structure = {(i, j): {names.index((a, d)): one}
                 for i, (a, b) in enumerate(names)
                 for j, (c, d) in enumerate(names) if b == c}
    labels = ["e11", "e12", "e21", "e22"]
    unit = {0: one, 3: one}
    if eps_degree is None:
        return FiniteDimAlgebra(F2, labels, structure, unit)
    structure.update({(4, 4): {4: one}, (4, 5): {5: one}, (5, 4): {5: one}})
    unit[4] = one
    return FiniteDimAlgebra(F2, labels + ["f", "eps"], structure, unit,
                            degrees=[0, 0, 0, 0, 0, eps_degree])


AT_MOST_ZERO = ("every basis degree is at most zero", VERIFIED_EXACTLY)
AT_LEAST_ZERO = ("every basis degree is at least zero", VERIFIED_EXACTLY)
ONE_DIMENSIONAL = ("the degree zero part modulo its radical is one dimensional",
                   VERIFIED_EXACTLY)
SEMISIMPLE = ("the degree zero part is semisimple", VERIFIED_EXACTLY)
RESISTED = ("the degree zero radical resisted computation: trace-form "
            "certificate failed and the algebra is not commutative")


def locally_proper(dim):
    return ("the algebra is finite dimensional (dimension %d), hence locally "
            "proper" % dim, VERIFIED_EXACTLY)


def proper(dim):
    return ("the algebra is finite dimensional (dimension %d), hence proper"
            % dim, VERIFIED_EXACTLY)


# (fixture, verdict, criterion, characteristic, witness, hypotheses)
FINITE_DIMENSIONAL_TABLE = {
    "local-noncommutative": (
        local_noncommutative, "Reflexive", "connective-local-finite-dimensional",
        "0", "radical dimension 3 in the degree zero part of dimension 4",
        [AT_MOST_ZERO, locally_proper(4), ONE_DIMENSIONAL]),
    "matrices": (
        matrix_algebra, "Reflexive", "proper-coconnective", "0",
        "semisimple degree zero part of dimension 4",
        [AT_LEAST_ZERO, proper(4), SEMISIMPLE]),
    "triangular": (
        triangular_algebra, "Reflexive",
        "connective-with-commutative-semisimple-quotient", "0",
        "semisimple quotient of dimension 2",
        [AT_MOST_ZERO, locally_proper(3),
         ("the semisimple quotient of the degree zero part is commutative, "
          "hence separable over the perfect ground field, and lifts to a "
          "subalgebra", VERIFIED_EXACTLY)]),
    "square-zero-u2": (
        lambda: square_zero_algebra(2), "Reflexive", "proper-coconnective", "0",
        "semisimple degree zero part of dimension 1",
        [AT_LEAST_ZERO, proper(2), SEMISIMPLE]),
    "square-zero-u-3": (
        lambda: square_zero_algebra(-3), "Reflexive",
        "connective-local-finite-dimensional", "0",
        "radical dimension 0 in the degree zero part of dimension 1",
        [AT_MOST_ZERO, locally_proper(2), ONE_DIMENSIONAL]),
    "euw-w1": (
        lambda: unit_with_square_zero_pair(1), "Unknown", "no-criterion-applies",
        "0", "not connective: basis degrees reach 1; the degree zero part has "
        "a radical of dimension 1, so it is not semisimple", []),
    "euw-w-1": (
        lambda: unit_with_square_zero_pair(-1), "Reflexive",
        "connective-local-finite-dimensional", "0",
        "radical dimension 1 in the degree zero part of dimension 2",
        [AT_MOST_ZERO, locally_proper(3), ONE_DIMENSIONAL]),
    # the connective part's miss comes first, whichever part it is
    "m2f2-eps-1": (
        lambda: matrices_over_f2(-1), "Unknown", "no-criterion-applies", "2",
        RESISTED + "; not coconnective: basis degrees reach -1", []),
    "m2f2-eps1": (
        lambda: matrices_over_f2(1), "Unknown", "no-criterion-applies", "2",
        "not connective: basis degrees reach 1; " + RESISTED, []),
    # both criteria apply and share the one radical, so it resists once
    "m2f2-ungraded": (
        matrices_over_f2, "Unknown", "no-criterion-applies", "2", RESISTED, []),
}


@pytest.mark.parametrize("name", FINITE_DIMENSIONAL_TABLE)
def test_finite_dimensional_verdict_table(name):
    build, verdict, criterion, characteristic, witness, hypotheses = \
        FINITE_DIMENSIONAL_TABLE[name]
    result = check(build())
    assert result.as_report() == {
        "verdict": verdict, "criterion": criterion,
        "characteristic": characteristic, "witness": witness,
        "hypotheses": [{"statement": s, "tag": tag} for s, tag in hypotheses]}
    assert replay_certificate(result.certificate) == []


def test_the_degree_zero_radical_is_found_once(monkeypatch):
    # M_2(Q) misses both connective criteria and meets proper-coconnective,
    # all three on one degree zero subalgebra; the replay rebuilds its own
    calls = []
    build = reflexivity._degree_zero_subalgebra

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(reflexivity, "_degree_zero_subalgebra", counted)
    verdict = check(matrix_algebra())
    assert verdict.certificate.criterion == "proper-coconnective"
    assert len(calls) == 1
    assert replay_certificate(verdict.certificate) == []


def test_malformed_structure_constants_are_rejected():
    broken = FiniteDimAlgebra(QQ, ["e", "u"],
                              {(0, 0): {0: ONE}, (0, 1): {1: ONE},
                               (1, 0): {1: ONE}, (1, 1): {0: ONE}},
                              {0: ONE}, degrees=[0, 1])
    with pytest.raises(ValueError, match="inconsistent"):
        check(broken)


# ---------------------------------------------------------------------------
# realized truncations

def test_square_zero_truncation_in_degree_two():
    t = truncated_polynomial_dg(2, degree=2)
    verdict = check(t)
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "coconnective-with-vanishing-degree-one"
    # every hypothesis is exact here: the basis is certified complete
    assert all(h.tag == VERIFIED_EXACTLY for h in verdict.certificate.hypotheses)
    assert not verdict.window_conditional
    assert verdict.qualified_verdict() == "Reflexive"
    assert replay_certificate(verdict.certificate) == []


def test_ungraded_truncated_polynomials_are_local():
    verdict = check(truncated_polynomial_dg(3))
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion \
        == "connective-with-local-degree-zero-cohomology"
    assert replay_certificate(verdict.certificate) == []


def test_preprojective_truncation_is_window_conditional():
    t = realize(cy_completion(a2_quiver(), 2), (-4, 0), 4)
    verdict = check(t)
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion \
        == "connective-with-commutative-semisimple-quotient"
    # H^0 is the preprojective algebra with semisimple quotient k x k, and
    # both degree zero generators land in the radical, so the splitting is
    # seen syntactically; properness is still only window-checked.
    assert verdict.window_conditional
    assert verdict.qualified_verdict() == "Reflexive(window-conditional)"
    tags = {h.statement: h.tag for h in verdict.certificate.hypotheses}
    assert any("splits off" in s and tag == VERIFIED_EXACTLY
               for s, tag in tags.items())
    assert any(tag == VERIFIED_WITHIN_WINDOW for tag in tags.values())
    assert ASSUMED_BY_USER not in tags.values()
    assert replay_certificate(verdict.certificate) == []


def test_an_unseen_splitting_is_assumed():
    # k[x]/(x^2 - x): x is an idempotent, so it projects onto the semisimple
    # quotient k x k of H^0 and not into the radical; the splitting is not
    # seen, and the certificate says that it is assumed
    arrow = Arrow("x", "v", "v", 0)
    q = QuiverPresentation(["v"], [arrow])
    x = PathAlgebraElement.from_path(q.path(["x"]))
    xx = PathAlgebraElement.from_path(q.path(["x", "x"]))
    t = realize(DgAlgebraPresentation(["v"], [arrow], relations=[xx - x],
                                      field=QQ), (-2, 2), 2)
    verdict = check(t)
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion \
        == "connective-with-commutative-semisimple-quotient"
    assert verdict.certificate.witness \
        == "semisimple quotient of H^0 has dimension 2"
    last = verdict.certificate.hypotheses[-1]
    assert (last.statement, last.tag) == (
        "the projection onto the semisimple quotient of H^0 admits a dg "
        "algebra splitting", ASSUMED_BY_USER)
    assert replay_certificate(verdict.certificate) == []


def idempotent_loop():
    """k[x]/(x^2 - x), realized on (-2, 2) at L = 2."""
    arrow = Arrow("x", "v", "v", 0)
    q = QuiverPresentation(["v"], [arrow])
    x = PathAlgebraElement.from_path(q.path(["x"]))
    xx = PathAlgebraElement.from_path(q.path(["x", "x"]))
    return realize(DgAlgebraPresentation(["v"], [arrow], relations=[xx - x],
                                         field=QQ), (-2, 2), 2)


def zero_products(generators, window, bound):
    """Loops of the given (name, degree) on one vertex, every product of two
    of them zero, realized on window at weight bound."""
    arrows = [Arrow(name, "v", "v", degree) for name, degree in generators]
    q = QuiverPresentation(["v"], arrows)
    relations = [PathAlgebraElement.from_path(q.path([a.name, b.name]))
                 for a in arrows for b in arrows]
    return realize(DgAlgebraPresentation(["v"], arrows, relations=relations,
                                         field=QQ), window, bound)


def eps_and_g():
    """eps in degree 1 and g in degree 3 on (0, 1) at L = 4: g lies outside
    the window, inside the certified finite basis."""
    return zero_products([("eps", 1), ("g", 3)], (0, 1), 4)


def a2_over_f2():
    return realize(DgAlgebraPresentation(["1", "2"], [Arrow("a", "1", "2", 0)],
                                         field=F2), (-1, 1), 2)


def cohomology_in_positive_degrees(tag):
    return ("cohomology vanishes in positive degrees", tag)


def finite_in_each_degree(tag):
    return ("cohomology is finite dimensional in each computed degree", tag)


def h0_agrees(bound):
    return ("the H^0 dimension agrees between weight bounds %d and %d"
            % (bound, bound + 1), VERIFIED_EXACTLY)


EXACT, WINDOW = VERIFIED_EXACTLY, VERIFIED_WITHIN_WINDOW
COMMUTATIVE_QUOTIENT = ("the semisimple quotient of H^0 is commutative", EXACT)
NONNEGATIVE = ("no basis words sit in negative degrees", EXACT)
A2_RESISTS = "trace-form certificate failed and the algebra is not commutative"

# (fixture, verdict, criterion, characteristic, witness, hypotheses)
TRUNCATION_TABLE = {
    "local": (
        lambda: truncated_polynomial_dg(3), "Reflexive",
        "connective-with-local-degree-zero-cohomology", "0",
        "H^0 has dimension 3 with radical of dimension 2",
        [cohomology_in_positive_degrees(EXACT), finite_in_each_degree(EXACT),
         h0_agrees(5), ("H^0 modulo its radical is one dimensional", EXACT)]),
    "split-seen": (
        lambda: realize(cy_completion(a2_quiver(), 2), (-4, 0), 4),
        "Reflexive(window-conditional)",
        "connective-with-commutative-semisimple-quotient", "0",
        "semisimple quotient of H^0 has dimension 2",
        [cohomology_in_positive_degrees(EXACT), finite_in_each_degree(WINDOW),
         h0_agrees(4), COMMUTATIVE_QUOTIENT,
         ("every degree zero generator projects into the radical of H^0, so "
          "the semisimple quotient splits off", EXACT)]),
    "split-assumed": (
        idempotent_loop, "Reflexive",
        "connective-with-commutative-semisimple-quotient", "0",
        "semisimple quotient of H^0 has dimension 2",
        [cohomology_in_positive_degrees(EXACT), finite_in_each_degree(EXACT),
         h0_agrees(2), COMMUTATIVE_QUOTIENT,
         ("the projection onto the semisimple quotient of H^0 admits a dg "
          "algebra splitting", ASSUMED_BY_USER)]),
    "vanishing-degree-one": (
        lambda: truncated_polynomial_dg(2, degree=2), "Reflexive",
        "coconnective-with-vanishing-degree-one", "0",
        "degree zero dimension 1 over 1 vertices",
        [NONNEGATIVE, ("the degree one component vanishes", EXACT),
         ("the degree zero component is exactly the span of the vertices",
          EXACT), finite_in_each_degree(EXACT)]),
    "proper-coconnective": (
        eps_and_g, "Reflexive", "proper-coconnective", "0",
        "total dimension 3 over the whole certified finite basis",
        [NONNEGATIVE,
         ("the basis is finite and complete below the weight bound", EXACT),
         ("H^0 is semisimple", EXACT)]),
    "h0-not-stabilized": (
        lambda: realize(DgAlgebraPresentation(["v"], [Arrow("x", "v", "v", 0)],
                                              field=QQ), (-2, 2), 3),
        "Unknown", "no-criterion-applies", "0",
        "H^0 did not stabilize: H^0 dimension moved from 4 to 5 between "
        "weight bounds 3 and 4; the degree zero component is bigger than the "
        "span of the vertices (dimension 4); the basis is not certified "
        "finite, so properness stays window-bound", []),
    "neither-side": (
        lambda: zero_products([("u", 1), ("w", -1)], (-2, 2), 3),
        "Unknown", "no-criterion-applies", "0",
        "not connective: classes survive in positive degrees; not "
        "coconnective: words survive in negative degrees", []),
    "h0-has-a-radical": (
        lambda: zero_products([("x", 0), ("e", 1)], (0, 1), 3),
        "Unknown", "no-criterion-applies", "0",
        "not connective: classes survive in positive degrees; the degree one "
        "component does not vanish; the degree zero component is bigger than "
        "the span of the vertices (dimension 2); H^0 has a radical of "
        "dimension 1, so it is not semisimple", []),
    # both sides need the one radical, and each lists its resistance
    "a2-f2": (
        a2_over_f2, "Unknown", "no-criterion-applies", "2",
        "the radical of H^0 resisted computation: %s; the degree zero "
        "component is bigger than the span of the vertices (dimension 3); "
        "the H^0 semisimplicity check failed: %s" % (A2_RESISTS, A2_RESISTS),
        []),
}


@pytest.mark.parametrize("name", TRUNCATION_TABLE)
def test_truncation_verdict_table(name):
    build, verdict, criterion, characteristic, witness, hypotheses = \
        TRUNCATION_TABLE[name]
    result = check(build())
    report = result.as_report()
    assert report == {
        "verdict": verdict, "criterion": criterion,
        "characteristic": characteristic, "witness": witness,
        "hypotheses": [{"statement": s, "tag": tag} for s, tag in hypotheses]}
    assert replay_certificate(result.certificate) == []


def test_the_proper_coconnective_witness_counts_the_whole_basis():
    # g sits in degree 3, outside the window (0, 1); the witness counts the
    # certified finite basis, g included, not the window
    t = eps_and_g()
    assert t.reported_dims() == {0: 1, 1: 1}
    assert sum(t.dims().values()) == 3
    assert check(t).certificate.witness \
        == "total dimension 3 over the whole certified finite basis"
    # k[eps]/eps^2 on (0, 2), as in tests/data/circle_pair.json: the whole
    # basis lies inside the window, and the witness says so
    inside = zero_products([("eps", 1)], (0, 2), 6)
    assert check(inside).certificate.witness \
        == "total dimension 2 inside the window"


def test_h0_and_its_radical_are_found_once_on_a_truncation(monkeypatch):
    # on A_2 over F_2 the connective rung and the proper coconnective rung
    # both need the radical of H^0, which resists; it is sought once
    calls = []
    build = reflexivity.h0_algebra

    def counted(t):
        calls.append(t)
        return build(t)
    monkeypatch.setattr(reflexivity, "h0_algebra", counted)
    verdict = check(a2_over_f2())
    assert verdict.certificate.witness == TRUNCATION_TABLE["a2-f2"][4]
    assert len(calls) == 1


def test_bare_presentation_is_rejected():
    pres = DgAlgebraPresentation(["v"], [Arrow("x", "v", "v", 0)], field=QQ)
    with pytest.raises(TypeError, match="realize the presentation"):
        check(pres)
    with pytest.raises(TypeError, match="no reflexivity criteria"):
        check(42)


# ---------------------------------------------------------------------------
# completions, potentials, gentle presentations, surfaces

def test_cy_completions_of_rank_at_least_two():
    for n in (2, 3):
        verdict = check(cy_completion(a2_quiver(), n))
        assert verdict.verdict == "Reflexive"
        assert verdict.certificate.criterion \
            == "calabi-yau-completion-of-rank-at-least-two"
        assert replay_certificate(verdict.certificate) == []
    rank_one = check(cy_completion(a2_quiver(), 1))
    assert rank_one.verdict == "Unknown"
    assert "rank at least two" in rank_one.certificate.witness


def test_ginzburg_cubic_potential_in_characteristic_zero():
    w = Superpotential(one_loop(), {("x", "x", "x"): 1})
    verdict = check(ginzburg(one_loop(), w))
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "ginzburg-algebra-of-a-long-cycle-potential"
    assert verdict.characteristic == "0"
    assert replay_certificate(verdict.certificate) == []


def test_ginzburg_criterion_misses_in_positive_characteristic():
    w = Superpotential(one_loop(), {("x", "x", "x"): 1}, field=F3)
    with pytest.warns(CharacteristicWarning):
        presentation = ginzburg(one_loop(), w)
    verdict = check(presentation)
    assert verdict.verdict == "Unknown"
    assert "characteristic zero" in verdict.certificate.witness


def test_ginzburg_criterion_misses_on_short_cycles():
    two = QuiverPresentation(("1", "2"), (Arrow("u", "1", "2", 0),
                                          Arrow("v", "2", "1", 0)))
    w = Superpotential(two, {("u", "v"): 1})
    with pytest.warns(ShortCycleWarning):
        presentation = ginzburg(two, w)
    verdict = check(presentation)
    assert verdict.verdict == "Unknown"
    assert "length 2" in verdict.certificate.witness


def test_proper_gentle_presentation_is_reflexive():
    g = GentlePresentation(
        QuiverPresentation(("g",), (Arrow("f", "g", "g", -1),)),
        relations=(("f", "f"),), proper=True, smooth=False)
    verdict = check(g)
    assert verdict.verdict == "Reflexive"
    assert verdict.certificate.criterion == "proper-graded-gentle"
    assert verdict.characteristic == "any"
    assert replay_certificate(verdict.certificate) == []


def test_improper_gentle_presentation_points_at_the_surface():
    g = GentlePresentation(
        QuiverPresentation(("g",), (Arrow("f", "g", "g", 2),)))
    verdict = check(g)
    assert verdict.verdict == "Unknown"
    assert "winding criterion" in verdict.certificate.witness


def test_lying_properness_flag_is_caught():
    free_loop = GentlePresentation(
        QuiverPresentation(("g",), (Arrow("f", "g", "g", 2),)),
        proper=True)
    with pytest.raises(ValueError, match="still growing"):
        check(free_loop)


def test_surface_inputs_use_the_winding_scan():
    reflexive = check(annulus_with_spanning_arc(2))
    assert reflexive.verdict == "Reflexive"
    assert reflexive.certificate.criterion \
        == "no-fully-marked-component-of-winding-zero"
    degenerate = check(annulus_with_spanning_arc(0))
    assert degenerate.verdict == "NotReflexive"
    for verdict in (reflexive, degenerate):
        assert replay_certificate(verdict.certificate) == []


def test_gentle_and_surface_routes_agree_on_the_annulus():
    surface = annulus_with_core_arc(-1, 2)
    from quiverdg.surfaces import gentle_presentation
    geometric = check(surface)
    algebraic = check(gentle_presentation(surface))
    assert geometric.verdict == algebraic.verdict == "Reflexive"


# ---------------------------------------------------------------------------
# the completeness triangle

def test_two_out_of_three_infers_joint_truth():
    filled = two_out_of_three(CompletenessTriple(generator=True, complete=True))
    assert filled.reflexive is True
    assert "inferred" in filled.note_for("reflexive")
    filled = two_out_of_three(CompletenessTriple(reflexive=True, generator=True))
    assert filled.complete is True


def test_two_out_of_three_refuses_to_infer_from_failure():
    stuck = two_out_of_three(CompletenessTriple(reflexive=False, generator=True))
    assert stuck.complete is None
    assert "joint truth" in stuck.note_for("complete")


def test_two_out_of_three_input_validation():
    with pytest.raises(TooFewKnownFlags):
        two_out_of_three(CompletenessTriple(complete=True))
    with pytest.raises(ValueError, match="already known"):
        two_out_of_three(CompletenessTriple(True, True, True))
    with pytest.raises(ValueError, match="must be True, False, or None"):
        CompletenessTriple(reflexive="yes")


# ---------------------------------------------------------------------------
# certificates as a whole

def test_check_is_deterministic():
    t = realize(cy_completion(a2_quiver(), 2), (-4, 0), 4)
    first = check(t)
    second = check(t)
    assert first.as_report() == second.as_report()
    assert check(SymbolicFamily("laurent", 1)).as_report() \
        == check(SymbolicFamily("laurent", 1)).as_report()


def test_reports_carry_the_hypothesis_tags():
    verdict = check(square_zero_algebra())
    report = verdict.as_report()
    assert report["verdict"] == "Reflexive"
    assert report["criterion"] == "finite-product-of-complete-local"
    assert report["characteristic"] == "0"
    assert all(h["tag"] == VERIFIED_EXACTLY for h in report["hypotheses"])
