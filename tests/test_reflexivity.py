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
from quiverdg.reflexivity import (
    CompletenessTriple,
    SymbolicFamily,
    TooFewKnownFlags,
    check,
    two_out_of_three,
)
from quiverdg.surfaces import BoundaryComponent, GentlePresentation, MarkedSurfaceArcSystem

QQ = GroundField(0)
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
