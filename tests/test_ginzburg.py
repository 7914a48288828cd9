"""Tests for R_n, Calabi-Yau completions, Ginzburg presentations, Jacobi bases.

The two R_n routes (structure constants from the multiplication law, and the
quotient presentation reduced by linear algebra) are compared product by
product; the completion fixtures are checked against hand-expanded
differentials, and the Koszul pair comparison supplies the cross-pipeline
oracle at the end.
"""

import sys
import warnings
from pathlib import Path

import pytest

from quiverdg.dgalgebra import (
    InconsistentPresentation,
    cohomology,
    h0_algebra,
    realize,
    verify_differential,
)
from quiverdg.ginzburg import (
    CharacteristicWarning,
    NonzeroArrowDegree,
    ShortCycleWarning,
    build_rn,
    cy_completion,
    ginzburg,
    jacobi_basis,
    rn_presentation,
    verify_koszul_pair,
)
from quiverdg.fields import GroundField
from quiverdg.quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    Superpotential,
    cyclic_derivative,
)

QQ = GroundField(0)
DATA = Path(__file__).resolve().parent / "data"


def a2_quiver():
    return QuiverPresentation(["1", "2"], [Arrow("a", "1", "2", 0)])


def one_loop():
    return QuiverPresentation(["v"], [Arrow("x", "v", "v", 0)])


def three_cycle():
    return QuiverPresentation(
        ["1", "2", "3"],
        [Arrow("x", "1", "2", 0), Arrow("y", "2", "3", 0),
         Arrow("z", "3", "1", 0)])


def test_rn_of_a2_matches_the_multiplication_law():
    # Six basis elements: two idempotents, the arrow in degree 1, its dual
    # in degree n-1, and two socle elements in degree n.
    for n in (2, 5):
        rn = build_rn(a2_quiver(), n)
        alg = rn.algebra
        assert alg.dim == 6
        assert dict(zip(alg.basis, alg.degrees)) == {
            "e_1": 0, "e_2": 0, "a": 1, "a^": n - 1, "t_1": n, "t_2": n}
        assert alg.verify() == []
        assert rn.pairing == {("a", "a^"): "1"}
        i = {label: k for k, label in enumerate(alg.basis)}
        one = alg.field.one()
        # a * a^ contracts to the socle at the tail of a, a^ * a at its head
        assert alg.mul({i["a"]: one}, {i["a^"]: one}) == {i["t_1"]: one}
        assert alg.mul({i["a^"]: one}, {i["a"]: one}) == {i["t_2"]: one}
        assert alg.mul({i["e_1"]: one}, {i["e_1"]: one}) == {i["e_1"]: one}
        assert alg.mul({i["e_1"]: one}, {i["a"]: one}) == {i["a"]: one}
        assert alg.mul({i["a"]: one}, {i["e_1"]: one}) == {}
        assert alg.mul({i["t_1"]: one}, {i["t_1"]: one}) == {}
        assert alg.mul({i["t_1"]: one}, {i["a"]: one}) == {}


def test_rn_is_coconnective_with_semisimple_degree_zero():
    for n in (2, 3, 5):
        rn = build_rn(a2_quiver(), n)
        table = dict(zip(rn.algebra.basis, rn.algebra.degrees))
        assert min(table.values()) == 0
        assert [label for label, d in table.items() if d == 0] == ["e_1", "e_2"]
        assert all(d >= 1 for label, d in table.items()
                   if not label.startswith("e_"))


def test_rn_requires_degree_zero_arrows():
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v", 1)])
    with pytest.raises(NonzeroArrowDegree):
        build_rn(q, 2)
    with pytest.raises(NonzeroArrowDegree):
        cy_completion(q, 2)


def test_rn_presentation_agrees_with_structure_constants():
    # Weight bound 4 certifies the truncation (socle weight 2 plus one more
    # generator stays under it), so every product below is computed exactly
    # and can be compared with the direct structure constants.
    for quiver, n in ((a2_quiver(), 2), (one_loop(), 3)):
        rn = build_rn(quiver, n)
        t = realize(rn_presentation(quiver, n), (0, 2 * n), 4)
        assert t.certified_finite_dimensional
        assert sum(t.dims().values()) == rn.algebra.dim
        quiver_of = t.presentation.quiver
        elements = {}
        for label in rn.algebra.basis:
            if label.startswith("e_"):
                path = quiver_of.trivial(label[2:])
            else:
                path = quiver_of.path([label])
            elements[label] = t.qb.reduce(PathAlgebraElement.from_path(
                path, t.field.one()))
        index = {k: label for k, label in enumerate(rn.algebra.basis)}
        one = t.field.one()
        for left in rn.algebra.basis:
            for right in rn.algebra.basis:
                direct = rn.algebra.mul(
                    {rn.algebra.basis.index(left): one},
                    {rn.algebra.basis.index(right): one})
                expected = PathAlgebraElement.zero()
                for k, c in direct.items():
                    expected = expected + c * elements[index[k]]
                assert t.product(elements[left], elements[right]) == expected


def test_cy_completion_of_a2_gives_the_preprojective_algebra():
    # H^0 of Pi_2(A_2) is the preprojective algebra: e_1, e_2, a, a^ survive
    # while both length-2 cycles are killed by dz; the radical is spanned by
    # the two arrows and the quotient is k x k.
    pi2 = cy_completion(a2_quiver(), 2)
    assert {g.name: g.degree for g in pi2.generators} == {
        "a": 0, "a^": 0, "z_1": -1, "z_2": -1}
    scratch = pi2.quiver
    assert pi2.differential["z_1"] == PathAlgebraElement.from_path(
        scratch.path(["a", "a^"]), QQ.one())
    assert pi2.differential["z_2"] == -PathAlgebraElement.from_path(
        scratch.path(["a^", "a"]), QQ.one())
    t = realize(pi2, (-1, 0), 4)
    assert cohomology(t, (0, 0)).dims == {0: 4}
    h0 = h0_algebra(t)
    assert h0.algebra.dim == 4
    assert h0.algebra.verify() == []
    rad = h0.algebra.radical()
    assert rad.dimension == 2
    assert rad.quotient.dim == 2
    assert rad.quotient.is_commutative()
    assert rad.quotient.radical().dimension == 0
    # the two vertex classes project to orthogonal idempotents splitting 1
    one = QQ.one()
    e1 = PathAlgebraElement.from_path(scratch.trivial("1"), one)
    e2 = PathAlgebraElement.from_path(scratch.trivial("2"), one)
    u = rad.project({h0.representatives.index(e1): one})
    v = rad.project({h0.representatives.index(e2): one})
    assert rad.quotient.mul(u, u) == u
    assert rad.quotient.mul(v, v) == v
    assert rad.quotient.mul(u, v) == {}
    assert rad.quotient.unit == {k: u.get(k, 0) + v.get(k, 0)
                                 for k in set(u) | set(v)}


def test_cy_completion_of_point_is_polynomial_on_one_loop():
    point = QuiverPresentation(["v"], [])
    for n in (1, 2, 3):
        pres = cy_completion(point, n)
        assert [(g.name, g.degree) for g in pres.generators] == [
            ("z_v", 1 - n)]
        assert pres.differential == {}


def test_cy_completion_of_one_loop_at_n3():
    pres = cy_completion(one_loop(), 3)
    assert {g.name: g.degree for g in pres.generators} == {
        "x": 0, "x^": -1, "z_v": -2}
    scratch = pres.quiver
    expected = (PathAlgebraElement.from_path(scratch.path(["x", "x^"]), QQ.one())
                - PathAlgebraElement.from_path(scratch.path(["x^", "x"]), QQ.one()))
    assert pres.differential == {"z_v": expected}
    assert verify_differential(realize(pres, (-2, 0), 4)).ok


def test_ginzburg_of_cubic_loop():
    w = Superpotential(one_loop(), {("x", "x", "x"): 1})
    g = ginzburg(one_loop(), w)
    assert {gen.name: gen.degree for gen in g.generators} == {
        "x": 0, "x^": -1, "z_v": -2}
    assert g.weights == {"x": 1, "x^": 2, "z_v": 3}
    scratch = g.quiver
    assert g.differential["x^"] == PathAlgebraElement.from_path(
        scratch.path(["x", "x"]), QQ.of(3))
    commutator = (PathAlgebraElement.from_path(scratch.path(["x", "x^"]), QQ.one())
                  - PathAlgebraElement.from_path(scratch.path(["x^", "x"]), QQ.one()))
    assert g.differential["z_v"] == commutator
    # d^2 z = 3(x*x^2 - x^2*x) = 0 is what verify_differential certifies
    assert verify_differential(realize(g, (-2, 0), 5)).ok


def kronecker():
    return QuiverPresentation(
        ["1", "2"], [Arrow("a", "1", "2", 0), Arrow("b", "1", "2", 0)])


def point():
    return QuiverPresentation(["v"], [])


def differential_terms(presentation):
    """The differential with its key order and each element's term order."""
    return [(name, list(element.terms.items()))
            for name, element in presentation.differential.items()]


@pytest.mark.parametrize("quiver", [point, one_loop, a2_quiver, kronecker, three_cycle],
                         ids=["point", "loop", "A2", "kronecker", "3-cycle"])
def test_ginzburg_of_zero_potential_is_the_3cy_completion(quiver):
    w0 = Superpotential(quiver(), {})
    g = ginzburg(quiver(), w0)
    p3 = cy_completion(quiver(), 3)
    assert g.differential == p3.differential
    assert g.weights == p3.weights
    assert [(a.name, a.degree) for a in g.generators] == [
        (a.name, a.degree) for a in p3.generators]
    # field by field, dict key order and term order included
    assert g.generators == p3.generators
    assert list(g.weights.items()) == list(p3.weights.items())
    assert differential_terms(g) == differential_terms(p3)
    assert (g.superpotential, g.n, p3.superpotential, p3.n) == (w0, 3, None, 3)


@pytest.mark.parametrize("quiver,cycles,weights", [
    (one_loop, {("x", "x", "x"): 1}, (1, 2, 3)),
    (three_cycle, {("x", "y", "z"): 1}, (1, 2, 3)),
    (lambda: QuiverPresentation(["v"], [Arrow("x", "v", "v", 0), Arrow("y", "v", "v", 0)]),
     {("x", "x", "y", "y"): 1, ("x", "y", "x", "y"): -1}, (1, 3, 4)),
    (one_loop, {("x", "x"): 1, ("x", "x", "x"): 1}, (1, 1, 2)),
    (lambda: QuiverPresentation(["1", "2"], [Arrow("u", "1", "2", 0),
                                             Arrow("v", "2", "1", 0)]),
     {("u", "v"): 1}, (1, 1, 2)),
], ids=["cubic-loop", "3-cycle", "two-loops-quartic", "mixed-lengths", "short-cycle"])
def test_ginzburg_deforms_the_3cy_completion_by_the_cyclic_derivatives(
        quiver, cycles, weights):
    potential = Superpotential(quiver(), cycles)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShortCycleWarning)
        g = ginzburg(quiver(), potential)
    p3 = cy_completion(quiver(), 3)
    assert g.generators == p3.generators
    loops = [name for name in p3.differential if name.startswith("z_")]
    assert [(name, list(g.differential[name].terms.items())) for name in loops] == [
        (name, list(p3.differential[name].terms.items())) for name in loops]
    arrows = quiver().arrows
    arrow_weight, dual_weight, loop_weight = weights
    assert list(g.weights.items()) == (
        [(a.name, arrow_weight) for a in arrows]
        + [(a.name + "^", dual_weight) for a in arrows]
        + [("z_%s" % v, loop_weight) for v in quiver().vertices])
    for a in arrows:
        expected = cyclic_derivative(potential, a.name)
        assert g.differential.get(a.name + "^", PathAlgebraElement.zero()) == expected
    assert list(g.differential) == loops + [
        a.name + "^" for a in arrows if not cyclic_derivative(potential, a.name).is_zero()]
    assert (g.superpotential, g.n) == (potential, 3)


def test_ginzburg_of_three_cycle():
    # Rotating xyz past each arrow: dx^ = yz, dy^ = zx, dz^ = xy.
    w = Superpotential(three_cycle(), {("x", "y", "z"): 1})
    g = ginzburg(three_cycle(), w)
    scratch = g.quiver
    one = QQ.one()
    assert g.differential["x^"] == PathAlgebraElement.from_path(
        scratch.path(["y", "z"]), one)
    assert g.differential["y^"] == PathAlgebraElement.from_path(
        scratch.path(["z", "x"]), one)
    assert g.differential["z^"] == PathAlgebraElement.from_path(
        scratch.path(["x", "y"]), one)
    assert verify_differential(realize(g, (-2, 0), 4)).ok


def test_ginzburg_warnings_and_curvature_rejection():
    loop = one_loop()
    w3 = Superpotential(loop, {("x", "x", "x"): 1}, field=GroundField(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ginzburg(loop, w3)
    assert [c.category for c in caught] == [CharacteristicWarning]
    two = QuiverPresentation(
        ["1", "2"], [Arrow("u", "1", "2", 0), Arrow("v", "2", "1", 0)])
    w2 = Superpotential(two, {("u", "v"): 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ginzburg(two, w2)
    assert [c.category for c in caught] == [ShortCycleWarning]
    # a length-1 cycle asks for a vertex term in d(x^): curvature, refused
    w1 = Superpotential(loop, {("x",): 1})
    with pytest.raises(InconsistentPresentation, match="curvature"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ginzburg(loop, w1)


def test_jacobi_basis_of_cubic_loop():
    loop = one_loop()
    w = Superpotential(loop, {("x", "x", "x"): 1})
    qb = jacobi_basis(loop, w, 6)
    assert [str(p) for p in qb.basis] == ["e_v", "x"]
    w3 = Superpotential(loop, {("x", "x", "x"): 1}, field=GroundField(3))
    assert len(jacobi_basis(loop, w3, 4)) == 5
    w0 = Superpotential(loop, {})
    assert len(jacobi_basis(loop, w0, 4)) == 5
    with pytest.raises(ValueError, match="length bound"):
        jacobi_basis(loop, w, -1)


def test_jacobi_count_equals_h0_dimension():
    # Jacobi algebra of the 3-cycle: all length-2 paths die, leaving the
    # three idempotents and three arrows; H^0 of the Ginzburg realization
    # must see the same six classes.
    w = Superpotential(three_cycle(), {("x", "y", "z"): 1})
    assert len(jacobi_basis(three_cycle(), w, 4)) == 6
    g = ginzburg(three_cycle(), w)
    t = realize(g, (-1, 0), 4)
    assert h0_algebra(t).algebra.dim == 6
    loop = one_loop()
    wx = Superpotential(loop, {("x", "x", "x"): 1})
    t_loop = realize(ginzburg(loop, wx), (-1, 0), 4)
    assert h0_algebra(t_loop).algebra.dim == len(jacobi_basis(loop, wx, 4))


def test_koszul_pair_for_point_and_a2():
    point = QuiverPresentation(["v"], [])
    report = verify_koszul_pair(point, 3, 4, (-4, 0))
    assert report.kind == "MatchWithinWindow" and report.all_match
    assert {d: row["completion"] for d, row in report.rows.items()} == {
        -4: 1, -3: 0, -2: 1, -1: 0, 0: 1}
    a2 = a2_quiver()
    report = verify_koszul_pair(a2, 2, 4, (-1, 0))
    assert report.all_match
    assert {d: (row["rn_dual"], row["completion"])
            for d, row in report.rows.items()} == {-1: (4, 4), 0: (4, 4)}
    report = verify_koszul_pair(a2, 3, 4, (0, 0))
    assert report.all_match and report.rows[0]["rn_dual"] == 3
    with pytest.raises(ValueError, match="empty window"):
        verify_koszul_pair(a2, 2, 4, (1, 0))


def fail_every_d_squared_certificate(monkeypatch):
    # the package attribute quiverdg.ginzburg is the function ginzburg, so
    # the module is reached through sys.modules
    monkeypatch.setattr(sys.modules["quiverdg.ginzburg"], "_differential_failures",
                        lambda presentation, weight_bound: [("d2", "z_v")])


def test_a_construction_that_fails_its_own_certificate_raises(monkeypatch):
    # a failed d^2 certificate is a fault of the builder, not of its input
    fail_every_d_squared_certificate(monkeypatch)
    with pytest.raises(RuntimeError, match="differential fails its own checks"):
        cy_completion(one_loop(), 2)
    with pytest.raises(RuntimeError, match="differential fails its own checks"):
        ginzburg(one_loop(), Superpotential(one_loop(), {("x", "x", "x"): 1}))


@pytest.mark.parametrize("argv", [
    ["cy", str(DATA / "a2_preprojective.json")],
    ["ginzburg", str(DATA / "one_loop_ginzburg.json")],
    ["reflexive", str(DATA / "a2_preprojective.json")],
    ["selftest"],
])
def test_a_construction_that_fails_its_own_certificate_exits_two(argv, monkeypatch,
                                                                 capsys):
    from quiverdg import cli

    fail_every_d_squared_certificate(monkeypatch)
    assert cli.main(argv + ["--quiet"]) == cli.EXIT_INTERNAL == 2
    err = capsys.readouterr().err
    assert err.startswith("internal invariant failure")
    assert "differential fails its own checks" in err
    assert "input error" not in err
