import random
from fractions import Fraction

import pytest
import sympy

from quiverdg.fields import GroundField
from quiverdg.algebras import (
    FiniteDimAlgebra,
    NotCommutative,
    decompose_commutative,
    factor_polynomial,
    minimal_polynomial,
)
from quiverdg.linalg import vec_axpy

QQ = GroundField(0)
F2 = GroundField(2)
F3 = GroundField(3)
F5 = GroundField(5)


def poly_quotient_algebra(field, mod_coeffs):
    """k[x]/(m) with m monic, coefficients low-to-high."""
    n = len(mod_coeffs) - 1
    reductions = {i: {i: field.one()} for i in range(n)}
    for e in range(n, 2 * n - 1):
        prev = reductions[e - 1]
        vec = {}
        for d, c in prev.items():
            if d + 1 < n:
                vec[d + 1] = vec.get(d + 1, field.zero()) + c
            else:
                for t in range(n):
                    if mod_coeffs[t]:
                        vec[t] = vec.get(t, field.zero()) - c * mod_coeffs[t]
        reductions[e] = {k: v for k, v in vec.items() if v}
    structure = {}
    for i in range(n):
        for j in range(n):
            vec = reductions[i + j]
            if vec:
                structure[(i, j)] = vec
    labels = ["x^%d" % i for i in range(n)]
    return FiniteDimAlgebra(field, labels, structure, {0: field.one()})


def matrix_algebra_2x2(field):
    # basis e11, e12, e21, e22; e_ij e_kl = delta_jk e_il
    idx = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    structure = {}
    for (i, j), a in idx.items():
        for (k, l), b in idx.items():
            if j == k:
                structure[(a, b)] = {idx[(i, l)]: field.one()}
    return FiniteDimAlgebra(
        field, ["e11", "e12", "e21", "e22"], structure,
        {0: field.one(), 3: field.one()})


def test_verify_catches_defects():
    good = poly_quotient_algebra(QQ, [Fraction(0), Fraction(0), Fraction(1)])
    assert good.verify() == []
    bad = FiniteDimAlgebra(
        QQ, ["e", "x", "y"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1},
         (2, 0): {2: 1}, (1, 1): {2: 1}, (1, 2): {0: 1}},
        {0: 1})
    # (x*x)*x = y*x = 0 but x*(x*x) = x*y = e
    assert any("associativity" in f for f in bad.verify())
    graded = FiniteDimAlgebra(
        QQ, ["e", "x"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
        {0: 1}, degrees=[0, 3])
    assert graded.verify() == []
    missgraded = FiniteDimAlgebra(
        QQ, ["e", "x"],
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
        {0: 1}, degrees=[0, 3])
    assert any("grading" in f for f in missgraded.verify())


@pytest.mark.parametrize("structure,unit,degrees", [
    ({(0, 0): {0: 1}, (5, 7): {9: 1}}, {0: 1}, None),
    ({(0, 0): {0: 1}, (2, 0): {1: 1}}, {0: 1}, [0, 0]),
    ({(0, 0): {0: 1}, (0, 1): {-1: 1}}, {0: 1}, None),
    ({(0, 0): {0: 1}}, {2: 1}, None),
    ({(0, 0): {0: 1}}, {0: 1}, [0]),
], ids=["row-past-the-basis", "graded-row-past-the-basis", "negative-key",
        "unit-key-past-the-basis", "degrees-too-short"])
def test_an_index_outside_the_basis_is_a_value_error(structure, unit, degrees):
    # a row past the basis was dropped without a word, or crashed verify
    # with an IndexError when degrees were given
    with pytest.raises(ValueError):
        FiniteDimAlgebra(QQ, ["e", "x"], structure, unit, degrees=degrees)


def test_dual_numbers_radical():
    a = poly_quotient_algebra(QQ, [Fraction(0), Fraction(0), Fraction(1)])
    info = a.radical()
    assert info.dimension == 1
    assert info.method == "trace-form"
    assert info.quotient.dim == 1
    (vec,) = info.vectors
    assert set(vec) == {1}


def test_matrix_algebra_semisimple():
    a = matrix_algebra_2x2(QQ)
    assert a.verify() == []
    assert not a.is_commutative()
    info = a.radical()
    assert info.dimension == 0
    assert info.quotient.dim == 4
    with pytest.raises(NotCommutative):
        decompose_commutative(a)


def test_char_p_fallback_routes():
    # F_3[x]/x^3 has an identically zero trace form
    a = poly_quotient_algebra(F3, [F3.of(0), F3.of(0), F3.of(0), F3.of(1)])
    info = a.radical()
    assert info.dimension == 2
    assert info.method == "frobenius"
    assert info.quotient.dim == 1
    # group algebra of C_2 over F_2: x^2 - 1 = (x-1)^2
    b = poly_quotient_algebra(F2, [F2.of(1), F2.of(0), F2.of(1)])
    info = b.radical()
    assert info.dimension == 1
    assert info.quotient.dim == 1


def test_minimal_polynomial_and_semisimple_part():
    a = poly_quotient_algebra(QQ, [Fraction(0), Fraction(0), Fraction(0), Fraction(1)])
    x = {1: Fraction(1)}
    m = minimal_polynomial(a, x)
    assert m == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]  # x^3
    unit_poly = minimal_polynomial(a, dict(a.unit))
    assert unit_poly == [Fraction(-1), Fraction(1)]  # x - 1


def test_decompose_split_idempotents():
    a = poly_quotient_algebra(QQ, [Fraction(0), Fraction(-1), Fraction(1)])  # x^2 - x
    factors = decompose_commutative(a)
    assert len(factors) == 2
    total = {}
    for f in factors:
        assert a.mul(f.idempotent, f.idempotent) == f.idempotent
        assert f.residue_dimension == 1
        assert f.residue_field_certified
        vec_axpy(total, QQ.one(), f.idempotent)
    assert total == a.unit
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            assert a.mul(factors[i].idempotent, factors[j].idempotent) == {}


def test_decompose_field_stays_whole():
    a = poly_quotient_algebra(QQ, [Fraction(-2), Fraction(0), Fraction(1)])  # x^2 - 2
    factors = decompose_commutative(a)
    assert len(factors) == 1
    assert factors[0].residue_dimension == 2
    assert factors[0].residue_field_certified
    assert factors[0].radical_dimension == 0


def test_decompose_three_points():
    x = sympy.Symbol("x")
    p = sympy.Poly(x * (x - 1) * (x - 2), x, domain=sympy.QQ)
    coeffs = [Fraction(c) for c in reversed(p.all_coeffs())]
    a = poly_quotient_algebra(QQ, coeffs)
    factors = decompose_commutative(a)
    assert [f.residue_dimension for f in factors] == [1, 1, 1]


def test_random_polynomial_quotients_match_sympy():
    rng = random.Random(20260814)
    x = sympy.Symbol("x")
    for trial in range(18):
        field, domain = (QQ, sympy.QQ) if trial % 2 == 0 else (F5, sympy.GF(5))
        degree = rng.randrange(2, 6)
        coeffs = [rng.randrange(-3, 4) for _ in range(degree)] + [1]
        poly = sympy.Poly(list(reversed(coeffs)), x, domain=domain)
        factors = poly.factor_list()[1]
        expected_factors = len(factors)
        expected_radical = sum((e - 1) * f.degree() for f, e in factors)
        a = poly_quotient_algebra(field, [field.of(c) for c in coeffs])
        assert a.verify() == []
        got = decompose_commutative(a)
        assert len(got) == expected_factors
        assert sum(f.radical_dimension for f in got) == expected_radical
        assert sum(f.algebra.dim for f in got) == degree
        assert a.radical().dimension == expected_radical


def test_factor_polynomial_normalizes_leading_unit():
    m = [F5.of(2), F5.of(0), F5.of(2)]  # 2x^2 + 2 = 2(x^2 + 1)
    factors = factor_polynomial(m, F5)
    degrees = sorted(len(f) - 1 for f, _ in factors)
    assert degrees == [1, 1]  # x^2 + 1 splits over F_5
    for f, _ in factors:
        assert f[-1] == F5.one()
