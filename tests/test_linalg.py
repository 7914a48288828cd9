import random
from fractions import Fraction

import pytest

from quiverdg.fields import GroundField, FpElement, parse_scalar, format_scalar
from quiverdg.linalg import (
    DSquaredNonzero,
    GradedVectorSpace,
    RowSpace,
    SparseMatrix,
    SpanSolver,
    cohomology_of_complex,
    image_basis,
    kernel_image,
)

QQ = GroundField(0)
F5 = GroundField(5)


def _matrix(field, rows):
    m = SparseMatrix(len(rows), len(rows[0]) if rows else 0)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            m.set(r, c, field.of(v))
    return m


def test_scalar_round_trip():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert format_scalar(Fraction(3, 4)) == "3/4"
    assert format_scalar(Fraction(-2)) == "-2"
    assert format_scalar(F5.of(7)) == "2"


def test_fp_arithmetic():
    a = F5.of(3)
    b = F5.of(4)
    assert a + b == F5.of(2)
    assert a * b == F5.of(2)
    assert a / b == a * F5.of(4)  # 4^{-1} = 4 mod 5
    assert -a == F5.of(2)
    assert bool(F5.of(5)) is False
    with pytest.raises(ZeroDivisionError):
        a / F5.of(0)
    with pytest.raises(ValueError):
        GroundField(6)


def test_kernel_of_row_vector():
    # kernel of the 1x2 matrix [1 1] is spanned by (1, -1)
    m = _matrix(QQ, [[1, 1]])
    kernel, rank = kernel_image(m, QQ)
    assert rank == 1
    assert len(kernel) == 1
    (vec,) = kernel
    assert vec == {0: Fraction(-1), 1: Fraction(1)} or vec == {0: Fraction(1), 1: Fraction(-1)}
    image = m.apply(vec)
    assert image == {}


def test_rank_nullity_random_sweep():
    rng = random.Random(20260814)
    for field in (QQ, F5):
        for _ in range(30):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = SparseMatrix(rows, cols)
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.6:
                        m.set(r, c, field.of(rng.randrange(-4, 5)))
            kernel, rank = kernel_image(m, field)
            assert rank + len(kernel) == cols
            assert rank == len(image_basis(m, field))
            for vec in kernel:
                assert m.apply(vec) == {}


def test_compose_shapes_and_values():
    a = _matrix(QQ, [[1, 2], [0, 1]])
    b = _matrix(QQ, [[1, 0], [3, 1]])
    ab = a.compose(b)
    assert ab.get(0, 0) == Fraction(7)
    assert ab.get(0, 1) == Fraction(2)
    assert ab.get(1, 0) == Fraction(3)
    assert ab.get(1, 1) == Fraction(1)
    with pytest.raises(ValueError):
        a.compose(_matrix(QQ, [[1, 2, 3]]))


def test_row_space_membership():
    space = RowSpace()
    one = QQ.one()
    space.add({0: one, 1: one})
    space.add({1: one, 2: one})
    assert space.rank == 2
    assert space.contains({0: one, 2: -one})
    assert not space.contains({0: one})


def test_span_solver_coefficients():
    solver = SpanSolver()
    one = QQ.one()
    solver.add({0: one, 1: one})
    solver.add({1: one})
    expr = solver.express({0: QQ.of(2), 1: QQ.of(5)})
    assert expr == {0: Fraction(2), 1: Fraction(3)}
    assert solver.express({2: one}) is None


def test_two_term_complex_with_zero_differential():
    dims = {0: 1, 1: 1}
    h = cohomology_of_complex(dims, {}, (0, 1), QQ)
    assert h[0][0] == 1
    assert h[1][0] == 1


def test_cohomology_of_short_exact_segment():
    # 0 -> k --id--> k -> 0 placed in degrees 0, 1: acyclic
    d0 = _matrix(QQ, [[1]])
    h = cohomology_of_complex({0: 1, 1: 1}, {0: d0}, (-1, 2), QQ)
    assert all(h[i][0] == 0 for i in h)


def test_d_squared_detection():
    d0 = _matrix(QQ, [[1]])
    d1 = _matrix(QQ, [[1]])
    with pytest.raises(DSquaredNonzero) as err:
        cohomology_of_complex({0: 1, 1: 1, 2: 1}, {0: d0, 1: d1}, (0, 2), QQ)
    assert err.value.degree == 0


def test_representatives_span_kernel_mod_image():
    # d_{-1}: k -> k^2 sends the generator to (1, 1); d_0 = 0.
    d_prev = _matrix(QQ, [[1], [1]])
    h = cohomology_of_complex({-1: 1, 0: 2}, {-1: d_prev}, (0, 0), QQ)
    dim, reps = h[0]
    assert dim == 1
    assert len(reps) == 1


def test_graded_vector_space_shift():
    v = GradedVectorSpace({2: ["a"], 0: ["b", "c"]})
    assert v.dims() == {0: 2, 2: 1}
    # an element of degree i shows up in degree i-1 after one shift
    assert v.shift(1).dims() == {-1: 2, 1: 1}
    assert v.total_dim() == 3


def test_cohomology_over_prime_field():
    # multiplication by 5 on F_5 is the zero map
    d0 = SparseMatrix(1, 1)
    d0.set(0, 0, F5.of(5))
    h = cohomology_of_complex({0: 1, 1: 1}, {0: d0}, (0, 1), F5)
    assert h[0][0] == 1
    assert h[1][0] == 1
