"""The eliminations in linalg against a copy that runs on public scalars.

The reference below is RowSpace, SpanSolver, kernel_image and
cohomology_of_complex as they were when every scalar was a Fraction or an
FpElement.  linalg now eliminates on native scalars (ints, and Fractions
only for non-integral rationals) and converts at the boundary, by running
the same operations in the same order.  So every value and every dict key
order must agree with the reference, and every scalar handed out must be a
Fraction over Q and an FpElement over F_p: a bare int would print the same
through format_scalar, so only a type check catches it.

Random inputs: sparse matrices and two-step complexes over Q, F_5 and
F_101, with entries in -6..6 and a few fractions, so that pivots are often
not units and Fraction intermediates arise over Q.  RowSpace alone also
takes up to 24 generators on ten columns, with entries in -3..3, and is
compared after every add: there rows gain columns by back-substitution
that later pivots must clear, which is what its column -> rows index has
to follow.

A second group of properties compares integer matrices and complexes over
Q and over F_p: reduction mod p can only lower a rank, so kernels and
cohomology can only grow.  tests/test_mod_p_dims.py does the same for
whole presentations.

The d o d check of cohomology_of_complex is compared with a dense product:
for integer pairs (d0, d1) with no condition on d1 * d0, it must raise
DSquaredNonzero(0, j) exactly when d1 * d0 is nonzero over the field, with
j its first nonzero column, and match the reference otherwise.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.fields import FpElement, GroundField
from quiverdg.linalg import (
    DSquaredNonzero,
    RowSpace,
    SparseMatrix,
    SpanSolver,
    cohomology_of_complex,
    kernel_image,
)
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, reduce_modulo_relations

QQ = GroundField(0)
FIELDS = (QQ, GroundField(5), GroundField(101))
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# reference: the elimination on Fraction / FpElement scalars

def ref_vec_axpy(out, coeff, vec):
    for j, v in vec.items():
        s = out.get(j)
        s = coeff * v if s is None else s + coeff * v
        if s:
            out[j] = s
        else:
            out.pop(j, None)


class RefRowSpace:
    def __init__(self):
        self.rows = []
        self.pivot_index = {}

    def reduce(self, vec):
        out = dict(vec)
        while True:
            hit = None
            for i in out:
                row_no = self.pivot_index.get(i)
                if row_no is not None and (hit is None or i < hit[0]):
                    hit = (i, row_no)
            if hit is None:
                return out
            i, row_no = hit
            ref_vec_axpy(out, -out[i], self.rows[row_no])

    def add(self, vec):
        residue = self.reduce(vec)
        if not residue:
            return None
        pivot = min(residue)
        lead = residue[pivot]
        normalized = {j: v / lead for j, v in residue.items()}
        for row in self.rows:
            c = row.get(pivot)
            if c is not None:
                ref_vec_axpy(row, -c, normalized)
        self.rows.append(normalized)
        self.pivot_index[pivot] = len(self.rows) - 1
        return pivot


class RefSpanSolver:
    def __init__(self):
        self._space = RefRowSpace()
        self._count = 0

    def add(self, vec):
        index = self._count
        self._count += 1
        space = self._space
        residue = space.reduce({(0, j): v for j, v in vec.items()})
        residue[(1, index)] = 1
        pivot = min(residue)
        if pivot[0] == 0:
            lead = residue[pivot]
            space.rows.append({k: v / lead for k, v in residue.items()})
            space.pivot_index[pivot] = len(space.rows) - 1
        return index

    def express(self, target):
        residue = self._space.reduce({(0, j): v for j, v in target.items()})
        if any(kind == 0 for kind, _ in residue):
            return None
        return {k: -v for (_, k), v in residue.items()}


def ref_kernel_image(matrix, field):
    space = RefRowSpace()
    rows_by_index = {}
    for (r, c), v in matrix.entries.items():
        rows_by_index.setdefault(r, {})[c] = v
    for r in sorted(rows_by_index):
        space.add(rows_by_index[r])
    one = field.one()
    kernel = {j: {j: one} for j in range(matrix.cols) if j not in space.pivot_index}
    for pivot, row_no in space.pivot_index.items():
        for j, c in space.rows[row_no].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[pivot] = -c
    return list(kernel.values()), len(space.pivot_index)


def ref_cohomology_of_complex(dims, differentials, window, field):
    """(result, images) as cohomology_of_complex fills them."""
    lo, hi = window
    one = field.one()
    result, images = {}, {}
    for i in range(lo, hi + 1):
        n = dims.get(i, 0)
        image = images[i] = RefRowSpace()
        if n == 0:
            result[i] = (0, [])
            continue
        d_i = differentials.get(i)
        if d_i is not None:
            kernel, _ = ref_kernel_image(d_i, field)
        else:
            kernel = [{j: one} for j in range(n)]
        d_prev = differentials.get(i - 1)
        if d_prev is not None:
            for col in d_prev.columns():
                if col:
                    image.add(col)
        reps = []
        chosen = RefRowSpace()
        for vec in kernel:
            residue = chosen.reduce(image.reduce(vec))
            if residue:
                chosen.add(residue)
                reps.append(residue)
        result[i] = (len(reps), reps)
    return result, images


# ---------------------------------------------------------------------------
# helpers and strategies

def exact(vec, field):
    """vec as an ordered item list, after checking every scalar's type."""
    for v in vec.values():
        if field.characteristic:
            assert type(v) is FpElement and v.p == field.characteristic, repr(v)
        else:
            assert type(v) is Fraction, repr(v)
    return list(vec.items())


def exact_all(vectors, field):
    return [exact(vec, field) for vec in vectors]


ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), Fraction(5, 7)]))


@st.composite
def entry_lists(draw, rows, cols, entries=ENTRIES):
    """{(r, c): value} in a drawn insertion order; values may be zero."""
    if not rows or not cols:
        return {}
    cells = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                    entries), max_size=rows * cols))
    return {(r, c): v for r, c, v in cells}


def to_matrix(field, rows, cols, cells):
    m = SparseMatrix(rows, cols)
    for (r, c), v in cells.items():
        m.set(r, c, field.of(v))
    return m


@st.composite
def matrices(draw, entries=ENTRIES):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return rows, cols, draw(entry_lists(rows, cols, entries))


@st.composite
def vectors(draw, entries=ENTRIES, size=7):
    cells = draw(st.lists(st.tuples(st.integers(0, size - 1), entries), max_size=size))
    return {j: v for j, v in cells}


def field_vector(field, vec):
    return {j: field.of(v) for j, v in vec.items() if field.of(v)}


def product(a, b):
    """Matrix product of dense integer/rational lists."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


@st.composite
def integer_complexes(draw):
    """Integer matrices d0 (n1 x n0) and d1 (n2 x n1) with d1 * d0 = 0 over Z.

    d0 = U * B and d1 = R * W, where the rows of W are integer vectors
    killing the columns of U."""
    n0, n1, n2, k = (draw(st.integers(1, 5)) for _ in range(4))
    small = st.integers(-3, 3)
    u = [[draw(small) for _ in range(k)] for _ in range(n1)]
    b = [[draw(small) for _ in range(n0)] for _ in range(k)]
    u_t = to_matrix(QQ, k, n1, {(c, r): u[r][c] for r in range(n1) for c in range(k)})
    killers, _ = ref_kernel_image(u_t, QQ)
    w = []
    for vec in killers:
        scale = lcm(*(v.denominator for v in vec.values()))
        w.append([int(vec.get(j, 0) * scale) for j in range(n1)])
    if not w:
        w = [[0] * n1]
    r = [[draw(small) for _ in range(len(w))] for _ in range(n2)]
    return product(u, b), product(r, w)


@st.composite
def integer_pairs(draw):
    """Integer matrices d0 (n1 x n0) and d1 (n2 x n1), mostly zeros and
    small entries, with no condition on d1 * d0."""
    n0, n1, n2 = (draw(st.integers(1, 4)) for _ in range(3))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 5))
    d0 = [[draw(entries) for _ in range(n0)] for _ in range(n1)]
    d1 = [[draw(entries) for _ in range(n1)] for _ in range(n2)]
    return d0, d1


def dense_matrix(field, rows):
    cells = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row) if v}
    return to_matrix(field, len(rows), len(rows[0]) if rows else 0, cells)


def assert_cohomology_matches_the_reference(dims, differentials, field):
    images = {}
    got = cohomology_of_complex(dims, differentials, (-1, 3), field, images=images)
    want, ref_images = ref_cohomology_of_complex(dims, differentials, (-1, 3), field)
    assert list(got) == list(want)
    for degree, (dim, reps) in got.items():
        assert dim == want[degree][0]
        assert exact_all(reps, field) == exact_all(want[degree][1], field)
    assert list(images) == list(ref_images)
    for degree, image in images.items():
        ref = ref_images[degree]
        assert list(image.pivot_index.items()) == list(ref.pivot_index.items())
        assert [exact(image.row(n), field) for n in range(image.rank)] == \
            exact_all(ref.rows, field)


# ---------------------------------------------------------------------------
# native elimination == reference, with public types at the boundary

@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(case=matrices())
def test_kernel_image_and_image_basis_match_the_reference(field, case):
    m = to_matrix(field, *case)
    kernel, rank = kernel_image(m, field)
    ref_kernel, ref_rank = ref_kernel_image(m, field)
    assert rank == ref_rank
    assert exact_all(kernel, field) == exact_all(ref_kernel, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(gens=st.lists(vectors(), max_size=6), targets=st.lists(vectors(), max_size=4),
       mixes=st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=3))
def test_row_space_and_span_solver_match_the_reference(field, gens, targets, mixes):
    gens = [field_vector(field, g) for g in gens]
    combos = []
    for mix in mixes:
        combo = {}
        for c, g in zip(mix, gens):
            for j, v in g.items():
                combo[j] = combo.get(j, field.zero()) + field.of(c) * v
        combos.append({j: v for j, v in combo.items() if v})
    targets = [field_vector(field, t) for t in targets] + combos

    space, ref = RowSpace(field), RefRowSpace()
    for g in gens:
        assert space.add(g) == ref.add(g)
        assert exact(space.reduce(g), field) == exact(ref.reduce(g), field) == []
    assert space.rank == len(ref.rows)
    assert list(space.pivot_index.items()) == list(ref.pivot_index.items())
    assert [exact(space.row(n), field) for n in range(space.rank)] == \
        exact_all(ref.rows, field)
    for t in targets:
        assert exact(space.reduce(t), field) == exact(ref.reduce(t), field)
        assert space.contains(t) == (not ref.reduce(t))

    solver, ref_solver = SpanSolver(field), RefSpanSolver()
    for g in gens:
        assert solver.add(g) == ref_solver.add(g)
    for t in targets:
        got, want = solver.express(t), ref_solver.express(t)
        assert (got is None) == (want is None)
        if got is not None:
            assert exact(got, field) == exact(want, field)


NARROW = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(gens=st.lists(vectors(NARROW, size=10), max_size=24))
def test_back_substitution_follows_fill_in(field, gens):
    # Many generators on ten columns: rows gain columns by back-substitution
    # that later pivots must clear, and columns cancel out of rows before
    # they become pivots, so a row's columns drift from those it was
    # stored with.
    space, ref = RowSpace(field), RefRowSpace()
    for g in gens:
        g = field_vector(field, g)
        assert space.add(g) == ref.add(g)
        assert list(space.pivot_index.items()) == list(ref.pivot_index.items())
        assert [exact(space.row(n), field) for n in range(space.rank)] == \
            exact_all(ref.rows, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(data=st.data())
def test_cohomology_of_complex_matches_the_reference(field, data):
    d0, d1 = data.draw(integer_complexes())
    # scale d1 by a fraction over Q, so the rows to reduce are not integral
    scale = data.draw(st.sampled_from([1, -2, Fraction(1, 3), Fraction(-4, 7)]))
    n0, n1, n2 = len(d0[0]), len(d0), len(d1)
    dims = {0: n0, 1: n1, 2: n2}
    differentials = {0: dense_matrix(field, d0),
                     1: dense_matrix(field, [[scale * v for v in row] for row in d1])}
    assert_cohomology_matches_the_reference(dims, differentials, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@SETTINGS
@given(case=st.one_of(integer_pairs(), integer_complexes()))
def test_d_squared_check_matches_the_dense_product(field, case):
    d0, d1 = case
    dims = {0: len(d0[0]), 1: len(d0), 2: len(d1)}
    differentials = {0: dense_matrix(field, d0), 1: dense_matrix(field, d1)}
    square = product(d1, d0)
    broken = [j for j in range(dims[0]) if any(field.of(row[j]) for row in square)]
    if not broken:
        assert_cohomology_matches_the_reference(dims, differentials, field)
        return
    with pytest.raises(DSquaredNonzero) as err:
        cohomology_of_complex(dims, differentials, (-1, 3), field)
    assert (err.value.degree, err.value.witness) == (0, broken[0])


def test_quotient_basis_reduce_hands_out_field_scalars():
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    x, y = q.path(["x"]), q.path(["y"])
    for field in FIELDS:
        relations = [PathAlgebraElement({q.path(["x", "y"]): 3, q.path(["y", "x"]): -2}),
                     PathAlgebraElement({q.path(["x", "x"]): Fraction(1, 2),
                                         q.path(["y", "y"]): 4})]
        qb = reduce_modulo_relations(q, relations, 4, field=field)
        for path in (x, y, q.path(["y", "x", "y"]), q.path(["x", "x", "y", "y"])):
            reduced = qb.reduce(PathAlgebraElement({path: 3}))
            exact(reduced.terms, field)
            assert qb.reduce(reduced) == reduced


# ---------------------------------------------------------------------------
# integer data: rank over F_p <= rank over Q

@pytest.mark.parametrize("p", [5, 101])
@SETTINGS
@given(case=matrices(entries=st.integers(-6, 6)))
def test_kernels_grow_mod_p(p, case):
    fp = GroundField(p)
    kernel_q, rank_q = kernel_image(to_matrix(QQ, *case), QQ)
    kernel_p, rank_p = kernel_image(to_matrix(fp, *case), fp)
    assert rank_p <= rank_q
    assert len(kernel_p) >= len(kernel_q)


@pytest.mark.parametrize("p", [5, 101])
@SETTINGS
@given(case=integer_complexes())
def test_cohomology_grows_mod_p(p, case):
    d0, d1 = case
    dims = {0: len(d0[0]), 1: len(d0), 2: len(d1)}
    fp = GroundField(p)
    over_q = cohomology_of_complex(
        dims, {0: dense_matrix(QQ, d0), 1: dense_matrix(QQ, d1)}, (0, 2), QQ)
    over_p = cohomology_of_complex(
        dims, {0: dense_matrix(fp, d0), 1: dense_matrix(fp, d1)}, (0, 2), fp)
    for degree in (0, 1, 2):
        assert over_p[degree][0] >= over_q[degree][0]
    euler = sum((-1) ** d * n for d, n in dims.items())
    assert sum((-1) ** d * over_p[d][0] for d in dims) == euler
    assert sum((-1) ** d * over_q[d][0] for d in dims) == euler
