"""cohomology against a copy of the eager version it replaced.

cohomology used to run cohomology_of_complex to the end: the kernel of
every window degree's differential, the image RowSpaces and the
representatives, with d o d read off the count of representatives.  It now
runs only the ranks step at call time (images, d o d applied to the image
rows, dims off ranks) and builds the representatives the first time
representatives, class_coordinates or product is read.  The reference below
is the eager cohomology, cohomology_of_complex, class_coordinates and
product as they were, on the public matrices.

Per draw and per window, for both strict values, the two must agree on:

- the exception raised by the call itself: UnsafeWindow with its degrees
  and message, or DSquaredNonzero with its degree, witness and message;
- the dims, with key order;
- the representatives, term by term with repr and class of each scalar;
- class_coordinates of every representative, of a representative plus a
  coboundary and of a plain combination of words, with repr and class;
- product over every pair of representatives whose product lands in the
  window: its coordinates, None, or the same RuntimeError message.

The first read after the call is drawn from representatives,
class_coordinates and product, so every order in which the lazy state can
be built is covered.  Presentations are test_realize_oracle's (one to three
vertices over Q, F_5 and F_101, random differentials and relations, weights
up to 3, so the ledger often meets the window) and test_d_squared_oracle's
(one vertex over Q and F_5, differentials that chain, so d o d often fails).

Two plain tests count the kernels the engine takes (the _kernel_basis that
dgalgebra binds): callers that read only dims take no kernel,
BarComplex.cohomology_dims among them, and reading representatives does.
"""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_d_squared_oracle import presentations as chained_presentations
from test_realize_oracle import COEFFS, SETTINGS, presentations

from quiverdg import dgalgebra
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    UnsafeWindow,
    classify,
    cohomology,
    h0_algebra,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion, verify_koszul_pair
from quiverdg.koszul import bar, completeness_report
from quiverdg.linalg import (
    DSquaredNonzero,
    RowSpace,
    SparseMatrix,
    _kernel_basis,
    native_scalars,
)
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation

WINDOWS = ((-2, 0), (-1, 1), (0, 0), (0, 2), (1, 3))
FIRST_READS = ("representatives", "class_coordinates", "product")

# outcomes of the cohomology calls, for the record in the test's output
SEEN = Counter()


# ---------------------------------------------------------------------------
# the reference: eager cohomology as it was

def converted(m, convert):
    """A copy of a SparseMatrix with convert applied to each entry."""
    out = SparseMatrix(m.rows, m.cols)
    out.entries = {rc: convert(v) for rc, v in m.entries.items()}
    return out


def ref_native_kernel(matrix, field):
    """The kernel basis of a matrix of native scalars, as kernel_image took
    it natively: rows added in row order, kernel vectors in pivot order."""
    space = RowSpace(field)
    rows_by_index = {}
    for (r, c), v in matrix.entries.items():
        rows_by_index.setdefault(r, {})[c] = v
    for r in sorted(rows_by_index):
        space._add(rows_by_index[r])
    kernel = {j: {j: 1} for j in range(matrix.cols) if j not in space.pivot_index}
    neg = space._scalars.neg
    for pivot, row_no in space.pivot_index.items():
        for j, c in space._rows[row_no].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[pivot] = neg(c)
    return list(kernel.values())


def ref_cohomology_of_complex(dims, differentials, window, field, images):
    """cohomology_of_complex on native matrices, every kernel taken, d o d
    read off the count of representatives."""
    lo, hi = window
    scalars = native_scalars(field)
    result = {}
    for i in range(lo, hi + 1):
        n = dims.get(i, 0)
        image = RowSpace(field)
        images[i] = image
        if n == 0:
            image.freeze()
            result[i] = (0, [])
            continue
        d_i = differentials.get(i)
        if d_i is not None:
            kernel = ref_native_kernel(d_i, field)
        else:
            kernel = [{j: 1} for j in range(n)]
        d_prev = differentials.get(i - 1)
        if d_prev is not None:
            for col in d_prev.columns():
                image._add(col)
        image.freeze()
        reps = []
        chosen = RowSpace(field)
        for vec in kernel:
            residue = chosen._reduce(image._reduce(vec))
            if residue:
                reps.append(dict(residue))
                chosen._insert(residue)
        if len(kernel) - image.rank != len(reps):
            d_i, d_prev = converted(d_i, scalars.public), converted(d_prev, scalars.public)
            witness = next(j for j, col in enumerate(d_prev.columns()) if d_i.apply(col))
            raise DSquaredNonzero(i - 1, witness)
        result[i] = (len(reps), reps)
    return result


class RefCohomology:
    """cohomology, class_coordinates and product as they ran eagerly."""

    def __init__(self, t, safe_window, strict=False):
        lo, hi = safe_window
        check_lo, check_hi = (lo - 1, hi + 1) if strict else (lo, hi)
        touched = sorted({e.degree for e in t.differential_ledger
                          if check_lo <= e.degree <= check_hi})
        if touched:
            raise UnsafeWindow(touched, "differential overflow at degrees %s inside window "
                               "[%d, %d]" % (touched, lo, hi))
        scalars = native_scalars(t.field)
        matrices = {d: converted(t.matrix_between(d), scalars.native)
                    for d in range(lo - 1, hi + 1)}
        self.images = {}
        try:
            raw = ref_cohomology_of_complex(t.dims(), matrices, (lo, hi), t.field, self.images)
        except DSquaredNonzero as err:
            raise DSquaredNonzero(
                err.degree, str(t.basis_by_degree[err.degree][err.witness])) from None
        for i in t._ids_in(hi):
            col = t._columns[i]
            square = None if col is None else t._d(col)
            if square:
                raise DSquaredNonzero(hi, str(t._words[i]))
        self.t, self.window, self.scalars = t, (lo, hi), scalars
        self.dims, self.representatives, self.pivoted = {}, {}, {}
        for degree in range(lo, hi + 1):
            dim, reps = raw[degree]
            self.dims[degree] = dim
            words = t.basis_by_degree.get(degree, [])
            self.representatives[degree] = [
                PathAlgebraElement({words[i]: scalars.public(c) for i, c in vec.items()})
                for vec in reps]
            self.pivoted[degree] = sorted((min(vec), k, vec) for k, vec in enumerate(reps))

    def product(self, deg_left, i, deg_right, j):
        landing = deg_left + deg_right
        if not (self.window[0] <= landing <= self.window[1]):
            raise ValueError("landing degree %d outside window %s" % (landing, self.window))
        product = self.t.product(self.representatives[deg_left][i],
                                 self.representatives[deg_right][j])
        if product is None:
            return None
        coords = self.class_coordinates(landing, product)
        if coords is None:
            raise RuntimeError(
                "product of cocycles is not a cocycle within the truncation; "
                "the weight bound is too small to decide degree %d" % landing)
        return coords

    def class_coordinates(self, degree, element):
        scalars = self.scalars
        residue = self.images[degree]._reduce(
            scalars.native_vec(self.t._coordinates(element)))
        coords = {}
        for pivot, k, rep in self.pivoted[degree]:
            c = residue.get(pivot)
            if c is not None:
                c = scalars.quotient(c, rep[pivot])
                coords[k] = scalars.public(c)
                scalars.axpy(residue, -c, rep)
        return None if residue else coords


# ---------------------------------------------------------------------------
# helpers

def typed(vec):
    return None if vec is None else [(k, repr(c), type(c)) for k, c in vec.items()]


def typed_element(element):
    return [(str(p), repr(c), type(c)) for p, c in element.terms.items()]


def outcome(call):
    try:
        return call()
    except UnsafeWindow as err:
        return "UnsafeWindow", err.degrees, str(err)
    except DSquaredNonzero as err:
        return "DSquaredNonzero", err.degree, err.witness, str(err)
    except (RuntimeError, ValueError) as err:
        return type(err).__name__, str(err)


def typed_outcome(call):
    """outcome of a product: typed coordinates, None or the exception."""
    result = outcome(call)
    return typed(result) if isinstance(result, dict) else result


def elements_to_classify(t, result, degree, draw):
    """Each representative, the first plus a coboundary when one is in the
    truncation, and a plain combination of the degree's words."""
    field = t.field
    elements = list(result.representatives[degree])
    below = [w for w in t.words(degree - 1) if t.d_of(w)]
    if elements and below:
        boundary = t.d_element(PathAlgebraElement({draw(st.sampled_from(below)): field.one()}))
        terms = dict(elements[0].terms)
        for w, c in boundary.terms.items():
            terms[w] = terms.get(w, field.of(0)) + c
        elements.append(PathAlgebraElement(terms))
    words = t.words(degree)
    if words:
        chosen = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
        elements.append(PathAlgebraElement(
            {w: field.of(draw(st.sampled_from(COEFFS))) for w in chosen}))
    return elements


def assert_reads_agree(t, got, want, window, draw):
    lo, hi = window
    first = draw(st.sampled_from(FIRST_READS))
    pairs = [(a, i, b, j) for a in range(lo, hi + 1) for b in range(lo, hi + 1)
             if lo <= a + b <= hi
             for i in range(want.dims[a]) for j in range(want.dims[b])]
    if first == "product" and pairs:
        assert typed_outcome(lambda: got.product(*pairs[0])) == typed_outcome(
            lambda: want.product(*pairs[0]))
    if first == "class_coordinates":
        element = PathAlgebraElement({w: t.field.one() for w in t.words(lo)[:2]})
        assert typed(got.class_coordinates(lo, element)) == typed(
            want.class_coordinates(lo, element))
    for degree in range(lo, hi + 1):
        assert [typed_element(r) for r in got.representatives[degree]] == \
            [typed_element(r) for r in want.representatives[degree]]
        for element in elements_to_classify(t, want, degree, draw):
            assert typed(got.class_coordinates(degree, element)) == typed(
                want.class_coordinates(degree, element))
    for pair in pairs:
        expected = typed_outcome(lambda: want.product(*pair))
        SEEN["product " + ("None" if expected is None else
                           expected[0] if isinstance(expected, tuple) else "coords")] += 1
        assert typed_outcome(lambda: got.product(*pair)) == expected, pair


# ---------------------------------------------------------------------------
# the properties

@SETTINGS
@given(st.one_of(presentations(), chained_presentations()), st.data())
def test_lazy_cohomology_matches_the_eager_reference(case, data):
    p, bound = case
    try:
        t = realize(p, (0, 0), bound)
    except InconsistentPresentation:
        SEEN["InconsistentPresentation"] += 1
        return
    for window in WINDOWS:
        for strict in (False, True):
            want = outcome(lambda: RefCohomology(t, window, strict))
            got = outcome(lambda: cohomology(t, window, strict))
            if isinstance(want, tuple):
                SEEN[want[0]] += 1
                assert got == want, (window, strict)
                continue
            SEEN["result"] += 1
            assert list(got.dims.items()) == list(want.dims.items())
            assert got.window == want.window
            assert_reads_agree(t, got, want, window, data.draw)


def test_the_draws_reach_every_outcome():
    if not SEEN["result"]:
        test_lazy_cohomology_matches_the_eager_reference()
    print(dict(SEEN))
    assert SEEN["result"] and SEEN["UnsafeWindow"] and SEEN["DSquaredNonzero"]


# ---------------------------------------------------------------------------
# who takes a kernel

@pytest.fixture
def kernel_calls(monkeypatch):
    calls = []

    def counted(n, columns, field):
        calls.append(n)
        return _kernel_basis(n, columns, field)
    monkeypatch.setattr(dgalgebra, "_kernel_basis", counted)
    return calls


def three_cycle():
    return QuiverPresentation(("1", "2", "3"), (Arrow("x", "1", "2"), Arrow("y", "2", "3"),
                                                Arrow("z", "3", "1")))


def square_zero(degree):
    q = QuiverPresentation(("v",), (Arrow("eps", "v", "v", degree),))
    return DgAlgebraPresentation(("v",), q.arrows,
                                 relations=(PathAlgebraElement.from_path(q.path(["eps", "eps"])),))


def test_callers_that_read_dims_take_no_kernel(kernel_calls):
    assert verify_koszul_pair(three_cycle(), 2, 6, (-6, 0)).all_match
    for degree in (0, -1):
        report = completeness_report(realize(square_zero(degree), (0, 6), 10), 10, (0, 6))
        assert report.kind == "CompleteWithinWindow"
    t = realize(cy_completion(three_cycle(), 3, field=GroundField(101)), (-6, 0), 6)
    result = cohomology(t, (-6, 0))
    assert result.dims == {-6: 3, -5: 6, -4: 9, -3: 12, -2: 15, -1: 18, 0: 21}
    assert classify(t)["connective"]["value"]
    b = bar(realize(square_zero(0), (0, 0), 2), 3, (-3, 0))
    assert b.cohomology_dims((-3, 0)) == {-3: 1, -2: 1, -1: 1, 0: 1}
    assert kernel_calls == []
    # the representatives take the kernel of each degree's differential,
    # once, on first read
    assert [len(reps) for reps in result.representatives.values()] == list(result.dims.values())
    assert len(kernel_calls) == 7
    result.class_coordinates(0, result.representatives[0][0])
    assert len(kernel_calls) == 7


def test_h0_algebra_takes_one_kernel_when_it_realizes_again(kernel_calls):
    # k[eps]/eps^2 has a relation, so H^0 at L + 1 comes from a second
    # realization; only the representatives at L take a kernel
    h0 = h0_algebra(realize(square_zero(0), (0, 0), 4))
    assert h0.algebra.dim == 2 and h0.dims_checked == (2, 2)
    assert len(kernel_calls) == 1
