"""Native scalars against copies of the boxed code they replaced.

Truncations, bar complexes and FiniteDimAlgebra.mul keep their internals on
native scalars: over Q an int, or a Fraction only when the value is not
integral; over F_p an int in range(p).  The references below are the code
as it ran on Fraction and FpElement values: the column and product-memo
construction with _add_scaled (whose unit products held the field's one
object), vec_axpy, verify_differential, cohomology, class_coordinates and
h0_algebra, the bar complex's letter table, columns and d o d check, and
FiniteDimAlgebra.mul.  They share with the code under test only what this
change left alone: the word ids, the quotient basis, the bar word walk and
the eliminations fed with field scalars.  The gated cohomology on public
matrices that both cohomology references run is test_bar_oracle's
ref_gated_cohomology.

Per draw, over Q, F_5 and F_101, these must agree item for item, so key
order counts, with their scalar types (repr and class):

- d_of of every word, d_element, word_product and product on word pairs
  and combinations, and matrix_between of every degree;
- the DifferentialReport counts and failures, also once a column is
  doubled;
- cohomology dims and representatives, class_coordinates of each
  representative and of combinations with a coboundary, or the same
  UnsafeWindow or DSquaredNonzero;
- h0_algebra's basis, structure, unit, representatives and dims, or the
  same exception;
- the bar complex's d_of and matrix_between on every degree and
  cohomology_dims on a few windows, or the same DSquaredNonzero;
- mul on random structure constants, non-integral ones included, with
  operands that cancel;
- decompose_commutative on k[x]/(m) for random m, with mul patched back
  to the boxed copy for the reference.

The internals themselves must hold native scalars only: the columns, the
product memo, the bar columns and the native structure table.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_bar_oracle import presentations as bar_presentations
from test_bar_oracle import ref_gated_cohomology, word_bound_for
from test_realize_oracle import SETTINGS, is_native, presentations

from quiverdg.algebras import (
    FiniteDimAlgebra,
    RadicalComputationError,
    decompose_commutative,
)
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    H0Result,
    InconsistentPresentation,
    NotStabilized,
    UnsafeWindow,
    cohomology,
    h0_algebra,
    realize,
    verify_differential,
)
from quiverdg.fields import GroundField
from quiverdg.koszul import _WordTrie, bar
from quiverdg.linalg import (
    DSquaredNonzero,
    RowSpace,
    SparseMatrix,
    _kernel_basis,
    native_scalars,
    vec_add_term,
)
from quiverdg.quiver import Arrow, Path, PathAlgebraElement, QuiverPresentation

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4))
_UNSET = object()


def ref_vec_axpy(out, coeff, vec):
    for j, v in vec.items():
        s = out.get(j)
        s = coeff * v if s is None else s + coeff * v
        if s:
            out[j] = s
        else:
            out.pop(j, None)


def ref_add_scaled(out, coeff, vec, one):
    for k, v in vec.items():
        term = v if coeff is one else coeff if v is one else coeff * v
        s = out.get(k)
        s = term if s is None else s + term
        if s:
            out[k] = s
        else:
            out.pop(k, None)


class Boxed:
    """A truncation's columns, product memo and views as they were built on
    field scalars; everything else is read off the truncation t."""

    def __init__(self, t):
        self.t = t
        self.field = t.field
        self.one = t.field.one()
        p = t.presentation
        ids = t._by_labels
        self.columns = []
        for i, word in enumerate(t._words):
            free = {term: p.field.of(c) for term, c in p._leibniz_into({}, word.labels).items()}
            col = {}
            for term, c in free.items():
                k = ids.get(term)
                if k is None:
                    break
                col[k] = c
            else:
                self.columns.append(col)
                continue
            if any(sum(p.weights[name] for name in term) > t.weight_bound
                   for term in free if term not in ids):
                self.columns.append(None)
                continue
            element = PathAlgebraElement(
                {Path(term, word.source, word.target): c for term, c in free.items()})
            self.columns.append(self._ids_of(t.qb.reduce(element).terms))
        self.products = [None] * len(t._words)
        self.units = {}

    def _ids_of(self, terms):
        return {self.t._id[path]: c for path, c in terms.items()}

    def _paths_of(self, vec):
        return {self.t._words[i]: c for i, c in vec.items()}

    def _d(self, vec):
        total = {}
        for i, coeff in vec.items():
            col = self.columns[i]
            if col is None:
                return None
            ref_add_scaled(total, coeff, col, self.one)
        return total

    def d_of(self, word):
        col = self.columns[self.t._id[word]]
        return None if col is None else self._paths_of(col)

    def d_element(self, element):
        total = self._d({self.t._id[w]: self.field.of(c) for w, c in element.terms.items()})
        return None if total is None else PathAlgebraElement(self._paths_of(total))

    def product(self, left, right):
        right_ids = [(self.t._id[q], cq) for q, cq in right.terms.items()]
        total = {}
        for p, cp in left.terms.items():
            i = self.t._id[p]
            for j, cq in right_ids:
                pq = self._product(i, j)
                if pq is None:
                    return None
                ref_vec_axpy(total, cp * cq, pq)
        return PathAlgebraElement(self._paths_of(total))

    def word_product(self, p, q):
        pq = self._product(self.t._id[p], self.t._id[q])
        return None if pq is None else self._paths_of(pq)

    def _product(self, i, j):
        row = self.products[i]
        if row is None:
            row = self.products[i] = {}
        pq = row.get(j, _UNSET)
        if pq is _UNSET:
            pq = row[j] = self._multiply(i, j)
        return pq

    def _multiply(self, i, j):
        t, one = self.t, self.one
        p, q = t._words[i], t._words[j]
        if p.target != q.source:
            return {}
        if t._weight[i] + t._weight[j] <= t.weight_bound:
            if not q.labels:
                k = i
            elif not p.labels:
                k = j
            else:
                k = t._by_labels.get(p.labels + q.labels)
            if k is None:
                word = Path(p.labels + q.labels, p.source, q.target)
                return self._ids_of(t.qb.reduce(PathAlgebraElement.from_path(word, one)).terms)
            unit = self.units.get(k)
            if unit is None:
                unit = self.units[k] = {k: one}
            return unit
        if not t.certified_finite_dimensional:
            return None
        quiver = t.presentation.quiver
        acc = t.qb.reduce(PathAlgebraElement.from_path(p, one))
        for label in q.labels:
            acc = t.qb.reduce(acc * PathAlgebraElement.from_path(quiver.path([label])))
        return self._ids_of(acc.terms)

    def matrix_between(self, degree):
        source, target = self.t._ids_in(degree), self.t._ids_in(degree + 1)
        m = SparseMatrix(len(target), len(source))
        for j, i in enumerate(source):
            col = self.columns[i]
            if col is None:
                continue
            for k, c in col.items():
                m.set(k - target.start, j, c)
        return m


def ref_verify_differential(b):
    """(checked words, skipped words, checked pairs, skipped pairs, failures)."""
    t = b.t
    checked_words = skipped_words = checked_pairs = skipped_pairs = 0
    failures = []
    words, columns, weight, degree = t._words, b.columns, t._weight, t._degree
    for i, col in enumerate(columns):
        dd = None if col is None else b._d(col)
        if dd is None:
            skipped_words += 1
            continue
        checked_words += 1
        if dd:
            failures.append(
                ("d_squared", str(words[i]), repr(PathAlgebraElement(b._paths_of(dd)))))
    by_source = {}
    for i, w in enumerate(words):
        by_source.setdefault(w.source, {}).setdefault(degree[i], []).append(i)
    runs_at = {v: list(runs.values()) for v, runs in by_source.items()}
    one = b.one
    signs = (one, t.field.of(-1))
    for i, p in enumerate(words):
        dp = columns[i]
        room = t.weight_bound - weight[i]
        sign = signs[degree[i] % 2]
        for run in runs_at.get(p.target, ()):
            for j in run:
                if weight[j] > room:
                    break
                dq = columns[j]
                if dp is None or dq is None:
                    skipped_pairs += 1
                    continue
                lhs = b._d(b._product(i, j))
                rhs = None if lhs is None else ref_leibniz_rhs(b, i, j, dp, dq, sign)
                if rhs is None:
                    skipped_pairs += 1
                    continue
                checked_pairs += 1
                if lhs != rhs:
                    failures.append(("leibniz", str(p), str(words[j])))
    return checked_words, skipped_words, checked_pairs, skipped_pairs, failures


def ref_leibniz_rhs(b, i, j, dp, dq, sign):
    one = b.one
    rhs = {}
    for u, cu in dp.items():
        piece = b._product(u, j)
        if piece is None:
            return None
        ref_add_scaled(rhs, cu, piece, one)
    for v, cv in dq.items():
        piece = b._product(i, v)
        if piece is None:
            return None
        ref_add_scaled(rhs, cv if sign is one else sign * cv, piece, one)
    return rhs


class RefCohomology:
    """cohomology and class_coordinates as they ran on field scalars."""

    def __init__(self, b, safe_window):
        t = b.t
        self.b = b
        self.images = {}
        try:
            raw = ref_gated_cohomology(b, t.dims(), {e.degree for e in t.differential_ledger},
                                       safe_window, False, "differential", self.images)
        except DSquaredNonzero as err:
            raise DSquaredNonzero(
                err.degree, str(t.basis_by_degree[err.degree][err.witness])) from None
        lo, hi = safe_window
        for i in t._ids_in(hi):
            col = b.columns[i]
            square = None if col is None else b._d(col)
            if square:
                raise DSquaredNonzero(hi, str(t._words[i]))
        self.dims, self.representatives, self.pivoted = {}, {}, {}
        for degree in range(lo, hi + 1):
            dim, reps = raw[degree]
            self.dims[degree] = dim
            words = t.basis_by_degree.get(degree, [])
            self.representatives[degree] = [
                PathAlgebraElement({words[i]: c for i, c in vec.items()}) for vec in reps]
            self.pivoted[degree] = sorted((min(vec), k, vec) for k, vec in enumerate(reps))

    def class_coordinates(self, degree, element):
        residue = self.images[degree].reduce(self.b.t._coordinates(element))
        coords = {}
        for pivot, k, rep in self.pivoted[degree]:
            c = residue.get(pivot)
            if c is not None:
                coords[k] = c = c / rep[pivot]
                ref_vec_axpy(residue, -c, rep)
        return None if residue else coords


def ref_h0_algebra(b):
    t = b.t
    coh = RefCohomology(b, (0, 0))
    again = Boxed(realize(t.presentation, t.window, t.weight_bound + 1))
    next_dim = RefCohomology(again, (0, 0)).dims[0]
    if coh.dims[0] != next_dim:
        raise NotStabilized(
            "H^0 dimension moved from %d to %d between weight bounds %d and %d"
            % (coh.dims[0], next_dim, t.weight_bound, t.weight_bound + 1))
    reps = coh.representatives[0]

    def coordinates(element):
        if element is None:
            raise NotStabilized(
                "representative product escapes weight bound %d; raise it" % t.weight_bound)
        coords = coh.class_coordinates(0, element)
        if coords is None:
            raise NotStabilized(
                "element does not lie in the computed cocycle span; raise the bound")
        return coords

    structure = {}
    for i, left in enumerate(reps):
        for j, right in enumerate(reps):
            coords = coordinates(b.product(left, right))
            if coords:
                structure[(i, j)] = coords
    unit = coordinates(t.qb.reduce(t.unit_element()))
    algebra = FiniteDimAlgebra(t.field, [str(r) for r in reps], structure, unit)
    return H0Result(algebra, reps, t.weight_bound, (coh.dims[0], next_dim))


def ref_kernel_image(matrix, field):
    """kernel_image as it ran on field scalars, with typed kernel vectors."""
    space = RowSpace(field)
    rows_by_index = {}
    for (r, c), v in matrix.entries.items():
        rows_by_index.setdefault(r, {})[c] = v
    for r in sorted(rows_by_index):
        space.add(rows_by_index[r])
    one = field.one()
    kernel = {j: {j: one} for j in range(matrix.cols) if j not in space.pivot_index}
    for pivot in space.pivot_index:
        for j, c in space.row(space.pivot_index[pivot]).items():
            vec = kernel.get(j)
            if vec is not None:
                vec[pivot] = -c
    return [typed(vec) for vec in kernel.values()], len(space.pivot_index)


def ref_mul(self, u, v):
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            vec = self.structure.get((i, j))
            if vec:
                ref_vec_axpy(out, a * b, vec)
    return out


def typed(vec):
    return None if vec is None else [(k, repr(c), type(c)) for k, c in vec.items()]


def typed_element(element):
    return None if element is None else typed(element.terms)


def typed_matrix(m):
    return m.rows, m.cols, typed(m.entries)


def outcome(call):
    try:
        return call()
    except (UnsafeWindow, NotStabilized, InconsistentPresentation) as err:
        return type(err).__name__, str(err)
    except DSquaredNonzero as err:
        return "DSquaredNonzero", err.degree, err.witness


def assert_native(field, values):
    values = list(values)
    assert all(is_native(field, c) for c in values), values


def combination(field, words, draw):
    return PathAlgebraElement({w: field.of(draw(st.sampled_from(COEFFS))) for w in words})


@SETTINGS
@given(presentations(), st.data())
def test_truncation_views_match_the_boxed_code(case, data):
    p, bound = case
    try:
        t = realize(p, (0, 0), bound)
    except InconsistentPresentation:
        return
    b = Boxed(t)
    field = t.field
    assert_native(field, (c for col in t._columns if col for c in col.values()))
    scalars = native_scalars(field)
    for degree in range(min(t.basis_by_degree), max(t.basis_by_degree) + 1):
        columns = t._position_columns(degree)
        kernel = _kernel_basis(len(columns), columns, field)
        assert_native(field, (c for vec in kernel for c in vec.values()))
        assert ([typed(scalars.public_vec(vec)) for vec in kernel],
                len(columns) - len(kernel)) == \
            ref_kernel_image(b.matrix_between(degree), field)
    for word in t._words:
        assert typed(t.d_of(word)) == typed(b.d_of(word)), word
    for degree in sorted(t.basis_by_degree):
        assert typed_matrix(t.matrix_between(degree)) == typed_matrix(b.matrix_between(degree))
    words = t._words[:12]
    for p_word in words:
        for q_word in words:
            assert typed(t.word_product(p_word, q_word)) == typed(b.word_product(p_word, q_word))
    for degree, in_degree in t.basis_by_degree.items():
        chosen = data.draw(st.lists(st.sampled_from(in_degree), min_size=1, max_size=4,
                                    unique=True))
        element = combination(field, chosen, data.draw)
        assert typed_element(t.d_element(element)) == typed_element(b.d_element(element))
        other = combination(field, data.draw(st.lists(st.sampled_from(words), min_size=1,
                                                      max_size=3, unique=True)), data.draw)
        assert typed_element(t.product(element, other)) == typed_element(b.product(element, other))
        assert typed_element(t.product(other, element)) == typed_element(b.product(other, element))
    assert_native(field, (c for p_word in words for q_word in words
                          for pq in [t._multiply(t._id[p_word], t._id[q_word])] if pq
                          for c in pq.values()))
    report = verify_differential(t)
    assert (report.checked_words, report.skipped_words, report.checked_pairs,
            report.skipped_pairs, report.failures) == ref_verify_differential(b)
    assert_native(field, (c for p_word in words for q_word in words
                          for pq in [t._multiply(t._id[p_word], t._id[q_word])] if pq
                          for c in pq.values()))
    # a doubled column breaks d o d or Leibniz wherever it is read
    k = next((i for i, col in enumerate(t._columns) if col), None)
    if k is not None:
        # a native column over F_p holds residues in range(p)
        prime = field.characteristic
        t._columns[k] = {i: 2 * c % prime if prime else 2 * c
                         for i, c in t._columns[k].items()}
        b.columns[k] = {i: 2 * c for i, c in b.columns[k].items()}
        report = verify_differential(t)
        assert (report.checked_words, report.skipped_words, report.checked_pairs,
                report.skipped_pairs, report.failures) == ref_verify_differential(b)


@SETTINGS
@given(presentations() | bar_presentations().map(lambda case: case[:2]), st.data())
def test_cohomology_and_h0_match_the_boxed_code(case, data):
    p, bound = case
    try:
        t = realize(p, (0, 0), bound)
    except InconsistentPresentation:
        return
    b = Boxed(t)
    field = t.field
    lo = data.draw(st.integers(min(t.basis_by_degree) - 1, max(t.basis_by_degree)))
    window = (lo, lo + data.draw(st.integers(0, 2)))
    got, want = outcome(lambda: cohomology(t, window)), outcome(lambda: RefCohomology(b, window))
    if isinstance(want, RefCohomology):
        assert got.dims == want.dims
        for degree in range(window[0], window[1] + 1):
            reps = got.representatives[degree]
            assert [typed_element(r) for r in reps] == \
                [typed_element(r) for r in want.representatives[degree]]
            assert_native(field, (c for _, _, vec in got._pivoted[degree] for c in vec.values()))
            probes = list(reps)
            words = t.basis_by_degree.get(degree - 1)
            if reps and words:
                boundary = t.d_element(combination(field, words[:3], data.draw))
                if boundary is not None:
                    probes.append(sum(reps, boundary))
            words = t.basis_by_degree.get(degree)
            if words:
                probes.append(combination(field, words[:3], data.draw))
            for element in probes:
                assert typed(got.class_coordinates(degree, element)) == \
                    typed(want.class_coordinates(degree, element)), element
    else:
        assert got == want

    def h0(call, truncation):
        result = outcome(lambda: call(truncation))
        if not isinstance(result, H0Result):
            return result
        algebra = result.algebra
        return (algebra.basis, [(k, typed(v)) for k, v in algebra.structure.items()],
                typed(algebra.unit), [typed_element(r) for r in result.representatives],
                result.stabilized_at, result.dims_checked)

    if 0 in t.basis_by_degree:
        assert h0(h0_algebra, t) == h0(ref_h0_algebra, b)


class BoxedBar:
    """The bar complex's letter table, columns and d o d check as they were
    built on field scalars.  Words are walked by the bar complex's word
    trie, which this change left alone."""

    def __init__(self, b, word_bound):
        self.field = b.field
        t = b.t
        self.letters = [e for e in t.qb.basis if not e.is_trivial()]
        word = [t._by_labels[e.labels] for e in self.letters]
        letter = {k: i for i, k in enumerate(word)}
        self.degree = [t._degree[k] for k in word]
        self.d = [None if b.columns[k] is None
                  else {letter[m]: c for m, c in b.columns[k].items()} for k in word]
        self.starting_at = {}
        for j, e in enumerate(self.letters):
            self.starting_at.setdefault(e.source, []).append(j)
        self.products = []
        for i, e in enumerate(self.letters):
            row = {}
            for j in self.starting_at.get(e.target, ()):
                pq = b._product(word[i], word[j])
                row[j] = None if pq is None else {letter[m]: c for m, c in pq.items()}
            self.products.append(row)
        self.trie = _WordTrie(self, sorted(t.presentation.vertices), word_bound)
        honest = self.trie.honest()
        self.by_ids = {ids: self._column(ids) for ids, _, _ in honest}
        for ids, vertex, degree in honest:
            total = {}
            for u, c in self.by_ids[ids].items():
                next_column = self.by_ids.get(u)
                if next_column is None:
                    break
                for v, c2 in next_column.items():
                    vec_add_term(total, v, c * c2)
            else:
                if total:
                    raise DSquaredNonzero(degree, str(self.trie.bar_word(ids, vertex)))

    def _column(self, ids):
        plus, minus = self.field.of(1), self.field.of(-1)
        column = {}
        prefix = 0
        for k, i in enumerate(ids):
            sign = minus if prefix % 2 else plus
            for f, c in self.d[i].items():
                vec_add_term(column, ids[:k] + (f,) + ids[k + 1:], sign * c)
            if k + 1 < len(ids):
                sign = minus if (prefix + self.degree[i]) % 2 else plus
                for g, c in self.products[i][ids[k + 1]].items():
                    vec_add_term(column, ids[:k] + (g,) + ids[k + 2:], sign * c)
            prefix += self.degree[i] - 1
        return column

    def d_of(self, word):
        column = self.by_ids.get(tuple(self.letters.index(p) for p in word.letters))
        if column is None:
            return None
        return {self.trie.bar_word(u, word.vertex): c for u, c in column.items()}

    def matrix_between(self, degree):
        source = self.trie.keys_of_degree(degree)
        row = {key: i for i, key in enumerate(self.trie.keys_of_degree(degree + 1))}
        m = SparseMatrix(len(row), len(source))
        for j, (ids, vertex) in enumerate(source):
            for u, c in self.by_ids.get(ids, {}).items():
                m.set(row[u, vertex], j, c)
        return m


@SETTINGS
@given(bar_presentations())
def test_bar_views_match_the_boxed_code(case):
    presentation, weight_bound, windows = case
    t = realize(presentation, (0, 0), weight_bound)
    word_bound = word_bound_for(t)
    got = outcome(lambda: bar(t, word_bound, (-3, 3)))
    ref = outcome(lambda: BoxedBar(Boxed(t), word_bound))
    if not isinstance(ref, BoxedBar):
        assert got == ref
        return
    b = got
    assert_native(t.field, (c for col in b._by_ids.values() for c in col.values()))
    all_dims = b.all_dims()
    for degree, words in b.words_by_degree.items():
        assert typed_matrix(b.matrix_between(degree)) == typed_matrix(ref.matrix_between(degree))
        for w in words:
            assert typed(b.d_of(w)) == typed(ref.d_of(w)), w
    for window in windows:
        for strict in (False, True):
            assert outcome(lambda: b.cohomology_dims(window, strict)) == outcome(
                lambda: {d: dim for d, (dim, _) in ref_gated_cohomology(
                    ref, all_dims, b._ledger_degrees, window, strict,
                    "bar truncation").items()})


@st.composite
def structures(draw):
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 5))
    pairs = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
                          max_size=dim * dim, unique=True))
    # few distinct coefficients and overlapping keys, so sums cancel often
    coeff = st.sampled_from(COEFFS[:5] + (Fraction(1, 2), Fraction(-1, 2)))
    structure = {pair: draw(st.dictionaries(st.integers(0, dim - 1), coeff, max_size=dim))
                 for pair in pairs}
    # field scalars, and plain ints as callers may pass them
    entry = coeff.map(field.of) | st.integers(-6, 6).filter(bool)
    vector = st.dictionaries(st.integers(0, dim - 1), entry, max_size=dim)
    return field, dim, structure, draw(st.lists(st.tuples(vector, vector), min_size=1,
                                                max_size=4))


@SETTINGS
@given(structures())
def test_mul_matches_the_boxed_code(case):
    field, dim, structure, operands = case
    algebra = FiniteDimAlgebra(field, ["b%d" % i for i in range(dim)], structure, {0: 1})
    _, table = algebra._table
    assert_native(field, (c for vec in table.values() for c in vec.values()))
    for u, v in operands:
        assert typed(algebra.mul(u, v)) == typed(ref_mul(algebra, u, v))
        uv = algebra.mul(u, v)
        assert typed(algebra.mul(uv, u)) == typed(ref_mul(algebra, uv, u))


def truncated_polynomial_ring(field, factors):
    """k[x]/(m), m the product of (x + c)^e over factors, on 1, x, ..."""
    m = [field.one()]
    for c, e in factors:
        for _ in range(e):
            shifted = [field.zero()] + m
            m = [a + field.of(c) * b for a, b in zip(shifted, m + [field.zero()])]
    d = len(m) - 1
    powers = [{i: field.one()} for i in range(d)]
    for k in range(d, 2 * d - 1):
        vec = {i + 1: c for i, c in powers[k - 1].items()}
        top = vec.pop(d, None)
        if top is not None:
            for i in range(d):
                vec[i] = vec.get(i, field.zero()) - top * m[i]
        powers.append({i: c for i, c in vec.items() if c})
    structure = {(i, j): powers[i + j] for i in range(d) for j in range(d)}
    return FiniteDimAlgebra(field, ["x^%d" % i for i in range(d)], structure, {0: 1})


def factors_outcome(algebra):
    try:
        factors = decompose_commutative(algebra)
    except RadicalComputationError as err:
        return "RadicalComputationError", str(err)
    return [(typed(f.idempotent), f.algebra.basis,
             [(k, typed(v)) for k, v in f.algebra.structure.items()], typed(f.algebra.unit),
             f.radical_dimension, f.residue_dimension, f.residue_field_certified)
            for f in factors]


@SETTINGS
@given(st.sampled_from(FIELDS),
       st.lists(st.tuples(st.sampled_from(COEFFS), st.integers(1, 2)), min_size=1,
                max_size=3))
def test_decompose_commutative_matches_the_boxed_mul(field, factors):
    algebra = truncated_polynomial_ring(field, factors)
    got = factors_outcome(algebra)
    with mock.patch.object(FiniteDimAlgebra, "mul", ref_mul):
        want = factors_outcome(algebra)
    assert got == want


def test_a_zero_pivot_in_a_native_residue_kernel_raises_zero_division():
    # pow(0, -1, p) raises ValueError, which the CLI would report as a
    # document fault; a zero pivot is an engine fault, as in FpElement.
    scalars = native_scalars(GroundField(5))
    with pytest.raises(ZeroDivisionError):
        scalars.scaled({0: 5, 1: 2}, 5)
    with pytest.raises(ZeroDivisionError):
        scalars.quotient(3, 0)
    with pytest.raises(ZeroDivisionError):
        RowSpace(GroundField(5))._insert({0: 10, 1: 1})


def test_a_column_summing_to_an_integer_holds_an_int():
    # d(y) = 1/2 y*u and d(w) = 1/2 u*w put 1/2 + 1/2 on y*u*w in d(y*w)
    q = QuiverPresentation(["v"], [Arrow("u", "v", "v", 1), Arrow("y", "v", "v", 0),
                                   Arrow("w", "v", "v", 0)])
    half = Fraction(1, 2)
    p = DgAlgebraPresentation(
        q.vertices, q.arrows, differential={
            "y": PathAlgebraElement.from_path(q.path(["y", "u"]), half),
            "w": PathAlgebraElement.from_path(q.path(["u", "w"]), half)})
    t = realize(p, (0, 1), 3)
    yw, yuw = q.path(["y", "w"]), q.path(["y", "u", "w"])
    column = t._columns[t._id[yw]]
    assert column == {t._id[yuw]: 1} and type(column[t._id[yuw]]) is int
    assert typed(t.d_of(yw)) == [(yuw, "Fraction(1, 1)", Fraction)]
