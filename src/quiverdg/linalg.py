"""Exact sparse linear algebra over a ground field.

Vectors are dicts {index: scalar} with no stored zeros; matrices act on
column vectors, so a matrix with shape (rows, cols) is a map k^cols -> k^rows.
No floats and no pivoting by magnitude: leftmost-nonzero pivoting, which is
exact.  RowSpace keeps its rows fully reduced, and back-substitution
visits only the rows that hold the new pivot, found through a column -> rows
index.

Scalars native to the field are a Python int while the value is integral
and a Fraction only when it is not, over Q, and a Python int in range(p)
over F_p.  native_scalars(field) returns the field's kernel (_Rationals or
_Residues): conversions between native and public scalars, and the vector
kernels (axpy, add_term, scaled, quotient, bilinear) on native ones.  The
eliminations (RowSpace, SpanSolver, kernel_image, cohomology_of_complex) run
on native scalars; so do the truncation's columns and product memo, the bar
complex's letter table and columns, and FiniteDimAlgebra.mul.  Inputs may
hold any scalars the field coerces, and everything handed out holds
Fraction or FpElement entries, except where a caller in this package asks
for native matrices and vectors (native=True).  A native run performs the
same operations in the same order as the public scalars would, so every
zero test, pivot and key order is the same.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fields import FpElement, GroundField


class DSquaredNonzero(Exception):
    """Raised when consecutive differentials fail to compose to zero."""

    def __init__(self, degree, witness):
        self.degree = degree
        self.witness = witness
        super().__init__(
            "d o d is nonzero out of degree %s (witness column %s)" % (degree, witness)
        )


def vec_add_term(out, key, coeff):
    """In-place out[key] += coeff, dropping the key when the sum is zero."""
    s = out.get(key)
    s = coeff if s is None else s + coeff
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def vec_axpy(out, coeff, vec):
    """In-place out += coeff * vec."""
    for j, v in vec.items():
        s = out.get(j)
        s = coeff * v if s is None else s + coeff * v
        if s:
            out[j] = s
        else:
            out.pop(j, None)


class SparseMatrix:
    """A rows-by-cols matrix storing only nonzero entries."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                self.set(r, c, v)

    def set(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("entry (%d, %d) outside %dx%d" % (r, c, self.rows, self.cols))
        if v:
            self.entries[(r, c)] = v
        else:
            self.entries.pop((r, c), None)

    def get(self, r, c):
        return self.entries.get((r, c))

    def columns(self):
        cols = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def apply(self, vec):
        """Matrix times column vector."""
        out = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is None:
                continue
            s = out.get(r)
            s = v * x if s is None else s + v * x
            if s:
                out[r] = s
            else:
                out.pop(r, None)
        return out

    def transpose(self):
        out = SparseMatrix(self.cols, self.rows)
        for (r, c), v in self.entries.items():
            out.set(c, r, v)
        return out


class _Scalars:
    """The scalars native to one ground field, and the vector kernels on
    them.  Vectors, matrices and structure tables held in native scalars
    are converted to Fraction or FpElement entries only where they are
    handed out (public), and values from outside are taken in by native."""

    def native_vec(self, vec):
        native = self.native
        return {j: native(v) for j, v in vec.items()}

    def public_vec(self, vec):
        public = self.public
        return {j: public(v) for j, v in vec.items()}

    def native_matrix(self, m):
        out = SparseMatrix(m.rows, m.cols)
        native = self.native
        out.entries = {rc: native(v) for rc, v in m.entries.items()}
        return out

    def public_matrix(self, m):
        out = SparseMatrix(m.rows, m.cols)
        public = self.public
        out.entries = {rc: public(v) for rc, v in m.entries.items()}
        return out

    def table(self, structure):
        """Structure constants {(i, j): {k: c}} as (D, {(i, j): {k: D c}}),
        the D c native numerators over one denominator D (see numerators)."""
        numerators, scale = self.numerators(
            {(key, k): c for key, vec in structure.items() for k, c in vec.items()})
        products = {}
        for (key, k), c in numerators:
            products.setdefault(key, {})[k] = c
        return scale, products

    def bilinear(self, table, u, v):
        """The sum over i, j of u[i] v[j] times the structure vector (i, j)
        of a table, with keys in the order vec_axpy gives them; u, v and the
        result hold field scalars.  Each operand is taken as numerators over
        one denominator, so the sum runs on native numerators and is divided
        once per key.  It is zero exactly where the field sum is, since the
        two differ by one nonzero factor."""
        scale, products = table
        u, du = self.numerators(u)
        v, dv = self.numerators(v)
        out = {}
        axpy = self.axpy
        for i, a in u:
            for j, b in v:
                vec = products.get((i, j))
                if vec:
                    axpy(out, a * b, vec)
        return self.public_over(out, du * dv * scale)


class _Rationals(_Scalars):
    """Q on native scalars: an int when the value is integral, a Fraction
    only when it is not."""

    def __init__(self, field):
        self.field = field

    def native(self, v):
        if v.__class__ is int:
            return v
        if v.__class__ is not Fraction:
            v = self.field.of(v)
        return v.numerator if v.denominator == 1 else v

    @staticmethod
    def public(v):
        return Fraction(v) if v.__class__ is int else v

    @staticmethod
    def neg(v):
        return -v

    @staticmethod
    def quotient(a, b):
        s = Fraction(a, b)
        return s.numerator if s.denominator == 1 else s

    @staticmethod
    def add_term(out, key, c):
        """In-place out[key] += c, dropping the key when the sum is zero."""
        s = out.get(key)
        if s is not None:
            c = s + c
        if c:
            if c.__class__ is Fraction and c.denominator == 1:
                c = c.numerator
            out[key] = c
        else:
            out.pop(key, None)

    @staticmethod
    def axpy(out, coeff, vec):
        """In-place out += coeff * vec, demoting integral Fractions to ints.
        A key whose sum cancels to zero is dropped, and re-enters at the
        end if a later term revives it."""
        for j, v in vec.items():
            s = out.get(j)
            s = coeff * v if s is None else s + coeff * v
            if s:
                if s.__class__ is Fraction and s.denominator == 1:
                    s = s.numerator
                out[j] = s
            else:
                out.pop(j, None)

    @staticmethod
    def scaled(vec, lead):
        """vec /= lead in place; returns vec."""
        if lead == -1:
            for j, v in vec.items():
                vec[j] = -v
        elif lead != 1:
            for j, v in vec.items():
                s = Fraction(v, lead)
                vec[j] = s.numerator if s.denominator == 1 else s
        return vec

    @staticmethod
    def numerators(vec):
        """([(key, int)], D) for a vector of rationals, D the least common
        denominator of its entries and each int an entry times D."""
        den = 1
        for c in vec.values():
            d = c.denominator
            if den % d:
                den = lcm(den, d)
        if den == 1:
            return [(j, c.numerator) for j, c in vec.items()], 1
        return [(j, c.numerator * (den // c.denominator)) for j, c in vec.items()], den

    @staticmethod
    def public_over(vec, den):
        """{key: Fraction(n, den)} of {key: int n}."""
        if den == 1:
            return {k: Fraction(n) for k, n in vec.items()}
        return {k: Fraction(n, den) for k, n in vec.items()}


class _Residues(_Scalars):
    """F_p on native scalars: ints in range(p).  A sum or product may leave
    that range inside a kernel; every value a kernel stores is reduced."""

    def __init__(self, field):
        self.field = field
        self.p = field.characteristic

    def native(self, v):
        if v.__class__ is FpElement and v.p == self.p:
            return v.val
        if v.__class__ is int:
            return v % self.p
        return self.field.of(v).val

    def public(self, v):
        return FpElement(v, self.p)

    def neg(self, v):
        return -v % self.p

    def inverse(self, v):
        """1 / v mod p; ZeroDivisionError, as FpElement raises, when v is
        zero mod p (pow would raise ValueError)."""
        if not v % self.p:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(v, -1, self.p)

    def quotient(self, a, b):
        return a * self.inverse(b) % self.p

    def add_term(self, out, key, c):
        """In-place out[key] += c mod p, dropping the key when the sum is
        zero."""
        s = out.get(key)
        s = c % self.p if s is None else (s + c) % self.p
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    def axpy(self, out, coeff, vec):
        """In-place out += coeff * vec, mod p."""
        p = self.p
        for j, v in vec.items():
            s = out.get(j)
            s = coeff * v % p if s is None else (s + coeff * v) % p
            if s:
                out[j] = s
            else:
                out.pop(j, None)

    def scaled(self, vec, lead):
        """vec /= lead in place, mod p; returns vec."""
        if lead != 1:
            p = self.p
            inv = self.inverse(lead)
            for j, v in vec.items():
                vec[j] = v * inv % p
        return vec

    def numerators(self, vec):
        """([(key, native entry)], 1): a residue needs no denominator."""
        native = self.native
        return [(j, native(v)) for j, v in vec.items()], 1

    def public_over(self, vec, den):
        """public_vec(vec); den is always 1 (see numerators)."""
        return self.public_vec(vec)


def native_scalars(field):
    """The native scalars of a field (field=None means Q)."""
    field = field if field is not None else GroundField(0)
    return _Residues(field) if field.characteristic else _Rationals(field)


class RowSpace:
    """Incrementally row-reduced span of vectors, pivoted on smallest index.

    Rows are kept fully reduced: each pivot index occurs in exactly one row,
    with coefficient one, and in no other row.  Callers choose the pivot
    preference by how they number coordinates (index 0 is most preferred).

    A private index maps each non-pivot column j to the numbers of the rows
    that hold it: every row holding j is listed under j, from when the row
    is stored or gains j by back-substitution.  A listed row may have lost j
    since, because entries cancel; such stale entries are tolerated and
    skipped.  A column has no entry once it is a pivot, since no row holds
    it any more.  SpanSolver stores its rows past the index, because they
    are never back-substituted.  freeze drops the index once a span is
    complete: reduce, contains and row still work, and add raises.

    The rows hold native scalars of the field (field=None means Q).  add,
    reduce and contains take vectors of any scalars field.of accepts; reduce
    and row hand out Fraction or FpElement entries.  The underscored methods
    work on native vectors and serve the eliminations in this module.
    """

    def __init__(self, field=None):
        self._scalars = native_scalars(field)
        self._rows = []
        self._holders = {}
        self.pivot_index = {}

    @property
    def rank(self):
        return len(self._rows)

    def row(self, n):
        """Stored row n (in insertion order), with public scalars."""
        return self._scalars.public_vec(self._rows[n])

    def reduce(self, vec):
        """Return vec minus its projection onto the stored span."""
        scalars = self._scalars
        return scalars.public_vec(self._reduce(scalars.native_vec(vec)))

    def add(self, vec):
        """Insert vec; return the new pivot index, or None if dependent."""
        return self._add(self._scalars.native_vec(vec))

    def contains(self, vec):
        return not self._reduce(self._scalars.native_vec(vec))

    def freeze(self):
        """Drop the column -> rows index; the span can no longer grow."""
        self._holders = None

    def _reduce(self, out):
        """Reduce the native vector out in place, and return it."""
        pivot_index, rows, axpy = self.pivot_index, self._rows, self._scalars.axpy
        while True:
            hit = None
            for i in out:
                row_no = pivot_index.get(i)
                if row_no is not None and (hit is None or i < hit[0]):
                    hit = (i, row_no)
            if hit is None:
                return out
            i, row_no = hit
            axpy(out, -out[i], rows[row_no])

    def _add(self, vec):
        """add for a native vector, which is reduced in place and, when
        independent, becomes the stored row."""
        if self._holders is None:
            raise ValueError("a frozen RowSpace cannot grow")
        residue = self._reduce(vec)
        return self._insert(residue) if residue else None

    def _insert(self, residue):
        """Scale the nonzero native vector residue, already reduced by the
        stored rows, to lead with one and store it in place; clear its pivot
        from the rows that hold it, and return the pivot."""
        pivot = min(residue)
        normalized = self._scalars.scaled(residue, residue[pivot])
        rows, holders, axpy = self._rows, self._holders, self._scalars.axpy
        row_no = len(rows)
        for j in normalized:
            if j != pivot:
                h = holders.get(j)
                if h is None:
                    holders[j] = [row_no]
                else:
                    h.append(row_no)
        for n in holders.pop(pivot, ()):
            row = rows[n]
            c = row.get(pivot)
            if c is not None:
                for j in normalized:
                    if j not in row:
                        holders[j].append(n)
                axpy(row, -c, normalized)
        self._store(pivot, normalized)
        return pivot

    def _store(self, pivot, row):
        self._rows.append(row)
        self.pivot_index[pivot] = len(self._rows) - 1


class SpanSolver:
    """Expresses vectors as exact combinations of a generating list.

    The reduction is RowSpace's, run on augmented vectors: coordinate j is
    keyed (0, j) and input k is keyed (1, k), so every coordinate sorts
    before every input and only coordinates become pivots.  Reducing a
    vector therefore records, under the input keys, the combination of
    inputs it subtracted, and membership tests come with explicit
    coefficients.  A generator is stored only when its coordinates are
    independent of the earlier ones, and its row is appended without
    clearing its pivot from the earlier rows, so each row keeps the
    combination it was recorded with.  field=None means Q.
    """

    def __init__(self, field=None):
        self._space = RowSpace(field)
        self._count = 0

    def _augmented(self, vec):
        native = self._space._scalars.native
        return {(0, j): native(v) for j, v in vec.items()}

    def add(self, vec):
        """Register a generator; returns its input index."""
        index = self._count
        self._count += 1
        space = self._space
        residue = space._reduce(self._augmented(vec))
        residue[(1, index)] = 1
        pivot = min(residue)
        if pivot[0] == 0:
            space._store(pivot, space._scalars.scaled(residue, residue[pivot]))
        return index

    def express(self, target):
        """Return {input_index: coeff} with sum(coeff * input_i) == target, or None."""
        residue = self._space._reduce(self._augmented(target))
        if any(kind == 0 for kind, _ in residue):
            return None
        public = self._space._scalars.public
        return {k: public(-v) for (_, k), v in residue.items()}


def kernel_image(matrix, field, native=False):
    """Exact kernel basis and rank of a sparse matrix.

    Returns (kernel_basis, rank) where kernel_basis is a list of column
    vectors spanning the null space.  rank + len(kernel_basis) == cols.
    With native=True the matrix holds native scalars of the field, and so
    does the kernel basis.
    """
    space = RowSpace(field)
    scalars = space._scalars
    if not native:
        matrix = scalars.native_matrix(matrix)
    rows_by_index = {}
    for (r, c), v in matrix.entries.items():
        rows_by_index.setdefault(r, {})[c] = v
    for r in sorted(rows_by_index):
        space._add(rows_by_index[r])
    kernel = {j: {j: 1} for j in range(matrix.cols) if j not in space.pivot_index}
    # a fully reduced row holds its own pivot and non-pivot columns only, so
    # one pass over the rows scatters every kernel entry, pivots in order
    neg = scalars.neg
    for pivot, row_no in space.pivot_index.items():
        for j, c in space._rows[row_no].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[pivot] = neg(c)
    kernel = list(kernel.values())
    if not native:
        kernel = [scalars.public_vec(vec) for vec in kernel]
    return kernel, len(space.pivot_index)


def image_basis(matrix, field):
    """A reduced basis of the column space, as vectors in k^rows."""
    space = RowSpace(field)
    for col in matrix.columns():
        if col:
            space.add(col)
    return [space.row(n) for n in range(space.rank)]


class GradedVectorSpace:
    """Finite-dimensional graded vector space: labeled basis per degree."""

    def __init__(self, basis_by_degree=None):
        self.basis = {d: list(labels) for d, labels in (basis_by_degree or {}).items() if labels}

    def dim(self, degree):
        return len(self.basis.get(degree, ())) if degree in self.basis else 0

    def dims(self):
        return {d: len(labels) for d, labels in sorted(self.basis.items())}

    def degrees(self):
        return sorted(self.basis)

    def shift(self, amount=1):
        """Degree shift by [amount]: an element of degree i lands in degree i - amount."""
        return GradedVectorSpace({d - amount: labels for d, labels in self.basis.items()})

    def total_dim(self):
        return sum(len(labels) for labels in self.basis.values())


def cohomology_of_complex(dims, differentials, window, field, images=None, native=False):
    """Cohomology of a complex from per-degree dimensions and differentials.

    dims: {degree: dimension}; differentials: {i: SparseMatrix from degree i
    to i+1}.  Degrees absent from dims are zero.  Returns {degree: (dim H,
    representative cocycles)} for degrees in window.  With native=True the
    matrices hold native scalars of the field, and so do the
    representatives; otherwise both hold field scalars.

    It runs both steps.  The ranks step (_cohomology_ranks) builds each
    window degree's image RowSpace, checks d o d and reads every dim H off
    ranks; here rank d_hi is read off the kernel of d_hi, which the
    representatives of the top degree need anyway.  The representatives
    step (_cohomology_representatives) then takes the kernel of d_i for
    each other degree i whose dim H is nonzero; a degree with dim H zero has
    no representatives, and its kernel is not taken.  When a dict is passed
    as images, images[i] receives the image RowSpace of each degree i in
    window once the ranks step has passed.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window [%s, %s]" % (lo, hi))
    scalars = native_scalars(field)
    if not native:
        differentials = {i: scalars.native_matrix(m) for i, m in differentials.items()
                         if lo - 1 <= i <= hi}
    top_kernel = _kernel_basis(dims.get(hi, 0), differentials.get(hi), field)

    def columns_of(i):
        d_i = differentials.get(i)
        return None if d_i is None else d_i.columns()

    h, built = _cohomology_ranks(dims, columns_of, window, field,
                                 dims.get(hi, 0) - len(top_kernel))
    if images is not None:
        images.update(built)
    result = {}
    for i in range(lo, hi + 1):
        reps = []
        if h[i]:
            kernel = top_kernel if i == hi else _kernel_basis(
                dims.get(i, 0), differentials.get(i), field)
            reps = _cohomology_representatives(kernel, built[i], field, h[i])
            if not native:
                reps = [scalars.public_vec(vec) for vec in reps]
        result[i] = (h[i], reps)
    return result


def _cohomology_ranks(dims, columns_of, window, field, top_rank=None):
    """The ranks step: ({degree: dim H}, {degree: image RowSpace}) for the
    degrees lo..hi of the window, from native columns.  columns_of(i) is
    the list of columns of d_i, each a {row: native coeff} dict, or None
    when there is no d_i; every call must return new dicts, since the
    columns are reduced in place.

    images[i] is the fully reduced RowSpace of the columns of d_{i-1}, added
    in column order, so its rank is rank d_{i-1}; it is frozen once built,
    so it keeps no index.  rank d_hi is top_rank when given; otherwise the
    image of d_hi out of the top degree is built for it and dropped.  Then
    dim H^i = n_i - rank d_i - rank d_{i-1}.

    That count holds only when d_i o d_{i-1} = 0, so it is checked for every
    window degree i by applying d_i to the stored rows of images[i], which
    span im d_{i-1}.  Otherwise DSquaredNonzero(i - 1, j) is raised, for the
    lowest such i, with j the first column of d_{i-1} that d_i does not
    kill.  The composite out of the top window degree is not seen.
    """
    lo, hi = window
    axpy = native_scalars(field).axpy
    images = {}
    columns = columns_of(lo - 1) or []
    for i in range(lo, hi + 1):
        image = images[i] = _column_space(columns, field)
        columns = columns_of(i)
        if columns is None:
            columns = []
            continue
        for row in image._rows:
            if _applied(columns, row, axpy):
                d_prev = columns_of(i - 1)
                witness = next(j for j, col in enumerate(d_prev) if _applied(columns, col, axpy))
                raise DSquaredNonzero(i - 1, witness)
    if top_rank is None:
        top_rank = _column_space(columns, field).rank
    ranks = [images[i].rank for i in range(lo + 1, hi + 1)] + [top_rank]
    h = {i: dims.get(i, 0) - rank - images[i].rank for i, rank in zip(range(lo, hi + 1), ranks)}
    return h, images


def _applied(columns, vec, axpy):
    """The matrix with these native columns applied to a native vector."""
    total = {}
    for j, c in vec.items():
        col = columns[j]
        if col:
            axpy(total, c, col)
    return total


def _column_space(columns, field):
    """The frozen RowSpace of native columns, added in order; each column is
    reduced in place."""
    space = RowSpace(field)
    for col in columns:
        space._add(col)
    space.freeze()
    return space


def _kernel_basis(n, d_i, field):
    """The native kernel basis of kernel_image, or of the zero map on k^n
    when d_i is None."""
    if d_i is None:
        return [{j: 1} for j in range(n)]
    return kernel_image(d_i, field, native=True)[0]


def _cohomology_representatives(kernel, image, field, dim):
    """The representatives step for one degree i: dim native cocycles whose
    classes are a basis of H^i, from the kernel basis of d_i (_kernel_basis),
    the RowSpace of im d_{i-1} and dim H^i from _cohomology_ranks.

    The representatives are the kernel vectors reduced by the image and by
    the representatives before them.  So each representative is zero at
    every image pivot and at the pivot min(rep) of every earlier
    representative, and the pivots are distinct: reducing a cocycle by the
    image leaves a unique combination of the representatives, read off by
    forward substitution in pivot order.  Once dim of them are found, the
    image and they span the kernel, so every later kernel vector would
    reduce to zero and none is reduced.
    """
    reps = []
    chosen = RowSpace(field)
    for vec in kernel:
        if len(reps) == dim:
            break
        residue = chosen._reduce(image._reduce(vec))
        if residue:
            reps.append(dict(residue))
            chosen._insert(residue)
    return reps
