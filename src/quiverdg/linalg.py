"""Exact sparse linear algebra over a ground field.

Vectors are dicts {index: scalar} with no stored zeros; matrices act on
column vectors, so a matrix with shape (rows, cols) is a map k^cols -> k^rows.
Everything is plain fraction/residue arithmetic - no floats, no pivoting by
magnitude, just leftmost-nonzero pivoting, which is exact.
"""

from __future__ import annotations


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

    def column(self, c):
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

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

    def compose(self, other):
        """self o other: first apply other, then self."""
        if other.rows != self.cols:
            raise ValueError("shape mismatch: %dx%d after %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        result = SparseMatrix(self.rows, other.cols)
        for c, col in enumerate(other.columns()):
            if not col:
                continue
            for r, v in self.apply(col).items():
                result.set(r, c, v)
        return result

    def is_zero(self):
        return not self.entries

    def transpose(self):
        out = SparseMatrix(self.cols, self.rows)
        for (r, c), v in self.entries.items():
            out.set(c, r, v)
        return out


class RowSpace:
    """Incrementally row-reduced span of vectors, pivoted on smallest index.

    Rows are kept fully reduced: each pivot index occurs in exactly one row,
    with coefficient one, and in no other row.  Callers choose the pivot
    preference by how they number coordinates (index 0 is most preferred).
    """

    def __init__(self):
        self.rows = []
        self.pivot_index = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vec):
        """Return vec minus its projection onto the stored span."""
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
            vec_axpy(out, -out[i], self.rows[row_no])

    def add(self, vec):
        """Insert vec; return the new pivot index, or None if dependent."""
        residue = self.reduce(vec)
        if not residue:
            return None
        pivot = min(residue)
        lead = residue[pivot]
        normalized = {j: v / lead for j, v in residue.items()}
        for row in self.rows:
            c = row.get(pivot)
            if c is not None:
                vec_axpy(row, -c, normalized)
        self.rows.append(normalized)
        self.pivot_index[pivot] = len(self.rows) - 1
        return pivot

    def contains(self, vec):
        return not self.reduce(vec)


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
    combination it was recorded with.
    """

    def __init__(self):
        self._space = RowSpace()
        self._count = 0

    def add(self, vec):
        """Register a generator; returns its input index."""
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
        """Return {input_index: coeff} with sum(coeff * input_i) == target, or None."""
        residue = self._space.reduce({(0, j): v for j, v in target.items()})
        if any(kind == 0 for kind, _ in residue):
            return None
        return {k: -v for (_, k), v in residue.items()}


def kernel_image(matrix, field):
    """Exact kernel basis and rank of a sparse matrix.

    Returns (kernel_basis, rank) where kernel_basis is a list of column
    vectors spanning the null space.  rank + len(kernel_basis) == cols.
    """
    space = RowSpace()
    rows_by_index = {}
    for (r, c), v in matrix.entries.items():
        rows_by_index.setdefault(r, {})[c] = v
    for r in sorted(rows_by_index):
        space.add(rows_by_index[r])
    one = field.one()
    kernel = {j: {j: one} for j in range(matrix.cols) if j not in space.pivot_index}
    # a fully reduced row holds its own pivot and non-pivot columns only, so
    # one pass over the rows scatters every kernel entry, pivots in order
    for pivot, row_no in space.pivot_index.items():
        for j, c in space.rows[row_no].items():
            vec = kernel.get(j)
            if vec is not None:
                vec[pivot] = -c
    return list(kernel.values()), len(space.pivot_index)


def image_basis(matrix):
    """A reduced basis of the column space, as vectors in k^rows."""
    space = RowSpace()
    for col in matrix.columns():
        if col:
            space.add(col)
    return [dict(row) for row in space.rows]


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


def cohomology_of_complex(dims, differentials, window, field, verify=True):
    """Cohomology of a complex from per-degree dimensions and differentials.

    dims: {degree: dimension}; differentials: {i: SparseMatrix from degree i
    to i+1}.  Degrees absent from dims are zero.  With verify=True every
    composition touching the window is checked to vanish (DSquaredNonzero
    otherwise); callers that have already certified d*d themselves pass
    verify=False.  Returns {degree: (dim H, representative cocycles)} for
    degrees in window.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window [%s, %s]" % (lo, hi))
    if verify:
        for i in range(lo - 1, hi + 1):
            d_i = differentials.get(i)
            d_next = differentials.get(i + 1)
            if d_i is None or d_next is None:
                continue
            comp = d_next.compose(d_i)
            if not comp.is_zero():
                witness = min(c for (_, c) in comp.entries)
                raise DSquaredNonzero(i, witness)
    one = field.one()
    result = {}
    for i in range(lo, hi + 1):
        n = dims.get(i, 0)
        if n == 0:
            result[i] = (0, [])
            continue
        d_i = differentials.get(i)
        if d_i is not None:
            kernel, _ = kernel_image(d_i, field)
        else:
            kernel = [{j: one} for j in range(n)]
        image = RowSpace()
        d_prev = differentials.get(i - 1)
        if d_prev is not None:
            for col in d_prev.columns():
                if col:
                    image.add(col)
        reps = []
        chosen = RowSpace()
        for vec in kernel:
            residue = chosen.reduce(image.reduce(vec))
            if residue:
                chosen.add(residue)
                reps.append(residue)
        result[i] = (len(reps), reps)
    return result
