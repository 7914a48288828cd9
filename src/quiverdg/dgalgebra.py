"""Presented dg algebras and their truncated realizations.

A presentation is a graded quiver of generators over a vertex base, a
degree +1 differential given on generators, and optional relations.  A
realization materializes the words of weight <= L (weights default to 1 per
generator, so the bound is a word-length bound), extends d by the Leibniz
rule, and keeps an explicit ledger of every word whose differential escapes
the bound.  All cohomology claims are gated on that ledger: nothing is
reported as exact where truncation bit.

Sign conventions: Koszul rule throughout; d(pq) = (dp)q + (-1)^{|p|} p(dq);
an element of degree i shifts to degree i - n under [n].  The conventions
are not trusted: verify_differential recomputes d*d and Leibniz on every
in-bounds word and pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .algebras import FiniteDimAlgebra
from .fields import GroundField
from .linalg import (
    DSquaredNonzero,
    GradedVectorSpace,
    SparseMatrix,
    SpanSolver,
    cohomology_of_complex,
    vec_axpy,
)
from .quiver import (
    Path,
    PathAlgebraElement,
    QuiverPresentation,
    reduce_modulo_relations,
)


class InconsistentPresentation(Exception):
    """Raised when the presentation data cannot define a dg algebra."""


class UnsafeWindow(Exception):
    """Raised when truncation overflow touches the requested degrees."""

    def __init__(self, degrees, message):
        self.degrees = degrees
        super().__init__(message)


class NotStabilized(Exception):
    """Raised when a computation needs a larger weight bound to be trusted."""


class DgAlgebraPresentation:
    """Generators over a vertex base, with differential and relations.

    differential maps generator names to PathAlgebraElements in the
    generators; omitted generators are closed.  weights assigns a positive
    integer to each generator (default 1); realizations truncate by total
    word weight.
    """

    def __init__(self, vertices, generators, differential=None, relations=(),
                 augmented=True, weights=None, field=None):
        self.field = field if field is not None else GroundField(0)
        self.quiver = QuiverPresentation(vertices, generators)
        self.vertices = self.quiver.vertices
        self.generators = self.quiver.arrows
        self.augmented = augmented
        self.weights = {a.name: 1 for a in self.generators}
        if weights:
            for name, w in weights.items():
                if not self.quiver.has_arrow(name):
                    raise InconsistentPresentation("weight for unknown generator %r" % name)
                if not isinstance(w, int) or w < 1:
                    raise InconsistentPresentation("weight of %s must be a positive integer" % name)
                self.weights[name] = w
        self.differential = {}
        for name, value in (differential or {}).items():
            gen = self._known_generator(name)
            cleaned = self._clean_element(value)
            if cleaned.is_zero():
                continue
            for term, _ in cleaned.terms.items():
                self._check_term_against(gen, term)
            self.differential[name] = cleaned
        self.relations = []
        for r in relations:
            cleaned = self._clean_element(r)
            if cleaned.is_zero():
                continue
            if cleaned.endpoints() is None:
                raise InconsistentPresentation(
                    "relation is not vertex-homogeneous: %r" % (cleaned,))
            degrees = {self.quiver.path_degree(p) for p in cleaned.terms}
            if len(degrees) != 1:
                raise InconsistentPresentation(
                    "relation mixes degrees %s: %r" % (sorted(degrees), cleaned))
            if any(p.is_trivial() for p in cleaned.terms):
                raise InconsistentPresentation(
                    "relation terms must have length >= 1: %r" % (cleaned,))
            self.relations.append(cleaned)

    def _known_generator(self, name):
        if not self.quiver.has_arrow(name):
            raise InconsistentPresentation("differential on unknown generator %r" % name)
        return self.quiver.arrow(name)

    def _clean_element(self, element):
        terms = {}
        for path, coeff in element.terms.items():
            for label in path.labels:
                if not self.quiver.has_arrow(label):
                    raise InconsistentPresentation("unknown generator %r in %r" % (label, element))
            c = self.field.of(coeff)
            if c:
                terms[path] = c
        return PathAlgebraElement(terms)

    def _check_term_against(self, gen, term):
        if term.is_trivial():
            raise InconsistentPresentation(
                "d(%s) contains a vertex term; curvature is not supported" % gen.name)
        if (term.source, term.target) != (gen.source, gen.target):
            raise InconsistentPresentation(
                "d(%s) term %s runs %s -> %s, expected %s -> %s"
                % (gen.name, term, term.source, term.target, gen.source, gen.target))
        degree = self.quiver.path_degree(term)
        if degree != gen.degree + 1:
            raise InconsistentPresentation(
                "d(%s) term %s has degree %d, expected %d"
                % (gen.name, term, degree, gen.degree + 1))

    def weight_of(self, path):
        return sum(self.weights[name] for name in path.labels)

    def degree_of(self, path):
        return self.quiver.path_degree(path)

    def is_weight_graded(self):
        """True when d preserves total weight, so truncation never bites."""
        for name, value in self.differential.items():
            w = self.weights[name]
            for term in value.terms:
                if self.weight_of(term) != w:
                    return False
        return True

    def d_of_element(self, element):
        """Free Leibniz extension of the generator differential (no reduction)."""
        total = {}
        for word, coeff in element.terms.items():
            prefix_degree = 0
            for i, label in enumerate(word.labels):
                gen = self.quiver.arrow(label)
                dg = self.differential.get(label)
                if dg is not None:
                    sign = self.field.of(-1 if prefix_degree % 2 else 1)
                    for term, c in dg.terms.items():
                        new = Path(word.labels[:i] + term.labels + word.labels[i + 1:],
                                   word.source, word.target)
                        s = total.get(new)
                        s = coeff * sign * c if s is None else s + coeff * sign * c
                        if s:
                            total[new] = s
                        else:
                            total.pop(new, None)
                prefix_degree += gen.degree
        return PathAlgebraElement(total)


@dataclass
class OverflowEntry:
    kind: str
    degree: int
    word: str


_UNSET = object()


def _add_scaled(out, coeff, vec, one):
    """In-place out += coeff * vec, skipping each multiplication by one.

    one is the field's unit object; unit products in the memo hold it, so an
    identity test spares the exact-arithmetic product."""
    for k, v in vec.items():
        term = v if coeff is one else coeff if v is one else coeff * v
        s = out.get(k)
        s = term if s is None else s + term
        if s:
            out[k] = s
        else:
            out.pop(k, None)


class TruncatedDgAlgebra:
    """Words of weight <= bound with reduced multiplication and differential.

    The internal basis covers every degree the words reach; the window only
    scopes what is reported and classified.  differential_ledger lists the
    words whose differential escaped the weight bound (their columns are
    omitted), and mul_overflow counts composable basis pairs whose product
    escapes, keyed by the degree the product would land in.

    Inside the truncation each basis word is numbered once: its id is its
    position in degree-major basis order (degrees ascending, basis order
    within a degree), so the words of one degree have consecutive ids.  The
    differential columns and the product memo are stored on ids as {id:
    coeff}, with each id's weight and degree in lists, and verify_differential,
    cohomology and matrix_between work on them without hashing a path.
    d_of, d_element, word_product and product are the path-level views.

    Products of two words are memoised for the life of the truncation.  When
    the concatenation fits the bound and is itself a basis word, which is
    exactly when its column of the quotient basis is not a pivot, reduction
    would return it unchanged, so its product is taken to be that word with
    coefficient one; every other product is reduced.
    """

    def __init__(self, presentation, window, weight_bound):
        if weight_bound < 1:
            raise ValueError("weight bound must be >= 1")
        self.presentation = presentation
        self.field = presentation.field
        self.window = tuple(window)
        self.weight_bound = weight_bound
        self.qb = reduce_modulo_relations(
            presentation.quiver, presentation.relations, weight_bound,
            field=presentation.field, weights=presentation.weights)
        self._check_relation_differentials()
        self.basis_by_degree = {}
        for path in self.qb.basis:
            self.basis_by_degree.setdefault(presentation.degree_of(path), []).append(path)
        self._words = []
        self._degree = []
        self._start = {}
        for degree in sorted(self.basis_by_degree):
            words = self.basis_by_degree[degree]
            self._start[degree] = len(self._words)
            self._words.extend(words)
            self._degree.extend([degree] * len(words))
        self._id = {w: i for i, w in enumerate(self._words)}
        self._weight = [self.qb.weight_of(w) for w in self._words]
        self._one = self.field.one()
        self._products = [None] * len(self._words)
        self._units = {}
        self._columns = []
        self.differential_ledger = []
        for i, word in enumerate(self._words):
            free = presentation.d_of_element(PathAlgebraElement.from_path(word, self._one))
            if any(presentation.weight_of(t) > weight_bound for t in free.terms):
                self.differential_ledger.append(OverflowEntry(
                    "differential", self._degree[i], str(word)))
                self._columns.append(None)
                continue
            self._columns.append(self._ids_of(self.qb.reduce(free).terms))
        self.mul_overflow = self._count_mul_overflow()
        self.certified_finite_dimensional = self._certify_finite_dimensional()

    def _check_relation_differentials(self):
        p = self.presentation
        for r in p.relations:
            dr = p.d_of_element(r)
            if dr.is_zero():
                continue
            if any(p.weight_of(t) > self.weight_bound for t in dr.terms):
                continue  # not checkable at this bound
            residue = self.qb.reduce(dr)
            if not residue.is_zero():
                raise InconsistentPresentation(
                    "d of relation %r leaves the relation ideal: residue %r"
                    % (r, residue))

    def _count_mul_overflow(self):
        histogram = {}
        for i, word in enumerate(self._words):
            key = (word.source, word.target, self._degree[i], self._weight[i])
            histogram[key] = histogram.get(key, 0) + 1
        overflow = {}
        for (s1, t1, d1, w1), n1 in histogram.items():
            for (s2, t2, d2, w2), n2 in histogram.items():
                if t1 != s2 or w1 + w2 <= self.weight_bound:
                    continue
                landing = d1 + d2
                overflow[landing] = overflow.get(landing, 0) + n1 * n2
        return dict(sorted(overflow.items()))

    def _certify_finite_dimensional(self):
        if not self.presentation.generators:
            return True
        top = max(self._weight, default=0)
        heaviest_generator = max(self.presentation.weights.values())
        return top + heaviest_generator <= self.weight_bound

    def words(self, degree):
        return list(self.basis_by_degree.get(degree, ()))

    def dims(self):
        return {d: len(words) for d, words in sorted(self.basis_by_degree.items())}

    def reported_dims(self):
        lo, hi = self.window
        return {d: len(self.basis_by_degree.get(d, ())) for d in range(lo, hi + 1)}

    def _ids_of(self, terms):
        return {self._id[path]: c for path, c in terms.items()}

    def _paths_of(self, vec):
        return {self._words[i]: c for i, c in vec.items()}

    def _word_id(self, word):
        i = self._id.get(word)
        if i is None:
            raise ValueError("%s is not a basis word" % (word,))
        return i

    def _ids_in(self, degree):
        """The consecutive ids of the words of one degree."""
        start = self._start.get(degree, 0)
        return range(start, start + len(self.basis_by_degree.get(degree, ())))

    def _coordinates(self, element):
        """{position of each word within its degree: coeff} of an element
        supported on basis words."""
        out = {}
        for word, c in element.terms.items():
            i = self._id[word]
            out[i - self._start[self._degree[i]]] = c
        return out

    def d_of(self, word):
        """Reduced differential of a basis word as {path: coeff}; None if the
        free differential escaped the weight bound."""
        col = self._columns[self._id[word]]
        return None if col is None else self._paths_of(col)

    def _d(self, vec):
        """d of {id: coeff} as {id: coeff}; None when a column is missing."""
        total = {}
        for i, coeff in vec.items():
            col = self._columns[i]
            if col is None:
                return None
            _add_scaled(total, coeff, col, self._one)
        return total

    def d_element(self, element):
        """Differential of an element supported on basis words; None when any
        support word's column is missing."""
        total = self._d({self._word_id(w): self.field.of(c) for w, c in element.terms.items()})
        return None if total is None else PathAlgebraElement(self._paths_of(total))

    def product(self, left, right):
        """Reduced product of two elements supported on basis words; None
        when a term pair escapes the weight bound (mismatched endpoints just
        multiply to zero).  It is the bilinear extension of word_product.
        """
        right_ids = [(self._word_id(q), cq) for q, cq in right.terms.items()]
        total = {}
        for p, cp in left.terms.items():
            i = self._word_id(p)
            for j, cq in right_ids:
                pq = self._product(i, j)
                if pq is None:
                    return None
                vec_axpy(total, cp * cq, pq)
        return PathAlgebraElement(self._paths_of(total))

    def word_product(self, p, q):
        """Reduced product of two basis words as {path: coeff}; None when it
        escapes the weight bound.  Products are memoised on ids (see the
        class docstring).

        When the truncation is certified finite-dimensional the overflow case
        is recovered exactly: q is multiplied onto p one generator at a time,
        and each intermediate product stays under the bound because the
        heaviest reduced word plus one generator does.
        """
        pq = self._product(self._word_id(p), self._word_id(q))
        return None if pq is None else self._paths_of(pq)

    def _product(self, i, j):
        """Memoised product of words i and j as {id: coeff}, or None; the
        dict is the memo entry itself and must not be modified."""
        row = self._products[i]
        if row is None:
            row = self._products[i] = {}
        pq = row.get(j, _UNSET)
        if pq is _UNSET:
            pq = row[j] = self._multiply(i, j)
        return pq

    def _multiply(self, i, j):
        p, q = self._words[i], self._words[j]
        if p.target != q.source:
            return {}
        one = self._one
        if self._weight[i] + self._weight[j] <= self.weight_bound:
            word = Path(p.labels + q.labels, p.source, q.target)
            k = self._id.get(word)
            if k is None:
                return self._ids_of(self.qb.reduce(PathAlgebraElement.from_path(word, one)).terms)
            unit = self._units.get(k)
            if unit is None:
                unit = self._units[k] = {k: one}
            return unit
        if not self.certified_finite_dimensional:
            return None
        quiver = self.presentation.quiver
        acc = self.qb.reduce(PathAlgebraElement.from_path(p, one))
        for label in q.labels:
            acc = self.qb.reduce(acc * PathAlgebraElement.from_path(quiver.path([label])))
        return self._ids_of(acc.terms)

    def unit_element(self):
        one = self.field.one()
        return PathAlgebraElement(
            {self.presentation.quiver.trivial(v): one for v in self.presentation.vertices})

    def matrix_between(self, degree):
        """SparseMatrix of d from degree to degree+1 (ledgered columns zero)."""
        source, target = self._ids_in(degree), self._ids_in(degree + 1)
        m = SparseMatrix(len(target), len(source))
        for j, i in enumerate(source):
            col = self._columns[i]
            if col is None:
                continue
            for k, c in col.items():
                m.set(k - target.start, j, c)
        return m


def realize(presentation, window, weight_bound):
    """Materialize the presentation on words of weight <= weight_bound.

    The window scopes reporting; an inverted window (lo > hi) is allowed and
    reports nothing.  InconsistentPresentation is raised when a relation
    differential leaves the relation ideal within the bound.
    """
    return TruncatedDgAlgebra(presentation, window, weight_bound)


@dataclass
class DifferentialReport:
    checked_words: int
    skipped_words: int
    checked_pairs: int
    skipped_pairs: int
    failures: list = dataclass_field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def verify_differential(t):
    """Recompute d*d = 0 and the Leibniz rule on all in-bounds data.

    The Leibniz pass visits only the composable pairs (p, q) whose total
    weight fits the bound, in basis order.  Words and pairs whose
    differentials or products escape the weight bound are skipped (counted),
    never trusted.  Both passes run on the truncation's word ids, its
    id-keyed columns and its id-keyed product memo, where a product whose
    concatenation is a basis word is read off without reduction (see
    TruncatedDgAlgebra); a word becomes a path again only to name a failure.
    Returns a DifferentialReport whose failures list carries witnesses; it
    never raises.
    """
    report = DifferentialReport(0, 0, 0, 0)
    words, columns, weight, degree = t._words, t._columns, t._weight, t._degree
    for i, col in enumerate(columns):
        dd = None if col is None else t._d(col)
        if dd is None:
            report.skipped_words += 1
            continue
        report.checked_words += 1
        if dd:
            report.failures.append(
                ("d_squared", str(words[i]), repr(PathAlgebraElement(t._paths_of(dd)))))
    # runs_at[vertex] lists, per degree, the ids of the words starting there
    # in id order, so weights ascend within a run and a scan stops at the
    # first too heavy word
    by_source = {}
    for i, w in enumerate(words):
        by_source.setdefault(w.source, {}).setdefault(degree[i], []).append(i)
    runs_at = {v: list(runs.values()) for v, runs in by_source.items()}
    one = t._one
    signs = (one, t.field.of(-1))
    product = t._product
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
                    report.skipped_pairs += 1
                    continue
                lhs = t._d(product(i, j))
                rhs = None if lhs is None else _leibniz_rhs(product, i, j, dp, dq, sign, one)
                if rhs is None:
                    report.skipped_pairs += 1
                    continue
                report.checked_pairs += 1
                if lhs != rhs:
                    report.failures.append(("leibniz", str(p), str(words[j])))
    return report


def _leibniz_rhs(product, i, j, dp, dq, sign, one):
    """(dp)q + sign p(dq) on ids; None when a product escapes."""
    rhs = {}
    for u, cu in dp.items():
        piece = product(u, j)
        if piece is None:
            return None
        _add_scaled(rhs, cu, piece, one)
    for v, cv in dq.items():
        piece = product(i, v)
        if piece is None:
            return None
        _add_scaled(rhs, cv if sign is one else sign * cv, piece, one)
    return rhs


class CohomologyResult:
    """Per-degree cohomology of a truncation, with representatives.

    Dimensions are exact for the truncated complex; they equal the full
    algebra's cohomology wherever the caller's window and ledger discipline
    guarantee the truncation is faithful.  class_coordinates reads the class
    of a cocycle off the representatives; product, h0_algebra and the
    reflexivity splitting check all go through it.
    """

    def __init__(self, truncation, window, dims, representatives, rep_vectors,
                 image_columns):
        self.truncation = truncation
        self.window = window
        self.dims = dims
        self.representatives = representatives
        self._rep_vectors = rep_vectors
        self._image_columns = image_columns
        self._solvers = {}

    def space(self):
        return GradedVectorSpace(
            {d: [str(r) for r in reps] for d, reps in self.representatives.items() if reps})

    def product(self, deg_left, i, deg_right, j):
        """Coordinates of reps[deg_left][i] * reps[deg_right][j] on the
        representatives in the landing degree; None when the product escapes
        the weight bound."""
        landing = deg_left + deg_right
        if not (self.window[0] <= landing <= self.window[1]):
            raise ValueError("landing degree %d outside window %s" % (landing, self.window))
        t = self.truncation
        product = t.product(self.representatives[deg_left][i],
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
        """{representative index: coeff} of the class of an element of a
        window degree, supported on basis words, against representatives
        [degree]; None when the element is not in the span of the image of
        d and the representatives.

        The element is solved for on the image columns followed by the
        representatives, and the image part is dropped.  The representative
        part is unique, because the representatives are independent modulo
        the image.  Only the columns that cohomology_of_complex found
        independent of the ones before them are fed in: a dependent column
        would store no row, so leaving it out changes no output.
        """
        t = self.truncation
        if degree not in self._solvers:
            solver = SpanSolver(t.field)
            start = t._ids_in(degree).start
            sources = t._ids_in(degree - 1)
            image_columns = self._image_columns[degree]
            for j in image_columns:
                solver.add({k - start: c for k, c in t._columns[sources[j]].items()})
            for vec in self._rep_vectors[degree]:
                solver.add(vec)
            self._solvers[degree] = (solver, len(image_columns))
        solver, image_count = self._solvers[degree]
        expression = solver.express(t._coordinates(element))
        if expression is None:
            return None
        return {k - image_count: c for k, c in expression.items() if k >= image_count}


def _weight_homogeneous_relations(presentation):
    return all(
        len({presentation.weight_of(p) for p in r.terms}) == 1
        for r in presentation.relations)


def _gated_cohomology(c, dims, safe_window, strict, overflow, independent=None):
    """Cohomology of a truncated complex on a window, gated on its ledger.

    c is a truncated complex (a TruncatedDgAlgebra or a bar complex): it
    has a differential_ledger, a field and matrix_between(degree); dims maps
    its degrees to their dimensions.  UnsafeWindow, naming the overflow, is
    raised when the ledger meets the window (strict=True widens the check to
    one degree on each side).  The caller vouches for d*d = 0.  Returns
    cohomology_of_complex's {degree: (dim, representative vectors)}, and
    fills independent as cohomology_of_complex does.
    """
    lo, hi = safe_window
    if lo > hi:
        raise ValueError("empty cohomology window [%s, %s]" % (lo, hi))
    check_lo, check_hi = (lo - 1, hi + 1) if strict else (lo, hi)
    touched = sorted({e.degree for e in c.differential_ledger
                      if check_lo <= e.degree <= check_hi})
    if touched:
        raise UnsafeWindow(touched, "%s overflow at degrees %s inside window [%d, %d]"
                           % (overflow, touched, lo, hi))
    matrices = {d: c.matrix_between(d) for d in range(lo - 1, hi + 1)}
    return cohomology_of_complex(dims, matrices, (lo, hi), c.field, verify=False,
                                 independent=independent)


def cohomology(t, safe_window, strict=False):
    """Exact cohomology of the truncated complex on the given window.

    UnsafeWindow is raised when the differential ledger intersects the
    window (strict=True widens the check to one degree on each side, which
    makes the boundary maps provably complete as well).  With strict=False
    the incoming image at the bottom edge may be undercounted when the
    ledger has entries just below the window; for weight-graded differentials
    the ledger is empty and both modes agree.  d*d is checked on the words
    of degrees lo - 1 to hi; DSquaredNonzero names the first failing word.
    """
    image_columns = {}
    raw = _gated_cohomology(t, t.dims(), safe_window, strict, "differential",
                            image_columns)
    lo, hi = safe_window
    for degree in range(lo - 1, hi + 1):
        for i in t._ids_in(degree):
            col = t._columns[i]
            square = None if col is None else t._d(col)
            if square:
                raise DSquaredNonzero(degree, str(t._words[i]))
    out_dims = {}
    representatives = {}
    rep_vectors = {}
    for degree in range(lo, hi + 1):
        dim, reps = raw[degree]
        out_dims[degree] = dim
        words = t.basis_by_degree.get(degree, [])
        representatives[degree] = [
            PathAlgebraElement({words[i]: c for i, c in vec.items()}) for vec in reps]
        rep_vectors[degree] = reps
    return CohomologyResult(t, (lo, hi), out_dims, representatives, rep_vectors,
                            image_columns)


def classify(t, cohomology_result=None):
    """Connectivity flags for a truncation, each tagged with its scope.

    Scope "exact" means the flag holds for the full presented algebra (by
    generator-degree arithmetic or an explicit witness); "within-window"
    means it was only checked on the realized window.
    """
    if cohomology_result is None:
        lo, hi = t.window
        cohomology_result = cohomology(t, (lo, hi))
    dims = cohomology_result.dims
    gen_degrees = [g.degree for g in t.presentation.generators]
    basis_is_exact = t.certified_finite_dimensional or (
        t.presentation.is_weight_graded()
        and _weight_homogeneous_relations(t.presentation))

    def flag(value, scope):
        return {"value": value, "scope": scope}

    positive_violation = any(d > 0 and n for d, n in dims.items())
    if positive_violation:
        connective = flag(False, "exact" if basis_is_exact else "within-window")
    elif not gen_degrees or max(gen_degrees) <= 0:
        connective = flag(True, "exact")
    else:
        connective = flag(True, "within-window")

    negative_violation = any(d < 0 and n for d, n in dims.items())
    if negative_violation:
        coconnective = flag(False, "exact" if basis_is_exact else "within-window")
    elif not gen_degrees or min(gen_degrees) >= 0:
        coconnective = flag(True, "exact")
    else:
        coconnective = flag(True, "within-window")

    degree_one_words = t.basis_by_degree.get(1, [])
    if degree_one_words:
        a1 = flag(False, "exact" if basis_is_exact else "within-window")
    elif (t.certified_finite_dimensional or not gen_degrees
          or max(gen_degrees) <= 0 or min(gen_degrees) >= 2):
        a1 = flag(True, "exact")
    else:
        a1 = flag(True, "within-window")

    if t.certified_finite_dimensional:
        proper = flag(True, "exact")
    else:
        proper = flag(True, "within-window")

    zero_words = t.basis_by_degree.get(0, [])
    base_dim = len(t.presentation.vertices)
    equals_base = (len(zero_words) == base_dim
                   and all(w.is_trivial() for w in zero_words))
    if (t.certified_finite_dimensional or not gen_degrees
            or min(gen_degrees) > 0 or max(gen_degrees) < 0):
        a0_scope = "exact"
    else:
        a0_scope = "within-window"
    a0 = {"dim": len(zero_words), "equals_base": equals_base, "scope": a0_scope}

    return {
        "connective": connective,
        "strictly_coconnective": coconnective,
        "locally_proper_within_window": proper,
        "a1_zero": a1,
        "a0": a0,
    }


@dataclass
class H0Result:
    algebra: FiniteDimAlgebra
    representatives: list
    stabilized_at: int
    dims_checked: tuple


def h0_algebra(t):
    """H^0 as a structure-constant algebra, or NotStabilized.

    The dimension must agree between the given weight bound L and L+1
    (recorded), and every representative product must stay inside the bound;
    otherwise the caller is told to raise L.
    """
    coh = cohomology(t, (0, 0))
    again = realize(t.presentation, t.window, t.weight_bound + 1)
    coh_next = cohomology(again, (0, 0))
    if coh.dims[0] != coh_next.dims[0]:
        raise NotStabilized(
            "H^0 dimension moved from %d to %d between weight bounds %d and %d"
            % (coh.dims[0], coh_next.dims[0], t.weight_bound, t.weight_bound + 1))
    reps = coh.representatives[0]
    field = t.field

    def coordinates(element):
        if element is None:
            raise NotStabilized(
                "representative product escapes weight bound %d; raise it"
                % t.weight_bound)
        coords = coh.class_coordinates(0, element)
        if coords is None:
            raise NotStabilized(
                "element does not lie in the computed cocycle span; raise the bound")
        return coords

    structure = {}
    for i, left in enumerate(reps):
        for j, right in enumerate(reps):
            coords = coordinates(t.product(left, right))
            if coords:
                structure[(i, j)] = coords
    unit = coordinates(t.qb.reduce(t.unit_element()))
    labels = [str(r) for r in reps]
    algebra = FiniteDimAlgebra(field, labels, structure, unit)
    return H0Result(algebra, reps, t.weight_bound, (coh.dims[0], coh_next.dims[0]))
