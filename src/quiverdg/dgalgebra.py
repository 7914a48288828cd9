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


class TruncatedDgAlgebra:
    """Words of weight <= bound with reduced multiplication and differential.

    The internal basis covers every degree the words reach; the window only
    scopes what is reported and classified.  differential_ledger lists the
    words whose differential escaped the weight bound (their columns are
    omitted), and mul_overflow counts composable basis pairs whose product
    escapes, keyed by the degree the product would land in.  word_weight
    maps each basis word to its weight, and word_product memoises the reduced
    products of words for the life of the truncation.
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
        self.word_weight = {w: self.qb.weight_of(w) for w in self.qb.basis}
        self._products = {}
        self.basis_by_degree = {}
        for path in self.qb.basis:
            self.basis_by_degree.setdefault(presentation.degree_of(path), []).append(path)
        self._index = {}
        for degree, words in self.basis_by_degree.items():
            for i, w in enumerate(words):
                self._index[w] = (degree, i)
        self._columns = {}
        self.differential_ledger = []
        for degree in sorted(self.basis_by_degree):
            for word in self.basis_by_degree[degree]:
                free = presentation.d_of_element(PathAlgebraElement.from_path(
                    word, self.field.one()))
                if any(presentation.weight_of(t) > weight_bound for t in free.terms):
                    self.differential_ledger.append(OverflowEntry(
                        "differential", degree, str(word)))
                    self._columns[word] = None
                    continue
                reduced = self.qb.reduce(free)
                self._columns[word] = reduced.terms
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
        for word, (degree, _) in self._index.items():
            key = (word.source, word.target, degree, self.word_weight[word])
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
        top = max(self.word_weight.values(), default=0)
        heaviest_generator = max(self.presentation.weights.values())
        return top + heaviest_generator <= self.weight_bound

    def words(self, degree):
        return list(self.basis_by_degree.get(degree, ()))

    def dims(self):
        return {d: len(words) for d, words in sorted(self.basis_by_degree.items())}

    def reported_dims(self):
        lo, hi = self.window
        return {d: len(self.basis_by_degree.get(d, ())) for d in range(lo, hi + 1)}

    def d_of(self, word):
        """Reduced differential of a basis word as {path: coeff}; None if the
        free differential escaped the weight bound."""
        return self._columns[word]

    def d_element(self, element):
        """Differential of an element supported on basis words; None when any
        support word's column is missing."""
        total = {}
        for word, coeff in element.terms.items():
            col = self._columns.get(word)
            if col is None:
                if word not in self._columns:
                    raise ValueError("%s is not a basis word" % word)
                return None
            for path, c in col.items():
                s = total.get(path)
                s = coeff * c if s is None else s + coeff * c
                if s:
                    total[path] = s
                else:
                    total.pop(path, None)
        return PathAlgebraElement(total)

    def product(self, left, right):
        """Reduced product of two elements; None when a term pair escapes the
        weight bound (mismatched endpoints just multiply to zero).  It is the
        bilinear extension of word_product.
        """
        total = {}
        for p, cp in left.terms.items():
            for q, cq in right.terms.items():
                pq = self.word_product(p, q)
                if pq is None:
                    return None
                vec_axpy(total, cp * cq, pq)
        return PathAlgebraElement(total)

    def word_product(self, p, q):
        """Reduced product of two words as {path: coeff}, memoised on the
        truncation; None when it escapes the weight bound.  The returned dict
        is the memo entry itself and must not be modified.

        When the truncation is certified finite-dimensional the overflow case
        is recovered exactly: q is multiplied onto p one generator at a time,
        and each intermediate product stays under the bound because the
        heaviest reduced word plus one generator does.
        """
        if p.target != q.source:
            return {}
        key = (p, q)
        if key in self._products:
            return self._products[key]
        if self.qb.weight_of(p) + self.qb.weight_of(q) <= self.weight_bound:
            word = Path(p.labels + q.labels, p.source, q.target)
            pq = self.qb.reduce(PathAlgebraElement.from_path(word, self.field.one())).terms
        elif self.certified_finite_dimensional:
            quiver = self.presentation.quiver
            acc = self.qb.reduce(PathAlgebraElement.from_path(p, self.field.one()))
            for label in q.labels:
                acc = self.qb.reduce(acc * PathAlgebraElement.from_path(quiver.path([label])))
            pq = acc.terms
        else:
            pq = None
        self._products[key] = pq
        return pq

    def unit_element(self):
        one = self.field.one()
        return PathAlgebraElement(
            {self.presentation.quiver.trivial(v): one for v in self.presentation.vertices})

    def matrix_between(self, degree):
        """SparseMatrix of d from degree to degree+1 (ledgered columns zero)."""
        source = self.basis_by_degree.get(degree, [])
        target = self.basis_by_degree.get(degree + 1, [])
        m = SparseMatrix(len(target), len(source))
        for j, word in enumerate(source):
            col = self._columns[word]
            if col is None:
                continue
            for path, c in col.items():
                m.set(self._index[path][1], j, c)
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
    never trusted.  Returns a DifferentialReport whose failures list carries
    witnesses; it never raises.
    """
    report = DifferentialReport(0, 0, 0, 0)
    words = [w for d in sorted(t.basis_by_degree) for w in t.basis_by_degree[d]]
    for w in words:
        col = t.d_of(w)
        if col is None:
            report.skipped_words += 1
            continue
        dd = t.d_element(PathAlgebraElement(col))
        if dd is None:
            report.skipped_words += 1
            continue
        report.checked_words += 1
        if not dd.is_zero():
            report.failures.append(("d_squared", str(w), repr(dd)))
    weight = t.word_weight
    # by_source[vertex][degree] lists words in `words` order, so weights
    # ascend within each list and a scan stops at the first too heavy word
    by_source = {}
    for w in words:
        by_source.setdefault(w.source, {}).setdefault(t._index[w][0], []).append(w)
    signs = (t.field.one(), t.field.of(-1))
    for p in words:
        dp = t.d_of(p)
        room = t.weight_bound - weight[p]
        sign = signs[t._index[p][0] % 2]
        for run in by_source.get(p.target, {}).values():
            for q in run:
                if weight[q] > room:
                    break
                dq = t.d_of(q)
                if dp is None or dq is None:
                    report.skipped_pairs += 1
                    continue
                lhs = t.d_element(PathAlgebraElement(t.word_product(p, q)))
                rhs = None if lhs is None else _leibniz_rhs(t, p, q, dp, dq, sign)
                if rhs is None:
                    report.skipped_pairs += 1
                    continue
                report.checked_pairs += 1
                if lhs.terms != rhs:
                    report.failures.append(("leibniz", str(p), str(q)))
    return report


def _leibniz_rhs(t, p, q, dp, dq, sign):
    """(dp)q + sign p(dq) as {path: coeff}; None when a product escapes."""
    rhs = {}
    for u, cu in dp.items():
        piece = t.word_product(u, q)
        if piece is None:
            return None
        vec_axpy(rhs, cu, piece)
    for v, cv in dq.items():
        piece = t.word_product(p, v)
        if piece is None:
            return None
        vec_axpy(rhs, sign * cv, piece)
    return rhs


class CohomologyResult:
    """Per-degree cohomology of a truncation, with representatives.

    Dimensions are exact for the truncated complex; they equal the full
    algebra's cohomology wherever the caller's window and ledger discipline
    guarantee the truncation is faithful.
    """

    def __init__(self, truncation, window, dims, representatives, rep_vectors):
        self.truncation = truncation
        self.window = window
        self.dims = dims
        self.representatives = representatives
        self._rep_vectors = rep_vectors
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
        solver, image_count = self._solver_for(landing)
        vec = {t._index[w][1]: c for w, c in product.terms.items()}
        expression = solver.express(vec)
        if expression is None:
            raise RuntimeError(
                "product of cocycles is not a cocycle within the truncation; "
                "the weight bound is too small to decide degree %d" % landing)
        return {k - image_count: c for k, c in expression.items() if k >= image_count}

    def _solver_for(self, degree):
        if degree not in self._solvers:
            t = self.truncation
            solver = SpanSolver()
            count = 0
            for word in t.basis_by_degree.get(degree - 1, ()):
                col = t.d_of(word)
                if col:
                    solver.add({t._index[w][1]: c for w, c in col.items()})
                    count += 1
            for vec in self._rep_vectors.get(degree, ()):
                solver.add(dict(vec))
            self._solvers[degree] = (solver, count)
        return self._solvers[degree]


def cohomology(t, safe_window, strict=False):
    """Exact cohomology of the truncated complex on the given window.

    UnsafeWindow is raised when the differential ledger intersects the
    window (strict=True widens the check to one degree on each side, which
    makes the boundary maps provably complete as well).  With strict=False
    the incoming image at the bottom edge may be undercounted when the
    ledger has entries just below the window; for weight-graded differentials
    the ledger is empty and both modes agree.
    """
    lo, hi = safe_window
    if lo > hi:
        raise ValueError("empty cohomology window [%s, %s]" % (lo, hi))
    check_lo, check_hi = (lo - 1, hi + 1) if strict else (lo, hi)
    touched = sorted({e.degree for e in t.differential_ledger
                      if check_lo <= e.degree <= check_hi})
    if touched:
        raise UnsafeWindow(touched,
                           "differential overflow at degrees %s inside window [%d, %d]"
                           % (touched, lo, hi))
    for degree in range(lo - 1, hi + 1):
        for word in t.basis_by_degree.get(degree, ()):
            col = t.d_of(word)
            if col is None:
                continue
            square = t.d_element(PathAlgebraElement(col))
            if square is None:
                continue
            if not square.is_zero():
                raise DSquaredNonzero(degree, str(word))
    dims = t.dims()
    matrices = {d: t.matrix_between(d) for d in range(lo - 1, hi + 1)}
    raw = cohomology_of_complex(dims, matrices, (lo, hi), t.field, verify=False)
    out_dims = {}
    representatives = {}
    rep_vectors = {}
    for degree in range(lo, hi + 1):
        dim, reps = raw[degree]
        out_dims[degree] = dim
        words = t.basis_by_degree.get(degree, [])
        representatives[degree] = [
            PathAlgebraElement({words[i]: c for i, c in vec.items()}) for vec in reps]
        rep_vectors[degree] = [dict(vec) for vec in reps]
    return CohomologyResult(t, (lo, hi), out_dims, representatives, rep_vectors)


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
        and all(len({t.presentation.weight_of(p) for p in r.terms}) == 1
                for r in t.presentation.relations))

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
    solver, image_count = coh._solver_for(0)

    def coordinates(element):
        if element is None:
            raise NotStabilized(
                "representative product escapes weight bound %d; raise it"
                % t.weight_bound)
        vec = {t._index[w][1]: c for w, c in element.terms.items()}
        expression = solver.express(vec)
        if expression is None:
            raise NotStabilized(
                "element does not lie in the computed cocycle span; raise the bound")
        return {k - image_count: c for k, c in expression.items() if k >= image_count}

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
