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

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter

from .fields import GroundField
from .linalg import (
    DSquaredNonzero,
    _cohomology_ranks,
    _cohomology_representatives,
    _kernel_basis,
    native_scalars,
)
from .quiver import (
    PathAlgebraElement,
    QuiverPresentation,
    _LazyList,
    _Level,
    _paths,
    _word_name,
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
    word weight.  The differential is also kept as a signed letter table in
    native scalars, from which d_of_element and every realized column are
    summed.
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
        # the signed letter table: for each generator with a differential,
        # its terms as (labels, native coefficient), the coefficient as it
        # stands after an even prefix degree and negated after an odd one;
        # and the degree parity of every generator
        self._scalars = scalars = native_scalars(self.field)
        self._signed = {
            name: ([(t.labels, scalars.native(c)) for t, c in value.terms.items()],
                   [(t.labels, scalars.native(-c)) for t, c in value.terms.items()])
            for name, value in self.differential.items()}
        self._odd = {a.name: a.degree % 2 for a in self.generators}

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
        """Free Leibniz extension of the generator differential (no
        reduction), summed over the signed letter table by _leibniz_into.
        The coefficients are taken in as native scalars, and the result
        holds field scalars."""
        native, public = self._scalars.native, self._scalars.public
        total = {}
        for word, coeff in element.terms.items():
            self._leibniz_into(total, word.labels, native(coeff))
        path = self.quiver.path
        return PathAlgebraElement({path(labels): public(c) for labels, c in total.items()})

    def _leibniz_into(self, total, labels, coeff=None):
        """Add coeff * d(w), for the word w with these labels, into total,
        which is keyed by label tuples, and return total; coeff None stands
        for one and spares the multiplication.  coeff, total and the table
        coefficients hold native scalars.

        d(w) is the sum over the letters of w, left to right, of the word
        with that letter replaced by each term of its differential, in term
        order, with the table coefficient for the parity of the degree of
        the letters before it.  A sum that cancels to zero is dropped.
        """
        signed, odd, add = self._signed, self._odd, self._scalars.add_term
        parity = 0
        for i, label in enumerate(labels):
            terms = signed.get(label)
            if terms is not None:
                head, tail = labels[:i], labels[i + 1:]
                for middle, c in terms[parity]:
                    key = head + middle + tail
                    if coeff is None and key not in total:
                        total[key] = c  # a table coefficient is nonzero and reduced
                    else:
                        add(total, key, c if coeff is None else coeff * c)
            parity ^= odd[label]
        return total


@dataclass
class OverflowEntry:
    kind: str
    degree: int
    word: str


_UNSET = object()


class TruncatedDgAlgebra:
    """Words of weight <= bound with reduced multiplication and differential.

    The internal basis covers every degree the words reach; the window only
    scopes what is reported and classified.  differential_ledger lists the
    words whose differential escaped the weight bound (their columns are
    omitted), and mul_overflow counts composable basis pairs whose product
    escapes, keyed by the degree the product would land in.

    Inside the truncation each basis word is numbered once: its id is its
    position in degree-major basis order (degrees ascending, basis order
    within a degree), so the words of one degree have consecutive ids.  Ids,
    weights, degrees, columns and mul_overflow are read off the quotient
    basis's word records (labels, source, target, weight, degree), which its
    word walk lists in (weight, labels) order with each word's prefix;
    sorted stably by degree they are kept in id order as _records.  The
    differential columns and the product memo are stored on ids as {id:
    coeff}, with each id's weight and degree in lists, and
    verify_differential, cohomology and matrix_between work on the columns
    without building or hashing a path.  Each list of basis_by_degree is a read-only
    lazy list that builds its Paths from the records on first read, and
    _words, the Paths in id order, joins those lists.  d_of, d_element,
    word_product and product are the path-level views; the path -> id map
    they use is built on first use.

    Columns and products hold native scalars of the field (see linalg's
    native_scalars): over Q an int, or a Fraction when the value is not
    integral; over F_p an int in range(p).  Every view hands out Fraction or
    FpElement coefficients: d_of, d_element, product, word_product and
    matrix_between.

    Each word's column is its free differential, with the values and key
    order of the presentation's _leibniz_into on its native letter table
    (the same dict operations as d_of_element).  Most columns are summed
    from their prefix's column through a (prefix id, letter) -> id table,
    the prefix ids coming from the walk, so no prefix is sliced off or
    looked up by its labels (see _prefix_columns), with or without
    relations.  When every surviving term is a basis word the column is
    kept on ids as it is: no basis word is a pivot column of the quotient
    basis, so reduction would return those terms unchanged.  A word is
    ledgered, with no column, exactly when a surviving term escapes the
    weight bound (terms that cancel do not count).  Any other word has an
    in-bound term off the basis, and its differential is reduced.

    Products of two words, read through product and word_product, are
    memoised for the life of the truncation.  When the concatenation fits
    the bound and is itself a basis word, which is exactly when its column
    of the quotient basis is not a pivot, reduction would return it
    unchanged, so its product is taken to be that word with coefficient
    one; every other product is reduced (_multiply, the one product
    reducer).  verify_differential fills no memo: it reads products off
    rows that live for its call, summed along each word's prefix through
    _step (see _product_rows).  Every reduction, of a column, of a product
    or of a relation's differential, runs on label tuples in native scalars
    through the quotient basis's _reduced, and its terms are mapped to ids
    through the labels -> id map, so no path is built.
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
        # the basis word records, (labels, source, target, weight, degree),
        # in the walk's (weight, labels) order; sorted stably by degree they
        # are in id order, order[i] being the position of word i
        records = self.qb._records
        degrees = list(map(itemgetter(4), records))
        order = sorted(range(len(records)), key=degrees.__getitem__)
        self._records = words = list(map(records.__getitem__, order))
        self._degree = list(map(degrees.__getitem__, order))
        self._weight = list(map(itemgetter(3), words))
        ids = {d: range(bisect_left(self._degree, d), bisect_right(self._degree, d))
               for d in sorted(set(degrees))}
        self._start = {d: r.start for d, r in ids.items()}
        # keyed in the order each degree first occurs among the records: the
        # stable sort keeps each degree's positions ascending
        self.basis_by_degree = {
            d: _LazyList(len(ids[d]), partial(_paths, words, ids[d].start, ids[d].stop))
            for d in sorted(ids, key=lambda d: order[ids[d].start])}
        # the paths of every id, the degree lists joined in id order, so a
        # word read through both is one Path
        self._words = _LazyList(len(words), partial(list, chain.from_iterable(
            map(self.basis_by_degree.__getitem__, self._start))))
        self._scalars = native_scalars(self.field)
        self._products = [None] * len(words)
        self._units = {}
        # ids of the non-trivial words by labels
        self._by_labels = {record[0]: i for i, record in enumerate(words) if record[0]}
        self._columns = self._prefix_columns(order)
        self.differential_ledger = [
            OverflowEntry("differential", self._degree[i], self._name(i))
            for i, col in enumerate(self._columns) if col is None]
        self.mul_overflow = self._count_mul_overflow(words)
        self.certified_finite_dimensional = self._certify_finite_dimensional()

    def _word_column(self, record):
        """The column of one word, from its free differential; None when it
        is ledgered."""
        p, ids = self.presentation, self._by_labels
        free = p._leibniz_into({}, record[0])
        col = {}
        for term, c in free.items():
            k = ids.get(term)
            if k is None:
                break
            col[k] = c
        else:
            return col
        weight = self.qb._rewriting.weight
        if any(weight(term) > self.weight_bound for term in free if term not in ids):
            return None
        return self._ids_on_labels(self.qb._reduced(free))

    def _prefix_columns(self, order):
        """The columns, by id.

        order[i] is the position of word i among the quotient basis's
        records, whose walk gives each word's prefix labels[:-1] as a
        position there (see quiver._WordWalk).  In that (weight, labels)
        order each word's prefix comes before the word, and its column is
        summed from the prefix's column by _extended_column through the
        (prefix id, letter) -> id table _step.  Only a column summed so is a
        seed for its word's extensions: it is that word's free differential,
        while a reduced column lists its normal form in another key order.
        A word takes _word_column, which decides the ledger and reduces, when
        its prefix is not a basis word (a rule of slack > 0 can put w a on
        the basis and w off it), when its prefix's column is no seed, or when
        a term of the recurrence is not a basis word.  _at, the id of each
        position, _prefix, the id of each word's prefix (None for a trivial
        word or a prefix off the basis), and _step are kept for
        _h0_of_weight_slice and for verify_differential's product rows.
        """
        words, n = self._records, len(self._records)
        at = self._at = sorted(range(n), key=order.__getitem__)
        positions = self.qb._walk.prefix
        prefix = self._prefix = [
            None if k is None else at[k] for k in map(positions.__getitem__, order)]
        step = self._step = [None] * n  # step[i]: {letter: id of word i followed by it}
        for i, p in enumerate(prefix):
            if p is not None:
                row = step[p]
                if row is None:
                    row = step[p] = {}
                row[words[i][0][-1]] = i
        columns = [None] * n
        seeds = [None] * n
        for i in at:
            labels = words[i][0]
            if not labels:
                columns[i] = seeds[i] = {}
                continue
            p = prefix[i]
            seed = None if p is None else seeds[p]
            col = None if seed is None else self._extended_column(seed, p, labels[-1], step)
            if col is None:
                columns[i] = self._word_column(words[i])
            else:
                columns[i] = seeds[i] = col
        return columns

    def _extended_column(self, seed, p, letter, into):
        """The free differential of word p followed by letter, as {id:
        coeff}, summed from seed, the free differential of word p, or None
        when a term is missing from the tables.

        col(w a) = col(w) a + (-1)^|w| w d(a), summed with the dict
        operations of _leibniz_into on the presentation's signed letter
        table, so values and key order match it.  A word w of the truncation
        is extended by a letter through _step, except that the last letter
        of each term steps through into[id] ({letter: key}): _step itself
        inside the truncation, or the table of a heavier slice of words.
        Every term of a differential has a letter, since the presentation
        rejects a vertex term.
        """
        col = {}
        for term, c in seed.items():
            row = into[term]
            k = None if row is None else row.get(letter)
            if k is None:
                return None
            col[k] = c
        terms = self.presentation._signed.get(letter)
        if terms is None:
            return col
        step, add = self._step, self._scalars.add_term
        for middle, c in terms[self._degree[p] % 2]:
            k = p
            for name in middle[:-1]:
                row = step[k]
                k = None if row is None else row.get(name)
                if k is None:
                    return None
            row = into[k]
            k = None if row is None else row.get(middle[-1])
            if k is None:
                return None
            if k in col:
                add(col, k, c)
            else:
                col[k] = c  # a table coefficient is nonzero and reduced
        return col

    @cached_property
    def _id(self):
        """The id of each basis word, by path; built on first use."""
        return {w: i for i, w in enumerate(self._words)}

    def _name(self, i):
        """str of word i, read off its record."""
        return _word_name(*self._records[i][:2])

    def _check_relation_differentials(self):
        p, weight = self.presentation, self.qb._rewriting.weight
        native, public, path = p._scalars.native, p._scalars.public, p.quiver.path
        for r in p.relations:
            dr = {}
            for word, c in r.terms.items():
                p._leibniz_into(dr, word.labels, native(c))
            if not dr or any(weight(t) > self.weight_bound for t in dr):
                continue  # zero, or not checkable at this bound
            residue = self.qb._reduced(dr)
            if residue:
                raise InconsistentPresentation(
                    "d of relation %r leaves the relation ideal: residue %r"
                    % (r, PathAlgebraElement({path(t): public(c) for t, c in residue.items()})))

    def _count_mul_overflow(self, words):
        """{landing degree: composable word pairs whose weights sum past the
        bound}, counted from (target, degree, weight) classes of left words
        against, per start vertex and degree, how many right words are at
        least each weight."""
        bound = self.weight_bound
        histogram = Counter(map(itemgetter(1, 2, 3, 4), words))
        ending = {}
        heavier = {}  # source -> degree -> [words of weight >= w for w in 0..bound+1]
        for (source, target, weight, degree), n in histogram.items():
            key = (target, degree, weight)
            ending[key] = ending.get(key, 0) + n
            counts = heavier.setdefault(source, {}).get(degree)
            if counts is None:
                counts = heavier[source][degree] = [0] * (bound + 2)
            counts[weight] += n
        for by_degree in heavier.values():
            for counts in by_degree.values():
                for w in range(bound, -1, -1):
                    counts[w] += counts[w + 1]
        overflow = {}
        for (target, d1, w1), n1 in ending.items():
            for d2, counts in heavier.get(target, {}).items():
                n2 = counts[bound - w1 + 1]
                if n2:
                    overflow[d1 + d2] = overflow.get(d1 + d2, 0) + n1 * n2
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

    def _ids_on_labels(self, vec):
        """{id: coeff} of a vector on the labels of non-trivial basis words."""
        ids = self._by_labels
        return {ids[labels]: c for labels, c in vec.items()}

    def _paths_of(self, vec):
        """{path: coeff} of {id: native coeff}, with field scalars."""
        public, words = self._scalars.public, self._words
        return {words[i]: public(c) for i, c in vec.items()}

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
        columns, axpy = self._columns, self._scalars.axpy
        for i, coeff in vec.items():
            col = columns[i]
            if col is None:
                return None
            axpy(total, coeff, col)
        return total

    def d_element(self, element):
        """Differential of an element supported on basis words; None when any
        support word's column is missing."""
        native = self._scalars.native
        total = self._d({self._word_id(w): native(c) for w, c in element.terms.items()})
        return None if total is None else PathAlgebraElement(self._paths_of(total))

    def product(self, left, right):
        """Reduced product of two elements supported on basis words; None
        when a term pair escapes the weight bound (mismatched endpoints just
        multiply to zero).  It is the bilinear extension of word_product.
        """
        native, word_id = self._scalars.native, self._word_id
        total = self._product_on_ids(
            ((word_id(p), native(cp)) for p, cp in left.terms.items()),
            [(word_id(q), native(cq)) for q, cq in right.terms.items()])
        return None if total is None else PathAlgebraElement(self._paths_of(total))

    def _product_on_ids(self, left, right):
        """product on native (id, coeff) pairs, left an iterable and right a
        list, as {id: coeff}; None when a word product escapes."""
        product, axpy = self._product, self._scalars.axpy
        total = {}
        for i, cp in left:
            for j, cq in right:
                pq = product(i, j)
                if pq is None:
                    return None
                axpy(total, cp * cq, pq)
        return total

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
        (labels, _, target, weight, _), q = self._records[i], self._records[j]
        if target != q[1]:
            return {}
        if weight + q[3] <= self.weight_bound:
            if not q[0]:
                k = i
            elif not labels:
                k = j
            else:
                k = self._by_labels.get(labels + q[0])
            if k is None:
                return self._ids_on_labels(self.qb._reduced({labels + q[0]: 1}))
            unit = self._units.get(k)
            if unit is None:
                unit = self._units[k] = {k: 1}
            return unit
        if not self.certified_finite_dimensional:
            return None
        acc = {labels: 1}
        for label in q[0]:
            acc = self.qb._reduced({word + (label,): c for word, c in acc.items()})
        return self._ids_on_labels(acc)

    def unit_element(self):
        one = self.field.one()
        return PathAlgebraElement(
            {self.presentation.quiver.trivial(v): one for v in self.presentation.vertices})

    def matrix_between(self, degree):
        """SparseMatrix of d from degree to degree+1 (ledgered columns zero)."""
        return self._scalars.public_matrix(len(self._ids_in(degree + 1)),
                                           self._position_columns(degree))

    def _position_columns(self, degree):
        """The columns of matrix_between(degree), as new {row: coeff} dicts
        in native scalars, the rows being positions within degree + 1; the
        ranks step's columns_of and the kernel step's input."""
        start, columns = self._ids_in(degree + 1).start, self._columns
        return [{} if columns[i] is None else {k - start: c for k, c in columns[i].items()}
                for i in self._ids_in(degree)]


def realize(presentation, window, weight_bound):
    """Materialize the presentation on words of weight <= weight_bound.

    The window scopes reporting; an inverted window (lo > hi) is allowed and
    reports nothing.  InconsistentPresentation is raised when a relation
    differential leaves the relation ideal within the bound.  The words are
    listed by one in-order walk, as label-tuple records in (weight, labels)
    order with no sort, each with its prefix; columns are summed from their
    prefixes' columns, and columns and products are reduced on label
    tuples, with relations as without (see TruncatedDgAlgebra).  h0_algebra
    does not call realize again at L + 1 for a presentation with no
    relations whose differential preserves weight: there the truncation at
    L + 1 is this one plus the words of weight exactly L + 1, a direct
    summand, which is the walk's next level, so it builds only that slice.
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


def _product_rows(t):
    """A builder of the product rows of the truncation t, for one
    verify_differential call.

    row(i) is {j: i*j} for every word j that starts at the target of i and
    fits the room L - weight(i), an entry being an id when the product is
    one basis word with coefficient one and the _multiply dict otherwise.
    The words are read in walk order, so each word's prefix (the
    truncation's prefix ids) comes before it, and the row follows
    i*(p a) = (i*p) a: a trivial j gives i itself, and when the entry of
    the prefix p is an id k whose word followed by a, the last letter of j,
    is a basis word (_step[k][a]), that word is the entry.  Every other
    entry is reduced by _multiply.

    An entry carried so equals _multiply's.  When k is the concatenation of
    i and p, k a is the concatenation of i and j and a basis word.  When k
    is a reduced product, i p - k is a sum of c u g v over Groebner elements
    g with u LM(g) v no heavier than i p; if every g has slack 0, its terms
    weigh at most its leading word, so each c u g v a lies in the span V_L
    that reduction works modulo, and i p a reduces to k a (Bergman's
    diamond lemma).  A rule of slack s > 0 rewrites u LM(g) v only when it
    weighs at most L - s, which u LM(g) v a need not, so under such a rule
    a reduced product is kept as its dict and never carried; only the
    concatenations and the trivial words are.
    """
    records, weight, prefix, step, multiply = (
        t._records, t._weight, t._prefix, t._step, t._multiply)
    starting = {}  # vertex -> the ids of the words starting there, in walk order
    for j in t._at:
        starting.setdefault(records[j][1], []).append(j)
    last = [record[0][-1] if record[0] else None for record in records]
    carry = not any(slack for slack, _ in t.qb._rewriting.rules.values())

    def row(i):
        room = t.weight_bound - weight[i]
        out = {}
        for j in starting.get(records[i][2], ()):
            if weight[j] > room:
                break
            p = prefix[j]
            if p is not None:
                k = out[p]
                if k.__class__ is int:
                    k = step[k]
                    if k is not None:
                        k = k.get(last[j])
                        if k is not None:
                            out[j] = k
                            continue
            elif last[j] is None:
                out[j] = i
                continue
            pq = multiply(i, j)
            if carry and len(pq) == 1:
                [(k, c)] = pq.items()
                if c == 1:
                    out[j] = k
                    continue
            out[j] = pq
        return out
    return row


def verify_differential(t):
    """Recompute d*d = 0 and the Leibniz rule on all in-bounds data.

    The Leibniz pass visits only the composable pairs (p, q) whose total
    weight fits the bound, in basis order.  Words and pairs whose
    differentials or products escape the weight bound are skipped (counted),
    never trusted.  Both passes run on the truncation's word records and
    its id-keyed columns, in native scalars; a word is named only in a
    failure.

    Products come from product rows (see _product_rows), built on first
    read and dropped once their word is done, so they live only for the
    call and the truncation's product memo is neither read nor filled.  The
    row of p holds p*q for every q that fits its room, filled in walk order
    from the row entry of q's prefix: p*(q' a) = (p*q') a, by associativity
    in the truncated quotient, is read off the (id, letter) -> id table
    _step when p*q' is one basis word k with coefficient one and k a is a
    basis word too (under a rule of slack > 0, only when k is the
    concatenation of p and q'); only the other products are reduced,
    through _multiply.  A
    product that is an id has that word's column as its differential.  The
    right side (dp)q + (-1)^|p| p(dq) reads the rows of the terms of dp
    and of p, and a product past a row's room (a differential that raises
    weight) is taken from _multiply and kept in that row.  A one-word piece
    whose key is not yet on the right side is stored as it is, its
    coefficient already reduced (negated with the field's neg).
    Returns a DifferentialReport whose failures list carries witnesses; it
    never raises.
    """
    report = DifferentialReport(0, 0, 0, 0)
    records, columns, weight, degree = t._records, t._columns, t._weight, t._degree
    for i, col in enumerate(columns):
        dd = None if col is None else t._d(col)
        if dd is None:
            report.skipped_words += 1
            continue
        report.checked_words += 1
        if dd:
            report.failures.append(
                ("d_squared", t._name(i), repr(PathAlgebraElement(t._paths_of(dd)))))
    # runs_at[vertex] lists, per degree, the ids of the words starting there
    # in id order, so weights ascend within a run and a scan stops at the
    # first too heavy word
    by_source = {}
    for i, record in enumerate(records):
        by_source.setdefault(record[1], {}).setdefault(record[4], []).append(i)
    runs_at = {v: list(runs.values()) for v, runs in by_source.items()}
    # rows[i] is the product row of word i, built on first read; it also
    # keeps the products past the room of i that a differential raising
    # weight asks for, as _multiply returns them (None when one escapes).
    # Row i is read for the pairs (i, j) and, since d raises degree by one
    # and ids ascend with degree, for pairs of words of lower id only, so it
    # is dropped once i is done
    rows, row_of = [None] * len(records), _product_rows(t)
    multiply, d = t._multiply, t._d
    add_term, axpy, neg = t._scalars.add_term, t._scalars.axpy, t._scalars.neg
    for i, record in enumerate(records):
        dp = columns[i]
        room = t.weight_bound - weight[i]
        odd = degree[i] % 2
        row = rows[i]
        if row is None and dp is not None:
            row = rows[i] = row_of(i)
        for run in runs_at.get(record[2], ()):
            for j in run:
                if weight[j] > room:
                    break
                dq = columns[j]
                if dp is None or dq is None:
                    report.skipped_pairs += 1
                    continue
                pq = row[j]
                lhs = columns[pq] if pq.__class__ is int else d(pq)
                if lhs is None:
                    report.skipped_pairs += 1
                    continue
                # rhs = (dp)q + (-1)^odd p(dq), None when a product escapes
                rhs = {}
                for u, cu in dp.items():
                    pieces = rows[u]
                    if pieces is None:
                        pieces = rows[u] = row_of(u)
                    piece = pieces.get(j, _UNSET)
                    if piece is _UNSET:
                        piece = pieces[j] = multiply(u, j)
                    if piece.__class__ is int:
                        if piece in rhs:
                            add_term(rhs, piece, cu)
                        else:
                            rhs[piece] = cu
                    elif piece is None:
                        rhs = None
                        break
                    else:
                        axpy(rhs, cu, piece)
                if rhs is not None:
                    for v, cv in dq.items():
                        piece = row.get(v, _UNSET)
                        if piece is _UNSET:
                            piece = row[v] = multiply(i, v)
                        if odd:
                            cv = neg(cv)
                        if piece.__class__ is int:
                            if piece in rhs:
                                add_term(rhs, piece, cv)
                            else:
                                rhs[piece] = cv
                        elif piece is None:
                            rhs = None
                            break
                        else:
                            axpy(rhs, cv, piece)
                if rhs is None:
                    report.skipped_pairs += 1
                    continue
                report.checked_pairs += 1
                if lhs != rhs:
                    report.failures.append(("leibniz", t._name(i), t._name(j)))
        rows[i] = None
    return report


class CohomologyResult:
    """Per-degree cohomology of a truncation, with representatives.

    Dimensions are exact for the truncated complex; they equal the full
    algebra's cohomology wherever the caller's window and ledger discipline
    guarantee the truncation is faithful.  class_coordinates reads the class
    of a cocycle off the representatives; product, h0_algebra and the
    reflexivity splitting check all go through it.

    cohomology fills dims and the image RowSpaces from ranks alone.  The
    representatives, and the pivot order class_coordinates and product
    read, are built the first time one of them is read, from the kernels of
    the truncation's native position-keyed columns, taken then; they are
    the ones an eager computation would give, in the same order and with
    the same scalars.
    """

    def __init__(self, truncation, window, dims, images):
        self.truncation = truncation
        self.window = window
        self.dims = dims
        self._images = images

    @cached_property
    def _native(self):
        """{degree: representative vectors}, keyed by position within the
        degree, in native scalars."""
        t = self.truncation
        return {degree: _cohomology_representatives(
                    _kernel_basis(len(t.basis_by_degree.get(degree, ())),
                                  t._position_columns(degree), t.field),
                    self._images[degree], t.field, dim) if dim else []
                for degree, dim in self.dims.items()}

    @cached_property
    def representatives(self):
        """{degree: [PathAlgebraElement]} with field scalars."""
        t = self.truncation
        public = t._scalars.public
        out = {}
        for degree, reps in self._native.items():
            words = t.basis_by_degree.get(degree, [])
            out[degree] = [
                PathAlgebraElement({words[i]: public(c) for i, c in vec.items()}) for vec in reps]
        return out

    @cached_property
    def _pivoted(self):
        """{degree: [(min(vec), index, vec)] in pivot order}, vec native."""
        return {degree: sorted((min(vec), k, vec) for k, vec in enumerate(reps))
                for degree, reps in self._native.items()}

    def product(self, deg_left, i, deg_right, j):
        """Coordinates of reps[deg_left][i] * reps[deg_right][j] on the
        representatives in the landing degree; None when the product escapes
        the weight bound."""
        landing = deg_left + deg_right
        if not (self.window[0] <= landing <= self.window[1]):
            raise ValueError("landing degree %d outside window %s" % (landing, self.window))
        product = self._product(deg_left, i, deg_right, j)
        if product is None:
            return None
        coords = self._class_of(landing, product)
        if coords is None:
            raise RuntimeError(
                "product of cocycles is not a cocycle within the truncation; "
                "the weight bound is too small to decide degree %d" % landing)
        return self.truncation._scalars.public_vec(coords)

    def _product(self, deg_left, i, deg_right, j):
        """reps[deg_left][i] * reps[deg_right][j] as {position within the
        landing degree: native coeff}, or None when a word product escapes:
        the truncation's product of the two representatives, on ids."""
        start = self.truncation._start
        left, right = self._native[deg_left][i], self._native[deg_right][j]
        left_start, right_start = start.get(deg_left, 0), start.get(deg_right, 0)
        total = self.truncation._product_on_ids(
            ((left_start + p, c) for p, c in left.items()),
            [(right_start + q, c) for q, c in right.items()])
        if total is None:
            return None
        landing_start = start.get(deg_left + deg_right, 0)
        return {k - landing_start: c for k, c in total.items()}

    def class_coordinates(self, degree, element):
        """{representative index: coeff} of the class of an element of a
        window degree, supported on basis words, against representatives
        [degree]; None when the element is not in the span of the image of
        d and the representatives.  The coefficients are field scalars (see
        _class_of)."""
        scalars = self.truncation._scalars
        coords = self._class_of(
            degree, scalars.native_vec(self.truncation._coordinates(element)))
        return None if coords is None else scalars.public_vec(coords)

    def _class_of(self, degree, residue):
        """class_coordinates of a native vector keyed by position within the
        degree, in native scalars; residue is reduced in place.

        It is reduced by the image RowSpace of the degree.  The
        representatives are zero at every image pivot, so what is left is
        their combination.  It is read off by forward substitution in order
        of each representative's pivot min(rep), where no representative
        with a later pivot is nonzero, and the keys come in that order.
        """
        image = self._images[degree]
        scalars = image._scalars
        residue = image._reduce(residue)
        coords = {}
        for pivot, k, rep in self._pivoted[degree]:
            c = residue.get(pivot)
            if c is not None:
                coords[k] = c = scalars.quotient(c, rep[pivot])
                scalars.axpy(residue, -c, rep)
        return None if residue else coords


def _weight_homogeneous_relations(presentation):
    return all(
        len({presentation.weight_of(p) for p in r.terms}) == 1
        for r in presentation.relations)


def _gate(ledger_degrees, safe_window, strict, overflow):
    """Check a cohomology window against the degrees of a truncated
    complex's differential ledger.  UnsafeWindow, naming the overflow, is
    raised when the ledger meets the window (strict=True widens the check to
    one degree on each side), and ValueError when the window is empty.
    """
    lo, hi = safe_window
    if lo > hi:
        raise ValueError("empty cohomology window [%s, %s]" % (lo, hi))
    check_lo, check_hi = (lo - 1, hi + 1) if strict else (lo, hi)
    touched = sorted(d for d in ledger_degrees if check_lo <= d <= check_hi)
    if touched:
        raise UnsafeWindow(touched, "%s overflow at degrees %s inside window [%d, %d]"
                           % (overflow, touched, lo, hi))


def cohomology(t, safe_window, strict=False):
    """Exact cohomology of the truncated complex on the given window.

    UnsafeWindow is raised when the differential ledger intersects the
    window (strict=True widens the check to one degree on each side, which
    makes the boundary maps provably complete as well).  With strict=False
    the incoming image at the bottom edge may be undercounted when the
    ledger has entries just below the window; for weight-graded differentials
    the ledger is empty and both modes agree.  d*d is checked on the words
    of degrees lo - 1 to hi; DSquaredNonzero names the first failing word.
    The ranks step of cohomology_of_complex decides it for degrees lo - 1 to
    hi - 1; the words of degree hi, whose squares land outside the window,
    are squared directly.

    Only the ranks step runs here, on the truncation's columns: the gate,
    the image RowSpaces, the d o d checks and the dims are done, and both
    exceptions raised, before the result is returned.  The representatives
    step runs the first time the result's representatives,
    class_coordinates or product are read (see CohomologyResult), so a
    caller that reads only dims takes no kernel and builds no matrix.
    """
    _gate({e.degree for e in t.differential_ledger}, safe_window, strict, "differential")
    try:
        dims, images = _cohomology_ranks(t.dims(), t._position_columns, safe_window, t.field)
    except DSquaredNonzero as err:
        raise DSquaredNonzero(err.degree, t._name(t._start[err.degree] + err.witness)) from None
    lo, hi = safe_window
    for i in t._ids_in(hi):
        col = t._columns[i]
        square = None if col is None else t._d(col)
        if square:
            raise DSquaredNonzero(hi, t._name(i))
    return CohomologyResult(t, (lo, hi), dims, images)


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


def _h0_of_weight_slice(t):
    """dim H^0 of the words of weight exactly L + 1, L the weight bound of t.

    Only for a presentation with no relations whose differential preserves
    weight: there every path is a basis word and d maps the words of one
    weight to words of that weight, so this slice is a direct summand of
    the truncation at L + 1 and the rest of it is the truncation at L.  Its
    words of degrees -1 to 2 are the next level of the truncation's word
    walk, in labels order within each degree, and each one's prefix is a
    word of the truncation.  Their columns are summed by the truncation's
    own prefix recurrence (_extended_column), seeded by its columns, which
    are every word's free differential here; the last letter of each term
    steps into the slice.  They are fed to the ranks step of
    cohomology_of_complex as cohomology feeds a truncation: the same rank
    check of d o d into degree 0, then the square of each degree-0 word.
    The slice's words come after the lighter ones in each degree of the
    truncation at L + 1, whose lighter words passed these checks at L, so
    DSquaredNonzero names the word the truncation at L + 1 would name.
    """
    at = t._at
    words = {-1: [], 0: [], 1: [], 2: []}  # the slice's records, by degree
    prefixes = {-1: [], 0: [], 1: []}  # (prefix id, last letter) of each
    into = [None] * len(at)  # id -> {letter: position of the slice word}
    walk = t.qb._walk
    level = _Level(walk)
    walk.level(t.weight_bound + 1, level, range(-1, 3))
    for record, k in zip(level.records, level.prefix):
        degree, letter, p = record[4], record[0][-1], at[k]
        row = into[p]
        if row is None:
            row = into[p] = {}
        row[letter] = len(words[degree])
        words[degree].append(record)
        if degree < 2:
            prefixes[degree].append((p, letter))
    columns = {degree: [t._extended_column(t._columns[p], p, letter, into)
                        for p, letter in pairs]
               for degree, pairs in prefixes.items()}

    def name(degree, k):
        return _word_name(*words[degree][k][:2])

    try:
        # the ranks step reduces the columns it is given, and columns[0] is
        # read again below, so it is handed copies
        dims, _ = _cohomology_ranks({0: len(words[0])},
                                    lambda degree: [dict(col) for col in columns[degree]],
                                    (0, 0), t.field)
    except DSquaredNonzero as err:
        raise DSquaredNonzero(err.degree, name(err.degree, err.witness)) from None
    axpy = t._scalars.axpy
    for k, col in enumerate(columns[0]):
        square = {}
        for i, c in col.items():
            axpy(square, c, columns[1][i])
        if square:
            raise DSquaredNonzero(0, name(0, k))
    return dims[0]


def h0_algebra(t):
    """H^0 as a structure-constant algebra, or NotStabilized.

    The dimension must agree between the given weight bound L and L+1
    (recorded), and every representative product must stay inside the bound;
    otherwise the caller is told to raise L.  For a presentation with no
    relations whose differential preserves weight (is_weight_graded), the
    truncation at L + 1 is the one at L plus the subcomplex of the words of
    weight exactly L + 1, so dim H^0 at L + 1 is read as the dimension at L
    plus that slice's (see _h0_of_weight_slice); this is exact, not an
    estimate.  The slice is the next level of the truncation's own word
    walk, its columns summed from the truncation's, so no word of weight
    <= L is walked or summed again.  Any other presentation is realized
    again at L + 1.
    """
    from .algebras import FiniteDimAlgebra

    coh = cohomology(t, (0, 0))
    p = t.presentation
    if not p.relations and p.is_weight_graded():
        next_dim = coh.dims[0] + _h0_of_weight_slice(t)
    else:
        next_dim = cohomology(realize(p, t.window, t.weight_bound + 1), (0, 0)).dims[0]
    if coh.dims[0] != next_dim:
        raise NotStabilized(
            "H^0 dimension moved from %d to %d between weight bounds %d and %d"
            % (coh.dims[0], next_dim, t.weight_bound, t.weight_bound + 1))
    reps = coh.representatives[0]

    def in_span(coords):
        if coords is None:
            raise NotStabilized(
                "element does not lie in the computed cocycle span; raise the bound")
        return coords

    # the representatives are multiplied on ids and reduced in native
    # scalars; FiniteDimAlgebra takes the structure constants in with
    # field.of, which gives the field scalars class_coordinates would
    structure = {}
    for i in range(len(reps)):
        for j in range(len(reps)):
            product = coh._product(0, i, 0, j)
            if product is None:
                raise NotStabilized(
                    "representative product escapes weight bound %d; raise it"
                    % t.weight_bound)
            coords = in_span(coh._class_of(0, product))
            if coords:
                structure[(i, j)] = coords
    # the unit is the sum of the trivial words, all of degree 0
    zero = t._ids_in(0)
    unit = in_span(coh._class_of(0, {i - zero.start: 1 for i in zero if not t._records[i][0]}))
    labels = [str(r) for r in reps]
    algebra = FiniteDimAlgebra(t.field, labels, structure, unit)
    return H0Result(algebra, reps, t.weight_bound, (coh.dims[0], next_dim))
