"""Bar construction, Koszul duals, cobar, and double-dual completeness.

The bar complex of an augmented truncated dg algebra is built on tensor
words in the augmentation-ideal basis, truncated by letter count.  Its
graded dual is presented as a free dg algebra on one generator per ideal
basis element and realized through the usual weight-bounded truncation, so
every claim stays window-qualified.  Completeness reports compare the
cohomology of an algebra with that of its double dual, degree by degree,
with explicit stability and saturation flags instead of global claims.

Sign conventions are fixed here once: with eps_i the shifted degree sum
|e_1| + ... + |e_{i-1}| - (i-1), the bar differential applies d in slot i
with sign (-1)^{eps_i} and merges slots i, i+1 with sign (-1)^{eps_i+|e_i|}.
The dual-side twist is chosen so that cobar of the dual coalgebra agrees
with the dual bar presentation term for term; the squaring checks in the
test suite keep both honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import partial
from operator import itemgetter

from .dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    OverflowEntry,
    UnsafeWindow,
    _gate,
    _weight_homogeneous_relations,
    cohomology,
    realize,
)
from .fields import GroundField
from .linalg import (
    DSquaredNonzero,
    _cohomology_ranks,
    native_scalars,
    vec_add_term,
)
from .quiver import Arrow, PathAlgebraElement, QuiverPresentation, _LazyList


class NotConilpotent(Exception):
    """Raised when iterated reduced comultiplication cannot terminate."""


@dataclass(frozen=True)
class BarWord:
    """A tensor word [e_1|...|e_m]; the empty word remembers its vertex."""

    letters: tuple
    vertex: str

    @property
    def source(self):
        return self.letters[0].source if self.letters else self.vertex

    @property
    def target(self):
        return self.letters[-1].target if self.letters else self.vertex

    def __str__(self):
        if not self.letters:
            return "[%s]" % self.vertex
        return "[" + "|".join(str(p) for p in self.letters) + "]"


class _LetterTable:
    """The augmentation-ideal basis of a truncation, as numbered letters.

    letters lists the ideal basis words in basis order; letter i has degree
    degree[i], and starting_at maps each vertex to the ids of the letters
    that start there, in id order.  d[i] is the reduced differential of
    letter i as {letter id: coeff}, or None when it escaped the weight bound.
    products[i] maps each letter j that composes after letter i (target of
    i = source of j), in id order, to their reduced product as {letter id:
    coeff}, or to None when it escapes the weight bound.  Each product is
    taken once, by the truncation's _multiply.  Degrees, columns and
    products are read off the truncation's word ids and re-keyed from word
    ids to letter ids; like those, they hold native scalars of the field.
    """

    def __init__(self, t):
        self.letters = [e for e in t.qb.basis if not e.is_trivial()]
        # the truncation's word id of each letter, and the way back
        word = [t._by_labels[e.labels] for e in self.letters]
        letter = {k: i for i, k in enumerate(word)}
        self.degree = [t._degree[k] for k in word]
        self.d = []
        for k in word:
            column = t._columns[k]
            self.d.append(None if column is None
                          else {letter[m]: c for m, c in column.items()})
        self.starting_at = {}
        for j, e in enumerate(self.letters):
            self.starting_at.setdefault(e.source, []).append(j)
        self.products = []
        for i, e in enumerate(self.letters):
            row = {}
            for j in self.starting_at.get(e.target, ()):
                pq = t._multiply(word[i], word[j])
                row[j] = None if pq is None else {letter[m]: c for m, c in pq.items()}
            self.products.append(row)


def _letter_names(letters):
    """Generator names "[e]" for the letters of a dual.

    Two letters can print alike (an arrow named "a*b" and the path a*b).  The
    first keeps the plain name and each later one takes the first suffix
    "#2", "#3", ... that is no other letter's name, so names are unchanged
    wherever no two letters print alike.
    """
    plain = ["[%s]" % e for e in letters]
    taken = set(plain)
    names = []
    used = set()
    for name in plain:
        if name in used:
            n = 2
            while "%s#%d" % (name, n) in taken:
                n += 1
            name = "%s#%d" % (name, n)
            taken.add(name)
        used.add(name)
        names.append(name)
    return names


class _WordTrie:
    """The bar words on a letter table, counted and walked in word order.

    Words are ordered by (length, letter strings, vertex).  A word is a
    tuple (letter ids, vertex, target vertex, degree, honest), where honest
    is false once some letter's differential or some adjacent product
    escapes the weight bound; a word inherits its degree and its honesty
    from its prefix.  totals maps each degree to its number of words, and
    reach[r][v] is the set of degree shifts of the letter paths of r letters
    out of vertex v, so a walk can tell which degrees lie below a word
    without visiting them.
    """

    def __init__(self, table, vertices, word_bound):
        self.table = table
        self.vertices = vertices
        self.word_bound = word_bound
        self.shift = [degree - 1 for degree in table.degree]
        self.target = [e.target for e in table.letters]
        self.text = [str(e) for e in table.letters]
        # Two letters can print alike (an arrow named "a*b" and the path
        # a*b).  Words are ordered by the ranks of their letter strings; words
        # with equal ranks form a run, kept in generation order (vertex, then
        # letter ids), which is where a stable sort by strings leaves them.
        rank_of = {s: r for r, s in enumerate(sorted(set(self.text)))}
        self.rank = [rank_of[s] for s in self.text]
        self.starting_at = {v: sorted(ids, key=self.rank.__getitem__)
                            for v, ids in table.starting_at.items()}
        self.totals = {0: len(vertices)}
        self.reach = [{v: frozenset((0,)) for v in vertices}]
        exact = {v: {0: 1} for v in vertices}  # {shift: paths} of r letters
        for _ in range(word_bound):
            longer = {}
            for v in vertices:
                counts = longer[v] = {}
                for i in self.starting_at.get(v, ()):
                    for s, n in exact[self.target[i]].items():
                        s += self.shift[i]
                        counts[s] = counts.get(s, 0) + n
                for s, n in counts.items():
                    self.totals[s] = self.totals.get(s, 0) + n
            self.reach.append({v: frozenset(counts) for v, counts in longer.items()})
            exact = longer

    def words(self, keep):
        """Yield every word in word order, one length at a time, depth first.
        A prefix is extended only when keep(prefix, letters still to add)
        holds, so the words below a pruned prefix are never built."""
        d, products = self.table.d, self.table.products
        shift, target, rank, starting_at = self.shift, self.target, self.rank, self.starting_at

        def descend(run, remaining):
            # run: words with equal letter-string ranks, in word order
            if not remaining:
                yield from run
                return
            children = [(rank[i], word, i) for word in run if keep(word, remaining)
                        for i in starting_at.get(word[2], ())]
            if len(run) > 1:
                children.sort(key=itemgetter(0))
            next_run = []
            for r, (ids, vertex, _, degree, honest), i in children:
                if next_run and r != last_rank:
                    yield from descend(next_run, remaining - 1)
                    next_run = []
                last_rank = r
                next_run.append((ids + (i,), vertex, target[i], degree + shift[i],
                                 honest and d[i] is not None
                                 and (not ids or products[ids[-1]][i] is not None)))
            if next_run:
                yield from descend(next_run, remaining - 1)

        for length in range(self.word_bound + 1):
            yield from descend([((), v, v, 0, True) for v in self.vertices], length)

    def honest(self):
        """The honest words as (letter ids, vertex, degree), in word order."""
        return [(ids, vertex, degree)
                for ids, vertex, _, degree, honest in self.words(lambda word, _: word[4])
                if honest]

    def degree_order(self):
        """The degrees in the order each first occurs among the words.  A
        prefix is extended only while a degree below it is not yet seen."""
        seen = {}
        reach = self.reach

        def keep(word, remaining):
            degree = word[3]
            return any(degree + s not in seen for s in reach[remaining][word[2]])

        for word in self.words(keep):
            seen.setdefault(word[3])
        return list(seen)

    def bar_word(self, ids, vertex):
        letters = self.table.letters
        return BarWord(tuple(letters[i] for i in ids), vertex)

    def keys_of_degree(self, degree):
        """The words of one degree as (letter ids, vertex), in word order."""
        reach = self.reach
        return [(ids, vertex)
                for ids, vertex, _, d, _ in self.words(
                    lambda word, remaining: degree - word[3] in reach[remaining][word[2]])
                if d == degree]

    def words_of_degree(self, degree):
        return [self.bar_word(ids, vertex) for ids, vertex in self.keys_of_degree(degree)]

    def ledger(self):
        """An OverflowEntry for each word that is not honest, in word order."""
        text = self.text
        return [OverflowEntry("bar-differential", degree,
                              "[%s]" % "|".join(text[i] for i in ids))
                for ids, _, _, degree, honest in self.words(lambda word, _: True)
                if not honest]


class BarComplex:
    """Tensor words of length <= word_bound with the bar differential.

    Everything is read off one letter table of the augmentation ideal: each
    letter's degree, string and differential, and the reduced product of each
    composable letter pair, taken once.  Words are ordered by (length, letter
    strings, vertex), and each word inherits its degree and whether its
    column is dropped from its prefix.  A column is dropped, and ledgered,
    when some letter's differential or some adjacent product escapes the
    underlying algebra's weight bound, mirroring the truncation discipline of
    the dg engine.  A dropped word drops every word it prefixes, so
    construction walks only the honest words, those with a column, and
    counts all words by degree from the letter paths out of each vertex.  No
    column is ever assembled for a dropped word.  d of d is checked word by
    word along fully honest column chains at construction time.

    words_by_degree maps each degree, in the order it first occurs among the
    words, to the list of its words; differential_ledger lists an
    OverflowEntry per dropped word, in word order.  Both lists are lazy and
    read-only.  Their len and truth, the keys, dims, all_dims and the ledger
    gate of cohomology_dims are exact without building a word or an entry.
    Iterating or indexing a degree's list builds that degree's words once,
    and iterating or indexing the ledger builds all its entries once.
    Columns are kept on letter-id tuples, in native scalars of the field:
    matrix_between walks the two degrees it reads as (letter ids, vertex)
    keys and builds no word, and d_of builds the words of the one column it
    returns; both hand out Fraction or FpElement coefficients.
    cohomology_dims runs only the ranks step of cohomology, on columns keyed
    by position and built from the same keys, with each degree's keys
    walked once per call; it takes no kernel and builds no matrix.
    """

    def __init__(self, t, word_bound, window):
        if not t.presentation.augmented:
            raise ValueError("the bar construction needs an augmented input")
        if word_bound < 0:
            raise ValueError("word bound must be >= 0")
        self.algebra = t
        self.field = t.field
        self.word_bound = word_bound
        self.window = tuple(window)
        self._scalars = native_scalars(self.field)
        table = _LetterTable(t)
        trie = _WordTrie(table, sorted(t.presentation.vertices), word_bound)
        honest = trie.honest()
        by_ids = {ids: self._column(table, ids) for ids, _, _ in honest}
        self._check_d_squared(trie, honest, by_ids)
        dropped = dict(trie.totals)
        for _, _, degree in honest:
            dropped[degree] -= 1
        self._ledger_degrees = {degree for degree, n in dropped.items() if n}
        self.words_by_degree = {
            degree: _LazyList(trie.totals[degree], partial(trie.words_of_degree, degree))
            for degree in trie.degree_order()}
        self.differential_ledger = _LazyList(sum(dropped.values()), trie.ledger)
        self._trie = trie
        self._by_ids = by_ids
        self._letter_id = {e: i for i, e in enumerate(table.letters)}

    def _column(self, table, ids):
        """The bar differential of an honest word, as {letter ids: native
        coeff}."""
        add = self._scalars.add_term
        column = {}
        prefix = 0
        for k, i in enumerate(ids):
            odd = prefix % 2
            for f, c in table.d[i].items():
                add(column, ids[:k] + (f,) + ids[k + 1:], -c if odd else c)
            if k + 1 < len(ids):
                odd = (prefix + table.degree[i]) % 2
                for g, c in table.products[i][ids[k + 1]].items():
                    add(column, ids[:k] + (g,) + ids[k + 2:], -c if odd else c)
            prefix += table.degree[i] - 1
        return column

    def _check_d_squared(self, trie, honest, by_ids):
        add = self._scalars.add_term
        for ids, vertex, degree in honest:
            total = {}
            for u, c in by_ids[ids].items():
                next_column = by_ids.get(u)
                if next_column is None:
                    break
                for v, c2 in next_column.items():
                    add(total, v, c * c2)
            else:
                if total:
                    raise DSquaredNonzero(degree, str(trie.bar_word(ids, vertex)))

    def d_of(self, word):
        """The column of a bar word as {BarWord: coeff}; None when dropped."""
        if not self._is_word(word):
            raise KeyError(word)
        column = self._by_ids.get(tuple(self._letter_id[p] for p in word.letters))
        if column is None:
            return None
        bar_word, public = self._trie.bar_word, self._scalars.public
        return {bar_word(u, word.vertex): public(c) for u, c in column.items()}

    def _is_word(self, word):
        letters = word.letters
        if not letters:
            return word.vertex in self.algebra.presentation.vertices
        return (len(letters) <= self.word_bound
                and word.vertex == letters[0].source
                and all(p in self._letter_id for p in letters)
                and all(p.target == q.source for p, q in zip(letters, letters[1:])))

    def dims(self):
        lo, hi = self.window
        return {d: len(self.words_by_degree.get(d, ()))
                for d in range(lo, hi + 1)}

    def all_dims(self):
        return {d: len(ws) for d, ws in sorted(self.words_by_degree.items())}

    def matrix_between(self, degree):
        """SparseMatrix of d from degree to degree+1 (dropped columns zero),
        indexed on (letter ids, vertex) keys without building a word."""
        target = self._trie.keys_of_degree(degree + 1)
        return self._scalars.public_matrix(
            len(target), self._position_columns(self._trie.keys_of_degree(degree), target))

    def _position_columns(self, source, target):
        """The columns of d out of the words with keys source, as new {row:
        coeff} dicts in native scalars, the rows being positions in the key
        list target; a dropped word's column is empty."""
        row = {key: i for i, key in enumerate(target)}
        by_ids = self._by_ids
        return [{row[u, vertex]: c for u, c in by_ids.get(ids, {}).items()}
                for ids, vertex in source]

    def cohomology_dims(self, safe_window, strict=False):
        """{degree: dim H} on the window, gated on the ledger as cohomology
        is; d*d was checked at construction.

        It runs the gate and the ranks step of cohomology alone, with
        rank d_hi read off the column space of d_hi, so it takes no kernel
        and builds no matrix.
        """
        _gate(self._ledger_degrees, safe_window, strict, "bar truncation")
        lo, hi = safe_window
        keys = {d: self._trie.keys_of_degree(d) for d in range(lo - 1, hi + 2)}
        dims, _ = _cohomology_ranks(
            self.all_dims(), lambda i: self._position_columns(keys[i], keys[i + 1]),
            safe_window, self.field)
        return dims


def bar(t, word_bound, window):
    """Bar complex of an augmented truncation on words of length <= Λ."""
    return BarComplex(t, word_bound, window)


def _dual_structure(t):
    """What both duals read off an augmented truncation.

    Returns (table, names, weights, linear, quadratic): the letter table, the
    generator name and weight of each letter, the linear entries (e, f, c)
    with c the coefficient of letter e in d(letter f), and the quadratic
    entries (e, p, q, c) with c the coefficient of letter e in the product
    of letters p and q, both in letter table order and with field scalars.
    The input's differential must be complete (UnsafeWindow otherwise).  A
    product that escapes the input's weight bound is skipped when the
    relations are weight-homogeneous, since it cannot land on a stored word,
    and is a ValueError otherwise.
    """
    if not t.presentation.augmented:
        raise ValueError("the Koszul duals need an augmented input")
    if t.differential_ledger:
        degrees = sorted({e.degree for e in t.differential_ledger})
        raise UnsafeWindow(
            degrees,
            "input differential is unknown at degrees %s; realize the input "
            "at a larger weight bound" % degrees)
    table = _LetterTable(t)
    letters = table.letters
    names = _letter_names(letters)
    weights = {names[i]: t.qb.weight_of(e) for i, e in enumerate(letters)}
    public = t._scalars.public
    linear = [(e, f, public(c)) for f, column in enumerate(table.d) for e, c in column.items()]
    homogeneous = _weight_homogeneous_relations(t.presentation)
    quadratic = []
    for p, row in enumerate(table.products):
        for q, product in row.items():
            if product is None:
                if homogeneous:
                    continue
                raise ValueError(
                    "product %s * %s escapes the input weight bound and the "
                    "relations are not weight-homogeneous; raise the bound"
                    % (letters[p], letters[q]))
            quadratic.extend((e, p, q, public(c)) for e, c in product.items())
    return table, names, weights, linear, quadratic


def dual_bar(t, word_bound, window):
    """Koszul dual of an augmented truncation, as a free truncated dg algebra.

    One generator per augmentation-ideal basis element e, placed in degree
    1 - |e| and weighted by the weight of e, so the realization bound counts
    bar letters when every ideal element has weight one and total letter
    weight otherwise.  The differential dualizes d (linear part) and
    multiplication (quadratic part).  Pairs whose product escapes the input's
    weight bound contribute nothing; that is exact for weight-homogeneous
    relations, and certified finite-dimensional inputs recover the products
    instead of skipping.
    """
    return realize(_dual_presentation(t), window, word_bound)


def _dual_presentation(t):
    """The presentation dual_bar realizes; the word bound does not enter it."""
    table, names, weights, linear, quadratic = _dual_structure(t)
    degree = table.degree
    arrows = [Arrow(names[i], e.source, e.target, 1 - degree[i])
              for i, e in enumerate(table.letters)]
    scratch = QuiverPresentation(t.presentation.vertices, arrows)
    terms = {name: {} for name in names}
    field = t.field
    for e, f, c in linear:
        sign = field.of(-1 if degree[e] % 2 else 1)
        vec_add_term(terms[names[e]], scratch.path([names[f]]), sign * c)
    for e, p, q, c in quadratic:
        sign = field.of(-1 if (degree[e] + degree[p]
                               + (degree[p] - 1) * (degree[q] - 1)) % 2 else 1)
        vec_add_term(terms[names[e]], scratch.path([names[p], names[q]]), sign * c)
    differential = {name: PathAlgebraElement(bucket)
                    for name, bucket in terms.items() if bucket}
    return DgAlgebraPresentation(t.presentation.vertices, arrows, differential=differential,
                                 weights=weights, field=field)


class CoalgebraPresentation:
    """Cogenerators over a vertex base with reduced comultiplication.

    comultiplication maps a cogenerator name to [(coeff, left, right), ...];
    differential maps a name to [(coeff, other), ...].  Weights supply the
    conilpotency witness: every splitting must satisfy w(left) + w(right) <=
    w(parent), and when no weights are given they are derived by a fixpoint
    pass whose failure to terminate is exactly a splitting cycle.
    """

    def __init__(self, vertices, cogenerators, comultiplication=None,
                 differential=None, weights=None, field=None):
        self.field = field if field is not None else GroundField(0)
        self.quiver = QuiverPresentation(vertices, cogenerators)
        self.vertices = self.quiver.vertices
        self.cogenerators = self.quiver.arrows
        self._degree = {g.name: g.degree for g in self.cogenerators}
        self.comultiplication = {}
        for name, entries in (comultiplication or {}).items():
            gamma = self._known(name)
            kept = []
            for coeff, left, right in entries:
                c = self.field.of(coeff)
                if not c:
                    continue
                lgen, rgen = self._known(left), self._known(right)
                if (lgen.source != gamma.source or lgen.target != rgen.source
                        or rgen.target != gamma.target):
                    raise InconsistentPresentation(
                        "splitting %s -> %s (x) %s breaks vertex composability"
                        % (name, left, right))
                if lgen.degree + rgen.degree != gamma.degree:
                    raise InconsistentPresentation(
                        "splitting %s -> %s (x) %s changes degree" % (name, left, right))
                kept.append((c, left, right))
            if kept:
                self.comultiplication[name] = kept
        self.differential = {}
        for name, entries in (differential or {}).items():
            gamma = self._known(name)
            kept = []
            for coeff, other in entries:
                c = self.field.of(coeff)
                if not c:
                    continue
                target = self._known(other)
                if (target.source, target.target) != (gamma.source, gamma.target):
                    raise InconsistentPresentation(
                        "d(%s) term %s changes endpoints" % (name, other))
                if target.degree != gamma.degree + 1:
                    raise InconsistentPresentation(
                        "d(%s) term %s has degree %d, expected %d"
                        % (name, other, target.degree, gamma.degree + 1))
                kept.append((c, other))
            if kept:
                self.differential[name] = kept
        self.weights = self._settle_weights(weights)
        self._check_coassociativity()

    def _known(self, name):
        if not self.quiver.has_arrow(name):
            raise InconsistentPresentation("unknown cogenerator %r" % name)
        return self.quiver.arrow(name)

    def _settle_weights(self, weights):
        if weights is not None:
            out = {}
            for g in self.cogenerators:
                w = weights.get(g.name)
                if not isinstance(w, int) or w < 1:
                    raise NotConilpotent(
                        "cogenerator %s needs a positive integer weight" % g.name)
                out[g.name] = w
            for name, entries in self.comultiplication.items():
                for _, left, right in entries:
                    if out[left] + out[right] > out[name]:
                        raise NotConilpotent(
                            "splitting %s -> %s (x) %s does not descend in weight"
                            % (name, left, right))
            return out
        out = {}
        pending = {g.name for g in self.cogenerators}
        while pending:
            progressed = False
            for name in sorted(pending):
                entries = self.comultiplication.get(name, ())
                if all(left in out and right in out for _, left, right in entries):
                    out[name] = max([1] + [out[left] + out[right]
                                           for _, left, right in entries])
                    pending.discard(name)
                    progressed = True
            if not progressed:
                raise NotConilpotent(
                    "splitting cycle through %s" % ", ".join(sorted(pending)))
        return out

    def _check_coassociativity(self):
        left_assoc = {}
        right_assoc = {}
        for name, entries in self.comultiplication.items():
            for c1, p, q in entries:
                for c2, a, b in self.comultiplication.get(p, ()):
                    key = (name, a, b, q)
                    left_assoc[key] = left_assoc.get(key, self.field.of(0)) + c1 * c2
                for c2, b, c in self.comultiplication.get(q, ()):
                    key = (name, p, b, c)
                    right_assoc[key] = right_assoc.get(key, self.field.of(0)) + c1 * c2
        left_assoc = {k: v for k, v in left_assoc.items() if v}
        right_assoc = {k: v for k, v in right_assoc.items() if v}
        if left_assoc != right_assoc:
            keys = set(left_assoc) ^ set(right_assoc) or set(left_assoc)
            witness = sorted(keys)[0]
            raise InconsistentPresentation(
                "comultiplication is not coassociative at %s" % (witness,))


def dual_coalgebra(t):
    """Reduced dual of a truncated algebra, as a coalgebra presentation.

    Needs complete structure data: an empty differential ledger, and either
    weight-homogeneous relations (so out-of-bound products cannot touch the
    stored basis) or a certified finite-dimensional truncation.  A dual whose
    splittings fail to descend in weight is rejected as NotConilpotent.
    """
    table, names, weights, linear, quadratic = _dual_structure(t)
    degree = table.degree
    cogenerators = [Arrow(names[i], e.source, e.target, -degree[i])
                    for i, e in enumerate(table.letters)]
    field = t.field
    differential = {}
    for e, f, c in linear:
        sign = field.of(-1 if (degree[e] + 1) % 2 else 1)
        differential.setdefault(names[e], []).append((sign * c, names[f]))
    comultiplication = {}
    for e, p, q, c in quadratic:
        sign = field.of(-1 if (degree[p] * degree[q] + 1) % 2 else 1)
        comultiplication.setdefault(names[e], []).append(
            (sign * c, names[p], names[q]))
    return CoalgebraPresentation(t.presentation.vertices, cogenerators,
                                 comultiplication=comultiplication,
                                 differential=differential,
                                 weights=weights, field=field)


def cobar(c, word_bound, window):
    """Free dg algebra on the shifted cogenerators of a conilpotent input.

    Each cogenerator moves up one degree; the differential combines the
    internal differential (negated) with the reduced comultiplication,
    weighted by the conilpotency grading.
    """
    arrows = [Arrow(g.name, g.source, g.target, g.degree + 1)
              for g in c.cogenerators]
    scratch = QuiverPresentation(c.vertices, arrows)
    field = c.field
    terms = {}
    for name, entries in c.differential.items():
        for coeff, other in entries:
            vec_add_term(terms.setdefault(name, {}), scratch.path([other]),
                         field.of(-1) * coeff)
    for name, entries in c.comultiplication.items():
        for coeff, left, right in entries:
            degree_left = c.quiver.arrow(left).degree
            sign = field.of(-1 if degree_left % 2 else 1)
            vec_add_term(terms.setdefault(name, {}), scratch.path([left, right]),
                         sign * coeff)
    differential = {name: PathAlgebraElement(bucket)
                    for name, bucket in terms.items() if bucket}
    presentation = DgAlgebraPresentation(
        c.vertices, arrows, differential=differential,
        weights=dict(c.weights), field=field)
    return realize(presentation, window, word_bound)


@dataclass
class CompletenessReport:
    """Window-qualified comparison of an algebra with its double Koszul dual.

    kind is one of CompleteWithinWindow, MismatchAt, Inconclusive; rows maps
    each window degree to the two cohomology dimensions plus match, stable
    (agreement between word bounds Λ and Λ-1), and saturated (no word above
    the bound can land in this degree) flags.
    """

    kind: str
    degree: object = None
    dims: object = None
    rows: dict = dataclass_field(default_factory=dict)
    notes: list = dataclass_field(default_factory=list)


def _saturated_degrees(presentation, bound, degrees):
    generators = presentation.generators
    if not generators:
        return set(degrees)
    ratios = [Fraction(g.degree, presentation.weights[g.name]) for g in generators]
    rmin, rmax = min(ratios), max(ratios)
    out = set()
    for d in degrees:
        if rmin >= 0 and d < (bound + 1) * rmin:
            out.add(d)
        elif rmax <= 0 and d > (bound + 1) * rmax:
            out.add(d)
    return out


def completeness_report(t, word_bound, window):
    """Compare H(A) with H of the double dual bar construction on a window.

    The verdict is CompleteWithinWindow only when every degree matches and
    the double-dual dimensions are stable against lowering the word bound by
    one; a stable mismatch is reported as MismatchAt, and any truncation
    overflow or instability yields Inconclusive.  No global claim is made.
    """
    if word_bound < 2:
        raise ValueError("word bound must be >= 2 so stability can be checked")
    lo, hi = window
    try:
        algebra_dims = cohomology(t, window).dims
    except UnsafeWindow as err:
        return CompletenessReport(
            "Inconclusive",
            notes=["input truncation overflows inside the window at degrees %s"
                   % (err.degrees,)])

    def double_dual(bound):
        second = dual_bar(realize(first, window, bound), bound, window)
        return second, cohomology(second, window).dims

    try:
        first = _dual_presentation(t)
        second, full_dims = double_dual(word_bound)
        _, prev_dims = double_dual(word_bound - 1)
    except UnsafeWindow as err:
        return CompletenessReport(
            "Inconclusive",
            notes=["double dual truncation overflows at degrees %s" % (err.degrees,)])
    degrees = list(range(lo, hi + 1))
    saturated = _saturated_degrees(second.presentation, word_bound, degrees)
    rows = {}
    for d in degrees:
        rows[d] = {
            "algebra": algebra_dims[d],
            "double_dual": full_dims[d],
            "match": algebra_dims[d] == full_dims[d],
            "stable": full_dims[d] == prev_dims[d],
            "saturated": d in saturated,
        }
    unstable = [d for d in degrees if not rows[d]["stable"]]
    if unstable:
        return CompletenessReport("Inconclusive", rows=rows,
                                  notes=["double dual dimensions still moving at degrees %s"
                                         % unstable])
    for d in degrees:
        if not rows[d]["match"]:
            return CompletenessReport("MismatchAt", degree=d,
                                      dims=(rows[d]["algebra"], rows[d]["double_dual"]),
                                      rows=rows)
    return CompletenessReport("CompleteWithinWindow", rows=rows)
