"""The bar complex against a copy of the eager construction it replaced.

The eager construction built every word of every degree and an
OverflowEntry for every dropped word, layer by layer in word order.  The
bar complex now walks only the honest words, counts the rest by degree,
and builds the other words and the ledger when they are first read.  The
reference below is the eager construction as it was; it shares with bar
only the letter table, BarWord and the cohomology gate.  On every draw:

- before anything is built, the keys of words_by_degree, the length of
  each degree's list, dims, all_dims and the ledger's length and truth;
- cohomology_dims on a few windows, both strict values, before the
  ledger is built: the same dims, or the same UnsafeWindow degrees and
  message;
- the built words of every degree and the ledger, in order;
- d_of on every word, as item lists with their scalar types;
- or, when the reference raises DSquaredNonzero, the same degree and
  witness word.

The reference's cohomology_dims runs ref_gated_cohomology, a copy of the
gated cohomology on public matrices that bar complexes ran before
cohomology_dims took the ranks step alone: the gate, then
cohomology_of_complex, both steps, on matrix_between of degrees lo - 1 to
hi.

Random presentations live on one to three vertices over Q, F_5 and F_101.
One to three closed arrows in degrees -2..1, weighing 1 or 2, and one or
two arrows whose differentials are combinations of closed paths of length
1..2, so d o d = 0; on half the draws one more arrow has a differential on
paths in all the others, and d o d may fail.  A differential arrow weighs
1..3, often less than its terms, so its differential can escape the weight
bound; with weight bounds 2..4 many letter products escape too.  On half
the draws one relation on parallel closed paths joins in.  The word bound
is the largest of 1..4 that keeps letters^bound within 1500.
"""

from fractions import Fraction
from operator import itemgetter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    OverflowEntry,
    UnsafeWindow,
    _gate,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.koszul import BarWord, _LetterTable, bar
from quiverdg.linalg import DSquaredNonzero, SparseMatrix, cohomology_of_complex, vec_add_term
from quiverdg.quiver import Arrow, PathAlgebraElement, QuiverPresentation, enumerate_paths

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
COEFFS = (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3))
WORDS = 1500
SETTINGS = settings(derandomize=True, max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def ref_gated_cohomology(c, dims, ledger_degrees, safe_window, strict, overflow,
                         images=None):
    """cohomology_of_complex of a truncated complex c on a window, gated on
    its ledger, on the public matrices c.matrix_between of degrees lo - 1 to
    hi; fills images as cohomology_of_complex does."""
    _gate(ledger_degrees, safe_window, strict, overflow)
    lo, hi = safe_window
    matrices = {d: c.matrix_between(d) for d in range(lo - 1, hi + 1)}
    return cohomology_of_complex(dims, matrices, safe_window, c.field, images=images)


class EagerBar:
    """The bar complex as it was built before the words were counted."""

    def __init__(self, t, word_bound):
        self.field = t.field
        self.word_bound = word_bound
        table = _LetterTable(t)
        honest = self._generate_words(table, sorted(t.presentation.vertices))
        by_ids = {ids: self._column(table, ids) for _, _, ids in honest}
        self._check_d_squared(honest, by_ids)
        letters = table.letters

        def bar_word(ids):
            return BarWord(tuple(letters[i] for i in ids), letters[ids[0]].source)

        self._columns = {
            word: {bar_word(u): c for u, c in by_ids[ids].items()}
            for word, _, ids in honest}

    def _generate_words(self, table, vertices):
        letters, d, products = table.letters, table.d, table.products
        shift = [degree - 1 for degree in table.degree]
        text = [str(e) for e in letters]
        rank_of = {s: r for r, s in enumerate(sorted(set(text)))}
        rank = [rank_of[s] for s in text]
        starting_at = {v: sorted(ids, key=rank.__getitem__)
                       for v, ids in table.starting_at.items()}
        self.words_by_degree = {}
        self.differential_ledger = []
        honest = []
        run = []
        for v in vertices:
            word = BarWord((), v)
            self.words_by_degree.setdefault(0, []).append(word)
            honest.append((word, 0, ()))
            run.append((word, v, 0, "[", ()))
        layer = [run]
        for length in range(1, self.word_bound + 1):
            extend = length < self.word_bound
            next_layer = []
            for run in layer:
                children = [(rank[i], item, i) for item in run
                            for i in starting_at.get(item[1], ())]
                if len(run) > 1:
                    children.sort(key=itemgetter(0))
                last_rank = None
                for r, (word, _, degree, head, ids), i in children:
                    e = letters[i]
                    child = BarWord(word.letters + (e,), word.vertex)
                    degree += shift[i]
                    self.words_by_degree.setdefault(degree, []).append(child)
                    body = head + text[i]
                    if (ids is not None and d[i] is not None
                            and (not ids or products[ids[-1]][i] is not None)):
                        ids += (i,)
                        honest.append((child, degree, ids))
                    else:
                        ids = None
                        self.differential_ledger.append(OverflowEntry(
                            "bar-differential", degree, body + "]"))
                    if extend:
                        if r != last_rank:
                            next_layer.append([])
                            last_rank = r
                        next_layer[-1].append((child, e.target, degree, body + "|", ids))
            layer = next_layer
        return honest

    def _column(self, table, ids):
        plus, minus = self.field.of(1), self.field.of(-1)
        column = {}
        prefix = 0
        for k, i in enumerate(ids):
            sign = minus if prefix % 2 else plus
            for f, c in table.d[i].items():
                vec_add_term(column, ids[:k] + (f,) + ids[k + 1:], sign * c)
            if k + 1 < len(ids):
                sign = minus if (prefix + table.degree[i]) % 2 else plus
                for g, c in table.products[i][ids[k + 1]].items():
                    vec_add_term(column, ids[:k] + (g,) + ids[k + 2:], sign * c)
            prefix += table.degree[i] - 1
        return column

    def _check_d_squared(self, honest, by_ids):
        for word, degree, ids in honest:
            total = {}
            for u, c in by_ids[ids].items():
                next_column = by_ids.get(u)
                if next_column is None:
                    break
                for v, c2 in next_column.items():
                    vec_add_term(total, v, c * c2)
            else:
                if total:
                    raise DSquaredNonzero(degree, str(word))

    def all_dims(self):
        return {d: len(ws) for d, ws in sorted(self.words_by_degree.items())}

    def matrix_between(self, degree):
        source = self.words_by_degree.get(degree, [])
        target = self.words_by_degree.get(degree + 1, [])
        row = {u: i for i, u in enumerate(target)}
        m = SparseMatrix(len(target), len(source))
        for j, w in enumerate(source):
            for u, c in self._columns.get(w, {}).items():
                m.set(row[u], j, c)
        return m

    def cohomology_dims(self, safe_window, strict):
        ledger_degrees = {e.degree for e in self.differential_ledger}
        raw = ref_gated_cohomology(self, self.all_dims(), ledger_degrees, safe_window,
                                   strict, "bar truncation")
        return {d: dim for d, (dim, _) in raw.items()}


@st.composite
def presentations(draw):
    field = draw(st.sampled_from(FIELDS))
    vertices = ["v%d" % i for i in range(draw(st.integers(1, 3)))]
    closed = [Arrow("c%d" % n, draw(st.sampled_from(vertices)),
                    draw(st.sampled_from(vertices)), draw(st.integers(-2, 1)))
              for n in range(draw(st.integers(1, 3)))]
    arrows = list(closed)
    weights = {a.name: draw(st.integers(1, 2)) for a in closed}
    differential = {}

    def shapes(quiver):
        out = {}
        for path in enumerate_paths(quiver, 2):
            if path.labels:
                key = (path.source, path.target, quiver.path_degree(path))
                out.setdefault(key, []).append(path)
        return out

    def combination(paths):
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True))
        return PathAlgebraElement({path: draw(st.sampled_from(COEFFS)) for path in chosen})

    def add_generator(name, by_shape):
        (source, target, degree), paths = draw(st.sampled_from(list(by_shape.items())))
        arrows.append(Arrow(name, source, target, degree - 1))
        weights[name] = draw(st.integers(1, 3))
        differential[name] = combination(paths)

    closed_shapes = shapes(QuiverPresentation(vertices, closed))
    for n in range(draw(st.integers(1, 2))):
        add_generator("k%d" % n, closed_shapes)
    if draw(st.booleans()):
        add_generator("w", shapes(QuiverPresentation(vertices, arrows)))
    relations = []
    if draw(st.booleans()):
        relations.append(combination(draw(st.sampled_from(list(closed_shapes.values())))))
    presentation = DgAlgebraPresentation(vertices, arrows, differential=differential,
                                         relations=relations, weights=weights, field=field)
    lo = draw(st.integers(-6, 1))
    windows = [(lo + k, lo + k + draw(st.integers(0, 2))) for k in (0, 2, 4)]
    return presentation, draw(st.integers(2, 4)), windows


def word_bound_for(t):
    letters = sum(1 for e in t.qb.basis if not e.is_trivial())
    bound = 1
    while bound < 4 and letters ** (bound + 1) <= WORDS:
        bound += 1
    return bound


def outcome(call):
    try:
        return call()
    except (UnsafeWindow, DSquaredNonzero) as err:
        return type(err).__name__, getattr(err, "degrees", None), str(err)


def typed(column):
    return None if column is None else [(u, c, type(c)) for u, c in column.items()]


@SETTINGS
@given(presentations())
def test_bar_matches_the_eager_construction(case):
    presentation, weight_bound, windows = case
    t = realize(presentation, (0, 0), weight_bound)
    word_bound = word_bound_for(t)
    try:
        ref = EagerBar(t, word_bound)
    except DSquaredNonzero as err:
        try:
            bar(t, word_bound, (0, 0))
        except DSquaredNonzero as raised:
            assert (raised.degree, raised.witness) == (err.degree, err.witness)
        else:
            raise AssertionError("bar missed d o d != 0 at %s" % err.witness)
        return
    b = bar(t, word_bound, (-3, 3))
    # counts first, while nothing is built
    assert [(d, len(ws)) for d, ws in b.words_by_degree.items()] == \
        [(d, len(ws)) for d, ws in ref.words_by_degree.items()]
    assert b.all_dims() == ref.all_dims()
    assert b.dims() == {d: len(ref.words_by_degree.get(d, ())) for d in range(-3, 4)}
    assert len(b.differential_ledger) == len(ref.differential_ledger)
    assert bool(b.differential_ledger) == bool(ref.differential_ledger)
    for window in windows:
        for strict in (False, True):
            assert outcome(lambda: b.cohomology_dims(window, strict)) == \
                outcome(lambda: ref.cohomology_dims(window, strict))
    # then everything built, in order
    assert b.words_by_degree == ref.words_by_degree
    assert list(b.differential_ledger) == ref.differential_ledger
    for words in ref.words_by_degree.values():
        for w in words:
            assert typed(b.d_of(w)) == typed(ref._columns.get(w)), w
