"""Word records against copies of the path-keyed constructions they replace.

enumerate_paths, reduce_modulo_relations and realize now read every word off
one walk of the quiver, as (labels, source, target, weight, degree) records.
The references below are the constructions they had before: enumerate_paths
building a Path per word, reduce_modulo_relations sorting Paths and keying
its columns on them, and the TruncatedDgAlgebra construction grouping the
quotient basis by degree_of and numbering words through a Path -> id map.

Per draw, these must agree:

- enumerate_paths, as a list of (path, weight) items, so key order counts,
  with the default weights and with the presentation's;
- the quotient basis in order, and qb.reduce of the unit element, of every
  word within the bound, and of one combination of them all, as item lists
  with scalar types; and the error of a path beyond the bound;
- basis_by_degree as (degree, words) items, so its key order counts, the
  words in id order, each id's weight and degree, every column as an item
  list with scalar types, the ledger, mul_overflow and
  certified_finite_dimensional.

Where the reference raises InconsistentPresentation, realize must raise it
with the same message.  The draws are those of test_realize_oracle: one to
three vertices over Q, F_5 and F_101, weights 1 to 3, with and without
relations.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from test_realize_oracle import SETTINGS, is_native, presentations

from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    OverflowEntry,
    realize,
)
from quiverdg.fields import GroundField
from quiverdg.linalg import RowSpace
from quiverdg.quiver import (
    Arrow,
    Path,
    PathAlgebraElement,
    QuiverPresentation,
    enumerate_paths,
    reduce_modulo_relations,
)


def ref_enumerate_paths(quiver, bound, weights=None):
    if weights is None:
        weights = {a.name: 1 for a in quiver.arrows}
    for name, w in weights.items():
        if w < 1:
            raise ValueError("arrow weight for %s must be positive" % name)
    out_by_vertex = {v: sorted((a for a in quiver.arrows if a.source == v),
                               key=lambda a: a.name)
                     for v in quiver.vertices}
    found = []
    stack = [(quiver.trivial(v), 0) for v in sorted(quiver.vertices)]
    while stack:
        path, w = stack.pop()
        found.append((path, w))
        for a in out_by_vertex[path.target]:
            w2 = w + weights[a.name]
            if w2 <= bound:
                stack.append((Path(path.labels + (a.name,), path.source, a.target), w2))
    found.sort(key=lambda item: (item[1], item[0].labels))
    return dict(found)


class RefQuotientBasis:
    def __init__(self, length_bound, basis, rows, column_of, path_at):
        self.length_bound = length_bound
        self.basis = basis
        self._rows = rows
        self._column_of = column_of
        self._path_at = path_at

    def reduce(self, element):
        vec = {}
        for path, coeff in element.terms.items():
            col = self._column_of.get(path)
            if col is None:
                raise ValueError(
                    "path %s exceeds the length bound %d" % (path, self.length_bound))
            vec[col] = coeff
        residue = self._rows.reduce(vec)
        return PathAlgebraElement({self._path_at[i]: c for i, c in residue.items()})


def ref_reduce_modulo_relations(quiver, relations, length_bound, field, weights):
    def term_weight(path):
        return sum(weights[name] for name in path.labels)

    cleaned = []
    for r in relations:
        terms = {p: field.of(c) for p, c in r.terms.items() if field.of(c)}
        if terms:
            cleaned.append(PathAlgebraElement(terms))
    weight = ref_enumerate_paths(quiver, length_bound, weights)
    paths = list(weight)

    def key(path):
        return (weight[path], path.labels)

    ordered = sorted(paths, key=key, reverse=True)
    column_of = {p: i for i, p in enumerate(ordered)}
    by_source = {}
    by_target = {}
    for p in paths:
        by_source.setdefault(p.source, []).append(p)
        by_target.setdefault(p.target, []).append(p)
    rows = RowSpace(field)
    for r in cleaned:
        src, tgt = r.endpoints()
        heaviest = max(term_weight(p) for p in r.terms)
        for u in by_target.get(src, ()):
            room = length_bound - weight[u] - heaviest
            if room < 0:
                break
            for v in by_source.get(tgt, ()):
                if weight[v] > room:
                    break
                vec = {}
                for t, c in r.terms.items():
                    col = column_of[Path(u.labels + t.labels + v.labels, u.source, v.target)]
                    s = vec.get(col)
                    s = c if s is None else s + c
                    if s:
                        vec[col] = s
                    else:
                        vec.pop(col, None)
                if vec:
                    rows.add(vec)
    basis = [p for p in ordered if column_of[p] not in rows.pivot_index]
    basis.sort(key=key)
    return RefQuotientBasis(length_bound, basis, rows, column_of, ordered)


def ref_truncation(p, bound):
    """The old construction, as a dict of what it built."""
    qb = ref_reduce_modulo_relations(p.quiver, p.relations, bound, p.field, p.weights)
    for r in p.relations:
        dr = p.d_of_element(r)
        if dr.is_zero() or any(p.weight_of(t) > bound for t in dr.terms):
            continue
        residue = qb.reduce(dr)
        if not residue.is_zero():
            raise InconsistentPresentation(
                "d of relation %r leaves the relation ideal: residue %r" % (r, residue))
    basis_by_degree = {}
    for path in qb.basis:
        basis_by_degree.setdefault(p.degree_of(path), []).append(path)
    words = [w for d in sorted(basis_by_degree) for w in basis_by_degree[d]]
    degree = [p.degree_of(w) for w in words]
    weight = [p.weight_of(w) for w in words]
    word_id = {w: i for i, w in enumerate(words)}
    ids = {w.labels: i for i, w in enumerate(words) if w.labels}
    columns, ledger = [], []
    for i, word in enumerate(words):
        free = {labels: p.field.of(c) for labels, c in p._leibniz_into({}, word.labels).items()}
        col = {}
        for labels, c in free.items():
            k = ids.get(labels)
            if k is None:
                break
            col[k] = c
        else:
            columns.append(col)
            continue
        if any(sum(p.weights[name] for name in labels) > bound
               for labels in free if labels not in ids):
            ledger.append(OverflowEntry("differential", degree[i], str(word)))
            columns.append(None)
            continue
        element = PathAlgebraElement(
            {Path(labels, word.source, word.target): c for labels, c in free.items()})
        columns.append({word_id[q]: c for q, c in qb.reduce(element).terms.items()})
    histogram = {}
    for i, word in enumerate(words):
        key = (word.source, word.target, degree[i], weight[i])
        histogram[key] = histogram.get(key, 0) + 1
    starting_at = {}
    for (source, _, d, w), n in histogram.items():
        starting_at.setdefault(source, []).append((d, w, n))
    overflow = {}
    for (_, target, d1, w1), n1 in histogram.items():
        for d2, w2, n2 in starting_at.get(target, ()):
            if w1 + w2 > bound:
                overflow[d1 + d2] = overflow.get(d1 + d2, 0) + n1 * n2
    top = max(weight, default=0)
    certified = (not p.generators) or top + max(p.weights.values()) <= bound
    return {"qb": qb, "basis_by_degree": basis_by_degree, "words": words,
            "degree": degree, "weight": weight, "columns": columns, "ledger": ledger,
            "mul_overflow": dict(sorted(overflow.items())), "certified": certified}


def typed(items):
    return None if items is None else [(repr(k), repr(c), type(c)) for k, c in items]


def reduce_outcome(qb, element):
    try:
        return typed(qb.reduce(element).terms.items())
    except ValueError as err:
        return ("ValueError", str(err))


def probes(p, bound):
    """Elements to reduce: the unit, every word within the bound, all of
    them combined, and one word just past the bound."""
    one = p.field.one()
    unit = PathAlgebraElement({p.quiver.trivial(v): one for v in p.vertices})
    words = list(ref_enumerate_paths(p.quiver, bound, p.weights))
    singles = [PathAlgebraElement.from_path(w, one) for w in words]
    combined = PathAlgebraElement(
        {w: p.field.of(k % 7 - 3) for k, w in enumerate(words) if k % 7 != 3})
    beyond = [w for w in ref_enumerate_paths(p.quiver, bound + 3, p.weights) if w not in words]
    return [unit, combined] + singles + [PathAlgebraElement.from_path(w, one)
                                         for w in beyond[:1]]


@SETTINGS
@given(presentations())
def test_records_match_the_path_keyed_constructions(case):
    p, bound = case
    for weights in (None, p.weights):
        assert (list(enumerate_paths(p.quiver, bound, weights).items())
                == list(ref_enumerate_paths(p.quiver, bound, weights).items()))
    qb = reduce_modulo_relations(p.quiver, p.relations, bound, field=p.field,
                                 weights=p.weights)
    ref_qb = ref_reduce_modulo_relations(p.quiver, p.relations, bound, p.field, p.weights)
    assert qb.basis == ref_qb.basis
    for element in probes(p, bound):
        assert reduce_outcome(qb, element) == reduce_outcome(ref_qb, element), element
    try:
        ref = ref_truncation(p, bound)
    except InconsistentPresentation as err:
        with pytest.raises(InconsistentPresentation) as raised:
            realize(p, (0, 0), bound)
        assert str(raised.value) == str(err)
        return
    t = realize(p, (0, 0), bound)
    assert list(t.basis_by_degree.items()) == list(ref["basis_by_degree"].items())
    assert t._words == ref["words"]
    assert t._degree == ref["degree"]
    assert t._weight == ref["weight"]
    for i, word in enumerate(t._words):
        col = t.d_of(word)
        expected = ref["columns"][i]
        assert typed(None if col is None else col.items()) == typed(
            None if expected is None
            else [(ref["words"][k], c) for k, c in expected.items()]), word
    assert all(is_native(p.field, c) for col in t._columns if col for c in col.values())
    assert t.differential_ledger == ref["ledger"]
    assert list(t.mul_overflow.items()) == list(ref["mul_overflow"].items())
    assert t.certified_finite_dimensional == ref["certified"]
    for element in probes(p, bound)[:2]:
        assert reduce_outcome(t.qb, element) == reduce_outcome(ref["qb"], element)


def test_trivial_paths_keep_the_walk_order():
    # Every trivial path has weight 0 and no labels, so the (weight, labels)
    # sort leaves them as the walk found them: reverse-sorted vertices.
    q = QuiverPresentation(("b", "c", "a"), (Arrow("x", "a", "b"),))
    paths = list(enumerate_paths(q, 2))
    assert [str(path) for path in paths] == ["e_c", "e_b", "e_a", "x"]
    qb = reduce_modulo_relations(q, [], 2)
    assert qb.basis == paths
    unit = PathAlgebraElement({q.trivial(v): Fraction(1) for v in q.vertices})
    # reduce keeps the element's key order, here the quiver's vertex order
    assert [str(path) for path in qb.reduce(unit).terms] == ["e_b", "e_c", "e_a"]
    t = realize(DgAlgebraPresentation(q.vertices, q.arrows, field=GroundField(5)), (0, 0), 2)
    assert [str(path) for path in t.basis_by_degree[0]] == ["e_c", "e_b", "e_a", "x"]
