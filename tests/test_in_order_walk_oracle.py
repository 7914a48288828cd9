"""The in-order word walk against a copy of the depth-first walk it replaced.

quiver._WordWalk lists the normal words level by level, each level in
labels order, with no sort.  The reference below is the walk it replaced: a
depth-first walk from the trivial paths in reverse-sorted vertex order,
extending each word by its out-arrows in name order and carrying the least
slack of a leading word found as a suffix, then a stable sort by (weight,
labels).  Per draw these must agree:

- the records, (labels, source, target, weight, degree), in order: those of
  reduce_modulo_relations, given its Groebner basis's leading words, and
  those of the walk with no rules, which is enumerate_paths's;
- per basis word of the realization, the id of its prefix labels[:-1] as
  the walk gives it and as _by_labels gives it: the trivial path's id for a
  one-letter word, and None for a prefix off the basis;
- for a draw with no relations, the records of h0_algebra's slice and the
  words of weight exactly L + 1 and degrees -1 to 2 of the walk at L + 1,
  in order, and the id of each slice word's prefix as the slice gives it
  and as the realization's records give it.

The draws are those of test_realize_oracle (one to three vertices over Q,
F_5 and F_101, weights 1 to 3, some with relations) and those of
test_groebner_oracle, realized with zero differential, whose relation sets
give Groebner elements of slack above 0: a rule of slack above 0 can put a
word on the basis and its prefix off it.  A plain test pins one such case.

The last test checks that h0_algebra lists only the next weight level of a
free weight-graded truncation, the words of weight L + 1 and degrees -1 to
2, builds no lighter record a second time and does not realize at L + 1.
"""

from fractions import Fraction
from operator import itemgetter

from hypothesis import given
from hypothesis import strategies as st
from test_groebner_oracle import loop_presentations
from test_groebner_oracle import presentations as relation_sets
from test_realize_oracle import SETTINGS, presentations

from quiverdg import dgalgebra
from quiverdg.dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    _weight_slice,
    h0_algebra,
    realize,
)
from quiverdg.ginzburg import cy_completion
from quiverdg.quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    _WordWalk,
    reduce_modulo_relations,
)


def ref_word_records(quiver, bound, weights, rules=None):
    """The depth-first walk and the stable sort, as they were."""
    out = {v: [] for v in quiver.vertices}
    for a in sorted(quiver.arrows, key=lambda a: a.name):
        out[a.source].append((a.name, a.target, weights[a.name], a.degree))
    rules = rules or {}
    lengths = sorted({len(lead) for lead in rules})
    found = []
    stack = [(((), v, v, 0, 0), bound + 1) for v in sorted(quiver.vertices)]
    while stack:
        record, slack = stack.pop()
        labels, source, target, weight, degree = record
        if slack > bound - weight:
            found.append(record)
        if not slack:
            continue
        for name, head, w, d in out[target]:
            if weight + w <= bound:
                word = labels + (name,)
                least = slack
                for k in lengths:
                    if k > len(word):
                        break
                    rule = rules.get(word[-k:])
                    if rule is not None and rule[0] < least:
                        least = rule[0]
                stack.append(((word, source, head, weight + w, degree + d), least))
    return sorted(found, key=itemgetter(3, 0))


@st.composite
def relation_presentations(draw):
    """A relation set of test_groebner_oracle as a dg presentation of
    degree-0 generators with zero differential."""
    strategy = draw(st.sampled_from((relation_sets(max_terms=4), loop_presentations())))
    quiver, weights, field, relations, bound = draw(strategy)
    return DgAlgebraPresentation(quiver.vertices, quiver.arrows, relations=relations,
                                 weights=weights, field=field), bound


def assert_the_walks_agree(p, bound):
    qb = reduce_modulo_relations(p.quiver, p.relations, bound, field=p.field,
                                 weights=p.weights)
    assert qb._records == ref_word_records(p.quiver, bound, p.weights, qb._rewriting.rules)
    free = _WordWalk(p.quiver, bound, p.weights)
    assert free.records == ref_word_records(p.quiver, bound, p.weights)
    return qb


def assert_the_prefix_ids_agree(p, bound):
    try:
        t = realize(p, (0, 0), bound)
    except InconsistentPresentation:
        return None
    prefix = t.qb._prefix
    trivial = {record[1]: i for i, record in enumerate(t._records) if not record[0]}
    for k, i in enumerate(t._at):
        labels, source = t._records[i][:2]
        got = None if prefix[k] is None else t._at[prefix[k]]
        if not labels:
            assert got is None
        elif len(labels) == 1:
            assert got == trivial[source], labels
        else:
            assert got == t._by_labels.get(labels[:-1]), labels
    if not p.relations:
        slice_ = list(_weight_slice(t))
        assert [record for record, _ in slice_] == [
            record for record in ref_word_records(p.quiver, bound + 1, p.weights)
            if record[3] == bound + 1 and -1 <= record[4] <= 2]
        for (labels, source, _, _, _), k in slice_:
            assert t._records[k][:2] == (labels[:-1], source), labels
    return t


@SETTINGS
@given(st.one_of(presentations(), relation_presentations()))
def test_the_walk_lists_the_depth_first_records_in_order(case):
    assert_the_walks_agree(*case)


@SETTINGS
@given(st.one_of(presentations(), relation_presentations()))
def test_every_prefix_id_is_the_label_lookup(case):
    assert_the_prefix_ids_agree(*case)


def test_a_prefix_off_the_basis_has_no_id():
    # x - y*y on two loops of weight 1 at bound 3: y*y leads with slack 0,
    # and the overlap y*y*y gives y*x - x*y, of sugar 3, so y*x leads with
    # slack 1.  y*x, of weight 2, is off the basis, while y*x*x, of weight
    # 3, has no room for that rule and is a basis word.
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    one = Fraction(1)
    relations = [PathAlgebraElement({q.path(["x"]): one, q.path(["y", "y"]): -one})]
    p = DgAlgebraPresentation(q.vertices, q.arrows, relations=relations)
    qb = assert_the_walks_agree(p, 3)
    assert {lead: slack for lead, (slack, _) in qb._rewriting.rules.items()} == {
        ("y", "y"): 0, ("y", "x"): 1}
    assert [record[0] for pre, record in zip(qb._prefix, qb._records)
            if pre is None and record[0]] == [("y", "x", "x"), ("y", "x", "y")]
    assert assert_the_prefix_ids_agree(p, 3) is not None


def a5():
    return QuiverPresentation(
        tuple(str(i) for i in range(1, 6)),
        tuple(Arrow("a%d" % i, str(i), str(i + 1)) for i in range(1, 5)))


def test_h0_algebra_walks_only_the_next_weight_level(monkeypatch):
    t = realize(cy_completion(a5(), 2), (-4, 0), 8)
    built, realized = [], []

    def listed(t):
        for record, k in _weight_slice(t):
            built.append(record)
            yield record, k

    def counted(*args):
        realized.append(args)
        return realize(*args)
    monkeypatch.setattr(dgalgebra, "_weight_slice", listed)
    monkeypatch.setattr(dgalgebra, "realize", counted)
    result = h0_algebra(t)
    # H^0 is the preprojective algebra of A5, of dimension 5 * 6 * 7 / 6
    assert result.algebra.dim == 35 and result.dims_checked == (35, 35)
    # the words of weight 9 in degrees -1 to 2, each built once; the walk to
    # weight 9 lists 8,141 words
    assert {(record[3], -1 <= record[4] <= 2) for record in built} == {(9, True)}
    assert len(built) == len(set(built)) == 2376
    assert not realized
