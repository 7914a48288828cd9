"""Truncations: columns from the prefix recurrence, and Paths built only
when a view reads them.

realize sums each word's column from its prefix's column, with or without
relations; the columns must be the per-word columns item for item, scalar
types included.  realize, verify_differential and the dims of cohomology
read word records only, and reduce by relations on label tuples, so they
construct no Path; QuotientBasis.basis and the basis_by_degree lists build
theirs on first read, and h0_algebra builds only the degree-0 words.
"""

import pytest
from hypothesis import given
from test_realize_oracle import SETTINGS, presentations, typed

from quiverdg import cohomology, cy_completion, ginzburg, h0_algebra, realize, verify_differential
from quiverdg.dgalgebra import DgAlgebraPresentation, InconsistentPresentation
from quiverdg.fields import GroundField
from quiverdg.quiver import Arrow, Path, PathAlgebraElement, QuiverPresentation, Superpotential


def three_cycle():
    return QuiverPresentation(
        ("1", "2", "3"),
        (Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")))


def weight_raising():
    """d(h) = g*g with h of weight 1 and g of weight 1: the differential
    leaves the bound on the heaviest words, so the ledger is not empty."""
    q = QuiverPresentation(("v",), (Arrow("g", "v", "v", 0), Arrow("h", "v", "v", -1)))
    return DgAlgebraPresentation(
        ("v",), q.arrows, differential={"h": PathAlgebraElement.from_path(q.path(["g", "g"]))})


def commutative_c3():
    """k[x, y, z]: three loops of degree 0, the commutators as relations, and
    zero differential."""
    q = QuiverPresentation(("v",), tuple(Arrow(name, "v", "v") for name in "xyz"))
    relations = [PathAlgebraElement({q.path([a, b]): 1, q.path([b, a]): -1})
                 for a, b in ("xy", "xz", "yz")]
    return DgAlgebraPresentation(("v",), q.arrows, relations=relations)


def good():
    """The presentation `good` of tests/test_dgalgebra.py: dy = x*x with xy + yx
    and x^3 as relations, so the columns of x*y and y*y leave the basis and
    are reduced."""
    q = QuiverPresentation(("v",), (Arrow("x", "v", "v", 0), Arrow("y", "v", "v", -1)))
    return DgAlgebraPresentation(
        ("v",), q.arrows, differential={"y": PathAlgebraElement.from_path(q.path(["x", "x"]))},
        relations=[PathAlgebraElement({q.path(["x", "y"]): 1, q.path(["y", "x"]): 1}),
                   PathAlgebraElement.from_path(q.path(["x", "x", "x"]))])


def a5():
    return QuiverPresentation(
        tuple(str(i) for i in range(1, 6)),
        tuple(Arrow("a%d" % i, str(i), str(i + 1)) for i in range(1, 5)))


# name -> (presentation, weight bound, cohomology window)
PRESENTATIONS = {
    "3-cycle-cy3": lambda: (cy_completion(three_cycle(), 3), 6, (-8, 0)),
    "3-cycle-cy2-F101": lambda: (cy_completion(three_cycle(), 2, field=GroundField(101)), 6,
                                 (-8, 0)),
    "xyz-ginzburg": lambda: (ginzburg(three_cycle(), Superpotential(
        three_cycle(), {("x", "y", "z"): 1})), 7, (-8, 0)),
    "weight-raising": lambda: (weight_raising(), 5, (0, 0)),
    "commutative-c3": lambda: (commutative_c3(), 8, (0, 0)),
    "good": lambda: (good(), 3, (0, 0)),
}


@pytest.fixture
def path_count(monkeypatch):
    """Counts the calls of Path.__init__ from the moment it is requested."""
    count = [0]
    original = Path.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)
    monkeypatch.setattr(Path, "__init__", counting)
    return count


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_realize_verify_and_dims_build_no_path(name, path_count):
    p, bound, window = PRESENTATIONS[name]()
    path_count[0] = 0
    t = realize(p, window, bound)
    report = verify_differential(t)
    dims = cohomology(t, window).dims
    assert path_count[0] == 0
    assert report.ok and report.checked_pairs and dims
    assert len(t.qb.basis) == sum(map(len, t.basis_by_degree.values())) == len(t._words)
    assert t.dims() == {d: len(words) for d, words in sorted(t.basis_by_degree.items())}
    assert path_count[0] == 0
    assert bool(t.differential_ledger) == (name in ("weight-raising", "good"))


def test_paths_are_built_per_degree_on_first_read(path_count):
    p, bound, window = PRESENTATIONS["3-cycle-cy3"]()
    t = realize(p, window, bound)
    path_count[0] = 0
    zero = t.basis_by_degree[0]
    assert sorted(str(w) for w in zero[:3]) == ["e_1", "e_2", "e_3"]
    assert path_count[0] == len(zero)
    assert list(t.basis_by_degree[0]) == zero[:]
    assert path_count[0] == len(zero)
    # the id-ordered word list joins the degree lists: one Path per word
    words = list(t._words)
    assert path_count[0] == len(words)
    assert words[t._start[0]] is zero[0]
    assert words == [w for d in sorted(t.basis_by_degree) for w in t.basis_by_degree[d]]
    assert sorted(map(str, t.qb.basis)) == sorted(map(str, words))


def test_h0_algebra_builds_only_the_degree_zero_paths(path_count):
    t = realize(cy_completion(a5(), 2), (-4, 0), 8)
    path_count[0] = 0
    result = h0_algebra(t)
    assert path_count[0] == len(t.basis_by_degree[0]) == 885
    # H^0 is the preprojective algebra of A5, of dimension 5 * 6 * 7 / 6
    assert result.algebra.dim == 35 and result.algebra.verify() == []


def assert_prefix_columns_are_the_per_word_columns(t):
    for i, record in enumerate(t._records):
        column = t._columns[i]
        expected = t._word_column(record)
        assert typed(None if column is None else column.items()) == typed(
            None if expected is None else expected.items()), record


@SETTINGS
@given(presentations())
def test_prefix_columns_are_the_per_word_columns(case):
    p, bound = case
    try:
        t = realize(p, (0, 0), bound)
    except InconsistentPresentation:
        return
    assert_prefix_columns_are_the_per_word_columns(t)


def test_prefix_columns_of_good_are_the_per_word_columns():
    t = realize(good(), (-3, 0), 3)
    assert t.qb._rewriting.rules and t.differential_ledger
    assert_prefix_columns_are_the_per_word_columns(t)
