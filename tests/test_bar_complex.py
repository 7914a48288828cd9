"""Pinned bar complexes: word order, ledger and every column.

For each case below the three tables of a bar complex are serialised to
canonical JSON and pinned by SHA-256 digest, together with their sizes:

- per degree, the words as strings, in order;
- the differential ledger as (kind, degree, word), in order;
- the column of every word via d_of, as sorted (word, coeff) string pairs,
  or None for a dropped column, in word order.

The values were recorded with the bar construction that built every word,
sorted the words by their string form and assembled every column with one
product per adjacent letter pair.  A faster construction must reproduce them
exactly.  The last case has two letters that print alike, the arrow a*b and
the path a*b, so its pins also fix how such ties are ordered.
"""

import hashlib
import json

import pytest
from test_acceptance import a2_quiver, three_cycle
from test_koszul import odd_generator_with_square_differential, truncated_polynomials

from quiverdg.dgalgebra import DgAlgebraPresentation, realize
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion
from quiverdg.koszul import bar, cobar, dual_bar, dual_coalgebra
from quiverdg.linalg import DSquaredNonzero
from quiverdg.quiver import Arrow


def tie_presentation():
    # a*b is both an arrow (weight 1) and the path a.b (weight 2)
    return DgAlgebraPresentation(
        ["v"], [Arrow(name, "v", "v", 0) for name in ("a", "b", "a*b")])


CASES = {
    "3-cycle cy3 over F101, L=2, 3 letters": lambda: bar(realize(
        cy_completion(three_cycle(), 3, field=GroundField(101)), (-40, 8), 2),
        3, (-40, 8)),
    "odd generator with dx = x^2, L=5, 2 letters": lambda: bar(realize(
        odd_generator_with_square_differential(), (-1, 12), 5), 2, (0, 8)),
    "k[x]/x^3, 4 letters": lambda: bar(realize(
        truncated_polynomials(3), (-6, 6), 4), 4, (-4, 0)),
    "A2 cy2, L=3, 3 letters": lambda: bar(realize(
        cy_completion(a2_quiver(), 2), (-6, 0), 3), 3, (-6, 0)),
    "arrows a, b, a*b, L=2, 3 letters": lambda: bar(realize(
        tie_presentation(), (0, 0), 2), 3, (-3, 0)),
}

# case -> ((words, ledger entries, honest columns),
#          digests of (word order, ledger, columns))
PINNED = {
    "3-cycle cy3 over F101, L=2, 3 letters": ((1200, 1140, 60), (
        "44ffb7c978fc6d90", "eade8895e162dfeb", "ab768b7754a7c60c")),
    "odd generator with dx = x^2, L=5, 2 letters": ((31, 16, 15), (
        "8c8214f80e3629d1", "c98168f73c476352", "58ca0427d942b7c4")),
    "k[x]/x^3, 4 letters": ((31, 0, 31), (
        "b70a7ce05a69cf91", "4f53cda18c2baa0c", "3c1920b1e0f94eac")),
    "A2 cy2, L=3, 3 letters": ((518, 472, 46), (
        "037f3c9ee223ed0e", "199a751fbc6793a5", "af9d718017f098f1")),
    "arrows a, b, a*b, L=2, 3 letters": ((1885, 1836, 49), (
        "63f6ac3ae9ceea9a", "749bc6b0c23ab931", "4ed541820c457c1e")),
}


def tables(b):
    order = [[d, [str(w) for w in words]] for d, words in b.words_by_degree.items()]
    ledger = [[e.kind, e.degree, e.word] for e in b.differential_ledger]
    columns = []
    for words in b.words_by_degree.values():
        for w in words:
            column = b.d_of(w)
            columns.append(None if column is None else
                           sorted([str(u), str(c)] for u, c in column.items()))
    return order, ledger, columns


def digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(CASES))
def test_bar_tables_are_pinned(case):
    order, ledger, columns = tables(CASES[case]())
    sizes = (sum(len(words) for _, words in order), len(ledger),
             sum(column is not None for column in columns))
    assert (sizes, tuple(map(digest, (order, ledger, columns)))) == PINNED[case]


def test_odd_generator_ledger_follows_word_order():
    b = CASES["odd generator with dx = x^2, L=5, 2 letters"]()
    entries = [(e.degree, e.word) for e in b.differential_ledger]
    assert entries == [
        (4, "[x*x*x*x*x]"),
        (4, "[x|x*x*x*x*x]"),
        (4, "[x*x|x*x*x*x]"),
        (5, "[x*x|x*x*x*x*x]"),
        (4, "[x*x*x|x*x*x]"),
        (5, "[x*x*x|x*x*x*x]"),
        (6, "[x*x*x|x*x*x*x*x]"),
        (4, "[x*x*x*x|x*x]"),
        (5, "[x*x*x*x|x*x*x]"),
        (6, "[x*x*x*x|x*x*x*x]"),
        (7, "[x*x*x*x|x*x*x*x*x]"),
        (4, "[x*x*x*x*x|x]"),
        (5, "[x*x*x*x*x|x*x]"),
        (6, "[x*x*x*x*x|x*x*x]"),
        (7, "[x*x*x*x*x|x*x*x*x]"),
        (8, "[x*x*x*x*x|x*x*x*x*x]"),
    ]


def test_letters_that_print_alike_keep_generation_order():
    # Words whose strings tie stay in generation order: by vertex, then by
    # letter position in the ideal basis, where the arrow a*b (weight 1)
    # precedes the path a*b (weight 2).
    b = CASES["arrows a, b, a*b, L=2, 3 letters"]()
    labels = [[p.labels for p in w.letters] for w in b.words_by_degree[-1]]
    assert labels[2:5] == [[("a", "a*b")], [("a*b",)], [("a", "b")]]
    pairs = [[p.labels for p in w.letters] for w in b.words_by_degree[-2]]
    assert pairs[35:40] == [
        [("a", "a*b"), ("b", "b")],
        [("a*b",), ("a",)],
        [("a", "b"), ("a",)],
        [("a*b",), ("a", "a")],
        [("a", "b"), ("a", "a")],
    ]


def test_duals_name_letters_that_print_alike_apart():
    # The arrow a*b keeps the name [a*b]; the path a*b, later in basis
    # order, takes the first free suffix.
    t = realize(tie_presentation(), (0, 0), 2)
    dual = dual_bar(t, 3, (0, 3))
    names = [g.name for g in dual.presentation.generators]
    assert names[1] == "[a*b]" and names[5] == "[a*b]#2"
    assert len(set(names)) == len(names) == 12
    coalgebra = dual_coalgebra(t)
    assert [g.name for g in coalgebra.cogenerators] == names
    assert cobar(coalgebra, 3, (0, 3)).dims() == dual.dims() == {0: 1, 1: 12, 2: 63, 3: 27}


def test_d_squared_check_fires():
    # Doubling the column of z_1 breaks d o d = 0; the first honest bar word
    # in word order that shows it is [a^|z_1], in degree -3.
    p = cy_completion(a2_quiver(), 2)
    t = realize(p, (-6, 0), 3)
    z1 = p.quiver.path(["z_1"])
    k = t._id[z1]
    t._columns[k] = {i: 2 * c for i, c in t._columns[k].items()}
    with pytest.raises(DSquaredNonzero) as err:
        bar(t, 3, (-6, 0))
    assert (err.value.degree, err.value.witness) == (-3, "[a^|z_1]")
