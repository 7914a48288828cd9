"""Pinned matrices and cohomology of the test_01 corpus truncations.

For every truncation that test_01 builds (each presentation realized at
L = 3 and L = 2, and the cobar of the dual coalgebra and the dual bar of the
L = 2 truncation), two tables are serialised to canonical JSON and pinned by
SHA-256 digest:

- for every degree from one below the lowest basis degree to the highest,
  the shape of matrix_between(degree) and its entries as (row, column,
  coeff) in insertion order;
- for each degree of the realized window, cohomology(t, (degree, degree))
  as its dimension and the repr of each representative in order, or the
  degrees named by UnsafeWindow.

The values were recorded before basis words were numbered by integers
inside each truncation.  The numbering must not reorder rows, columns or
representatives, so these digests must not move.
"""

import hashlib
import json

import pytest
from test_acceptance import CORPUS, cubic_loop_potential, cycle_potential, one_loop, three_cycle

from quiverdg.dgalgebra import UnsafeWindow, cohomology, realize
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.koszul import cobar, dual_bar, dual_coalgebra


def corpus():
    out = [("%s n=%d" % (name, n), lambda make=make, n=n: cy_completion(make(), n), letters)
           for n in (1, 2, 3) for name, make, letters in CORPUS]
    out.append(("x^3", lambda: ginzburg(one_loop(), cubic_loop_potential()), 6))
    out.append(("xyz", lambda: ginzburg(three_cycle(), cycle_potential()), 6))
    return out


def truncations(presentation, letters):
    small = realize(presentation, (-6, 0), 2)
    return [
        ("L=3", realize(presentation, (-6, 0), 3)),
        ("L=2", small),
        ("cobar", cobar(dual_coalgebra(small), letters, (-40, 8))),
        ("dual bar", dual_bar(small, letters, (-40, 8))),
    ]


def matrix_table(t):
    degrees = sorted(t.basis_by_degree)
    table = []
    for d in range(degrees[0] - 1, degrees[-1] + 1):
        m = t.matrix_between(d)
        table.append([d, m.rows, m.cols,
                      [[r, c, str(v)] for (r, c), v in m.entries.items()]])
    return table


def cohomology_table(t):
    lo, hi = t.window
    table = []
    for d in range(lo, hi + 1):
        try:
            result = cohomology(t, (d, d))
        except UnsafeWindow as err:
            table.append([d, "unsafe", err.degrees])
            continue
        table.append([d, result.dims[d], [repr(r) for r in result.representatives[d]]])
    return table


def digest(value):
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# presentation -> digests of (matrices, cohomology) per truncation, in the
# order of truncations()
PINNED = {
    "point n=1": [
        ("L=3", "464c9c94d82ca4c6", "11b68502afa64f43"),
        ("L=2", "464c9c94d82ca4c6", "11b68502afa64f43"),
        ("cobar", "4f7b5d0aa037dc02", "4bb55987f6a899bd"),
        ("dual bar", "4f7b5d0aa037dc02", "4bb55987f6a899bd"),
    ],
    "one loop n=1": [
        ("L=3", "03025aba4b775780", "7e13476777648b6e"),
        ("L=2", "444bb0543048ab83", "134120d624f12ba6"),
        ("cobar", "884e3d19bcb7b7ea", "745df425d96b1c9b"),
        ("dual bar", "884e3d19bcb7b7ea", "745df425d96b1c9b"),
    ],
    "A_2 n=1": [
        ("L=3", "335cf6ba214383da", "865cdb6530c60611"),
        ("L=2", "b70f6866355209a2", "da2507e2ffbae57e"),
        ("cobar", "a0c91e698ffdffa1", "17af471dd8fade99"),
        ("dual bar", "a0c91e698ffdffa1", "17af471dd8fade99"),
    ],
    "3-cycle n=1": [
        ("L=3", "a5f262cca02112f8", "694b9907427c5cc9"),
        ("L=2", "c39c30a08fc9c848", "c91cd65e88fa019a"),
        ("cobar", "a7ae063ec85efd99", "6f678ce36e99407b"),
        ("dual bar", "a7ae063ec85efd99", "6f678ce36e99407b"),
    ],
    "point n=2": [
        ("L=3", "0f51634887039b8f", "97a8df524939e723"),
        ("L=2", "0f51634887039b8f", "97a8df524939e723"),
        ("cobar", "fd8b4ebafa611ec8", "0ca7bfe2df27f59e"),
        ("dual bar", "fd8b4ebafa611ec8", "0ca7bfe2df27f59e"),
    ],
    "one loop n=2": [
        ("L=3", "aeb58f8dc9f493c0", "8761118f969eb149"),
        ("L=2", "e83c93a5eb236414", "53d82d6d0dc598b3"),
        ("cobar", "af027690d4f4e61e", "e46e3508fc63de14"),
        ("dual bar", "af027690d4f4e61e", "e46e3508fc63de14"),
    ],
    "A_2 n=2": [
        ("L=3", "b747458a0b6cc46b", "1014b21ef594d44c"),
        ("L=2", "cbf6201e1ab5960d", "5f51d340d3e405a9"),
        ("cobar", "42e2510e3128bf57", "7cb89ccfc4db7ada"),
        ("dual bar", "42e2510e3128bf57", "7cb89ccfc4db7ada"),
    ],
    "3-cycle n=2": [
        ("L=3", "6ed80e4141a24ced", "df8824d243a4ae4d"),
        ("L=2", "b0870076920cb6dd", "8bb5921e4b2e5ccf"),
        ("cobar", "c40f55662b24958d", "0cda51f68ba3d4bf"),
        ("dual bar", "c40f55662b24958d", "0cda51f68ba3d4bf"),
    ],
    "point n=3": [
        ("L=3", "c56c923904bd175a", "60cf4863e19cf051"),
        ("L=2", "c56c923904bd175a", "60cf4863e19cf051"),
        ("cobar", "e089d4a99956ed12", "bc606a80a5b86b3d"),
        ("dual bar", "e089d4a99956ed12", "bc606a80a5b86b3d"),
    ],
    "one loop n=3": [
        ("L=3", "dea36168ffe97506", "ae729ef5662579cf"),
        ("L=2", "c9c16c0a453d8903", "9475f119bec067ad"),
        ("cobar", "bce91cabce8d3998", "a95b325ba60818ca"),
        ("dual bar", "bce91cabce8d3998", "a95b325ba60818ca"),
    ],
    "A_2 n=3": [
        ("L=3", "3b71a35636c607ee", "e02c33b86990521b"),
        ("L=2", "27bb1d3e9704ab6f", "6ecb12d29b24da10"),
        ("cobar", "fce8501e51a5edbd", "b1c6fac9624fb576"),
        ("dual bar", "fce8501e51a5edbd", "b1c6fac9624fb576"),
    ],
    "3-cycle n=3": [
        ("L=3", "8a2c3e660e13add3", "747ca5d67e94e5f0"),
        ("L=2", "2ec640c7dffb402a", "49087a6e7382c2be"),
        ("cobar", "c5e1e40bea2054cf", "105031e89d870c91"),
        ("dual bar", "c5e1e40bea2054cf", "105031e89d870c91"),
    ],
    "x^3": [
        ("L=3", "aec62ca02d921d38", "dd0a59fff577d715"),
        ("L=2", "2f1b9c3d2cbf9c75", "dd0a59fff577d715"),
        ("cobar", "43595dab986d2d40", "08cca51e6861d801"),
        ("dual bar", "43595dab986d2d40", "08cca51e6861d801"),
    ],
    "xyz": [
        ("L=3", "3b5e6998865a39e5", "af622865035c880d"),
        ("L=2", "299211bbf3d72583", "af622865035c880d"),
        ("cobar", "4552e8579c883182", "93be93c064c78a53"),
        ("dual bar", "4552e8579c883182", "93be93c064c78a53"),
    ],
}


@pytest.mark.parametrize("label,make,letters", corpus(), ids=[c[0] for c in corpus()])
def test_truncation_tables_are_pinned(label, make, letters):
    got = [(kind, digest(matrix_table(t)), digest(cohomology_table(t)))
           for kind, t in truncations(make(), letters)]
    assert got == PINNED[label]
