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

A second set of tables pins what is read off cohomology classes and the
letter table of the L = 2 truncation, in insertion order:

- for each truncation, h0_algebra(t) as its basis labels, structure
  constants, unit and the two dimensions it compared, or the NotStabilized
  message;
- for each truncation, CohomologyResult.product over every pair of window
  degrees whose product lands in the window, each entry the coordinates, or
  None, or the RuntimeError message;
- the differential and comultiplication of dual_coalgebra(L = 2), and the
  differential terms of the dual bar presentation;
- reflexivity.check(L = 2) as its report (verdict, criterion, witness and
  hypotheses).

Those values were recorded before the class coordinates, the span solver
and the two duals' shared loops were merged.
"""

import hashlib
import json

import pytest
from test_acceptance import CORPUS, cubic_loop_potential, cycle_potential, one_loop, three_cycle

from quiverdg.dgalgebra import NotStabilized, UnsafeWindow, cohomology, h0_algebra, realize
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.koszul import cobar, dual_bar, dual_coalgebra
from quiverdg.reflexivity import check


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


def _vector(vec):
    return [[k, str(c)] for k, c in vec.items()]


def h0_table(t):
    try:
        h0 = h0_algebra(t)
    except NotStabilized as err:
        return ["NotStabilized", str(err)]
    a = h0.algebra
    return [a.basis,
            [[i, j, _vector(vec)] for (i, j), vec in a.structure.items()],
            _vector(a.unit), list(h0.dims_checked)]


def product_table(t):
    lo, hi = t.window
    result = cohomology(t, (lo, hi))
    table = []
    for left in range(lo, hi + 1):
        for right in range(lo, hi + 1):
            if not lo <= left + right <= hi:
                continue
            for i in range(result.dims[left]):
                for j in range(result.dims[right]):
                    try:
                        coords = result.product(left, i, right, j)
                    except RuntimeError as err:
                        table.append([left, i, right, j, "RuntimeError", str(err)])
                        continue
                    table.append([left, i, right, j,
                                  None if coords is None else _vector(coords)])
    return table


def coalgebra_table(c):
    return [[[name, [[str(k), other] for k, other in entries]]
             for name, entries in c.differential.items()],
            [[name, [[str(k), left, right] for k, left, right in entries]]
             for name, entries in c.comultiplication.items()]]


def differential_table(p):
    return [[name, [[str(path), str(c)] for path, c in value.terms.items()]]
            for name, value in p.differential.items()]


def duality_tables(presentation, letters):
    built = truncations(presentation, letters)
    small, dual = built[1][1], built[3][1]
    rows = [(kind, digest(h0_table(t)), digest(product_table(t))) for kind, t in built]
    rows.append(("duals", digest(coalgebra_table(dual_coalgebra(small))),
                 digest(differential_table(dual.presentation))))
    rows.append(("check L=2", digest(check(small).as_report())))
    return rows


# presentation -> digests of (h0_algebra, products) per truncation, in the
# order of truncations(), then of the two duals and of the L = 2 verdict
PINNED_DUALITY = {
    "point n=1": [
        ("L=3", "f01529c6df09d57d", "7e8264901009c972"),
        ("L=2", "bdac4846cf94ac1c", "7e8264901009c972"),
        ("cobar", "235971e0017e13ef", "c796a5b9d3102721"),
        ("dual bar", "235971e0017e13ef", "c796a5b9d3102721"),
        ("duals", "643d5437104296e2", "4f53cda18c2baa0c"),
        ("check L=2", "047d08304d2d1438"),
    ],
    "one loop n=1": [
        ("L=3", "49e2a8e27f44a644", "ed92aa8d0705487d"),
        ("L=2", "6a9746d633fd8fbc", "198bdccec3ac3b5c"),
        ("cobar", "4646f13d667def53", "11489481abe6f607"),
        ("dual bar", "4646f13d667def53", "11489481abe6f607"),
        ("duals", "9b21e819bed0ac0b", "fe45a484dd1aabff"),
        ("check L=2", "0877e0158bd28447"),
    ],
    "A_2 n=1": [
        ("L=3", "02726c5fe2209c31", "e2ce2c952f10a378"),
        ("L=2", "6a9746d633fd8fbc", "875624961054b9b4"),
        ("cobar", "98635cf34e5a9cf7", "92b7e8f8502fcb5a"),
        ("dual bar", "98635cf34e5a9cf7", "92b7e8f8502fcb5a"),
        ("duals", "297855552eb34dec", "f0b6e836c4cedd0a"),
        ("check L=2", "17c1190a92c7a8f8"),
    ],
    "3-cycle n=1": [
        ("L=3", "00abb1408a4a956f", "3d03ebaec075e8c3"),
        ("L=2", "8e796a5142202ad7", "95bad5218549b134"),
        ("cobar", "b37f48287ecf0643", "63ca8a4b743d829a"),
        ("dual bar", "b37f48287ecf0643", "63ca8a4b743d829a"),
        ("duals", "74ac6fc3455532ac", "84fd309ff906b197"),
        ("check L=2", "9f6fa6f5536b6d33"),
    ],
    "point n=2": [
        ("L=3", "235971e0017e13ef", "9be9162e70a7be8d"),
        ("L=2", "235971e0017e13ef", "9be9162e70a7be8d"),
        ("cobar", "235971e0017e13ef", "fcc07921ab3932f0"),
        ("dual bar", "235971e0017e13ef", "fcc07921ab3932f0"),
        ("duals", "643d5437104296e2", "4f53cda18c2baa0c"),
        ("check L=2", "ef16713d458d2371"),
    ],
    "one loop n=2": [
        ("L=3", "92e1da46c10fa509", "b9f692892a8ba1f7"),
        ("L=2", "96be743c33ab4e9e", "32c78534a0597a96"),
        ("cobar", "235971e0017e13ef", "c8ea1171d56ae091"),
        ("dual bar", "235971e0017e13ef", "c8ea1171d56ae091"),
        ("duals", "d839ceb5362f9491", "f8e66e94746591cc"),
        ("check L=2", "1b0f24b79d996f61"),
    ],
    "A_2 n=2": [
        ("L=3", "38e4fd357d2f7f88", "a33bd604c50dad80"),
        ("L=2", "38e4fd357d2f7f88", "412011984f7f76f6"),
        ("cobar", "5474b4ebd8fd57dd", "23822b76c5d84ec0"),
        ("dual bar", "5474b4ebd8fd57dd", "23822b76c5d84ec0"),
        ("duals", "e4c6135355ec9f56", "df5e3580a750b9fa"),
        ("check L=2", "4c8b7d387a9e509b"),
    ],
    "3-cycle n=2": [
        ("L=3", "af5faeff6c3905e1", "a464e148c1a20816"),
        ("L=2", "99b85f1c3e340e7d", "003e79e7e219d3ea"),
        ("cobar", "d97734e474cceedd", "279bf82170c24434"),
        ("dual bar", "d97734e474cceedd", "279bf82170c24434"),
        ("duals", "834dc4d61f5e037e", "5f11432aa9e844ec"),
        ("check L=2", "e5a10a6dd9643510"),
    ],
    "point n=3": [
        ("L=3", "235971e0017e13ef", "57259ab321ef4f5d"),
        ("L=2", "235971e0017e13ef", "57259ab321ef4f5d"),
        ("cobar", "235971e0017e13ef", "a870f4c3d358e6a6"),
        ("dual bar", "235971e0017e13ef", "a870f4c3d358e6a6"),
        ("duals", "643d5437104296e2", "4f53cda18c2baa0c"),
        ("check L=2", "ef16713d458d2371"),
    ],
    "one loop n=3": [
        ("L=3", "49e2a8e27f44a644", "68113ff56b1d5f3f"),
        ("L=2", "6a9746d633fd8fbc", "edcf932ebc0ab044"),
        ("cobar", "235971e0017e13ef", "9919d7a165749e88"),
        ("dual bar", "235971e0017e13ef", "9919d7a165749e88"),
        ("duals", "9b21e819bed0ac0b", "fe45a484dd1aabff"),
        ("check L=2", "bac08088eb2e6fbf"),
    ],
    "A_2 n=3": [
        ("L=3", "1b6a18fd519ba17e", "731d7b364abab723"),
        ("L=2", "1b6a18fd519ba17e", "5d888d16d22b5620"),
        ("cobar", "5474b4ebd8fd57dd", "f5f9bec05e540c8c"),
        ("dual bar", "5474b4ebd8fd57dd", "f5f9bec05e540c8c"),
        ("duals", "297855552eb34dec", "f0b6e836c4cedd0a"),
        ("check L=2", "4c8b7d387a9e509b"),
    ],
    "3-cycle n=3": [
        ("L=3", "00abb1408a4a956f", "299ab3ade084b386"),
        ("L=2", "8e796a5142202ad7", "60a039cf771cf31d"),
        ("cobar", "d97734e474cceedd", "9d730686294a99d5"),
        ("dual bar", "d97734e474cceedd", "9d730686294a99d5"),
        ("duals", "74ac6fc3455532ac", "84fd309ff906b197"),
        ("check L=2", "73da3fb76021136b"),
    ],
    "x^3": [
        ("L=3", "9a5b0d0a92390b94", "6d4be0f212b18ac3"),
        ("L=2", "9a5b0d0a92390b94", "6d4be0f212b18ac3"),
        ("cobar", "235971e0017e13ef", "d4d0a16eb2642278"),
        ("dual bar", "235971e0017e13ef", "d4d0a16eb2642278"),
        ("duals", "2c05dbfce9a12205", "c9ae4b97020fecad"),
        ("check L=2", "8c52c94e7e3ac84f"),
    ],
    "xyz": [
        ("L=3", "9984357df1bc1730", "a4826141e209f3c3"),
        ("L=2", "9984357df1bc1730", "a4826141e209f3c3"),
        ("cobar", "d97734e474cceedd", "95c851d3a85541a4"),
        ("dual bar", "d97734e474cceedd", "95c851d3a85541a4"),
        ("duals", "5c34596f05b228d2", "276523e2703a8f24"),
        ("check L=2", "f5af94494e58f96c"),
    ],
}


@pytest.mark.parametrize("label,make,letters", corpus(), ids=[c[0] for c in corpus()])
def test_duality_tables_are_pinned(label, make, letters):
    assert duality_tables(make(), letters) == PINNED_DUALITY[label]
