"""Renaming the vertices and arrows of a quiver changes no count and no verdict.

Names order the words of a truncation, so a renaming reorders bases,
matrices and representatives; it must not change what is computed from
them.  Each example gives every vertex and arrow of the test_01 corpus
quivers a fresh three-letter name, as the benchmark's seeded renaming does,
and compares the cohomology dims of the L = 3 truncation, its
DifferentialReport counts and check(...) of the L = 2 truncation, as
(verdict, criterion), with those under the original names.
"""

import string
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import CORPUS, one_loop, three_cycle

from quiverdg.dgalgebra import cohomology, realize, verify_differential
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.quiver import Arrow, QuiverPresentation, Superpotential
from quiverdg.reflexivity import check

CANONICAL = ("v", "1", "2", "3", "x", "a", "y", "z")
THREE_LETTERS = st.text(string.ascii_lowercase, min_size=3, max_size=3)


def renamed(quiver, name):
    return QuiverPresentation(
        tuple(name[v] for v in quiver.vertices),
        tuple(Arrow(name[a.name], name[a.source], name[a.target], a.degree)
              for a in quiver.arrows))


def presentations(name):
    """The corpus presentations with every vertex and arrow renamed."""
    out = [cy_completion(renamed(make(), name), n)
           for n in (1, 2, 3) for _, make, _ in CORPUS]
    loop, cycle = renamed(one_loop(), name), renamed(three_cycle(), name)
    out.append(ginzburg(loop, Superpotential(loop, {(name["x"],) * 3: 1})))
    out.append(ginzburg(cycle, Superpotential(
        cycle, {(name["x"], name["y"], name["z"]): 1})))
    return out


def invariants(name):
    out = []
    for presentation in presentations(name):
        t = realize(presentation, (-6, 0), 3)
        report = verify_differential(t)
        verdict = check(realize(presentation, (-6, 0), 2))
        out.append((cohomology(t, t.window).dims,
                    (report.checked_words, report.skipped_words,
                     report.checked_pairs, report.skipped_pairs, len(report.failures)),
                    (verdict.verdict, verdict.certificate.criterion)))
    return out


@cache
def original():
    return invariants({c: c for c in CANONICAL})


@settings(derandomize=True, max_examples=20, deadline=None)
@given(names=st.lists(THREE_LETTERS, min_size=len(CANONICAL),
                      max_size=len(CANONICAL), unique=True))
def test_renaming_changes_no_count_and_no_verdict(names):
    assert invariants(dict(zip(CANONICAL, names))) == original()
