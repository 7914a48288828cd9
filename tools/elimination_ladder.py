"""Time the exact eliminations on a fixed ladder of inputs.

    PYTHONPATH=src python3 tools/elimination_ladder.py LABEL

writes BENCH_<LABEL>.json in the current directory.  Each rung is the best
of five time.process_time() runs of one call; its inputs are built, and
realized where the call takes a truncation, before the clock starts.  The
rungs, over Q unless stated:

- cohomology of the rank-3 Calabi-Yau completion of the 3-cycle, realized
  on the window (-L, 0) at weight bound L, for L = 6, 7, 8, with its
  representatives read (cohomology builds them on first read); and at
  L = 8 with only its dims read;
- verify_koszul_pair of the 3-cycle for n = 2 at word bound 7 on (-7, 0),
  which realizes both sides inside the timed call;
- jacobi_basis of xxyy - xyxy + xxx on two loops at L = 9, and of xyz - xzy
  on three loops (the commutative C^3, C(L + 3, 3) words) at L = 7, 8, 9,
  12 and 16;
- h0_algebra of the rank-2 completion of A5 realized on (-4, 0) at L = 8,
  and the dim H^0 of its weight-9 slice alone (_h0_of_weight_slice: 2,376
  words of degrees -1 to 2, listed from the truncation's own records);
- realize of that completion on (-4, 0) at L = 9 (8,141 words), and of the
  rank-3 completion of the 3-cycle on (-8, 0) at L = 8 (5,043 words);
- realize of the rank-3 completion of A2 on (-3, 0) at L = 3 (14 words),
  1,000 times in one call, since one such realize takes well under a
  millisecond and best of five could not resolve it;
- build/completions: the eight constructions of the benchmark's
  completion-verify workload in one call, the rank-2 and rank-3
  completions of the loop, the rank-2 completions of A2 and the Kronecker
  quiver, the rank-2 and rank-3 completions of the 3-cycle, and the
  Ginzburg algebras of xxx on the loop and of xyz on the 3-cycle; each
  certifies d^2 = 0 on its own truncation, and the quivers and potentials
  are built before the clock starts;
- realize on (0, 18) at L = 10 of the double dual that completeness_report
  builds for k[eps]/eps^2 with eps in degree -2 over F_101: ten letters of
  weights 1 to 10 and 1,024 words, where the walk joins the most levels
  into one; the two dual bars are built before the clock starts;
- bar at 5 and 6 letters of the same 3-cycle completion over F_101,
  realized on (-40, 8) at L = 2, then its all_dims() and the length of its
  differential ledger (58,824 and 411,771 words);
- dual_bar at 5 letters of that realization, as the benchmark's
  duals-relations-cli workload builds it;
- letter-tables of that completion: realize on (-40, 8) at L = 2, then
  bar at 5 letters, dual_bar at 5 letters and dual_coalgebra, all inside
  the timed call, the sequence in which the benchmark's duals op reads the
  letter table of one truncation three times;
- completeness_report at word bound 10 on (0, 18) of k[eps]/eps^2 with eps
  in degree -2 over F_101, realized on (0, 18) at L = 10 before the clock
  starts, as that workload's square-zero-3 op runs it.  This rung and the
  dual_bar rung time five calls on one truncation.  While truncations kept
  a product memo, the first call filled it and the other four reread it
  warm; every product is now taken afresh on each call;
- cohomology_dims on (-6, 0) of the bar at 6 letters of R_2 of the 3-cycle
  (rn_presentation) over F_101, realized on (-8, 8) at L = 2, as the
  benchmark's duals-relations-cli workload runs it; the bar is built before
  the clock starts;
- verify_differential of the rank-3 completion of the 3-cycle realized on
  (-8, 0) at L = 8, over Q (built and realized as the benchmark's
  completion-verify workload does, at a larger bound) and over F_101 (5,043
  words, 36,969 pairs).  These two time five calls on one truncation;
  their -cold twins realize inside the timed call, as the benchmark does
  before every verify_differential.  verify_differential builds its
  product rows afresh on every call and keeps nothing on the truncation,
  so the two differ by the realize;
- verify_differential of the commutative k[x, y, z] (three loops, the
  commutators as relations, zero differential) on (0, 0) at L = 10 over Q:
  286 words and 8,008 pairs.  Every rule has slack 0, so a product whose
  prefix product is one word with coefficient one is read off the word
  table, and 1,947 products are reduced by the relations.  The truncation is realized
  inside the timed call; realize is about 1 % of the call;
- decompose_commutative of k[x]/(m), m = x (x-1)^2 (x-2) (x^2+1) (x+3)^2,
  on 1, x, ..., x^7: five local factors, as the benchmark builds it;
- radical of F_2[x, y]/(x^2, y^2), F_3[x, y]/(x^3, y^3) and
  F_5[x]/((x + 1)^5) on their monomials: local algebras whose trace forms
  are zero, so that the kernel of x -> x^q certifies each radical.

- selftest, run in this process as `quiverdg selftest --quiet --json PATH`
  through cli.main; the rung checks exit 0 and returns the report;
- check/verdict-table: check and replay_certificate on the ten fixtures of
  the acceptance suite's reflexivity verdict table (two symbolic families,
  k[u]/u^2, a local noncommutative algebra, k[x]/x^2 with |x| = 2 realized
  on (-4, 4) at L = 4, the cubic one-loop Ginzburg algebra, the rank-2
  completion of A2 and the rank-3 completion of the 3-cycle, and two
  annuli), built before the clock starts; the rung checks that every
  certificate replays and returns the (verdict, criterion) rows;
- check/finite-dimensional: check on five algebras by structure constants,
  built before the clock starts: the local noncommutative one on e, x, y,
  xy, M_2(Q), the upper triangular 2x2 matrices, and k[u]/u^2 with |u| = 2
  and with |u| = -3; it returns the (verdict, criterion) rows;
- check/truncations: check on the nine realized truncations of the
  reflexivity suite's truncation verdict table, realized before the clock
  starts: k[x]/x^3 on (-2, 2) at L = 5, the rank-2 completion of A2 on
  (-4, 0) at L = 4, k[x]/(x^2 - x) on (-2, 2) at L = 2, k[x]/x^2 with
  |x| = 2 on (-4, 4) at L = 4, eps and g of degrees 1 and 3 with every
  product zero on (0, 1) at L = 4, a free degree-0 loop on (-2, 2) at
  L = 3, u and w of degrees 1 and -1 with every product zero on (-2, 2)
  at L = 3, x and e of degrees 0 and 1 with every product zero on (0, 1)
  at L = 3, and A2 over F_2 on (-1, 1) at L = 2; it returns the
  (verdict, criterion) rows;
- each command of the commands list of the six documents under tests/data,
  run in this process as `quiverdg COMMAND DOCUMENT --quiet --json PATH`
  through cli.main; the rung checks exit 0, and the report bytes against the
  document's golden report where that report is of this command;
- document-faults/fixtures: those six documents, each written once per
  node under "object" (the object itself included) with that node replaced
  by {"?": null}, under each command the document lists: 214 runs of
  cli.main, each checked to exit 1.  The documents are written before the
  clock starts, so the rung times the document walk and its faults.  The
  base of a relation's term is left out: a commit that ignored the base of
  a term with labels exits 0 there, and two commits are compared on the
  same faults.

The cold-start rungs are different: each is the median wall time, not
process_time, of five fresh Python processes, run under the caller's
environment, with the median wall time of five `python -c pass` runs
recorded next to it as python_c_pass_s.  They are

- cold-import/quiverdg: `python -c "import quiverdg"`;
- cold-import/quiverdg.cli: `python -c "import quiverdg.cli"`;
- cold-cli/disk_gentle-gentle: `python -m quiverdg.cli gentle` on
  tests/data/disk_gentle.json, with --quiet.

The caller's environment decides among other things whether Python may
cache compiled bytecode (PYTHONDONTWRITEBYTECODE); without a cache every
process compiles the modules it imports, which moves these rungs by tens of
milliseconds.

Compare two commits by running the script in a checkout of each, with the
same Python, and reading the rungs side by side.
"""

import contextlib
import copy
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from quiverdg import (
    Arrow,
    BoundaryComponent,
    DgAlgebraPresentation,
    FiniteDimAlgebra,
    GroundField,
    MarkedSurfaceArcSystem,
    PathAlgebraElement,
    QuiverPresentation,
    Superpotential,
    SymbolicFamily,
    bar,
    check,
    cohomology,
    completeness_report,
    cy_completion,
    decompose_commutative,
    dual_bar,
    dual_coalgebra,
    gentle_presentation,
    ginzburg,
    h0_algebra,
    jacobi_basis,
    realize,
    replay_certificate,
    verify_differential,
    verify_koszul_pair,
)
from quiverdg import cli
from quiverdg.dgalgebra import _h0_of_weight_slice
from quiverdg.ginzburg import rn_presentation

REPEATS = 5
DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
DOCUMENTS = ("a2_preprojective", "annulus_pair", "circle_pair", "disk_gentle",
             "one_loop_ginzburg", "r3_pair")


def three_cycle():
    return QuiverPresentation(
        ("1", "2", "3"),
        (Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")))


def cycle_cohomology(bound):
    t = realize(cy_completion(three_cycle(), 3), (-bound, 0), bound)
    return lambda: cohomology(t, (-bound, 0)).representatives


def cycle_cohomology_dims(bound):
    t = realize(cy_completion(three_cycle(), 3), (-bound, 0), bound)
    return lambda: cohomology(t, (-bound, 0)).dims


def cycle_koszul_pair(n, bound):
    return lambda: verify_koszul_pair(three_cycle(), n, bound, (-bound, 0))


def two_loop_jacobi():
    quiver = QuiverPresentation(("v",), (Arrow("x", "v", "v"), Arrow("y", "v", "v")))
    potential = Superpotential(quiver, {("x", "x", "y", "y"): 1,
                                        ("x", "y", "x", "y"): -1,
                                        ("x", "x", "x"): 1})
    return lambda: jacobi_basis(quiver, potential, 9)


def c3_jacobi(bound):
    quiver = QuiverPresentation(("v",), tuple(Arrow(name, "v", "v") for name in "xyz"))
    potential = Superpotential(quiver, {("x", "y", "z"): 1, ("x", "z", "y"): -1})
    return lambda: jacobi_basis(quiver, potential, bound)


def a5():
    return QuiverPresentation(
        tuple(str(i) for i in range(1, 6)),
        tuple(Arrow("a%d" % i, str(i), str(i + 1)) for i in range(1, 5)))


def a5_h0():
    t = realize(cy_completion(a5(), 2), (-4, 0), 8)
    return lambda: h0_algebra(t)


def a5_h0_slice():
    t = realize(cy_completion(a5(), 2), (-4, 0), 8)
    return lambda: _h0_of_weight_slice(t)


def a5_realize():
    p = cy_completion(a5(), 2)
    return lambda: realize(p, (-4, 0), 9)


def a2_realizes():
    p = cy_completion(QuiverPresentation(("1", "2"), (Arrow("a", "1", "2"),)), 3)

    def call():
        for _ in range(1000):
            t = realize(p, (-3, 0), 3)
        return t
    return call


def completions():
    loop = QuiverPresentation(("v",), (Arrow("x", "v", "v"),))
    a2 = QuiverPresentation(("1", "2"), (Arrow("a", "1", "2"),))
    kronecker = QuiverPresentation(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    cycle = three_cycle()
    ranks = ((loop, 2), (loop, 3), (a2, 2), (kronecker, 2), (cycle, 2), (cycle, 3))
    potentials = ((loop, Superpotential(loop, {("x", "x", "x"): 1})),
                  (cycle, Superpotential(cycle, {("x", "y", "z"): 1})))

    def call():
        return ([cy_completion(quiver, n) for quiver, n in ranks]
                + [ginzburg(quiver, potential) for quiver, potential in potentials])
    return call


def cycle_realize():
    p = cy_completion(three_cycle(), 3)
    return lambda: realize(p, (-8, 0), 8)


def cycle_bar(letters):
    t = realize(cy_completion(three_cycle(), 3, field=GroundField(101)), (-40, 8), 2)

    def call():
        b = bar(t, letters, (-40, 8))
        return b.all_dims(), len(b.differential_ledger)
    return call


def cycle_dual_bar():
    t = realize(cy_completion(three_cycle(), 3, field=GroundField(101)), (-40, 8), 2)
    return lambda: dual_bar(t, 5, (-40, 8))


def cycle_letter_tables():
    p = cy_completion(three_cycle(), 3, field=GroundField(101))

    def call():
        # a fresh truncation per run, read by the three callers of its
        # letter table in the order the benchmark's duals op runs them
        t = realize(p, (-40, 8), 2)
        words = sum(map(len, bar(t, 5, (-40, 8)).words_by_degree.values()))
        dual = dual_bar(t, 5, (-40, 8))
        return words, dual.dims(), len(dual_coalgebra(t).cogenerators)
    return call


def square_zero():
    """k[eps]/eps^2 with eps in degree -2 over F_101, realized on (0, 18) at
    L = 10."""
    quiver = QuiverPresentation(("v",), (Arrow("eps", "v", "v", -2),))
    field = GroundField(101)
    square = PathAlgebraElement.from_path(quiver.path(["eps", "eps"]), field.one())
    p = DgAlgebraPresentation(("v",), quiver.arrows, relations=(square,), field=field)
    return realize(p, (0, 18), 10)


def square_zero_completeness():
    t = square_zero()
    return lambda: completeness_report(t, 10, (0, 18))


def square_zero_double_dual_realize():
    double = dual_bar(dual_bar(square_zero(), 10, (0, 18)), 10, (0, 18)).presentation
    return lambda: realize(double, (0, 18), 10)


def r2_bar_cohomology_dims():
    t = realize(rn_presentation(three_cycle(), 2, field=GroundField(101)), (-8, 8), 2)
    b = bar(t, 6, (-8, 8))
    return lambda: b.cohomology_dims((-6, 0))


def cycle_verify(field):
    t = realize(cy_completion(three_cycle(), 3, field=field), (-8, 0), 8)
    return lambda: verify_differential(t)


def cycle_verify_cold(field):
    p = cy_completion(three_cycle(), 3, field=field)
    # a fresh truncation per run, as the benchmark realizes before each verify
    return lambda: verify_differential(realize(p, (-8, 0), 8))


def c3_verify():
    quiver = QuiverPresentation(("v",), tuple(Arrow(name, "v", "v") for name in "xyz"))
    relations = [PathAlgebraElement({quiver.path([a, b]): 1, quiver.path([b, a]): -1})
                 for a, b in ("xy", "xz", "yz")]
    p = DgAlgebraPresentation(("v",), quiver.arrows, relations=relations)
    # a fresh truncation per run, so that every run reduces its products
    return lambda: verify_differential(realize(p, (0, 0), 10))


def cli_job(name, command):
    """One CLI command on one document, in this process; RuntimeError when it
    does not exit 0, or when its report differs from the document's golden
    report of that command."""
    document = DATA / ("%s.json" % name)
    golden = (DATA / "golden" / ("%s.report.json" % name)).read_bytes()
    if json.loads(golden)["command"] != command:
        golden = None

    def call():
        handle, report = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        try:
            code = cli.main([command, str(document), "--quiet", "--json", report])
            produced = Path(report).read_bytes()
        finally:
            os.remove(report)
        if code != 0:
            raise RuntimeError("%s %s exited %d" % (command, name, code))
        if golden is not None and produced != golden:
            raise RuntimeError("%s %s differs from its golden report" % (command, name))
        return code
    return call


def selftest():
    """cli selftest in this process; RuntimeError when it does not exit 0.
    Returns its JSON report."""
    def call():
        handle, report = tempfile.mkstemp(suffix=".json")
        os.close(handle)
        try:
            code = cli.main(["selftest", "--quiet", "--json", report])
            if code != 0:
                raise RuntimeError("selftest exited %d" % code)
            return json.loads(Path(report).read_text())
        finally:
            os.remove(report)
    return call


def verdict_table():
    """The fixtures of the acceptance suite's reflexivity verdict table."""
    one = GroundField(0).one()
    loop = QuiverPresentation(("v",), (Arrow("x", "v", "v"),))
    square_zero_k = FiniteDimAlgebra(
        GroundField(0), ["e", "u"], {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
        {0: one})
    # e, x, y, xy with xy nonzero and yx = x^2 = y^2 = 0
    local = FiniteDimAlgebra(
        GroundField(0), ["e", "x", "y", "xy"],
        {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
         (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one}, (1, 2): {3: one}},
        {0: one})
    x2 = QuiverPresentation(("v",), (Arrow("x", "v", "v", 2),))
    truncated = realize(DgAlgebraPresentation(
        ("v",), x2.arrows, relations=[PathAlgebraElement.from_path(x2.path(["x", "x"]))]),
        (-4, 4), 4)
    annulus_kx = MarkedSurfaceArcSystem(
        [BoundaryComponent("C", False, intervals=[["p1", "p2"]]),
         BoundaryComponent("B", True, winding=2, enclosed_after_slot="p1")],
        {"g": ("p1", "p2")}, {"p1": -1})
    annulus_kt = MarkedSurfaceArcSystem(
        [BoundaryComponent("C", False, intervals=[["p"]]),
         BoundaryComponent("B", True, winding=0, slots=["q"])],
        {"g": ("p", "q")})
    fixtures = (
        SymbolicFamily("polynomial", degree=0),
        SymbolicFamily("laurent"),
        square_zero_k,
        local,
        truncated,
        ginzburg(loop, Superpotential(loop, {("x", "x", "x"): 1})),
        cy_completion(QuiverPresentation(("1", "2"), (Arrow("a", "1", "2"),)), 2),
        cy_completion(three_cycle(), 3),
        gentle_presentation(annulus_kx),
        annulus_kt,
    )

    def call():
        rows = []
        for fixture in fixtures:
            verdict = check(fixture)
            if replay_certificate(verdict.certificate):
                raise RuntimeError("the certificate of %r does not replay" % (fixture,))
            rows.append((verdict.verdict, verdict.certificate.criterion))
        return rows
    return call


def finite_dimensional():
    """check on five finite dimensional algebras by structure constants."""
    field = GroundField(0)
    one = field.one()
    local = FiniteDimAlgebra(
        field, ["e", "x", "y", "xy"],
        {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
         (1, 0): {1: one}, (2, 0): {2: one}, (3, 0): {3: one}, (1, 2): {3: one}},
        {0: one})
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    matrices = FiniteDimAlgebra(
        field, ["e11", "e12", "e21", "e22"],
        {(i, j): {units.index((a, d)): one} for i, (a, b) in enumerate(units)
         for j, (c, d) in enumerate(units) if b == c},
        {0: one, 3: one})
    triangular = FiniteDimAlgebra(
        field, ["e11", "e22", "e12"],
        {(0, 0): {0: one}, (1, 1): {1: one}, (0, 2): {2: one}, (2, 1): {2: one}},
        {0: one, 1: one})
    fixtures = [local, matrices, triangular] + [
        FiniteDimAlgebra(field, ["e", "u"],
                         {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
                         {0: one}, degrees=[0, degree])
        for degree in (2, -3)]

    def call():
        return [(v.verdict, v.certificate.criterion) for v in map(check, fixtures)]
    return call


def truncations():
    """check on the nine truncations of the reflexivity suite's table."""
    a2 = QuiverPresentation(("1", "2"), (Arrow("a", "1", "2"),))

    def loops(generators, relations=lambda x: []):
        """Loops of the (name, degree) generators on one vertex over Q, with
        the relations relations(x), x(*labels) the path of the labels."""
        arrows = [Arrow(name, "v", "v", degree) for name, degree in generators]
        q = QuiverPresentation(("v",), arrows)
        return DgAlgebraPresentation(("v",), arrows, relations=relations(
            lambda *labels: PathAlgebraElement.from_path(q.path(list(labels)))))

    def zero_products(*generators):
        return loops(generators, lambda x: [x(a, b) for a, _ in generators
                                            for b, _ in generators])
    fixtures = [
        realize(loops([("x", 0)], lambda x: [x("x", "x", "x")]), (-2, 2), 5),
        realize(cy_completion(a2, 2), (-4, 0), 4),
        realize(loops([("x", 0)], lambda x: [x("x", "x") - x("x")]), (-2, 2), 2),
        realize(loops([("x", 2)], lambda x: [x("x", "x")]), (-4, 4), 4),
        realize(zero_products(("eps", 1), ("g", 3)), (0, 1), 4),
        realize(loops([("x", 0)]), (-2, 2), 3),
        realize(zero_products(("u", 1), ("w", -1)), (-2, 2), 3),
        realize(zero_products(("x", 0), ("e", 1)), (0, 1), 3),
        realize(DgAlgebraPresentation(a2.vertices, a2.arrows, field=GroundField(2)),
                (-1, 1), 2),
    ]

    def call():
        return [(v.verdict, v.certificate.criterion) for v in map(check, fixtures)]
    return call


def object_nodes(value, path=("object",)):
    """The path of value and of every node under it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from object_nodes(item, path + (key,))


def document_faults():
    """The timed call of document-faults/fixtures.  Its documents are written
    before the clock starts; the call runs each (document, command) through
    cli.main, raises RuntimeError when one does not exit 1, and returns the
    number of runs."""
    directory = tempfile.TemporaryDirectory()
    runs = []
    for name in DOCUMENTS:
        document = json.loads((DATA / ("%s.json" % name)).read_text())
        for number, path in enumerate(object_nodes(document["object"])):
            if path[1:2] == ("relations",) and len(path) == 5 and path[4] == 2:
                continue  # the base of a term
            faulty = copy.deepcopy(document)
            parent = faulty
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = {"?": None}
            target = Path(directory.name) / ("%s-%d.json" % (name, number))
            target.write_text(json.dumps(faulty))
            runs += [[command, str(target), "--quiet"] for command in document["commands"]]

    def call(directory=directory):  # the documents live as long as the call
        with contextlib.redirect_stderr(io.StringIO()):
            codes = [(argv, cli.main(argv)) for argv in runs]
        for argv, code in codes:
            if code != 1:
                raise RuntimeError("%s exited %d" % (" ".join(argv[:2]), code))
        return len(runs)
    return call


def cli_rungs():
    """cli/<document>/<command> for each command each document lists."""
    rungs = {}
    for name in DOCUMENTS:
        commands = json.loads((DATA / ("%s.json" % name)).read_text())["commands"]
        for command in commands:
            rungs["cli/%s/%s" % (name, command)] = (
                lambda name=name, command=command: cli_job(name, command))
    return rungs


def local_factors():
    # m = x (x-1)^2 (x-2) (x^2+1) (x+3)^2, one (x + c)^e per entry, with None
    # standing for x^2 + 1; x^k for k >= 8 is reduced modulo the monic m
    m = [1]
    for constant, power in ((0, 1), (-1, 2), (-2, 1), (None, 1), (3, 2)):
        factor = [1, 0, 1] if constant is None else [constant, 1]
        for _ in range(power):
            product = [0] * (len(m) + len(factor) - 1)
            for i, a in enumerate(m):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            m = product
    algebra = polynomial_quotient(GroundField(0), m)
    decompose_commutative(algebra)  # imports sympy before the clock starts
    return lambda: decompose_commutative(algebra)


def polynomial_quotient(field, m):
    """k[x]/(m) on 1, x, ..., for m monic with integer coefficients, low to
    high; x^k for k >= deg m is reduced modulo m."""
    d = len(m) - 1
    powers = [[0] * i + [1] for i in range(2 * d - 1)]
    for k in range(d, 2 * d - 1):
        vec = [0] * (k + 1)
        vec[k] = 1
        for top in range(k, d - 1, -1):
            c = vec[top]
            for i in range(d + 1):
                vec[top - d + i] -= c * m[i]
        powers[k] = vec[:d]
    structure = {(i, j): {k: c for k, c in enumerate(powers[i + j]) if c}
                 for i in range(d) for j in range(d)}
    return FiniteDimAlgebra(field, ["x^%d" % i for i in range(d)], structure, {0: 1})


def truncated_monomials(p, a, b):
    """F_p[x, y]/(x^a, y^b) on the x^i y^j with i < a and j < b."""
    index = {(i, j): i * b + j for i in range(a) for j in range(b)}
    structure = {(s, t): {index[(i + k, j + l)]: 1}
                 for (i, j), s in index.items() for (k, l), t in index.items()
                 if (i + k, j + l) in index}
    return FiniteDimAlgebra(GroundField(p), ["x^%d y^%d" % ij for ij in index],
                            structure, {0: 1})


def fresh_process(*args):
    """A cold-start rung: the argv of one Python process, timed whole."""
    return [sys.executable, *args]


# name -> builder of the timed call, or of the argv of a cold-start rung
RUNGS = {
    "cohomology/3-cycle-cy3/L6": lambda: cycle_cohomology(6),
    "cohomology/3-cycle-cy3/L7": lambda: cycle_cohomology(7),
    "cohomology/3-cycle-cy3/L8": lambda: cycle_cohomology(8),
    "cohomology-dims/3-cycle-cy3/L8": lambda: cycle_cohomology_dims(8),
    "verify_koszul_pair/3-cycle/n2-L7": lambda: cycle_koszul_pair(2, 7),
    "jacobi_basis/two-loops-xxyy-xyxy+xxx/L9": two_loop_jacobi,
    "jacobi_basis/C3-xyz-xzy/L7": lambda: c3_jacobi(7),
    "jacobi_basis/C3-xyz-xzy/L8": lambda: c3_jacobi(8),
    "jacobi_basis/C3-xyz-xzy/L9": lambda: c3_jacobi(9),
    "jacobi_basis/C3-xyz-xzy/L12": lambda: c3_jacobi(12),
    "jacobi_basis/C3-xyz-xzy/L16": lambda: c3_jacobi(16),
    "h0_algebra/A5-cy2/L8": a5_h0,
    "h0_slice/A5-cy2/L8": a5_h0_slice,
    "realize/A5-cy2/L9": a5_realize,
    "realize/A2-cy3/L3": a2_realizes,
    "build/completions": completions,
    "realize/3-cycle-cy3/L8": cycle_realize,
    "realize/square-zero-double-dual/L10": square_zero_double_dual_realize,
    "bar/3-cycle-cy3-F101-L2/5-letters": lambda: cycle_bar(5),
    "bar/3-cycle-cy3-F101-L2/6-letters": lambda: cycle_bar(6),
    "bar-cohomology-dims/3-cycle-R2-F101-L2/6-letters": r2_bar_cohomology_dims,
    "dual_bar/3-cycle-cy3-F101-L2/5-letters": cycle_dual_bar,
    "letter-tables/3-cycle-cy3-F101-L2-cold": cycle_letter_tables,
    "completeness_report/square-zero-3/L10": square_zero_completeness,
    "verify_differential/3-cycle-cy3-Q/L8": lambda: cycle_verify(GroundField(0)),
    "verify_differential/3-cycle-cy3-F101/L8": lambda: cycle_verify(GroundField(101)),
    "verify_differential/3-cycle-cy3-Q/L8-cold": lambda: cycle_verify_cold(GroundField(0)),
    "verify_differential/3-cycle-cy3-F101/L8-cold":
        lambda: cycle_verify_cold(GroundField(101)),
    "verify_differential/C3-commutative-Q/L10": c3_verify,
    "decompose_commutative/five-local-factors": local_factors,
    "radical/F2-x2y2": lambda: truncated_monomials(2, 2, 2).radical,
    "radical/F3-x3y3": lambda: truncated_monomials(3, 3, 3).radical,
    # (x + 1)^5 = 1 + 5x + 10x^2 + 10x^3 + 5x^4 + x^5
    "radical/F5-x+1^5":
        lambda: polynomial_quotient(GroundField(5), [1, 5, 10, 10, 5, 1]).radical,
    "selftest": selftest,
    "check/verdict-table": verdict_table,
    "check/finite-dimensional": finite_dimensional,
    "check/truncations": truncations,
    **cli_rungs(),
    "document-faults/fixtures": document_faults,
    "cold-import/quiverdg": lambda: fresh_process("-c", "import quiverdg"),
    "cold-import/quiverdg.cli": lambda: fresh_process("-c", "import quiverdg.cli"),
    "cold-cli/disk_gentle-gentle": lambda: fresh_process(
        "-m", "quiverdg.cli", "gentle", str(DATA / "disk_gentle.json"), "--quiet"),
}


def process_times(call):
    runs = []
    for _ in range(REPEATS):
        start = time.process_time()
        call()
        runs.append(time.process_time() - start)
    return runs


def wall_times(argv):
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which rounds every wall time up to the next step
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        runs.append(time.perf_counter() - start)
    return [round(r, 6) for r in runs]


def cold_rung(argv):
    runs = wall_times(argv)
    return {"median_s": statistics.median(runs), "runs_s": runs,
            "python_c_pass_s": statistics.median(wall_times(fresh_process("-c", "pass")))}


def ladder(label):
    rungs = {}
    for name, build in RUNGS.items():
        call = build()
        if isinstance(call, list):
            rungs[name] = cold_rung(call)
            continue
        runs = process_times(call)
        rungs[name] = {"best_s": round(min(runs), 6), "runs_s": [round(r, 6) for r in runs]}
    return {"label": label, "python": platform.python_version(),
            "repeats": REPEATS, "rungs": rungs}


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: elimination_ladder.py LABEL")
    label = argv[0]
    result = ladder(label)
    with open("BENCH_%s.json" % label, "w") as out:
        json.dump(result, out, indent=2)
        out.write("\n")
    for name, rung in result["rungs"].items():
        if "median_s" in rung:
            print("%-42s %.4f s (python -c pass %.4f s)"
                  % (name, rung["median_s"], rung["python_c_pass_s"]))
        else:
            print("%-42s %.4f s" % (name, rung["best_s"]))


if __name__ == "__main__":
    main(sys.argv[1:])
