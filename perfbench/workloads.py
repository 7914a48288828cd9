"""The benchmark's workloads: seeded inputs, the ops of one pass, and the
answer of each op in a form that does not depend on the seed.

The seed renames every vertex and arrow before the inputs reach quiverdg;
dims, counts and verdicts must come out the same under any renaming.  The
CLI jobs run byte-fixed golden documents, so for them the seed only
shuffles the job order.

A pass is a function `pass_fn(inputs, op)`.  It calls `op(label, fn, *args,
closed=...)` once per public call; the runner times the call, turns the
result into an answer with `answer_of`, and checks it against the answer
recorded in `expected.json` and against the closed form `closed`, if any.
Library functions are looked up on the `quiverdg` package (and the `cli`
module) at call time, so a traced run sees every call the workloads make.
"""

import hashlib
import json
import os
import random
import string
from math import comb

import quiverdg as q
from quiverdg import cli
from quiverdg.fields import GroundField
from quiverdg.ginzburg import rn_presentation
from quiverdg.quiver import PathAlgebraElement

QQ = GroundField(0)
F101 = GroundField(101)

WORKLOADS = ("completion-verify", "duals-relations-cli")

# Quivers by canonical names: (vertices, arrows as (name, source, target)).
LOOP = (("v",), (("x", "v", "v"),))
A2 = (("1", "2"), (("a", "1", "2"),))
KRONECKER = (("1", "2"), (("a", "1", "2"), ("b", "1", "2")))
CYCLE = (("1", "2", "3"), (("x", "1", "2"), ("y", "2", "3"), ("z", "3", "1")))
C3 = (("v",), (("x", "v", "v"), ("y", "v", "v"), ("z", "v", "v")))
TWO_LOOPS = (("v",), (("x", "v", "v"), ("y", "v", "v")))


def a_n(n):
    return (tuple(str(i) for i in range(1, n + 1)),
            tuple(("a%d" % i, str(i), str(i + 1)) for i in range(1, n)))


class Names:
    """Seeded renaming: each canonical name gets a fresh three-letter name."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._map = {}

    def __call__(self, canonical):
        if canonical not in self._map:
            taken = set(self._map.values())
            name = None
            while name is None or name in taken:
                name = "".join(self._rng.choice(string.ascii_lowercase)
                               for _ in range(3))
            self._map[canonical] = name
        return self._map[canonical]


def quiver(names, spec, degree=0):
    vertices, arrows = spec
    return q.QuiverPresentation(
        tuple(names(v) for v in vertices),
        tuple(q.Arrow(names(a), names(s), names(t), degree)
              for a, s, t in arrows))


def potential(names, quiv, terms, field=QQ):
    return q.Superpotential(
        quiv, {tuple(names(x) for x in word): c for word, c in terms},
        field=field)


def square_zero(names, degree, field):
    """k[eps]/eps^2 with the loop in the given degree."""
    v, eps = names("v"), names("eps")
    quiv = q.QuiverPresentation((v,), (q.Arrow(eps, v, v, degree),))
    rel = PathAlgebraElement.from_path(quiv.path([eps, eps]), field.one())
    return q.DgAlgebraPresentation((v,), quiv.arrows, relations=(rel,),
                                   field=field)


# ---------------------------------------------------------------------------
# completion-verify: realize -> verify_differential -> cohomology over Q

WINDOW = (-8, 0)


def completion_verify_inputs(seed):
    n = Names(seed)
    loop, cycle = quiver(n, LOOP), quiver(n, CYCLE)
    return {
        # (label, constructor name, arguments, weight bound L)
        "presentations": [
            ("loop/cy2", "cy_completion", (loop, 2), 6),
            ("loop/cy3", "cy_completion", (loop, 3), 6),
            ("A2/cy2", "cy_completion", (quiver(n, A2), 2), 9),
            ("kronecker/cy2", "cy_completion", (quiver(n, KRONECKER), 2), 6),
            ("3-cycle/cy2", "cy_completion", (cycle, 2), 6),
            ("3-cycle/cy3", "cy_completion", (cycle, 3), 6),
            ("x^3/ginzburg", "ginzburg",
             (loop, potential(n, loop, [(("x", "x", "x"), 1)])), 8),
            ("xyz/ginzburg", "ginzburg",
             (cycle, potential(n, cycle, [(("x", "y", "z"), 1)])), 7),
        ],
        "cycle": cycle,
    }


def completion_verify_pass(inputs, op):
    for label, build, args, bound in inputs["presentations"]:
        p = op(label + "/build", lambda build=build, args=args:
               getattr(q, build)(*args))
        t = op(label + "/realize", lambda p=p, bound=bound: q.realize(p, WINDOW, bound))
        op(label + "/verify_differential", lambda t=t: q.verify_differential(t),
           closed=lambda r: r.ok and not r.failures)
        op(label + "/cohomology", lambda t=t: q.cohomology(t, WINDOW))
    for n, bound in ((2, 6), (3, 6), (2, 7)):
        op("3-cycle/koszul-pair-n%d-L%d" % (n, bound),
           lambda n=n, bound=bound: q.verify_koszul_pair(
               inputs["cycle"], n, bound, (-bound, 0)),
           closed=lambda r: r.kind == "MatchWithinWindow")


# ---------------------------------------------------------------------------
# Koszul duals: bar, dual bar, cobar and completeness over F_101

BAR_WINDOW = (-40, 8)


def koszul_duals_inputs(seed):
    n = Names(seed)
    cycle = quiver(n, CYCLE)
    return {
        "completion": q.cy_completion(cycle, 3, field=F101),
        "r2": rn_presentation(cycle, 2, field=F101),
        "square_zero": [(k, square_zero(n, 1 - k, F101)) for k in (1, 2, 3)],
    }


def koszul_duals_pass(inputs, op):
    t = op("3-cycle/cy3/realize-L2",
           lambda: q.realize(inputs["completion"], BAR_WINDOW, 2))
    op("3-cycle/cy3/bar5", lambda: q.bar(t, 5, BAR_WINDOW),
       closed=lambda b: sum(map(len, b.words_by_degree.values())) == 58824)
    r2 = op("3-cycle/R2/realize-L2",
            lambda: q.realize(inputs["r2"], (-8, 8), 2))
    b = op("3-cycle/R2/bar6", lambda: q.bar(r2, 6, (-8, 8)))
    op("3-cycle/R2/bar6/cohomology_dims", lambda: b.cohomology_dims((-6, 0)))
    dual = op("3-cycle/cy3/dual_bar5", lambda: q.dual_bar(t, 5, BAR_WINDOW))
    op("3-cycle/cy3/dual_bar5/cohomology", lambda: q.cohomology(dual, (0, 8)))
    co = op("3-cycle/cy3/dual_coalgebra", lambda: q.dual_coalgebra(t))
    op("3-cycle/cy3/cobar5", lambda: q.cobar(co, 5, BAR_WINDOW),
       closed=lambda c: c.dims() == dual.dims())
    for k, presentation in inputs["square_zero"]:
        window = (0, 6 * k)
        s = op("square-zero-%d/realize" % k,
               lambda p=presentation, w=window: q.realize(p, w, 10))
        op("square-zero-%d/completeness" % k,
           lambda s=s, w=window: q.completeness_report(s, 10, w),
           closed=lambda r: r.kind == "CompleteWithinWindow")


# ---------------------------------------------------------------------------
# relations: Jacobi bases, H^0 algebras, local factors, verdicts over Q

# k[x]/(m) with m = x (x-1)^2 (x-2) (x^2+1) (x+3)^2: five local factors,
# one of them with residue field Q(i).  Each entry is (c, power) for the
# factor (x + c)^power, with None standing for x^2 + 1.
LOCAL_FACTORS = ((0, 1), (-1, 2), (-2, 1), (None, 1), (3, 2))


def _poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def cyclic_algebra(names):
    """k[x]/(m) for the m above, as structure constants on 1, x, ..., x^7."""
    m = [1]
    for constant, power in LOCAL_FACTORS:
        factor = [1, 0, 1] if constant is None else [constant, 1]
        for _ in range(power):
            m = _poly_mul(m, factor)
    d = len(m) - 1
    powers = [[0] * i + [1] for i in range(2 * d - 1)]
    for k in range(d, 2 * d - 1):  # reduce x^k modulo the monic m
        vec = [0] * (k + 1)
        vec[k] = 1
        for top in range(k, d - 1, -1):
            c = vec[top]
            for i in range(d + 1):
                vec[top - d + i] -= c * m[i]
        powers[k] = vec[:d]
    structure = {(i, j): {k: c for k, c in enumerate(powers[i + j]) if c}
                 for i in range(d) for j in range(d)}
    return q.FiniteDimAlgebra(QQ, [names("x") + "^%d" % i for i in range(d)],
                              structure, {0: 1})


def verdict_table(names):
    """The reflexivity verdict table: (build, verdict, criterion) rows."""
    one = QQ.one()
    loop, cycle, a2 = (quiver(names, spec) for spec in (LOOP, CYCLE, A2))
    e, u, x, y, xy = (names(s) for s in ("e", "u", "x", "y", "xy"))
    square_zero_alg = q.FiniteDimAlgebra(
        QQ, [e, u], {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}},
        {0: one})
    local = q.FiniteDimAlgebra(
        QQ, [e, x, y, xy],
        {(0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one},
         (0, 3): {3: one}, (1, 0): {1: one}, (2, 0): {2: one},
         (3, 0): {3: one}, (1, 2): {3: one}}, {0: one})
    graded_loop = quiver(names, LOOP, degree=2)
    x2 = PathAlgebraElement.from_path(
        graded_loop.path([names("x")] * 2), one)
    x2_presentation = q.DgAlgebraPresentation(
        graded_loop.vertices, graded_loop.arrows, relations=[x2], field=QQ)
    c, b, p, qq, p1, p2, g = (names(s) for s in
                              ("C", "B", "p", "q", "p1", "p2", "g"))
    kx_annulus = q.MarkedSurfaceArcSystem(
        [q.BoundaryComponent(c, False, intervals=[[p1, p2]]),
         q.BoundaryComponent(b, True, winding=2, enclosed_after_slot=p1)],
        {g: (p1, p2)}, {p1: -1})
    kt_annulus = q.MarkedSurfaceArcSystem(
        [q.BoundaryComponent(c, False, intervals=[[p]]),
         q.BoundaryComponent(b, True, winding=0, slots=[qq])],
        {g: (p, qq)}, None)
    cubic = potential(names, loop, [(("x", "x", "x"), 1)])
    return [
        (lambda: q.SymbolicFamily("polynomial", degree=0),
         "NotReflexive", "polynomial-ring-in-degree-zero"),
        (lambda: q.SymbolicFamily("laurent"),
         "NotReflexive", "graded-laurent-polynomials"),
        (lambda: square_zero_alg,
         "Reflexive", "finite-product-of-complete-local"),
        (lambda: local,
         "Reflexive", "connective-local-finite-dimensional"),
        (lambda: q.realize(x2_presentation, (-4, 4), 4),
         "Reflexive", "coconnective-with-vanishing-degree-one"),
        (lambda: q.ginzburg(loop, cubic),
         "Reflexive", "ginzburg-algebra-of-a-long-cycle-potential"),
        (lambda: q.cy_completion(a2, 2),
         "Reflexive", "calabi-yau-completion-of-rank-at-least-two"),
        (lambda: q.cy_completion(cycle, 3),
         "Reflexive", "calabi-yau-completion-of-rank-at-least-two"),
        (lambda: q.gentle_presentation(kx_annulus),
         "Reflexive", "proper-graded-gentle"),
        (lambda: kt_annulus,
         "NotReflexive", "fully-marked-component-of-winding-zero"),
    ]


def relations_h0_inputs(seed):
    n = Names(seed)
    c3, two, cycle = quiver(n, C3), quiver(n, TWO_LOOPS), quiver(n, CYCLE)
    return {
        "jacobi": [
            ("3-cycle/xyz", cycle, potential(n, cycle, [(("x", "y", "z"), 1)]),
             6),
            ("C3/xyz-xzy", c3,
             potential(n, c3, [(("x", "y", "z"), 1), (("x", "z", "y"), -1)]),
             6),
            ("two-loops/xxyy-xyxy+xxx", two,
             potential(n, two, [(("x", "x", "y", "y"), 1),
                                (("x", "y", "x", "y"), -1),
                                (("x", "x", "x"), 1)]), 9),
        ],
        "preprojective": [(k, quiver(n, a_n(k)), bound)
                          for k, bound in ((3, 5), (4, 6), (5, 8))],
        "cyclic": cyclic_algebra(n),
        "verdicts": verdict_table(n),
    }


def c3_counts_hold(basis, bound):
    lengths = [len(p.labels) for p in basis.basis]
    return [lengths.count(k) for k in range(bound + 1)] == \
        [comb(k + 2, 2) for k in range(bound + 1)]


def relations_h0_pass(inputs, op):
    closed_forms = {"C3/xyz-xzy": c3_counts_hold,
                    # xyz kills every path of length two on the 3-cycle
                    "3-cycle/xyz": lambda b, bound: len(b) == 6}
    for label, quiv, pot, bound in inputs["jacobi"]:
        closed = closed_forms.get(label)
        op("%s/jacobi-L%d" % (label, bound),
           lambda quiv=quiv, pot=pot, bound=bound: q.jacobi_basis(quiv, pot, bound),
           closed=closed and (lambda b, f=closed, bound=bound: f(b, bound)))
    for k, quiv, bound in inputs["preprojective"]:
        p = op("A%d/cy2" % k, lambda quiv=quiv: q.cy_completion(quiv, 2))
        t = op("A%d/cy2/realize" % k,
               lambda p=p, bound=bound: q.realize(p, (-4, 0), bound))
        op("A%d/cy2/h0_algebra" % k, lambda t=t: q.h0_algebra(t),
           closed=lambda h, k=k: h.algebra.dim == k * (k + 1) * (k + 2) // 6)
    op("cyclic/decompose_commutative",
       lambda: q.decompose_commutative(inputs["cyclic"]),
       closed=lambda fs: len(fs) == len(LOCAL_FACTORS)
       and all(f.residue_field_certified for f in fs))
    verdicts = op("verdict-table/check", lambda: [
        q.check(build()) for build, _, _ in inputs["verdicts"]],
        closed=lambda vs: [(v.verdict, v.certificate.criterion) for v in vs]
        == [(verdict, criterion) for _, verdict, criterion
            in inputs["verdicts"]])
    op("verdict-table/replay", lambda: [
        q.replay_certificate(v.certificate) for v in verdicts],
        closed=lambda failures: failures == [[]] * len(verdicts))


# ---------------------------------------------------------------------------
# CLI jobs: the quiverdg CLI entry point, run in this process, on the golden
# documents.  A fresh CLI process costs this plus start-up and imports; those
# are `setup_s` and the cli.* start-up metrics.

DOCUMENTS = ("a2_preprojective", "annulus_pair", "circle_pair", "disk_gentle",
             "one_loop_ginzburg", "r3_pair")


def cli_jobs_inputs(seed):
    jobs = []
    for name in DOCUMENTS:
        path = os.path.join("tests", "data", name + ".json")
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        jobs.extend((name, command, path) for command in document["commands"])
    jobs.append(("builtin", "selftest", None))
    random.Random(seed).shuffle(jobs)
    return {"jobs": jobs}


def run_cli_job(command, document, report_path):
    """`quiverdg COMMAND DOCUMENT --quiet --json REPORT`; returns (exit code,
    sha256 of the report)."""
    argv = [command] + ([document] if document else [])
    code = cli.main(argv + ["--quiet", "--json", report_path])
    try:
        with open(report_path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        os.remove(report_path)
    except OSError:
        digest = None
    return code, digest


def cli_jobs_pass(inputs, op):
    report = os.path.join(inputs["scratch"], "report.json")
    for name, command, document in inputs["jobs"]:
        op("%s/%s" % (name, command), run_cli_job, command, document, report,
           closed=lambda r: r[0] == 0)


# ---------------------------------------------------------------------------
# duals-relations-cli: the Koszul-dual, relations and CLI ops in one pass

def duals_relations_cli_inputs(seed):
    return {**koszul_duals_inputs(seed), **relations_h0_inputs(seed),
            **cli_jobs_inputs(seed)}


def duals_relations_cli_pass(inputs, op):
    koszul_duals_pass(inputs, op)
    relations_h0_pass(inputs, op)
    cli_jobs_pass(inputs, op)


INPUTS = {
    "completion-verify": completion_verify_inputs,
    "duals-relations-cli": duals_relations_cli_inputs,
}

PASSES = {
    "completion-verify": completion_verify_pass,
    "duals-relations-cli": duals_relations_cli_pass,
}


# ---------------------------------------------------------------------------
# answers: what each result says, with no vertex or arrow name in it

def _table(dims):
    return sorted([int(d), int(n)] for d, n in dims.items())


def answer_of(result):
    kind = type(result).__name__
    if kind in ("GinzburgPresentation", "DgAlgebraPresentation"):
        return sorted([g.degree, result.weights[g.name]]
                      for g in result.generators)
    if kind == "TruncatedDgAlgebra":
        return {"dims": _table(result.dims()),
                "ledger": len(result.differential_ledger),
                "mul_overflow": _table(result.mul_overflow)}
    if kind == "DifferentialReport":
        return [result.checked_words, result.skipped_words,
                result.checked_pairs, result.skipped_pairs,
                len(result.failures)]
    if kind == "CohomologyResult":
        return _table(result.dims)
    if kind == "BarComplex":
        return {"dims": _table(result.all_dims()),
                "ledger": len(result.differential_ledger)}
    if kind == "CoalgebraPresentation":
        return [sorted(g.degree for g in result.cogenerators),
                sum(map(len, result.comultiplication.values()))]
    if kind == "QuotientBasis":
        lengths = [len(p.labels) for p in result.basis]
        return [lengths.count(k) for k in range(result.length_bound + 1)]
    if kind == "H0Result":
        return [result.algebra.dim, list(result.dims_checked)]
    if kind in ("KoszulPairReport", "CompletenessReport"):
        return [result.kind, sorted([d, sorted(row.items())]
                                    for d, row in result.rows.items())]
    if kind == "ReflexivityVerdict":
        return [result.verdict, result.certificate.criterion]
    if kind == "dict":  # BarComplex.cohomology_dims
        return _table(result)
    if kind == "list" and result and type(result[0]).__name__ == "LocalFactor":
        return sorted([f.algebra.dim, f.radical_dimension, f.residue_dimension,
                       f.residue_field_certified] for f in result)
    if kind == "list":  # verdicts, or the failed hypotheses of each replay
        return [answer_of(x) if type(x).__name__ == "ReflexivityVerdict"
                else [str(h) for h in x] for x in result]
    if kind == "tuple":  # a CLI job: exit code and report digest
        return list(result)
    raise TypeError("no answer form for %s" % kind)
