"""Calabi-Yau completions, Ginzburg dg algebras, and the R_n pairing.

Given a quiver Q with degree-0 arrows, this module builds three related
objects: the finite dimensional graded algebra R_n on the basis
idempotents + arrows (degree 1) + dual arrows (degree n-1) + socle elements
(degree n); the completion Pi_n(Q), free on arrows (degree 0), dual arrows
(degree 2-n), and one loop per vertex (degree 1-n) with dz_i summing the
commutators e_i [a, a*] e_i; and the Ginzburg presentation for a
superpotential W, which is Pi_3(Q) with d(a*) deformed to the cyclic
derivative of W.  verify_koszul_pair compares the Koszul dual of R_n with
the truncated completion degree by degree, which ties the whole chain of
constructions together.

Completions are represented by weight-bounded truncations throughout; the
differentials here preserve the generator weights (arrows and duals weigh 1
against the loop's 2, or 1, c-1, c for a length-c homogeneous potential),
so the truncated columns are exact and no overflow ledger appears.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

from .dgalgebra import (
    DgAlgebraPresentation,
    InconsistentPresentation,
    UnsafeWindow,
    cohomology,
    realize,
    verify_differential,
)
from .fields import GroundField
from .quiver import (
    Arrow,
    PathAlgebraElement,
    QuiverPresentation,
    cyclic_derivative,
    reduce_modulo_relations,
)


class NonzeroArrowDegree(Exception):
    """Raised when a construction needs all input arrows in degree zero."""


class CharacteristicWarning(UserWarning):
    """Positive characteristic: superpotential results lose certificates."""


class ShortCycleWarning(UserWarning):
    """A superpotential cycle of length below three limits later theorems."""


def _require_degree_zero(quiver):
    for a in quiver.arrows:
        if a.degree != 0:
            raise NonzeroArrowDegree(
                "arrow %s has degree %d; expected 0" % (a.name, a.degree))


def _dual_name(arrow_name):
    return arrow_name + "^"


def _loop_name(vertex):
    return "z_%s" % vertex


def _socle_name(vertex):
    return "t_%s" % vertex


def _check_fresh_names(quiver, names):
    taken = {a.name for a in quiver.arrows}
    for name in names:
        if name in taken:
            raise ValueError(
                "generated name %r collides with an input arrow; rename it" % name)
        taken.add(name)


@dataclass
class RnAlgebra:
    """The trivial extension kQ_0 + kQ_1[-1] + kQ_1*[1-n] + kQ_0[-n].

    algebra is the realized FiniteDimAlgebra, with basis labels e_i, the
    arrow names, duals a^, and socle elements t_i; pairing records the only
    nonzero arrow/dual contractions <a, a^> = e_tail(a).
    """

    n: int
    algebra: FiniteDimAlgebra
    pairing: dict
    labels: list


def build_rn(quiver, n, field=None):
    """Structure constants of R_n straight from the multiplication law.

    Products of two non-idempotent basis elements vanish except for the two
    contractions a * a^ = t at the tail of a and a^ * a = t at its head.
    """
    from .algebras import FiniteDimAlgebra

    _require_degree_zero(quiver)
    field = field if field is not None else GroundField(0)
    duals = {a.name: _dual_name(a.name) for a in quiver.arrows}
    socles = {v: _socle_name(v) for v in quiver.vertices}
    _check_fresh_names(quiver, list(duals.values()) + list(socles.values()))
    labels = (["e_%s" % v for v in quiver.vertices]
              + [a.name for a in quiver.arrows]
              + [duals[a.name] for a in quiver.arrows]
              + [socles[v] for v in quiver.vertices])
    degrees = ([0] * len(quiver.vertices)
               + [1] * len(quiver.arrows)
               + [n - 1] * len(quiver.arrows)
               + [n] * len(quiver.vertices))
    index = {label: i for i, label in enumerate(labels)}
    one = field.one()
    structure = {}

    def put(left, right, result):
        structure[(index[left], index[right])] = {index[result]: one}

    for v in quiver.vertices:
        put("e_%s" % v, "e_%s" % v, "e_%s" % v)
        put("e_%s" % v, socles[v], socles[v])
        put(socles[v], "e_%s" % v, socles[v])
    for a in quiver.arrows:
        put("e_%s" % a.source, a.name, a.name)
        put(a.name, "e_%s" % a.target, a.name)
        put("e_%s" % a.target, duals[a.name], duals[a.name])
        put(duals[a.name], "e_%s" % a.source, duals[a.name])
        put(a.name, duals[a.name], socles[a.source])
        put(duals[a.name], a.name, socles[a.target])
    unit = {index["e_%s" % v]: one for v in quiver.vertices}
    algebra = FiniteDimAlgebra(field, labels, structure, unit, degrees=degrees)
    pairing = {(a.name, duals[a.name]): a.source for a in quiver.arrows}
    return RnAlgebra(n=n, algebra=algebra, pairing=pairing, labels=labels)


def rn_presentation(quiver, n, field=None):
    """R_n as a quotient presentation, for feeding into the dual machinery.

    Generators are the arrows in degree 1, duals in degree n-1, and a socle
    loop per vertex in degree n; every composable product of two generators
    is a relation, equal to the matching socle element for the two diagonal
    contractions and to zero otherwise.
    """
    _require_degree_zero(quiver)
    field = field if field is not None else GroundField(0)
    duals = {a.name: _dual_name(a.name) for a in quiver.arrows}
    socles = {v: _socle_name(v) for v in quiver.vertices}
    _check_fresh_names(quiver, list(duals.values()) + list(socles.values()))
    generators = ([Arrow(a.name, a.source, a.target, 1) for a in quiver.arrows]
                  + [Arrow(duals[a.name], a.target, a.source, n - 1)
                     for a in quiver.arrows]
                  + [Arrow(socles[v], v, v, n) for v in quiver.vertices])
    weights = {g.name: 1 for g in generators}
    for v in quiver.vertices:
        weights[socles[v]] = 2
    scratch = QuiverPresentation(quiver.vertices, generators)
    contractions = {(a.name, duals[a.name]): socles[a.source]
                    for a in quiver.arrows}
    contractions.update({(duals[a.name], a.name): socles[a.target]
                         for a in quiver.arrows})
    relations = []
    for g in generators:
        for h in generators:
            if g.target != h.source:
                continue
            rel = PathAlgebraElement.from_path(
                scratch.path([g.name, h.name]), field.one())
            socle = contractions.get((g.name, h.name))
            if socle is not None:
                rel = rel - PathAlgebraElement.from_path(
                    scratch.path([socle]), field.one())
            relations.append(rel)
    return DgAlgebraPresentation(quiver.vertices, generators,
                                 relations=relations, weights=weights,
                                 field=field)


class GinzburgPresentation(DgAlgebraPresentation):
    """A dg presentation that remembers its source superpotential, if any."""

    def __init__(self, vertices, generators, differential, weights, field,
                 superpotential=None, n=None):
        super().__init__(vertices, generators, differential=differential,
                         weights=weights, field=field)
        self.superpotential = superpotential
        self.n = n


def _commutator_differential(quiver, scratch, duals, field):
    columns = {}
    one = field.one()
    for v in quiver.vertices:
        total = PathAlgebraElement.zero()
        for a in quiver.arrows:
            if a.source == v:
                total = total + PathAlgebraElement.from_path(
                    scratch.path([a.name, duals[a.name]]), one)
            if a.target == v:
                total = total - PathAlgebraElement.from_path(
                    scratch.path([duals[a.name], a.name]), one)
        if not total.is_zero():
            columns[_loop_name(v)] = total
    return columns


def _certify(presentation, weight_bound):
    report = verify_differential(realize(presentation, (0, 0), weight_bound))
    if report.failures:
        raise InconsistentPresentation(
            "differential fails its own checks: %s" % (report.failures[:3],))


def cy_completion(quiver, n, field=None):
    """The n-Calabi-Yau completion Pi_n(Q) as a free dg presentation.

    Arrows stay in degree 0, dual arrows go to degree 2-n, and the loop z_i
    in degree 1-n has dz_i = sum over arrows of e_i [a, a^] e_i.  The
    differential preserves the weights (1, 1, 2), so truncations at any
    bound have empty overflow ledgers.
    """
    _require_degree_zero(quiver)
    field = field if field is not None else GroundField(0)
    duals = {a.name: _dual_name(a.name) for a in quiver.arrows}
    loops = {v: _loop_name(v) for v in quiver.vertices}
    _check_fresh_names(quiver, list(duals.values()) + list(loops.values()))
    generators = ([Arrow(a.name, a.source, a.target, 0) for a in quiver.arrows]
                  + [Arrow(duals[a.name], a.target, a.source, 2 - n)
                     for a in quiver.arrows]
                  + [Arrow(loops[v], v, v, 1 - n) for v in quiver.vertices])
    weights = {g.name: 1 for g in generators}
    for v in quiver.vertices:
        weights[loops[v]] = 2
    scratch = QuiverPresentation(quiver.vertices, generators)
    differential = _commutator_differential(quiver, scratch, duals, field)
    presentation = GinzburgPresentation(
        quiver.vertices, generators, differential, weights, field, n=n)
    _certify(presentation, 3)
    return presentation


def ginzburg(quiver, potential):
    """The Ginzburg dg algebra of (Q, W): Pi_3(Q) with d(a^) = dW/da.

    Emits CharacteristicWarning over a positive-characteristic field (the
    certificates downstream assume characteristic zero there) and
    ShortCycleWarning when some cycle of W is shorter than three arrows.
    For a length-homogeneous W the weights (1, c-1, c) keep the truncations
    exact; a mixed-length W still builds, with the filtered semantics the
    overflow ledger reports.
    """
    _require_degree_zero(quiver)
    field = potential.field
    if field.characteristic != 0:
        warnings.warn(
            "superpotential constructions over characteristic %d lose their"
            " characteristic-zero certificates" % field.characteristic,
            CharacteristicWarning, stacklevel=2)
    lengths = potential.cycle_lengths()
    if any(c < 3 for c in lengths):
        warnings.warn(
            "superpotential cycle of length %d < 3; downstream reflexivity"
            " results need longer cycles" % min(lengths),
            ShortCycleWarning, stacklevel=2)
    duals = {a.name: _dual_name(a.name) for a in quiver.arrows}
    loops = {v: _loop_name(v) for v in quiver.vertices}
    _check_fresh_names(quiver, list(duals.values()) + list(loops.values()))
    generators = ([Arrow(a.name, a.source, a.target, 0) for a in quiver.arrows]
                  + [Arrow(duals[a.name], a.target, a.source, -1)
                     for a in quiver.arrows]
                  + [Arrow(loops[v], v, v, -2) for v in quiver.vertices])
    if len(set(lengths)) == 1 and min(lengths) >= 2:
        cycle = lengths[0]
    else:
        cycle = 2
    weights = {g.name: 1 for g in generators}
    for a in quiver.arrows:
        weights[duals[a.name]] = cycle - 1
    for v in quiver.vertices:
        weights[loops[v]] = cycle
    scratch = QuiverPresentation(quiver.vertices, generators)
    differential = _commutator_differential(quiver, scratch, duals, field)
    for a in quiver.arrows:
        derivative = cyclic_derivative(potential, a.name)
        if not derivative.is_zero():
            rebuilt = PathAlgebraElement({
                scratch.path(list(p.labels), base=p.source): c
                for p, c in derivative.terms.items()})
            differential[duals[a.name]] = rebuilt
    presentation = GinzburgPresentation(
        quiver.vertices, generators, differential, weights, field,
        superpotential=potential, n=3)
    _certify(presentation, cycle + 1)
    return presentation


def jacobi_basis(quiver, potential, length_bound):
    """Truncated basis of the Jacobi algebra kQ / (dW/da for all arrows a)."""
    if length_bound < 0:
        raise ValueError("length bound must be >= 0")
    relations = []
    for a in quiver.arrows:
        derivative = cyclic_derivative(potential, a.name)
        if not derivative.is_zero():
            relations.append(derivative)
    return reduce_modulo_relations(quiver, relations, length_bound,
                                   potential.field)


@dataclass
class KoszulPairReport:
    """Per-degree cohomology comparison of dual_bar(R_n) with Pi_n(Q).

    kind is MatchWithinWindow, MismatchAt, or Inconclusive; rows maps each
    window degree to the two dimensions and a match flag.
    """

    n: int
    word_bound: int
    window: tuple
    kind: str
    degree: object = None
    rows: dict = dataclass_field(default_factory=dict)
    notes: list = dataclass_field(default_factory=list)

    @property
    def all_match(self):
        return self.kind == "MatchWithinWindow"


def verify_koszul_pair(quiver, n, word_bound, window, field=None):
    """Compare the Koszul dual of R_n with the truncated completion Pi_n(Q).

    Both sides are realized to the same weight bound (dual-bar generators
    inherit weight 1 from arrows and duals and weight 2 from the socle, the
    same weights the completion carries), so their word counts agree degree
    by degree and the cohomology comparison is the honest content.
    """
    from .koszul import dual_bar

    lo, hi = window
    if lo > hi:
        raise ValueError("empty window [%s, %s]" % (lo, hi))
    t_rn = realize(rn_presentation(quiver, n, field=field), window, 2)
    completion = realize(cy_completion(quiver, n, field=field),
                         window, word_bound)
    try:
        dual = dual_bar(t_rn, word_bound, window)
        dual_dims = cohomology(dual, window).dims
        completion_dims = cohomology(completion, window).dims
    except UnsafeWindow as err:
        return KoszulPairReport(
            n=n, word_bound=word_bound, window=tuple(window),
            kind="Inconclusive",
            notes=["truncation overflow at degrees %s" % (err.degrees,)])
    rows = {}
    for d in range(lo, hi + 1):
        rows[d] = {
            "rn_dual": dual_dims[d],
            "completion": completion_dims[d],
            "match": dual_dims[d] == completion_dims[d],
        }
    for d in range(lo, hi + 1):
        if not rows[d]["match"]:
            return KoszulPairReport(
                n=n, word_bound=word_bound, window=tuple(window),
                kind="MismatchAt", degree=d, rows=rows)
    return KoszulPairReport(n=n, word_bound=word_bound, window=tuple(window),
                            kind="MatchWithinWindow", rows=rows)
