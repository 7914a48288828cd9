"""Calabi-Yau completions, Ginzburg dg algebras, and the R_n pairing.

Given a quiver Q with degree-0 arrows, this module builds three related
objects: the finite dimensional graded algebra R_n on the basis
idempotents + arrows (degree 1) + dual arrows (degree n-1) + socle elements
(degree n); the completion Pi_n(Q), free on arrows (degree 0), dual arrows
(degree 2-n), and one loop per vertex (degree 1-n) with dz_i summing the
commutators e_i [a, a*] e_i; and the Ginzburg dg algebra Gamma(Q, W) of a
superpotential W, which is Pi_3(Q) deformed by dW: d(a*) is the cyclic
derivative of W (Keller's deformed Calabi-Yau completion).  Both
completions come out of one builder, _completion, which names the partners
of the arrows and vertices, sets the weights and the differential, and
certifies d^2 = 0 on a truncation; a construction that fails its own
certificate raises RuntimeError, an engine fault.  verify_koszul_pair compares the Koszul
dual of R_n with the truncated completion degree by degree, which ties the
whole chain of constructions together.

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
    UnsafeWindow,
    _differential_failures,
    cohomology,
    realize,
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


def _doubled(quiver, prefix, degrees, weights):
    """The doubled quiver with a loop at each vertex, as generators.

    Each arrow a gets a partner, its dual a^ from target(a) to source(a),
    and each vertex v a loop prefix_v.  The generators are the arrows, then
    the duals, then the loops, in the three degrees given and with the three
    weights given.  Returns the dual names, the loop names, the generators
    and their weights.  NonzeroArrowDegree is raised when an arrow of the
    quiver is not in degree 0, and ValueError names a partner that an input
    arrow or an earlier partner already has.
    """
    _require_degree_zero(quiver)
    arrows, vertices = quiver.arrows, quiver.vertices
    duals = {a.name: a.name + "^" for a in arrows}
    loops = {v: "%s_%s" % (prefix, v) for v in vertices}
    taken = set(duals)
    for name in [*duals.values(), *loops.values()]:
        if name in taken:
            raise ValueError(
                "generated name %r collides with an input arrow; rename it" % name)
        taken.add(name)
    generators = ([Arrow(a.name, a.source, a.target, degrees[0]) for a in arrows]
                  + [Arrow(duals[a.name], a.target, a.source, degrees[1]) for a in arrows]
                  + [Arrow(loops[v], v, v, degrees[2]) for v in vertices])
    kinds = [0] * len(arrows) + [1] * len(arrows) + [2] * len(vertices)
    return duals, loops, generators, {g.name: weights[k] for g, k in zip(generators, kinds)}


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

    field = field if field is not None else GroundField(0)
    duals, socles, generators, _ = _doubled(quiver, "t", (1, n - 1, n), (1, 1, 2))
    labels = ["e_%s" % v for v in quiver.vertices] + [g.name for g in generators]
    degrees = [0] * len(quiver.vertices) + [g.degree for g in generators]
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
    field = field if field is not None else GroundField(0)
    duals, socles, generators, weights = _doubled(quiver, "t", (1, n - 1, n), (1, 1, 2))
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


def _completion(quiver, n, field, cycle, potential=None):
    """Pi_n(Q), with d(a^) = dW/da when a potential W is given.

    Arrows stay in degree 0 with weight 1, the dual a^ of an arrow a goes to
    degree 2-n with weight cycle-1, and the loop z_v to degree 1-n with
    weight cycle; dz_v sums e_v [a, a^] e_v over the arrows (the
    presentation drops the zero values).  The differential is certified to
    square to zero on the truncation at weight bound cycle + 1.  A failure
    there is a fault of this builder, not of its input, so RuntimeError
    names the failures.
    """
    duals, loops, generators, weights = _doubled(
        quiver, "z", (0, 2 - n, 1 - n), (1, cycle - 1, cycle))
    arrows, vertices = quiver.arrows, quiver.vertices
    scratch = QuiverPresentation(vertices, generators)
    one = field.one()
    differential = {}
    for v in vertices:
        total = PathAlgebraElement.zero()
        for a in arrows:
            if a.source == v:
                total = total + PathAlgebraElement.from_path(
                    scratch.path([a.name, duals[a.name]]), one)
            if a.target == v:
                total = total - PathAlgebraElement.from_path(
                    scratch.path([duals[a.name], a.name]), one)
        differential[loops[v]] = total
    if potential is not None:
        for a in arrows:
            differential[duals[a.name]] = PathAlgebraElement({
                scratch.path(list(p.labels), base=p.source): c
                for p, c in cyclic_derivative(potential, a.name).terms.items()})
    presentation = GinzburgPresentation(
        vertices, generators, differential, weights, field,
        superpotential=potential, n=n)
    failures = _differential_failures(presentation, cycle + 1)
    if failures:
        raise RuntimeError(
            "differential fails its own checks: %s" % (failures[:3],))
    return presentation


def cy_completion(quiver, n, field=None):
    """The n-Calabi-Yau completion Pi_n(Q) as a free dg presentation.

    Arrows stay in degree 0, dual arrows go to degree 2-n, and the loop z_i
    in degree 1-n has dz_i = sum over arrows of e_i [a, a^] e_i.  The
    differential preserves the weights (1, 1, 2), so truncations at any
    bound have empty overflow ledgers.
    """
    return _completion(quiver, n, field if field is not None else GroundField(0), 2)


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
    if len(set(lengths)) == 1 and min(lengths) >= 2:
        cycle = lengths[0]
    else:
        cycle = 2
    return _completion(quiver, 3, field, cycle, potential)


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
