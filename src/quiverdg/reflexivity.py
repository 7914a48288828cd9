"""Reflexivity verdicts with replayable certificates.

`check` dispatches on the type of its input and tries the decision criteria
in a fixed order; the first one whose hypotheses can all be established wins
and is named in the certificate.  Hypotheses verified only on the realized
window downgrade a Reflexive verdict to its window-conditional sub-state,
and when nothing applies the verdict is Unknown with the nearest misses
collected in the certificate witness.

Infinite dimensional commutative rings are accepted only through
`SymbolicFamily` tags (polynomial, laurent, power-series-complete-local);
deciding adic completeness of an arbitrary presentation is not attempted.
The module also houses `two_out_of_three`, the inference rule linking
reflexivity, generation, and derived completeness, and re-exports the
commutative local-factor decomposition under its decision-procedure name.
"""

from dataclasses import dataclass, replace

from .algebras import (FiniteDimAlgebra, RadicalComputationError,
                       _algebra_on_span, decompose_commutative)
from .algebras import NotCommutative  # noqa: F401  (part of this module's contract)
from .certificates import (ASSUMED_BY_USER, VERIFIED_EXACTLY,
                           VERIFIED_WITHIN_WINDOW, Certificate, Hypothesis,
                           ReflexivityVerdict)
from .dgalgebra import (DgAlgebraPresentation, NotStabilized,
                        TruncatedDgAlgebra, classify, cohomology, h0_algebra,
                        realize, verify_differential)
from .ginzburg import GinzburgPresentation
from .linalg import RowSpace
from .quiver import PathAlgebraElement, reduce_modulo_relations
from .surfaces import GentlePresentation, MarkedSurfaceArcSystem, fukaya_verdict

FAMILY_KINDS = ("polynomial", "laurent", "power-series-complete-local")


class NoCriterionApplies(Exception):
    """Raised inside the dispatcher when every criterion misses; `check`
    converts it into an Unknown verdict carrying the diagnostics."""

    def __init__(self, *diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = tuple(diagnostics)


class TooFewKnownFlags(Exception):
    pass


@dataclass(frozen=True)
class SymbolicFamily:
    """A commutative ring given by name rather than by presentation.

    `kind` is one of `FAMILY_KINDS`, `degree` the common degree of the
    variables, `variables` how many there are.  Power series only make
    sense in degree zero: a graded power series ring on a variable of
    nonzero degree has finite sums in each degree and collapses to a
    polynomial ring.
    """

    kind: str
    degree: int = 0
    variables: int = 1

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError("unknown family kind %r; use one of %s"
                             % (self.kind, ", ".join(FAMILY_KINDS)))
        if self.variables < 1:
            raise ValueError("a family needs at least one variable")
        if self.kind == "power-series-complete-local" and self.degree != 0:
            raise ValueError(
                "power series on a degree %d variable are just polynomials; "
                "use the polynomial kind" % self.degree)


@dataclass(frozen=True)
class CompletenessTriple:
    """Tri-state record of the three linked properties: is the algebra
    reflexive, does the base semisimple generate the small derived category,
    and is the algebra derived complete over its Koszul double dual.

    Each flag is True, False, or None (unknown).  `provenance` collects
    (flag name, note) pairs saying where a value came from.
    """

    reflexive: object = None
    generator: object = None
    complete: object = None
    provenance: tuple = ()

    def __post_init__(self):
        for name in ("reflexive", "generator", "complete"):
            value = getattr(self, name)
            if value not in (True, False, None):
                raise ValueError("flag %r must be True, False, or None" % name)
        object.__setattr__(self, "provenance", tuple(self.provenance))

    def note_for(self, name):
        for flag, note in reversed(self.provenance):
            if flag == name:
                return note
        return None


def two_out_of_three(triple):
    """Fill in the missing flag of a CompletenessTriple when licensed.

    The three properties are linked by a joint-truth rule: whenever two of
    them hold, so does the third.  Nothing follows from a failure, so if a
    known flag is False the missing one stays None with an explanatory note.
    Exactly two flags must be known on input.
    """
    values = [("reflexive", triple.reflexive),
              ("generator", triple.generator),
              ("complete", triple.complete)]
    known = [(name, v) for name, v in values if v is not None]
    if len(known) < 2:
        raise TooFewKnownFlags(
            "inference needs two known flags, got %d" % len(known))
    if len(known) == 3:
        raise ValueError("all three flags are already known; nothing to infer")
    missing = next(name for name, v in values if v is None)
    if all(v for _, v in known):
        note = "inferred from %s and %s both holding" % (known[0][0], known[1][0])
        return replace(triple, **{missing: True},
                       provenance=triple.provenance + ((missing, note),))
    note = ("no inference: the rule only propagates joint truth, and %s fails"
            % next(name for name, v in known if not v))
    return replace(triple, provenance=triple.provenance + ((missing, note),))


# ---------------------------------------------------------------------------
# the dispatcher

def check(obj):
    """Decide reflexivity for `obj` and wrap the reasons in a certificate.

    Accepted inputs: SymbolicFamily, MarkedSurfaceArcSystem,
    GentlePresentation, GinzburgPresentation, finite dimensional algebras by
    structure constants, and realized truncations of dg presentations.  Bare
    presentations are rejected: the truncation criteria need computed
    degrees, so realize on a safe window first.

    A Reflexive or NotReflexive verdict cites exactly one criterion and the
    hypotheses that were actually established; Unknown verdicts list how
    close each criterion came.
    """
    try:
        if isinstance(obj, SymbolicFamily):
            return _check_family(obj)
        if isinstance(obj, MarkedSurfaceArcSystem):
            return fukaya_verdict(obj)
        if isinstance(obj, GentlePresentation):
            return _check_gentle(obj)
        if isinstance(obj, GinzburgPresentation):
            return _check_ginzburg(obj)
        if isinstance(obj, FiniteDimAlgebra):
            return _check_finite_dimensional(obj)
        if isinstance(obj, TruncatedDgAlgebra):
            return _check_truncation(obj)
    except NoCriterionApplies as miss:
        return _unknown(miss.diagnostics, _characteristic_of(obj))
    if isinstance(obj, DgAlgebraPresentation):
        raise TypeError("realize the presentation on a safe window first; "
                        "check() works with computed degrees, not raw generators")
    raise TypeError("no reflexivity criteria cover %s" % type(obj).__name__)


def _characteristic_of(obj):
    field = getattr(obj, "field", None)
    if field is None:
        return "any"
    return str(field.characteristic)


def _unknown(diagnostics, characteristic):
    certificate = Certificate("no-criterion-applies", (),
                              witness="; ".join(diagnostics))
    return ReflexivityVerdict("Unknown", certificate, characteristic)


def _scope_tag(scope):
    return VERIFIED_EXACTLY if scope == "exact" else VERIFIED_WITHIN_WINDOW


# ---------------------------------------------------------------------------
# symbolic families

def _check_family(family):
    if family.kind == "laurent":
        if family.degree:
            statement = ("the variables are invertible of nonzero degree, so "
                         "every finite dimensional graded module is zero")
            witness = ("multiplication by an invertible degree %d variable "
                       "is an isomorphism shifting degrees" % family.degree)
        else:
            statement = ("the ring is a localization with infinitely many "
                         "maximal ideals and is complete at none of them")
            witness = "graded Laurent polynomials in degree zero"
        hypotheses = (
            Hypothesis(statement, VERIFIED_EXACTLY,
                       replay=lambda: family.kind == "laurent"),
        )
        certificate = Certificate("graded-laurent-polynomials", hypotheses,
                                  witness=witness)
        return ReflexivityVerdict("NotReflexive", certificate)
    if family.kind == "power-series-complete-local":
        hypotheses = (
            Hypothesis("the ring is complete local with residue field the "
                       "ground field itself", VERIFIED_EXACTLY,
                       replay=lambda: family.kind == "power-series-complete-local"),
        )
        certificate = Certificate(
            "complete-local-power-series", hypotheses,
            witness="power series in %d variable(s)" % family.variables)
        return ReflexivityVerdict("Reflexive", certificate)
    # polynomial
    if family.degree == 0:
        hypotheses = (
            Hypothesis("the variables sit in degree zero", VERIFIED_EXACTLY,
                       replay=lambda: family.degree == 0),
            Hypothesis("a polynomial ring is noetherian but not a finite "
                       "product of complete local algebras", VERIFIED_EXACTLY,
                       replay=lambda: family.kind == "polynomial"),
        )
        certificate = Certificate(
            "polynomial-ring-in-degree-zero", hypotheses,
            witness="polynomials in %d variable(s) of degree 0" % family.variables)
        return ReflexivityVerdict("NotReflexive", certificate)
    if family.variables > 1:
        raise NoCriterionApplies(
            "only single-variable graded polynomial rings are matched to an "
            "annulus model; got %d variables of degree %d"
            % (family.variables, family.degree))
    hypotheses = (
        Hypothesis("the variable has nonzero degree %d" % family.degree,
                   VERIFIED_EXACTLY, replay=lambda: family.degree != 0),
        Hypothesis("the ring is the gentle algebra of an annulus whose fully "
                   "marked boundary has winding number %d" % family.degree,
                   VERIFIED_EXACTLY, replay=lambda: family.variables == 1),
    )
    certificate = Certificate("graded-polynomial-ring-of-nonzero-weight",
                              hypotheses)
    return ReflexivityVerdict("Reflexive", certificate)


# ---------------------------------------------------------------------------
# gentle presentations

def _flow_dimension(g, bound):
    """The number of nonzero flows of length <= bound.  A gentle presentation
    has no differential, so this is the size of its quotient basis, and no
    truncation is realized for it."""
    p = g.dg_presentation()
    return len(reduce_modulo_relations(p.quiver, p.relations, bound, field=p.field,
                                       weights=p.weights))


def _check_gentle(g):
    if not g.proper:
        raise NoCriterionApplies(
            "the presentation does not claim properness; pass the marked "
            "surface itself so the winding criterion can run")
    # Relations are quadratic monomials, so once no new flow survives from
    # one length bound to the next, none ever will: any longer flow contains
    # a vanishing length-two factor.  Properness is therefore decidable, and
    # a proper gentle algebra repeats no arrow along a nonzero flow, which
    # caps the search.
    cap = len(g.quiver.arrows) + 2
    dims = [None, _flow_dimension(g, 1)]
    stable_at = None
    for bound in range(2, cap + 2):
        dims.append(_flow_dimension(g, bound))
        if dims[bound] == dims[bound - 1]:
            stable_at = bound - 1
            break
    if stable_at is None:
        raise ValueError(
            "the properness flag is set but the flow space is still growing "
            "at length %d; the input is inconsistent" % (cap + 1))
    total = dims[stable_at]
    hypotheses = (
        Hypothesis("the quiver and relations satisfy the gentle axioms",
                   VERIFIED_EXACTLY,
                   replay=lambda: GentlePresentation(
                       g.quiver, g.relations, proper=g.proper,
                       smooth=g.smooth) == g),
        Hypothesis("no nonzero flow has length above %d, so the algebra is "
                   "proper of dimension %d" % (stable_at, total),
                   VERIFIED_EXACTLY,
                   replay=lambda: _flow_dimension(g, stable_at)
                   == _flow_dimension(g, stable_at + 1) == total),
    )
    certificate = Certificate(
        "proper-graded-gentle", hypotheses,
        witness="flow space dimension stabilizes at %d from length %d"
        % (total, stable_at))
    return ReflexivityVerdict("Reflexive", certificate)


# ---------------------------------------------------------------------------
# completions and potentials

def _differential_squares_to_zero(p):
    lo = min([g.degree for g in p.generators] + [0])
    t = realize(p, (lo, 2), 3)
    return verify_differential(t).ok


def _check_ginzburg(p):
    characteristic = p.field.characteristic
    potential = p.superpotential
    if potential is None or potential.is_zero():
        if p.n is None or p.n < 2:
            raise NoCriterionApplies(
                "the completed preprojective criterion needs a completion "
                "of rank at least two, got n = %r" % (p.n,))
        hypotheses = (
            Hypothesis("the completion rank n = %d is at least two" % p.n,
                       VERIFIED_EXACTLY, replay=lambda: p.n >= 2),
            Hypothesis("the differential squares to zero on a realized "
                       "truncation", VERIFIED_EXACTLY,
                       replay=lambda: _differential_squares_to_zero(p)),
        )
        certificate = Certificate(
            "calabi-yau-completion-of-rank-at-least-two", hypotheses,
            witness="zero superpotential; dual arrows in degree %d, loops in "
                    "degree %d" % (2 - p.n, 1 - p.n))
        return ReflexivityVerdict("Reflexive", certificate, str(characteristic))
    if characteristic != 0:
        raise NoCriterionApplies(
            "the potential criterion needs characteristic zero, not %d"
            % characteristic)
    shortest = potential.min_cycle_length()
    if shortest < 3:
        raise NoCriterionApplies(
            "the superpotential has a cycle of length %d, below the "
            "required three" % shortest)
    hypotheses = (
        Hypothesis("every cycle of the superpotential has length at least "
                   "three (shortest: %d)" % shortest, VERIFIED_EXACTLY,
                   replay=lambda: potential.min_cycle_length() >= 3),
        Hypothesis("the ground field has characteristic zero",
                   VERIFIED_EXACTLY,
                   replay=lambda: p.field.characteristic == 0),
        Hypothesis("the differential squares to zero on a realized "
                   "truncation", VERIFIED_EXACTLY,
                   replay=lambda: _differential_squares_to_zero(p)),
    )
    certificate = Certificate("ginzburg-algebra-of-a-long-cycle-potential",
                              hypotheses)
    return ReflexivityVerdict("Reflexive", certificate, "0")


# ---------------------------------------------------------------------------
# finite dimensional algebras by structure constants

def _degree_zero_subalgebra(a, indices):
    one = a.field.one()
    vectors = [{i: one} for i in indices]
    return _algebra_on_span(a, vectors, a.unit)


def _decompose_replays(a, factors):
    def factor_count_again():
        return len(decompose_commutative(a)) == len(factors)

    def partition_again():
        return sum(f.algebra.dim for f in decompose_commutative(a)) == a.dim

    return factor_count_again, partition_again


def _check_finite_dimensional(a):
    failures = a.verify()
    if failures:
        raise ValueError("the structure constants are inconsistent: %s"
                         % failures[0])
    characteristic = str(a.field.characteristic)
    ungraded = a.degrees is None or all(d == 0 for d in a.degrees)
    if ungraded and a.is_commutative():
        factors = decompose_commutative(a)
        if not all(f.residue_field_certified for f in factors):
            raise NoCriterionApplies(
                "a local factor's residue algebra could not be certified as "
                "a field")
        count_again, partition_again = _decompose_replays(a, factors)
        hypotheses = (
            Hypothesis("multiplication is commutative on the whole basis",
                       VERIFIED_EXACTLY, replay=a.is_commutative),
            Hypothesis("the algebra splits into %d local factors through "
                       "orthogonal idempotents" % len(factors),
                       VERIFIED_EXACTLY, replay=count_again),
            Hypothesis("the factor dimensions partition the total, and every "
                       "residue field is finite over the ground field",
                       VERIFIED_EXACTLY, replay=partition_again),
        )
        certificate = Certificate(
            "finite-product-of-complete-local", hypotheses,
            witness="factor dimensions %s, residue dimensions %s"
            % ([f.algebra.dim for f in factors],
               [f.residue_dimension for f in factors]))
        return ReflexivityVerdict("Reflexive", certificate, characteristic)

    degrees = a.degrees if a.degrees is not None else [0] * a.dim
    has_positive = any(d > 0 for d in degrees)
    has_negative = any(d < 0 for d in degrees)
    diagnostics = []
    zero_indices = [i for i, d in enumerate(degrees) if d == 0]

    if not has_positive:
        verdict = _connective_finite_dimensional(
            a, degrees, zero_indices, characteristic, diagnostics)
        if verdict is not None:
            return verdict
    else:
        diagnostics.append("not connective: basis degrees reach %d"
                           % max(degrees))
    if not has_negative:
        verdict = _coconnective_finite_dimensional(
            a, degrees, zero_indices, characteristic, diagnostics)
        if verdict is not None:
            return verdict
    else:
        diagnostics.append("not coconnective: basis degrees reach %d"
                           % min(degrees))
    raise NoCriterionApplies(*diagnostics)


def _connective_finite_dimensional(a, degrees, zero_indices, characteristic,
                                   diagnostics):
    try:
        sub, _ = _degree_zero_subalgebra(a, zero_indices)
        info = sub.radical()
    except RadicalComputationError as miss:
        diagnostics.append("the degree zero radical resisted computation: %s"
                           % miss)
        return None
    residue = info.quotient

    def degrees_again():
        current = a.degrees if a.degrees is not None else [0] * a.dim
        return max(current) <= 0

    if residue.dim == 1:
        hypotheses = (
            Hypothesis("every basis degree is at most zero",
                       VERIFIED_EXACTLY, replay=degrees_again),
            Hypothesis("the algebra is finite dimensional (dimension %d), "
                       "hence locally proper" % a.dim, VERIFIED_EXACTLY,
                       replay=lambda: a.dim == len(a.basis)),
            Hypothesis("the degree zero part modulo its radical is one "
                       "dimensional", VERIFIED_EXACTLY,
                       replay=lambda: _degree_zero_subalgebra(
                           a, zero_indices)[0].radical().quotient.dim == 1),
        )
        certificate = Certificate(
            "connective-local-finite-dimensional", hypotheses,
            witness="radical dimension %d in the degree zero part of "
                    "dimension %d" % (info.dimension, sub.dim))
        return ReflexivityVerdict("Reflexive", certificate, characteristic)
    if residue.is_commutative():
        hypotheses = (
            Hypothesis("every basis degree is at most zero",
                       VERIFIED_EXACTLY, replay=degrees_again),
            Hypothesis("the algebra is finite dimensional (dimension %d), "
                       "hence locally proper" % a.dim, VERIFIED_EXACTLY,
                       replay=lambda: a.dim == len(a.basis)),
            Hypothesis("the semisimple quotient of the degree zero part is "
                       "commutative, hence separable over the perfect ground "
                       "field, and lifts to a subalgebra", VERIFIED_EXACTLY,
                       replay=lambda: _degree_zero_subalgebra(
                           a, zero_indices)[0].radical()
                       .quotient.is_commutative()),
        )
        certificate = Certificate(
            "connective-with-commutative-semisimple-quotient", hypotheses,
            witness="semisimple quotient of dimension %d" % residue.dim)
        return ReflexivityVerdict("Reflexive", certificate, characteristic)
    diagnostics.append("the semisimple quotient in degree zero has dimension "
                       "%d and is not commutative" % residue.dim)
    return None


def _coconnective_finite_dimensional(a, degrees, zero_indices, characteristic,
                                     diagnostics):
    try:
        sub, _ = _degree_zero_subalgebra(a, zero_indices)
        info = sub.radical()
    except RadicalComputationError as miss:
        diagnostics.append("the degree zero radical resisted computation: %s"
                           % miss)
        return None
    if info.dimension:
        diagnostics.append("the degree zero part has a radical of dimension "
                           "%d, so it is not semisimple" % info.dimension)
        return None
    hypotheses = (
        Hypothesis("every basis degree is at least zero", VERIFIED_EXACTLY,
                   replay=lambda: min(a.degrees if a.degrees is not None
                                      else [0]) >= 0),
        Hypothesis("the algebra is finite dimensional (dimension %d), hence "
                   "proper" % a.dim, VERIFIED_EXACTLY,
                   replay=lambda: a.dim == len(a.basis)),
        Hypothesis("the degree zero part is semisimple", VERIFIED_EXACTLY,
                   replay=lambda: _degree_zero_subalgebra(
                       a, zero_indices)[0].radical().dimension == 0),
    )
    certificate = Certificate(
        "proper-coconnective", hypotheses,
        witness="semisimple degree zero part of dimension %d" % sub.dim)
    return ReflexivityVerdict("Reflexive", certificate, characteristic)


# ---------------------------------------------------------------------------
# realized truncations

def _splitting_is_visible(t, info):
    """Syntactic splitting check: every degree zero generator projects into
    the radical of H^0, so the composite onto the semisimple quotient kills
    all generators and the quotient splits off through the unit."""
    generators = [g for g in t.presentation.generators if g.degree == 0]
    if not generators:
        return True
    coh_zero = cohomology(t, (0, 0))
    radical_span = RowSpace(t.field)
    for v in info.vectors:
        radical_span.add(v)
    for g in generators:
        path = t.presentation.quiver.path([g.name])
        element = t.qb.reduce(PathAlgebraElement.from_path(path))
        class_vec = coh_zero.class_coordinates(0, element)
        if class_vec is None:
            return False
        if class_vec and not radical_span.contains(class_vec):
            return False
    return True


def _check_truncation(t):
    characteristic = str(t.field.characteristic)
    flags = classify(t)
    diagnostics = []

    if flags["connective"]["value"]:
        verdict = _connective_truncation(t, flags, characteristic, diagnostics)
        if verdict is not None:
            return verdict
    else:
        diagnostics.append("not connective: classes survive in positive "
                           "degrees")

    coconnective = flags["strictly_coconnective"]
    if coconnective["value"]:
        verdict = _coconnective_truncation(t, flags, characteristic,
                                           diagnostics)
        if verdict is not None:
            return verdict
    else:
        diagnostics.append("not coconnective: words survive in negative "
                           "degrees")
    raise NoCriterionApplies(*diagnostics)


def _connective_truncation(t, flags, characteristic, diagnostics):
    try:
        h0 = h0_algebra(t)
    except NotStabilized as miss:
        diagnostics.append("H^0 did not stabilize: %s" % miss)
        return None
    try:
        info = h0.algebra.radical()
    except RadicalComputationError as miss:
        diagnostics.append("the radical of H^0 resisted computation: %s"
                           % miss)
        return None
    residue = info.quotient
    connective = flags["connective"]
    proper = flags["locally_proper_within_window"]
    shared = (
        Hypothesis("cohomology vanishes in positive degrees",
                   _scope_tag(connective["scope"]),
                   replay=lambda: classify(t)["connective"]["value"]),
        Hypothesis("cohomology is finite dimensional in each computed degree",
                   _scope_tag(proper["scope"]),
                   replay=lambda: classify(t)
                   ["locally_proper_within_window"]["value"]),
        Hypothesis("the H^0 dimension agrees between weight bounds %d and %d"
                   % (h0.stabilized_at, h0.stabilized_at + 1),
                   VERIFIED_EXACTLY,
                   replay=lambda: h0.dims_checked[0] == h0.dims_checked[1]),
    )
    if residue.dim == 1:
        hypotheses = shared + (
            Hypothesis("H^0 modulo its radical is one dimensional",
                       VERIFIED_EXACTLY,
                       replay=lambda: h0_algebra(t).algebra.radical()
                       .quotient.dim == 1),
        )
        certificate = Certificate(
            "connective-with-local-degree-zero-cohomology", hypotheses,
            witness="H^0 has dimension %d with radical of dimension %d"
            % (h0.algebra.dim, info.dimension))
        return ReflexivityVerdict("Reflexive", certificate, characteristic)
    if residue.is_commutative():
        if _splitting_is_visible(t, info):
            splitting = Hypothesis(
                "every degree zero generator projects into the radical of "
                "H^0, so the semisimple quotient splits off",
                VERIFIED_EXACTLY,
                replay=lambda: _splitting_is_visible(
                    t, h0_algebra(t).algebra.radical()))
        else:
            splitting = Hypothesis(
                "the projection onto the semisimple quotient of H^0 admits "
                "a dg algebra splitting", ASSUMED_BY_USER)
        hypotheses = shared + (
            Hypothesis("the semisimple quotient of H^0 is commutative",
                       VERIFIED_EXACTLY,
                       replay=lambda: h0_algebra(t).algebra.radical()
                       .quotient.is_commutative()),
            splitting,
        )
        certificate = Certificate(
            "connective-with-commutative-semisimple-quotient", hypotheses,
            witness="semisimple quotient of H^0 has dimension %d"
            % residue.dim)
        return ReflexivityVerdict("Reflexive", certificate, characteristic)
    diagnostics.append("the semisimple quotient of H^0 has dimension %d and "
                       "is not commutative" % residue.dim)
    return None


def _coconnective_truncation(t, flags, characteristic, diagnostics):
    coconnective = flags["strictly_coconnective"]
    a1 = flags["a1_zero"]
    a0 = flags["a0"]
    proper = flags["locally_proper_within_window"]
    if a1["value"] and a0["equals_base"]:
        hypotheses = (
            Hypothesis("no basis words sit in negative degrees",
                       _scope_tag(coconnective["scope"]),
                       replay=lambda: classify(t)
                       ["strictly_coconnective"]["value"]),
            Hypothesis("the degree one component vanishes",
                       _scope_tag(a1["scope"]),
                       replay=lambda: classify(t)["a1_zero"]["value"]),
            Hypothesis("the degree zero component is exactly the span of "
                       "the vertices", _scope_tag(a0["scope"]),
                       replay=lambda: classify(t)["a0"]["equals_base"]),
            Hypothesis("cohomology is finite dimensional in each computed "
                       "degree", _scope_tag(proper["scope"]),
                       replay=lambda: classify(t)
                       ["locally_proper_within_window"]["value"]),
        )
        certificate = Certificate(
            "coconnective-with-vanishing-degree-one", hypotheses,
            witness="degree zero dimension %d over %d vertices"
            % (a0["dim"], len(t.presentation.vertices)))
        return ReflexivityVerdict("Reflexive", certificate, characteristic)
    if not a1["value"]:
        diagnostics.append("the degree one component does not vanish")
    if not a0["equals_base"]:
        diagnostics.append("the degree zero component is bigger than the "
                           "span of the vertices (dimension %d)" % a0["dim"])
    if not t.certified_finite_dimensional:
        diagnostics.append("the basis is not certified finite, so properness "
                           "stays window-bound")
        return None
    try:
        h0 = h0_algebra(t)
        info = h0.algebra.radical()
    except (NotStabilized, RadicalComputationError) as miss:
        diagnostics.append("the H^0 semisimplicity check failed: %s" % miss)
        return None
    if info.dimension:
        diagnostics.append("H^0 has a radical of dimension %d, so it is not "
                           "semisimple" % info.dimension)
        return None
    hypotheses = (
        Hypothesis("no basis words sit in negative degrees",
                   _scope_tag(coconnective["scope"]),
                   replay=lambda: classify(t)
                   ["strictly_coconnective"]["value"]),
        Hypothesis("the basis is finite and complete below the weight bound",
                   VERIFIED_EXACTLY,
                   replay=lambda: t.certified_finite_dimensional),
        Hypothesis("H^0 is semisimple", VERIFIED_EXACTLY,
                   replay=lambda: h0_algebra(t).algebra.radical()
                   .dimension == 0),
    )
    certificate = Certificate(
        "proper-coconnective", hypotheses,
        witness="total dimension %d inside the window" % sum(t.dims().values()))
    return ReflexivityVerdict("Reflexive", certificate, characteristic)
