"""Marked surfaces with arc systems and their graded gentle algebras.

A surface never appears here as a point set.  Each boundary component
is recorded as a circle of marked regions in cyclic order, an arc is a
pair of endpoint slots, and every irreducible flow carries an integer
degree.  Faces of the complement are recovered by a corner walk, so
fullness and formality questions reduce to finite bookkeeping.

Flow degrees are free inputs.  Whether an assignment comes from an
actual line field is not decided here; the one compatibility that is
enforced is that the degrees of the flows around a fully marked
component add up to its winding number.

The corner walk needs one convention.  Walking a face boundary, one
travels along the boundary circle from a slot to the next slot in the
orientation order, then crosses the arc ending there to its other
endpoint and continues from that slot.  Faces are therefore the cycles
of the permutation  slot -> partner(successor(slot)),  and every
directed arc side is used exactly once across all faces.  A boundary
component without slots is invisible to this walk, so the input names
the slot after whose outgoing boundary stretch the enclosing face runs.
"""

from dataclasses import dataclass

from .certificates import (Certificate, Hypothesis, ReflexivityVerdict,
                           VERIFIED_EXACTLY)
from .dgalgebra import DgAlgebraPresentation
from .quiver import Arrow, PathAlgebraElement, QuiverPresentation


class MalformedRibbon(ValueError):
    """The combinatorial data does not describe a ribbon surface.  It is a
    ValueError, since the fault is in the input.

    `slot` is the slot at fault, if one is.  `key` is the path of the input
    at fault among MarkedSurfaceArcSystem's arguments, such as
    ("components", 1, "winding"); for a key that is missing it is the path
    of the mapping that should hold it.
    """

    def __init__(self, message, slot=None, key=()):
        super().__init__(message)
        self.slot = slot
        self.key = key


class NotFormal(Exception):
    """Raised by operations that need a formal arc system."""


class NotGentle(Exception):
    """Raised when a presentation violates the gentle axioms."""


class NoMarkedInterval(Exception):
    """Raised when every marked region is a full boundary circle."""


@dataclass(frozen=True)
class BoundaryComponent:
    """One boundary circle with its marked regions in cyclic order.

    A fully marked component lists its arc endpoint slots in the cyclic
    order induced by the boundary orientation and carries a winding
    number.  Any other component lists marked intervals in cyclic
    order, each with its slots in linear order; one unmarked boundary
    segment is implied after every interval.
    """

    name: str
    fully_marked: bool
    winding: int = None
    slots: tuple = ()
    intervals: tuple = ()
    enclosed_after_slot: str = None

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        object.__setattr__(
            self, "intervals", tuple(tuple(iv) for iv in self.intervals))

    def slot_count(self):
        if self.fully_marked:
            return len(self.slots)
        return sum(len(iv) for iv in self.intervals)

    def _slot_keys(self):
        """(key, slot) for each slot, key its path inside the component."""
        if self.fully_marked:
            return [(("slots", j), slot) for j, slot in enumerate(self.slots)]
        return [(("intervals", k, j), slot) for k, iv in enumerate(self.intervals)
                for j, slot in enumerate(iv)]

    def _stations(self):
        """The cyclic station list: slots, with None for each segment."""
        if self.fully_marked:
            return list(self.slots)
        out = []
        for iv in self.intervals:
            out.extend(iv)
            out.append(None)
        return out


def _arc_ends(name, pair, slots, slot_arc):
    """The ends of the arc name: two distinct slots among slots, neither of
    them the end of an arc in slot_arc {slot: arc}, to which they go.
    MalformedRibbon otherwise."""
    ends = tuple(pair)
    if len(ends) != 2 or ends[0] == ends[1]:
        raise MalformedRibbon(
            "arc %r needs two distinct endpoint slots" % name)
    for end in ends:
        if end not in slots:
            raise MalformedRibbon(
                "arc %r ends on unknown slot %r" % (name, end), end)
        if end in slot_arc:
            raise MalformedRibbon(
                "slot %r is used by two arc ends" % end, end)
        slot_arc[end] = name
    return ends


class MarkedSurfaceArcSystem:
    """Ribbon datum: boundary components, arcs, and flow degrees.

    ``arcs`` maps arc names to pairs of distinct endpoint slots, and
    every slot must be used by exactly one arc end.  ``flow_degrees``
    maps the source slot of each irreducible flow to an integer; the
    entry may be omitted for the single flow around a fully marked
    component with one slot, where the winding number forces it.
    """

    def __init__(self, components, arcs, flow_degrees=None):
        self.components = tuple(components)
        seen = set()
        for i, comp in enumerate(self.components):
            at = ("components", i)
            if comp.name in seen:
                raise MalformedRibbon(
                    "duplicate boundary component %r" % comp.name,
                    key=at + ("name",))
            seen.add(comp.name)
            if comp.fully_marked:
                if comp.intervals:
                    raise MalformedRibbon(
                        "fully marked component %r cannot carry marked "
                        "intervals" % comp.name, key=at + ("intervals",))
                if not isinstance(comp.winding, int):
                    raise MalformedRibbon(
                        "fully marked component %r needs an integer winding "
                        "number" % comp.name, key=at)
            else:
                if comp.slots:
                    raise MalformedRibbon(
                        "component %r is not fully marked; its slots belong "
                        "inside intervals" % comp.name, key=at + ("slots",))
                if comp.winding is not None:
                    raise MalformedRibbon(
                        "winding numbers only apply to fully marked "
                        "components, not %r" % comp.name, key=at + ("winding",))
                if not comp.intervals:
                    raise MalformedRibbon(
                        "component %r has no marked region" % comp.name, key=at)

        self._slot_component, slot_keys = {}, {}
        for i, comp in enumerate(self.components):
            for key, slot in comp._slot_keys():
                key = ("components", i) + key
                if slot in self._slot_component:
                    raise MalformedRibbon(
                        "slot %r appears on two marked regions" % slot, slot, key)
                self._slot_component[slot] = comp.name
                slot_keys[slot] = key

        self.arcs = {}
        self._slot_arc = {}
        self._partner = {}
        for name, pair in dict(arcs).items():
            ends = _arc_ends(name, pair, self._slot_component, self._slot_arc)
            self._partner[ends[0]] = ends[1]
            self._partner[ends[1]] = ends[0]
            self.arcs[name] = ends
        for slot in self._slot_component:
            if slot not in self._slot_arc:
                raise MalformedRibbon(
                    "slot %r is not an arc endpoint" % slot, slot, slot_keys[slot])

        for i, comp in enumerate(self.components):
            at = ("components", i)
            if comp.slot_count() == 0:
                if len(self.components) == 1:
                    continue
                if comp.enclosed_after_slot is None:
                    raise MalformedRibbon(
                        "component %r has no slots; name the slot after "
                        "which its enclosing face runs" % comp.name, key=at)
                if comp.enclosed_after_slot not in self._slot_component:
                    raise MalformedRibbon(
                        "component %r is enclosed after unknown slot %r"
                        % (comp.name, comp.enclosed_after_slot),
                        comp.enclosed_after_slot, at + ("enclosed_after_slot",))
            elif comp.enclosed_after_slot is not None:
                raise MalformedRibbon(
                    "component %r has its own slots and cannot be enclosed"
                    % comp.name, key=at + ("enclosed_after_slot",))

        self._steps = []
        for comp in self.components:
            if comp.fully_marked:
                k = len(comp.slots)
                for i in range(k):
                    self._steps.append(
                        (comp.slots[i], comp.slots[(i + 1) % k]))
            else:
                for iv in comp.intervals:
                    for i in range(len(iv) - 1):
                        self._steps.append((iv[i], iv[i + 1]))
        self._steps = tuple(self._steps)

        given = dict(flow_degrees or {})
        sources = {src for src, _ in self._steps}
        for key in given:
            if key not in sources:
                raise MalformedRibbon(
                    "no irreducible flow starts at slot %r" % key, key,
                    ("flow_degrees", key))
        self.flow_degrees = {}
        for src, _ in self._steps:
            if src in given:
                self.flow_degrees[src] = given[src]
                continue
            comp = self._component(self._slot_component[src])
            if comp.fully_marked and len(comp.slots) == 1:
                self.flow_degrees[src] = comp.winding
            else:
                raise MalformedRibbon(
                    "missing degree for the flow leaving slot %r" % src, src,
                    ("flow_degrees",))

        for i, comp in enumerate(self.components):
            if comp.fully_marked and comp.slots:
                total = sum(self.flow_degrees[s] for s in comp.slots)
                if total != comp.winding:
                    raise MalformedRibbon(
                        "flow degrees around %r add up to %d, not the "
                        "winding number %d" % (comp.name, total, comp.winding),
                        key=("components", i, "winding"))

    def _component(self, name):
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(name)

    def arc_of(self, slot):
        """Name of the arc having ``slot`` as an endpoint."""
        return self._slot_arc[slot]

    def has_marked_interval(self):
        return any(not c.fully_marked for c in self.components)

    def fully_marked_components(self):
        return tuple(c for c in self.components if c.fully_marked)

    def boundary_successor(self, slot):
        """The next slot along the boundary and the segment count between.

        Follows the orientation of the component carrying ``slot``,
        wrapping around the circle; for the only slot of a component the
        successor is the slot itself and the count covers the whole
        circle.
        """
        comp = self._component(self._slot_component[slot])
        stations = comp._stations()
        i = stations.index(slot)
        n = len(stations)
        j = (i + 1) % n
        gap = 0
        while stations[j] is None:
            gap += 1
            j = (j + 1) % n
        return stations[j], gap

    def slot_sequence(self):
        """All slots, components first, in orientation order."""
        out = []
        for comp in self.components:
            out.extend(s for s in comp._stations() if s is not None)
        return tuple(out)


@dataclass(frozen=True)
class Face:
    """One component of the cut surface, as seen by the corner walk.

    ``slots`` lists the start slot of each boundary stretch of the walk,
    rotated to its lexicographically least form.  ``segments`` counts
    the unmarked boundary segments on the walk and ``enclosed`` names
    the slotless components attached inside.  The kind is "disk" when
    nothing is enclosed, "cylinder" for exactly one enclosed component,
    and "multiply-connected" otherwise.
    """

    kind: str
    slots: tuple
    segments: int
    enclosed: tuple = ()

    @property
    def component(self):
        """The enclosed component of a cylinder face."""
        if self.kind != "cylinder":
            raise ValueError("only cylinder faces sit on a single component")
        return self.enclosed[0]


def _least_rotation(cycle):
    best = cycle
    for i in range(1, len(cycle)):
        cand = cycle[i:] + cycle[:i]
        if cand < best:
            best = cand
    return best


def trace_faces(system):
    """Walk all corners and return the faces of the cut surface.

    Every slot starts exactly one boundary stretch of exactly one face,
    and every directed arc side is crossed once, which is the
    permutation property tests lean on.
    """
    if not system.arcs:
        raise MalformedRibbon("face tracing needs at least one arc")
    visited = set()
    raw = []
    for start in system.slot_sequence():
        if start in visited:
            continue
        cycle = []
        current = start
        while True:
            if current in visited:
                raise MalformedRibbon(
                    "corner walk revisits slot %r" % current, current)
            visited.add(current)
            cycle.append(current)
            successor, _ = system.boundary_successor(current)
            current = system._partner[successor]
            if current == start:
                break
        segments = sum(system.boundary_successor(s)[1] for s in cycle)
        raw.append((tuple(cycle), segments))

    enclosed = {i: [] for i in range(len(raw))}
    for comp in system.components:
        if comp.slot_count() > 0 or comp.enclosed_after_slot is None:
            continue
        for i, (cycle, _) in enumerate(raw):
            if comp.enclosed_after_slot in cycle:
                enclosed[i].append(comp.name)
                break

    faces = []
    for i, (cycle, segments) in enumerate(raw):
        inside = tuple(enclosed[i])
        if not inside:
            kind = "disk"
        elif len(inside) == 1:
            kind = "cylinder"
        else:
            kind = "multiply-connected"
        faces.append(Face(kind, _least_rotation(cycle), segments, inside))
    return tuple(faces)


def classify_arc_system(system):
    """The full / finitely-full / formal flags of the arc system.

    Full means every face is a disk with at most one boundary segment.
    Finitely-full asks instead that each face be such a disk or a
    cylinder sitting on a fully marked component, and that every fully
    marked component actually bounds a cylinder; an arc ending on a
    fully marked component therefore rules it out, which is how the
    annulus model of k[t] fails to be finitely-full while remaining
    full.  Formal systems are the full or finitely-full ones all of
    whose disk faces carry exactly one segment.
    """
    faces = trace_faces(system)
    full = all(f.kind == "disk" and f.segments <= 1 for f in faces)
    fully_marked = {c.name for c in system.fully_marked_components()}
    cylinders_on = set()
    tame = True
    for f in faces:
        if f.kind == "disk" and f.segments <= 1:
            continue
        if f.kind == "cylinder" and f.component in fully_marked:
            cylinders_on.add(f.component)
            continue
        tame = False
    finitely_full = tame and fully_marked <= cylinders_on
    formal = (full or finitely_full) and all(
        f.segments == 1 for f in faces if f.kind == "disk")
    return {"full": full, "finitely_full": finitely_full, "formal": formal}


def irreducible_flows(system):
    """The irreducible flows as quiver arrows between arcs.

    The arrow for the flow leaving slot ``s`` is named ``f_s``; it runs
    from the arc ending at ``s`` to the arc ending at the next slot
    along the boundary.
    """
    arrows = []
    for src, dst in system._steps:
        arrows.append(Arrow("f_%s" % src,
                            system.arc_of(src),
                            system.arc_of(dst),
                            system.flow_degrees[src]))
    return tuple(arrows)


class GentlePresentation:
    """A graded quiver with quadratic monomial relations, gentle style.

    A relation is an ordered pair ``(f, g)`` and stands for the
    vanishing of the path f followed by g.  The constructor checks the
    gentle axioms: at most two arrows in and out of each vertex, and
    for every arrow at most one zero continuation, at most one nonzero
    continuation, and dually for predecessors.
    """

    def __init__(self, quiver, relations=(), proper=False, smooth=False):
        self.quiver = quiver
        rels = []
        for f, g in relations:
            if not quiver.has_arrow(f) or not quiver.has_arrow(g):
                raise NotGentle(
                    "relation %s*%s mentions an unknown arrow" % (f, g))
            if quiver.arrow(f).target != quiver.arrow(g).source:
                raise NotGentle("relation %s*%s is not composable" % (f, g))
            if (f, g) not in rels:
                rels.append((f, g))
        self.relations = tuple(rels)
        self.proper = bool(proper)
        self.smooth = bool(smooth)
        self._check_gentle()

    @property
    def vertices(self):
        return self.quiver.vertices

    @property
    def arrows(self):
        return self.quiver.arrows

    def _check_gentle(self):
        outgoing = {}
        incoming = {}
        for a in self.quiver.arrows:
            outgoing.setdefault(a.source, []).append(a)
            incoming.setdefault(a.target, []).append(a)
        for v in self.quiver.vertices:
            if len(outgoing.get(v, ())) > 2:
                raise NotGentle("vertex %r has more than two out-arrows" % v)
            if len(incoming.get(v, ())) > 2:
                raise NotGentle("vertex %r has more than two in-arrows" % v)
        relset = set(self.relations)
        for a in self.quiver.arrows:
            zero = [g for g in outgoing.get(a.target, ())
                    if (a.name, g.name) in relset]
            nonzero = [g for g in outgoing.get(a.target, ())
                       if (a.name, g.name) not in relset]
            if len(zero) > 1:
                raise NotGentle(
                    "arrow %s has two zero continuations" % a.name)
            if len(nonzero) > 1:
                raise NotGentle(
                    "arrow %s has two nonzero continuations" % a.name)
        for g in self.quiver.arrows:
            zero = [a for a in incoming.get(g.source, ())
                    if (a.name, g.name) in relset]
            nonzero = [a for a in incoming.get(g.source, ())
                       if (a.name, g.name) not in relset]
            if len(zero) > 1:
                raise NotGentle("arrow %s ends two relations" % g.name)
            if len(nonzero) > 1:
                raise NotGentle(
                    "arrow %s has two nonzero predecessors" % g.name)

    def __eq__(self, other):
        if not isinstance(other, GentlePresentation):
            return NotImplemented
        return (self.quiver.vertices == other.quiver.vertices
                and self.quiver.arrows == other.quiver.arrows
                and set(self.relations) == set(other.relations)
                and self.proper == other.proper
                and self.smooth == other.smooth)

    __hash__ = None

    def __repr__(self):
        return ("GentlePresentation(vertices=%r, arrows=%r, relations=%r, "
                "proper=%r, smooth=%r)"
                % (self.quiver.vertices, self.quiver.arrows, self.relations,
                   self.proper, self.smooth))

    def dg_presentation(self, field=None):
        """The same data as a dg algebra with zero differential.

        All arrows get weight one, so truncation bounds count path
        length, which is what the flow space enumeration wants.
        """
        elements = tuple(
            PathAlgebraElement.from_path(self.quiver.path([f, g]))
            for f, g in self.relations)
        weights = {a.name: 1 for a in self.quiver.arrows}
        return DgAlgebraPresentation(
            self.quiver.vertices, self.quiver.arrows, differential=None,
            relations=elements, weights=weights, field=field)


def gentle_presentation(system):
    """The flow category of a formal arc system, as a gentle presentation.

    Vertices are arcs and arrows are irreducible flows.  A composable
    pair vanishes exactly when the first flow ends and the second flow
    starts on different endpoints of their shared arc; when they meet
    in the same endpoint the composite is an honest longer flow.  The
    properness flag is the finitely-full flag of the system and the
    smoothness flag is the full flag.
    """
    flags = classify_arc_system(system)
    if not flags["formal"]:
        raise NotFormal(
            "the arc system is not formal, so its flow category is not "
            "described by quadratic monomial relations")
    vertices = tuple(system.arcs)
    arrows = irreducible_flows(system)
    clash = {a.name for a in arrows} & set(vertices)
    if clash:
        raise ValueError(
            "arc names %s collide with flow arrow names; rename the arcs"
            % sorted(clash))
    ends = {a.name: dst for a, (_, dst) in zip(arrows, system._steps)}
    starts = {a.name: src for a, (src, _) in zip(arrows, system._steps)}
    relations = []
    for f in arrows:
        for g in arrows:
            if f.target != g.source:
                continue
            if ends[f.name] != starts[g.name]:
                relations.append((f.name, g.name))
    return GentlePresentation(
        QuiverPresentation(vertices, arrows), relations,
        proper=flags["finitely_full"], smooth=flags["full"])


def _dual_name(name):
    if name.endswith("!"):
        return name[:-1]
    return name + "!"


def quadratic_dual(g):
    """The quadratic dual gentle presentation.

    Arrows are reversed and renamed with a trailing "!", degrees become
    1 - d, and the relations are the complementary quadratic monomials:
    a composable dual pair vanishes exactly when the original pair
    composed to something nonzero.  Applying the map twice strips the
    markers again, so the construction is involutive on the nose.  The
    properness and smoothness flags trade places.
    """
    arrows = tuple(
        Arrow(_dual_name(a.name), a.target, a.source, 1 - a.degree)
        for a in g.quiver.arrows)
    relset = set(g.relations)
    relations = []
    for f in g.quiver.arrows:
        for h in g.quiver.arrows:
            if f.target == h.source and (f.name, h.name) not in relset:
                relations.append((_dual_name(h.name), _dual_name(f.name)))
    return GentlePresentation(
        QuiverPresentation(g.quiver.vertices, arrows), relations,
        proper=g.smooth, smooth=g.proper)


@dataclass(frozen=True)
class DualNumbersFactor:
    """A one-vertex square-zero factor split off by the peeling order."""

    vertex: str
    loop: str
    degree: int

    def __str__(self):
        return "k[%s]/(%s^2) at %s, |%s| = %d" % (
            self.loop, self.loop, self.vertex, self.loop, self.degree)


@dataclass(frozen=True)
class SemiorthogonalDecomposition:
    """Ordered factors with every glue arrow pointing forwards.

    ``glue`` records the arrows that connect different factors as
    triples (arrow name, source factor index, target factor index); the
    constructor rejects any arrow running backwards.
    """

    factors: tuple
    glue: tuple = ()

    def __post_init__(self):
        for name, src, dst in self.glue:
            if src >= dst:
                raise ValueError(
                    "arrow %r glues factor %d back to factor %d"
                    % (name, src, dst))


def extract_sod(g):
    """Split square-zero loop vertices off a proper gentle presentation.

    A vertex is peeled when its only outgoing arrow is a loop squaring
    to zero; it contributes a dual numbers factor carrying the loop
    degree.  Peeling repeats until nothing qualifies and the surviving
    subquiver, when nonempty, is returned first.  Peeled factors follow
    in reverse peel order, so all arrows between factors point from
    earlier to later, which the decomposition type checks.  Presented
    surfaces in cut normal form peel one factor per fully marked
    component, of degree 1 - winding.
    """
    if not g.proper:
        raise ValueError(
            "only proper presentations are decomposed here; the properness "
            "flag is not set")
    vertices = list(g.quiver.vertices)
    arrows = list(g.quiver.arrows)
    relations = set(g.relations)
    peeled = []
    glue_raw = []
    changed = True
    while changed:
        changed = False
        for v in vertices:
            outs = [a for a in arrows if a.source == v]
            if len(outs) != 1 or outs[0].target != v:
                continue
            loop = outs[0]
            if (loop.name, loop.name) not in relations:
                continue
            peeled.append((v, DualNumbersFactor(v, loop.name, loop.degree)))
            for a in arrows:
                if a.target == v and a.source != v:
                    glue_raw.append((a.name, a.source, v))
            arrows = [a for a in arrows if v not in (a.source, a.target)]
            names = {a.name for a in arrows}
            relations = {(f, h) for f, h in relations
                         if f in names and h in names}
            vertices.remove(v)
            changed = True
            break
    factors = []
    if vertices:
        sub = QuiverPresentation(tuple(vertices), tuple(arrows))
        factors.append(GentlePresentation(
            sub, sorted(relations), proper=g.proper, smooth=g.smooth))
    index = {}
    for v, factor in reversed(peeled):
        factors.append(factor)
        index[v] = len(factors) - 1
    glue = tuple((name, index.get(src, 0), index[dst])
                 for name, src, dst in glue_raw)
    return SemiorthogonalDecomposition(tuple(factors), glue)


def fukaya_verdict(system):
    """Reflexivity of the wrapped invariants of the surface.

    The surface must have a marked interval.  The verdict is then a
    pure winding scan: a fully marked component of winding zero forces
    a polynomial ring on a degree zero variable into the picture, which
    is the standard non-example, and without such a component the
    verdict is Reflexive.
    """
    if not system.has_marked_interval():
        raise NoMarkedInterval(
            "every boundary component is fully marked; the criterion needs "
            "a marked interval")
    hypotheses = [Hypothesis("the surface has a marked interval",
                             VERIFIED_EXACTLY,
                             replay=system.has_marked_interval)]
    offenders = [c for c in system.fully_marked_components()
                 if c.winding == 0]
    if offenders:
        comp = offenders[0]
        hypotheses.append(Hypothesis(
            "component %r is fully marked with winding 0" % comp.name,
            VERIFIED_EXACTLY,
            replay=lambda c=comp: c.fully_marked and c.winding == 0))
        certificate = Certificate(
            "fully-marked-component-of-winding-zero", tuple(hypotheses),
            witness="flows around %r span a polynomial ring on a degree "
                    "zero loop" % comp.name)
        return ReflexivityVerdict("NotReflexive", certificate, "any")
    marked = system.fully_marked_components()
    if marked:
        for comp in marked:
            hypotheses.append(Hypothesis(
                "fully marked component %r has nonzero winding %d"
                % (comp.name, comp.winding),
                VERIFIED_EXACTLY,
                replay=lambda c=comp: c.winding != 0))
    else:
        hypotheses.append(Hypothesis(
            "no boundary component is fully marked",
            VERIFIED_EXACTLY,
            replay=lambda s=system: not s.fully_marked_components()))
    certificate = Certificate(
        "no-fully-marked-component-of-winding-zero", tuple(hypotheses))
    return ReflexivityVerdict("Reflexive", certificate, "any")
