"""Command line front end.

A job is described by a JSON document: the ground field characteristic, one
object (quiver, superpotential, dg presentation, surface with arcs, algebra
by structure constants, or a symbolic family tag), the truncation bounds the
computation is allowed to use, and optionally the list of commands the
document is meant for.  Bounds are never defaulted: window-conditional
results only make sense when the window was chosen on purpose.  Exact
scalars are written as integer or fraction strings ("2", "-3/4") so nothing
is lost in serialization.

The document is read by one walker over declarative tables: JOB for the
job's own keys and OBJECTS for each object kind.  A spec is a leaf that
checks one value, a one-item list of specs, or a table of keys with the
optional ones marked "?" (the comment above the tables has the detail).
References to declared names (an arrow's endpoints, a term's labels, a
structure constant's indices) are read from a scope that earlier keys fill,
so a fault in a value is reported at the key that holds it; what only the
engine's validators find (a malformed ribbon, power series on a variable of
nonzero degree) is reported at document.object.  The flags --char,
--window, --words and --paths are merged into the document before the walk
and override its values.

Exit codes: 0 means a verdict or report was produced (Unknown counts), 1 is
an input problem and the message names the offending document location, 2 is
an internal invariant failure, which is a bug worth reporting, with the
witness dumped to stderr.  Reports are deterministic: running the same
document twice gives byte-identical text and JSON.
"""

import argparse
import functools
import json
import sys
import traceback

# Module level holds the layers that `import quiverdg` loads anyway, plus the
# small certificates module; a command that needs algebras, koszul,
# reflexivity or surfaces imports it in its handler, so a process loads only
# the layers its command uses.
from .certificates import replay_certificate
from .dgalgebra import (DgAlgebraPresentation, DSquaredNonzero,
                        InconsistentPresentation, NotStabilized, UnsafeWindow,
                        cohomology, h0_algebra, realize, verify_differential)
from .fields import GroundField
from .ginzburg import cy_completion, ginzburg, jacobi_basis, verify_koszul_pair
from .quiver import (Arrow, PathAlgebraElement, QuiverPresentation,
                     Superpotential, UnknownArrow)

SCHEMA = "report-v1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class InputError(Exception):
    """A problem with the document or flags; `location` says where."""

    def __init__(self, location, message):
        super().__init__("%s: %s" % (location, message))
        self.location = location
        self.message = message


class InternalFailure(Exception):
    """An invariant of the package failed; `witness` explains how."""

    def __init__(self, witness):
        super().__init__(witness)
        self.witness = witness


# ---------------------------------------------------------------------------
# document tables
#
# A spec says what one node of the document must be, in one of three forms:
#
# - a leaf: a callable (raw, where, scope) -> value that raises InputError at
#   the location `where` when raw does not fit;
# - a one-item list [spec]: a JSON list, each item walked against spec at
#   where[pos];
# - a table {key: spec}: a JSON object, each key walked in table order at
#   where.key.  A key ending in "?" may be absent or null; keys the table
#   does not name are ignored.  The walk gives a dict of the keys present.
#
# `scope` is one dict per walk: leaves of earlier keys fill it and leaves of
# later keys read it.  It holds the field, the declared vertices, the arrows
# or generators declared so far, the quiver they make, and the size of an
# algebra's basis; the job's own walk holds the command and the flags there.

def _walk(spec, raw, where, scope):
    """The value of raw, the node at where, walked against spec."""
    if type(spec) is dict:
        if not isinstance(raw, dict):
            raise InputError(where, "expected an object")
        value = {}
        for key, item in spec.items():
            name = key.rstrip("?")
            node = raw.get(name)
            if node is None:
                if name != key:
                    continue
                if name not in raw:
                    raise InputError(where, "missing key %r" % name)
            at = f"{where}.{name}"
            # a leaf is called here, not through a frame of _walk per node
            value[name] = item(node, at, scope) if callable(item) else _walk(item, node, at, scope)
        return value
    if type(spec) is list:
        if not isinstance(raw, list):
            raise InputError(where, "expected a list")
        walk = spec[0] if callable(spec[0]) else functools.partial(_walk, spec[0])
        return [walk(node, "%s[%d]" % (where, pos), scope) for pos, node in enumerate(raw)]
    return spec(raw, where, scope)


def _is_int(value):
    """An int that is not a bool: JSON true must not run as 1."""
    return type(value) is int


def _typed(kind, what):
    """The leaf for a value of one JSON type, which is exactly kind: a bool
    is not taken for an int."""
    def leaf(raw, where, scope):
        if type(raw) is not kind:
            raise InputError(where, "expected %s, got %s" % (what, type(raw).__name__))
        return raw
    return leaf


_int, _bool = _typed(int, "an integer"), _typed(bool, "true or false")
_name = _typed(str, "a string")


def _positive(raw, where, scope=None):
    if not _is_int(raw) or raw < 1:
        raise InputError(where, "expected a positive integer, got %r" % (raw,))
    return raw


def _each(spec):
    """The leaf for a JSON object whose every value is walked against spec at
    where.key, whatever its key."""
    def leaf(raw, where, scope):
        if not isinstance(raw, dict):
            raise InputError(where, "expected an object")
        return {key: _walk(spec, value, "%s.%s" % (where, key), scope)
                for key, value in raw.items()}
    return leaf


def _scalar(raw, where, scope):
    """A coefficient of the document in the field.  It is a string such as
    "-2/3" or an integer: a JSON float is binary, so it is not exact."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InputError(where, "scalar %r is not a string or an integer" % (raw,))
    try:
        return scope["field"].of(raw)
    except ZeroDivisionError:
        raise InputError(where, "scalar %r divides by zero" % (raw,))
    except ValueError as err:
        raise InputError(where, str(err))


def _characteristic(raw, where, scope):
    try:
        return GroundField(_int(raw, where, scope))
    except ValueError as err:
        raise InputError(where, str(err))


def _commands(raw, where, scope):
    """The commands the document is meant for; the one run must be listed."""
    if not isinstance(raw, list) or scope["command"] not in raw:
        raise InputError(where, "document does not request command %r" % scope["command"])
    return raw


def _kind(raw, where, scope):
    if raw not in scope["kinds"]:
        raise InputError(where, "command %r works on %s objects, got %r"
                         % (scope["command"], " / ".join(scope["kinds"]), raw))
    return raw


def _window(raw, where, scope):
    """The degree window [lo, hi] with lo <= hi; --window LO..HI overrides it."""
    if scope["flags"].window is not None:
        where, raw = "flags.window", raw.split("..")
        try:
            raw = [int(end) for end in raw]
        except ValueError:
            pass
    if not (isinstance(raw, list) and len(raw) == 2 and all(map(_is_int, raw))):
        raise InputError(where, "a window is two integers lo <= hi, [lo, hi] in the "
                                "document or LO..HI as a flag")
    if raw[0] > raw[1]:
        raise InputError(where, "window %d..%d is empty" % tuple(raw))
    return tuple(raw)


def _vertices(raw, where, scope):
    """The declared vertices: names, none of them repeated."""
    vertices = scope["vertices"] = _walk([_name], raw, where, scope)
    for pos, name in enumerate(vertices):
        if name in vertices[:pos]:
            raise InputError("%s[%d]" % (where, pos), "vertex %r is declared twice" % name)
    return vertices


def _arrow(raw, where, scope):
    """An arrow [name, source, target, degree] between the declared vertices,
    its name not declared before."""
    if not (isinstance(raw, list) and len(raw) == 4):
        raise InputError(where, "an arrow is [name, source, target, degree]")
    name, source, target = (_name(x, where, scope) for x in raw[:3])
    declared = scope.setdefault("arrows", set())
    if name in declared:
        raise InputError(where, "arrow %r is declared twice" % name)
    arrow = Arrow(name, source, target, _int(raw[3], where, scope))
    for end in (source, target):
        if end not in scope["vertices"]:
            raise InputError(where, "arrow %s has undeclared endpoint %r" % (name, end))
    declared.add(name)
    return arrow


def _arrows(raw, where, scope):
    """Arrows of distinct names; the quiver they make goes to scope."""
    arrows = _walk([_arrow], raw, where, scope)
    scope["quiver"] = QuiverPresentation(scope["vertices"], arrows)
    return arrows


def _cy_arrow(raw, where, scope):
    """An arrow of the quiver of a Calabi-Yau completion, which is in degree 0."""
    arrow = _arrow(raw, where, scope)
    if arrow.degree != 0:
        raise InputError(where, "arrow %s has degree %d; a Calabi-Yau completion "
                                "needs degree 0" % (arrow.name, arrow.degree))
    return arrow


def _term(raw, where, scope):
    """A term [coeff, [labels...], base] of an element: coeff times the path
    of the labels.  base is null or a declared vertex; it names the vertex of
    an empty path."""
    if not (isinstance(raw, list) and len(raw) == 3 and isinstance(raw[1], list)):
        raise InputError(where, "a term is [coeff, [labels...], base]")
    coeff, labels, base = raw
    coeff = _scalar(coeff, where, scope)
    if base is not None and base not in scope["vertices"]:
        raise InputError(where, "base %r is not a declared vertex" % (base,))
    try:
        path = scope["quiver"].path([_name(x, where, scope) for x in labels], base=base)
    except UnknownArrow as err:
        raise InputError(where, "unknown generator %s" % err)
    except ValueError as err:
        raise InputError(where, str(err))
    return PathAlgebraElement.from_path(path, coeff)


def _element(raw, where, scope):
    """A sum of terms."""
    return sum(_walk([_term], raw, where, scope), PathAlgebraElement.zero())


def _by_generator(spec):
    """The leaf for a JSON object keyed by declared generators, its values
    walked against spec."""
    def leaf(raw, where, scope):
        value = _each(spec)(raw, where, scope)
        for name in value:
            if not scope["quiver"].has_arrow(name):
                raise InputError("%s.%s" % (where, name), "unknown generator %r" % name)
        return value
    return leaf


def _cycle(raw, where, scope):
    """A superpotential term [[labels...], coeff]: a cycle of declared arrows,
    which Superpotential's own checks of one cycle accept."""
    if not (isinstance(raw, list) and len(raw) == 2 and isinstance(raw[0], list)):
        raise InputError(where, "a term is [[labels...], coeff]")
    labels = tuple(_name(x, where, scope) for x in raw[0])
    for name in labels:
        if not scope["quiver"].has_arrow(name):
            raise InputError(where, "unknown arrow %s" % name)
    try:
        Superpotential(scope["quiver"], {labels: 1})
    except ValueError as err:
        raise InputError(where, str(err))
    return labels, _scalar(raw[1], where, scope)


def _basis(raw, where, scope):
    """The basis labels; their number goes to scope."""
    basis = _walk([_name], raw, where, scope)
    scope["dim"] = len(basis)
    return basis


def _vector(raw, where, scope):
    """A vector {k: coeff} on the basis.  A key that is not an index of the
    basis is faulted at where.key, a coefficient at where."""
    if not isinstance(raw, dict):
        raise InputError(where, "expected an object")
    vector = {}
    for key, coeff in raw.items():
        index = int(key) if key.isdecimal() else -1
        if not 0 <= index < scope["dim"]:
            raise InputError("%s.%s" % (where, key),
                             "key %r is not an index of the basis" % (key,))
        vector[index] = _scalar(coeff, where, scope)
    return vector


def _product(raw, where, scope):
    """A structure row [i, j, {k: coeff}]: the product b_i * b_j."""
    if not (isinstance(raw, list) and len(raw) == 3 and isinstance(raw[2], dict)
            and all(_is_int(i) and 0 <= i < scope["dim"] for i in raw[:2])):
        raise InputError(where, "a structure row is [i, j, {k: coeff}] with i and j "
                                "indices of the basis")
    return tuple(raw[:2]), _vector(raw[2], where, scope)


def _degrees(raw, where, scope):
    if not (isinstance(raw, list) and len(raw) == scope["dim"] and all(map(_is_int, raw))):
        raise InputError(where, "the degrees are one integer per basis element")
    return raw


def _family_kind(raw, where, scope):
    from .reflexivity import FAMILY_KINDS

    if _name(raw, where, scope) not in FAMILY_KINDS:
        raise InputError(where, "unknown family kind %r; use one of %s"
                         % (raw, ", ".join(FAMILY_KINDS)))
    return raw


def _superpotential(value, scope):
    return Superpotential(scope["quiver"], dict(value["terms"]), field=scope["field"])


def _surface(value, scope):
    from .surfaces import BoundaryComponent, MarkedSurfaceArcSystem

    return MarkedSurfaceArcSystem([BoundaryComponent(**c) for c in value["components"]],
                                  value["arcs"], value.get("flow_degrees"))


def _algebra(value, scope):
    from .algebras import FiniteDimAlgebra

    return FiniteDimAlgebra(scope["field"], value["basis"], dict(value["structure"]),
                            value["unit"], degrees=value.get("degrees"))


def _family(value, scope):
    from .reflexivity import SymbolicFamily

    return SymbolicFamily(value.pop("family"), **value)


JOB = {"characteristic": _characteristic, "commands?": _commands,
       "bounds": {"window?": _window, "words?": _positive, "paths?": _positive}}

# kind -> (the table of the object's keys besides "kind", the function that
# makes the engine's object from the walked value and the scope)
OBJECTS = {
    "quiver": ({"vertices": _vertices, "arrows": [_cy_arrow]},
               lambda value, scope: QuiverPresentation(**value)),
    "superpotential": ({"quiver": {"vertices": _vertices, "arrows": _arrows},
                        "terms": [_cycle]}, _superpotential),
    "dg-presentation": ({"vertices": _vertices, "generators": _arrows,
                         "differential?": _by_generator(_element), "relations?": [_element],
                         "weights?": _by_generator(_positive), "augmented?": _bool},
                        lambda value, scope: DgAlgebraPresentation(field=scope["field"],
                                                                   **value)),
    "surface": ({"components": [{"name": _name, "fully_marked": _bool,
                                 "intervals?": [[_name]], "winding?": _int,
                                 "slots?": [_name], "enclosed_after_slot?": _name}],
                 "arcs": _each([_name]), "flow_degrees?": _each(_int)}, _surface),
    "algebra": ({"basis": _basis, "degrees?": _degrees, "structure": [_product],
                 "unit": _vector}, _algebra),
    "family": ({"family": _family_kind, "degree?": _int, "variables?": _positive}, _family),
}


class Job:
    """A walked document plus resolved flags, ready to run."""

    def __init__(self, command, document, args):
        self.command = command
        self.document = document = dict(document)
        bounds = document.setdefault("bounds", {})
        if isinstance(bounds, dict):
            flags = {"window": args.window, "words": args.words, "paths": args.paths}
            document["bounds"] = {**bounds, **{k: v for k, v in flags.items() if v is not None}}
        if args.char is not None:
            document["characteristic"] = args.char
        job = _walk(JOB, document, "document", {"command": command, "flags": args})
        self.field = job["characteristic"]
        bounds = job["bounds"]
        self.window, self.words, self.paths = (bounds.get("window"), bounds.get("words"),
                                               bounds.get("paths"))

    def need_bounds(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise InputError(
                    "document.bounds." + name,
                    "command %r needs the %s bound; set it in the document "
                    "or pass the flag" % (self.command, name))

    def parse(self, *kinds):
        """The document's object, walked against the table of its kind, one
        of kinds, and built."""
        raw = self.document.get("object")
        if raw is None:
            raise InputError("document.object", "missing object description")
        kind = _walk({"kind": _kind}, raw, "document.object",
                     {"command": self.command, "kinds": kinds})["kind"]
        table, build = OBJECTS[kind]
        scope = {"field": self.field}
        value = _walk(table, raw, "document.object", scope)
        try:
            return build(value, scope)
        except _document_faults() as err:
            raise InputError("document.object", str(err))

    def rank(self):
        """The rank n of a Calabi-Yau completion."""
        return _positive(self.document.get("n"), "document.n")

    def used_bounds(self):
        out = {}
        if self.window is not None:
            out["window"] = list(self.window)
        if self.words is not None:
            out["words"] = self.words
        if self.paths is not None:
            out["paths"] = self.paths
        return out


# ---------------------------------------------------------------------------
# rendering helpers

def _pairs(table):
    """Integer-keyed mapping as a sorted [key, value] list (JSON-stable)."""
    return [[k, table[k]] for k in sorted(table)]


def _dims_text(table):
    return " ".join("%d:%d" % (k, table[k]) for k in sorted(table))


def _arrow_rows(arrows):
    return [[a.name, a.source, a.target, a.degree] for a in arrows]


def _presentation_block(g):
    return {
        "vertices": list(g.vertices),
        "arrows": _arrow_rows(g.arrows),
        "relations": [list(r) for r in sorted(g.relations)],
        "proper": g.proper,
        "smooth": g.smooth,
    }


def _factor_block(factor):
    from .surfaces import DualNumbersFactor

    if isinstance(factor, DualNumbersFactor):
        return {"kind": "dual-numbers", "vertex": factor.vertex,
                "loop": factor.loop, "degree": factor.degree}
    block = _presentation_block(factor)
    block["kind"] = "presentation"
    return block


def _differential_block(report):
    return {
        "checked_words": report.checked_words,
        "skipped_words": report.skipped_words,
        "checked_pairs": report.checked_pairs,
        "skipped_pairs": report.skipped_pairs,
        "failures": [str(f) for f in report.failures],
    }


# ---------------------------------------------------------------------------
# commands

def _cmd_ginzburg(job):
    potential = job.parse("superpotential")
    job.need_bounds("window", "words", "paths")
    quiver = potential.quiver
    presentation = ginzburg(quiver, potential)
    t = realize(presentation, job.window, job.words)
    report = verify_differential(t)
    if report.failures:
        raise InternalFailure(
            "d^2 != 0 on a constructed Ginzburg presentation: %s"
            % [str(f) for f in report.failures])
    dims = cohomology(t, job.window).dims
    jacobi = jacobi_basis(quiver, potential, job.paths)
    by_length = {}
    for path in jacobi.basis:
        by_length[len(path)] = by_length.get(len(path), 0) + 1
    lines = [
        "ginzburg algebra on %d vertices, %d arrows"
        % (len(quiver.vertices), len(quiver.arrows)),
        "d^2 = 0: %d words checked, no failures" % report.checked_words,
        "H dims %d..%d: %s" % (job.window[0], job.window[1], _dims_text(dims)),
        "jacobi dims by path length (L = %d): %s, total %d"
        % (job.paths, _dims_text(by_length), len(jacobi)),
    ]
    payload = {
        "differential": _differential_block(report),
        "cohomology": _pairs(dims),
        "jacobi": {"length_bound": job.paths, "total": len(jacobi),
                   "by_length": _pairs(by_length)},
    }
    return lines, payload


def _cmd_cy(job):
    quiver = job.parse("quiver")
    job.need_bounds("window", "words")
    rank = job.rank()
    presentation = cy_completion(quiver, rank, field=job.field)
    t = realize(presentation, job.window, job.words)
    report = verify_differential(t)
    if report.failures:
        raise InternalFailure(
            "d^2 != 0 on a constructed completion: %s"
            % [str(f) for f in report.failures])
    dims = cohomology(t, job.window).dims
    pair = verify_koszul_pair(quiver, rank, job.words, job.window,
                              field=job.field)
    lines = [
        "calabi-yau completion of rank %d" % rank,
        "d^2 = 0: %d words checked, no failures" % report.checked_words,
        "H dims %d..%d: %s" % (job.window[0], job.window[1], _dims_text(dims)),
        "koszul pair: %s" % pair.kind,
    ]
    for degree in sorted(pair.rows):
        row = pair.rows[degree]
        lines.append("  degree %d: dual %d, completion %d, %s"
                     % (degree, row["rn_dual"], row["completion"],
                        "match" if row["match"] else "MISMATCH"))
    payload = {
        "n": rank,
        "differential": _differential_block(report),
        "cohomology": _pairs(dims),
        "koszul_pair": {
            "kind": pair.kind,
            "degree": pair.degree,
            "rows": [[d, pair.rows[d]["rn_dual"], pair.rows[d]["completion"],
                      pair.rows[d]["match"]] for d in sorted(pair.rows)],
            "notes": list(pair.notes),
        },
    }
    return lines, payload


def _augmented_presentation(job):
    """The document's dg-presentation, which the Koszul duals need
    augmented."""
    presentation = job.parse("dg-presentation")
    if not presentation.augmented:
        raise InputError("document.object.augmented",
                         "the Koszul duals need an augmented input")
    return presentation


def _cmd_koszul_dual(job):
    from .koszul import dual_bar

    presentation = _augmented_presentation(job)
    job.need_bounds("window", "words")
    t = realize(presentation, job.window, job.words)
    dual = dual_bar(t, job.words, job.window)
    dual_dims = cohomology(dual, job.window).dims
    input_dims = t.dims()
    lines = [
        "koszul dual through %d-letter bar words" % job.words,
        "input word dims: %s" % _dims_text(input_dims),
        "dual H dims %d..%d: %s"
        % (job.window[0], job.window[1], _dims_text(dual_dims)),
    ]
    payload = {
        "input_dims": _pairs(input_dims),
        "dual_cohomology": _pairs(dual_dims),
    }
    return lines, payload


def _cmd_complete(job):
    from .koszul import completeness_report

    presentation = _augmented_presentation(job)
    job.need_bounds("window", "words")
    if job.words < 2:
        raise InputError("document.bounds.words",
                         "word bound must be >= 2 so stability can be checked")
    t = realize(presentation, job.window, job.words)
    report = completeness_report(t, job.words, job.window)
    lines = ["completeness within %d..%d at %d words: %s"
             % (job.window[0], job.window[1], job.words, report.kind)]
    if report.degree is not None:
        lines.append("  first mismatch at degree %d: %s"
                     % (report.degree, report.dims))
    for degree in sorted(report.rows):
        row = report.rows[degree]
        lines.append(
            "  degree %d: algebra %d, double dual %d%s%s"
            % (degree, row["algebra"], row["double_dual"],
               "" if row["match"] else " MISMATCH",
               "" if row["saturated"] else " (unsaturated)"))
    for note in report.notes:
        lines.append("  note: %s" % note)
    payload = {
        "kind": report.kind,
        "degree": report.degree,
        "rows": [[d, report.rows[d]["algebra"], report.rows[d]["double_dual"],
                  report.rows[d]["match"], report.rows[d]["stable"],
                  report.rows[d]["saturated"]] for d in sorted(report.rows)],
        "notes": list(report.notes),
    }
    return lines, payload


def _cmd_gentle(job):
    from .surfaces import (classify_arc_system, extract_sod, gentle_presentation,
                           quadratic_dual, trace_faces)

    system = job.parse("surface")
    faces = trace_faces(system)
    flags = classify_arc_system(system)
    lines = ["surface with %d boundary components, %d arcs"
             % (len(system.components), len(system.arcs))]
    for face in faces:
        lines.append("  face: %s through slots %s, %d boundary segments%s"
                     % (face.kind, "(%s)" % ", ".join(face.slots),
                        face.segments,
                        ", enclosing %s" % ", ".join(face.enclosed)
                        if face.enclosed else ""))
    lines.append("full: %s, finitely full: %s, formal: %s"
                 % (flags["full"], flags["finitely_full"], flags["formal"]))
    payload = {
        "faces": [{"kind": f.kind, "slots": list(f.slots),
                   "segments": f.segments, "enclosed": list(f.enclosed)}
                  for f in faces],
        "flags": flags,
    }
    if not flags["formal"]:
        lines.append("the arc system is not formal; no presentation emitted")
        payload["presentation"] = None
        return lines, payload
    g = gentle_presentation(system)
    dual = quadratic_dual(g)
    payload["presentation"] = _presentation_block(g)
    payload["dual"] = _presentation_block(dual)
    lines.append("gentle presentation: %d vertices, %d arrows, %d relations, "
                 "proper %s, smooth %s"
                 % (len(g.vertices), len(g.arrows), len(g.relations),
                    g.proper, g.smooth))
    for row in _arrow_rows(g.arrows):
        lines.append("  arrow %s: %s -> %s in degree %d" % tuple(row))
    for left, right in sorted(g.relations):
        lines.append("  relation: %s then %s" % (left, right))
    lines.append("quadratic dual: %d arrows, %d relations, proper %s, smooth %s"
                 % (len(dual.arrows), len(dual.relations), dual.proper,
                    dual.smooth))
    for row in _arrow_rows(dual.arrows):
        lines.append("  dual arrow %s: %s -> %s in degree %d" % tuple(row))
    if g.proper:
        sod = extract_sod(g)
        payload["sod"] = {
            "factors": [_factor_block(f) for f in sod.factors],
            "glue": [list(x) for x in sod.glue],
        }
        lines.append("semiorthogonal decomposition into %d factors"
                     % len(sod.factors))
        for factor in sod.factors:
            lines.append("  factor: %s" % factor)
    else:
        payload["sod"] = None
        lines.append("no semiorthogonal decomposition: presentation is "
                     "not proper")
    return lines, payload


def _reflexive_input(job):
    value = job.parse("family", "surface", "algebra", "dg-presentation",
                      "superpotential", "quiver")
    if isinstance(value, Superpotential):
        return ginzburg(value.quiver, value)
    if isinstance(value, QuiverPresentation):
        return cy_completion(value, job.rank(), field=job.field)
    if isinstance(value, DgAlgebraPresentation):
        job.need_bounds("window", "words")
        return realize(value, job.window, job.words)
    return value


def _cmd_reflexive(job):
    from .reflexivity import check

    verdict = check(_reflexive_input(job))
    failures = replay_certificate(verdict.certificate)
    if failures:
        raise InternalFailure("an emitted certificate does not replay: %s"
                              % failures)
    report = verdict.as_report()
    lines = ["verdict: %s" % verdict.qualified_verdict(),
             "criterion: %s" % report["criterion"],
             "characteristic: %s" % report["characteristic"]]
    for hypothesis in report["hypotheses"]:
        lines.append("  [%s] %s" % (hypothesis["tag"], hypothesis["statement"]))
    if report["witness"]:
        lines.append("witness: %s" % report["witness"])
    lines.append("replay: green")
    payload = dict(report)
    payload["qualified_verdict"] = verdict.qualified_verdict()
    payload["replay"] = "green"
    return lines, payload


# ---------------------------------------------------------------------------
# selftest

def _selftest_corpus():
    point = QuiverPresentation(("v",), ())
    loop = QuiverPresentation(("v",), (Arrow("x", "v", "v", 0),))
    a2 = QuiverPresentation(("1", "2"), (Arrow("a", "1", "2", 0),))
    cycle3 = QuiverPresentation(
        ("1", "2", "3"), (Arrow("x", "1", "2", 0), Arrow("y", "2", "3", 0),
                          Arrow("z", "3", "1", 0)))
    return point, loop, a2, cycle3


def _check_differential_corpus():
    point, loop, a2, cycle3 = _selftest_corpus()
    for quiver in (point, loop, a2, cycle3):
        for n in (1, 2, 3):
            t = realize(cy_completion(quiver, n), (-6, 0), 3)
            report = verify_differential(t)
            if report.failures:
                return "d^2 != 0 for the rank %d completion: %s" % (
                    n, [str(f) for f in report.failures])
    w_loop = Superpotential(loop, {("x", "x", "x"): 1})
    w_cycle = Superpotential(cycle3, {("x", "y", "z"): 1})
    for quiver, potential in ((loop, w_loop), (cycle3, w_cycle)):
        t = realize(ginzburg(quiver, potential), (-4, 1), 4)
        report = verify_differential(t)
        if report.failures:
            return "d^2 != 0 for a Ginzburg presentation: %s" % (
                [str(f) for f in report.failures])
    return None


def _dual_numbers(degree, field):
    arrow = Arrow("eps", "v", "v", degree)
    scratch = QuiverPresentation(["v"], [arrow])
    rel = PathAlgebraElement.from_path(scratch.path(["eps", "eps"]))
    return DgAlgebraPresentation(["v"], [arrow], relations=[rel], field=field)


def _check_koszul_dual_row():
    from .koszul import dual_bar

    field = GroundField(0)
    t = realize(_dual_numbers(-1, field), (0, 8), 4)
    dims = cohomology(dual_bar(t, 4, (0, 8)), (0, 8)).dims
    expected = {d: 1 if d % 2 == 0 else 0 for d in range(9)}
    if dims != expected:
        return "dual of k[eps], |eps| = -1 gave %s, expected %s" % (
            dims, expected)
    return None


def _check_koszul_pair_point():
    point = _selftest_corpus()[0]
    report = verify_koszul_pair(point, 2, 4, (-4, 0))
    if not report.all_match:
        return "koszul pair mismatch on the point: %s" % report.kind
    return None


def _check_completeness_kind():
    from .koszul import completeness_report

    field = GroundField(0)
    t = realize(_dual_numbers(1, field), (0, 3), 4)
    report = completeness_report(t, 4, (0, 3))
    if report.kind != "CompleteWithinWindow":
        return "completeness verdict %s for k[eps], |eps| = 1" % report.kind
    return None


def _check_preprojective_h0():
    a2 = _selftest_corpus()[2]
    t = realize(cy_completion(a2, 2), (-4, 0), 4)
    h0 = h0_algebra(t)
    if h0.algebra.dim != 4:
        return "H^0 of the rank 2 completion of A_2 has dimension %d, not 4" \
            % h0.algebra.dim
    radical = h0.algebra.radical()
    if radical.dimension != 2 or radical.quotient.dim != 2:
        return "radical %d / quotient %d, expected 2 / 2" % (
            radical.dimension, radical.quotient.dim)
    return None


def _check_replayable_verdicts():
    from .reflexivity import SymbolicFamily, check

    a2 = _selftest_corpus()[2]
    fixtures = (
        SymbolicFamily("laurent", 1),
        cy_completion(a2, 2),
        realize(_dual_numbers(2, GroundField(0)), (0, 6), 4),
    )
    for fixture in fixtures:
        verdict = check(fixture)
        failures = replay_certificate(verdict.certificate)
        if failures:
            return "certificate replay failed: %s" % failures
    return None


SELFTEST_CHECKS = (
    ("differential corpus", _check_differential_corpus),
    ("koszul dual row", _check_koszul_dual_row),
    ("koszul pair on the point", _check_koszul_pair_point),
    ("completeness verdict", _check_completeness_kind),
    ("preprojective H0", _check_preprojective_h0),
    ("replayable verdicts", _check_replayable_verdicts),
)


def _cmd_selftest(job):
    lines = []
    results = []
    for name, run in SELFTEST_CHECKS:
        witness = run()
        results.append({"name": name, "ok": witness is None})
        if witness is not None:
            raise InternalFailure("selftest %r failed: %s" % (name, witness))
        lines.append("ok - %s" % name)
    lines.append("selftest: %d checks passed" % len(results))
    return lines, {"checks": results, "ok": True}


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "ginzburg": _cmd_ginzburg,
    "cy": _cmd_cy,
    "koszul-dual": _cmd_koszul_dual,
    "complete": _cmd_complete,
    "gentle": _cmd_gentle,
    "reflexive": _cmd_reflexive,
    "selftest": _cmd_selftest,
}


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise InputError at argv, so
    that they exit 1 as any other input error; --help still exits 0."""

    def error(self, message):
        raise InputError("argv", message)


@functools.cache
def _build_parser():
    """The command line parser, built once per process: parse_args does not
    change it."""
    parser = _ArgumentParser(
        prog="quiverdg",
        description="exact computations with presented dg algebras")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("ginzburg", "build a Ginzburg presentation, verify it, report "
                         "cohomology and the Jacobi table"),
            ("cy", "build a Calabi-Yau completion and compare it with the "
                   "Koszul dual of its finite partner"),
            ("koszul-dual", "cohomology table of the truncated Koszul dual"),
            ("complete", "compare an algebra with its double Koszul dual on "
                         "a window"),
            ("gentle", "trace a marked surface into a gentle presentation, "
                       "its dual, and a decomposition"),
            ("reflexive", "decide reflexivity and print the certificate"),
            ("selftest", "run the built-in invariant battery")):
        cmd = sub.add_parser(name, help=help_text)
        if name != "selftest":
            cmd.add_argument("document", help="path to a JSON job document")
        cmd.add_argument("--char", type=int, default=None,
                         help="override the document characteristic")
        cmd.add_argument("--window", default=None, metavar="LO..HI",
                         help="override the degree window")
        cmd.add_argument("--words", type=int, default=None, metavar="N",
                         help="override the word-length bound")
        cmd.add_argument("--paths", type=int, default=None, metavar="N",
                         help="override the path-length bound")
        cmd.add_argument("--json", default=None, metavar="PATH",
                         help="also write the JSON report here")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress the text report")
    return parser


def _load_document(path):
    if path is None:
        return {"characteristic": 0}
    try:
        # bytes decoded in one call: a text-mode file object costs more
        with open(path, "rb") as handle:
            document = json.loads(handle.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(path, str(err))
    except json.JSONDecodeError as err:
        raise InputError("%s:%d:%d" % (path, err.lineno, err.colno), err.msg)
    if not isinstance(document, dict):
        raise InputError(path, "the top level must be an object")
    return document


def _document_faults():
    """The validator exceptions that mean a fault in the document object.
    It is called only when a command has raised, so surfaces is imported
    for its exceptions on that path alone."""
    from .surfaces import MalformedRibbon, NoMarkedInterval, NotFormal, NotGentle

    return (InconsistentPresentation, DSquaredNonzero, UnsafeWindow,
            NotStabilized, MalformedRibbon, NotFormal, NotGentle,
            NoMarkedInterval, ValueError)


def run(command, document, args):
    """Run one command against a parsed document; returns (lines, report)."""
    job = Job(command, document, args)
    lines, payload = COMMANDS[command](job)
    report = {
        "schema": SCHEMA,
        "command": command,
        "characteristic": str(job.field.characteristic),
        "bounds": job.used_bounds(),
    }
    report.update(payload)
    return lines, report


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        document = _load_document(getattr(args, "document", None))
        lines, report = run(args.command, document, args)
    except InputError as err:
        print("input error at %s: %s" % (err.location, err.message),
              file=sys.stderr)
        return EXIT_INPUT
    except _document_faults() as err:
        # the object came from the document, so a failed validator or an
        # unsafe window is the user's to fix
        print("input error at document.object: %s: %s"
              % (type(err).__name__, err), file=sys.stderr)
        return EXIT_INPUT
    except InternalFailure as err:
        print("internal invariant failure: %s" % err.witness, file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        print("internal invariant failure:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    text = "\n".join(lines) + "\n"
    if not args.quiet:
        sys.stdout.write(text)
    if args.json:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as err:
            print("input error at %s: %s" % (args.json, err), file=sys.stderr)
            return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
