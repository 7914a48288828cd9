"""Command line front end.

A job is described by a JSON document: the ground field characteristic, one
object (quiver, superpotential, dg presentation, surface with arcs, algebra
by structure constants, or a symbolic family tag), the truncation bounds the
computation is allowed to use, and optionally the list of commands the
document is meant for.  Bounds are never defaulted: window-conditional
results only make sense when the window was chosen on purpose.  Exact
scalars are written as integer or fraction strings ("2", "-3/4") so nothing
is lost in serialization.

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
# document parsing

def _is_int(value):
    """An int that is not a bool: JSON true must not run as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _need(mapping, key, location, kinds=None):
    """mapping[key], of one of the types kinds when given; a bool is not
    taken for an int."""
    if not isinstance(mapping, dict):
        raise InputError(location, "expected an object")
    if key not in mapping:
        raise InputError(location, "missing key %r" % key)
    value = mapping[key]
    if kinds is not None and (not isinstance(value, kinds)
                              or isinstance(value, bool) and kinds is not bool):
        raise InputError("%s.%s" % (location, key),
                         "unexpected value type %s" % type(value).__name__)
    return value


def _optional(mapping, key, location, kinds, default=None):
    """_need for a key that may be absent or null, which gives default."""
    if mapping.get(key) is None:
        return default
    return _need(mapping, key, location, kinds)


def _scalar(field, raw, location):
    """A coefficient of the document in the field.  It is a string such as
    "-2/3" or an integer: a JSON float is binary, so it is not exact."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int)):
        raise InputError(location, "scalar %r is not a string or an integer" % (raw,))
    try:
        return field.of(raw)
    except ZeroDivisionError:
        raise InputError(location, "scalar %r divides by zero" % (raw,))
    except ValueError as err:
        raise InputError(location, str(err))


def _name(raw, location):
    """A name of the document: a string, never another value printed."""
    if not isinstance(raw, str):
        raise InputError(location, "a name must be a string, got %s" % type(raw).__name__)
    return raw


def _strings(raw, location):
    """A JSON list of names as a tuple of strings."""
    if not isinstance(raw, list):
        raise InputError(location, "expected a list")
    return tuple(_name(s, "%s[%d]" % (location, pos)) for pos, s in enumerate(raw))


def _vertices(raw, location):
    """The declared vertices: a list of names, none of them repeated."""
    vertices = _strings(raw, location)
    for pos, name in enumerate(vertices):
        if name in vertices[:pos]:
            raise InputError("%s[%d]" % (location, pos), "vertex %r is declared twice" % name)
    return vertices


def _index(key, location):
    """An integer object key such as "3", the index of a basis element."""
    try:
        return int(key)
    except ValueError:
        raise InputError("%s.%s" % (location, key), "key %r is not an integer" % (key,))


def _parse_arrows(raw, vertices, location):
    """Arrows [name, source, target, degree] between the declared vertices,
    no name repeated."""
    arrows = []
    for pos, entry in enumerate(raw):
        where = "%s[%d]" % (location, pos)
        if not (isinstance(entry, list) and len(entry) == 4):
            raise InputError(where, "an arrow is [name, source, target, degree]")
        name, source, target = (_name(x, where) for x in entry[:3])
        if any(a.name == name for a in arrows):
            raise InputError(where, "arrow %r is declared twice" % name)
        degree = entry[3]
        if not _is_int(degree):
            raise InputError(where, "arrow degree must be an integer")
        for end in (source, target):
            if end not in vertices:
                raise InputError(where, "arrow %s has undeclared endpoint %r" % (name, end))
        arrows.append(Arrow(name, source, target, degree))
    return tuple(arrows)


def _parse_quiver(raw, location):
    vertices = _vertices(_need(raw, "vertices", location, list), location + ".vertices")
    arrows = _parse_arrows(_need(raw, "arrows", location, list), vertices,
                           location + ".arrows")
    try:
        return QuiverPresentation(vertices, arrows)
    except ValueError as err:
        raise InputError(location, str(err))


def _completion_quiver(job):
    """The document's quiver, whose arrows a Calabi-Yau completion needs in
    degree 0, faulted at the first arrow that is not."""
    quiver = _parse_quiver(job.raw_object, "document.object")
    for pos, arrow in enumerate(quiver.arrows):
        if arrow.degree != 0:
            raise InputError("document.object.arrows[%d]" % pos,
                             "arrow %s has degree %d; a Calabi-Yau completion "
                             "needs degree 0" % (arrow.name, arrow.degree))
    return quiver


def _parse_element(quiver, field, raw, location):
    """A sum of terms [coeff-string, [labels...], base-vertex-or-null]."""
    if not isinstance(raw, list):
        raise InputError(location, "an element is a list of terms")
    total = PathAlgebraElement.zero()
    for pos, term in enumerate(raw):
        where = "%s[%d]" % (location, pos)
        if not (isinstance(term, list) and len(term) == 3 and isinstance(term[1], list)):
            raise InputError(where, "a term is [coeff, [labels...], base]")
        coeff_raw, labels, base = term
        coeff = _scalar(field, coeff_raw, where)
        try:
            path = quiver.path([str(x) for x in labels],
                               base=None if base is None else str(base))
        except UnknownArrow as err:
            raise InputError(where, "unknown generator %s" % err)
        except (ValueError, KeyError) as err:
            raise InputError(where, str(err))
        total = total + PathAlgebraElement.from_path(path, coeff)
    return total


def _parse_dg_presentation(raw, field, location):
    vertices = _vertices(_need(raw, "vertices", location, list), location + ".vertices")
    generators = _parse_arrows(_need(raw, "generators", location, list), vertices,
                               location + ".generators")
    scratch = QuiverPresentation(vertices, generators)
    differential = None
    if raw.get("differential") is not None:
        differential = {}
        for name, terms in _need(raw, "differential", location, dict).items():
            differential[str(name)] = _parse_element(
                scratch, field, terms, "%s.differential.%s" % (location, name))
    relations = []
    for pos, terms in enumerate(_optional(raw, "relations", location, list, [])):
        relations.append(_parse_element(
            scratch, field, terms, "%s.relations[%d]" % (location, pos)))
    weights = _optional(raw, "weights", location, dict)
    if weights is not None:
        weights = {k: _weight(scratch, weights, k, location + ".weights") for k in weights}
    try:
        return DgAlgebraPresentation(
            vertices, generators, differential=differential, relations=relations,
            augmented=_optional(raw, "augmented", location, bool, True),
            weights=weights, field=field)
    except (ValueError, InconsistentPresentation) as err:
        raise InputError(location, str(err))


def _weight(quiver, weights, name, location):
    """The weight of generator name: an int of at least 1, faulted at its key
    for an unknown generator."""
    weight = _need(weights, name, location, int)
    where = "%s.%s" % (location, name)
    if not quiver.has_arrow(name):
        raise InputError(where, "weight for unknown generator %r" % name)
    if weight < 1:
        raise InputError(where, "weight of %s must be a positive integer" % name)
    return weight


def _parse_superpotential(raw, field, location):
    quiver = _parse_quiver(_need(raw, "quiver", location, dict),
                           location + ".quiver")
    terms = {}
    for pos, entry in enumerate(_need(raw, "terms", location, list)):
        where = "%s.terms[%d]" % (location, pos)
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
            raise InputError(where, "a term is [[labels...], coeff]")
        labels, coeff = entry
        labels = tuple(str(x) for x in labels)
        try:
            for name in labels:
                quiver.arrow(name)
        except UnknownArrow as err:
            raise InputError(where, "unknown arrow %s" % err)
        terms[labels] = _scalar(field, coeff, where)
    try:
        return quiver, Superpotential(quiver, terms, field=field)
    except ValueError as err:
        raise InputError(location, str(err))


def _parse_surface(raw, location):
    from .surfaces import BoundaryComponent, MalformedRibbon, MarkedSurfaceArcSystem

    components = []
    for pos, entry in enumerate(_need(raw, "components", location, list)):
        where = "%s.components[%d]" % (location, pos)
        name = _name(_need(entry, "name", where), where + ".name")
        fully = _need(entry, "fully_marked", where, bool)
        intervals = tuple(_strings(group, "%s.intervals[%d]" % (where, k)) for k, group
                          in enumerate(_optional(entry, "intervals", where, list, [])))
        components.append(BoundaryComponent(
            name, fully, winding=_optional(entry, "winding", where, int),
            slots=_strings(_optional(entry, "slots", where, list, []), where + ".slots"),
            intervals=intervals,
            enclosed_after_slot=_optional(entry, "enclosed_after_slot", where, str)))
    arcs = _need(raw, "arcs", location, dict)
    arcs = {str(k): _strings(v, "%s.arcs.%s" % (location, k)) for k, v in arcs.items()}
    degrees = _optional(raw, "flow_degrees", location, dict, {})
    degrees = {str(k): _need(degrees, k, location + ".flow_degrees", int) for k in degrees}
    try:
        return MarkedSurfaceArcSystem(components, arcs, degrees)
    except (ValueError, MalformedRibbon) as err:
        raise InputError(location, str(err))


def _parse_algebra(raw, field, location):
    from .algebras import FiniteDimAlgebra

    basis = list(_strings(_need(raw, "basis", location, list), location + ".basis"))
    structure = {}
    for pos, entry in enumerate(_need(raw, "structure", location, list)):
        where = "%s.structure[%d]" % (location, pos)
        if not (isinstance(entry, list) and len(entry) == 3
                and _is_int(entry[0]) and _is_int(entry[1]) and isinstance(entry[2], dict)):
            raise InputError(where, "a structure row is [i, j, {k: coeff}]")
        i, j, vec = entry
        structure[(i, j)] = {_index(k, where): _scalar(field, c, where)
                             for k, c in vec.items()}
    unit = {_index(k, location + ".unit"): _scalar(field, c, location + ".unit")
            for k, c in _need(raw, "unit", location, dict).items()}
    degrees = _optional(raw, "degrees", location, list)
    if degrees is not None and not (len(degrees) == len(basis) and all(map(_is_int, degrees))):
        raise InputError(location + ".degrees", "the degrees are one integer per basis element")
    try:
        return FiniteDimAlgebra(field, basis, structure, unit, degrees=degrees)
    except (ValueError, IndexError) as err:
        raise InputError(location, str(err))


def _parse_family(raw, location):
    from .reflexivity import SymbolicFamily

    try:
        return SymbolicFamily(_need(raw, "family", location, str),
                              degree=_optional(raw, "degree", location, int, 0),
                              variables=_optional(raw, "variables", location, int, 1))
    except ValueError as err:
        raise InputError(location, str(err))


def _parse_window(text, location):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise InputError(location, "a window is written LO..HI")
    try:
        window = (int(lo), int(hi))
    except ValueError:
        raise InputError(location, "window ends must be integers")
    if window[0] > window[1]:
        raise InputError(location, "window %d..%d is empty" % window)
    return window


class Job:
    """A parsed document plus resolved flags, ready to run."""

    def __init__(self, command, document, args):
        self.command = command
        if args.char is not None:
            characteristic = args.char
        else:
            characteristic = _need(document, "characteristic", "document", int)
        try:
            self.field = GroundField(characteristic)
        except ValueError as err:
            raise InputError("document.characteristic", str(err))
        requested = _optional(document, "commands", "document", list)
        if requested is not None and command not in requested:
            raise InputError("document.commands",
                             "document does not request command %r" % command)
        self.raw_object = document.get("object")
        self.rank = document.get("n")
        bounds = document.get("bounds", {})
        if not isinstance(bounds, dict):
            raise InputError("document.bounds", "expected an object")
        self.window = None
        if args.window is not None:
            self.window = _parse_window(args.window, "flags.window")
        elif bounds.get("window") is not None:
            raw = bounds["window"]
            if not (isinstance(raw, list) and len(raw) == 2
                    and all(_is_int(x) for x in raw)):
                raise InputError("document.bounds.window",
                                 "a window is [lo, hi] with integers")
            if raw[0] > raw[1]:
                raise InputError("document.bounds.window",
                                 "window %d..%d is empty" % tuple(raw))
            self.window = (raw[0], raw[1])
        self.words = args.words if args.words is not None else bounds.get("words")
        self.paths = args.paths if args.paths is not None else bounds.get("paths")
        for name, value in (("words", self.words), ("paths", self.paths)):
            if value is not None and (not _is_int(value) or value < 1):
                raise InputError("document.bounds.%s" % name,
                                 "bound must be a positive integer")

    def need_bounds(self, *names):
        for name in names:
            if getattr(self, {"window": "window", "words": "words",
                              "paths": "paths"}[name]) is None:
                raise InputError(
                    "document.bounds." + name,
                    "command %r needs the %s bound; set it in the document "
                    "or pass the flag" % (self.command, name))

    def object_of_kind(self, *kinds):
        if self.raw_object is None:
            raise InputError("document.object", "missing object description")
        kind = _need(self.raw_object, "kind", "document.object")
        if kind not in kinds:
            raise InputError(
                "document.object.kind",
                "command %r works on %s objects, got %r"
                % (self.command, " / ".join(kinds), kind))
        return kind

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
    job.object_of_kind("superpotential")
    job.need_bounds("window", "words", "paths")
    quiver, potential = _parse_superpotential(job.raw_object, job.field,
                                              "document.object")
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
    job.object_of_kind("quiver")
    job.need_bounds("window", "words")
    if not _is_int(job.rank) or job.rank < 1:
        raise InputError("document.n",
                         "command 'cy' needs a positive completion rank n")
    quiver = _completion_quiver(job)
    presentation = cy_completion(quiver, job.rank, field=job.field)
    t = realize(presentation, job.window, job.words)
    report = verify_differential(t)
    if report.failures:
        raise InternalFailure(
            "d^2 != 0 on a constructed completion: %s"
            % [str(f) for f in report.failures])
    dims = cohomology(t, job.window).dims
    pair = verify_koszul_pair(quiver, job.rank, job.words, job.window,
                              field=job.field)
    lines = [
        "calabi-yau completion of rank %d" % job.rank,
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
        "n": job.rank,
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
    presentation = _parse_dg_presentation(job.raw_object, job.field,
                                          "document.object")
    if not presentation.augmented:
        raise InputError("document.object.augmented",
                         "the Koszul duals need an augmented input")
    return presentation


def _cmd_koszul_dual(job):
    from .koszul import dual_bar

    job.object_of_kind("dg-presentation")
    job.need_bounds("window", "words")
    t = realize(_augmented_presentation(job), job.window, job.words)
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

    job.object_of_kind("dg-presentation")
    job.need_bounds("window", "words")
    if job.words < 2:
        raise InputError("document.bounds.words",
                         "word bound must be >= 2 so stability can be checked")
    t = realize(_augmented_presentation(job), job.window, job.words)
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

    job.object_of_kind("surface")
    system = _parse_surface(job.raw_object, "document.object")
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
    kind = job.object_of_kind("family", "surface", "algebra",
                             "dg-presentation", "superpotential", "quiver")
    if kind == "family":
        return _parse_family(job.raw_object, "document.object")
    if kind == "surface":
        return _parse_surface(job.raw_object, "document.object")
    if kind == "algebra":
        return _parse_algebra(job.raw_object, job.field, "document.object")
    if kind == "superpotential":
        quiver, potential = _parse_superpotential(job.raw_object, job.field,
                                                  "document.object")
        return ginzburg(quiver, potential)
    if kind == "quiver":
        if not _is_int(job.rank) or job.rank < 1:
            raise InputError("document.n",
                             "a bare quiver is checked through its completion; "
                             "give the rank n")
        return cy_completion(_completion_quiver(job), job.rank, field=job.field)
    job.need_bounds("window", "words")
    presentation = _parse_dg_presentation(job.raw_object, job.field,
                                          "document.object")
    return realize(presentation, job.window, job.words)


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
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as err:
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
