"""Finite graded quivers, paths, superpotentials, and truncated quotients.

Composition reads left to right: in a product p*q the path p is traversed
first, so p*q is nonzero exactly when target(p) == source(q).  Monomials are
ordered by (length, labels); elimination prefers to rewrite the heaviest
monomial of a relation, so normal forms are supported on short paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .fields import GroundField
from .linalg import RowSpace, vec_add_term


class UnknownArrow(Exception):
    """Raised when an arrow label is not declared in the quiver."""


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str
    degree: int = 0


@dataclass(frozen=True)
class Path:
    """A composable word of arrow labels with explicit endpoints.

    The empty word is the trivial path at a vertex (source == target).
    Endpoints are stored rather than derived so that paths stay meaningful
    as dictionary keys without a quiver in hand.
    """

    labels: tuple
    source: str
    target: str

    def __len__(self):
        return len(self.labels)

    def is_trivial(self):
        return not self.labels

    def __str__(self):
        if not self.labels:
            return "e_%s" % self.source
        return "*".join(self.labels)


def concat(p, q):
    """Concatenate two paths, or return None when endpoints mismatch."""
    if p.target != q.source:
        return None
    return Path(p.labels + q.labels, p.source, q.target)


def monomial_key(path):
    """Sort key; elimination uses the reverse of this order for pivots."""
    return (len(path.labels), path.labels)


class QuiverPresentation:
    """A finite quiver with string-labeled vertices and graded arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(a if isinstance(a, Arrow) else Arrow(*a) for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertex labels must be unique")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("arrow labels must be unique")
        for v in self.vertices:
            if not isinstance(v, str):
                raise ValueError("vertex labels must be strings, got %r" % (v,))
        self._by_name = {}
        for a in self.arrows:
            if not isinstance(a.name, str):
                raise ValueError("arrow labels must be strings, got %r" % (a.name,))
            if a.source not in self.vertices or a.target not in self.vertices:
                raise ValueError("arrow %s has undeclared endpoint" % a.name)
            self._by_name[a.name] = a

    def has_arrow(self, name):
        return name in self._by_name

    def arrow(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownArrow(name) from None

    def trivial(self, vertex):
        if vertex not in self.vertices:
            raise ValueError("unknown vertex %r" % (vertex,))
        return Path((), vertex, vertex)

    def path(self, labels, base=None):
        """Build the path with the given arrow labels; base names the vertex
        of an empty word."""
        labels = tuple(labels)
        if not labels:
            if base is None:
                raise ValueError("an empty path needs a base vertex")
            return self.trivial(base)
        arrows = [self.arrow(name) for name in labels]
        for left, right in zip(arrows, arrows[1:]):
            if left.target != right.source:
                raise ValueError(
                    "arrows %s and %s do not compose" % (left.name, right.name))
        return Path(labels, arrows[0].source, arrows[-1].target)

    def path_degree(self, path):
        return sum(self._by_name[name].degree for name in path.labels)


class PathAlgebraElement:
    """A finite k-linear combination of paths; zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {p: c for p, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_path(cls, path, coeff=1):
        return cls({path: coeff})

    def is_zero(self):
        return not self.terms

    def endpoints(self):
        """(source, target) shared by every term, or None if mixed or zero."""
        pairs = {(p.source, p.target) for p in self.terms}
        if len(pairs) == 1:
            return next(iter(pairs))
        return None

    def __add__(self, other):
        out = dict(self.terms)
        for p, c in other.terms.items():
            vec_add_term(out, p, c)
        return PathAlgebraElement(out)

    def __neg__(self):
        return PathAlgebraElement({p: -c for p, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PathAlgebraElement):
            out = {}
            for p, c in self.terms.items():
                for q, d in other.terms.items():
                    pq = concat(p, q)
                    if pq is None:
                        continue
                    s = out.get(pq)
                    s = c * d if s is None else s + c * d
                    if s:
                        out[pq] = s
                    else:
                        out.pop(pq, None)
            return PathAlgebraElement(out)
        return PathAlgebraElement({p: c * other for p, c in self.terms.items()})

    def __rmul__(self, other):
        return PathAlgebraElement({p: other * c for p, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, PathAlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=monomial_key):
            bits.append("%s %s" % (self.terms[p], p))
        return " + ".join(bits)


class Superpotential:
    """A finite linear combination of cycles, each stored as its least rotation.

    Cycles must consist of degree-0 arrows and close up head to tail.  Two
    inputs differing by rotations of their cycles compare equal.
    """

    def __init__(self, quiver, terms, field=None):
        self.quiver = quiver
        self.field = field if field is not None else GroundField(0)
        combined = {}
        for labels, coeff in dict(terms).items():
            labels = tuple(labels)
            if not labels:
                raise ValueError("cycles must have length >= 1")
            arrows = [quiver.arrow(name) for name in labels]
            closed = list(arrows) + [arrows[0]]
            for left, right in zip(closed, closed[1:]):
                if left.target != right.source:
                    raise ValueError(
                        "cycle %s does not close up at %s" % (labels, left.name))
            for a in arrows:
                if a.degree != 0:
                    raise ValueError("cycle arrow %s has nonzero degree" % a.name)
            canon = min(labels[i:] + labels[:i] for i in range(len(labels)))
            vec_add_term(combined, canon, self.field.of(coeff))
        self.terms = combined

    def is_zero(self):
        return not self.terms

    def cycle_lengths(self):
        return sorted({len(c) for c in self.terms})

    def min_cycle_length(self):
        return min((len(c) for c in self.terms), default=None)

    def __eq__(self, other):
        return (isinstance(other, Superpotential)
                and self.quiver is other.quiver
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "Superpotential(0)"
        bits = ["%s %s" % (c, "*".join(cycle)) for cycle, c in sorted(self.terms.items())]
        return "Superpotential(%s)" % " + ".join(bits)


def cyclic_derivative(potential, arrow_name):
    """Sum of v*u over decompositions of each cycle of W as u a v.

    Implemented by walking every rotation of every stored cycle and keeping
    the tail of each rotation that starts with the requested arrow.  The
    result runs from target(a) to source(a).
    """
    quiver = potential.quiver
    arrow = quiver.arrow(arrow_name)
    total = {}
    for cycle, coeff in potential.terms.items():
        for i in range(len(cycle)):
            if cycle[i] != arrow_name:
                continue
            rest = cycle[i + 1:] + cycle[:i]
            vec_add_term(total, quiver.path(rest, base=arrow.target), coeff)
    return PathAlgebraElement(total)


def _checked_weights(quiver, weights):
    """The arrow weights, one per arrow (default 1 each); ValueError names
    an unknown arrow, an arrow with no weight, or a weight below 1."""
    if weights is None:
        return {a.name: 1 for a in quiver.arrows}
    for name in weights:
        if not quiver.has_arrow(name):
            raise ValueError("weight given for unknown arrow %r" % (name,))
    for a in quiver.arrows:
        if a.name not in weights:
            raise ValueError("no weight given for arrow %r" % (a.name,))
    for name, w in weights.items():
        if w < 1:
            raise ValueError("arrow weight for %s must be positive" % name)
    return weights


def _word_records(quiver, bound, weights=None):
    """Yield a record (labels, source, target, weight, degree) for every path
    of weight <= bound, depth first.

    The weights are checked before the walk starts.  The walk starts from
    the trivial paths in reverse-sorted vertex order and extends a path by
    its out-arrows in name order; sorting the records stably by (weight,
    labels) gives enumerate_paths's order, the trivial paths keeping the
    walk's vertex order among themselves.
    """
    weights = _checked_weights(quiver, weights)
    out = {v: [] for v in quiver.vertices}
    for a in sorted(quiver.arrows, key=lambda a: a.name):
        out[a.source].append((a.name, a.target, weights[a.name], a.degree))
    stack = [((), v, v, 0, 0) for v in sorted(quiver.vertices)]
    while stack:
        record = stack.pop()
        yield record
        labels, source, target, weight, degree = record
        for name, head, w, d in out[target]:
            if weight + w <= bound:
                stack.append((labels + (name,), source, head, weight + w, degree + d))


_ascending = itemgetter(3, 0)  # (weight, labels) of a word record


def enumerate_paths(quiver, bound, weights=None):
    """All paths of weight <= bound, as a dict path -> weight in
    (weight, labels) order.

    The weight of a path is the sum of its arrow weights; by default every
    arrow weighs 1, so the bound is a length bound.  Weights must be
    positive so the enumeration terminates, and given for exactly the
    arrows of the quiver.
    """
    return {Path(labels, source, target): weight
            for labels, source, target, weight, _ in sorted(
                _word_records(quiver, bound, weights), key=_ascending)}


class QuotientBasis:
    """Monomial basis of a path algebra modulo relations, up to a length bound.

    `basis` lists the surviving paths in (length, labels) order; `reduce`
    rewrites any element supported in lengths <= bound to its normal form on
    that basis.  _records holds the word record of each basis path, in the
    same order.  The path -> column index that reduce needs is built on the
    first call, so a caller that never reduces never hashes a path.
    """

    def __init__(self, quiver, length_bound, field, weights, words, rows, records, basis):
        self.quiver = quiver
        self.length_bound = length_bound
        self.field = field
        self.weights = weights
        self.basis = basis
        self._records = records
        self._words = words  # every word record, in column order
        self._rows = rows
        self._column_of = None
        self._path_at = None

    def __len__(self):
        return len(self.basis)

    def weight_of(self, path):
        return sum(self.weights[name] for name in path.labels)

    def _index(self):
        """Build the column -> path list and the path -> column dict, reusing
        the basis paths."""
        path_of = {record[:2]: p for record, p in zip(self._records, self.basis)}
        self._path_at = [path_of[record[:2]] if record[:2] in path_of else Path(*record[:3])
                         for record in self._words]
        self._column_of = {p: i for i, p in enumerate(self._path_at)}

    def reduce(self, element):
        if self._column_of is None:
            self._index()
        vec = {}
        for path, coeff in element.terms.items():
            col = self._column_of.get(path)
            if col is None:
                raise ValueError(
                    "path %s exceeds the length bound %d" % (path, self.length_bound))
            vec[col] = coeff
        residue = self._rows.reduce(vec)
        return PathAlgebraElement({self._path_at[i]: c for i, c in residue.items()})


def reduce_modulo_relations(quiver, relations, length_bound, field=None, weights=None):
    """Quotient basis of kQ/(relations) restricted to path weight <= bound.

    With the default weights (1 per arrow) the bound is a length bound.
    Spans every product u*r*v whose heaviest term fits inside the bound and
    eliminates.  For relations whose terms all share one weight the count is
    exactly the dimension of the weightwise quotient; for mixed-weight
    relations it is the filtered count described by that same product span.
    Relations must be vertex-homogeneous with every term of length >= 1
    (the ideal must miss the span of the trivial paths).  The words come
    from one walk of the quiver as label-tuple records; with no relations
    every word is a basis word and no column index is built.

    Coefficients are reduced into the field before a relation's heaviest
    weight is taken.  For integer relations the basis over F_p is at least
    as large as over Q only when each relation's heaviest term survives mod
    p.  Otherwise the relation is lighter mod p, more of its products fit
    the bound, and the F_p basis can be smaller: a0 + 100*a0*a0 on one loop
    at bound 2 leaves two words over Q and one over F_5.
    """
    if length_bound < 0:
        raise ValueError("length bound must be >= 0")
    field = field if field is not None else GroundField(0)
    weights = _checked_weights(quiver, weights)

    def term_weight(path):
        return sum(weights[name] for name in path.labels)

    cleaned = []
    for r in relations:
        terms = {}
        for path, coeff in r.terms.items():
            c = field.of(coeff)
            if c:
                terms[path] = c
        if not terms:
            continue
        element = PathAlgebraElement(terms)
        if element.endpoints() is None:
            raise ValueError("relations must be vertex-homogeneous: %r" % (element,))
        if any(p.is_trivial() for p in terms):
            raise ValueError("relation terms must have length >= 1: %r" % (element,))
        cleaned.append(element)

    records = sorted(_word_records(quiver, length_bound, weights), key=_ascending)
    # Columns number the words heaviest first, so elimination pivots on a
    # relation's heaviest term; the trivial paths, which lead the ascending
    # records and which no relation touches, take the last columns in their
    # ascending order.
    trivial = len(quiver.vertices)
    words = records[trivial:][::-1] + records[:trivial]
    rows = RowSpace(field)
    if cleaned:
        column_of = {record[0]: i for i, record in enumerate(words[:len(words) - trivial])}
        # words by endpoint, each list ascending, so weights ascend in it
        by_source = {}
        by_target = {}
        for labels, source, target, weight, _ in records:
            by_source.setdefault(source, []).append((labels, weight))
            by_target.setdefault(target, []).append((labels, weight))
        for r in cleaned:
            src, tgt = r.endpoints()
            heaviest = max(term_weight(p) for p in r.terms)
            terms = [(t.labels, c) for t, c in r.terms.items()]
            for u, u_weight in by_target.get(src, ()):
                room = length_bound - u_weight - heaviest
                if room < 0:
                    break
                for v, v_weight in by_source.get(tgt, ()):
                    if v_weight > room:
                        break
                    vec = {}
                    for t, c in terms:
                        col = column_of[u + t + v]
                        s = vec.get(col)
                        s = c if s is None else s + c
                        if s:
                            vec[col] = s
                        else:
                            vec.pop(col, None)
                    if vec:
                        rows.add(vec)
        kept = [record for i, record in enumerate(words) if i not in rows.pivot_index]
        split = len(kept) - trivial
        records = kept[split:] + kept[:split][::-1]
    basis = [Path(labels, source, target) for labels, source, target, _, _ in records]
    return QuotientBasis(quiver, length_bound, field, weights, words, rows, records, basis)
