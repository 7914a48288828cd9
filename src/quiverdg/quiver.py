"""Finite graded quivers, paths, superpotentials, and truncated quotients.

Composition reads left to right: in a product p*q the path p is traversed
first, so p*q is nonzero exactly when target(p) == source(q).  Monomials are
ordered by (length, labels); elimination prefers to rewrite the heaviest
monomial of a relation, so normal forms are supported on short paths.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def out_arrows(self, vertex):
        return [a for a in self.arrows if a.source == vertex]


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


def enumerate_paths(quiver, bound, weights=None):
    """All paths of weight <= bound, as a dict path -> weight in
    (weight, labels) order.

    The weight of a path is the sum of its arrow weights; by default every
    arrow weighs 1, so the bound is a length bound.  Weights must be
    positive so the enumeration terminates.
    """
    if weights is None:
        weights = {a.name: 1 for a in quiver.arrows}
    for name, w in weights.items():
        if w < 1:
            raise ValueError("arrow weight for %s must be positive" % name)
    out_by_vertex = {v: sorted(quiver.out_arrows(v), key=lambda a: a.name)
                     for v in quiver.vertices}
    found = []
    stack = [(quiver.trivial(v), 0) for v in sorted(quiver.vertices)]
    while stack:
        path, w = stack.pop()
        found.append((path, w))
        for a in out_by_vertex[path.target]:
            w2 = w + weights[a.name]
            if w2 <= bound:
                stack.append((Path(path.labels + (a.name,), path.source, a.target), w2))
    found.sort(key=lambda item: (item[1], item[0].labels))
    return dict(found)


class QuotientBasis:
    """Monomial basis of a path algebra modulo relations, up to a length bound.

    `basis` lists the surviving paths in (length, labels) order; `reduce`
    rewrites any element supported in lengths <= bound to its normal form on
    that basis.  path_weights holds the weight of every path within the
    bound, as enumerate_paths returns it.
    """

    def __init__(self, quiver, length_bound, field, basis, rows, column_of, path_at,
                 weights, path_weights):
        self.quiver = quiver
        self.length_bound = length_bound
        self.field = field
        self.basis = basis
        self.weights = weights
        self._path_weights = path_weights
        self._rows = rows
        self._column_of = column_of
        self._path_at = path_at

    def __len__(self):
        return len(self.basis)

    def weight_of(self, path):
        w = self._path_weights.get(path)
        if w is None:
            w = sum(self.weights[name] for name in path.labels)
        return w

    def reduce(self, element):
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
    (the ideal must miss the span of the trivial paths).
    """
    if length_bound < 0:
        raise ValueError("length bound must be >= 0")
    field = field if field is not None else GroundField(0)
    if weights is None:
        weights = {a.name: 1 for a in quiver.arrows}

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

    weight = enumerate_paths(quiver, length_bound, weights)
    paths = list(weight)

    def key(path):
        return (weight[path], path.labels)

    ordered = sorted(paths, key=key, reverse=True)
    column_of = {p: i for i, p in enumerate(ordered)}
    # paths by endpoint, each list in `paths` order, so weights ascend in it
    by_source = {}
    by_target = {}
    for p in paths:
        by_source.setdefault(p.source, []).append(p)
        by_target.setdefault(p.target, []).append(p)
    rows = RowSpace(field)
    for r in cleaned:
        src, tgt = r.endpoints()
        heaviest = max(term_weight(p) for p in r.terms)
        for u in by_target.get(src, ()):
            room = length_bound - weight[u] - heaviest
            if room < 0:
                break
            for v in by_source.get(tgt, ()):
                if weight[v] > room:
                    break
                vec = {}
                for t, c in r.terms.items():
                    full = Path(u.labels + t.labels + v.labels, u.source, v.target)
                    col = column_of[full]
                    s = vec.get(col)
                    s = c if s is None else s + c
                    if s:
                        vec[col] = s
                    else:
                        vec.pop(col, None)
                if vec:
                    rows.add(vec)
    basis = [p for p in ordered if column_of[p] not in rows.pivot_index]
    basis.sort(key=key)
    return QuotientBasis(quiver, length_bound, field, basis, rows, column_of, ordered,
                         weights, weight)
