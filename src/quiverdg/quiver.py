"""Finite graded quivers, paths, superpotentials, and truncated quotients.

Composition reads left to right: in a product p*q the path p is traversed
first, so p*q is nonzero exactly when target(p) == source(q).  Monomials are
ordered by (weight, labels), the weight of a path being the sum of its arrow
weights; reduction modulo relations rewrites the heaviest monomial of an
element of the ideal, so normal forms are supported on light paths.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .fields import GroundField
from .linalg import native_scalars, vec_add_term


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
        return _word_name(self.labels, self.source)


def _word_name(labels, source):
    """How a path with these labels, starting at source, prints."""
    return "*".join(labels) if labels else "e_%s" % source


def _paths(records, start=0, stop=None):
    """The Paths of the word records records[start:stop]."""
    return [Path(labels, source, target)
            for labels, source, target, _, _ in records[start:stop]]


class _LazyList(Sequence):
    """A read-only list of known length whose items fill() builds on first use.

    len and truth are exact from the start, and so is equality with an empty
    list.  Iterating, indexing, any other comparison with a list, and repr
    build the items, once.
    """

    def __init__(self, size, fill):
        self._size = size
        self._fill = fill
        self._items = None

    def _filled(self):
        if self._items is None:
            self._items = self._fill()
            self._fill = None
        return self._items

    def __len__(self):
        return self._size

    def __getitem__(self, index):
        return self._filled()[index]

    def __iter__(self):
        return iter(self._filled())

    def __eq__(self, other):
        if not isinstance(other, (list, _LazyList)):
            return NotImplemented
        return len(self) == len(other) and (not self._size or self._filled() == list(other))

    __hash__ = None

    def __repr__(self):
        return repr(self._filled())


def concat(p, q):
    """Concatenate two paths, or return None when endpoints mismatch."""
    if p.target != q.source:
        return None
    return Path(p.labels + q.labels, p.source, q.target)


def monomial_key(path):
    """Sort key of the terms a PathAlgebraElement prints: (length, labels)."""
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


class _WordWalk:
    """The words of weight <= bound that contain no leading word LM(g) of
    rules with slack_g <= bound - weight, listed level by level in
    (weight, labels) order by one walk of the quiver, with no sort.

    rules maps each leading word to (slack, element), as in _Rewriting;
    without rules every path is a word, since a noncommutative Groebner
    basis with no element leaves every word normal.  The weights are checked
    before the walk starts.

    Level 0 is the trivial paths, in reverse-sorted vertex order.  Level W
    is, for each arrow a in name order, a*s for each live word s of level
    W - w(a) that starts at target(a), in that level's order.  By induction
    each level is in labels order: the words a*s of one arrow share their
    first letter and keep their suffixes' order, and the arrows follow the
    first letters' order.  (Ufnarovski's graph of normal words, listed in
    Green's monomial order.)  The least slack of a leading word in a*s is
    the least of its suffix s's and of the rules whose leading words are
    prefixes of a*s.  A word is live when that slack is not 0: every
    extension of a word holding a leading word of slack 0, within the bound,
    holds it too, so only live words are extended.  A live word is a basis
    word when its least slack exceeds bound - weight; a live word off the
    basis is kept for extension, since a rule of slack > 0 can put a*s on
    the basis and s off it.

    Each live word is a node, numbered in walk order, and held in lists of
    plain values, so that nodes add nothing for the garbage collector to
    trace: its record (labels, source, target, weight, degree) in _record,
    its least slack, its prefix's node and its position in records (None
    off the basis).  records lists the record of each basis word, and
    prefix the position in records of its prefix labels[:-1], or None for a
    trivial path or a prefix off the basis.  The prefix of a*s is
    a*prefix(s), read off a one-letter prepend table, so no labels are
    sliced or hashed for it.  The walk is a helper of construction: its
    callers keep records and prefix, and the rest goes with it.
    """

    def __init__(self, quiver, bound, weights=None, rules=None):
        self.bound = bound
        weights = _checked_weights(quiver, weights)
        self._rules = rules or {}
        self._lengths = sorted({len(lead) for lead in self._rules})
        self._arrows = sorted((a.name, a.source, a.target, weights[a.name], a.degree)
                              for a in quiver.arrows)
        self._prepend = {arrow[0]: {} for arrow in self._arrows}  # a -> {s: a*s}
        vertices = sorted(quiver.vertices, reverse=True)
        self.records = [((), v, v, 0, 0) for v in vertices]
        self.prefix = [None] * len(vertices)
        # a trivial path holds no leading word, so its slack is above every
        # one that can matter
        self._record = list(self.records)
        self._slack = [bound + 1] * len(vertices)
        self._pre = [None] * len(vertices)
        self._position = list(range(len(vertices)))
        self._trivial = {v: node for node, v in enumerate(vertices)}
        # _levels[W][v]: the live nodes of weight W starting at v
        self._levels = [{v: [node] for v, node in self._trivial.items()}]
        for weight in range(1, bound + 1):
            self._levels.append(self.level(weight))

    def level(self, weight):
        """Append the node of each live word of this weight to the walk's
        lists, in labels order, and return them as {v: [nodes of the words
        starting at v]}.  Only the lighter levels are read."""
        record_of, slack_of, pre_of, position_of = (
            self._record, self._slack, self._pre, self._position)
        add_basis, add_prefix = self.records.append, self.prefix.append
        rules, lengths, levels = self._rules, self._lengths, self._levels
        room = self.bound - weight
        node, position = len(record_of), len(self.records)
        out = {v: [] for v in self._trivial}
        for name, source, target, w, d in self._arrows:
            below = levels[weight - w][target] if w <= weight else None
            if not below:
                continue
            prepend, first, live = self._prepend[name], self._trivial[source], out[source]
            for s in below:
                labels, _, end, _, degree = record_of[s]
                word = (name,) + labels
                least = slack_of[s]
                for k in lengths:
                    if k > len(word):
                        break
                    rule = rules.get(word[:k])
                    if rule is not None and rule[0] < least:
                        least = rule[0]
                if not least:
                    continue
                pre = pre_of[s]
                pre = first if pre is None else prepend[pre]
                record = (word, source, end, weight, degree + d)
                prepend[s] = node
                live.append(node)
                record_of.append(record)
                slack_of.append(least)
                pre_of.append(pre)
                if least > room:
                    position_of.append(position)
                    add_basis(record)
                    add_prefix(position_of[pre])
                    position += 1
                else:
                    position_of.append(None)
                node += 1
        return out


def enumerate_paths(quiver, bound, weights=None):
    """All paths of weight <= bound, as a dict path -> weight in
    (weight, labels) order, the order in which _WordWalk lists them.

    The weight of a path is the sum of its arrow weights; by default every
    arrow weighs 1, so the bound is a length bound.  Weights must be
    positive so the enumeration terminates, and given for exactly the
    arrows of the quiver.
    """
    return {Path(labels, source, target): weight
            for labels, source, target, weight, _ in _WordWalk(quiver, bound, weights).records}


class QuotientBasis:
    """Monomial basis of a path algebra modulo relations, up to a weight bound.

    `basis` lists the surviving paths in (weight, labels) order; `reduce`
    rewrites any element supported in weights <= bound to its normal form on
    that basis.  _records holds the word record of each basis path, in the
    same order, as the word walk listed them, and _prefix the position in
    _records of each one's prefix (see _WordWalk); basis is a read-only
    lazy list that builds its Paths from them on first read, so len(basis)
    builds none.  A word off the basis is rewritten by the truncated
    Groebner basis of reduce_modulo_relations (empty without relations).

    The reduction itself, _reduced, works on native vectors keyed by label
    tuples, which name a non-trivial word whole; truncations call it
    directly and never build a path.  It computes the row of each word it
    meets where it reads it (_row) and keeps none: a normal form is a
    function of the word.  reduce is its adapter on PathAlgebraElements: it
    checks the terms, keys them by labels, and builds the paths and field
    scalars of the result.
    """

    def __init__(self, quiver, length_bound, field, weights, walk, rewriting):
        self.quiver = quiver
        self.length_bound = length_bound
        self.field = field
        self.weights = weights
        self._records = records = walk.records
        self._prefix = walk.prefix
        self.basis = _LazyList(len(records), partial(_paths, records))
        self._rewriting = rewriting
        self._scalars = rewriting.scalars

    def __len__(self):
        return len(self.basis)

    def weight_of(self, path):
        return sum(self.weights[name] for name in path.labels)

    def _row(self, key):
        """(weight, row) of the word key, of weight <= bound: its labels, or
        a trivial path (see reduce), which is a basis word.  row is None for
        a basis word; for any other word it is the word minus its normal
        form, keyed by labels, the word first with coefficient one and the
        normal form heaviest first."""
        if not key:
            return 0, None
        rewriting, neg = self._rewriting, self._scalars.neg
        weight = rewriting.weight(key)
        if rewriting.find(key, self.length_bound - weight) is None:
            return weight, None
        row = {key: 1}
        for term, c in rewriting.rewrite({key: 1}, self.length_bound).items():
            row[term] = neg(c)
        return weight, row

    def _reduced(self, vec):
        """Reduce the native vector vec, keyed by the labels of words of
        weight <= bound, to its normal form in place, and return it.  It
        subtracts, heaviest off-basis word first, the coefficient times that
        word's row, so the terms keep vec's order and new ones follow in the
        order they arise."""
        pivots = []
        for key in vec:
            weight, row = self._row(key)
            if row is not None:
                pivots.append((weight, key, row))
        if pivots:
            axpy = self._scalars.axpy
            for _, key, row in sorted(pivots, key=itemgetter(0, 1), reverse=True):
                axpy(vec, -vec[key], row)
        return vec

    def reduce(self, element):
        """The normal form of element, with the term order of _reduced.  A
        trivial path is a basis word, keyed by itself, since its labels ()
        name no vertex; _row reads it as a basis word."""
        scalars, quiver, vec = self._scalars, self.quiver, {}
        for path, coeff in element.terms.items():
            try:
                valid = quiver.path(path.labels, base=path.source) == path
            except (UnknownArrow, ValueError):
                valid = False
            if not valid or self.weight_of(path) > self.length_bound:
                raise ValueError(
                    "path %s exceeds the length bound %d" % (path, self.length_bound))
            vec[path.labels or path] = scalars.native(coeff)
        return PathAlgebraElement({
            key if isinstance(key, Path) else quiver.path(key): scalars.public(c)
            for key, c in self._reduced(vec).items()})


class _Rewriting:
    """The Groebner basis of reduce_modulo_relations, truncated at weight
    `bound`, as rewriting rules on label tuples in native scalars.

    Positive weights make (weight, labels) a monomial order.  Each element g
    is monic in its leading word LM(g) and carries a sugar: a relation
    starts at its heaviest weight, u*g*v has w(u) + sugar(g) + w(v), and a
    combination has the largest sugar of its parts, so every term of g
    weighs at most its sugar.  Rewriting at level D subtracts c*u*g*v for an
    occurrence u LM(g) v of weight at most D - slack_g, which keeps within
    the span of the products u*r*v of sugar at most D.  With a central
    variable t of weight one, g stands for its homogenisation of degree
    sugar(g), and this is the degree-truncated Buchberger algorithm
    (Bergman's diamond lemma; Green for path algebras).
    """

    def __init__(self, relations, bound, weights, scalars):
        self.bound = bound
        self.weights = weights
        self.scalars = scalars
        self.rules = {}  # leading word -> (slack, monic element)
        self.lengths = []  # distinct lengths of the leading words, ascending
        pending = {}  # sugar -> relations and pairs to reduce at that level
        for r in relations:
            sugar = max(map(self.weight, r))
            if sugar <= bound:
                pending.setdefault(sugar, []).append(r)
        for level in range(1, bound + 1):
            for item in pending.pop(level, ()):
                if isinstance(item, tuple):
                    (u1, g1, v1), (u2, g2, v2) = item
                    f = {}
                    self._spread(f, 1, u1, g1, v1)
                    self._spread(f, -1, u2, g2, v2)
                else:
                    f = dict(item)
                f = self.rewrite(f, level)
                if f:
                    self._add(f, level, pending)

    def weight(self, labels):
        return sum(map(self.weights.__getitem__, labels))

    def _key(self, labels):
        return (self.weight(labels), labels)

    def _spread(self, out, coeff, u, element, v):
        """out += coeff * u * element * v."""
        add_term = self.scalars.add_term
        for term, c in element.items():
            add_term(out, u + term + v, coeff * c)

    def find(self, labels, room):
        """(u, g, v) for the first occurrence u LM(g) v = labels with
        slack_g <= room, or None."""
        rules, n = self.rules, len(labels)
        for i in range(n):
            for k in self.lengths:
                if i + k > n:
                    break
                rule = rules.get(labels[i:i + k])
                if rule is not None and rule[0] <= room:
                    return labels[:i], rule[1], labels[i + k:]
        return None

    def rewrite(self, f, level):
        """Rewrite the native vector f (label tuple -> coeff), all of its
        terms weighing at most level, heaviest term first until no term is a
        leading word at that level; returns the result heaviest first.  f is
        consumed."""
        add_term, done = self.scalars.add_term, {}
        while f:
            m = max(f, key=self._key)
            c = f.pop(m)
            hit = self.find(m, level - self.weight(m))
            if hit is None:
                done[m] = c
                continue
            u, g, v = hit
            for term, a in g.items():
                word = u + term + v
                if word != m:
                    add_term(f, word, -c * a)
        return done

    def _add(self, f, sugar, pending):
        """Store the reduced nonzero f, heaviest first, as a monic element of
        the given sugar, and queue its pairs with every element, itself
        included, whose sugar fits the bound.  A pair's sugar exceeds the
        sugar of both its elements, so at the bound there is none."""
        lead = next(iter(f))
        g = self.scalars.scaled(f, f[lead])
        slack = sugar - self.weight(lead)
        self.rules[lead] = (slack, g)
        if len(lead) not in self.lengths:
            self.lengths = sorted(self.lengths + [len(lead)])
        if sugar == self.bound:
            return
        for other, (other_slack, h) in list(self.rules.items()):
            extra = max(slack, other_slack)
            for word, left, right in _pairs(lead, g, other, h):
                level = self.weight(word) + extra
                if level <= self.bound:
                    pending.setdefault(level, []).append((left, right))


def _pairs(lead, g, other, h):
    """(word, (u1, g1, v1), (u2, g2, v2)) with u1 LM(g1) v1 = word = u2 LM(g2)
    v2, for each overlap of the leading words lead and other (a proper
    suffix of one begins the other) and each inclusion of one in the
    other."""
    orders = [(other, h, lead, g)] if other == lead else [(other, h, lead, g), (lead, g, other, h)]
    for a, ga, b, gb in orders:
        for k in range(1, min(len(a), len(b))):
            if a[-k:] == b[:k]:
                yield a + b[k:], ((), ga, b[k:]), (a[:-k], gb, ())
        if a != b:
            for i in range(len(a) - len(b) + 1):
                if a[i:i + len(b)] == b:
                    yield a, ((), ga, ()), (a[:i], gb, a[i + len(b):])


def reduce_modulo_relations(quiver, relations, length_bound, field=None, weights=None):
    """Quotient basis of kQ/(relations) restricted to path weight <= bound.

    With the default weights (1 per arrow) the bound is a length bound.  The
    quotient is kQ_{<=L} modulo the span V_L of every product u*r*v whose
    heaviest term fits the bound L.  For relations whose terms all share one
    weight the count is exactly the dimension of the weightwise quotient;
    for mixed-weight relations it is the filtered count described by that
    same product span.  Relations must be vertex-homogeneous with every term
    of length >= 1 (the ideal must miss the span of the trivial paths).

    V_L is not spanned: a Groebner basis of it in the (weight, labels) order
    is computed by Buchberger's algorithm on overlap and inclusion pairs,
    in order of sugar, keeping only steps whose sugar fits L.  Each element
    g carries slack_g = sugar(g) - weight(LM(g)), and a word w of weight <=
    L is a leading word of V_L, so off the basis, exactly when it contains
    some LM(g) with slack_g <= L - weight(w).  The basis words come from
    _WordWalk, the one walk of the quiver, given the leading words.  It
    lists them in (weight, labels) order as it goes, each word a one-letter
    prefix a*s of a lighter word s, finding leading words as prefixes of
    a*s, and does not extend a word containing a leading word of slack 0,
    since every extension within the bound contains it too.  With no
    relations there is no leading word, and every word is a basis word.

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
    scalars = native_scalars(field)

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
        cleaned.append({p.labels: scalars.native(c) for p, c in terms.items()})

    rewriting = _Rewriting(cleaned, length_bound, weights, scalars)
    walk = _WordWalk(quiver, length_bound, weights, rewriting.rules)
    return QuotientBasis(quiver, length_bound, field, weights, walk, rewriting)
