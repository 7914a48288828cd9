"""Finite-dimensional algebras given by structure constants over an exact field.

Radicals are certified, not trusted.  radical() takes the kernel of a linear
map and accepts it only after verifying that it is a nilpotent two-sided
ideal and that the same map has zero kernel on the quotient; that
certificate is valid in any characteristic.  The first map is the Gram
matrix of the trace form, which never fails in characteristic 0.  Over a
small prime field it can (F_3[x]/(x^3) has a zero trace form), and a
commutative algebra over F_p is then certified by the kernel of x -> x^q,
its nilradical.  Minimal polynomials and their factorization serve only
decompose_commutative, the splitting into local factors used by the
reflexivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    RowSpace,
    SparseMatrix,
    SpanSolver,
    kernel_image,
    native_scalars,
    vec_axpy,
)


class RadicalComputationError(Exception):
    """Raised when no implemented route certifies the radical."""


class NotCommutative(Exception):
    """Raised when a commutative-only routine meets a noncommutative algebra."""


class FiniteDimAlgebra:
    """An associative unital algebra on a labeled basis.

    structure maps a pair of basis indices (i, j) to the sparse vector of
    b_i * b_j; absent pairs multiply to zero.  Vectors throughout are sparse
    dicts {basis index: scalar}.  mul runs on a copy of structure in native
    scalars (see linalg's native_scalars), and structure, unit and the
    products mul returns hold Fraction or FpElement entries.
    """

    def __init__(self, field, basis, structure, unit, degrees=None):
        self.field = field
        self.basis = list(basis)
        dim = len(self.basis)
        indices = [*unit] + [k for (i, j), vec in structure.items() for k in (i, j, *vec)]
        if not all(0 <= k < dim for k in indices):
            raise ValueError("the structure constants or the unit have an index outside "
                             "range(%d)" % dim)
        if degrees is not None and len(degrees) != dim:
            raise ValueError("%d degrees for a basis of %d elements" % (len(degrees), dim))
        self.structure = {}
        for (i, j), vec in structure.items():
            cleaned = {}
            for k, c in vec.items():
                c = field.of(c)
                if c:
                    cleaned[k] = c
            if cleaned:
                self.structure[(i, j)] = cleaned
        self.unit = {k: field.of(c) for k, c in unit.items() if field.of(c)}
        self.degrees = list(degrees) if degrees is not None else None
        self._scalars = native_scalars(field)
        self._table = self._scalars.table(self.structure)

    @property
    def dim(self):
        return len(self.basis)

    def mul(self, u, v):
        return self._scalars.bilinear(self._table, u, v)

    def trace_of_left(self, vec):
        total = self.field.zero()
        for k in range(self.dim):
            c = self.mul(vec, {k: self.field.one()}).get(k)
            if c:
                total = total + c
        return total

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.structure.get((i, j), {}) != self.structure.get((j, i), {}):
                    return False
        return True

    def verify(self):
        """Exhaustive associativity, unit, and grading checks; returns failures."""
        failures = []
        one = self.field.one()
        units = [{i: one} for i in range(self.dim)]
        for i, u in enumerate(units):
            if self.mul(self.unit, u) != u or self.mul(u, self.unit) != u:
                failures.append("unit fails on %s" % self.basis[i])
        for i, u in enumerate(units):
            for j, v in enumerate(units):
                uv = self.mul(u, v)
                for k, w in enumerate(units):
                    left = self.mul(uv, w)
                    right = self.mul(u, self.mul(v, w))
                    if left != right:
                        failures.append(
                            "associativity fails on (%s, %s, %s)"
                            % (self.basis[i], self.basis[j], self.basis[k]))
        if self.degrees is not None:
            for (i, j), vec in self.structure.items():
                for k in vec:
                    if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                        failures.append(
                            "grading fails on %s * %s" % (self.basis[i], self.basis[j]))
        return failures

    def gram_matrix(self):
        """Trace form B(i, j) = trace of left multiplication by b_i * b_j."""
        left_traces = [self.trace_of_left({t: self.field.one()}) for t in range(self.dim)]
        m = SparseMatrix(self.dim, self.dim)
        for i in range(self.dim):
            for j in range(self.dim):
                prod = self.structure.get((i, j))
                if not prod:
                    continue
                total = self.field.zero()
                for t, c in prod.items():
                    total = total + c * left_traces[t]
                if total:
                    m.set(i, j, total)
        return m

    def quotient_by_span(self, vectors, labels_hint=None):
        """Quotient algebra by the span of `vectors` (assumed a two-sided ideal).

        Returns (quotient algebra, reduce function mapping vectors of self to
        quotient coordinate vectors)."""
        rows = RowSpace(self.field)
        for v in vectors:
            rows.add(v)
        kept = [i for i in range(self.dim) if i not in rows.pivot_index]
        position = {i: t for t, i in enumerate(kept)}

        def project(vec):
            residue = rows.reduce(vec)
            return {position[i]: c for i, c in residue.items()}

        structure = {}
        one = self.field.one()
        for a, i in enumerate(kept):
            for b, j in enumerate(kept):
                prod = project(self.mul({i: one}, {j: one}))
                if prod:
                    structure[(a, b)] = prod
        labels = labels_hint or [self.basis[i] for i in kept]
        quotient = FiniteDimAlgebra(self.field, labels, structure, project(self.unit))
        return quotient, project

    def frobenius_matrix(self):
        """Matrix of x -> x^q on a commutative algebra over F_p, with q the
        least power of p that is at least dim; column i is b_i^q, taken by
        repeated squaring."""
        p = self.field.characteristic
        q = 1
        while q < self.dim:
            q *= p
        m = SparseMatrix(self.dim, self.dim)
        for i in range(self.dim):
            square, power, exponent = {i: self.field.one()}, None, q
            while True:
                if exponent & 1:
                    power = square if power is None else self.mul(power, square)
                exponent >>= 1
                if not exponent:
                    break
                square = self.mul(square, square)
            for k, c in power.items():
                m.set(k, i, c)
        return m

    def _radical_maps(self):
        yield "trace-form", FiniteDimAlgebra.gram_matrix
        if self.field.characteristic and self.is_commutative():
            yield "frobenius", FiniteDimAlgebra.frobenius_matrix

    def radical(self):
        """Certified radical: basis vectors, the semisimple quotient, and
        the name of the linear map that proved it.

        The kernel K of a map is accepted when K is a nilpotent two-sided
        ideal and the same map has zero kernel on A / K.  The maps, in
        order: the Gram matrix of the trace form, which never fails in
        characteristic 0 (Dieudonne); then, for a commutative algebra over
        F_p only, x -> x^q (frobenius_matrix).  There x^q = 0 exactly when
        x is nilpotent, since a nilpotent x has x^dim = 0, and x -> x^q is
        linear, since x -> x^p is a ring map; so that kernel is the
        nilradical.  RadicalComputationError when no map passes."""
        for method, linear_map in self._radical_maps():
            kernel, _ = kernel_image(linear_map(self), self.field)
            if not self._is_nilpotent_ideal(kernel):
                continue
            quotient, project = self.quotient_by_span(kernel)
            if kernel_image(linear_map(quotient), self.field)[0]:
                continue
            return RadicalInfo(self._span_basis(kernel), quotient, project, method)
        if not self.is_commutative():
            raise RadicalComputationError(
                "trace-form certificate failed and the algebra is not commutative")
        raise RadicalComputationError("no linear map certified the radical")

    def _span_basis(self, vectors):
        rows = RowSpace(self.field)
        out = []
        for v in vectors:
            if rows.add(v) is not None:
                out.append(rows.row(-1))
        return out

    def _is_nilpotent_ideal(self, vectors):
        if not vectors:
            return True
        one = self.field.one()
        span = RowSpace(self.field)
        for v in vectors:
            span.add(v)
        if self.unit and span.contains(self.unit):
            return False  # an ideal holding 1 is the whole algebra, 1^n = 1
        for v in vectors:
            for i in range(self.dim):
                if not span.contains(self.mul({i: one}, v)):
                    return False
                if not span.contains(self.mul(v, {i: one})):
                    return False
        current = span
        while current.rank:
            nxt = RowSpace(self.field)
            for n in range(current.rank):
                u = current.row(n)
                for v in vectors:
                    p = self.mul(u, v)
                    if p:
                        nxt.add(p)
            if nxt.rank >= current.rank:
                # the power stabilized at a nonzero ideal, so it never vanishes
                return False
            current = nxt
        return True


@dataclass
class RadicalInfo:
    vectors: list
    quotient: FiniteDimAlgebra
    project: object
    method: str

    @property
    def dimension(self):
        return len(self.vectors)


# ---------------------------------------------------------------------------
# polynomial arithmetic over the ground field (coefficient lists, low to high)

def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_add(p, q, field):
    n = max(len(p), len(q))
    zero = field.zero()
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else zero
        b = q[i] if i < len(q) else zero
        out.append(a + b)
    return _poly_trim(out)


def _poly_scale(p, c):
    if not c:
        return []
    return [c * a for a in p]


def _poly_mul(p, q, field):
    if not p or not q:
        return []
    zero = field.zero()
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_divmod(p, q, field):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [field.zero()] * max(0, len(p) - len(q) + 1)
    inv_lead = field.one() / q[-1]
    while _poly_trim(rem) and len(rem) >= len(q):
        shift = len(rem) - len(q)
        c = rem[-1] * inv_lead
        quo[shift] = quo[shift] + c
        for i, b in enumerate(q):
            rem[shift + i] = rem[shift + i] - c * b
        rem.pop()
    return _poly_trim(quo), _poly_trim(rem)


def _poly_mod(p, m, field):
    return _poly_divmod(p, m, field)[1]


def _poly_gcdex(p, q, field):
    """Extended euclid: returns (g, u, v) with u*p + v*q = g, g monic."""
    r0, r1 = list(p), list(q)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while _poly_trim(list(r1)):
        quo, rem = _poly_divmod(r0, r1, field)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_add(s0, _poly_scale(_poly_mul(quo, s1, field), -field.one()), field)
        t0, t1 = t1, _poly_add(t0, _poly_scale(_poly_mul(quo, t1, field), -field.one()), field)
    if not r0:
        return [], s0, t0
    inv = field.one() / r0[-1]
    return _poly_scale(r0, inv), _poly_scale(s0, inv), _poly_scale(t0, inv)


def poly_eval_in_algebra(p, algebra, vec):
    """Evaluate a polynomial at an algebra element (Horner)."""
    acc = {}
    for c in reversed(p):
        acc = algebra.mul(acc, vec)
        if c:
            vec_axpy(acc, c, algebra.unit)
    return acc


def factor_polynomial(coeffs, field):
    """Irreducible factorization of a monic polynomial, via sympy.

    Returns a list of (coefficient list low-to-high, multiplicity).  sympy
    is imported here, its only use, so that importing quiverdg stays cheap.
    """
    import sympy

    x = sympy.Symbol("x")
    if field.characteristic == 0:
        high_to_low = [sympy.Rational(c) for c in reversed(coeffs)]
        poly = sympy.Poly(high_to_low, x, domain=sympy.QQ)
    else:
        high_to_low = [int(c.val) for c in reversed(coeffs)]
        poly = sympy.Poly(high_to_low, x, domain=sympy.GF(field.characteristic))
    out = []
    for factor, exponent in poly.factor_list()[1]:
        raw = factor.all_coeffs()  # high to low
        lifted = [field.of(sympy.Rational(c) if field.characteristic == 0 else int(c))
                  for c in reversed(raw)]
        inv = field.one() / lifted[-1]
        out.append(([inv * c for c in lifted], exponent))
    return out


def minimal_polynomial(algebra, vec):
    """Monic minimal polynomial of an element, low-to-high coefficients."""
    solver = SpanSolver(algebra.field)
    power = dict(algebra.unit)
    degree = 0
    while True:
        expression = solver.express(power)
        if expression is not None:
            coeffs = [algebra.field.zero()] * (degree + 1)
            coeffs[degree] = algebra.field.one()
            for i, c in expression.items():
                coeffs[i] = coeffs[i] - c
            return _poly_trim(coeffs)
        solver.add(power)
        power = algebra.mul(power, vec)
        degree += 1
        if degree > algebra.dim + 1:
            raise RuntimeError("minimal polynomial search exceeded the dimension")


# ---------------------------------------------------------------------------
# commutative decomposition into local factors

@dataclass
class LocalFactor:
    idempotent: dict
    algebra: FiniteDimAlgebra
    radical_dimension: int
    residue_dimension: int
    residue_field_certified: bool


def _algebra_on_span(parent, vectors, unit_vec):
    """The subalgebra spanned by `vectors` (assumed multiplicatively closed),
    with the given unit.  Returns (algebra, embed)."""
    solver = SpanSolver(parent.field)
    chosen = []
    for v in vectors:
        if solver.express(v) is None:
            solver.add(v)
            chosen.append(dict(v))
    structure = {}
    for i, u in enumerate(chosen):
        for j, v in enumerate(chosen):
            prod = parent.mul(u, v)
            c = solver.express(prod)
            if c is None:
                raise RadicalComputationError("span is not multiplicatively closed")
            if c:
                structure[(i, j)] = c
    unit_coords = solver.express(unit_vec)
    if unit_coords is None:
        raise RadicalComputationError("unit missing from span")
    labels = ["g%d" % i for i in range(len(chosen))]
    algebra = FiniteDimAlgebra(parent.field, labels, structure, unit_coords)

    def embed(vec):
        out = {}
        for i, c in vec.items():
            vec_axpy(out, c, chosen[i])
        return out

    return algebra, embed


def _candidates(algebra):
    """The elements tried for a split and for a primitive element, in order:
    the basis elements, then the sums of two of them."""
    one = algebra.field.one()
    for i in range(algebra.dim):
        yield {i: one}
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            yield {i: one, j: one}


def _splitting_idempotents(algebra):
    """Every idempotent that one minimal polynomial splits off, or None.

    At the first candidate x whose minimal polynomial m = f_1 ... f_k has
    k >= 2 coprime prime-power factors f_i (Chinese remainder theorem), let
    h_i = m / f_i and v_i * h_i = 1 modulo f_i (extended Euclid).  Then
    e_i = (v_i * h_i mod m)(x) is 1 modulo f_i and 0 modulo every other
    factor, so e_1, ..., e_k are orthogonal idempotents summing to one.  An
    e_i need not be primitive: x separates only the factors on which its
    values differ.  None when no candidate's minimal polynomial splits.
    """
    field = algebra.field
    for vec in _candidates(algebra):
        m = minimal_polynomial(algebra, vec)
        factors = factor_polynomial(m, field)
        if len(factors) < 2:
            continue
        idempotents = []
        for q, exponent in factors:
            f = [field.one()]
            for _ in range(exponent):
                f = _poly_mul(f, q, field)
            h, _ = _poly_divmod(m, f, field)
            _, _, v = _poly_gcdex(f, h, field)
            e = poly_eval_in_algebra(_poly_mod(_poly_mul(v, h, field), m, field),
                                     algebra, vec)
            if algebra.mul(e, e) != e:
                raise RadicalComputationError("constructed idempotent fails e*e == e")
            idempotents.append(e)
        return idempotents
    return None


def _residue_certificate(quotient):
    """True when a primitive element exhibits the quotient as a single field."""
    for vec in _candidates(quotient):
        m = minimal_polynomial(quotient, vec)
        factors = factor_polynomial(m, quotient.field)
        if len(factors) == 1 and factors[0][1] == 1 and len(m) - 1 == quotient.dim:
            return True
    return False


def decompose_commutative(algebra):
    """Split a commutative algebra into local factors via idempotents.

    Returns a list of LocalFactor entries whose idempotents are orthogonal,
    sum to one, and are exact.  Raises NotCommutative otherwise.

    Each round takes one corner e * A and splits it with
    _splitting_idempotents: every factor of one minimal polynomial gives an
    idempotent at once.  The loop remains because one element need not
    separate every local factor: on the diagonal basis of k x k x k the
    first candidate e_1 splits off e_1 and leaves e_2 + e_3 whole.  Each
    idempotent is mapped into the input's coordinates, and its corner is cut
    from the input itself, spanned by e * b over the input's basis b.
    """
    if not algebra.is_commutative():
        raise NotCommutative("decomposition requires a commutative algebra")
    one = algebra.field.one()
    pending = [(algebra.unit, algebra, lambda v: v)]
    finished = []
    while pending:
        idem, current, embed = pending.pop()
        idempotents = _splitting_idempotents(current)
        if idempotents is None:
            finished.append((idem, current))
            continue
        for e in map(embed, idempotents):
            span = [algebra.mul(e, {i: one}) for i in range(algebra.dim)]
            corner, corner_embed = _algebra_on_span(algebra, span, e)
            pending.append((e, corner, corner_embed))
    factors = []
    for idem, current in finished:
        info = current.radical()
        factors.append(LocalFactor(
            idempotent=idem,
            algebra=current,
            radical_dimension=info.dimension,
            residue_dimension=current.dim - info.dimension,
            residue_field_certified=_residue_certificate(info.quotient),
        ))
    factors.sort(key=lambda f: sorted((i, str(c)) for i, c in f.idempotent.items()))
    return factors
