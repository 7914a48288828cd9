"""Finite-dimensional algebras given by structure constants over an exact field.

Radicals are certified, not trusted.  The trace-form kernel is accepted only
after verifying that it is a nilpotent two-sided ideal whose quotient has a
nondegenerate trace form; that certificate is valid in any characteristic.
When it fails (which happens over small prime fields) commutative algebras
fall back to an independent route through minimal polynomials and
Jordan-Chevalley decomposition, which also powers the splitting into local
factors used by the reflexivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from .fields import GroundField
from .linalg import RowSpace, SparseMatrix, SpanSolver, kernel_image, vec_axpy


class RadicalComputationError(Exception):
    """Raised when no implemented route certifies the radical."""


class NotCommutative(Exception):
    """Raised when a commutative-only routine meets a noncommutative algebra."""


class FiniteDimAlgebra:
    """An associative unital algebra on a labeled basis.

    structure maps a pair of basis indices (i, j) to the sparse vector of
    b_i * b_j; absent pairs multiply to zero.  Vectors throughout are sparse
    dicts {basis index: scalar}.
    """

    def __init__(self, field, basis, structure, unit, degrees=None):
        self.field = field
        self.basis = list(basis)
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

    @property
    def dim(self):
        return len(self.basis)

    def mul(self, u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                vec = self.structure.get((i, j))
                if vec:
                    vec_axpy(out, a * b, vec)
        return out

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

    def radical(self):
        """Certified radical: basis vectors, the semisimple quotient, and
        the route that proved it.  RadicalComputationError when neither the
        trace-form certificate nor the commutative fallback applies."""
        info = self._radical_by_trace_form()
        if info is not None:
            return info
        if self.is_commutative():
            return self._radical_commutative()
        raise RadicalComputationError(
            "trace-form certificate failed and the algebra is not commutative")

    def _radical_by_trace_form(self):
        kernel, _ = kernel_image(self.gram_matrix(), self.field)
        if not self._is_nilpotent_ideal(kernel):
            return None
        quotient, project = self.quotient_by_span(kernel)
        quotient_kernel, _ = kernel_image(quotient.gram_matrix(), self.field)
        if quotient_kernel:
            return None
        return RadicalInfo(self._span_basis(kernel), quotient, project, "trace-form")

    def _radical_commutative(self):
        nilpotent_parts = []
        one = self.field.one()
        for i in range(self.dim):
            vec = {i: one}
            s = semisimple_part(self, vec)
            n = dict(vec)
            vec_axpy(n, -one, s)
            if n:
                if not self._vector_is_nilpotent(n):
                    raise RadicalComputationError(
                        "Jordan-Chevalley split produced a non-nilpotent part")
                nilpotent_parts.append(n)
        radical_basis = self._span_basis(nilpotent_parts)
        quotient, project = self.quotient_by_span(radical_basis)
        for i in range(quotient.dim):
            m = minimal_polynomial(quotient, {i: one})
            if any(exp > 1 for _, exp in factor_polynomial(m, self.field)):
                raise RadicalComputationError("quotient still has nilpotents")
        return RadicalInfo(radical_basis, quotient, project, "jordan-chevalley")

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

    def _vector_is_nilpotent(self, vec):
        power = dict(vec)
        for _ in range(self.dim + 1):
            if not power:
                return True
            power = self.mul(power, vec)
        return False


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


def _poly_derivative(p, field):
    return _poly_trim([field.of(i) * c for i, c in enumerate(p)][1:])


def _poly_compose_mod(p, r, m, field):
    """p(r) reduced modulo m."""
    acc = []
    for c in reversed(p):
        acc = _poly_mul(acc, r, field)
        acc = _poly_add(acc, [c], field)
        acc = _poly_mod(acc, m, field)
    return acc


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


def semisimple_part(algebra, vec):
    """The semisimple summand of the Jordan-Chevalley decomposition.

    Works over the rationals and over prime fields (both perfect); returns a
    vector s in k[vec] with vec - s nilpotent and s annihilated by the
    squarefree part of the minimal polynomial.
    """
    field = algebra.field
    m = minimal_polynomial(algebra, vec)
    factors = factor_polynomial(m, field)
    if all(exp == 1 for _, exp in factors):
        return dict(vec)
    squarefree = [field.one()]
    for q, _ in factors:
        squarefree = _poly_mul(squarefree, q, field)
    r = [field.zero(), field.one()]  # the identity polynomial x
    max_exp = max(exp for _, exp in factors)
    for _ in range(max_exp.bit_length() + 2):
        value = _poly_compose_mod(squarefree, r, m, field)
        if not value:
            break
        deriv = _poly_compose_mod(_poly_derivative(squarefree, field), r, m, field)
        g, u, _ = _poly_gcdex(deriv, m, field)
        if g != [field.one()]:
            raise RadicalComputationError("derivative not invertible in Newton step")
        step = _poly_mod(_poly_mul(value, u, field), m, field)
        r = _poly_mod(_poly_add(r, _poly_scale(step, -field.one()), field), m, field)
    if _poly_compose_mod(squarefree, r, m, field):
        raise RadicalComputationError("Newton iteration failed to converge")
    return poly_eval_in_algebra(r, algebra, vec)


# ---------------------------------------------------------------------------
# commutative decomposition into local factors

@dataclass
class LocalFactor:
    idempotent: dict
    algebra: FiniteDimAlgebra
    radical_dimension: int
    residue_dimension: int
    residue_field_certified: bool
    embed: object = dataclass_field(repr=False, default=None)


def _algebra_on_span(parent, vectors, unit_vec):
    """The subalgebra spanned by `vectors` (assumed multiplicatively closed),
    with the given unit.  Returns (algebra, embed, coordinates)."""
    rows = RowSpace(parent.field)
    chosen = []
    for v in vectors:
        if rows.add(v) is not None:
            chosen.append(dict(v))
    solver = SpanSolver(parent.field)
    for v in chosen:
        solver.add(v)

    def coords(vec):
        return solver.express(vec)

    structure = {}
    for i, u in enumerate(chosen):
        for j, v in enumerate(chosen):
            prod = parent.mul(u, v)
            c = coords(prod)
            if c is None:
                raise RadicalComputationError("span is not multiplicatively closed")
            if c:
                structure[(i, j)] = c
    unit_coords = coords(unit_vec)
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


def _find_splitting_idempotent(algebra):
    """A nontrivial idempotent found through a basis element whose minimal
    polynomial has at least two distinct irreducible factors; None if the
    candidate scan is exhausted."""
    field = algebra.field
    one = field.one()
    candidates = [{i: one} for i in range(algebra.dim)]
    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            candidates.append({i: one, j: one})
    for vec in candidates:
        m = minimal_polynomial(algebra, vec)
        factors = factor_polynomial(m, field)
        if len(factors) < 2:
            continue
        q, e = factors[0]
        f = [field.one()]
        for _ in range(e):
            f = _poly_mul(f, q, field)
        h, _ = _poly_divmod(m, f, field)
        g, u, _ = _poly_gcdex(f, h, field)
        if g != [field.one()]:
            continue
        idem_poly = _poly_mod(_poly_mul(u, f, field), m, field)
        e_vec = poly_eval_in_algebra(idem_poly, algebra, vec)
        if not e_vec or e_vec == algebra.unit:
            continue
        if algebra.mul(e_vec, e_vec) != e_vec:
            raise RadicalComputationError("constructed idempotent fails e*e == e")
        return e_vec
    return None


def _residue_certificate(quotient):
    """True when a primitive element exhibits the quotient as a single field."""
    field = quotient.field
    one = field.one()
    candidates = [{i: one} for i in range(quotient.dim)]
    for i in range(quotient.dim):
        for j in range(i + 1, quotient.dim):
            candidates.append({i: one, j: one})
    for vec in candidates:
        m = minimal_polynomial(quotient, vec)
        factors = factor_polynomial(m, field)
        if len(factors) == 1 and factors[0][1] == 1 and len(m) - 1 == quotient.dim:
            return True
    return False


def decompose_commutative(algebra):
    """Split a commutative algebra into local factors via idempotents.

    Returns a list of LocalFactor entries whose idempotents are orthogonal,
    sum to one, and are exact.  Raises NotCommutative otherwise.
    """
    if not algebra.is_commutative():
        raise NotCommutative("decomposition requires a commutative algebra")
    pending = [(algebra.unit, algebra, lambda v: v)]
    finished = []
    while pending:
        idem, current, embed = pending.pop()
        splitter = _find_splitting_idempotent(current)
        if splitter is None:
            finished.append((idem, current, embed))
            continue
        complement = dict(current.unit)
        vec_axpy(complement, -current.field.one(), splitter)
        for corner_idem in (splitter, complement):
            one = current.field.one()
            span = [current.mul(corner_idem, {i: one}) for i in range(current.dim)]
            corner, corner_embed = _algebra_on_span(current, span, corner_idem)

            def compose_embed(vec, inner=corner_embed, outer=embed):
                return outer(inner(vec))

            pending.append((embed(corner_idem), corner, compose_embed))
    factors = []
    for idem, current, embed in finished:
        info = current.radical()
        factors.append(LocalFactor(
            idempotent=idem,
            algebra=current,
            radical_dimension=info.dimension,
            residue_dimension=current.dim - info.dimension,
            residue_field_certified=_residue_certificate(info.quotient),
            embed=embed,
        ))
    factors.sort(key=lambda f: sorted((i, str(c)) for i, c in f.idempotent.items()))
    return factors
