"""decompose_commutative against a copy of the recursion it replaced.

The reference below peels off one idempotent per round: at the first
candidate whose minimal polynomial has two or more irreducible factors it
takes the CRT idempotent u * f of the first prime-power factor f, builds the
corners of it and of its complement inside the current corner, and recurses
through composed embeddings.  decompose_commutative takes every idempotent
of that minimal polynomial at once and cuts each corner from the input.

The primitive idempotents of a commutative algebra are unique, so per draw,
over Q, F_5 and F_101, both must give the same factors in the same order:
each idempotent's items, key by key with their scalar types, and each factor's
(dim, radical_dimension, residue_dimension, residue_field_certified).  The
idempotents must also be orthogonal and sum to the unit.  The draws are

- k[x]/(m) on 1, x, ..., with m a product of (x - c)^e and irreducible
  quadratics;
- k[x]/(f) x k[y]/(g) on a basis whose first element is (1, 0), so that the
  first split separates only the two blocks and a second round splits a
  block that is not local.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st
from test_realize_oracle import SETTINGS

from quiverdg import algebras
from quiverdg.algebras import (
    FiniteDimAlgebra,
    _algebra_on_span,
    _poly_divmod,
    _poly_gcdex,
    _poly_mod,
    _poly_mul,
    decompose_commutative,
    factor_polynomial,
    minimal_polynomial,
    poly_eval_in_algebra,
)
from quiverdg.fields import GroundField
from quiverdg.linalg import vec_axpy

FIELDS = (GroundField(0), GroundField(5), GroundField(101))
ROOTS = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
# x^2 - 2, x^2 - 3 and x^2 + x + 1 are irreducible over Q, F_5 and F_101
FACTORS = tuple((-c, 1) for c in ROOTS) + ((-2, 0, 1), (-3, 0, 1), (1, 1, 1))


def ref_splitting_idempotent(algebra):
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
        assert algebra.mul(e_vec, e_vec) == e_vec
        return e_vec
    return None


def ref_residue_certificate(quotient):
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


def ref_decompose(algebra):
    """(idempotent, dim, radical, residue, certified) per factor, sorted as
    decompose_commutative sorts them."""
    pending = [(algebra.unit, algebra, lambda v: v)]
    finished = []
    while pending:
        idem, current, embed = pending.pop()
        splitter = ref_splitting_idempotent(current)
        if splitter is None:
            finished.append((idem, current))
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
    for idem, current in finished:
        info = current.radical()
        factors.append((idem, current.dim, info.dimension, current.dim - info.dimension,
                        ref_residue_certificate(info.quotient)))
    factors.sort(key=lambda f: sorted((i, str(c)) for i, c in f[0].items()))
    return factors


def typed(vec):
    """The items by key, with their scalar types.  Key order is not compared:
    the reference lists a complement 1 - e with the unit's keys first."""
    return [(k, repr(c), type(c)) for k, c in sorted(vec.items())]


def monic_product(field, factors, max_degree):
    """The product of q^e over factors (q low to high), low to high, with
    each e lowered so that the degree stays at most max_degree."""
    m = [field.one()]
    for coeffs, e in factors:
        q = [field.of(c) for c in coeffs]
        for _ in range(min(e, (max_degree - len(m) + 1) // (len(q) - 1))):
            m = _poly_mul(m, q, field)
    return m


def powers_mod(field, m):
    """x^k modulo the monic m for k < 2 deg m - 1, as sparse vectors on 1, x, ..."""
    d = len(m) - 1
    powers = []
    for k in range(2 * d - 1):
        _, rem = _poly_divmod([field.zero()] * k + [field.one()], m, field)
        powers.append({i: c for i, c in enumerate(rem) if c})
    return powers


def blocks_algebra(field, moduli, order):
    """k[x]/(m_1) x ... on the basis (block, x^i), listed in the given order."""
    basis = [(b, i) for b, m in enumerate(moduli) for i in range(len(m) - 1)]
    basis = [basis[k] for k in order]
    position = {label: k for k, label in enumerate(basis)}
    tables = [powers_mod(field, m) for m in moduli]
    structure = {}
    for s, (b, i) in enumerate(basis):
        for t, (c, j) in enumerate(basis):
            if b == c:
                structure[(s, t)] = {position[(b, k)]: v for k, v in tables[b][i + j].items()}
    unit = {position[(b, 0)]: 1 for b in range(len(moduli))}
    labels = ["%s^%d" % ("xy"[b], i) for b, i in basis]
    return FiniteDimAlgebra(field, labels, structure, unit)


def moduli(field, max_degree):
    """Products of (x - c)^e and irreducible quadratics, of degree 1 to max_degree."""
    factors = st.lists(st.tuples(st.sampled_from(FACTORS), st.integers(1, 3)),
                       min_size=1, max_size=4, unique_by=lambda f: f[0])
    return factors.map(lambda fs: monic_product(field, fs, max_degree))


@st.composite
def polynomial_rings(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(moduli(field, 8))
    return blocks_algebra(field, [m], range(len(m) - 1))


@st.composite
def two_block_products(draw):
    field = draw(st.sampled_from(FIELDS))
    f, g = draw(moduli(field, 4)), draw(moduli(field, 4))
    n = len(f) - 1 + len(g) - 1
    # (1, 0) first: its minimal polynomial t (t - 1) separates the two blocks only
    order = [0] + draw(st.permutations(range(1, n)))
    return blocks_algebra(field, [f, g], order)


def assert_matches_the_recursion(algebra):
    got = decompose_commutative(algebra)
    want = ref_decompose(algebra)
    assert [(typed(f.idempotent), f.algebra.dim, f.radical_dimension, f.residue_dimension,
             f.residue_field_certified) for f in got] == [
        (typed(idem), *rest) for idem, *rest in want]
    total = {}
    for f in got:
        vec_axpy(total, algebra.field.one(), f.idempotent)
        for other in got:
            if other is not f:
                assert algebra.mul(f.idempotent, other.idempotent) == {}
    assert total == algebra.unit
    return got


@SETTINGS
@given(polynomial_rings())
def test_polynomial_rings_match_the_recursion(algebra):
    assert_matches_the_recursion(algebra)


@SETTINGS
@given(two_block_products())
def test_two_block_products_match_the_recursion(algebra):
    with mock.patch.object(algebras, "_splitting_idempotents",
                           wraps=algebras._splitting_idempotents) as spy:
        factors = assert_matches_the_recursion(algebra)
    # every corner is split or kept as a factor; the first round separates
    # the two blocks only, so a third factor needs a second round
    rounds = spy.call_count - len(factors)
    assert (rounds > 1) == (len(factors) > 2)


def test_k_cubed_on_its_diagonal_basis_splits_in_two_rounds():
    field = GroundField(0)
    one = field.one()
    k3 = FiniteDimAlgebra(field, ["e1", "e2", "e3"],
                          {(i, i): {i: one} for i in range(3)}, {0: 1, 1: 1, 2: 1})
    first = algebras._splitting_idempotents(k3)
    assert sorted(map(sorted, first)) == [[0], [1, 2]]
    factors = assert_matches_the_recursion(k3)
    assert [f.idempotent for f in factors] == [{0: one}, {1: one}, {2: one}]
