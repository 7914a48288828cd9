"""FiniteDimAlgebra.radical against a copy of the route it replaced.

The reference below is radical() as it stood with a Jordan-Chevalley
fallback: the trace-form certificate first, and when that fails on a
commutative algebra, the nilpotent part b - s(b) of every basis vector b,
with s(b) the semisimple part from a minimal polynomial, its factorization
and a Newton iteration, then a check that no quotient basis vector has a
repeated factor in its minimal polynomial.  radical() now tries the kernel
of x -> x^q in its place.

Both must give, per draw, the same radical dimension and span, the same
quotient (basis, structure and unit, key by key with their scalar types) and
the same project on each basis vector, and decompose_commutative must give
the same factors with either radical.  The Jordan-Chevalley route must match
the Frobenius one and the trace form the trace form.  A draw is a direct
product, on a permuted basis, of one to three blocks over Q, F_2, F_3, F_5
or F_101:

- k[x]/(f), f a product of (x - c)^e for e up to 5, times an irreducible
  quadratic or not;
- k[x, y]/(x^a, y^b) for a, b up to 5 and ab up to 12, whose trace form is
  zero when p divides a or b.

The draws have dimension at most 12.
"""

from unittest import mock

from hypothesis import given
from hypothesis import strategies as st
from test_realize_oracle import SETTINGS

from quiverdg.algebras import (
    FiniteDimAlgebra,
    RadicalComputationError,
    RadicalInfo,
    _poly_add,
    _poly_divmod,
    _poly_gcdex,
    _poly_mod,
    _poly_mul,
    _poly_scale,
    _poly_trim,
    decompose_commutative,
    factor_polynomial,
    minimal_polynomial,
    poly_eval_in_algebra,
)
from quiverdg.fields import GroundField
from quiverdg.linalg import RowSpace, kernel_image, vec_axpy

FIELDS = tuple(GroundField(p) for p in (0, 2, 3, 5, 101))
# an irreducible quadratic per characteristic, low to high: x^2 + x + 1 is
# irreducible over Q, F_2, F_5 and F_101 but is (x - 1)^2 over F_3
QUADRATIC = {0: (1, 1, 1), 2: (1, 1, 1), 3: (1, 0, 1), 5: (1, 1, 1), 101: (1, 1, 1)}
# the largest block, (x - c)^5 (x - c')^5 times a quadratic, has dimension 12
MAX_DIM = 12


# ---------------------------------------------------------------------------
# the reference: radical() with its Jordan-Chevalley fallback

def ref_poly_derivative(p, field):
    return _poly_trim([field.of(i) * c for i, c in enumerate(p)][1:])


def ref_poly_compose_mod(p, r, m, field):
    """p(r) reduced modulo m."""
    acc = []
    for c in reversed(p):
        acc = _poly_mul(acc, r, field)
        acc = _poly_add(acc, [c], field)
        acc = _poly_mod(acc, m, field)
    return acc


def ref_semisimple_part(algebra, vec):
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
        value = ref_poly_compose_mod(squarefree, r, m, field)
        if not value:
            break
        deriv = ref_poly_compose_mod(ref_poly_derivative(squarefree, field), r, m, field)
        g, u, _ = _poly_gcdex(deriv, m, field)
        if g != [field.one()]:
            raise RadicalComputationError("derivative not invertible in Newton step")
        step = _poly_mod(_poly_mul(value, u, field), m, field)
        r = _poly_mod(_poly_add(r, _poly_scale(step, -field.one()), field), m, field)
    if ref_poly_compose_mod(squarefree, r, m, field):
        raise RadicalComputationError("Newton iteration failed to converge")
    return poly_eval_in_algebra(r, algebra, vec)


def ref_vector_is_nilpotent(algebra, vec):
    power = dict(vec)
    for _ in range(algebra.dim + 1):
        if not power:
            return True
        power = algebra.mul(power, vec)
    return False


def ref_radical_by_trace_form(algebra):
    kernel, _ = kernel_image(algebra.gram_matrix(), algebra.field)
    if not algebra._is_nilpotent_ideal(kernel):
        return None
    quotient, project = algebra.quotient_by_span(kernel)
    quotient_kernel, _ = kernel_image(quotient.gram_matrix(), algebra.field)
    if quotient_kernel:
        return None
    return RadicalInfo(algebra._span_basis(kernel), quotient, project, "trace-form")


def ref_radical_commutative(algebra):
    nilpotent_parts = []
    one = algebra.field.one()
    for i in range(algebra.dim):
        vec = {i: one}
        s = ref_semisimple_part(algebra, vec)
        n = dict(vec)
        vec_axpy(n, -one, s)
        if n:
            if not ref_vector_is_nilpotent(algebra, n):
                raise RadicalComputationError(
                    "Jordan-Chevalley split produced a non-nilpotent part")
            nilpotent_parts.append(n)
    radical_basis = algebra._span_basis(nilpotent_parts)
    quotient, project = algebra.quotient_by_span(radical_basis)
    for i in range(quotient.dim):
        m = minimal_polynomial(quotient, {i: one})
        if any(exp > 1 for _, exp in factor_polynomial(m, algebra.field)):
            raise RadicalComputationError("quotient still has nilpotents")
    return RadicalInfo(radical_basis, quotient, project, "jordan-chevalley")


def ref_radical(algebra):
    info = ref_radical_by_trace_form(algebra)
    if info is not None:
        return info
    assert algebra.is_commutative()
    return ref_radical_commutative(algebra)


# ---------------------------------------------------------------------------
# the draws

def polynomial_block(field, roots, quadratic):
    """k[x]/(f) on 1, x, ...: (dim, {(i, j): vector})."""
    f = [field.one()]
    for c, e in roots:
        for _ in range(e):
            f = _poly_mul(f, [field.of(-c), field.one()], field)
    if quadratic:
        f = _poly_mul(f, [field.of(c) for c in QUADRATIC[field.characteristic]], field)
    d = len(f) - 1
    powers = []
    for k in range(2 * d - 1):
        _, rem = _poly_divmod([field.zero()] * k + [field.one()], f, field)
        powers.append({i: c for i, c in enumerate(rem) if c})
    return d, {(i, j): powers[i + j] for i in range(d) for j in range(d)}


def monomial_block(field, a, b):
    """k[x, y]/(x^a, y^b) on the x^i y^j, i < a and j < b."""
    index = {(i, j): i * b + j for i in range(a) for j in range(b)}
    structure = {}
    for (i, j), s in index.items():
        for (k, l), t in index.items():
            if (i + k, j + l) in index:
                structure[(s, t)] = {index[(i + k, j + l)]: field.one()}
    return a * b, structure


def product_algebra(field, blocks, order):
    """The direct product of the blocks, its basis listed in the given order."""
    basis, unit, structure = [], [], {}
    for n, (dim, table) in enumerate(blocks):
        offset = len(basis)
        basis += ["b%d_%d" % (n, i) for i in range(dim)]
        unit.append(offset)
        for (i, j), vec in table.items():
            structure[(offset + i, offset + j)] = {offset + k: c for k, c in vec.items()}
    position = {old: new for new, old in enumerate(order)}
    return FiniteDimAlgebra(
        field, [basis[old] for old in order],
        {(position[i], position[j]): {position[k]: c for k, c in vec.items()}
         for (i, j), vec in structure.items()},
        {position[i]: field.one() for i in unit})


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            roots = draw(st.lists(st.tuples(st.sampled_from((0, 1, -1, 2)), st.integers(1, 5)),
                                  min_size=1, max_size=2, unique_by=lambda r: r[0]))
            block = polynomial_block(field, roots, draw(st.booleans()))
        else:
            a = draw(st.integers(1, 5))
            block = monomial_block(field, a, draw(st.integers(1, min(5, MAX_DIM // a))))
        if sum(dim for dim, _ in blocks) + block[0] > MAX_DIM:
            break
        blocks.append(block)
    dim = sum(d for d, _ in blocks)
    return product_algebra(field, blocks, draw(st.permutations(range(dim))))


# ---------------------------------------------------------------------------
# the comparison

def typed(vec):
    return [(k, repr(c), type(c)) for k, c in sorted(vec.items())]


def same_span(us, vs, field):
    rows = RowSpace(field)
    for u in us:
        rows.add(u)
    return rows.rank == len(us) == len(vs) and all(rows.contains(v) for v in vs)


def factor_tuples(algebra):
    return [(typed(f.idempotent), f.algebra.dim, f.radical_dimension, f.residue_dimension,
             f.residue_field_certified) for f in decompose_commutative(algebra)]


def assert_matches_the_jordan_chevalley_route(algebra):
    """The method radical() took, after comparing it with the reference."""
    got, want = algebra.radical(), ref_radical(algebra)
    assert got.method == {"trace-form": "trace-form",
                          "jordan-chevalley": "frobenius"}[want.method]
    assert got.dimension == want.dimension
    assert same_span(got.vectors, want.vectors, algebra.field)
    assert got.quotient.basis == want.quotient.basis
    assert ({key: typed(vec) for key, vec in got.quotient.structure.items()}
            == {key: typed(vec) for key, vec in want.quotient.structure.items()})
    assert typed(got.quotient.unit) == typed(want.quotient.unit)
    one = algebra.field.one()
    for i in range(algebra.dim):
        assert typed(got.project({i: one})) == typed(want.project({i: one}))
    factors = factor_tuples(algebra)
    with mock.patch.object(FiniteDimAlgebra, "radical", ref_radical):
        assert factors == factor_tuples(algebra)
    return got.method


def test_radical_matches_the_jordan_chevalley_route():
    methods = []

    @SETTINGS
    @given(products())
    def check(algebra):
        methods.append(assert_matches_the_jordan_chevalley_route(algebra))

    check()
    assert methods.count("frobenius") > 0 and methods.count("trace-form") > 0

