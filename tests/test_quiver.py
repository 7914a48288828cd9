import random
from fractions import Fraction

import pytest

from quiverdg.fields import GroundField
from quiverdg.quiver import (
    Arrow,
    Path,
    PathAlgebraElement,
    QuiverPresentation,
    Superpotential,
    UnknownArrow,
    cyclic_derivative,
    enumerate_paths,
    reduce_modulo_relations,
)

QQ = GroundField(0)
F3 = GroundField(3)


def one_loop():
    return QuiverPresentation(["v"], [Arrow("x", "v", "v")])


def a2_with_dual():
    return QuiverPresentation(
        ["1", "2"],
        [Arrow("a", "1", "2"), Arrow("adual", "2", "1")],
    )


def three_loops():
    return QuiverPresentation(
        ["v"],
        [Arrow("x", "v", "v"), Arrow("y", "v", "v"), Arrow("z", "v", "v"),
         Arrow("w", "v", "v")],
    )


def elem(quiver, *pairs):
    terms = {}
    for labels, coeff in pairs:
        terms[quiver.path(labels)] = Fraction(coeff)
    return PathAlgebraElement(terms)


def test_construction_validation():
    with pytest.raises(ValueError):
        QuiverPresentation(["v", "v"], [])
    with pytest.raises(ValueError):
        QuiverPresentation(["v"], [Arrow("x", "v", "v"), Arrow("x", "v", "v")])
    with pytest.raises(ValueError):
        QuiverPresentation(["v"], [Arrow("x", "v", "u")])
    with pytest.raises(ValueError):
        QuiverPresentation([1], [])
    q = one_loop()
    with pytest.raises(UnknownArrow):
        q.arrow("y")
    with pytest.raises(ValueError):
        q.path([], base=None)


def test_path_composition_rules():
    q = a2_with_dual()
    e1 = PathAlgebraElement.from_path(q.trivial("1"), Fraction(1))
    a = PathAlgebraElement.from_path(q.path(["a"]), Fraction(1))
    assert e1 * a == a
    assert (a * a).is_zero()  # target(a) = 2 but source(a) = 1
    with pytest.raises(ValueError):
        q.path(["a", "a"])


def test_bilinearity():
    q = QuiverPresentation(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "1", "2"), Arrow("c", "2", "3")],
    )
    a = elem(q, (["a"], 1))
    b = elem(q, (["b"], 1))
    c = elem(q, (["c"], 1))
    assert (a + b) * c == a * c + b * c
    assert (a - a) * c == PathAlgebraElement.zero()
    assert (2 * a) * c == 2 * (a * c)


def test_associativity_exhaustive():
    q = a2_with_dual()
    basis = [PathAlgebraElement.from_path(p, Fraction(1))
             for p in enumerate_paths(q, 2)]
    for p in basis:
        for r in basis:
            for s in basis:
                assert (p * r) * s == p * (r * s)


def test_unit_element():
    q = a2_with_dual()
    unit = PathAlgebraElement({q.trivial(v): Fraction(1) for v in q.vertices})
    for p in enumerate_paths(q, 3):
        x = PathAlgebraElement.from_path(p, Fraction(2))
        assert unit * x == x
        assert x * unit == x


def test_enumerate_paths_counts_and_order():
    q = one_loop()
    paths = enumerate_paths(q, 4)
    assert len(paths) == 5
    assert [len(p) for p in paths] == [0, 1, 2, 3, 4]
    # weighted enumeration: a weight-2 loop fits only twice under bound 5
    paths = enumerate_paths(q, 5, weights={"x": 2})
    assert [len(p) for p in paths] == [0, 1, 2]
    with pytest.raises(ValueError):
        enumerate_paths(q, 3, weights={"x": 0})


def two_loops():
    return QuiverPresentation(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])


def test_enumerate_paths_names_a_missing_or_unknown_weight():
    q = two_loops()
    with pytest.raises(ValueError, match="no weight given for arrow 'y'"):
        enumerate_paths(q, 3, weights={"x": 1})
    with pytest.raises(ValueError, match="weight given for unknown arrow 'z'"):
        enumerate_paths(q, 3, weights={"x": 1, "y": 1, "z": 1})


def test_reduce_modulo_relations_names_a_missing_or_unknown_weight():
    q = two_loops()
    relation = elem(q, (["x", "y"], 1))
    with pytest.raises(ValueError, match="no weight given for arrow 'y'"):
        reduce_modulo_relations(q, [relation], 3, weights={"x": 1})
    with pytest.raises(ValueError, match="weight given for unknown arrow 'z'"):
        reduce_modulo_relations(q, [relation], 3, weights={"x": 1, "y": 2, "z": 1})
    with pytest.raises(ValueError, match="arrow weight for y must be positive"):
        reduce_modulo_relations(q, [relation], 3, weights={"x": 1, "y": 0})


def test_cyclic_derivative_xyz():
    q = QuiverPresentation(
        ["1", "2", "3"],
        [Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")],
    )
    w = Superpotential(q, {("x", "y", "z"): 1})
    d = cyclic_derivative(w, "x")
    assert d == elem(q, (["y", "z"], 1))
    assert d.endpoints() == ("2", "1")  # target(x) to source(x)
    assert cyclic_derivative(w, "y") == elem(q, (["z", "x"], 1))
    assert cyclic_derivative(w, "z") == elem(q, (["x", "y"], 1))


def test_cyclic_derivative_cube():
    q = three_loops()
    w = Superpotential(q, {("x", "x", "x"): 1})
    d = cyclic_derivative(w, "x")
    assert d == PathAlgebraElement({q.path(["x", "x"]): Fraction(3)})
    assert cyclic_derivative(w, "y").is_zero()
    with pytest.raises(UnknownArrow):
        cyclic_derivative(w, "q")


def test_cyclic_derivative_short_cycle():
    q = one_loop()
    w = Superpotential(q, {("x",): 1})
    assert cyclic_derivative(w, "x") == PathAlgebraElement.from_path(
        q.trivial("v"), Fraction(1))


def test_superpotential_rotation_invariance():
    q = QuiverPresentation(
        ["1", "2", "3"],
        [Arrow("x", "1", "2"), Arrow("y", "2", "3"), Arrow("z", "3", "1")],
    )
    w1 = Superpotential(q, {("x", "y", "z"): 1})
    w2 = Superpotential(q, {("y", "z", "x"): 1})
    assert w1 == w2
    assert cyclic_derivative(w1, "x") == cyclic_derivative(w2, "x")
    # coefficients of rotated duplicates accumulate
    w3 = Superpotential(q, [(("x", "y", "z"), 1), (("z", "x", "y"), -1)])
    assert w3.is_zero()


def test_superpotential_validation():
    q = a2_with_dual()
    with pytest.raises(ValueError):
        Superpotential(q, {("a",): 1})  # does not close up
    graded = QuiverPresentation(["v"], [Arrow("x", "v", "v", degree=-1)])
    with pytest.raises(ValueError):
        Superpotential(graded, {("x", "x"): 1})
    with pytest.raises(ValueError):
        Superpotential(q, {(): 1})


def test_quotient_loop_square():
    q = one_loop()
    qb = reduce_modulo_relations(q, [elem(q, (["x", "x"], 1))], 5)
    assert [str(p) for p in qb.basis] == ["e_v", "x"]
    assert len(qb) == 2
    # normal form: x^3 lies in the ideal, x survives
    reduced = qb.reduce(elem(q, (["x", "x", "x"], 1), (["x"], 1)))
    assert reduced == elem(q, (["x"], 1))


def test_quotient_preprojective_a2():
    q = a2_with_dual()
    relations = [
        elem(q, (["a", "adual"], 1)),
        elem(q, (["adual", "a"], 1)),
    ]
    qb = reduce_modulo_relations(q, relations, 4)
    assert sorted(str(p) for p in qb.basis) == ["a", "adual", "e_1", "e_2"]
    assert len(qb) == 4


def test_quotient_char_three_free():
    q = one_loop()
    relation = PathAlgebraElement({q.path(["x", "x"]): F3.of(3)})
    qb = reduce_modulo_relations(q, [relation], 4, field=F3)
    assert len(qb) == 5  # the relation vanishes mod 3


def test_quotient_rejects_bad_relations():
    q = a2_with_dual()
    mixed = elem(q, (["a"], 1)) + PathAlgebraElement.from_path(
        q.path(["adual"]), Fraction(1))
    with pytest.raises(ValueError):
        reduce_modulo_relations(q, [mixed], 3)
    with_unit = PathAlgebraElement(
        {q.trivial("1"): Fraction(1), q.path(["a", "adual"]): Fraction(-1)})
    with pytest.raises(ValueError):
        reduce_modulo_relations(q, [with_unit], 3)
    with pytest.raises(ValueError):
        reduce_modulo_relations(q, [], -1)


def test_quotient_reduce_respects_bound():
    q = one_loop()
    qb = reduce_modulo_relations(q, [elem(q, (["x", "x"], 1))], 2)
    with pytest.raises(ValueError):
        qb.reduce(elem(q, (["x", "x", "x"], 1)))


def test_quotient_counts_monotone_and_order_free():
    q = three_loops()
    pool = [
        elem(q, (["x", "x"], 1)),
        elem(q, (["x", "y"], 1), (["y", "x"], -1)),
        elem(q, (["z", "z", "z"], 1)),
        elem(q, (["w"], 1)),
        elem(q, (["y", "z"], 1), (["z", "y"], 1)),
    ]
    rng = random.Random(20260814)
    for _ in range(12):
        k = rng.randrange(len(pool) + 1)
        chosen = rng.sample(pool, k)
        count = len(reduce_modulo_relations(q, chosen, 3))
        shuffled = chosen[:]
        rng.shuffle(shuffled)
        assert len(reduce_modulo_relations(q, shuffled, 3)) == count
        more = len(reduce_modulo_relations(q, chosen + [pool[0]], 3))
        assert more <= count


def test_quotient_mixed_length_relation():
    # k[x]/(x^2 - x^3) has dimension 3; the filtered count agrees once the
    # bound admits the relation
    q = one_loop()
    r = elem(q, (["x", "x"], 1), (["x", "x", "x"], -1))
    qb = reduce_modulo_relations(q, [r], 6)
    assert len(qb) == 3
    assert [str(p) for p in qb.basis] == ["e_v", "x", "x*x"]
    # x^4 reduces to the same normal form as x^2
    nf2 = qb.reduce(elem(q, (["x", "x"], 1)))
    nf4 = qb.reduce(elem(q, (["x", "x", "x", "x"], 1)))
    assert nf2 == nf4


def test_reduce_lists_a_multi_term_normal_form_heaviest_first():
    # z*y + 2 x*y - 3 y*x + x on three loops: the leading word is z*y, so
    # z*y -> 3 y*x - 2 x*y - x, listed heaviest first, after the terms of
    # the input that stay (a trivial path among them)
    q = QuiverPresentation(["v"], [Arrow(name, "v", "v") for name in "xyz"])
    r = elem(q, (["z", "y"], 1), (["x", "y"], 2), (["y", "x"], -3), (["x"], 1))
    qb = reduce_modulo_relations(q, [r], 3)
    reduced = qb.reduce(PathAlgebraElement({q.path(["z", "y"]): Fraction(2),
                                            q.trivial("v"): Fraction(5),
                                            q.path(["z"]): Fraction(1)}))
    expected = [(q.trivial("v"), 5), (q.path(["z"]), 1), (q.path(["y", "x"]), 6),
                (q.path(["x", "y"]), -4), (q.path(["x"]), -2)]
    assert [(p, c, type(c)) for p, c in reduced.terms.items()] == [
        (p, Fraction(c), Fraction) for p, c in expected]
    reduced = qb.reduce(elem(q, (["z", "y", "x"], 1)))
    expected = [(q.path(["y", "x", "x"]), 3), (q.path(["x", "y", "x"]), -2),
                (q.path(["x", "x"]), -1)]
    assert [(p, c, type(c)) for p, c in reduced.terms.items()] == [
        (p, Fraction(c), Fraction) for p, c in expected]


def test_quotient_with_a_leading_word_of_slack_one():
    # r = x*x - y on two loops.  The overlap x*x*x gives r*x - x*r = x*y -
    # y*x, of sugar 3 and leading word y*x of weight 2: slack 1.  So at
    # bound 3 y*x is off the basis, while y*x*y and the other words of
    # weight 3 through y*x stay: they would need sugar 4.  By hand, V_3 is
    # spanned by r, x*r, r*x, y*r and r*y, whose leading words are x*x,
    # x*x*x, y*x (from r*x - x*r), y*x*x and x*x*y; 15 words minus 5.
    q = QuiverPresentation(["v"], [Arrow("x", "v", "v"), Arrow("y", "v", "v")])
    r = elem(q, (["x", "x"], 1), (["y"], -1))
    qb = reduce_modulo_relations(q, [r], 3)
    by_weight = {}
    for p in qb.basis:
        by_weight.setdefault(len(p), []).append(str(p))
    assert by_weight == {0: ["e_v"], 1: ["x", "y"], 2: ["x*y", "y*y"],
                         3: ["x*y*x", "x*y*y", "y*x*y", "y*y*x", "y*y*y"]}
    # y*x*x = y*r + y*y and x*x*x = x*r + x*y; x*y*x is a basis word
    reduced = qb.reduce(elem(q, (["y", "x", "x"], 2), (["x", "y", "x"], 1),
                             (["y", "x"], 1), (["x", "x", "x"], -3)))
    assert list(reduced.terms.items()) == [(q.path(["x", "y", "x"]), Fraction(1)),
                                           (q.path(["y", "y"]), Fraction(2)),
                                           (q.path(["x", "y"]), Fraction(-2))]
    # at bound 2 only r fits, and y*x is a basis word
    assert [str(p) for p in reduce_modulo_relations(q, [r], 2).basis] == [
        "e_v", "x", "y", "x*y", "y*x", "y*y"]
