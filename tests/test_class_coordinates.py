"""Class coordinates round-trip on the test_01 corpus truncations.

For every presentation of the corpus realized at L = 2 and 3, over Q and
over F_101, and every degree of the window whose cohomology is nonzero, the
element x = sum c_k rep_k + d(y) must have class coordinates equal to the
nonzero c_k.  The product tables rarely feed in an element with an image
component; here every element has one, so the reduction by the image is
exercised directly.  A word whose differential is nonzero is no cocycle and
must have no class.
"""

import random
import warnings
from fractions import Fraction

import pytest
from test_acceptance import CORPUS, cubic_loop_potential, one_loop, three_cycle

from quiverdg.dgalgebra import UnsafeWindow, cohomology, realize
from quiverdg.fields import GroundField
from quiverdg.ginzburg import cy_completion, ginzburg
from quiverdg.quiver import PathAlgebraElement, Superpotential

FIELDS = (GroundField(0), GroundField(101))
COEFFS = (0, -1, 2, -3, 5, Fraction(7, 4), Fraction(-2, 9))


def corpus_over(field):
    out = [("%s n=%d" % (name, n), cy_completion(make(), n, field=field))
           for n in (1, 2, 3) for name, make, _ in CORPUS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the F_p warning of ginzburg
        out.append(("x^3", ginzburg(one_loop(), cubic_loop_potential(field))))
        out.append(("xyz", ginzburg(three_cycle(), Superpotential(
            three_cycle(), {("x", "y", "z"): 1}, field=field))))
    return out


def element(field, rng, words):
    return PathAlgebraElement({w: field.of(rng.choice(COEFFS)) for w in words})


@pytest.mark.parametrize("weight_bound", (2, 3))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_class_coordinates_round_trip(field, weight_bound):
    rng = random.Random(weight_bound * 1000 + field.characteristic)
    seen_image = seen_non_cocycle = 0
    for label, presentation in corpus_over(field):
        t = realize(presentation, (-6, 0), weight_bound)
        for degree in range(-6, 1):
            try:
                coh = cohomology(t, (degree, degree))
            except UnsafeWindow:
                continue
            reps = coh.representatives[degree]
            if not reps:
                continue
            coeffs = [field.of(rng.choice(COEFFS)) for _ in reps]
            x = PathAlgebraElement()
            for c, rep in zip(coeffs, reps):
                x = x + c * rep
            sources = [w for w in t.words(degree - 1) if t.d_of(w) is not None]
            y = element(field, rng, rng.sample(sources, min(len(sources), 4)))
            dy = t.d_element(y)
            seen_image += not dy.is_zero()
            want = {k: c for k, c in enumerate(coeffs) if c}
            assert coh.class_coordinates(degree, x + dy) == want, (label, degree)
            for w in t.words(degree):
                if t.d_of(w):
                    seen_non_cocycle += 1
                    one = PathAlgebraElement.from_path(w, field.one())
                    assert coh.class_coordinates(degree, one) is None, (label, degree, w)
                    break
    assert seen_image and seen_non_cocycle
