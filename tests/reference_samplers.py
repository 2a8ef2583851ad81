"""Reference samplers for tests: the former scalar samplers, which build
each coefficient through ``Fraction`` coordinates.

These draw every coefficient as two ``Fraction``s and pass them to
``FieldElem.__init__``, and divide by a sampled denominator through
``RatFunc.__truediv__``, where the library's samplers keep the drawn
integers and build one reduced scalar and one ``RatFunc`` each.
``test_harness.py`` checks that both return equal values and leave the
random generator in equal states.  The library does not use this module.
"""

from fractions import Fraction

from starpull.harness import MAX_DEGREE
from starpull.kernel import FieldElem, Poly, RatFunc


def sample_fraction(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, 3))


def sample_scalar(rng, inst, height, nonzero=False, allow_surd=True):
    while True:
        x = sample_fraction(rng, height)
        y = Fraction(0)
        if allow_surd and inst.k_disc != 1 and rng.random() < 0.5:
            y = sample_fraction(rng, height)
        e = FieldElem(x, y, inst.k_disc)  # the tag drops to 1 when y == 0
        if not e.is_zero() or not nonzero:
            return e


def sample_poly(rng, inst, height):
    while True:
        deg = rng.randint(0, MAX_DEGREE)
        p = Poly([sample_scalar(rng, inst, height) for _ in range(deg + 1)])
        if not p.is_zero():
            return p


def sample_ratfunc(rng, inst, params):
    num = sample_poly(rng, inst, params.coeff_height)
    f = RatFunc(num)
    roll = rng.random()
    if roll < 0.2:
        den = Poly([sample_scalar(rng, inst, params.coeff_height, nonzero=True),
                    FieldElem(1)])
        f = f / RatFunc(den)
    if rng.random() < 0.25:
        f = f.shift(rng.randint(-2, 2))
    return f
