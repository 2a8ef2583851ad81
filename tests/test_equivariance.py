"""Equivariance under psi_c : X -> cX, an automorphism of the square.

For c in k^*, psi_c fixes T (K[X] and K[X]_(X) alike), M = X*T and the
value at zero, hence R, and it sends a closed form u * phi^-1(J) to
(u o psi_c) * phi^-1(J).  So every computed value must be transported
the way its input was: the colon, each implemented star operation, the
invertibility verdicts and whether a principal generator exists.  A
choice made on the representation rather than on the ideal (a unit
part's normalisation, a memo keyed on the wrong polynomial) breaks
this, while oracle-agreement, which shares those choices, may not see
it.  The transported values are built through the canonical
constructors, so canonical forms are compared.
"""

from fractions import Fraction

import pytest

from starpull.class_groups import invertibility_R, is_principal_R
from starpull.harness import SampleParams, sample_ideals
from starpull.kernel import FieldElem, Poly, RatFunc
from starpull.pullback import (
    RawIdeal,
    as_structured,
    colon_R,
    instance_catalog,
    make_instance,
    make_structured,
)
from starpull.star_ops import IMPLEMENTED_R_OPS, read_op, star_eval

OPS = [read_op(text, "R") for text in IMPLEMENTED_R_OPS]


def _scalars(inst):
    """c = 2, -3/2, and sqrt(d) where k is not Q."""
    out = [FieldElem(2), FieldElem(Fraction(-3, 2))]
    if inst.k_disc != 1:
        out.append(FieldElem(0, 1, inst.k_disc))
    return out


def _psi_poly(p, c):
    return Poly([p.coeffs[i] * c ** i for i in range(p.degree + 1)])


def _psi(value, c, inst):
    """value o psi_c for a RatFunc, a raw ideal or a closed form."""
    if isinstance(value, RatFunc):
        return RatFunc(_psi_poly(value.num, c), _psi_poly(value.den, c))
    if isinstance(value, RawIdeal):
        return RawIdeal([_psi(g, c, inst) for g in value.gens])
    return make_structured(_psi(value.unit, c, inst), value.dpart, inst)


@pytest.mark.parametrize("name", instance_catalog())
def test_psi_commutes_with_colon_star_eval_and_verdicts(name):
    inst = make_instance(name)
    ideals = sample_ideals(inst, SampleParams(seed=7, count=25))
    for c in _scalars(inst):
        for ideal in ideals:
            image = _psi(ideal, c, inst)
            assert colon_R(image, inst) == _psi(colon_R(ideal, inst), c, inst), (c, ideal)
            closed, closed_image = as_structured(ideal, inst), as_structured(image, inst)
            assert closed_image == _psi(closed, c, inst), (c, ideal)
            for op in OPS:
                got = as_structured(star_eval(op, image, inst), inst)
                want = _psi(as_structured(star_eval(op, ideal, inst), inst), c, inst)
                assert got == want, (c, op, ideal)
                w, w_image = invertibility_R(closed, op, inst), invertibility_R(closed_image, op, inst)
                assert (w.is_invertible, w.is_star_invertible) == \
                    (w_image.is_invertible, w_image.is_star_invertible), (c, op, ideal)
            assert (is_principal_R(closed, inst) is None) == \
                (is_principal_R(closed_image, inst) is None), (c, ideal)
