"""Equivariance under automorphisms of the square.

psi_c : X -> cX, for c in k^*, fixes T (K[X] and K[X]_(X) alike),
M = X*T and the value at zero, hence R, and it sends a closed form
u * phi^-1(J) to (u o psi_c) * phi^-1(J).  The conjugation sigma of k,
where k is not Q, acts on coefficients; it fixes R because every
catalogued D (Z, Z[sqrt(-5)], Q) is sigma-stable, and it sends
u * phi^-1(J) to sigma(u) * phi^-1(sigma(J)).  So every computed value
must be transported the way its input was: the colon, each implemented
star operation, the invertibility verdicts and whether a principal
generator exists; and sigma inverts each class label of D, since
J * sigma(J) = N(J) * D is principal.  A choice made on the
representation rather than on the ideal (a unit part's normalisation, a
memo keyed on the wrong polynomial) breaks this, while
oracle-agreement, which shares those choices, may not see it.  The
transported values are built through the canonical constructors, so
canonical forms are compared.

mu_a : X -> X/(1 + aX), for a in K, fixes the value at zero and the
X-order, and where T = K[X]_(X) it fixes T, since 1 + aX is a unit
there; it sends u * phi^-1(J) to (u o mu_a) * phi^-1(J).  As
(u o mu_a)/u is then a unit of R with value 1 at zero, mu_a fixes every
closed form, so its test checks that raw generators moved by such units
give the same values.  Under every map a generator of a principal ideal
goes to a generator of its image.
"""

from fractions import Fraction

import pytest

from starpull.base_domain import class_label_D, dmod_from_generators, dmod_predicates
from starpull.class_groups import invertibility_R, is_principal_R
from starpull.harness import SampleParams, sample_dmods, sample_ideals
from starpull.kernel import FieldElem, Poly, RatFunc
from starpull.pullback import (
    RawIdeal,
    as_structured,
    colon_R,
    ideal_equal,
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


def _mu_poly(p, y):
    """p(y) for a RatFunc y, by Horner."""
    out = RatFunc.zero()
    for c in reversed(p.coeffs):
        out = out * y + RatFunc.coerce(c)
    return out


def _mu(value, a, inst):
    """value o mu_a for a RatFunc, a raw ideal or a closed form."""
    if isinstance(value, RatFunc):
        y = RatFunc(Poly([0, 1]), Poly([1, a]))
        return _mu_poly(value.num, y) / _mu_poly(value.den, y)
    if isinstance(value, RawIdeal):
        return RawIdeal([_mu(g, a, inst) for g in value.gens])
    return make_structured(_mu(value.unit, a, inst), value.dpart, inst)


def _conj_poly(p):
    return Poly([c.conj() for c in p.coeffs])


def _sigma_dpart(j, inst):
    """sigma(J), spanned by the conjugated basis; 0 and k are fixed."""
    if not j.is_lattice():
        return j
    return dmod_from_generators([c.conj() for c in j.basis_elements()], inst.base)


def _sigma(value, inst):
    """The conjugate of a RatFunc, a raw ideal or a closed form."""
    if isinstance(value, RatFunc):
        return RatFunc(_conj_poly(value.num), _conj_poly(value.den))
    if isinstance(value, RawIdeal):
        return RawIdeal([_sigma(g, inst) for g in value.gens])
    return make_structured(_sigma(value.unit, inst), _sigma_dpart(value.dpart, inst), inst)


def _assert_transported(inst, ideals, move, name):
    """Each computed value of move(ideal) is move of the ideal's value."""
    for ideal in ideals:
        image = move(ideal)
        assert colon_R(image, inst) == move(colon_R(ideal, inst)), (name, ideal)
        closed, closed_image = as_structured(ideal, inst), as_structured(image, inst)
        assert closed_image == move(closed), (name, ideal)
        for op in OPS:
            got = as_structured(star_eval(op, image, inst), inst)
            want = move(as_structured(star_eval(op, ideal, inst), inst))
            assert got == want, (name, op, ideal)
            w, w_image = invertibility_R(closed, op, inst), invertibility_R(closed_image, op, inst)
            assert (w.is_invertible, w.is_star_invertible) == \
                (w_image.is_invertible, w_image.is_star_invertible), (name, op, ideal)
        gen = is_principal_R(closed, inst)
        assert (gen is None) == (is_principal_R(closed_image, inst) is None), (name, ideal)
        if gen is not None:
            assert ideal_equal(RawIdeal([move(gen)]), move(closed), inst), (name, ideal)


@pytest.mark.parametrize("name", instance_catalog())
def test_psi_commutes_with_colon_star_eval_and_verdicts(name):
    inst = make_instance(name)
    ideals = sample_ideals(inst, SampleParams(seed=7, count=25))
    for c in _scalars(inst):
        _assert_transported(inst, ideals, lambda value: _psi(value, c, inst), c)


@pytest.mark.parametrize("name", [name for name in instance_catalog()
                                  if make_instance(name).t.suffix == "_(X)"])
def test_mu_commutes_with_colon_star_eval_and_verdicts(name):
    inst = make_instance(name)
    ideals = sample_ideals(inst, SampleParams(seed=7, count=25))
    for a in (1, -3, 2):
        _assert_transported(inst, ideals, lambda value: _mu(value, a, inst), a)


@pytest.mark.parametrize("name", [name for name in instance_catalog()
                                  if make_instance(name).k_disc != 1])
def test_sigma_commutes_with_colon_star_eval_verdicts_and_labels(name):
    inst = make_instance(name)
    params = SampleParams(seed=7, count=25)
    ideals = sample_ideals(inst, params)
    _assert_transported(inst, ideals, lambda value: _sigma(value, inst), "sigma")
    dparts = [as_structured(ideal, inst).dpart for ideal in ideals] + sample_dmods(inst, params)
    labels = [(class_label_D(j), class_label_D(_sigma_dpart(j, inst))) for j in dparts
              if j.is_lattice() and dmod_predicates(j).is_invertible]
    assert labels and all(image == -label for label, image in labels), labels
    if inst.base.kind == "quadratic_order":
        # C's Cl(D) = Z/2: the sampled parts reach the class that is not trivial
        assert any(not label.is_identity() for label, _ in labels)
