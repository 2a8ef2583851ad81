"""The canonical class maps between D, R and T, at the ideal level.

alpha sends a D-ideal class to the class of its inverse image in R;
beta extends an R-ideal to T; gamma reads off the divisorial class of
the value module of an R-ideal.  Together with the principality and
invertibility tests these realize the star class groups of the
catalogued instances, where gamma is a complete invariant because every
fractional T-ideal is principal.
"""

from __future__ import annotations

from .base_domain import (
    ClassLabel,
    ExtDModule,
    class_label_D,
    dmod_predicates,
    dmod_v,
    identity_label,
)
from .kernel import Poly, RatFunc
from .pullback import (
    PullbackInstance,
    RawIdeal,
    StructuredIdeal,
    as_structured,
    colon_R,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    inverse_image_R,
    r_ideal,
)
from .star_ops import StarOp, class_resolve, star_eval


class ClassGroupError(ValueError):
    """Precondition failure in a class-map computation."""


def alpha(j: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """Inverse image of a divisorially invertible D-ideal.

    Well-defined on classes because units of T hit every class of
    k^x/U(D); the instance flag records that.
    """
    if not inst.phi_tilde_surjective:
        raise ClassGroupError("alpha needs the unit map onto k^x/U(D) to be surjective")
    if not dmod_predicates(j, inst.base).is_v_invertible:
        raise ClassGroupError("alpha needs an invertible D-ideal")
    return inverse_image_R(j, inst)


def beta(h, inst: PullbackInstance, check_invertible: bool = False,
         op: StarOp | None = None) -> StructuredIdeal:
    """Extension to T, the structured ideal u * phi^-1(k); for class
    semantics the input must be invertible."""
    if check_invertible:
        witness = invertibility_R(h, op or StarOp.t_op("R"), inst)
        if not witness.is_star_invertible:
            raise ClassGroupError("beta class semantics need a star-invertible ideal")
    return extend_to_T(h, inst)


def gamma(h, inst: PullbackInstance) -> ClassLabel:
    """Divisorial D-class of a t-invertible R-ideal."""
    if not inst.is_square_plus:
        raise ClassGroupError("gamma needs k to be the quotient field of D")
    s = as_structured(h, inst)
    if s.dpart.is_full():
        raise ClassGroupError("gamma needs an invertible input; T-modules are not")
    if not dmod_predicates(s.dpart, inst.base).is_v_invertible:
        raise ClassGroupError("gamma needs a t-invertible input")
    # labels ignore scaling and dmod_v(c*J) == c * J^v, so a fractional J will do
    return class_label_D(dmod_v(s.dpart, inst.base), inst.base)


def is_principal_R(h, inst: PullbackInstance) -> RatFunc | None:
    """A generator when the ideal is principal over R, else None.

    T-modules (FULL dpart, including M) are never finitely generated
    over R, hence never principal.
    """
    s = as_structured(h, inst)
    if s.dpart.is_full():
        return None
    gen = dmod_predicates(s.dpart, inst.base).is_cyclic
    if gen is None:
        return None
    return s.unit * RatFunc.coerce(Poly.const(gen))


class RClassWitness:
    """Replayable invertibility certificate for an R-ideal."""

    __slots__ = ("ideal", "op", "product", "principal_gen", "is_invertible",
                 "is_star_invertible")

    def __init__(self, ideal, op, product, principal_gen, is_invertible, is_star_invertible):
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "principal_gen", principal_gen)
        object.__setattr__(self, "is_invertible", is_invertible)
        object.__setattr__(self, "is_star_invertible", is_star_invertible)

    def __setattr__(self, name, value):
        raise AttributeError("RClassWitness is immutable")

    @property
    def certificate(self) -> str:
        if self.principal_gen is not None:
            return "principal"
        if self.is_invertible:
            return "invertible"
        if self.is_star_invertible:
            return "star_invertible"
        return "none"

    def replay(self, inst: PullbackInstance) -> bool:
        """Re-derive every claimed fact by direct multiplication."""
        product = ideal_arith(self.ideal, colon_R(self.ideal, inst), "mul", inst)
        if not ideal_equal(product, self.product, inst):
            return False
        r = r_ideal(inst)
        if self.is_invertible != ideal_equal(product, r, inst):
            return False
        closed = star_eval(class_resolve(self.op), product, inst)
        if self.is_star_invertible != ideal_equal(closed, r, inst):
            return False
        if self.principal_gen is not None:
            gen_ideal = RawIdeal([self.principal_gen])
            if not ideal_equal(gen_ideal, self.ideal, inst):
                return False
        return True

    def __repr__(self):
        return f"RClassWitness({self.certificate}, op={self.op})"


def invertibility_R(h, op: StarOp, inst: PullbackInstance) -> RClassWitness:
    """Direct and star-closed invertibility of H, with witnesses."""
    product = ideal_arith(h, colon_R(h, inst), "mul", inst)
    r = r_ideal(inst)
    invertible = ideal_equal(product, r, inst)
    closed = star_eval(class_resolve(op), product, inst)
    star_invertible = ideal_equal(closed, r, inst)
    return RClassWitness(
        ideal=h,
        op=op,
        product=as_structured(product, inst),
        principal_gen=is_principal_R(h, inst),
        is_invertible=invertible,
        is_star_invertible=star_invertible,
    )


def class_equivalent_R(h1, h2, op: StarOp, inst: PullbackInstance) -> bool:
    """Equality of classes: the closed quotient H1*H2^-1 is principal."""
    for h in (h1, h2):
        if not invertibility_R(h, op, inst).is_star_invertible:
            raise ClassGroupError("class comparison needs star-invertible ideals")
    quotient = ideal_arith(h1, colon_R(h2, inst), "mul", inst)
    closed = star_eval(class_resolve(op), quotient, inst)
    return is_principal_R(closed, inst) is not None


def class_label_R(h, inst: PullbackInstance, op: StarOp | None = None) -> ClassLabel:
    """Class of an invertible R-ideal, through the D-side reduction.

    The extension of any invertible ideal to T is principal in the
    catalogued instances, so the D-side label is a complete invariant.
    """
    op = op or StarOp.t_op("R")
    witness = invertibility_R(h, op, inst)
    if not witness.is_star_invertible:
        raise ClassGroupError("class label of a non-invertible ideal")
    if inst.is_square_plus:
        return gamma(h, inst)
    s = as_structured(h, inst)
    if is_principal_R(s, inst) is not None:
        return identity_label(inst.base)
    raise ClassGroupError("no finite label for this instance")
