"""The canonical class maps between D, R and T, at the ideal level.

alpha sends a D-ideal class to the class of its inverse image in R,
and gamma reads off the divisorial class of the value module of an
R-ideal; the extension to T is pullback.extend_to_T.  Together with
the principality and invertibility tests these realize the star class
groups of every catalogued instance, whether or not k is the quotient
field of D; gamma is a complete invariant because every fractional
T-ideal is principal.
"""

from __future__ import annotations

from .base_domain import (
    ClassLabel,
    ExtDModule,
    _memo_put,
    class_label_D,
    dmod_predicates,
)
from .kernel import Frozen, RatFunc
from .pullback import (
    PullbackInstance,
    StructuredIdeal,
    as_structured,
    colon_R,
    ideal_arith,
    ideal_equal,
    inverse_image_R,
    r_ideal,
)
from .star_ops import StarOp, class_resolve, star_eval


class ClassGroupError(ValueError):
    """Precondition failure in a class-map computation."""


def alpha(j: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """Inverse image of an invertible D-ideal, which on every catalogued D
    is the same as divisorially invertible; well-defined on classes, as
    k^x / (D^x * phi(U(T))) is trivial: K^x lies in U(T) and phi fixes it."""
    if not dmod_predicates(j).is_invertible:
        raise ClassGroupError("alpha needs an invertible D-ideal")
    return inverse_image_R(j, inst)


def gamma(h, inst: PullbackInstance) -> ClassLabel:
    """Divisorial D-class of a t-invertible R-ideal, read off its D-part
    J, which is divisorial, so J = J^v.

    Defined for every D inside k: an order's k is its own quotient
    field, and Z and Q each have one class, so on any other D every
    label is the trivial one.
    """
    s = as_structured(h, inst)
    if s.dpart.is_full():
        raise ClassGroupError("gamma needs an invertible input; T-modules are not")
    if not dmod_predicates(s.dpart).is_invertible:
        raise ClassGroupError("gamma needs a t-invertible input")
    # labels ignore scaling, so a fractional J will do
    return class_label_D(s.dpart)


def is_principal_R(h, inst: PullbackInstance) -> RatFunc | None:
    """A generator when the ideal is principal over R, else None: u*x for
    the closed form u*phi^-1(xD).

    T-modules (FULL dpart, including M) are never finitely generated
    over R, hence never principal: is_cyclic is None on the sentinel.
    The generator search runs once per D-part, in dmod_predicates.
    """
    s = as_structured(h, inst)
    gen = dmod_predicates(s.dpart).is_cyclic
    return None if gen is None else s.unit * gen


class RClassWitness(Frozen):
    """Invertibility of an R-ideal H: the closure (H * (R : H))^op,
    whether the product and its closure are R, and a principal generator
    of H or None.  The generator is looked up when ``principal_gen`` is
    read, since most callers need just the verdicts; the search behind
    is_principal_R runs once per D-module."""

    __slots__ = ("closed", "is_invertible", "is_star_invertible", "_ideal", "_inst")

    def __init__(self, closed, is_invertible, is_star_invertible, ideal, inst):
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "is_invertible", is_invertible)
        object.__setattr__(self, "is_star_invertible", is_star_invertible)
        object.__setattr__(self, "_ideal", ideal)
        object.__setattr__(self, "_inst", inst)

    @property
    def principal_gen(self) -> RatFunc | None:
        return is_principal_R(self._ideal, self._inst)

    @property
    def certificate(self) -> str:
        if self.principal_gen is not None:
            return "principal"
        if self.is_invertible:
            return "invertible"
        if self.is_star_invertible:
            return "star_invertible"
        return "none"

    def __repr__(self):
        return f"RClassWitness({self.certificate})"


_INVERTIBILITY_CACHE: dict[tuple[StructuredIdeal, StarOp, PullbackInstance], RClassWitness] = {}


def invertibility_R(h, op: StarOp, inst: PullbackInstance) -> RClassWitness:
    """Direct and star-closed invertibility of H, with witnesses; the one
    place that closes H * (R : H).  The witness of a closed form is
    computed once per operation and instance and then read from a memo."""
    closed_form = isinstance(h, StructuredIdeal)
    if closed_form and (cached := _INVERTIBILITY_CACHE.get((h, op, inst))) is not None:
        return cached
    product = ideal_arith(h, colon_R(h, inst), "mul", inst)
    r = r_ideal(inst)
    closed = star_eval(class_resolve(op), product, inst)
    witness = RClassWitness(
        closed=closed,
        is_invertible=ideal_equal(product, r, inst),
        is_star_invertible=ideal_equal(closed, r, inst),
        ideal=h,
        inst=inst,
    )
    return _memo_put(_INVERTIBILITY_CACHE, (h, op, inst), witness) if closed_form else witness


def class_equivalent_R(h1, h2, op: StarOp, inst: PullbackInstance) -> bool:
    """Equality of classes: the closed quotient H1*H2^-1 is principal."""
    for h in (h1, h2):
        if not invertibility_R(h, op, inst).is_star_invertible:
            raise ClassGroupError("class comparison needs star-invertible ideals")
    quotient = ideal_arith(h1, colon_R(h2, inst), "mul", inst)
    closed = star_eval(class_resolve(op), quotient, inst)
    return is_principal_R(closed, inst) is not None
