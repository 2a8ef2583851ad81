"""Ideals of the pullback ring R = {f in T : f(0) in D}.

Every finitely generated fractional ideal has the closed structured
form u * phi^-1(J0); the colon and the divisorial closure act on the
D-part alone, and a definitional membership oracle double-checks the
closed forms.
"""

from fractions import Fraction

from starpull import (
    RatFunc,
    RawIdeal,
    StarOp,
    colon_R,
    m_ideal,
    make_instance,
    member_R,
    oracle_colon_member,
    oracle_v_member,
    pretty_value,
    star_eval,
    structured_hull,
    t_ideal_of_r,
)

A = make_instance("A")   # D = Z inside T = Q[X]
X = RatFunc.x_power(1)
v = StarOp.divisorial("R")   # the divisorial closure on R
half = RatFunc.coerce(Fraction(1, 2))

print("membership in R = Z + X*Q[X]:")
print("  X/2 in R :", member_R(X * half, A))
print("  1/2 in R :", member_R(half, A))
print()

I = RawIdeal([RatFunc.coerce(2), X])
print("I = (2, X)")
print("hull(I)  =", pretty_value(structured_hull(I, A), A))
print("I^-1     =", pretty_value(colon_R(I, A), A))
print("I^v      =", pretty_value(star_eval(v, I, A), A))
print()

print("conductor identities:")
print("  (R : T) =", pretty_value(colon_R(t_ideal_of_r(A), A), A))
print("  (R : M) =", pretty_value(colon_R(m_ideal(A), A), A))
print()

print("the oracles certify the closed forms definitionally:")
print("  1/2 in (R : I)?        ", oracle_colon_member(half, I, A))
print("  1/X in I^v?            ", oracle_v_member(RatFunc.x_power(-1), I, A).status)
verdict = oracle_v_member(RatFunc.x_power(-1), I, A)
print("  exclusion witness g =  ", verdict.witness, " with (1/X)*g outside R")
print()

D = make_instance("D")   # D = Z inside k = Q(i): not square-plus
J = RawIdeal([RatFunc.one(), RatFunc.coerce(2) * half])
from starpull.kernel import FieldElem, Poly
i_elem = RatFunc(Poly([FieldElem(0, 1, -1)]))
K = RawIdeal([RatFunc.one(), i_elem])
print("in instance D, the pair (1, i) collapses under colon:")
print("  (R : (1, i)) =", pretty_value(colon_R(K, D), D), " (the conductor M)")
print("  (1, i)^v     =", pretty_value(star_eval(v, K, D), D), " (all of T)")
