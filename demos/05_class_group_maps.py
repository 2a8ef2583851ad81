"""The three canonical class maps on instance C (class number two).

alpha pulls a D-ideal back to R, beta = extend_to_T extends to T
(always hitting the trivial class there), and gamma reads the D-class
back off.  Together they exhibit the class group of R as the class
group of D.
"""

from starpull import (
    RatFunc,
    RawIdeal,
    StarOp,
    alpha,
    class_equivalent_R,
    class_label_D,
    extend_to_T,
    gamma,
    ideal_arith,
    invertibility_R,
    is_principal_R,
    make_instance,
    pretty_value,
    star_eval,
)
from starpull.base_domain import dmod_from_generators
from starpull.kernel import FieldElem

C = make_instance("C")
t = StarOp.t_op("R")

P = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], C.base)
print("P = (2, 1+sqrt(-5)), label", class_label_D(P))
image = alpha(P, C)
print("alpha(P) =", pretty_value(image, C))

witness = invertibility_R(image, t, C)
print("certificate:", witness.certificate)
print("principal? ", is_principal_R(image, C))
print("beta(alpha(P)) =", pretty_value(extend_to_T(image, C), C), "(trivial T-class)")
print("gamma(alpha(P)) =", gamma(image, C), "= label(P):",
      gamma(image, C) == class_label_D(P))
print()

square = star_eval(t, ideal_arith(image, image, "mul", C), C)
print("alpha(P)^2 =", pretty_value(square, C))
print("generator  =", is_principal_R(square, C), "(the class has order two)")
print()

print("alpha is injective on classes:")
unit = C.base.unit_module()
print("  [alpha(O_K)] == [alpha(P)]?",
      class_equivalent_R(alpha(unit, C), image, t, C))
print("scaling does not move the class:")
z_image = ideal_arith(RawIdeal([RatFunc.x_power(2)]), image, "mul", C)
print("  [X^2 * alpha(P)] == [alpha(P)]?",
      class_equivalent_R(z_image, image, t, C))
