"""Star operations as evaluable values and their combinator algebra.

The lift of the D-side divisorial operation coincides with the R-side
one; projection undoes lifting; the extension (*)_T of an operation to
T evaluates it on the fractional T-ideals; and the meet of a lifted
operation with an overring-induced one reproduces the divisorial closure.
The order d <= t <= v and the closure axioms are read off star-laws reports.
"""

from starpull import (
    RatFunc,
    RawIdeal,
    SampleParams,
    StarOp,
    extend_to_T,
    ideal_equal,
    make_instance,
    m_ideal,
    pretty_value,
    run_suite,
    star_eval,
    star_meet,
    structured_hull,
    value_to_expr,
)
from starpull.kernel import FieldElem, Poly
from starpull.base_domain import dmod_from_generators
from starpull.star_ops import IMPLEMENTED_R_OPS, read_op

A = make_instance("A")
C = make_instance("C")
D = make_instance("D")
X = RatFunc.x_power(1)

d_r, v_r, t_r = StarOp.identity("R"), StarOp.divisorial("R"), StarOp.t_op("R")
v_d = StarOp.divisorial("D")

I = RawIdeal([RatFunc.coerce(2), X])
hull = structured_hull(I, A)

print("lift(v_D) evaluates like v_R:")
print("  lift(v_D)(hull) =", pretty_value(star_eval(StarOp.lifted(v_d), hull, A), A))
print("  v_R(I)          =", pretty_value(star_eval(v_r, I, A), A))
print()

P = dmod_from_generators([FieldElem(2), FieldElem(1, 1, -5)], C.base)
print("projection fixes the Dedekind prime:  proj(t_R)(P) == P :",
      star_eval(StarOp.projected(t_r), P, C) == P)
print("projection undoes lifting:            proj(lift(v_D))(P) == v_D(P) :",
      star_eval(StarOp.projected(StarOp.lifted(v_d)), P, C) == star_eval(v_d, P, C))
print()

cT = extend_to_T(RawIdeal([X + 1]), A)
print("extT(t_R) evaluates t_R on the T-ideal (X+1)T:",
      star_eval(StarOp.extended_T(t_r), cT, A) == star_eval(t_r, cT, A))
print()

mix = star_meet(StarOp.lifted(v_d), StarOp.overring_induced(StarOp.identity("T")))
print("meet(lift(v_D), ovr(d_T)) acts like v_R:",
      ideal_equal(star_eval(mix, hull, A), star_eval(v_r, I, A), A))
print()

params = SampleParams(seed=7, count=10)
report = run_suite("star-laws", A, params, t_r)
failed = {v["check"] for v in report.violations}
print(f"star-laws under t on instance A ({report.n_samples} samples): {report.verdict}")
print("  d <= t :", "extensive" not in failed)
print("  t <= v :", "below-v" not in failed)
print("  closure axioms for t:", not failed & {"extensive", "idempotent", "monotone",
                                                "principal-fixed", "scalar-equivariant"})
gaussian = RawIdeal([RatFunc.one(), RatFunc(Poly([FieldElem(0, 1, -1)]))])
on_d = run_suite("star-laws", D, params, v_r)
corner = next(r for r in on_d.records if r.get("ideal") == value_to_expr(gaussian, D))
print("  v <= d fails on (1, i) in D: v closes it to", corner["closure"])
print("every implemented operation fixes the conductor M:",
      all(ideal_equal(star_eval(read_op(text, "R"), m_ideal(A), A), m_ideal(A), A)
          for text in IMPLEMENTED_R_OPS))
