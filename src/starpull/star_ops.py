"""Star operations as first-class evaluable values.

A ``StarOp`` is a descriptor: the identity d, the divisorial closure v,
its finite-type companion t, meets, the projection of an R-side
operation to D, the lift of a D-side operation to R, the extension and
restriction of an R-side operation to T, and operations induced by the
overring T.  Each descriptor carries the ring it acts on ("D", "R" or
"T"); evaluation dispatches on that target and rejects anything the
closed calculus cannot represent, rather than approximating.

Stable/w-style descriptors can be built but never evaluated directly;
class-group computations route them through their finite-type
counterparts.
"""

from __future__ import annotations

from .base_domain import (
    DomainError,
    ExtDModule,
    dmod_arith,
    dmod_intersect,
    dmod_scale,
    dmod_v,
)
from .kernel import Frozen, FrozenValue, RatFunc
from .pullback import (
    PullbackInstance,
    StructuredIdeal,
    as_structured,
    contains_ideal,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    inverse_image_R,
    make_structured,
    r_ideal,
    t_ideal_of_r,
    v_closure_R,
)


class StarEvalError(ValueError):
    """Evaluation requested outside the defined domain of an operation."""


_SIMPLE_KINDS = ("d", "v", "t")
_WRAPPED_KINDS = ("finite_type", "projected", "lifted", "extended_T", "restricted_T",
                  "overring_induced", "stable")


class StarOp(FrozenValue):
    """Closure-operation descriptor with an evaluation target ring."""

    __slots__ = ("kind", "target", "operands")

    def __init__(self, kind: str, target: str, operands=()):
        if target not in ("D", "R", "T"):
            raise StarEvalError(f"unknown target ring {target!r}")
        if kind not in _SIMPLE_KINDS + _WRAPPED_KINDS + ("meet", "w"):
            raise StarEvalError(f"unknown star-operation kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "operands", tuple(operands))

    def __repr__(self):
        if self.operands:
            inner = ", ".join(repr(o) for o in self.operands)
            return f"StarOp({self.kind}[{inner}], target={self.target})"
        return f"StarOp({self.kind}, target={self.target})"

    def __str__(self):
        names = {"d": "d", "v": "v", "t": "t", "w": "w", "finite_type": "ft",
                 "projected": "proj", "lifted": "lift", "extended_T": "extT",
                 "restricted_T": "restT", "overring_induced": "ovr", "stable": "stable"}
        if self.kind == "meet":
            return f"meet({self.operands[0]},{self.operands[1]})"
        if self.operands:
            return f"{names[self.kind]}({self.operands[0]})"
        return names[self.kind]

    # -- constructors -------------------------------------------------------
    @staticmethod
    def identity(target: str = "R") -> "StarOp":
        return StarOp("d", target)

    @staticmethod
    def divisorial(target: str = "R") -> "StarOp":
        return StarOp("v", target)

    @staticmethod
    def t_op(target: str = "R") -> "StarOp":
        return StarOp("t", target)

    @staticmethod
    def w_op(target: str = "R") -> "StarOp":
        return StarOp("w", target)

    @staticmethod
    def finite_type(op: "StarOp") -> "StarOp":
        return StarOp("finite_type", op.target, (op,))

    @staticmethod
    def stable(op: "StarOp") -> "StarOp":
        return StarOp("stable", op.target, (op,))

    @staticmethod
    def projected(op_r: "StarOp") -> "StarOp":
        if op_r.target != "R":
            raise StarEvalError("projection takes an R-side operation")
        return StarOp("projected", "D", (op_r,))

    @staticmethod
    def lifted(op_d: "StarOp") -> "StarOp":
        if op_d.target != "D":
            raise StarEvalError("lifting takes a D-side operation")
        return StarOp("lifted", "R", (op_d,))

    @staticmethod
    def extended_T(op_r: "StarOp") -> "StarOp":
        if op_r.target != "R":
            raise StarEvalError("extension takes an R-side operation")
        return StarOp("extended_T", "T", (op_r,))

    @staticmethod
    def restricted_T(op_r: "StarOp") -> "StarOp":
        if op_r.target != "R":
            raise StarEvalError("restriction takes an R-side operation")
        return StarOp("restricted_T", "T", (op_r,))

    @staticmethod
    def overring_induced(op_t: "StarOp") -> "StarOp":
        if op_t.target != "T":
            raise StarEvalError("overring induction takes a T-side operation")
        return StarOp("overring_induced", "R", (op_t,))


def star_meet(op1: StarOp, op2: StarOp) -> StarOp:
    """Pointwise intersection of two operations on the same ring."""
    if op1.target != op2.target:
        raise StarEvalError("meet operands must share a target ring")
    return StarOp("meet", op1.target, (op1, op2))


def is_star_kind(op: StarOp) -> bool:
    """True when the descriptor is a genuine star operation (fixes its ring)."""
    if op.kind in ("d", "v", "t", "w", "lifted", "projected", "extended_T", "stable"):
        return True
    if op.kind == "finite_type":
        return is_star_kind(op.operands[0])
    if op.kind == "restricted_T":
        return True
    if op.kind == "meet":
        return any(is_star_kind(o) for o in op.operands)
    return False


def class_resolve(op: StarOp) -> StarOp:
    """Replace stable/w descriptors by their finite-type counterparts.

    Invertible-ideal groups agree between a stable operation and its
    finite-type companion, so class computations evaluate the latter.
    """
    if op.kind == "w":
        return StarOp("t", op.target)
    if op.kind == "stable":
        return class_resolve(StarOp.finite_type(op.operands[0]))
    if op.operands:
        return StarOp(op.kind, op.target, tuple(class_resolve(o) for o in op.operands))
    return op


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def star_eval(op: StarOp, value, inst: PullbackInstance):
    """Evaluate a star operation on an ideal value of its target ring."""
    if not is_star_kind(op):
        raise StarEvalError(f"{op} is not evaluable as a star operation")
    return _eval(op, value, inst)


def _eval(op: StarOp, value, inst: PullbackInstance):
    if op.kind == "w" or op.kind == "stable":
        raise StarEvalError("stable operations are descriptors only; "
                            "route class statements through their finite-type companions")
    if op.kind == "finite_type":
        # identity semantics on finitely generated and structured inputs
        return _eval(op.operands[0], value, inst)
    if op.target == "D":
        return _eval_d_side(op, _expect_dmod(value, inst), inst)
    if op.target == "T":
        return _eval_t_side(op, _expect_tideal(value), inst)
    return _eval_r_side(op, value, inst)


def _expect_dmod(value, inst: PullbackInstance) -> ExtDModule:
    if not isinstance(value, ExtDModule):
        raise StarEvalError("a D-side operation needs an ExtDModule value")
    if value.domain != inst.base:
        raise DomainError("mixed base domains")
    return value


def _expect_tideal(value) -> StructuredIdeal:
    if isinstance(value, StructuredIdeal) and value.is_t_module():
        return value
    raise StarEvalError("a T-side operation needs a fractional T-ideal")


def _eval_d_side(op: StarOp, n: ExtDModule, inst: PullbackInstance) -> ExtDModule:
    if op.kind == "d":
        return n
    if op.kind in ("v", "t"):
        return dmod_v(n)
    if op.kind == "meet":
        a = _eval(op.operands[0], n, inst)
        b = _eval(op.operands[1], n, inst)
        return dmod_intersect(a, b)
    if op.kind == "projected":
        inner = op.operands[0]
        s = _eval(inner, inverse_image_R(n, inst), inst)
        s = as_structured(s, inst)
        # make_structured leaves a unit of T as 1, so any other unit part
        # is an ideal that is not phi^-1 of a D-ideal
        if not s.unit.is_one() or s.dpart.is_full():
            raise StarEvalError("projection left the fractional ideals of D")
        return s.dpart
    raise StarEvalError(f"{op} is not defined on D-side ideals")


def _eval_t_side(op: StarOp, t: StructuredIdeal, inst: PullbackInstance) -> StructuredIdeal:
    # t = u*T is principal, hence divisorial: d, v and t all fix it
    if op.kind in ("d", "v", "t"):
        return t
    if op.kind == "meet":
        s = _intersect_structured(_eval(op.operands[0], t, inst),
                                  _eval(op.operands[1], t, inst), inst)
        if not s.is_t_module():
            raise StarEvalError("intersection left the fractional T-ideals")
        return s
    if op.kind == "extended_T":
        meetv = _intersect_structured(_eval(op.operands[0], t, inst), t, inst)
        if not meetv.is_t_module():
            raise StarEvalError("extension produced a non-T-module")
        return meetv
    if op.kind == "restricted_T":
        closed = _eval(op.operands[0], t, inst)
        if not closed.is_t_module():
            raise StarEvalError("restriction is not a T-ideal here")
        return closed
    raise StarEvalError(f"{op} is not defined on T-side ideals")


def _eval_r_side(op: StarOp, value, inst: PullbackInstance):
    if op.kind == "d":
        return value
    if op.kind in ("v", "t"):
        return v_closure_R(value, inst)
    if op.kind == "lifted":
        s = as_structured(value, inst)
        inner = op.operands[0]
        if s.dpart.is_full():
            new_dpart = s.dpart
        else:
            new_dpart = _eval(inner, s.dpart, inst)
        return make_structured(s.unit, new_dpart, inst)
    if op.kind == "overring_induced":
        raise StarEvalError("an overring-induced operation is semistar on R; "
                            "evaluate it inside a meet with a star operation")
    if op.kind == "meet":
        parts = [_eval_meet_component(o, value, inst) for o in op.operands]
        return _intersect_structured(parts[0], parts[1], inst)
    raise StarEvalError(f"{op} is not defined on R-side ideals")


def _eval_meet_component(op: StarOp, value, inst: PullbackInstance) -> StructuredIdeal:
    if op.kind == "overring_induced":
        return _eval(op.operands[0], extend_to_T(value, inst), inst)
    return as_structured(_eval(op, value, inst), inst)


def _intersect_structured(a: StructuredIdeal, b: StructuredIdeal, inst: PullbackInstance) -> StructuredIdeal:
    """Intersection inside the structured class; same T-content only."""
    if a.unit != b.unit:
        # one-sided containment still gives an exact answer
        if contains_ideal(a, b, inst):
            return b
        if contains_ideal(b, a, inst):
            return a
        raise StarEvalError("non-representable intersection "
                            "(unit parts with distinct T-contents)")
    if a.dpart.is_full():
        return b
    if b.dpart.is_full():
        return a
    return make_structured(a.unit, dmod_intersect(a.dpart, b.dpart), inst)


# ---------------------------------------------------------------------------
# order and axiom reports
# ---------------------------------------------------------------------------

class CheckReport(Frozen):
    """Violation list for a sampled property check; empty means pass."""

    __slots__ = ("name", "violations")

    def __init__(self, name: str, violations):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "violations", tuple(violations))

    @property
    def passed(self) -> bool:
        return not self.violations

    def __repr__(self):
        state = "pass" if self.passed else f"{len(self.violations)} violations"
        return f"CheckReport({self.name!r}, {state})"


def _contains_value(big, small, inst) -> bool:
    if isinstance(big, ExtDModule):
        if big.is_full():
            return True
        if small.is_zero():
            return True
        if small.is_full():
            return False
        return all(big.contains(x) for x in small.basis_elements())
    return contains_ideal(big, small, inst)


def star_leq_check(op1: StarOp, op2: StarOp, samples, inst: PullbackInstance) -> CheckReport:
    """Report every sample where op1's value is not inside op2's value."""
    violations = []
    for i, sample in enumerate(samples):
        a = star_eval(op1, sample, inst)
        b = star_eval(op2, sample, inst)
        if not _contains_value(b, a, inst):
            violations.append({"sample": i, "value": repr(sample)})
    return CheckReport(f"{op1} <= {op2}", violations)


def _values_equal(a, b, inst) -> bool:
    if isinstance(a, ExtDModule) or isinstance(b, ExtDModule):
        return a == b
    return ideal_equal(a, b, inst)


def _scale_value(z, value, inst):
    if isinstance(value, ExtDModule):
        return dmod_scale(z, value)
    s = as_structured(value, inst)
    return make_structured(s.unit * RatFunc.coerce(z), s.dpart, inst)


def _ring_value(op: StarOp, inst: PullbackInstance):
    if op.target == "D":
        return inst.base.unit_module()
    if op.target == "T":
        return t_ideal_of_r(inst)
    return r_ideal(inst)


def _join_value(a, b, inst):
    if isinstance(a, ExtDModule):
        return dmod_arith(a, b, "add")
    return ideal_arith(a, b, "add", inst)


def star_axiom_check(op: StarOp, samples, scalars, inst: PullbackInstance) -> CheckReport:
    """Exactness of the closure axioms on the given samples and scalars.

    Checks unit-ideal fixing, scalar equivariance, extensivity,
    idempotence, and monotonicity on nested pairs built by summation.
    """
    violations = []
    ring = _ring_value(op, inst)
    samples = list(samples)
    for z in scalars:
        scaled_ring = _scale_value(z, ring, inst)
        if not _values_equal(star_eval(op, scaled_ring, inst), scaled_ring, inst):
            violations.append({"axiom": "principal-fixed", "scalar": repr(z)})
    for i, sample in enumerate(samples):
        closed = star_eval(op, sample, inst)
        if not _contains_value(closed, sample, inst):
            violations.append({"axiom": "extensive", "sample": i})
        if not _values_equal(star_eval(op, closed, inst), closed, inst):
            violations.append({"axiom": "idempotent", "sample": i})
        for z in scalars:
            lhs = star_eval(op, _scale_value(z, sample, inst), inst)
            if not _values_equal(lhs, _scale_value(z, closed, inst), inst):
                violations.append({"axiom": "scalar-equivariant", "sample": i, "scalar": repr(z)})
        bigger = _join_value(sample, samples[(i + 1) % len(samples)], inst)
        if not _contains_value(star_eval(op, bigger, inst), closed, inst):
            violations.append({"axiom": "monotone", "sample": i})
    return CheckReport(f"axioms({op})", violations)
