"""Star operations as first-class evaluable values.

A ``StarOp`` is a descriptor: the identity d, the divisorial closure v,
its finite-type companion t, meets, the projection of an R-side
operation to D, the lift of a D-side operation to R, the extension
(*)_T : E -> E^* of an R-side operation to the fractional T-ideals, and
operations induced by the overring T.  Each descriptor carries the ring
it acts on ("D", "R" or "T"); one table declares each wrapping kind with
the rings of its operand and result, and a descriptor that disagrees
with it is refused when built.  Evaluation is one map on D-parts,
J -> J^op, applied once to the value's closed form:
(u*phi^-1(J))^op = u*phi^-1(J^op), so every operation keeps the unit
part.  A D-ideal J is phi^-1(J), as the projection *_phi reads it, and a
fractional T-ideal is u*T = u*phi^-1(k); each is checked to have its
shape on the way in and on the way out.  Anything the closed calculus
cannot represent is refused rather than approximated.

Stable/w-style descriptors can be built but never evaluated directly;
class-group computations route them through their finite-type
counterparts.
"""

from __future__ import annotations

from .base_domain import ExtDModule, dmod_intersect, dmod_v
from .kernel import Frozen, FrozenValue, RatFunc
from .pullback import (
    PullbackInstance,
    StructuredIdeal,
    as_structured,
    contains_ideal,
    ideal_arith,
    ideal_equal,
    inverse_image_R,
    make_structured,
    r_ideal,
    t_ideal_of_r,
)


class StarEvalError(ValueError):
    """Evaluation requested outside the defined domain of an operation."""


# the operations on R that the calculus implements, as read_op reads them
IMPLEMENTED_R_OPS = ("d", "v", "t", "lift(d)", "lift(v)", "meet(lift(v),ovr(d))")


# each wrapping kind once: (printed name, operand target, result target);
# "" is any ring, the same for the operand and the result
_WRAPPERS = {
    "finite_type": ("ft", "", ""),
    "stable": ("stable", "", ""),
    "projected": ("proj", "R", "D"),
    "lifted": ("lift", "D", "R"),
    "extended_T": ("extT", "R", "T"),
    "overring_induced": ("ovr", "T", "R"),
}


class StarOp(FrozenValue):
    """Closure-operation descriptor with an evaluation target ring."""

    __slots__ = ("kind", "target", "operands")

    def __init__(self, kind: str, target: str, operands=()):
        if target not in ("D", "R", "T"):
            raise StarEvalError(f"unknown target ring {target!r}")
        if kind not in _WRAPPERS and kind not in ("d", "v", "t", "w", "meet"):
            raise StarEvalError(f"unknown star-operation kind {kind!r}")
        operands = tuple(operands)
        if kind == "meet" and [o.target for o in operands] != [target, target]:
            raise StarEvalError("meet takes two operations on one target ring")
        if kind in _WRAPPERS:
            name, source, result = _WRAPPERS[kind]
            source, result = source or target, result or target
            if [o.target for o in operands] != [source] or result != target:
                raise StarEvalError(f"{name} takes one {source}-side operation to {result}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "operands", operands)

    def __repr__(self):
        if self.operands:
            inner = ", ".join(repr(o) for o in self.operands)
            return f"StarOp({self.kind}[{inner}], target={self.target})"
        return f"StarOp({self.kind}, target={self.target})"

    def __str__(self):
        if self.kind == "meet":
            return f"meet({self.operands[0]},{self.operands[1]})"
        if self.kind in _WRAPPERS:
            return f"{_WRAPPERS[self.kind][0]}({self.operands[0]})"
        return self.kind

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
        return _wrap("finite_type", op)

    @staticmethod
    def stable(op: "StarOp") -> "StarOp":
        return _wrap("stable", op)

    @staticmethod
    def projected(op_r: "StarOp") -> "StarOp":
        return _wrap("projected", op_r)

    @staticmethod
    def lifted(op_d: "StarOp") -> "StarOp":
        return _wrap("lifted", op_d)

    @staticmethod
    def extended_T(op_r: "StarOp") -> "StarOp":
        return _wrap("extended_T", op_r)

    @staticmethod
    def overring_induced(op_t: "StarOp") -> "StarOp":
        return _wrap("overring_induced", op_t)


def _wrap(kind: str, op: StarOp) -> StarOp:
    """The wrapping kind applied to op, on the result target of the table."""
    return StarOp(kind, _WRAPPERS[kind][2] or op.target, (op,))


def read_op(text: str, target: str) -> StarOp:
    """The descriptor on the ring target that prints as text."""
    if text.count("(") > 100:  # each "(" opens one descriptor; the reader recurses per level
        raise StarEvalError("a star operation of more than 100 descriptors")
    op, end = _read_op(text, 0, target)
    if end != len(text):
        raise StarEvalError(f"trailing text after a star operation in {text!r}")
    return op


def _read_op(text: str, pos: int, target: str) -> tuple[StarOp, int]:
    end = pos
    while end < len(text) and text[end].isalpha():
        end += 1
    name = text[pos:end]
    if not text.startswith("(", end):
        return StarOp(name, target), end  # the constructor refuses all but d, v, t, w
    printed = {"meet": "meet", **{w[0]: kind for kind, w in _WRAPPERS.items()}}
    kind = printed.get(name)
    if kind is None:
        raise StarEvalError(f"unknown star-operation name {name!r}")
    source = target if kind == "meet" else _WRAPPERS[kind][1] or target
    operands = []
    for sep in (",", ")") if kind == "meet" else (")",):
        op, end = _read_op(text, end + 1, source)
        if not text.startswith(sep, end):
            raise StarEvalError(f"expected {sep!r} at offset {end} of {text!r}")
        operands.append(op)
    return StarOp(kind, target, operands), end + 1


def star_meet(op1: StarOp, op2: StarOp) -> StarOp:
    """Pointwise intersection of two operations on the same ring."""
    return StarOp("meet", op1.target, (op1, op2))


def is_star_kind(op: StarOp) -> bool:
    """True when the descriptor is a genuine star operation (fixes its ring).

    An operation induced by the overring T is semistar on R.  A meet is a
    star operation when one operand is, a wrapping kind when its operand is.
    """
    if op.kind == "overring_induced":
        return False
    if op.kind == "meet":
        return any(is_star_kind(o) for o in op.operands)
    return all(is_star_kind(o) for o in op.operands)


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
    """Evaluate a star operation on an ideal value of its target ring.

    A D-side operation takes an ExtDModule J, evaluates phi^-1(J) and
    returns the D-part of the result.
    """
    if op.target != "D":
        return _star_eval(op, value, inst)
    return _star_eval(op, _phi_inverse(value, inst), inst).dpart


def _phi_inverse(j, inst: PullbackInstance) -> StructuredIdeal:
    """phi^-1(J) for a D-module J; make_structured refuses a mixed base domain."""
    if not isinstance(j, ExtDModule):
        raise StarEvalError("a D-side operation needs an ExtDModule value")
    return inverse_image_R(j, inst)


def _star_eval(op: StarOp, value, inst: PullbackInstance):
    if not is_star_kind(op):
        raise StarEvalError(f"{op} is not evaluable as a star operation")
    while op.kind == "finite_type":
        # identity semantics on finitely generated and structured inputs
        op = op.operands[0]
    _refuse_stable(op)
    if op.target == "R":
        if op.kind == "d":
            return value  # a raw ideal stays raw
        s = as_structured(value, inst)
        return make_structured(s.unit, _dpart_eval(op, s.dpart), inst)
    # a D-module J is phi^-1(J), unit part 1, and a fractional T-ideal is
    # u*T = u*phi^-1(k), D-part k; the result must keep the value's shape
    noun, shaped = (("nonzero D-module", lambda s: s.unit.is_one()) if op.target == "D"
                    else ("fractional T-ideal", StructuredIdeal.is_t_module))
    if not (isinstance(value, StructuredIdeal) and shaped(value)):
        raise StarEvalError(f"a {op.target}-side operation needs a {noun}")
    result = make_structured(value.unit, _dpart_eval(op, value.dpart), inst)
    if not shaped(result):
        raise StarEvalError(f"{op} left the {noun}s")
    return result


def _refuse_stable(op: StarOp):
    if op.kind in ("w", "stable"):
        raise StarEvalError("stable operations are descriptors only; "
                            "route class statements through their finite-type companions")


def _dpart_eval(op: StarOp, j: ExtDModule) -> ExtDModule:
    """J^op, the D-part of op on u*phi^-1(J) for every unit part u: ovr
    evaluates its operand on u*T = u*phi^-1(k), the other wrappers on J."""
    _refuse_stable(op)
    if op.kind == "d":
        return j
    if op.kind in ("v", "t"):  # t agrees with v on finitely generated and structured inputs
        return dmod_v(j)
    if op.kind == "meet":
        return dmod_intersect(*(_dpart_eval(o, j) for o in op.operands))
    return _dpart_eval(op.operands[0], ExtDModule.full(j.domain) if op.kind == "overring_induced" else j)


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


def _check_values(op: StarOp, samples, inst: PullbackInstance) -> list:
    """The samples as values of the structured calculus, phi^-1(J) for a D-module J."""
    if op.target == "D":
        return [_phi_inverse(j, inst) for j in samples]
    return list(samples)


def star_leq_check(op1: StarOp, op2: StarOp, samples, inst: PullbackInstance) -> CheckReport:
    """Report every sample where op1's value is not inside op2's value."""
    violations = []
    samples = list(samples)
    for i, value in enumerate(_check_values(op1, samples, inst)):
        a = _star_eval(op1, value, inst)
        b = _star_eval(op2, value, inst)
        if not contains_ideal(b, a, inst):
            violations.append({"sample": i, "value": repr(samples[i])})
    return CheckReport(f"{op1} <= {op2}", violations)


def _scale_value(z, value, inst):
    s = as_structured(value, inst)
    return make_structured(s.unit * RatFunc.coerce(z), s.dpart, inst)


def star_axiom_check(op: StarOp, samples, scalars, inst: PullbackInstance) -> CheckReport:
    """Exactness of the closure axioms on the given samples and scalars.

    Checks unit-ideal fixing, scalar equivariance, extensivity,
    idempotence, and monotonicity on nested pairs built by summation.
    """
    violations = []
    # the ring itself: phi^-1(D) = R for D and R, phi^-1(k) = T for T
    ring = t_ideal_of_r(inst) if op.target == "T" else r_ideal(inst)
    samples = _check_values(op, samples, inst)
    for z in scalars:
        scaled_ring = _scale_value(z, ring, inst)
        if not ideal_equal(_star_eval(op, scaled_ring, inst), scaled_ring, inst):
            violations.append({"axiom": "principal-fixed", "scalar": repr(z)})
    for i, sample in enumerate(samples):
        closed = _star_eval(op, sample, inst)
        if not contains_ideal(closed, sample, inst):
            violations.append({"axiom": "extensive", "sample": i})
        if not ideal_equal(_star_eval(op, closed, inst), closed, inst):
            violations.append({"axiom": "idempotent", "sample": i})
        for z in scalars:
            lhs = _star_eval(op, _scale_value(z, sample, inst), inst)
            if not ideal_equal(lhs, _scale_value(z, closed, inst), inst):
                violations.append({"axiom": "scalar-equivariant", "sample": i, "scalar": repr(z)})
        bigger = ideal_arith(sample, samples[(i + 1) % len(samples)], "add", inst)
        if not contains_ideal(_star_eval(op, bigger, inst), closed, inst):
            violations.append({"axiom": "monotone", "sample": i})
    return CheckReport(f"axioms({op})", violations)
