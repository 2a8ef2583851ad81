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
counterparts.  The module holds descriptors and evaluation only: that
the implemented operations obey the star-operation laws is checked by
the ``star-laws`` suite of ``harness``.
"""

from __future__ import annotations

from .base_domain import ExtDModule, dmod_intersect, dmod_v
from .kernel import FrozenValue
from .pullback import (
    PullbackInstance,
    StructuredIdeal,
    as_structured,
    inverse_image_R,
    make_structured,
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
    returns the D-part of the result; make_structured refuses a J over
    another base domain.
    """
    if op.target != "D":
        return _star_eval(op, value, inst)
    if not isinstance(value, ExtDModule):
        raise StarEvalError("a D-side operation needs an ExtDModule value")
    return _star_eval(op, inverse_image_R(value, inst), inst).dpart


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
