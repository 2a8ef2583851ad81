"""The small ideal-expression language of the command line.

Grammar (whitespace insensitive, positions are character offsets):

    expr    := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | atom ('^' int)*
    atom    := int | 'sqrt' '(' int ')' | 'X'
             | 'ideal' '(' expr (',' expr)* ')'
             | func '(' expr (',' expr)* ')'
             | '(' expr ')'
    func    := v | t | colon | inv | extT | alpha | beta | gamma
             | principal | hull

Scalars are exact field elements and rational functions; ideal-valued
subexpressions combine with '+' and '*'.  Every parse failure carries
the offending offset; nesting past MAX_NESTING, powers past
MAX_POWER_DEGREE or MAX_POWER_BITS and sums or products of raw ideals
past MAX_GENERATORS generators are refused before any work.  A chain
step or call result past MAX_VALUE_DEGREE or MAX_VALUE_BITS is refused
where it arises, so the cost of evaluation is bounded by the length of
the text.  A returned value past MAX_POWER_DEGREE or MAX_POWER_BITS is
refused too, so every value that evaluate returns prints, through the
printers below, as a canonical form that re-parses to an equal value;
the round-trip tests rest on it.
"""

from __future__ import annotations

import re
from itertools import accumulate

from .base_domain import ClassLabel, DomainError, ExtDModule, dmod_from_generators
from .kernel import (FieldElem, FrozenValue, KernelError, Poly, RatFunc, _elem_str, _grouped, _make,
                     _ratio_str, _terms_str)
from .pullback import (
    PullbackError,
    PullbackInstance,
    RawIdeal,
    StructuredIdeal,
    as_structured,
    colon_R,
    extend_to_T,
    ideal_arith,
)
from .star_ops import StarOp, star_eval


class ExprError(ValueError):
    """Syntax or evaluation error with a source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.message = message
        self.pos = pos


# every function takes one argument; v and t close an R-ideal through star_eval
_V_R, _T_R = StarOp.divisorial("R"), StarOp.t_op("R")
_FUNCS = ("v", "t", "colon", "inv", "extT", "alpha", "beta", "gamma", "principal", "hull")

MAX_INPUT_BYTES = 64 * 1024
# parentheses, calls, ideals and unary minus nest at most this deep
MAX_NESTING = 100
# f^n is refused when |n| * deg f or |n| * (bits of f's largest integer a, b or n) passes
MAX_POWER_DEGREE = 64
MAX_POWER_BITS = 1024
# a sum or product of raw ideals is refused when it would list more generators
MAX_GENERATORS = 256
# bounds on each chain step and call result: a value at the returned bounds
# prints as text whose re-parsing stays inside them, since (u)*X has degree
# deg u + 1 and the coefficients of (u)*c, normalized, reach about 4x the bits
MAX_VALUE_DEGREE = MAX_POWER_DEGREE + 1
MAX_VALUE_BITS = 8 * MAX_POWER_BITS
_CHAINED = ("pow", "add", "sub", "mul", "div")
_SCALARS = (FieldElem, RatFunc)
# binary operators: the node kind and the precedence level
_BINARY = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}
# a token is a run of decimal digits, a name or one other non-space
# character; finditer skips the whitespace between tokens in one pass
# (a leading \s* would backtrack quadratically over trailing whitespace)
_TOKEN = re.compile(r"\d+|\w+|\S")


# -- AST ---------------------------------------------------------------------

class Node:
    __slots__ = ("kind", "value", "children", "pos")

    def __init__(self, kind, pos, value=None, children=()):
        self.kind = kind
        self.pos = pos
        self.value = value
        self.children = list(children)


class _Tokens:
    """One token of lookahead: tok starts at offset pos, and "" marks the end."""

    def __init__(self, text: str):
        self._stream = _tokens(text)
        self.tok, self.pos = next(self._stream)
        self.end = 0  # end of the last token taken, where a nesting error points
        self.depth = 0

    def take(self) -> str:
        tok, self.end = self.tok, self.pos + len(self.tok)
        self.tok, self.pos = next(self._stream)
        return tok

    def expect(self, tok: str):
        if self.tok != tok:
            raise ExprError(f"expected {tok!r}", self.pos)
        self.take()

    def read_int(self) -> int:
        """An integer literal; its optional '-' must touch the digits."""
        start = self.pos
        sign = self.take() if self.tok == "-" else ""
        if not self.tok.isdecimal() or self.pos != start + len(sign):
            raise ExprError("expected an integer", start + len(sign))
        try:
            return int(sign + self.take())
        except ValueError as exc:  # more digits than int() converts
            raise ExprError("integer literal too long", start) from exc


def _tokens(text: str):
    """Each token of text with its offset, then ("", len(text))."""
    for m in _TOKEN.finditer(text):
        yield m.group(), m.start()
    yield "", len(text)


def parse_expression(text: str) -> Node:
    """Parse the expression language; errors carry character offsets."""
    if len(text.encode("utf-8", errors="ignore")) > MAX_INPUT_BYTES:
        # refused at the first character that does not fit
        sizes = accumulate(len(ch.encode("utf-8", errors="ignore")) for ch in text)
        raise ExprError("input exceeds 64 KiB",
                        next(i for i, n in enumerate(sizes) if n > MAX_INPUT_BYTES))
    toks = _Tokens(text)
    node = _parse_binary(toks)
    if toks.tok:
        raise ExprError("trailing input", toks.pos)
    return node


def _parse_binary(toks: _Tokens, level: int = 1) -> Node:
    """Operands joined left to right by operators of at least this level."""
    node = _parse_unary(toks)
    while True:
        kind, op_level = _BINARY.get(toks.tok, (None, 0))
        if op_level < level:
            return node
        pos = toks.pos
        toks.take()
        node = Node(kind, pos, children=(node, _parse_binary(toks, op_level + 1)))


def _parse_unary(toks: _Tokens) -> Node:
    if toks.depth == MAX_NESTING:
        raise ExprError(f"nesting deeper than {MAX_NESTING}", toks.end)
    toks.depth += 1
    if toks.tok == "-":
        pos = toks.pos
        toks.take()
        node = Node("neg", pos, children=(_parse_unary(toks),))
    else:
        node = _parse_atom(toks)
        while toks.tok == "^":
            pos = toks.pos
            toks.take()
            node = Node("pow", pos, value=toks.read_int(), children=(node,))
    toks.depth -= 1
    return node


def _parse_atom(toks: _Tokens) -> Node:
    tok, pos = toks.tok, toks.pos
    if not tok:
        raise ExprError("unexpected end of input", pos)
    if tok.isdecimal():
        return Node("int", pos, value=toks.read_int())
    if tok == "(":
        toks.take()
        node = _parse_binary(toks)
        toks.expect(")")
        return node
    if not (tok[0].isalpha() or tok[0] == "_"):
        raise ExprError(f"unexpected character {tok[0]!r}", pos)
    toks.take()
    if tok == "X":
        return Node("var", pos)
    if tok == "sqrt":
        toks.expect("(")
        value = toks.read_int()
        toks.expect(")")
        return Node("sqrt", pos, value=value)
    if tok != "ideal" and tok not in _FUNCS:
        raise ExprError(f"unknown function {tok!r}", pos)
    toks.expect("(")
    args = [_parse_binary(toks)]
    while toks.tok == ",":
        toks.take()
        args.append(_parse_binary(toks))
    toks.expect(")")
    if tok == "ideal":
        return Node("ideal", pos, children=args)
    if len(args) != 1:
        raise ExprError(f"{tok} takes 1 argument(s)", pos)
    return Node("call", pos, value=tok, children=args)


# -- evaluation ---------------------------------------------------------------

class PrincipalAnswer(FrozenValue):
    """Outcome of a principality query."""

    __slots__ = ("generator",)

    def __init__(self, generator):
        object.__setattr__(self, "generator", generator)


def evaluate(node: Node, inst: PullbackInstance):
    """Evaluate an AST against an instance; returns a scalar, an ideal
    (a T-ideal is a structured ideal with full D-part), a class label,
    or a PrincipalAnswer.  A subexpression with no X stays a FieldElem,
    which becomes a RatFunc where it meets another type and on return."""
    def ev(n: Node):
        if n.kind == "int":
            return _make(n.value, 0, 1, 1)
        if n.kind == "var":
            return RatFunc.x_power(1)
        if n.kind == "sqrt":
            d = n.value
            if d == 1:
                return _make(1, 0, 1, 1)
            if d != inst.k_disc:
                raise ExprError(f"sqrt({d}) does not lie in {inst.k_name()}", n.pos)
            # k_disc is squarefree already, so the surd is built from its integers
            return _make(0, 1, 1, d)
        if n.kind == "neg":
            val = ev(n.children[0])
            if isinstance(val, _SCALARS):
                return -val
            raise ExprError("negation applies to scalars", n.pos)
        if n.kind in _CHAINED:
            # walk the chain's left spine, so its length costs no stack
            spine = []
            while n.kind in _CHAINED:
                spine.append(n)
                n = n.children[0]
            val = ev(n)
            for m in reversed(spine):
                # a power's own bounds keep its result inside the value bounds
                val = (_power(m, val) if m.kind == "pow"
                       else _bounded(_binop(m, val, ev(m.children[1]), inst), m))
            return val
        if n.kind == "ideal":
            gens = []
            for child in n.children:
                val = ev(child)
                if not isinstance(val, _SCALARS):
                    raise ExprError("ideal generators must be scalars", child.pos)
                if val.is_zero():
                    raise ExprError("zero generator rejected", child.pos)
                gens.append(RatFunc.coerce(val))
            return RawIdeal(gens)
        if n.kind == "call":
            return _bounded(_call(n, ev(n.children[0]), inst), n)
        raise ExprError(f"cannot evaluate node {n.kind}", n.pos)

    try:
        value = ev(node)
    except (KernelError, PullbackError) as exc:
        raise ExprError(str(exc), node.pos) from exc
    degree, bits = _size(value)
    if degree > MAX_POWER_DEGREE or bits > MAX_POWER_BITS:
        raise ExprError(f"value past degree {MAX_POWER_DEGREE} or {MAX_POWER_BITS} bits",
                        node.pos)
    return _lift(value)


def _bounded(value, node: Node):
    """value, refused when it passes the bounds on intermediate values."""
    degree, bits = _size(value)
    if degree > MAX_VALUE_DEGREE or bits > MAX_VALUE_BITS:
        raise ExprError(f"intermediate value past degree {MAX_VALUE_DEGREE} "
                        f"or {MAX_VALUE_BITS} bits", node.pos)
    return value


def _size(value) -> tuple[int, int]:
    """Largest numerator or denominator degree, and largest bit length of
    an integer a, b or n of a coefficient or of the D-part's stored lattice,
    among what value_to_expr prints for a value; (-1, 0) for other values.
    A FieldElem reads as the constant RatFunc it stands for."""
    if type(value) is FieldElem:
        a, b, n, _ = value._abnd
        return 0, (abs(a) | abs(b) | n).bit_length()
    if isinstance(value, RatFunc):
        num, den = value.num, value.den
        return max(num.degree, den.degree), max(num.bit_length(), den.bit_length())
    if isinstance(value, RawIdeal):
        fs, ints = value.gens, (0,)
    elif isinstance(value, StructuredIdeal):
        j = value.dpart
        fs, ints = (value.unit,), (j.den, *(abs(x) for r in j.rows for x in r))
    else:
        return -1, 0
    degree = max(max(f.num.degree, f.den.degree) for f in fs)
    bits = max(max(f.num.bit_length(), f.den.bit_length()) for f in fs)
    return degree, max(bits, max(ints).bit_length())


def _power(node: Node, f):
    if not isinstance(f, _SCALARS):
        raise ExprError("powers apply to scalars", node.pos)
    n = abs(node.value)
    degree, bits = _size(f)
    if n * degree > MAX_POWER_DEGREE or n * bits > MAX_POWER_BITS:
        raise ExprError(f"power past degree {MAX_POWER_DEGREE} or {MAX_POWER_BITS} bits", node.pos)
    return f ** node.value


def _binop(node: Node, lhs, rhs, inst: PullbackInstance):
    if type(lhs) is not type(rhs):
        lhs, rhs = _lift(lhs), _lift(rhs)
    scalar_l = isinstance(lhs, _SCALARS)
    scalar_r = isinstance(rhs, _SCALARS)
    if scalar_l and scalar_r:
        if node.kind == "add":
            return lhs + rhs
        if node.kind == "sub":
            return lhs - rhs
        if node.kind == "mul":
            return lhs * rhs
        if rhs.is_zero():
            raise ExprError("division by zero", node.pos)
        return lhs / rhs
    if node.kind in ("sub", "div"):
        raise ExprError(f"{node.kind} needs scalar operands", node.pos)
    lhs = _promote(lhs, node)
    rhs = _promote(rhs, node)
    if scalar_l != scalar_r and node.kind == "mul":
        scalar, ideal = (lhs, rhs) if scalar_l else (rhs, lhs)
        if scalar.is_zero():
            raise ExprError("scaling an ideal by zero", node.pos)
        if isinstance(ideal, RawIdeal):
            return RawIdeal([scalar * g for g in ideal.gens])
        return ideal_arith(RawIdeal([scalar]), ideal, "mul", inst)
    op = "mul" if node.kind == "mul" else "add"
    if isinstance(lhs, RawIdeal) and isinstance(rhs, RawIdeal):
        m, n = len(lhs.gens), len(rhs.gens)
        if (m * n if op == "mul" else m + n) > MAX_GENERATORS:
            word = "product" if op == "mul" else "sum"
            raise ExprError(f"{word} of more than {MAX_GENERATORS} generators", node.pos)
    return ideal_arith(lhs, rhs, op, inst)


def _lift(value):
    """A FieldElem as the constant RatFunc, other values as they are."""
    return RatFunc.coerce(value) if type(value) is FieldElem else value


def _promote(value, node: Node):
    if isinstance(value, RatFunc):
        if node.kind == "add":
            if value.is_zero():
                raise ExprError("zero generator rejected", node.pos)
            return RawIdeal([value])
        return value
    if isinstance(value, (RawIdeal, StructuredIdeal)):
        return value
    raise ExprError("operands must be scalars or ideals", node.pos)


def _call(node: Node, arg, inst: PullbackInstance):
    from .class_groups import ClassGroupError, alpha, gamma, is_principal_R

    name, arg = node.value, _lift(arg)
    if name == "alpha":
        if not (isinstance(arg, RawIdeal) and all(g.is_constant() for g in arg.gens)):
            raise ExprError("alpha takes an ideal of constant generators", node.pos)
    else:
        if isinstance(arg, RatFunc):
            if arg.is_zero():
                raise ExprError("zero ideal rejected", node.pos)
            arg = RawIdeal([arg])
        if not isinstance(arg, (RawIdeal, StructuredIdeal)):
            raise ExprError(f"{name} needs an ideal argument", node.pos)
    # looked up on each call, so the names resolve to the module's current bindings
    funcs = {
        "v": lambda h, i: star_eval(_V_R, h, i), "t": lambda h, i: star_eval(_T_R, h, i),
        "colon": colon_R, "inv": colon_R,
        "extT": extend_to_T, "beta": extend_to_T, "hull": as_structured, "gamma": gamma,
        "alpha": lambda h, i: alpha(dmod_from_generators([g.const_value() for g in h.gens],
                                                         i.base), i),
        "principal": lambda h, i: PrincipalAnswer(is_principal_R(h, i)),
    }
    # a typed error from any function is reported at the call
    try:
        return funcs[name](arg, inst)
    except (ClassGroupError, DomainError, KernelError, PullbackError) as exc:
        raise ExprError(str(exc), node.pos) from exc


# -- printers -----------------------------------------------------------------

def _ratio_to_expr(p: int, q: int) -> str:
    """p/q in lowest terms as a parseable atom: a negative one in parentheses."""
    return f"(-{_ratio_str(-p, q)})" if p < 0 else _ratio_str(p, q)


def _coeff_to_expr(a: int, b: int, n: int, d: int) -> str:
    """(a + b*sqrt(d))/n, n > 0, as a parseable atom."""
    if not b:
        return _ratio_to_expr(a, n)
    ypart = f"{_ratio_to_expr(b, n)}*sqrt({d})"
    if not a:
        return f"({ypart})"
    return f"({_ratio_to_expr(a, n)} + {ypart})"


def elem_to_expr(e: FieldElem) -> str:
    return _coeff_to_expr(e.a, e.b, e.n, e.d)


def poly_to_expr(p: Poly) -> str:
    return _terms_str(p, _coeff_to_expr, range(p.degree + 1))


def ratfunc_to_expr(f: RatFunc) -> str:
    if f.den.is_one():
        return f"({poly_to_expr(f.num)})"
    return f"(({poly_to_expr(f.num)})/({poly_to_expr(f.den)}))"


def value_to_expr(value, inst: PullbackInstance) -> str:
    """Canonical parseable form; re-parsing yields an equal value."""
    if isinstance(value, RatFunc):
        return ratfunc_to_expr(value)
    if isinstance(value, RawIdeal):
        return "ideal(" + ", ".join(ratfunc_to_expr(g) for g in value.gens) + ")"
    if isinstance(value, StructuredIdeal):
        if value.dpart.is_full():
            return f"extT(ideal({ratfunc_to_expr(value.unit)}))"
        if value.unit.is_one():
            gens = [elem_to_expr(c) for c in value.dpart.basis_elements()]
            gens.append("X")
        else:
            u = ratfunc_to_expr(value.unit)
            gens = [f"{u}*{elem_to_expr(c)}" for c in value.dpart.basis_elements()]
            gens.append(f"{u}*X")
        return "hull(ideal(" + ", ".join(gens) + "))"
    raise PullbackError(f"no expression form for {type(value).__name__}")


def pretty_elem(e: FieldElem) -> str:
    return _elem_str(e.a, e.b, e.n, e.d, root="√{}", times="", sep="")


def _pretty_dpart(j: ExtDModule, inst: PullbackInstance) -> str:
    base = inst.base
    if base.kind == "field":
        return f"ℚ·({pretty_elem(j.basis_elements()[0])})"
    elems = j.basis_elements()
    if len(elems) == 1:
        g = elems[0]
        gs = pretty_elem(g)
        if g.b or g.a < 0:
            gs = f"({gs})"
        return f"{gs}ℤ" if gs != "1" else "ℤ"
    gens = ", ".join(pretty_elem(e) for e in elems)
    if base.kind == "quadratic_order":
        return f"({gens})ℤ[{pretty_elem(base.omega())}]"
    return f"ℤ⟨{gens}⟩"


def pretty_value(value, inst: PullbackInstance) -> str:
    """Human-readable canonical form (unit part times dpart basis)."""
    if isinstance(value, ClassLabel):
        return str(value)
    if isinstance(value, PrincipalAnswer):
        if value.generator is None:
            return "not principal"
        return f"principal, generator {_grouped(str(value.generator))}"
    if isinstance(value, RatFunc):
        return str(value)
    if isinstance(value, RawIdeal):
        return "(" + ", ".join(_grouped(str(g)) for g in value.gens) + ")R"
    if isinstance(value, StructuredIdeal):
        t_name = inst.t_name("ℚ", "√{}")
        if value.dpart.is_full():
            return t_name if value.unit.is_one() else f"{_grouped(str(value.unit))}·{t_name}"
        body = f"{_pretty_dpart(value.dpart, inst)} + X·{t_name}"
        if value.unit.is_one():
            return body
        return f"{_grouped(str(value.unit))}·({body})"
    return str(value)
