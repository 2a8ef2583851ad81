"""A reference parser for tests: the expression language read by a
character scanner with one parse function per precedence level.

It builds the library's ``Node`` and raises its ``ExprError``, so the
differential test in ``test_cli.py`` compares ASTs and (message, offset)
pairs with ``exprlang.parse_expression`` directly.  It differs from the
library only on a digit that is not decimal, such as ``²``: ``isdigit``
accepts it, ``int()`` does not, and this parser reports "integer literal
too long".  The library does not use it.
"""

from starpull.exprlang import _FUNCS, MAX_INPUT_BYTES, MAX_NESTING, ExprError, Node


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        self.skip_ws()
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def read_int(self) -> tuple[int, int]:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            raise ExprError("expected an integer", self.pos)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos]), start
        except ValueError as exc:  # more digits than int() converts
            raise ExprError("integer literal too long", start) from exc

    def read_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if start == self.pos:
            raise ExprError("expected a name", start)
        return self.text[start:self.pos], start


def parse_expression(text: str) -> Node:
    if len(text.encode("utf-8", errors="ignore")) > MAX_INPUT_BYTES:
        raise ExprError("input exceeds 64 KiB", MAX_INPUT_BYTES)
    toks = _Tokens(text)
    node = _parse_expr(toks)
    if not toks.at_end():
        raise ExprError("trailing input", toks.pos)
    return node


def _parse_expr(toks: _Tokens) -> Node:
    node = _parse_product(toks)
    while toks.peek() in ("+", "-"):
        pos = toks.pos
        op = toks.take()
        rhs = _parse_product(toks)
        node = Node("add" if op == "+" else "sub", pos, children=(node, rhs))
    return node


def _parse_product(toks: _Tokens) -> Node:
    node = _parse_unary(toks)
    while toks.peek() in ("*", "/"):
        pos = toks.pos
        op = toks.take()
        rhs = _parse_unary(toks)
        node = Node("mul" if op == "*" else "div", pos, children=(node, rhs))
    return node


def _parse_unary(toks: _Tokens) -> Node:
    if toks.depth == MAX_NESTING:
        raise ExprError(f"nesting deeper than {MAX_NESTING}", toks.pos)
    toks.depth += 1
    if toks.peek() == "-":
        pos = toks.pos
        toks.take()
        node = Node("neg", pos, children=(_parse_unary(toks),))
    else:
        node = _parse_power(toks)
    toks.depth -= 1
    return node


def _parse_power(toks: _Tokens) -> Node:
    node = _parse_atom(toks)
    while toks.peek() == "^":
        pos = toks.pos
        toks.take()
        exponent, _ = toks.read_int()
        node = Node("pow", pos, value=exponent, children=(node,))
    return node


def _parse_atom(toks: _Tokens) -> Node:
    ch = toks.peek()
    if ch == "":
        raise ExprError("unexpected end of input", toks.pos)
    if ch.isdigit():
        value, pos = toks.read_int()
        return Node("int", pos, value=value)
    if ch == "(":
        toks.take()
        node = _parse_expr(toks)
        toks.expect(")")
        return node
    if ch.isalpha() or ch == "_":
        name, pos = toks.read_name()
        if name == "X":
            return Node("var", pos)
        if name == "sqrt":
            toks.expect("(")
            value, _ = toks.read_int()
            toks.expect(")")
            return Node("sqrt", pos, value=value)
        if name == "ideal" or name in _FUNCS:
            toks.expect("(")
            args = [_parse_expr(toks)]
            while toks.peek() == ",":
                toks.take()
                args.append(_parse_expr(toks))
            toks.expect(")")
            if name == "ideal":
                return Node("ideal", pos, children=args)
            if len(args) != 1:
                raise ExprError(f"{name} takes 1 argument(s)", pos)
            return Node("call", pos, value=name, children=args)
        raise ExprError(f"unknown function {name!r}", pos)
    raise ExprError(f"unexpected character {ch!r}", toks.pos)
