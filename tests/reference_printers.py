"""Reference printers for tests: the former scalar printers, which read
``Fraction`` coordinates.

These print each scalar from its rational coordinates x and y, through
``FieldElem.x`` and ``FieldElem.y``, where the library prints from the
integers (a, b, n, d) with one gcd per ratio.  Only the leaf printers
are kept: ``installed()`` puts them in place of the library's, so that
``exprlang.value_to_expr`` and ``exprlang.pretty_value`` print a whole
value through them, and ``test_cli.py`` compares those bytes with the
library's own.  The library does not use this module.
"""

from contextlib import contextmanager
from fractions import Fraction

from starpull import exprlang
from starpull.kernel import FieldElem, Poly


def fraction_to_expr(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator) if q.numerator >= 0 else f"(-{-q.numerator})"
    if q.numerator < 0:
        return f"(-{-q.numerator}/{q.denominator})"
    return f"{q.numerator}/{q.denominator}"


def elem_to_expr(e: FieldElem) -> str:
    if e.y == 0:
        return fraction_to_expr(e.x)
    ypart = f"{fraction_to_expr(e.y)}*sqrt({e.d})"
    if e.x == 0:
        return f"({ypart})"
    return f"({fraction_to_expr(e.x)} + {ypart})"


def poly_to_expr(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        cs = elem_to_expr(c)
        if i == 0:
            parts.append(cs)
        elif i == 1:
            parts.append(f"{cs}*X" if cs != "1" else "X")
        else:
            parts.append(f"{cs}*X^{i}" if cs != "1" else f"X^{i}")
    return " + ".join(parts)


def elem_str(e: FieldElem) -> str:
    """The former FieldElem.__str__."""
    x, y, d = e.x, e.y, e.d
    if y == 0:
        return str(x)
    surd = "i" if d == -1 else f"sqrt({d})"
    ypart = surd if y == 1 else (f"-{surd}" if y == -1 else f"{y}*{surd}")
    if x == 0:
        return ypart
    sign = "+" if y > 0 else "-"
    mag = abs(y)
    ystr = surd if mag == 1 else f"{mag}*{surd}"
    return f"{x} {sign} {ystr}"


def poly_str(p: Poly) -> str:
    """The former Poly.__str__."""
    parts = []
    for i, c in reversed(list(enumerate(p.coeffs))):
        if c:
            cs = elem_str(c)
            if "+" in cs.strip("+") or "-" in cs.lstrip("-") or " " in cs:
                cs = f"({cs})"
            mono = "X" if i == 1 else f"X^{i}"
            parts.append(cs if i == 0 else mono if cs == "1" else f"{cs}*{mono}")
    return " + ".join(parts) or "0"


def pretty_elem(e: FieldElem) -> str:
    if e.y == 0:
        return str(e.x)
    surd = "i" if e.d == -1 else f"√{e.d}"
    if e.y == 1:
        ypart = surd
    elif e.y == -1:
        ypart = f"-{surd}"
    else:
        ypart = f"{e.y}{surd}"
    if e.x == 0:
        return ypart
    sign = "+" if e.y > 0 else "-"
    mag = abs(e.y)
    ystr = surd if mag == 1 else f"{mag}{surd}"
    return f"{e.x}{sign}{ystr}"


_LEAVES = ((exprlang, "elem_to_expr", elem_to_expr), (exprlang, "poly_to_expr", poly_to_expr),
           (exprlang, "pretty_elem", pretty_elem), (FieldElem, "__str__", elem_str),
           (Poly, "__str__", poly_str))


@contextmanager
def installed():
    """The library's printers, printing every scalar through the leaves above."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in _LEAVES]
    try:
        for owner, name, leaf in _LEAVES:
            setattr(owner, name, leaf)
        yield
    finally:
        for owner, name, leaf in saved:
            setattr(owner, name, leaf)
