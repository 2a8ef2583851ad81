"""Exact arithmetic over Q and quadratic extensions Q(sqrt(d)).

Scalars are ``FieldElem`` values (a + b*sqrt(d))/n over the integers,
reduced so that n > 0 and gcd(a, b, n) == 1; ``Fraction`` appears only
at the boundary, in the coordinates x = a/n, y = b/n and the norm.  The
tag ``d`` is a squarefree integer; d == 1 encodes plain Q, and any
element with b == 0 is normalized to d == 1 so that rationals compare
equal across ambient fields.  Polynomials (``Poly``) and rational
functions (``RatFunc``) in one variable X are built on top.  A RatFunc
is kept canonical (monic denominator, numerator coprime to denominator),
so two values are mathematically equal iff they are structurally equal.
Products keep that form by cross-cancellation (Henrici's method, Knuth,
TAOCP vol. 2, 4.5.1): for canonical a/b and c/d, dividing out gcd(a, d)
and gcd(c, b) leaves a coprime pair with a monic denominator, so no gcd
of the full products is taken.

No floating point is used anywhere; ideal equality downstream depends on
these canonical forms being exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter


class KernelError(ArithmeticError):
    """Domain error in exact scalar or rational-function arithmetic."""


class Frozen:
    """Base of the immutable values; constructors set their slots through
    ``object.__setattr__``.

    Closed forms are compared and cached as values, so none may change
    after it is built.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class FrozenValue(Frozen):
    """A frozen value equal to another of its type with equal slots.

    The slots are read by one ``attrgetter`` per class: a generator over
    them makes ``==`` and ``hash`` about three times slower.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


@lru_cache
def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def _common_tag(d: int, e: int) -> int:
    """Tag of a result from operands tagged d and e; Q embeds in every field."""
    if d == e or e == 1:
        return d
    if d == 1:
        return e
    raise KernelError(f"mismatched discriminant tags {d} and {e}")


class FieldElem(Frozen):
    """(a + b*sqrt(d))/n with integers a, b, n.

    n > 0 and gcd(a, b, n) == 1, so every value has one representation.
    d must be squarefree; d == 1 means the element is rational, and d == 1
    exactly when b == 0.  ``x`` and ``y`` are the reduced rational
    coordinates a/n and b/n.
    """

    # one tuple (a, b, n, d): the arithmetic unpacks it in one step
    __slots__ = ("_abnd",)

    def __init__(self, x, y=0, d=1):
        x = Fraction(x)
        y = Fraction(y)
        if not y:
            d = 1
        if d != 1 and not _is_squarefree(d):
            raise KernelError(f"discriminant tag {d} is not squarefree")
        if d == 1 and y != 0:
            raise KernelError("rational field carries no surd part")
        # gcd(a, b, n) == 1 holds: a prime's full power in n divides one
        # of the two reduced denominators, so it does not divide that numerator
        n = lcm(x.denominator, y.denominator)
        a = x.numerator * (n // x.denominator)
        _set_abnd(self, (a, y.numerator * (n // y.denominator), n, d))

    a = property(lambda self: self._abnd[0])
    b = property(lambda self: self._abnd[1])
    n = property(lambda self: self._abnd[2])
    d = property(lambda self: self._abnd[3])

    @property
    def x(self) -> Fraction:
        return Fraction(self._abnd[0], self._abnd[2])

    @property
    def y(self) -> Fraction:
        return Fraction(self._abnd[1], self._abnd[2])

    # -- coercion ---------------------------------------------------------
    @staticmethod
    def coerce(value) -> "FieldElem":
        if isinstance(value, FieldElem):
            return value
        if type(value) is int:
            return _make(value, 0, 1, 1)
        q = Fraction(value)
        return _make(q.numerator, 0, q.denominator, 1)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        if type(other) is not FieldElem:
            other = FieldElem.coerce(other)
        a, b, n, d = self._abnd
        a2, b2, n2, d2 = other._abnd
        if d != d2:
            d = _common_tag(d, d2)
        if n == n2:
            return _make(a + a2, b + b2, n, d)
        return _make(a * n2 + a2 * n, b * n2 + b2 * n, n * n2, d)

    __radd__ = __add__

    def __neg__(self):
        a, b, n, d = self._abnd
        return _make(-a, -b, n, d)

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = FieldElem.coerce(other)
        a, b, n, d = self._abnd
        a2, b2, n2, d2 = other._abnd
        if d != d2:
            d = _common_tag(d, d2)
        if n == n2:
            return _make(a - a2, b - b2, n, d)
        return _make(a * n2 - a2 * n, b * n2 - b2 * n, n * n2, d)

    def __rsub__(self, other):
        return FieldElem.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = FieldElem.coerce(other)
        a, b, n, d = self._abnd
        a2, b2, n2, d2 = other._abnd
        if d != d2:
            d = _common_tag(d, d2)
        return _make(a * a2 + d * b * b2, a * b2 + a2 * b, n * n2, d)

    __rmul__ = __mul__

    def conj(self) -> "FieldElem":
        a, b, n, d = self._abnd
        return _make(a, -b, n, d)

    def norm(self) -> Fraction:
        """x**2 - d*y**2, the field norm down to Q."""
        a, b, n, d = self._abnd
        return Fraction(a * a - d * b * b, n * n)

    def inv(self) -> "FieldElem":
        # n / (a + b*sqrt(d)) = n*(a - b*sqrt(d)) / (a^2 - d*b^2); the
        # norm vanishes only at zero, as d is squarefree
        a, b, n, d = self._abnd
        m = a * a - d * b * b
        if not m:
            raise KernelError("division by zero")
        if m < 0:
            m, n = -m, -n
        return _make(n * a, -n * b, m, d)

    def __truediv__(self, other):
        return self * FieldElem.coerce(other).inv()

    def __rtruediv__(self, other):
        return FieldElem.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = ONE_ELEM
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return self._abnd == (0, 0, 1, 1)

    def __bool__(self):
        return self._abnd != (0, 0, 1, 1)

    def __eq__(self, other):
        if type(other) is not FieldElem:
            try:
                other = FieldElem.coerce(other)
            except (ValueError, TypeError):
                return NotImplemented
        return self._abnd == other._abnd

    def __hash__(self):
        # _abnd is canonical, so equal elements hash equal
        return hash(self._abnd)

    def __repr__(self):
        return f"FieldElem({self.x!r}, {self.y!r}, {self.d})"

    def __str__(self):
        x, y, d = self.x, self.y, self.d
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


_new_elem = object.__new__
_set_abnd = FieldElem._abnd.__set__


def _make(a: int, b: int, n: int, d: int) -> FieldElem:
    """(a + b*sqrt(d))/n for n > 0, reduced and built without __init__."""
    if n != 1:
        g = gcd(a, b, n)
        if g != 1:
            a //= g
            b //= g
            n //= g
    out = _new_elem(FieldElem)
    _set_abnd(out, (a, b, n, d) if b else (a, 0, n, 1))
    return out


ZERO_ELEM = FieldElem(0)
ONE_ELEM = FieldElem(1)


class Poly(Frozen):
    """Dense univariate polynomial over FieldElem coefficients.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is FieldElem else FieldElem.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    @staticmethod
    def const(c) -> "Poly":
        c = FieldElem.coerce(c)
        return _poly((c,) if c else ())

    @staticmethod
    def x_power(e: int) -> "Poly":
        return _poly((ZERO_ELEM,) * e + (ONE_ELEM,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def bit_length(self) -> int:
        """Largest bit length of an integer a, b or n of a coefficient."""
        m = 0
        for c in self.coeffs:
            a, b, n, _ = c._abnd
            m |= abs(a) | abs(b) | n
        return m.bit_length()

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == ONE_ELEM

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> FieldElem:
        if self.is_zero():
            raise KernelError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.leading() == ONE_ELEM

    def monic(self) -> "Poly":
        return self.scale(self.leading().inv())

    def scale(self, c) -> "Poly":
        c = FieldElem.coerce(c)
        # a nonzero constant keeps the leading coefficient nonzero
        return _poly([a * c for a in self.coeffs] if c else ())

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO_ELEM] * (n - len(self.coeffs))
        b = list(other.coeffs) + [ZERO_ELEM] * (n - len(other.coeffs))
        return Poly([p + q for p, q in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO_ELEM] * (len(self.coeffs) + len(other.coeffs) - 1)
        # skipping zero terms on both sides makes a product by X^j a shift
        terms = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_zero()]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in terms:
                out[i + j] = out[i + j] + a * b
        # the leading coefficient is a product of two nonzero ones
        return _poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise KernelError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [ZERO_ELEM] * max(0, len(rem) - len(other.coeffs) + 1)
        # every RatFunc denominator is monic, so most divisors need no inverse
        inv_lead = None if other.is_monic() else other.leading().inv()
        while len(rem) >= len(other.coeffs):
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            k = len(rem) - len(other.coeffs)
            factor = rem[-1] if inv_lead is None else rem[-1] * inv_lead
            q[k] = factor
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - factor * b
            rem.pop()
        # the top quotient coefficient is the first factor, which is nonzero
        return _poly(q), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval_zero(self) -> FieldElem:
        return self.coeffs[0] if self.coeffs else ZERO_ELEM

    def ord_zero(self) -> int:
        """X-adic valuation; index of the first nonzero coefficient."""
        if self.is_zero():
            raise KernelError("zero polynomial has no valuation")
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        raise AssertionError("unnormalized polynomial")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                other = _as_poly(other)
            except (KernelError, ValueError, TypeError):
                return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if "+" in cs.strip("+") or "-" in cs.lstrip("-") or " " in cs:
                cs = f"({cs})"
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append("X" if cs == "1" else f"{cs}*X")
            else:
                parts.append(f"X^{i}" if cs == "1" else f"{cs}*X^{i}")
        return " + ".join(parts)


def _poly(coeffs) -> Poly:
    """FieldElem coefficients, the last one nonzero, built without __init__."""
    out = object.__new__(Poly)
    object.__setattr__(out, "coeffs", tuple(coeffs))
    return out


# Poly is immutable, so every caller shares the one polynomial 1
_POLY_ONE = _poly((ONE_ELEM,))


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        raise KernelError("cannot coerce a rational function to a polynomial")
    return Poly.const(value)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the monic Euclidean remainder sequence.

    Each remainder is made monic before it divides, which keeps the
    coefficients of the sequence from growing with its length.
    """
    f = _as_poly(f)
    g = _as_poly(g)
    if f.is_zero() and g.is_zero():
        raise KernelError("gcd of two zero polynomials")
    # gcd(X^j, h) = X^min(j, ord_0 h), with no remainder sequence
    for m, h in ((f, g), (g, f)):
        if m.is_monic() and m.ord_zero() == m.degree and not h.is_zero():
            return Poly.x_power(min(m.degree, h.ord_zero()))
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = b.monic()
    return a.monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        raise KernelError("lcm with a zero polynomial")
    return ((f * g) // poly_gcd(f, g)).monic()


class RatFunc(Frozen):
    """Quotient of two polynomials in canonical form.

    Invariants: the denominator is monic and nonzero, and the numerator
    and denominator are coprime.  Zero is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly.one() if den is None else _as_poly(den)
        if den.is_zero():
            raise KernelError("zero denominator")
        if num.is_zero():
            den = Poly.one()
        elif den.is_one():
            pass
        elif den.is_constant():
            num = num.scale(den.leading().inv())
            den = Poly.one()
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = num // g
                den = den // g
            lead = den.leading()
            if lead != ONE_ELEM:
                c = lead.inv()
                num = num.scale(c)
                den = den.scale(c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def coerce(value) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return RatFunc(value)
        return RatFunc(Poly.const(value))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Poly.zero())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(Poly.one())

    @staticmethod
    def x_power(e: int) -> "RatFunc":
        # X^e and 1/X^-e are canonical as they stand
        xe = Poly.x_power(abs(e))
        return _ratfunc(xe, _POLY_ONE) if e >= 0 else _ratfunc(_POLY_ONE, xe)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        other = RatFunc.coerce(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other):
        return RatFunc.coerce(other) - self

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RatFunc.zero()
        # a/b and c/d are canonical, so after dividing out gcd(a, d) and
        # gcd(c, b) the numerator and denominator are coprime, and the
        # denominator stays monic as a quotient of monic polynomials
        if not (a.is_constant() or d.is_one()):
            g = poly_gcd(a, d)
            if not g.is_one():
                a, d = a // g, d // g
        if not (c.is_constant() or b.is_one()):
            g = poly_gcd(c, b)
            if not g.is_one():
                c, b = c // g, b // g
        return _ratfunc(a * c, b * d)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise KernelError("division by zero")
        # num and den are already coprime, so swapping them and making the
        # new denominator monic gives the canonical form with no gcd
        num, den = self.den, self.num
        lead = den.leading()
        if lead != ONE_ELEM:
            c = lead.inv()
            num, den = num.scale(c), den.scale(c)
        return _ratfunc(num, den)

    def __truediv__(self, other):
        return self * RatFunc.coerce(other).inv()

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = RatFunc.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates and views ----------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def const_value(self) -> FieldElem:
        if not self.is_constant():
            raise KernelError("not a constant")
        return self.num.eval_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = RatFunc.coerce(other)
        except (KernelError, ValueError, TypeError):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if " " in ns or "/" in ns:
            ns = f"({ns})"
        if " " in ds or "/" in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """num/den, already canonical, built without __init__."""
    out = object.__new__(RatFunc)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def ord_at_zero(f: RatFunc) -> int:
    """X-adic valuation of a nonzero rational function."""
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise KernelError("zero has no valuation")
    return f.num.ord_zero() - f.den.ord_zero()


def eval_at_zero(f: RatFunc) -> FieldElem:
    """Value at X = 0; requires ord_at_zero(f) >= 0."""
    f = RatFunc.coerce(f)
    if f.is_zero():
        return ZERO_ELEM
    a = f.num.ord_zero()
    b = f.den.ord_zero()
    if a - b < 0:
        raise KernelError("pole at zero")
    if a - b > 0:
        return ZERO_ELEM
    # canonical form is coprime, so a == b == 0 here
    return f.num.eval_zero() / f.den.eval_zero()
