"""Exact arithmetic over Q and quadratic extensions Q(sqrt(d)).

Scalars are ``FieldElem`` values x + y*sqrt(d) with Fraction coordinates.
The tag ``d`` is a squarefree integer; d == 1 encodes plain Q, and any
element with y == 0 is normalized to d == 1 so that rationals compare
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


class KernelError(ArithmeticError):
    """Domain error in exact scalar or rational-function arithmetic."""


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


class FieldElem:
    """x + y*sqrt(d) with exact rational coordinates.

    d must be squarefree; d == 1 means the element is rational and then
    y is forced to 0.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y=0, d=1):
        if type(x) is not Fraction:
            x = Fraction(x)
        if type(y) is not Fraction:
            y = Fraction(y)
        if not y:
            d = 1
        if d != 1 and not _is_squarefree(d):
            raise KernelError(f"discriminant tag {d} is not squarefree")
        if d == 1 and y != 0:
            raise KernelError("rational field carries no surd part")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElem is immutable")

    # -- coercion ---------------------------------------------------------
    @staticmethod
    def coerce(value) -> "FieldElem":
        if isinstance(value, FieldElem):
            return value
        return FieldElem(Fraction(value), 0, 1)

    def _match(self, other) -> tuple["FieldElem", "FieldElem"]:
        other = FieldElem.coerce(other)
        if self.d == other.d or self.d == 1 or other.d == 1:
            return self, other
        raise KernelError(f"mismatched discriminant tags {self.d} and {other.d}")

    def _tag(self, other) -> int:
        return self.d if self.d != 1 else (other.d if isinstance(other, FieldElem) else 1)

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        a, b = self._match(other)
        y = a.y + b.y
        return FieldElem(a.x + b.x, y, a._tag(b) if y else 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + (-FieldElem.coerce(other))

    def __rsub__(self, other):
        return FieldElem.coerce(other) - self

    def __mul__(self, other):
        a, b = self._match(other)
        if not (a.y or b.y):
            return FieldElem(a.x * b.x)
        d = a._tag(b)
        x = a.x * b.x + d * a.y * b.y
        y = a.x * b.y + a.y * b.x
        return FieldElem(x, y, d if y else 1)

    __rmul__ = __mul__

    def conj(self) -> "FieldElem":
        return FieldElem(self.x, -self.y, self.d)

    def norm(self) -> Fraction:
        """x**2 - d*y**2, the field norm down to Q."""
        return self.x * self.x - Fraction(self.d) * self.y * self.y

    def inv(self) -> "FieldElem":
        if self.is_zero():
            raise KernelError("division by zero")
        n = self.norm()
        return FieldElem(self.x / n, -self.y / n, self.d)

    def __truediv__(self, other):
        other = FieldElem.coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return FieldElem.coerce(other) * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = FieldElem(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.x or self.y)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            a, b = self._match(other)
        except (KernelError, ValueError, TypeError):
            return NotImplemented
        return a.x == b.x and a.y == b.y

    def __hash__(self):
        return hash((self.x, self.y, self.d))

    def __repr__(self):
        return f"FieldElem({self.x!r}, {self.y!r}, {self.d})"

    def __str__(self):
        if self.y == 0:
            return str(self.x)
        surd = "i" if self.d == -1 else f"sqrt({self.d})"
        ypart = surd if self.y == 1 else (f"-{surd}" if self.y == -1 else f"{self.y}*{surd}")
        if self.x == 0:
            return ypart
        sign = "+" if self.y > 0 else "-"
        mag = abs(self.y)
        ystr = surd if mag == 1 else f"{mag}*{surd}"
        return f"{self.x} {sign} {ystr}"


ZERO_ELEM = FieldElem(0)
ONE_ELEM = FieldElem(1)


class Poly:
    """Dense univariate polynomial over FieldElem coefficients.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [FieldElem.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def x_power(e: int) -> "Poly":
        return Poly([0] * e + [1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
        return Poly([a * c for a in self.coeffs])

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
        return Poly(out)

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
        return Poly(q), Poly(rem)

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


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        raise KernelError("cannot coerce a rational function to a polynomial")
    return Poly.const(value)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the Euclidean remainder sequence."""
    f = _as_poly(f)
    g = _as_poly(g)
    if f.is_zero() and g.is_zero():
        raise KernelError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        raise KernelError("lcm with a zero polynomial")
    return ((f * g) // poly_gcd(f, g)).monic()


class RatFunc:
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

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

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
        if e >= 0:
            return RatFunc(Poly.x_power(e))
        return RatFunc(Poly.one(), Poly.x_power(-e))

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
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", a * c)
        object.__setattr__(out, "den", b * d)
        return out

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
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

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
