"""Exact arithmetic over Q and quadratic extensions Q(sqrt(d)).

Scalars are ``FieldElem`` values (a + b*sqrt(d))/n over the integers,
reduced so that n > 0 and gcd(a, b, n) == 1; ``Fraction`` appears only
at the boundary, in the coordinates x = a/n, y = b/n and the norm.  The
tag ``d`` is a squarefree integer; d == 1 encodes plain Q, and any
element with b == 0 is normalized to d == 1 so that rationals compare
equal across ambient fields.  A polynomial (``Poly``) in one variable X
is held as integer arrays over one denominator, coefficient i being
(A[i] + B[i]*sqrt(d))/n; its arithmetic runs on integers with one gcd
per result.  Products by X^j are ``shift``, which moves the
coefficients; ``*`` and ``divmod`` treat X^j like any other factor.  A
rational function (``RatFunc``) is a quotient of two polynomials, kept
canonical (monic denominator, numerator coprime to denominator),
so two values are mathematically equal iff they are structurally equal.
Products keep that form by cross-cancellation (Henrici's method, Knuth,
TAOCP vol. 2, 4.5.1): for canonical a/b and c/d, dividing out gcd(a, d)
and gcd(c, b) leaves a coprime pair with a monic denominator, so no gcd
of the full products is taken.  When a numerator is a constant multiple
of the other factor's denominator, as in u * u.inv() or g / g, that
denominator is the gcd and none is computed.  ``RatFunc.shift`` takes
none at all, as only powers of X can cancel.  Nor does a sum with a
polynomial, since a + c*b stays coprime to b, or a negation; a product
with a nonzero constant scales the other numerator.

No floating point is used anywhere; ideal equality downstream depends on
these canonical forms being exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
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
    """A frozen value equal to another of its type with equal public slots.

    A private slot (``_name``) holds something derived from the public
    ones, such as a closed form's 1/u, and is neither compared nor hashed.
    The public slots are read by one ``attrgetter`` per class: a generator
    over them makes ``==`` and ``hash`` about three times slower.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*(name for name in cls.__slots__ if not name.startswith("_")))

    def __eq__(self, other):
        return type(other) is type(self) and self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))


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
        return _make(a * n2 + a2 * n, b * n2 + b2 * n, n * n2, d)

    __radd__ = __add__

    def __neg__(self):
        a, b, n, d = self._abnd
        return _make(-a, -b, n, d)

    def __sub__(self, other):
        return self + -FieldElem.coerce(other)

    def __rsub__(self, other):
        return FieldElem.coerce(other) - self

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = FieldElem.coerce(other)
        return _make(*_times(self._abnd, other._abnd))

    __rmul__ = __mul__

    def conj(self) -> "FieldElem":
        a, b, n, d = self._abnd
        return _make(a, -b, n, d)

    def norm(self) -> Fraction:
        """x**2 - d*y**2, the field norm down to Q."""
        a, b, n, d = self._abnd
        return Fraction(a * a - d * b * b, n * n)

    def inv(self) -> "FieldElem":
        # 1 carries self's tag, so no common tag is looked up
        abnd = self._abnd
        return _make(*_over((1, 0, 1, abnd[3]), abnd))

    def __truediv__(self, other):
        return _make(*_over(self._abnd, FieldElem.coerce(other)._abnd))

    def __rtruediv__(self, other):
        return _make(*_over(FieldElem.coerce(other)._abnd, self._abnd))

    def __pow__(self, n: int):
        return _power(self, n, ONE_ELEM)

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
        return _elem_str(*self._abnd)


def _power(x, n: int, one):
    """x**n by repeated squaring; a negative n goes through x.inv()."""
    if n < 0:
        x, n = x.inv(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def _ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, with one gcd and no Fraction."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


def _elem_str(a: int, b: int, n: int, d: int, root="sqrt({})", times="*", sep=" ") -> str:
    """(a + b*sqrt(d))/n for n > 0 as str(FieldElem) prints it, read from
    the integers; a pretty printer passes its own root sign and spacing.
    Every printer builds on this, _terms_str (the one loop over a
    polynomial's terms) and _grouped (the one rule for a quotient's factors)."""
    if not b:
        return _ratio_str(a, n)
    surd = "i" if d == -1 else root.format(d)
    # |b|/n == 1 prints as the bare surd
    mag = surd if abs(b) == n else f"{_ratio_str(abs(b), n)}{times}{surd}"
    if not a:
        return mag if b > 0 else f"-{mag}"
    return f"{_ratio_str(a, n)}{sep}{'+' if b > 0 else '-'}{sep}{mag}"


def _grouped(s: str) -> str:
    """s as one factor of a quotient: in parentheses when it holds a space or a slash."""
    return f"({s})" if " " in s or "/" in s else s


_new = object.__new__
_set_abnd = FieldElem._abnd.__set__


def _times(p: tuple, q: tuple) -> tuple:
    """The product of two scalars held as integer quadruples (a, b, n, d),
    (a + b*sqrt(d))/n, as a quadruple that is not reduced."""
    a, b, n, d = p
    a2, b2, n2, d2 = q
    if d != d2:
        d = _common_tag(d, d2)
    return a * a2 + d * b * b2, a * b2 + a2 * b, n * n2, d


def _over(p: tuple, q: tuple) -> tuple:
    """p/q for quadruples, not reduced but with n > 0.

    (a + b*sqrt(d))/n over (a2 + b2*sqrt(d))/n2 is
    n2*(a + b*sqrt(d))*(a2 - b2*sqrt(d)) / (n*N), for the norm
    N = a2^2 - d*b2^2 of the divisor's numerator, which vanishes only at
    zero as d is squarefree; for N < 0 (a real quadratic d) the signs of
    n2 and N flip so that the denominator stays positive.
    """
    a, b, n, d = p
    a2, b2, n2, d2 = q
    if d != d2:
        d = _common_tag(d, d2)
    m = a2 * a2 - d * b2 * b2
    if not m:
        raise KernelError("division by zero")
    if m < 0:
        m, n2 = -m, -n2
    return n2 * (a * a2 - d * b * b2), n2 * (b * a2 - a * b2), n * m, d


def _make(a: int, b: int, n: int, d: int) -> FieldElem:
    """(a + b*sqrt(d))/n for n > 0, reduced and built without __init__."""
    if n != 1:
        g = gcd(a, b, n)
        if g != 1:
            a //= g
            b //= g
            n //= g
    out = _new(FieldElem)
    _set_abnd(out, (a, b, n, d) if b else (a, 0, n, 1))
    return out


ZERO_ELEM = FieldElem(0)
ONE_ELEM = FieldElem(1)
# 1 as a quadruple: _over(_ONE_ABND, c) is 1/c with no scalar built
_ONE_ABND = (1, 0, 1, 1)


class Poly(Frozen):
    """Dense univariate polynomial over Q or one Q(sqrt(d)), held as integers.

    The one slot is the tuple (A, B, n, d): coefficient i, lowest degree
    first, is (A[i] + B[i]*sqrt(d))/n.  A has no trailing zero
    coefficient, n > 0, gcd(n, *A, *B) == 1, and B is empty exactly when
    d == 1, so the tuple is canonical and equality and hashing compare it.
    The zero polynomial is ((), (), 1, 1), of degree -1.
    """

    __slots__ = ("_rep",)

    def __init__(self, coeffs):
        cs = [FieldElem.coerce(c)._abnd for c in coeffs]
        # _common_tag refuses coefficients over two different fields
        d, n = reduce(_common_tag, (c[3] for c in cs), 1), lcm(*(c[2] for c in cs))
        _set_rep(self, _flat([a * (n // m) for a, _, m, _ in cs],
                             [b * (n // m) for _, b, m, _ in cs], n, d)._rep)

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def one() -> "Poly":
        return _POLY_ONE

    @staticmethod
    def const(c) -> "Poly":
        a, b, n, d = (c, 0, 1, 1) if type(c) is int else FieldElem.coerce(c)._abnd
        return _flat((a,), (b,), n, d)

    @staticmethod
    def x_power(e: int) -> "Poly":
        return _flat((0,) * e + (1,), (), 1, 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as FieldElems, for repr; arithmetic and printing read the integers."""
        return tuple(self._coeff(i) for i in range(len(self._rep[0])))

    def _coeff(self, i: int) -> FieldElem:
        return _make(*self.coeff_ints(i))

    def coeff_ints(self, i: int) -> tuple:
        """Coefficient i as an integer quadruple (a, b, n, d), not reduced,
        for _times and _over."""
        A, B, n, d = self._rep
        b = B[i] if B else 0
        return A[i], b, n, d if b else 1

    @property
    def degree(self) -> int:
        return len(self._rep[0]) - 1

    def bit_length(self) -> int:
        """Largest bit length of an integer a, b or n of a reduced coefficient."""
        A, B, n, _ = self._rep
        m = 0
        # a rational coefficient a/n is read as (a + a*sqrt(d))/n: same gcd, same bits
        for a, b in zip(A, B or A):
            g = gcd(a, b, n)
            m |= abs(a) // g | abs(b) // g | n // g
        return m.bit_length()

    def is_zero(self) -> bool:
        return not self._rep[0]

    def is_one(self) -> bool:
        return self._rep == _POLY_ONE._rep

    def is_constant(self) -> bool:
        return len(self._rep[0]) <= 1

    def leading(self) -> FieldElem:
        if not self._rep[0]:
            raise KernelError("zero polynomial has no leading coefficient")
        return self._coeff(-1)

    def is_monic(self) -> bool:
        A, B, n, _ = self._rep
        return bool(A) and A[-1] == n and not (B and B[-1])

    def monic(self) -> "Poly":
        return self if self.is_monic() else self._scale(_over(_ONE_ABND, self.coeff_ints(-1)))

    def shift(self, j: int) -> "Poly":
        """self * X^j, for j < 0 only when X^-j divides self; moving the
        coefficients keeps the result canonical."""
        A, B, n, d = self._rep
        if not (j and A):
            return self
        if j > 0:
            z = (0,) * j
            A, B = z + A, z + B if B else B
        else:
            A, B = A[-j:], B[-j:]
        out = _new(Poly)
        _set_rep(out, (A, B, n, d))
        return out

    def scale(self, c) -> "Poly":
        return self._scale(FieldElem.coerce(c)._abnd)

    def _scale(self, c: tuple) -> "Poly":
        """self times the scalar held as an integer quadruple (a, b, n, d)."""
        (A, B, n, d), (ca, cb, cn, d2) = self._rep, c
        if not (B or cb):
            return _flat([a * ca for a in A], (), n * cn, 1)
        d, B = _common_tag(d, d2), _surd(self._rep)
        return _flat([a * ca + d * b * cb for a, b in zip(A, B)],
                     [a * cb + b * ca for a, b in zip(A, B)], n * cn, d)

    def _add(self, other, sign: int) -> "Poly":
        (A1, _, n1, d), (A2, _, n2, d2) = p, q = self._rep, _as_poly(other)._rep
        m1, m2, n = (1, sign, n1) if n1 == n2 else (n2, sign * n1, n1 * n2)
        A = [a * m1 + b * m2 for a, b in zip_longest(A1, A2, fillvalue=0)]
        B = [a * m1 + b * m2 for a, b in zip_longest(_surd(p), _surd(q), fillvalue=0)]
        return _flat(A, B, n, _common_tag(d, d2))

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        A, B, n, d = self._rep
        return _flat([-a for a in A], [-b for b in B], n, d)

    def __sub__(self, other):
        return self._add(other, -1)

    def __mul__(self, other):
        f, g = self, _as_poly(other)
        if not (f._rep[0] and g._rep[0]):
            return _POLY_ZERO
        (A1, B1, n1, d), (A2, B2, n2, d2) = f._rep, g._rep
        if d != d2:
            d = _common_tag(d, d2)
        size = len(A1) + len(A2) - 1
        A = _conv(A1, A2, size)
        if d == 1:
            return _flat(A, (), n1 * n2, 1)
        B = [x + y for x, y in zip(_conv(A1, B2, size), _conv(B1, A2, size))]
        return _flat([x + d * y for x, y in zip(A, _conv(B1, B2, size))], B, n1 * n2, d)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        (FA, FB, n, d), (GA, _, m, d2) = p, q = self._rep, other._rep
        if not GA:
            raise KernelError("polynomial division by zero")
        s, k = len(FA) - len(GA) + 1, len(GA) - 1
        if s <= 0:
            return _POLY_ZERO, self
        if GA[-1] != m or q[1] and q[1][-1]:
            c = other._coeff(-1).inv()
            quo, rem = divmod(self, other.scale(c))
            return quo.scale(c), rem
        # m**s * n * self = Q * (m * other) + R over the integers, where m is
        # the divisor's leading numerator; each quotient coefficient is an
        # exact multiple of m (pseudo-division, Knuth, TAOCP vol. 2, 4.6.1)
        M, d, GB = m ** s, _common_tag(d, d2), _surd(q)
        RA, RB, QA, QB = [a * M for a in FA], [b * M for b in _surd(p)], [0] * s, [0] * s
        for j in range(s - 1, -1, -1):
            qa = QA[j] = RA.pop() // m
            qb = QB[j] = RB.pop() // m
            if qa or qb:
                for i in range(k):
                    RA[i + j] -= qa * GA[i] + d * qb * GB[i]
                    RB[i + j] -= qa * GB[i] + qb * GA[i]
        return _flat(QA, QB, n * M // m, d), _flat(RA, RB, n * M, d)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval_zero(self) -> FieldElem:
        A, B, n, d = self._rep
        return _make(A[0], B[0] if B else 0, n, d) if A else ZERO_ELEM

    def ord_zero(self) -> int:
        """X-adic valuation; index of the first nonzero coefficient."""
        A, B, _, _ = self._rep
        if not A:
            raise KernelError("zero polynomial has no valuation")
        i = 0
        while not (A[i] or B and B[i]):
            i += 1
        return i

    def __eq__(self, other):
        if type(other) is not Poly:
            try:
                other = _as_poly(other)
            except (KernelError, ValueError, TypeError):
                return NotImplemented
        return self._rep == other._rep

    def __hash__(self):
        return hash(self._rep)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return _terms_str(self, _coeff_str, range(self.degree, -1, -1))


def _coeff_str(*abnd) -> str:
    """A coefficient as str(Poly) prints it: in parentheses when it holds a
    space or a minus sign past its first character."""
    cs = _elem_str(*abnd)
    return f"({cs})" if " " in cs or "-" in cs.lstrip("-") else cs


def _terms_str(p: Poly, atom, degrees) -> str:
    """The nonzero terms c*X^i of p for i in degrees, joined by " + ",
    each c printed from its integers by atom(a, b, n, d)."""
    parts = []
    for i in degrees:
        a, b, n, d = p.coeff_ints(i)
        if a or b:
            cs = atom(a, b, n, d)
            mono = "X" if i == 1 else f"X^{i}"
            parts.append(cs if i == 0 else mono if cs == "1" else f"{cs}*{mono}")
    return " + ".join(parts) or "0"


_set_rep = Poly._rep.__set__


def _flat(A, B, n: int, d: int) -> Poly:
    """(A[i] + B[i]*sqrt(d))/n for n > 0, reduced and built without __init__;
    B is empty or as long as A."""
    k = len(A)
    while k and not (A[k - 1] or B and B[k - 1]):
        k -= 1
    if k < len(A):
        A, B = A[:k], B[:k]
    if not any(B):
        B, d = (), 1
    if n != 1:
        g = gcd(n, *A, *B)
        if g != 1:
            A, B, n = [a // g for a in A], [b // g for b in B], n // g
    out = _new(Poly)
    _set_rep(out, (tuple(A), tuple(B), n, d))
    return out


def _surd(rep) -> tuple:
    """The surd numerators B, zeros for a rational polynomial."""
    return rep[1] or (0,) * len(rep[0])


def _conv(P, Q, size: int) -> list:
    """The first size coefficients of the product of two integer polynomials."""
    out = [0] * size
    terms = [(j, b) for j, b in enumerate(Q) if b]
    for i, a in enumerate(P):
        if a:
            for j, b in terms:
                out[i + j] += a * b
    return out


# Poly is immutable, so every caller shares one 0 and one 1
_POLY_ZERO = _flat((), (), 1, 1)
_POLY_ONE = _flat((1,), (), 1, 1)


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, RatFunc):
        raise KernelError("cannot coerce a rational function to a polynomial")
    return Poly.const(value)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the monic Euclidean remainder sequence.

    Each divisor, g included, is made monic before it divides, which
    keeps the coefficients of the sequence from growing with its length
    and spares Poly.__divmod__ its rescaling step.
    """
    f = _as_poly(f)
    g = _as_poly(g)
    if f.is_zero() and g.is_zero():
        raise KernelError("gcd of two zero polynomials")
    a, b = f, g
    while not b.is_zero():
        b = b.monic()
        a, b = b, a % b
    return a.monic()


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        raise KernelError("lcm with a zero polynomial")
    return ((f * g) // poly_gcd(f, g)).monic()


def _cancel(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """(p/g, q/g) for g = gcd(p, q) and a monic q, with no gcd taken when p
    is constant, q is 1, or p is c*q, whose quotients are c and 1."""
    if p.is_constant() or q.is_one():
        return p, q
    if p.degree == q.degree and p.monic() == q:
        A, B, n, d = p._rep
        return _flat(A[-1:], B[-1:], n, d), _POLY_ONE
    g = poly_gcd(p, q)
    return (p, q) if g.is_one() else (p // g, q // g)


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
        elif not den.is_one():
            # a nonzero constant numerator is coprime to every denominator
            g = _POLY_ONE if num.is_constant() else poly_gcd(num, den)
            if not g.is_one():
                num, den = num // g, den // g
            if not den.is_monic():
                c = _over(_ONE_ABND, den.coeff_ints(-1))
                num, den = num._scale(c), den._scale(c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def coerce(value) -> "RatFunc":
        # a polynomial over 1 is canonical as it stands
        return value if isinstance(value, RatFunc) else _ratfunc(_as_poly(value), _POLY_ONE)

    @staticmethod
    def zero() -> "RatFunc":
        return _RATFUNC_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RATFUNC_ONE

    @staticmethod
    def x_power(e: int) -> "RatFunc":
        # X^e and 1/X^-e are canonical as they stand
        xe = Poly.x_power(abs(e))
        return _ratfunc(xe, _POLY_ONE) if e >= 0 else _ratfunc(_POLY_ONE, xe)

    # -- arithmetic -------------------------------------------------------
    def _add(self, other, sign: int) -> "RatFunc":
        """self + sign*other.  When either denominator is 1 the sum over the
        other, monic one is canonical with no gcd, as gcd(a + s*c*b, b) =
        gcd(a, b) = 1 for coprime a and b; a zero sum has b | a, so b = 1."""
        other = RatFunc.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if d.is_one():
            return _ratfunc(a._add(c if b.is_one() else c * b, sign), b)
        if b.is_one():
            return _ratfunc((a * d)._add(c, sign), d)
        return RatFunc((a * d)._add(c * b, sign), b * d)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _ratfunc(-self.num, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return RatFunc.coerce(other) - self

    def __mul__(self, other):
        other = RatFunc.coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return RatFunc.zero()
        # a product with a nonzero constant scales the other numerator,
        # which stays coprime to its monic denominator
        if d.is_one() and c.is_constant():
            return _ratfunc(a._scale(c.coeff_ints(0)), b)
        if b.is_one() and a.is_constant():
            return _ratfunc(c._scale(a.coeff_ints(0)), d)
        # a/b and c/d are canonical, so after dividing out gcd(a, d) and
        # gcd(c, b) the numerator and denominator are coprime, and the
        # denominator stays monic as a quotient of monic polynomials
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return _ratfunc(a * c, b * d)

    __rmul__ = __mul__

    def shift(self, j: int) -> "RatFunc":
        """self * X^j, with no gcd: X^min(j, ord b) cancels from the
        denominator b (X^min(-j, ord a) from the numerator a for j < 0), and
        what is left stays coprime with a monic denominator."""
        a, b = self.num, self.den
        if not j or a.is_zero():
            return self
        if j > 0:
            e = min(j, b.ord_zero())
            return _ratfunc(a.shift(j - e), b.shift(-e))
        e = min(-j, a.ord_zero())
        return _ratfunc(a.shift(-e), b.shift(-j - e))

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise KernelError("division by zero")
        # num and den are already coprime, so swapping them and making the
        # new denominator monic gives the canonical form with no gcd
        num, den = self.den, self.num
        if not den.is_monic():
            c = _over(_ONE_ABND, den.coeff_ints(-1))
            # a constant made monic is 1, with nothing to scale
            num, den = num._scale(c), den._scale(c) if den.degree else _POLY_ONE
        return _ratfunc(num, den)

    def __truediv__(self, other):
        return self * RatFunc.coerce(other).inv()

    def __rtruediv__(self, other):
        return RatFunc.coerce(other) / self

    def __pow__(self, n: int):
        return _power(self, n, RatFunc.one())

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
        return f"{_grouped(str(self.num))}/{_grouped(str(self.den))}"


def _ratfunc(num: Poly, den: Poly) -> RatFunc:
    """num/den, already canonical, built without __init__."""
    out = _new(RatFunc)
    _set_num(out, num)
    _set_den(out, den)
    return out


_set_num = RatFunc.num.__set__
_set_den = RatFunc.den.__set__
# RatFunc is immutable, so every caller shares one 0 and one 1
_RATFUNC_ZERO = _ratfunc(_POLY_ZERO, _POLY_ONE)
_RATFUNC_ONE = _ratfunc(_POLY_ONE, _POLY_ONE)


def ord_at_zero(f: RatFunc) -> int:
    """X-adic valuation of a nonzero rational function."""
    f = RatFunc.coerce(f)
    if f.is_zero():
        raise KernelError("zero has no valuation")
    return f.num.ord_zero() - f.den.ord_zero()


def eval_at_zero(f: RatFunc) -> FieldElem:
    """Value at X = 0; requires ord_at_zero(f) >= 0."""
    f = RatFunc.coerce(f)
    e = 1 if f.is_zero() else f.num.ord_zero() - f.den.ord_zero()
    if e < 0:
        raise KernelError("pole at zero")
    # canonical form is coprime, so at e == 0 neither num nor den has a root at zero
    return f.num.eval_zero() / f.den.eval_zero() if e == 0 else ZERO_ELEM
