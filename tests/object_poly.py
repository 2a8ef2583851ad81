"""A reference polynomial for tests: a tuple of FieldElem coefficients.

Each coefficient operation here is a ``FieldElem`` operation, so it
checks the integer arithmetic of the kernel's ``Poly``, which holds
integer arrays over one denominator, by a separate route.  The library
does not use it.
"""

from starpull.kernel import FieldElem

ZERO = FieldElem(0)


class ObjectPoly:
    """Coefficients lowest degree first, with no trailing zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [FieldElem.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def bit_length(self) -> int:
        m = 0
        for c in self.coeffs:
            m |= abs(c.a) | abs(c.b) | c.n
        return m.bit_length()

    def leading(self) -> FieldElem:
        return self.coeffs[-1]

    def monic(self) -> "ObjectPoly":
        return self.scale(self.leading().inv())

    def scale(self, c) -> "ObjectPoly":
        return ObjectPoly([a * c for a in self.coeffs])

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [ZERO] * (n - len(other.coeffs))
        return ObjectPoly([p + q for p, q in zip(a, b)])

    def __neg__(self):
        return ObjectPoly([-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return ObjectPoly(())
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return ObjectPoly(out)

    def __divmod__(self, other):
        rem = list(self.coeffs)
        q = [ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = other.leading().inv()
        while len(rem) >= len(other.coeffs):
            k = len(rem) - len(other.coeffs)
            factor = rem[-1] * inv_lead
            q[k] = factor
            for i, b in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - factor * b
            rem.pop()
            while rem and rem[-1].is_zero():
                rem.pop()
        return ObjectPoly(q), ObjectPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval_zero(self) -> FieldElem:
        return self.coeffs[0] if self.coeffs else ZERO

    def ord_zero(self) -> int:
        return next(i for i, c in enumerate(self.coeffs) if not c.is_zero())

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def object_gcd(f: ObjectPoly, g: ObjectPoly) -> ObjectPoly:
    """Monic gcd by the monic Euclidean remainder sequence."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
        if not b.is_zero():
            b = b.monic()
    return a.monic()
