"""Finitely generated D-submodules of k as exact integer lattices.

The base domain D is one of: the rational integers, an imaginary
quadratic maximal order, or the rational field embedded in a quadratic
extension k.  D is described once, by its discriminant and by its unit
module, the Hermite rows of 1 and omega = (disc mod 2 + sqrt(disc))/2:
generation, norms and the form <-> ideal maps read D from those two and
from nothing else.  Every nonzero finitely generated D-submodule of k is
represented as an integer lattice in canonical Hermite form together
with a denominator scalar; the two sentinels ZERO and FULL stand for the
zero module and for all of k.  One normal form serves all three domain
kinds, so module equality is a structural comparison.  Module operations
read and write those integers and each scalar's (a, b, n) directly;
Fraction appears only in the row reduction of a line over the field Q.

Class labels on invertible ideals are computed by reduction of binary
quadratic forms.  The class group Cl(D) of an imaginary quadratic order
is built from the reduced forms alone when the domain is constructed:
forms compose by Gauss composition (Cohen, GTM 138, Alg. 5.4.7), and the
group is decomposed into cyclic summands one summand at a time, each
class labelled by its exponents.  Orders with |disc| up to 200000 are
accepted; README's "Class labels reduce to D" gives measured build times.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .kernel import FieldElem, Frozen, FrozenValue, _is_squarefree, _make
from .lattices import (
    hnf_rows,
    lattice_member,
    rational_rref,
    xgcd,
)


class DomainError(ValueError):
    """Unsupported base-domain request or mixed-domain operation."""


# ---------------------------------------------------------------------------
# binary quadratic forms (class-group backend for imaginary quadratic orders)
# ---------------------------------------------------------------------------

def _form_reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if b > a or b <= -a:
            r = (a - b) // (2 * a)
            c = a * r * r + b * r + c
            b = b + 2 * r * a
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return (a, b, c)


def _reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    assert disc < 0 and disc % 4 in (0, 1)
    forms = []
    a = 1
    while 4 * a * a <= 3 * (-disc):
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or a == -b):
                continue
            if gcd(a, b, c) != 1:
                continue
            forms.append((a, b, c))
        a += 1
    return sorted(forms)


def _principal_form(disc: int) -> tuple[int, int, int]:
    k = disc % 2
    return _form_reduce(1, k, (k * k - disc) // 4)


def _compose(f1, f2) -> tuple[int, int, int]:
    """Gauss composition of two primitive forms of one discriminant,
    reduced (Cohen, GTM 138, Alg. 5.4.7).

    Any Bezout coefficients will do, since reduction picks the one
    reduced form of the class; the two divisibility shortcuts of the
    algorithm are left out.
    """
    if f1[0] > f2[0]:
        f1, f2 = f2, f1
    (a1, b1, _), (a2, b2, c2) = f1, f2
    s = (b1 + b2) // 2
    d, y1, _ = xgcd(a2, a1)
    d1, x2, y2 = xgcd(s, d)
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * y2 * (b2 - s) - x2 * c2) % v1
    return _form_reduce(v1 * v2, b2 + 2 * v2 * r, (c2 * d1 + r * (b2 + v2 * r)) // v1)


class ClassLabel(FrozenValue):
    """Element of a fixed finite abelian group presentation."""

    __slots__ = ("exps", "orders")

    def __init__(self, exps, orders):
        orders = tuple(orders)
        exps = tuple(e % n for e, n in zip(exps, orders))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "orders", orders)

    def __add__(self, other):
        if self.orders != other.orders:
            raise DomainError("labels from different presentations")
        return ClassLabel([a + b for a, b in zip(self.exps, other.exps)], self.orders)

    def __neg__(self):
        return ClassLabel([-a for a in self.exps], self.orders)

    def __sub__(self, other):
        return self + (-other)

    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)

    def __repr__(self):
        return f"ClassLabel({self.exps}, {self.orders})"

    def __str__(self):
        if not self.orders:
            return "[0]"
        return "[" + ", ".join(f"{e} mod {n}" for e, n in zip(self.exps, self.orders)) + "]"


class BaseDomain:
    """The domain D sitting under the residue field k.

    kind is one of "integers", "quadratic_order", "field".  ``k_disc`` is
    the squarefree tag of the ambient field k (1 for Q).  A quadratic
    order is always the maximal order of k; its discriminant ``_disc`` is
    read off k_disc here and nowhere else.
    """

    def __init__(self, kind: str, k_disc: int):
        if kind not in ("integers", "quadratic_order", "field"):
            raise DomainError(f"unsupported base-domain kind {kind!r}")
        if not _is_squarefree(k_disc):
            raise DomainError(f"field tag {k_disc} is not squarefree")
        if kind == "quadratic_order":
            if k_disc >= 0:
                raise DomainError("only imaginary quadratic orders are supported")
            disc = k_disc if k_disc % 4 == 1 else 4 * k_disc
            if -disc > 200000:
                raise DomainError("order discriminant outside the desk-scale bound 200000")
        if kind == "field" and k_disc == 1:
            raise DomainError("field base domain must be proper in k")
        self.kind = kind
        self.k_disc = k_disc
        self.ambient_dim = 1 if k_disc == 1 else 2
        # D is the Z-span of 1 and, for an order, omega, written as rows
        # over 2; ExtDModule is immutable, so every caller shares this copy
        self._disc = disc if kind == "quadratic_order" else None
        rows = [[2, 0]]
        if kind == "quadratic_order":
            rows.append([disc % 2, isqrt(disc // k_disc)])
        self._unit_module = ExtDModule.lattice(self, 2, [r[: self.ambient_dim] for r in rows])
        self.class_presentation: tuple[int, ...] = ()
        self._label_of_form = None
        if kind == "quadratic_order":
            self._load_class_group()

    def _load_class_group(self):
        """Decompose Cl(disc) into cyclic summands and label every class.

        The labelled subgroup H grows one summand at a time: x is the
        smallest reduced form whose order m modulo H is largest, and
        r = x * h^-1 for the h in H with h^m = x^m, so that H + <r> is
        direct.  Such an h exists because each earlier summand also had
        the largest order available when it was chosen, so m divides
        every exponent of x^m.
        """
        forms = _reduced_forms(self._disc)
        ident = _principal_form(self._disc)
        # (a, b, c) with b > 0 has the order modulo H of its inverse (a, -b, c),
        # which sorts first and wins ties, unless a in (b, c) makes it its own
        scan = [f for f in forms if f[1] <= 0 or f[0] in (f[1], f[2])]
        orders, table = [], {ident: ()}
        while len(table) < len(forms):
            m = 0
            for f in scan:
                x, order = f, 1
                while x not in table:
                    x, order = _compose(x, f), order + 1
                if order > m:
                    m, gen, exps = order, f, table[x]
                    # no order modulo H exceeds |G/H|
                    if m * len(table) == len(forms):
                        break
            assert all(e % m == 0 for e in exps)
            form_of = {label: f for f, label in table.items()}
            r = _compose(gen, form_of[tuple(-e // m % n for e, n in zip(exps, orders))])
            grown, power = {}, ident
            for j in range(m):
                for f, label in table.items():
                    grown[_compose(f, power)] = label + (j,)
                power = _compose(power, r)
            assert power == ident
            orders.append(m)
            table = grown
        self.class_presentation = tuple(orders)
        self._label_of_form = table
        for f in forms:
            assert _form_of_module(_ideal_of_form(f, self)) == f

    # -- structure ---------------------------------------------------------
    def omega(self) -> FieldElem:
        """Module generator of the order over Z besides 1:
        (disc mod 2 + sqrt(disc))/2."""
        if self.kind != "quadratic_order":
            raise DomainError("omega is defined for quadratic orders only")
        disc, d = self._disc, self.k_disc
        return _make(disc % 2, isqrt(disc // d), 2, d)

    def unit_module(self) -> "ExtDModule":
        """D itself as an ExtDModule, built once by the constructor."""
        return self._unit_module

    def class_representatives(self) -> list["ExtDModule"]:
        """One integral ideal per class of D: D itself unless D is an
        order, else the ideal of each reduced form, in sorted order."""
        if self.kind != "quadratic_order":
            return [self._unit_module]
        return [_ideal_of_form(f, self) for f in sorted(self._label_of_form)]

    def quotient_field_is_k(self) -> bool:
        # D spans k over Q exactly when its unit module has full rank
        return self._unit_module.rank() == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, BaseDomain)
            and self.kind == other.kind
            and self.k_disc == other.k_disc
        )

    def __hash__(self):
        return hash((self.kind, self.k_disc))

    def __repr__(self):
        return f"BaseDomain({self.kind!r}, {self.k_disc})"

    def __str__(self):
        if self.kind == "integers":
            return "Z"
        if self.kind == "field":
            return "Q"
        return f"Z[{self.omega()}]"

    @staticmethod
    def integers(k_disc: int = 1) -> "BaseDomain":
        return BaseDomain("integers", k_disc)

    @staticmethod
    def quadratic_order(d: int) -> "BaseDomain":
        return BaseDomain("quadratic_order", d)

    @staticmethod
    def rational_field(k_disc: int) -> "BaseDomain":
        return BaseDomain("field", k_disc)


class ExtDModule(FrozenValue):
    """A finitely generated D-submodule of k, or a sentinel.

    variant "lattice" stores an integer basis in canonical Hermite form
    plus a positive denominator; for a field domain the single stored row
    is the primitive direction vector of the Q-line.  "zero" and "full"
    are the sentinels for {0} and k.
    """

    __slots__ = ("variant", "den", "rows", "domain")

    def __init__(self, variant, domain, den=1, rows=()):
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))

    @staticmethod
    def zero(domain: BaseDomain) -> "ExtDModule":
        return ExtDModule("zero", domain)

    @staticmethod
    def full(domain: BaseDomain) -> "ExtDModule":
        return ExtDModule("full", domain)

    @staticmethod
    def lattice(domain: BaseDomain, den: int, rows) -> "ExtDModule":
        rows = hnf_rows([list(r) for r in rows])
        if not rows:
            return ExtDModule.zero(domain)
        if domain.kind == "field":
            if len(rows) >= 2:
                return ExtDModule.full(domain)
            g = gcd(*rows[0])
            return ExtDModule("lattice", domain, 1, [[v // g for v in rows[0]]])
        g = abs(den)
        for r in rows:
            for v in r:
                g = gcd(g, v)
        if g > 1:
            den //= g
            rows = [[v // g for v in r] for r in rows]
        return ExtDModule("lattice", domain, den, rows)

    # -- views --------------------------------------------------------------
    def is_zero(self) -> bool:
        return self.variant == "zero"

    def is_full(self) -> bool:
        return self.variant == "full"

    def is_lattice(self) -> bool:
        return self.variant == "lattice"

    def rank(self) -> int:
        return len(self.rows) if self.is_lattice() else 0

    def basis_elements(self) -> list[FieldElem]:
        if not self.is_lattice():
            raise DomainError("sentinel module has no basis")
        d, den = self.domain.k_disc, self.den
        return [_make(r[0], r[1] if len(r) == 2 else 0, den, d) for r in self.rows]

    def contains(self, a: int, b: int, n: int, d: int) -> bool:
        """Whether (a + b*sqrt(d))/n lies in the module, for integers with
        n > 0, not reduced: each test reads the same on (k*a, k*b, k*n) for
        k >= 1, and with b == 0 the value is rational whatever d is."""
        if not (a or b):
            return True
        if self.variant == "zero" or b and d != self.domain.k_disc:
            return False
        if self.variant == "full":
            return True
        if self.domain.kind == "field":
            # membership in the Q-line spanned by the stored direction
            r = self.rows[0]
            return a * r[1] == b * r[0]
        # (a, b)/n lies in rows/den exactly when (a, b)*den lies in n*rows
        return lattice_member([a * self.den, b * self.den][: self.domain.ambient_dim], n, self.rows)

    def __repr__(self):
        if self.is_lattice():
            return f"ExtDModule(lattice, den={self.den}, rows={self.rows})"
        return f"ExtDModule({self.variant})"

    def __str__(self):
        if self.is_zero():
            return "0"
        if self.is_full():
            return "k"
        gens = ", ".join(str(b) for b in self.basis_elements())
        if self.domain.kind == "field":
            return f"Q*({gens})"
        return f"<{gens}>"


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def _check_domains(*mods: ExtDModule) -> BaseDomain:
    dom = mods[0].domain
    for m in mods[1:]:
        if m.domain != dom:
            raise DomainError("mixed base domains")
    return dom


def _rows_over(den: int, m: ExtDModule) -> list[list[int]]:
    """The rows of m rescaled to the denominator den, a multiple of m.den."""
    k = den // m.den
    return [[v * k for v in r] for r in m.rows]


def _products(rows1, rows2, d: int) -> list[list[int]]:
    """Numerators of every product of an element of rows1 with one of rows2."""
    if len(rows1[0]) == 1:
        return [[r[0] * s[0]] for r in rows1 for s in rows2]
    return [[x1 * x2 + d * y1 * y2, x1 * y2 + x2 * y1] for x1, y1 in rows1 for x2, y2 in rows2]


def dmod_from_generators(gens, domain: BaseDomain) -> ExtDModule:
    """Canonical form of the D-module generated by the given elements."""
    k_disc = domain.k_disc
    vecs = []
    for g in gens:
        g = FieldElem.coerce(g)
        if g.is_zero():
            continue
        a, b, n, d = g._abnd
        if d != 1 and d != k_disc:
            raise DomainError("generator outside the ambient field")
        vecs.append((a, b, n))
    if not vecs:
        return ExtDModule.zero(domain)
    if domain.kind == "field":
        rref, pivots = rational_rref([[Fraction(a, n), Fraction(b, n)] for a, b, n in vecs])
        if len(pivots) >= 2:
            return ExtDModule.full(domain)
        # one lcm makes the row integral; lattice divides out its content
        m = lcm(*(v.denominator for v in rref[0]))
        return ExtDModule.lattice(domain, 1, [[v.numerator * (m // v.denominator) for v in rref[0]]])
    # the Z-span of the products of the generators with a Z-basis of D
    den = lcm(*(n for _, _, n in vecs))
    dim = domain.ambient_dim
    rows = [[a * (den // n), b * (den // n)][:dim] for a, b, n in vecs]
    unit = domain.unit_module()
    return ExtDModule.lattice(domain, den * unit.den, _products(rows, unit.rows, k_disc))


def dmod_arith(n1: ExtDModule, n2: ExtDModule, op: str) -> ExtDModule:
    """Sum or product of two modules, with the sentinel conventions; on
    lattices, the Z-span of the union or of the pairwise products of the
    two bases (that span is closed under D because each factor is)."""
    dom = _check_domains(n1, n2)
    if op == "add":
        if n1.is_zero():
            return n2
        if n2.is_zero():
            return n1
        if n1.is_full() or n2.is_full():
            return ExtDModule.full(dom)
        den = lcm(n1.den, n2.den)
        return ExtDModule.lattice(dom, den, _rows_over(den, n1) + _rows_over(den, n2))
    if op == "mul":
        if n1.is_zero() or n2.is_zero():
            return ExtDModule.zero(dom)
        if n1.is_full() or n2.is_full():
            return ExtDModule.full(dom)
        return ExtDModule.lattice(dom, n1.den * n2.den, _products(n1.rows, n2.rows, dom.k_disc))
    raise DomainError(f"unknown module operation {op!r}")


def dmod_scale(c, n: ExtDModule) -> ExtDModule:
    c = FieldElem.coerce(c)
    if c.is_zero():
        raise DomainError("scaling by zero")
    if not n.is_lattice():
        return n
    a, b, m, d = c._abnd
    dom = n.domain
    if d != 1 and d != dom.k_disc:
        raise DomainError("generator outside the ambient field")
    scalar = [[a, b][: dom.ambient_dim]]
    return ExtDModule.lattice(dom, m * n.den, _products(n.rows, scalar, dom.k_disc))


_MEMO_CAP = 65536
_COLON_CACHE: dict[ExtDModule, ExtDModule] = {}
_PREDICATES_CACHE: dict[ExtDModule, DmodPredicates] = {}


def _memo_put(table: dict, key, value):
    """Store value, known to be right, under a frozen key in a module-level
    *_CACHE table unless the table is at the cap; return value."""
    if len(table) < _MEMO_CAP:
        table[key] = value
    return value


def dmod_colon(n: ExtDModule) -> ExtDModule:
    """(D :_k N) = {y in k : yN inside D}, with sentinel conventions."""
    cached = _COLON_CACHE.get(n)
    if cached is not None:
        return cached
    return _memo_put(_COLON_CACHE, n, _dmod_colon_raw(n))


def _dmod_colon_raw(n: ExtDModule) -> ExtDModule:
    # y*N lies in D exactly when y*b lies in D for each basis element b,
    # so (D : N) is the intersection of the modules b^-1 * D; this holds
    # for any order D, maximal or not
    dom = n.domain
    if n.is_zero():
        return ExtDModule.full(dom)
    if n.is_full():
        return ExtDModule.zero(dom)
    out = ExtDModule.full(dom)
    for b in n.basis_elements():
        out = dmod_intersect(out, dmod_scale(b.inv(), dom.unit_module()))
    return out


def dmod_v(n: ExtDModule) -> ExtDModule:
    """Divisorial closure: colon applied twice."""
    return dmod_colon(dmod_colon(n))


def dmod_intersect(n1: ExtDModule, n2: ExtDModule) -> ExtDModule:
    dom = _check_domains(n1, n2)
    if n1.is_zero() or n2.is_zero():
        return ExtDModule.zero(dom)
    if n1.is_full():
        return n2
    if n2.is_full():
        return n1
    den = lcm(n1.den, n2.den)
    r1, r2 = _rows_over(den, n1), _rows_over(den, n2)
    dim = dom.ambient_dim
    # Zassenhaus: the rows (a, a) and (b, 0) span {(a + b, a)}, whose
    # elements with a + b == 0 have a in both lattices; in echelon form
    # they are spanned by the rows whose first half is zero.  Over Q the
    # two primitive directions meet in their common one or in 0, which
    # ExtDModule.lattice normalizes to the line or to ZERO
    echelon = hnf_rows([row + row for row in r1] + [row + [0] * dim for row in r2])
    return ExtDModule.lattice(dom, den, [row[dim:] for row in echelon if not any(row[:dim])])


class DmodPredicates(Frozen):
    """The two module predicates of one module: whether it is invertible,
    and a generator x with n = xD, or None.

    One invertibility test serves the direct and the divisorial sense:
    every fractional ideal of Z, Q or a quadratic order is divisorial
    (Bass, Math. Z. 82, 1963), so (n*(D : n))^v = n*(D : n).
    """

    __slots__ = ("is_invertible", "is_cyclic")

    def __init__(self, is_invertible, is_cyclic):
        object.__setattr__(self, "is_invertible", is_invertible)
        object.__setattr__(self, "is_cyclic", is_cyclic)


def _relative_norm(n: ExtDModule) -> int:
    """[D : n] * den^2 for a rank-2 n over a quadratic order: the product
    of the Hermite pivots of n over the covolume of D's own basis."""
    (p, _), (_, q) = n.rows
    unit = n.domain.unit_module()
    (p0, _), (_, q0) = unit.rows
    return p * q * unit.den ** 2 // (p0 * q0)


def _cyclic_generator(n: ExtDModule) -> FieldElem | None:
    if not n.is_lattice():
        return None
    dom = n.domain
    if dom.kind != "quadratic_order":
        return n.basis_elements()[0] if n.rank() == 1 else None
    # quadratic order.  For nonzero x in n, N(x) = [D : xD] >= [D : n], with
    # equality exactly when xD = n.  So n is principal exactly when its
    # shortest vectors under the norm form N(p + q*sqrt(d)) = p^2 - d*q^2
    # have norm [D : n], and then they are its generators.  Lagrange-Gauss
    # reduction of the Hermite basis (Cohen, GTM 138, Alg. 1.3.14) finds
    # them: for a reduced basis (a, b) every shortest vector is one of
    # +-a, +-b, +-(a+b), +-(a-b).  Of those, return the one with the
    # smallest surd coordinate q >= 0, then the smallest |p|, then p > 0,
    # the generator a search outward from 0 meets first; with 4 or 6 units
    # (d = -1, -3) the choice matters.
    if n.rank() != 2:
        return None
    d = dom.k_disc

    def form(u, v):
        return u[0] * v[0] - d * u[1] * v[1]

    a, b = n.rows
    qa = form(a, a)
    while True:
        m = (2 * form(a, b) + qa) // (2 * qa)  # nearest integer to B(a, b) / N(a)
        b = (b[0] - m * a[0], b[1] - m * a[1])
        qb = form(b, b)
        if qb >= qa:
            break
        a, b, qa = b, a, qb
    shortest = [s for v in (a, b, (a[0] + b[0], a[1] + b[1]), (a[0] - b[0], a[1] - b[1]))
                for s in (v, (-v[0], -v[1])) if s[1] >= 0 and form(s, s) == qa]
    p, q = min(shortest, key=lambda s: (s[1], abs(s[0]), s[0] < 0))
    # (p, q) is an integer combination of the rows, so (p + q*sqrt(d))/den
    # lies in n; its norm times den^2 is p^2 - d*q^2
    if p * p - d * q * q == _relative_norm(n):
        return _make(p, q, n.den, d)
    return None


def dmod_predicates(n: ExtDModule) -> DmodPredicates:
    """Both predicates of n, decided once per module: xD * x^-1 D = D,
    so n*(D : n) is formed only when n has no generator."""
    if (cached := _PREDICATES_CACHE.get(n)) is not None:
        return cached
    gen = _cyclic_generator(n)
    invertible = gen is not None or dmod_arith(n, dmod_colon(n), "mul") == n.domain.unit_module()
    return _memo_put(_PREDICATES_CACHE, n, DmodPredicates(invertible, gen))


def _form_of_module(n: ExtDModule) -> tuple[int, int, int]:
    """(N(alpha), Tr(alpha*conj(beta)), N(beta)) / [D : n], reduced, for
    the Hermite basis alpha, beta: the surd part of beta/alpha has the
    sign of p1*q2 - p2*q1 > 0, so the basis is positively oriented."""
    d, nm = n.domain.k_disc, _relative_norm(n)
    (p1, q1), (p2, q2) = n.rows
    a, ra = divmod(p1 * p1 - d * q1 * q1, nm)
    b, rb = divmod(2 * (p1 * p2 - d * q1 * q2), nm)
    c, rc = divmod(p2 * p2 - d * q2 * q2, nm)
    assert not (ra or rb or rc)
    return _form_reduce(a, b, c)


def _ideal_of_form(form: tuple[int, int, int], dom: BaseDomain) -> ExtDModule:
    """Integral ideal a*Z + ((b + sqrt(disc))/2)*Z of the order.

    For a primitive form this Z-lattice is already an ideal.  Reading
    the form back off its Hermite basis returns the same reduced form;
    the load-time assert checks this for every class.
    """
    a, b, _ = form
    return ExtDModule.lattice(dom, 2, [[2 * a, 0], [b, isqrt(dom._disc // dom.k_disc)]])


def class_label_D(n: ExtDModule) -> ClassLabel:
    """Class of an invertible module in the domain's finite presentation."""
    dom = n.domain
    if not dmod_predicates(n).is_invertible:
        raise DomainError("class label of a non-invertible module")
    if dom.kind != "quadratic_order":
        return ClassLabel((), ())  # Z and Q have one class each
    form = _form_of_module(n)
    return ClassLabel(dom._label_of_form[form], dom.class_presentation)
