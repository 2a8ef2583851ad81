"""Pullback instances R = phi^-1(D) inside T and their ideal calculus.

T is one of the kinds in _T_KINDS: the polynomial ring K[X] over a
computable field K, or its localization K[X]_(X).  Each fact that
depends on the kind (values at zero, canonical generators, contents,
names) is read off that table.  M = X*T is the maximal ideal at the
origin and phi is evaluation at zero, so R = {f in T : f(0) in D}.
In K[X], whether a product h*g lies in T and its value at zero are read
from X-orders and lowest coefficients, with no quotient polynomial; the
one division left, between X-free parts, is memoized, so the products
of h by X^j share it.  In both kinds the value at zero is computed on
the coefficients' integers (Poly.coeff_ints) and stays an integer
quadruple, which the module decides as it is: no scalar is built per
test.

Ideals of R come in two flavors.  A ``RawIdeal`` is a finite list of
nonzero generators in K(X).  A ``StructuredIdeal`` is the closed form
u * phi^-1(J0): a unit part u in K(X)^x and a D-module part J0.  For
both kinds M = X*T is principal as a T-ideal, so the zero module
convention phi^-1(0) = M is normalized away internally: a ZERO dpart
canonicalizes to (u*X, FULL), and _generators spans u*M by u*X; a T
whose M is not principal needs another form.  As T = phi^-1(k), a
fractional T-ideal u*T is the structured ideal (u, FULL) and has no
type of its own.  The colon and products here, and star_eval's
closures, are certified in the test suite against the definitional
membership oracles at the bottom of this file.
Containment and colon certification are one test, span_product_in:
whether the product of two R-modules, each generated by elements and a
T-part t*T, lies in phi^-1(J).  colon_R certifies each colon it
computes through colon_generators, a closed form's once per instance.
"""

from __future__ import annotations

import re
from functools import reduce

from .base_domain import (
    BaseDomain,
    DomainError,
    ExtDModule,
    _memo_put,
    dmod_arith,
    dmod_colon,
    dmod_from_generators,
    dmod_scale,
)
from .kernel import (
    ONE_ELEM,
    FieldElem,
    Frozen,
    FrozenValue,
    Poly,
    RatFunc,
    _make,
    _over,
    _ratfunc,
    _times,
    ord_at_zero,
    poly_gcd,
    poly_lcm,
)


class PullbackError(ValueError):
    """Ill-formed instance request or unsupported ideal operation."""


class _PolyT:
    """T = K[X], whose units are the nonzero constants."""

    quasilocal = False
    suffix = ""

    def at_zero(self, h: RatFunc, g: RatFunc) -> tuple | None:
        """phi(h*g) as an integer quadruple (a, b, n, d), read as
        (a + b*sqrt(d))/n with n > 0 and not reduced, when h*g lies in T,
        else None; h and g are nonzero.

        For canonical h = a/b and g = c/d each pair is coprime, so h*g is a
        polynomial exactly when b | c and d | a, and then its value at zero
        is (c/b)(0) * (a/d)(0).  Neither quotient is formed.  Write
        b = X^k*b' and c = X^m*c' with b'(0) and c'(0) nonzero.  Then b | c
        exactly when k <= m and b' | c'; and if c = q*b, the coefficients of
        X^k give c_k = q(0)*b_k, as b has none below X^k, so
        (c/b)(0) = c_k/b_k, which is zero for k < m.  Two polynomials
        (b = d = 1) give the product of their constant terms, read directly.

        Both values and their product stay integer quadruples.  With
        c_k = (ca + cb*sqrt(d))/cn and
        b_k = (ba + bb*sqrt(d))/bn, c_k/b_k is
        bn*(ca + cb*sqrt(d))*(ba - bb*sqrt(d)) / (cn*N(b_k)), where
        N(b_k) = ba^2 - d*bb^2 is nonzero; when N(b_k) < 0, for a real
        quadratic d, the signs of bn and N(b_k) flip so that the
        denominator stays positive (kernel._over).
        """
        hd, gd = h.den, g.den
        if hd.is_one() and gd.is_one():
            return _times(h.num.coeff_ints(0), g.num.coeff_ints(0))
        v1 = _quotient_at_zero(g.num, hd)
        if v1 is None:
            return None
        v2 = _quotient_at_zero(h.num, gd)
        return None if v2 is None else _times(v1, v2)

    def normalize(self, u: RatFunc) -> tuple[RatFunc, FieldElem]:
        """(u/c, c) for c the leading coefficient of u's numerator."""
        c = u.num.leading()
        return (u if c == ONE_ELEM else u / c), c

    def content(self, fs) -> RatFunc:
        """The gcd of the numerators of the nonzero fs over their common
        denominator, an lcm of the distinct denominators.  It is coprime to
        that lcm: an irreducible p has its largest power in some f.den, so
        p divides neither f.num nor lcm/f.den, nor then the gcd.  A
        constant gcd is 1 and ends the chain."""
        if len(fs) == 1:
            return fs[0]
        den = reduce(poly_lcm, {f.den for f in fs})
        g = None
        for f in fs:
            p = f.num if f.den == den else f.num * (den // f.den)
            g = p.monic() if g is None else poly_gcd(g, p)
            if g.is_constant():
                break
        return _ratfunc(g, den)


class _LocalT:
    """T = K[X]_(X), whose ideals are generated by powers of X."""

    quasilocal = True
    suffix = "_(X)"

    def at_zero(self, h: RatFunc, g: RatFunc) -> tuple | None:
        # X-orders add and the values at zero of the X-free parts multiply:
        # the lowest coefficients' quotient, an integer quadruple as in _PolyT
        a, b, c, d = h.num, g.num, h.den, g.den
        i, j, k, m = a.ord_zero(), b.ord_zero(), c.ord_zero(), d.ord_zero()
        e = i + j - k - m
        if e != 0:
            return None if e < 0 else (0, 0, 1, 1)
        return _over(_times(a.coeff_ints(i), b.coeff_ints(j)),
                     _times(c.coeff_ints(k), d.coeff_ints(m)))

    def normalize(self, u: RatFunc) -> tuple[RatFunc, FieldElem]:
        # X^e for e = ord(u), and the value at zero of the X-free part: the
        # lowest coefficients' quotient, in integers, reduced once
        num, den = u.num, u.den
        i, k = num.ord_zero(), den.ord_zero()
        return RatFunc.x_power(i - k), _make(*_over(num.coeff_ints(i), den.coeff_ints(k)))

    def content(self, fs) -> RatFunc:
        return RatFunc.x_power(min(ord_at_zero(f) for f in fs))

    def generator(self, fs) -> RatFunc:
        """The first of the nonzero fs of least X-order, which alone generates fs*T."""
        return min(fs, key=ord_at_zero)


# what T is, looked up by PullbackInstance.__init__ alone
_T_KINDS = {"poly": _PolyT(), "local": _LocalT()}


_DIVIDES_CACHE: dict[tuple[Poly, Poly], bool] = {}


def _quotient_at_zero(c: Poly, b: Poly) -> tuple | None:
    """(c/b)(0) as an integer quadruple (a, b, n, d), not reduced, when
    the monic b divides the nonzero c, else None, by the rule in
    _PolyT.at_zero.  The X-free test b' | c' is the same for every b*X^j
    and c*X^j, so it is decided once and then read from a memo."""
    if b.is_one():
        return c.coeff_ints(0)
    k, m = b.ord_zero(), c.ord_zero()
    if k > m or b.degree - k > c.degree - m:
        return None
    b1, c1 = b.shift(-k), c.shift(-m)
    if not b1.is_one():
        key = (b1, c1)
        divides = _DIVIDES_CACHE.get(key)
        if divides is None:
            divides = _memo_put(_DIVIDES_CACHE, key, (c1 % b1).is_zero())
        if not divides:
            return None
    return (0, 0, 1, 1) if k < m else _over(c.coeff_ints(k), b.coeff_ints(k))


class PullbackInstance:
    """One catalogued diagram: D inside k = T/M with T one of _T_KINDS."""

    def __init__(self, name: str, base: BaseDomain, t_kind: str):
        if t_kind not in _T_KINDS:
            raise PullbackError(f"unsupported T kind {t_kind!r}")
        self.name = name
        self.base = base
        self.k_disc = base.k_disc
        self.t = _T_KINDS[t_kind]
        # R = phi^-1(D) and M = phi^-1(0): the modules J of member_R and span_product_in
        self._d_module, self._zero_module = base.unit_module(), ExtDModule.zero(base)
        self.is_square_plus = base.quotient_field_is_k()

    def __repr__(self):
        return f"PullbackInstance({self.name!r})"

    def k_name(self, rationals="Q", root="sqrt({})") -> str:
        """k as text; a pretty printer passes its own glyphs, as for
        kernel._elem_str."""
        if self.k_disc == 1:
            return rationals
        surd = "i" if self.k_disc == -1 else root.format(self.k_disc)
        return f"{rationals}({surd})"

    def t_name(self, rationals="Q", root="sqrt({})") -> str:
        return f"{self.k_name(rationals, root)}[X]{self.t.suffix}"


_CATALOG_SPECS = {
    "A": ("integers", 1, "poly"),
    "B": ("integers", 1, "local"),
    "C": ("quadratic_order", -5, "poly"),
    "D": ("integers", -1, "poly"),
    "E": ("field", -1, "local"),
}


_INSTANCE_CACHE: dict[str, PullbackInstance] = {}


def instance_catalog() -> list[str]:
    return sorted(_CATALOG_SPECS)


def make_instance(config) -> PullbackInstance:
    """Resolve a config (name string or flat mapping) to an instance.

    Mappings either carry ``instance = <name>`` or the explicit fields
    ``base`` (integers | quadratic(d) | field), ``k`` (rational |
    quadratic(d)) and ``T`` (poly | local), which must match a
    catalogued combination.
    """
    if isinstance(config, str):
        name = config.strip().strip('"')
        if name not in _CATALOG_SPECS:
            raise PullbackError(f"unknown instance {name!r}; catalog is A..E")
        kind, d, t_kind = _CATALOG_SPECS[name]
        return _INSTANCE_CACHE.get(name) or _memo_put(
            _INSTANCE_CACHE, name, PullbackInstance(name, BaseDomain(kind, d), t_kind))
    if "instance" in config:
        return make_instance(str(config["instance"]))
    try:
        base_spec = str(config["base"]).strip()
        t_kind = str(config["T"]).strip()
        k_spec = str(config.get("k", "rational")).strip()
    except KeyError as exc:
        raise PullbackError(f"config missing field {exc}") from exc
    kind, d = _parse_base_spec(base_spec)
    k_d = _parse_field_spec(k_spec)
    if kind == "quadratic_order":
        # the order fixes its field, so an explicit k must name that field
        if "k" in config and k_d != d:
            raise PullbackError(f"k = {k_spec} is not the field of the order {base_spec}")
        k_d = d
    target = (kind, k_d, t_kind)
    for name, spec in _CATALOG_SPECS.items():
        if spec == target:
            return make_instance(name)
    raise PullbackError(f"unsupported combination {target}; catalog is A..E")


_QUADRATIC = re.compile(r"quadratic\(\s*([-+]?\d+)\s*\)")


def _parse_base_spec(text: str) -> tuple[str, int]:
    if text == "integers":
        return "integers", 1
    if text == "field":
        return "field", -1
    if match := _QUADRATIC.fullmatch(text):
        return "quadratic_order", int(match[1])
    raise PullbackError(f"cannot parse base domain spec {text!r}")


def _parse_field_spec(text: str) -> int:
    if text in ("rational", "Q"):
        return 1
    if text in ("gaussian", "Q(i)"):
        return -1
    if match := _QUADRATIC.fullmatch(text):
        return int(match[1])
    raise PullbackError(f"cannot parse field spec {text!r}")


# ---------------------------------------------------------------------------
# ideal values
# ---------------------------------------------------------------------------

class RawIdeal(FrozenValue):
    """A finitely generated fractional ideal given by its generators."""

    __slots__ = ("gens",)

    def __init__(self, gens):
        gens = tuple(RatFunc.coerce(g) for g in gens)
        if not gens:
            raise PullbackError("an ideal needs at least one generator")
        if any(g.is_zero() for g in gens):
            raise PullbackError("zero generators are not allowed")
        object.__setattr__(self, "gens", gens)

    def __repr__(self):
        return f"RawIdeal({list(self.gens)!r})"


class StructuredIdeal(FrozenValue):
    """Canonical closed form u * phi^-1(J0).

    The dpart J0 is a lattice module or FULL; a ZERO input dpart is
    normalized to (u*X, FULL) through the identity M = X*T, which holds
    for every kind in _T_KINDS.  The unit part is the kind's canonical
    generator of u*T (``normalize``), with the absorbed constant pushed
    into the dpart, so representations are unique.  The private slot
    holds 1/u, which membership tests and colons read, built once.
    """

    __slots__ = ("unit", "dpart", "_unit_inv")

    def __init__(self, unit: RatFunc, dpart: ExtDModule):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "dpart", dpart)
        object.__setattr__(self, "_unit_inv", unit.inv())

    def is_t_module(self) -> bool:
        return self.dpart.is_full()

    def __repr__(self):
        return f"StructuredIdeal({self.unit!r}, {self.dpart!r})"


_STRUCTURED_CACHE: dict[tuple[RatFunc, ExtDModule, PullbackInstance], StructuredIdeal] = {}


def make_structured(unit: RatFunc, dpart: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """Canonicalize (unit, dpart) under scaling and the M = X*T identity.
    The one builder of closed forms: each distinct input is canonicalized
    once, and later calls with it return the same object from a memo."""
    unit = RatFunc.coerce(unit)
    if unit.is_zero():
        raise PullbackError("unit part must be nonzero")
    if dpart.domain != inst.base:
        raise DomainError("mixed base domains")
    key = (unit, dpart, inst)
    if (cached := _STRUCTURED_CACHE.get(key)) is not None:
        return cached
    if dpart.is_zero():
        unit = unit.shift(1)
        dpart = ExtDModule.full(inst.base)
    unit, c = inst.t.normalize(unit)
    if c != ONE_ELEM and dpart.is_lattice():
        dpart = dmod_scale(c, dpart)
    return _memo_put(_STRUCTURED_CACHE, key, StructuredIdeal(unit, dpart))


def r_ideal(inst: PullbackInstance) -> StructuredIdeal:
    return make_structured(RatFunc.one(), inst.base.unit_module(), inst)


def t_ideal_of_r(inst: PullbackInstance) -> StructuredIdeal:
    return make_structured(RatFunc.one(), ExtDModule.full(inst.base), inst)


def m_ideal(inst: PullbackInstance) -> StructuredIdeal:
    return make_structured(RatFunc.one(), ExtDModule.zero(inst.base), inst)


# ---------------------------------------------------------------------------
# membership and containment
# ---------------------------------------------------------------------------

def member_R(f: RatFunc, inst: PullbackInstance) -> bool:
    """f in R, i.e. f in T with value at zero inside D."""
    return _product_in(RatFunc.coerce(f), RatFunc.one(), inst._d_module, inst)


def member_structured(f: RatFunc, s: StructuredIdeal, inst: PullbackInstance) -> bool:
    """f in u*phi^-1(J0): f/u in T with value at zero in J0, without forming f/u."""
    return _product_in(RatFunc.coerce(f), s._unit_inv, s.dpart, inst)


def _product_in(h: RatFunc, g: RatFunc, j: ExtDModule, inst: PullbackInstance) -> bool:
    """h*g in phi^-1(J), the one membership test: h*g in T and phi(h*g) in J,
    where J = D gives R, the ZERO sentinel M and the FULL sentinel T.  The
    value phi(h*g) stays an integer quadruple, and J decides it as it is."""
    if h.is_zero() or g.is_zero():
        return True
    value = inst.t.at_zero(h, g)
    return value is not None and j.contains(*value)


def contains_ideal(outer, inner, inst: PullbackInstance) -> bool:
    """inner is a subset of outer = u*phi^-1(J), decided on closed forms:
    u^-1 times inner lies in phi^-1(J)."""
    outer = as_structured(outer, inst)
    return span_product_in(([outer._unit_inv], None), _generators(inner, inst), outer.dpart, inst)


def span_product_in(a, b, j: ExtDModule, inst: PullbackInstance) -> bool:
    """The product of two generated R-modules lies in phi^-1(J).

    Each of a and b is (gens, t), the R-span of gens plus t*T, with t
    None for no T-part (see _generators).  Each product p*q of generators
    must lie in phi^-1(J).  As M is an ideal of both T and R, t*T*q lies
    in phi^-1(J) exactly when t*q lies in its largest T-submodule: T for
    J = k, and M = phi^-1(0) otherwise.
    """
    (gens_a, t_a), (gens_b, t_b) = a, b
    tail_a, tail_b = ([] if t is None else [t] for t in (t_a, t_b))
    j_t = j if j.is_full() else inst._zero_module
    return (all(_product_in(p, q, j, inst) for p in gens_a for q in gens_b)
            and all(_product_in(p, q, j_t, inst) for p in tail_a for q in [*gens_b, *tail_b])
            and all(_product_in(p, q, j_t, inst) for p in gens_a for q in tail_b))


def ideal_equal(a, b, inst: PullbackInstance) -> bool:
    return as_structured(a, inst) == as_structured(b, inst)


def as_structured(ideal, inst: PullbackInstance) -> StructuredIdeal:
    if isinstance(ideal, StructuredIdeal):
        return ideal
    return structured_hull(ideal, inst)


# ---------------------------------------------------------------------------
# content and hull
# ---------------------------------------------------------------------------

def structured_hull(ideal: RawIdeal, inst: PullbackInstance) -> StructuredIdeal:
    """Smallest structured ideal containing the raw ideal: I + u*M, where
    u generates I*T and J0 is spanned by the values phi(g/u)."""
    u = inst.t.content(ideal.gens)
    u_inv = u.inv()
    j0 = dmod_from_generators([_make(*inst.t.at_zero(g, u_inv)) for g in ideal.gens], inst.base)
    assert not j0.is_zero(), "the values phi(g/u) cannot all vanish"
    return make_structured(u, j0, inst)


# ---------------------------------------------------------------------------
# closed-form colon and arithmetic
# ---------------------------------------------------------------------------

_COLON_R_CACHE: dict[tuple[StructuredIdeal, PullbackInstance], StructuredIdeal] = {}


def colon_R(ideal, inst: PullbackInstance) -> StructuredIdeal:
    """(R : I) computed through the D-side colon of the hull dpart.

    Raises AssertionError when the result does not multiply I into R.
    The colon of a closed form is certified once per instance and then
    read from a memo; a raw ideal is computed and certified on each call.
    """
    closed_form = isinstance(ideal, StructuredIdeal)
    if closed_form and (cached := _COLON_R_CACHE.get((ideal, inst))) is not None:
        return cached
    s = as_structured(ideal, inst)
    result = make_structured(s._unit_inv, dmod_colon(s.dpart), inst)
    if colon_generators(ideal, inst, result) is None:
        raise AssertionError("closed-form colon failed definitional certification")
    return _memo_put(_COLON_R_CACHE, (ideal, inst), result) if closed_form else result


def _generators(ideal, inst: PullbackInstance) -> tuple[list[RatFunc], RatFunc | None]:
    """(gens, t): the ideal is generated over R by gens and by t*T.

    u*phi^-1(J) has the lifts and t = u*X for a lattice J, and no lifts
    and t = u for J = k; a raw ideal has its generators and no T-part.
    """
    if isinstance(ideal, RawIdeal):
        return list(ideal.gens), None
    if ideal.dpart.is_full():
        return [], ideal.unit
    return lift_generators(ideal, inst), ideal.unit.shift(1)


def lift_generators(s: StructuredIdeal, inst: PullbackInstance) -> list[RatFunc]:
    """Elements of u*phi^-1(J0) that witness its structure.

    For a lattice dpart these are the constant lifts u*c of a basis; they
    generate the ideal over R together with u*M.  For J0 = k it is u.
    """
    if s.dpart.is_full():
        return [s.unit]
    return [s.unit * RatFunc.coerce(Poly.const(c)) for c in s.dpart.basis_elements()]


def ideal_arith(a, b, op: str, inst: PullbackInstance):
    """Products and sums; raw inputs stay raw for raw-raw products."""
    if op not in ("mul", "add"):
        raise PullbackError(f"unknown ideal operation {op!r}")
    if isinstance(a, RawIdeal) and isinstance(b, RawIdeal):
        return RawIdeal([f * g for f in a.gens for g in b.gens] if op == "mul" else a.gens + b.gens)
    sa, sb = as_structured(a, inst), as_structured(b, inst)
    if op == "add":
        return _structured_sum(sa, sb, inst)
    return make_structured(sa.unit * sb.unit, dmod_arith(sa.dpart, sb.dpart, "mul"), inst)


def _structured_sum(sa: StructuredIdeal, sb: StructuredIdeal, inst: PullbackInstance) -> StructuredIdeal:
    # common content g, then the value modules add with the weights phi(u/g);
    # u/g lies in T, so its value at zero exists
    g = inst.t.content([sa.unit, sb.unit])
    total = ExtDModule.zero(inst.base)
    for s in (sa, sb):
        value = _make(*inst.t.at_zero(s.unit, g.inv()))
        if not value.is_zero():
            total = dmod_arith(total, dmod_scale(value, s.dpart), "add")
    return make_structured(g, total, inst)


def extend_to_T(ideal, inst: PullbackInstance) -> StructuredIdeal:
    """I*T = u*T, principal for each kind in _T_KINDS, as u * phi^-1(k)."""
    u = inst.t.content(ideal.gens) if isinstance(ideal, RawIdeal) else ideal.unit
    return make_structured(u, ExtDModule.full(inst.base), inst)


def inverse_image_R(j: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """phi^-1(J) as a structured ideal; the zero module maps to M."""
    return make_structured(RatFunc.one(), j, inst)


# ---------------------------------------------------------------------------
# definitional oracles
# ---------------------------------------------------------------------------

def oracle_colon_member(g: RatFunc, ideal: RawIdeal, inst: PullbackInstance) -> bool:
    """Exact test g in (R : I): g*f in R for every generator f.

    Each product's membership is decided by _product_in without forming
    the product; that test is exact, not a heuristic.
    """
    g, d_module = RatFunc.coerce(g), inst._d_module
    for f in ideal.gens:
        if not _product_in(g, f, d_module, inst):
            return False
    return True


class OracleVerdict(Frozen):
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: RatFunc | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

    def __repr__(self):
        return f"OracleVerdict({self.status!r}, {self.witness!r})"


def colon_generators(ideal, inst: PullbackInstance,
                     colon: StructuredIdeal | None = None) -> tuple[list[RatFunc], RatFunc] | None:
    """A generating set (lifts, t) of (R : I), certified from the definition.

    With the closed colon (``colon``, else colon_R(ideal)) written as
    w*phi^-1(J), (R : I) is generated over R by the lifts w*c of a basis
    of J and by t*T, where t = w*X for a lattice J and t = w for J = k.
    If the closed colon does not multiply I into R, it is wrong and the
    result is None.
    """
    if colon is None:
        colon = colon_R(ideal, inst)
    generators = _generators(colon, inst)
    in_r = span_product_in(generators, _generators(ideal, inst), inst._d_module, inst)
    return generators if in_r else None


def oracle_v_member(h: RatFunc, ideal: RawIdeal, inst: PullbackInstance,
                    generators: tuple[list[RatFunc], RatFunc] | None = None) -> OracleVerdict:
    """Exact test of h in (R : (R : I)) against a generating set of (R : I).

    ``generators`` is colon_generators(ideal, inst), computed here when
    not given; when it cannot be certified the verdict is "inconclusive".
    As M is the largest T-submodule of R (D != k), h*t*T lies in R
    exactly when h*t lies in M.  A witness is the first lift g with h*g
    outside R, else t, or t*e/phi(h*t) for e in k outside D when h*t is
    in T; it is certified in (R : I) too.
    """
    h = RatFunc.coerce(h)
    if generators is None:
        generators = colon_generators(ideal, inst)
        if generators is None:
            return OracleVerdict("inconclusive")
    lifts, t = generators
    for g in lifts:
        if not _product_in(h, g, inst._d_module, inst):
            return OracleVerdict("out-with-witness", g)
    value = (0, 0, 1, 1) if h.is_zero() else inst.t.at_zero(h, t)
    witness = t
    if value is not None:
        value = _make(*value)
        if value.is_zero():
            return OracleVerdict("in")
        witness = t * RatFunc.coerce(Poly.const(outside_D(inst) / value))
    if oracle_colon_member(witness, ideal, inst):
        return OracleVerdict("out-with-witness", witness)
    return OracleVerdict("inconclusive")


def outside_D(inst: PullbackInstance) -> FieldElem:
    """A scalar of k outside D: sqrt(d) when D is the field Q, else 1/2."""
    return _make(0, 1, 1, inst.k_disc) if inst.base.kind == "field" else _make(1, 0, 2, 1)
