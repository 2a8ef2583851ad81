"""Pullback instances R = phi^-1(D) inside T and their ideal calculus.

T is either a polynomial ring K[X] over a computable field K, or its
localization K[X]_(X); M = X*T is the maximal ideal at the origin and
phi is evaluation at zero, so R = {f in T : f(0) in D}.

Ideals of R come in two flavors.  A ``RawIdeal`` is a finite list of
nonzero generators in K(X).  A ``StructuredIdeal`` is the closed form
u * phi^-1(J0): a unit part u in K(X)^x and a D-module part J0.  In the
catalogued instances M = X*T is principal as a T-ideal, so the zero
module convention phi^-1(0) = M is normalized away internally: a ZERO
dpart canonicalizes to (u*X, FULL).  As T = phi^-1(k), a fractional
T-ideal u*T is the structured ideal (u, FULL) and has no type of its
own.  All closed-form operations here (colon, divisorial closure,
products) are certified in the test suite against the definitional
membership oracles at the bottom of this file; colon_R also certifies
each colon it computes, a closed form's once per instance.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .base_domain import (
    BaseDomain,
    DomainError,
    ExtDModule,
    _memo_put,
    dmod_arith,
    dmod_colon,
    dmod_from_generators,
    dmod_scale,
    dmod_v,
)
from .kernel import (
    ONE_ELEM,
    ZERO_ELEM,
    FieldElem,
    Frozen,
    FrozenValue,
    Poly,
    RatFunc,
    eval_at_zero,
    ord_at_zero,
    poly_gcd,
    poly_lcm,
)


class PullbackError(ValueError):
    """Ill-formed instance request or unsupported ideal operation."""


class PullbackInstance:
    """One catalogued diagram: D inside k = T/M with T = K[X] or K[X]_(X)."""

    def __init__(self, name: str, base: BaseDomain, t_kind: str):
        if t_kind not in ("poly", "local"):
            raise PullbackError(f"unsupported T kind {t_kind!r}")
        self.name = name
        self.base = base
        self.k_disc = base.k_disc
        self.t_kind = t_kind
        # R = phi^-1(D) and M = phi^-1(0): the modules J of member_R and member_M_product
        self._d_module, self._zero_module = base.unit_module(), ExtDModule.zero(base)
        self.is_square_plus = base.quotient_field_is_k()
        self.t_quasilocal = t_kind == "local"

    def __repr__(self):
        return f"PullbackInstance({self.name!r})"

    def k_name(self) -> str:
        if self.k_disc == 1:
            return "Q"
        if self.k_disc == -1:
            return "Q(i)"
        return f"Q(sqrt({self.k_disc}))"

    def t_name(self) -> str:
        ring = f"{self.k_name()}[X]"
        return ring if self.t_kind == "poly" else f"{ring}_(X)"


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
    normalized to (u*X, FULL) through the identity M = X*T.  The unit
    part is monic/monic for the polynomial kind and a pure power of X for
    the local kind, with the absorbed constant pushed into the dpart, so
    representations are unique.
    """

    __slots__ = ("unit", "dpart")

    def __init__(self, unit: RatFunc, dpart: ExtDModule):
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "dpart", dpart)

    def is_t_module(self) -> bool:
        return self.dpart.is_full()

    def __repr__(self):
        return f"StructuredIdeal({self.unit!r}, {self.dpart!r})"


def make_structured(unit: RatFunc, dpart: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """Canonicalize (unit, dpart) under scaling and the M = X*T identity."""
    unit = RatFunc.coerce(unit)
    if unit.is_zero():
        raise PullbackError("unit part must be nonzero")
    if dpart.domain != inst.base:
        raise DomainError("mixed base domains")
    if dpart.is_zero():
        unit = unit * RatFunc.x_power(1)
        dpart = ExtDModule.full(inst.base)
    # the constant c absorbed into the dpart: the leading coefficient in
    # K[X], the value at zero of the X-free part in K[X]_(X)
    if inst.t_kind == "poly":
        c = unit.num.leading()
        if c != ONE_ELEM:
            unit = unit / c
    else:
        c = unit.num.lowest() / unit.den.lowest()
        unit = RatFunc.x_power(ord_at_zero(unit))
    if c != ONE_ELEM and dpart.is_lattice():
        dpart = dmod_scale(c, dpart)
    return StructuredIdeal(unit, dpart)


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
    return _product_in(f, RatFunc.one(), inst._d_module, inst)


def member_R_product(h: RatFunc, g: RatFunc, inst: PullbackInstance) -> bool:
    """h*g in R, decided without forming h*g; equal to member_R(h * g, inst)."""
    return _product_in(h, g, inst._d_module, inst)


def member_M_product(h: RatFunc, g: RatFunc, inst: PullbackInstance) -> bool:
    """h*g in M = phi^-1(0), decided without forming h*g."""
    return _product_in(h, g, inst._zero_module, inst)


def member_structured(f: RatFunc, s: StructuredIdeal, inst: PullbackInstance) -> bool:
    """f in u*phi^-1(J0): f/u in T with value at zero in J0, without forming f/u."""
    return _product_in(f, s.unit.inv(), s.dpart, inst)


def _product_in(h: RatFunc, g: RatFunc, j: ExtDModule, inst: PullbackInstance) -> bool:
    """h*g in phi^-1(J), the one membership test: h*g in T and phi(h*g) in J,
    where J = D gives R, the ZERO sentinel M and the FULL sentinel T."""
    h = RatFunc.coerce(h)
    g = RatFunc.coerce(g)
    if h.is_zero() or g.is_zero():
        return True
    value = _product_at_zero(h, g, inst)
    return value is not None and j.contains(value)


def _product_at_zero(h: RatFunc, g: RatFunc, inst: PullbackInstance):
    """phi(h*g) when h*g lies in T, else None; h and g are nonzero.

    For canonical h = a/b and g = c/d each pair is coprime, so h*g is a
    polynomial exactly when b | c and d | a, and then its value at zero
    is (c/b)(0) * (a/d)(0).  In the local kind X-orders add and the
    values at zero of the X-free parts multiply.
    """
    if inst.t_kind == "local":
        e = ord_at_zero(h) + ord_at_zero(g)
        if e != 0:
            return None if e < 0 else ZERO_ELEM
        return (h.num.lowest() * g.num.lowest()) / (h.den.lowest() * g.den.lowest())
    q1 = _exact_quotient(g.num, h.den)
    if q1 is None:
        return None
    q2 = _exact_quotient(h.num, g.den)
    if q2 is None:
        return None
    return q1.eval_zero() * q2.eval_zero()


def _exact_quotient(f: Poly, g: Poly) -> Poly | None:
    """f / g when g divides f, else None."""
    if g.is_one():
        return f
    q, r = divmod(f, g)
    return q if r.is_zero() else None


def contains_ideal(outer, inner, inst: PullbackInstance) -> bool:
    """inner is a subset of outer, decided on closed forms.

    A structured inner ideal is its lifts plus t*T; t*T lies in
    u*phi^-1(J) exactly when t/u is in T for J = k, and in M otherwise,
    as M is the largest T-submodule of phi^-1(J) when J != k.
    """
    outer = as_structured(outer, inst)
    if isinstance(inner, RawIdeal):
        return all(member_structured(g, outer, inst) for g in inner.gens)
    lifts, t = _generators(inner, inst)
    if not all(member_structured(g, outer, inst) for g in lifts):
        return False
    j = outer.dpart if outer.dpart.is_full() else inst._zero_module
    return _product_in(t, outer.unit.inv(), j, inst)


def ideal_equal(a, b, inst: PullbackInstance) -> bool:
    return as_structured(a, inst) == as_structured(b, inst)


def as_structured(ideal, inst: PullbackInstance) -> StructuredIdeal:
    if isinstance(ideal, StructuredIdeal):
        return ideal
    return structured_hull(ideal, inst)


# ---------------------------------------------------------------------------
# content and hull
# ---------------------------------------------------------------------------

def content_T(ideal: RawIdeal, inst: PullbackInstance) -> tuple[RatFunc, RawIdeal]:
    """Generator u of the T-ideal spanned by the generators, and I/u.

    The reduced part extends to the unit ideal of T.
    """
    u = _content(ideal.gens, inst)
    return u, RawIdeal([g / u for g in ideal.gens])


def _content(fs, inst: PullbackInstance) -> RatFunc:
    """Generator of the T-ideal spanned by the nonzero fs."""
    if inst.t_kind == "local":
        return RatFunc.x_power(min(ord_at_zero(f) for f in fs))
    den = Poly.one()
    for f in fs:
        den = poly_lcm(den, f.den)
    numerators = [f.num * (den // f.den) for f in fs]
    g0 = numerators[0]
    for p in numerators[1:]:
        g0 = poly_gcd(g0, p)
    return RatFunc(g0, den)


def structured_hull(ideal: RawIdeal, inst: PullbackInstance) -> StructuredIdeal:
    """Smallest structured ideal containing the raw ideal: I + u*M."""
    u, reduced = content_T(ideal, inst)
    values = [eval_at_zero(g) for g in reduced.gens]
    j0 = dmod_from_generators(values, inst.base)
    assert not j0.is_zero(), "reduced generators cannot all vanish at zero"
    return make_structured(u, j0, inst)


# ---------------------------------------------------------------------------
# closed-form colon, closures, arithmetic
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
    result = make_structured(s.unit.inv(), dmod_colon(s.dpart), inst)
    if _certified_colon(result, ideal, inst) is None:
        raise AssertionError("closed-form colon failed definitional certification")
    return _memo_put(_COLON_R_CACHE, (ideal, inst), result) if closed_form else result


def _certified_colon(colon: StructuredIdeal, ideal, inst: PullbackInstance):
    """The generators (lifts, t) of colon when colon * I lies in R, else None.

    Each lift times each generator q of I must lie in R, and t*T*q lies
    in R exactly when t*q is in M.  A raw I is generated by its raw
    generators; a structured I by its own lifts and T-part t_I, where
    p*t_I must lie in M for every generator p of the colon.
    """
    lifts, t = _generators(colon, inst)
    if isinstance(ideal, RawIdeal):
        gens, t_part_in_m = ideal.gens, True
    else:
        gens, t_i = _generators(ideal, inst)
        t_part_in_m = all(member_M_product(p, t_i, inst) for p in lifts + [t])
    if (t_part_in_m and all(member_M_product(t, q, inst) for q in gens)
            and all(member_R_product(p, q, inst) for p in lifts for q in gens)):
        return lifts, t
    return None


def _generators(s: StructuredIdeal, inst: PullbackInstance) -> tuple[list[RatFunc], RatFunc]:
    """(lifts, t): u*phi^-1(J) is generated over R by the lifts and by t*T,
    with t = u*X for a lattice J and t = u for J = k."""
    if s.dpart.is_full():
        return [], s.unit
    return lift_generators(s, inst), s.unit * RatFunc.x_power(1)


def lift_generators(s: StructuredIdeal, inst: PullbackInstance) -> list[RatFunc]:
    """Elements of u*phi^-1(J0) that witness its structure.

    For a lattice dpart these are the constant lifts u*c of a basis; they
    generate the ideal over R together with u*M.  For J0 = k it is u.
    """
    if s.dpart.is_full():
        return [s.unit]
    return [s.unit * RatFunc.coerce(Poly.const(c)) for c in s.dpart.basis_elements()]


def v_closure_R(ideal, inst: PullbackInstance) -> StructuredIdeal:
    """Divisorial closure (R : (R : I)) in closed form."""
    s = as_structured(ideal, inst)
    return make_structured(s.unit, dmod_v(s.dpart), inst)


def t_closure_R(ideal, inst: PullbackInstance) -> StructuredIdeal:
    # on finitely generated and structured inputs the finite-type closure
    # agrees with the divisorial one
    return v_closure_R(ideal, inst)


def ideal_arith(a, b, op: str, inst: PullbackInstance):
    """Products and sums; raw inputs stay raw for raw-raw products."""
    if op == "mul":
        if isinstance(a, RawIdeal) and isinstance(b, RawIdeal):
            return RawIdeal([f * g for f in a.gens for g in b.gens])
        sa, sb = as_structured(a, inst), as_structured(b, inst)
        return make_structured(sa.unit * sb.unit, dmod_arith(sa.dpart, sb.dpart, "mul"), inst)
    if op == "add":
        if isinstance(a, RawIdeal) and isinstance(b, RawIdeal):
            return RawIdeal(list(a.gens) + list(b.gens))
        sa, sb = as_structured(a, inst), as_structured(b, inst)
        return _structured_sum(sa, sb, inst)
    raise PullbackError(f"unknown ideal operation {op!r}")


def _structured_sum(sa: StructuredIdeal, sb: StructuredIdeal, inst: PullbackInstance) -> StructuredIdeal:
    # common content g, then the value modules add with the weights phi(u/g);
    # u/g lies in T, so its value at zero exists
    g = _content([sa.unit, sb.unit], inst)
    total = ExtDModule.zero(inst.base)
    for s in (sa, sb):
        value = _product_at_zero(s.unit, g.inv(), inst)
        if not value.is_zero():
            part = ExtDModule.full(inst.base) if s.dpart.is_full() else dmod_scale(value, s.dpart)
            total = dmod_arith(total, part, "add")
    return make_structured(g, total, inst)


def extend_to_T(ideal, inst: PullbackInstance) -> StructuredIdeal:
    """The T-ideal I*T = u*T, always principal here, as u * phi^-1(k)."""
    u = content_T(ideal, inst)[0] if isinstance(ideal, RawIdeal) else ideal.unit
    return make_structured(u, ExtDModule.full(inst.base), inst)


def inverse_image_R(j: ExtDModule, inst: PullbackInstance) -> StructuredIdeal:
    """phi^-1(J) as a structured ideal; the zero module maps to M."""
    return make_structured(RatFunc.one(), j, inst)


# ---------------------------------------------------------------------------
# definitional oracles
# ---------------------------------------------------------------------------

def oracle_colon_member(g: RatFunc, ideal: RawIdeal, inst: PullbackInstance) -> bool:
    """Exact test g in (R : I): g*f in R for every generator f.

    Each product's membership is decided by member_R_product without
    forming the product; that test is exact, not a heuristic.
    """
    g = RatFunc.coerce(g)
    return all(member_R_product(g, f, inst) for f in ideal.gens)


class OracleVerdict(Frozen):
    __slots__ = ("status", "witness")

    def __init__(self, status: str, witness: RatFunc | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

    def __repr__(self):
        return f"OracleVerdict({self.status!r}, {self.witness!r})"


def colon_generators(ideal: RawIdeal, inst: PullbackInstance,
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
    return _certified_colon(colon, ideal, inst)


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
        if not member_R_product(h, g, inst):
            return OracleVerdict("out-with-witness", g)
    value = ZERO_ELEM if h.is_zero() else _product_at_zero(h, t, inst)
    if value is not None and value.is_zero():
        return OracleVerdict("in")
    witness = t
    if value is not None:
        witness = t * RatFunc.coerce(Poly.const(outside_D(inst) / value))
    if oracle_colon_member(witness, ideal, inst):
        return OracleVerdict("out-with-witness", witness)
    return OracleVerdict("inconclusive")


def outside_D(inst: PullbackInstance) -> FieldElem:
    """A scalar of k outside D: sqrt(d) when D is the field Q, else 1/2."""
    return FieldElem(0, 1, inst.k_disc) if inst.base.kind == "field" else FieldElem(Fraction(1, 2))
