"""Seeded samplers and theorem-conformance suites with JSON reports.

``run_suite`` runs a named suite of ``SUITES`` under a star operation.
Each suite draws a deterministic sample population from its parameters,
runs exact checks per sample, and assembles a report whose verdict is
"pass" exactly when the violation list is empty.  Identical (instance,
suite, params, op) inputs produce byte-identical JSON.

Every named check is decided by one function in ``CHECKS``, which also
declares how its arguments are written into a violation's witness.  The
suites call these functions on the values they already hold, and
``replay_violation`` decodes a witness and calls the same function.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

from .base_domain import (
    DomainError,
    ExtDModule,
    class_label_D,
    dmod_from_generators,
    dmod_predicates,
)
from .class_groups import (
    ClassGroupError,
    alpha,
    gamma,
    invertibility_R,
    is_principal_R,
    class_equivalent_R,
)
from .exprlang import ExprError, elem_to_expr, evaluate, parse_expression, value_to_expr
from .kernel import FieldElem, Frozen, Poly, RatFunc, _make
from .pullback import (
    PullbackError,
    PullbackInstance,
    RawIdeal,
    StructuredIdeal,
    as_structured,
    colon_R,
    colon_generators,
    contains_ideal,
    extend_to_T,
    ideal_arith,
    ideal_equal,
    inverse_image_R,
    lift_generators,
    m_ideal,
    member_R,
    member_structured,
    oracle_colon_member,
    oracle_v_member,
    outside_D,
    product_shifts_in,
    span_product_in,
    structured_hull,
)
from .star_ops import IMPLEMENTED_R_OPS, StarEvalError, StarOp, read_op, star_eval


class HarnessError(ValueError):
    """Suite precondition failure."""


# generators per sampled ideal and degree of sampled polynomials, at most
MAX_GENS = MAX_DEGREE = 3


class SampleParams(Frozen):
    """Deterministic sampling bounds; equal seeds give equal populations."""

    __slots__ = ("seed", "count", "coeff_height", "degree_window")

    def __init__(self, seed: int = 0, count: int = 100, coeff_height: int = 6,
                 degree_window: int = 12):
        for name, v in (("count", count), ("coeff_height", coeff_height),
                        ("degree_window", degree_window)):
            if v <= 0:
                raise HarnessError(f"{name} must be positive")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "coeff_height", coeff_height)
        object.__setattr__(self, "degree_window", degree_window)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "count": self.count,
            "max_gens": MAX_GENS,
            "max_degree": MAX_DEGREE,
            "coeff_height": self.coeff_height,
            "degree_window": self.degree_window,
        }


class Report:
    """Suite outcome: per-sample records plus a replayable violation list."""

    def __init__(self, suite: str, instance: str, params: SampleParams):
        self.suite = suite
        self.instance = instance
        self.params = params
        self.records: list[dict] = []
        self.violations: list[dict] = []
        self.n_samples = 0

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "fail"

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instance": self.instance,
            "seed": self.params.seed,
            "params": self.params.to_dict(),
            "n_samples": self.n_samples,
            "n_violations": len(self.violations),
            "violations": self.violations,
            "records": self.records,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _sample_fraction(rng: random.Random, height: int) -> tuple[int, int]:
    """p/q with |p| <= height and 1 <= q <= 3, as the pair (p, q), not reduced."""
    return rng.randint(-height, height), rng.randint(1, 3)


def _sample_scalar(rng: random.Random, inst: PullbackInstance, height: int,
                   nonzero=False, allow_surd=True) -> FieldElem:
    while True:
        p, q = _sample_fraction(rng, height)
        r, s = 0, 1
        if allow_surd and inst.k_disc != 1 and rng.random() < 0.5:
            r, s = _sample_fraction(rng, height)
        # p/q + (r/s)*sqrt(d) over q*s; the tag drops to 1 when r == 0
        e = _make(p * s, r * q, q * s, inst.k_disc)
        if not e.is_zero() or not nonzero:
            return e


def _sample_poly(rng: random.Random, inst: PullbackInstance, height: int) -> Poly:
    while True:
        deg = rng.randint(0, MAX_DEGREE)
        coeffs = [_sample_scalar(rng, inst, height) for _ in range(deg + 1)]
        p = Poly(coeffs)
        if not p.is_zero():
            return p


def _sample_ratfunc(rng: random.Random, inst: PullbackInstance, params: SampleParams) -> RatFunc:
    num = _sample_poly(rng, inst, params.coeff_height)
    if rng.random() < 0.2:
        f = RatFunc(num, Poly([_sample_scalar(rng, inst, params.coeff_height, nonzero=True), 1]))
    else:
        f = RatFunc.coerce(num)
    if rng.random() < 0.25:
        f = f.shift(rng.randint(-2, 2))
    return f


def _corner_ideals(inst: PullbackInstance) -> list[RawIdeal]:
    x = RatFunc.x_power(1)
    two = RatFunc.coerce(2)
    corners = [
        RawIdeal([x]),
        RawIdeal([two, x]),
        RawIdeal([RatFunc.coerce(3)]),
        RawIdeal([x * two, x * x]),
        RawIdeal([x * x, x / 2]),
    ]
    if inst.k_disc != 1:
        surd = RatFunc.coerce(_make(0, 1, 1, inst.k_disc))
        corners.append(RawIdeal([RatFunc.one(), surd]))
        corners.append(RawIdeal([two, RatFunc.one() + surd]))
    return corners


def sample_ideals(inst: PullbackInstance, params: SampleParams) -> list[RawIdeal]:
    """Deterministic raw-ideal population with forced corner cases."""
    rng = random.Random(params.seed)
    out = list(_corner_ideals(inst))[: params.count]
    while len(out) < params.count:
        n = rng.randint(1, MAX_GENS)
        gens = [_sample_ratfunc(rng, inst, params) for _ in range(n)]
        try:
            out.append(RawIdeal(gens))
        except PullbackError:
            continue
    return out


def sample_dmods(inst: PullbackInstance, params: SampleParams) -> list[ExtDModule]:
    """Deterministic population of nonzero fractional D-ideals.

    Generators are drawn inside the quotient field of D, so the modules
    are honest fractional ideals even when that field is smaller than k.
    """
    rng = random.Random(params.seed + 1)
    allow_surd = inst.base.quotient_field_is_k()
    out = []
    while len(out) < params.count:
        n = rng.randint(1, MAX_GENS)
        gens = [_sample_scalar(rng, inst, params.coeff_height, allow_surd=allow_surd)
                for _ in range(n)]
        mod = dmod_from_generators(gens, inst.base)
        if mod.is_zero():
            continue
        out.append(mod)
    return out


def sample_elements_of_M(inst: PullbackInstance, params: SampleParams, count: int) -> list[RatFunc]:
    rng = random.Random(params.seed + 2)
    out = []
    while len(out) < count:
        f = RatFunc.coerce(_sample_poly(rng, inst, params.coeff_height))
        out.append(f.shift(rng.randint(1, 2)))
    return out


# ---------------------------------------------------------------------------
# check registry: one function per group of named checks, shared by the
# suites and by replay
# ---------------------------------------------------------------------------

# witness field kinds: how a check's argument is written into a violation
# witness, and read back from it by replay; all but op and json are
# written as expressions, which must evaluate to the types given here
_IDEAL, _CLOSED, _ELEM, _GEN, _DMOD, _OP, _JSON = (
    "an ideal", "a structured ideal", "an element", "a nonzero element",
    "an ideal of constants", "op", "json")
_READS_AS = {_IDEAL: (RawIdeal, StructuredIdeal), _CLOSED: StructuredIdeal, _ELEM: RatFunc,
             _GEN: RatFunc, _DMOD: RawIdeal}

# check name -> (check function, {witness field: kind})
CHECKS: dict[str, tuple] = {}


def _check(*names: str, **fields: str):
    """Register a check function as the one decision of the named checks.

    A check function takes ``(inst, op, fail, **values)``, calls ``fail``
    for each named check that does not hold, and returns what the suite's
    records need.  ``fields`` gives the kind of each witness field.
    """
    def register(fn):
        for name in names:
            CHECKS[name] = (fn, fields)
        return fn
    return register


def _write(kind: str, value, inst: PullbackInstance):
    if kind in (_IDEAL, _CLOSED, _ELEM, _GEN):
        return value_to_expr(value, inst)
    if kind == _DMOD:
        return _dmod_witness(value)
    return str(value) if kind == _OP else value


def _read(name: str, kind: str, data, inst: PullbackInstance):
    if kind == _JSON:
        return data
    if kind == _OP:
        try:
            return read_op(str(data), "R")
        except StarEvalError as exc:
            raise HarnessError(f"unknown op {data!r}: {exc}") from exc
    if not isinstance(data, str):
        raise HarnessError(f"witness field {name!r} must be an expression, not {data!r}")
    try:
        value = evaluate(parse_expression(data), inst)
    except ExprError as exc:
        raise HarnessError(f"witness field {name!r}: {exc}") from exc
    if not isinstance(value, _READS_AS[kind]) or (kind == _GEN and value.is_zero()) or (
            kind == _DMOD and not all(g.is_constant() for g in value.gens)):
        raise HarnessError(f"witness field {name!r} must be {kind}, not {data!r}")
    if kind == _DMOD:
        return dmod_from_generators([g.const_value() for g in value.gens], inst.base)
    return value


def _dmod_witness(j: ExtDModule) -> str:
    # serialized as an ideal of constant generators, so replay can parse it;
    # basis_elements refuses the zero and full sentinels, which have no such form
    return "ideal(" + ", ".join(elem_to_expr(b) for b in j.basis_elements()) + ")"


def _decide(rep: Report, fn, inst: PullbackInstance, op: StarOp, **values):
    """Run a check function; every check it fails becomes a violation.

    Notes passed to ``fail`` go into the witness as given; replay does not read them.
    """
    def fail(check: str, expected, got, **notes):
        owner, fields = CHECKS.get(check, (None, {}))
        if owner is not fn:
            raise HarnessError(f"check {check!r} is not registered to {fn.__name__}")
        data = {**values, "op": op}
        witness = {name: _write(kind, data[name], inst) for name, kind in fields.items()}
        rep.violations.append({"check": check, "expected": str(expected), "got": str(got),
                               "witness": {**witness, **notes}})
    return fn(inst, op, fail, **values)


@_check("alpha-injective", j1=_DMOD, j2=_DMOD, op=_OP)
def _alpha_injective(inst, op, fail, j1, j2):
    if class_equivalent_R(alpha(j1, inst), alpha(j2, inst), op, inst):
        fail("alpha-injective", "distinct classes", "equivalent")


@_check("gamma-alpha-identity", "beta-trivial-on-alpha", j=_DMOD)
def _splitting(inst, op, fail, j):
    """alpha(j), the class label of j, gamma(alpha(j)) and beta(alpha(j))."""
    image = alpha(j, inst)
    label = class_label_D(j)
    got, t_part = gamma(image, inst), extend_to_T(image, inst)
    if got != label:
        fail("gamma-alpha-identity", label, got)
    if not t_part.unit.is_one():
        fail("beta-trivial-on-alpha", "T", t_part.unit)
    return image, label, got, t_part


@_check("kernel-capture", ideal=_CLOSED, op=_OP)
def _kernel_capture(inst, op, fail, ideal):
    """The alpha preimage of an op-invertible t-closed ideal, or None."""
    if not dmod_predicates(ideal.dpart).is_invertible:
        fail("kernel-capture", "invertible dpart", "not invertible")
        return None
    preimage = alpha(ideal.dpart, inst)
    if not class_equivalent_R(ideal, preimage, op, inst):
        fail("kernel-capture", "class equivalent to alpha preimage", "not equivalent")
    return preimage


@_check("normalized-window", "alpha-preimage", "trivial-class",
        ideal=_IDEAL, normalized=_CLOSED, op=_OP)
def _alpha_preimage(inst, op, fail, ideal, normalized):
    """Whether the normalized ideal lies in the window, and a generator of
    the ideal or None; Cl(R) = Cl(D) makes it principal exactly when its
    alpha preimage is."""
    if not normalized.unit.is_one() or normalized.dpart.is_full():
        fail("normalized-window", "M < I1 <= I1^v < T", repr(normalized))
        return False, None
    preimage = alpha(normalized.dpart, inst)
    if not class_equivalent_R(ideal, preimage, op, inst):
        fail("alpha-preimage", "class equivalent", "not equivalent")
    gen = is_principal_R(ideal, inst)
    if (gen is None) != (is_principal_R(preimage, inst) is None):
        fail("trivial-class", "principal exactly when its alpha preimage is",
             "not principal" if gen is None else "principal")
    return True, gen


@_check("pvmd-sample", ideal=_IDEAL, op=_OP)
def _pvmd_sample(inst, op, fail, ideal):
    invertible = invertibility_R(ideal, op, inst).is_star_invertible
    if not invertible:
        fail("pvmd-sample", "t-invertible", "not invertible")
    return invertible


@_check("pvmd-witness", op=_OP, samples_invertible=_JSON)
def _pvmd_witness(inst, op, fail, samples_invertible):
    # a non-invertible sample also stands in for a search-family witness
    for cand in _witness_search_family(inst):
        witness = invertibility_R(cand, op, inst)
        if not witness.is_star_invertible:
            return cand, witness.closed
    if samples_invertible:
        fail("pvmd-witness", "a non-invertible witness", "none found")
    return None


@_check("witness-oracle", ideal=_IDEAL)
def _witness_oracle(inst, op, fail, ideal):
    confirmed = _confirm_noninvertibility(ideal, inst)
    if not confirmed:
        fail("witness-oracle", "oracle confirmation", "unconfirmed")
    return confirmed


@_check("M-fixed", op=_OP)
def _m_fixed(inst, op, fail):
    m = m_ideal(inst)
    fixed = ideal_equal(star_eval(op, m, inst), m, inst)
    if not fixed:
        fail("M-fixed", "M", "moved")
    return fixed


@_check("rT-divisorial", r=_GEN)
def _rt_divisorial(inst, op, fail, r):
    rt = extend_to_T(RawIdeal([r]), inst)
    closed = star_eval(StarOp.divisorial("R"), rt, inst)
    holds = ideal_equal(closed, rt, inst)
    if not holds:
        fail("rT-divisorial", "rT", value_to_expr(closed, inst))
    return holds


@_check("cT-fixed", "t-vs-v-extension", c=_GEN)
def _extension_agreement(inst, op, fail, c):
    """Whether (t_R)_T fixes cT, and whether it agrees with (v_R)_T there."""
    ct = extend_to_T(RawIdeal([c]), inst)
    ext = star_eval(StarOp.extended_T(StarOp.t_op("R")), ct, inst)
    ext_v = star_eval(StarOp.extended_T(StarOp.divisorial("R")), ct, inst)
    if ext != ct:
        fail("cT-fixed", value_to_expr(ct, inst), value_to_expr(ext, inst))
    if ext != ext_v:
        fail("t-vs-v-extension", value_to_expr(ext, inst), value_to_expr(ext_v, inst))
    return ext == ct, ext == ext_v


@_check("alpha-invertible", "label-vs-principal", j=_DMOD, op=_OP)
def _alpha_invertible(inst, op, fail, j):
    """Whether alpha(j) is op-invertible, the class label of j, and principality."""
    witness = invertibility_R(alpha(j, inst), op, inst)
    label = class_label_D(j)
    principal = witness.principal_gen is not None
    if not witness.is_invertible:
        fail("alpha-invertible", "invertible", "not invertible")
    if principal != label.is_identity():
        fail("label-vs-principal", label.is_identity(), principal)
    return witness.is_invertible, label, principal


@_check("pic-decomposition", ideal=_IDEAL)
def _pic_decomposition(inst, op, fail, ideal):
    """gamma of an invertible structured ideal, and whether it is principal."""
    label = gamma(ideal, inst)
    principal = is_principal_R(ideal, inst) is not None
    if principal != label.is_identity():
        fail("pic-decomposition", "principal iff trivial label",
             f"principal={principal}, label={label}")
    return label, principal


@_check("colon-agreement", ideal=_IDEAL, element=_ELEM)
def _colon_agreement(inst, op, fail, ideal, element, closed_colon=None):
    # the suite passes the closed form it computed once for the ideal
    if closed_colon is None:
        closed_colon = colon_R(ideal, inst)
    oracle = oracle_colon_member(element, ideal, inst)
    closed = member_structured(element, closed_colon, inst)
    if oracle != closed:
        fail("colon-agreement", f"oracle={oracle}", f"closed={closed}")


@_check("v-agreement", ideal=_IDEAL, element=_ELEM)
def _v_agreement(inst, op, fail, ideal, element, closed_v=None, generators=None):
    # the suite passes I^v and the certified generators of (R : I),
    # computed once for the ideal
    if closed_v is None:
        closed_v = star_eval(StarOp.divisorial("R"), ideal, inst)
    verdict = oracle_v_member(element, ideal, inst, generators)
    inside = member_structured(element, closed_v, inst)
    if inside and verdict.status == "out-with-witness":
        fail("v-agreement", "member", "excluded by witness",
             witness=value_to_expr(verdict.witness, inst))
    if not inside and verdict.status == "in":
        fail("v-agreement", "non-member", "certified in")


@_check("extensive", "idempotent", "monotone", ideal=_IDEAL, other=_IDEAL, op=_OP)
def _closure_laws(inst, op, fail, ideal, other):
    """I^op, checking I <= I^op = (I^op)^op <= (I + other)^op."""
    closed = star_eval(op, ideal, inst)
    bigger = star_eval(op, ideal_arith(ideal, other, "add", inst), inst)
    for check, holds in (("extensive", contains_ideal(closed, ideal, inst)),
                         ("idempotent", ideal_equal(star_eval(op, closed, inst), closed, inst)),
                         ("monotone", contains_ideal(bigger, closed, inst))):
        if not holds:
            fail(check, "I <= I^op = (I^op)^op <= (I + other)^op", value_to_expr(closed, inst))
    return closed


@_check("principal-fixed", "scalar-equivariant", ideal=_IDEAL, scalar=_GEN, op=_OP)
def _scalar_laws(inst, op, fail, ideal, scalar):
    """(zR)^op = zR and (zI)^op = z*I^op for the scalar z."""
    z = RawIdeal([scalar])
    got_scaled = star_eval(op, ideal_arith(z, ideal, "mul", inst), inst)
    want_scaled = ideal_arith(z, star_eval(op, ideal, inst), "mul", inst)
    for check, got, want in (("principal-fixed", star_eval(op, z, inst), z),
                             ("scalar-equivariant", got_scaled, want_scaled)):
        if not ideal_equal(got, want, inst):
            fail(check, value_to_expr(want, inst), value_to_expr(got, inst))


@_check("below-v", "below-lift-proj", "t-is-v-on-fg", "lift-v-is-v", ideal=_IDEAL, op=_OP)
def _order_laws(inst, op, fail, ideal):
    """I^op <= I^v, as v is the largest star operation, and I^op <=
    lift(proj(op))(I); on a finitely generated I, I^t = I^v = lift(v_D)(I)."""
    closed, closed_v, lifted = (star_eval(o, ideal, inst) for o in (
        op, StarOp.divisorial("R"), StarOp.lifted(StarOp.projected(op))))
    for check, bound in (("below-v", closed_v), ("below-lift-proj", lifted)):
        if not contains_ideal(bound, closed, inst):
            fail(check, value_to_expr(bound, inst), value_to_expr(closed, inst))
    for check, same in (("t-is-v-on-fg", StarOp.t_op("R")),
                        ("lift-v-is-v", StarOp.lifted(StarOp.divisorial("D")))):
        got = star_eval(same, ideal, inst)
        if not ideal_equal(got, closed_v, inst):
            fail(check, value_to_expr(closed_v, inst), value_to_expr(got, inst))


@_check("proj-extensive", "proj-idempotent", "proj-monotone", "proj-principal-fixed",
        "proj-scalar-equivariant", "proj-lift-identity", j=_DMOD, other=_DMOD, op=_OP)
def _projected_laws(inst, op, fail, j, other):
    """phi^-1(J^proj(op)), checking the laws above for proj(op) at J with
    the scalar 2, each read on phi^-1(J), which lift(proj(op)) closes to
    phi^-1(J^proj(op)); and proj(lift(s)) = s at J for s = d_D, v_D."""
    def renamed(check, *args):
        fail("proj-" + check, *args)
    lifted, ideal = StarOp.lifted(StarOp.projected(op)), inverse_image_R(j, inst)
    closed = _closure_laws(inst, lifted, renamed, ideal, inverse_image_R(other, inst))
    _scalar_laws(inst, lifted, renamed, ideal, RatFunc.coerce(2))
    for s in (StarOp.identity("D"), StarOp.divisorial("D")):
        if star_eval(StarOp.projected(StarOp.lifted(s)), j, inst) != star_eval(s, j, inst):
            fail("proj-lift-identity", f"J^{s}", "another module")
    return closed


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _class_group_report(suite: str, inst: PullbackInstance, params: SampleParams) -> Report:
    rep = Report(suite, inst.name, params)
    rep.records.append({"check": "class-group",
                        "presentation": list(inst.base.class_presentation)})
    return rep


def _split_exact(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Injectivity, splitting, and kernel capture of the class sequence."""
    rep = _class_group_report("split-exact", inst, params)
    reps = inst.base.class_representatives()
    # injectivity across class representatives
    for j1, j2 in combinations(reps, 2):
        _decide(rep, _alpha_injective, inst, op, j1=j1, j2=j2)
        rep.records.append({"check": "alpha-injective",
                            "classes": [str(class_label_D(j1)), str(class_label_D(j2))]})
    # splitting and triviality of beta on representatives and sampled D-ideals
    dmods = reps + sample_dmods(inst, params)[: params.count // 2]
    for j in dmods:
        if not dmod_predicates(j).is_invertible:
            continue
        image, label, got, t_part = _decide(rep, _splitting, inst, op, j=j)
        rep.records.append({
            "check": "splitting",
            "ideal": _dmod_witness(j),
            "op": str(op),
            "class_label": str(label),
            "alpha_image": value_to_expr(image, inst),
            "beta_image": value_to_expr(t_part, inst),
            "gamma_of_alpha": str(got),
        })
    # kernel capture on sampled op-invertible ideals
    for raw in sample_ideals(inst, params):
        rep.n_samples += 1
        closed = star_eval(StarOp.t_op("R"), raw, inst)
        witness = invertibility_R(closed, op, inst)
        record = {
            "check": "kernel-capture",
            "ideal": value_to_expr(raw, inst),
            "op": str(op),
            "certificates": witness.certificate,
        }
        if witness.is_star_invertible:
            preimage = _decide(rep, _kernel_capture, inst, op, ideal=closed)
            if preimage is not None:
                record["class_label"] = str(gamma(closed, inst))
                record["alpha_preimage"] = value_to_expr(preimage, inst)
                record["beta_image"] = value_to_expr(extend_to_T(closed, inst), inst)
        rep.records.append(record)
    return rep


def _quasilocal_iso(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Every invertible ideal reduces to an alpha preimage when T is local."""
    if not inst.t.quasilocal:
        raise HarnessError("quasilocal-iso needs a quasilocal T (instances B, E)")
    rep = Report("quasilocal-iso", inst.name, params)
    for raw in sample_ideals(inst, params):
        rep.n_samples += 1
        closed = star_eval(StarOp.t_op("R"), raw, inst)
        witness = invertibility_R(closed, op, inst)
        record = {"ideal": value_to_expr(raw, inst), "certificates": witness.certificate}
        rep.records.append(record)
        if not witness.is_star_invertible:
            record["skipped"] = "not invertible"
            continue
        # T-generator drawn from the generators themselves
        i_gen = inst.t.generator(raw.gens)
        shifted = RawIdeal([g / i_gen for g in raw.gens])
        s1 = star_eval(StarOp.t_op("R"), shifted, inst)
        record["i_generator"] = value_to_expr(i_gen, inst)
        record["normalized"] = value_to_expr(s1, inst)
        in_window, gen = _decide(rep, _alpha_preimage, inst, op, ideal=closed, normalized=s1)
        if in_window:
            record["principal"] = gen is not None and value_to_expr(gen, inst)
    return rep


def _witness_search_family(inst: PullbackInstance) -> list[RawIdeal]:
    x = RatFunc.x_power(1)
    surd = [RatFunc.coerce(_make(0, 1, 1, inst.k_disc))] if inst.k_disc != 1 else []
    atoms = [RatFunc.one(), *surd, RatFunc.coerce(2), x, x * RatFunc.coerce(2)]
    return [RawIdeal(pair) for pair in combinations(atoms, 2)]


def _pvmd(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Finite-type invertibility of every sampled ideal when R is a PvMD,
    else a non-invertible witness."""
    rep = Report("pvmd", inst.name, params)
    # every catalogued D is a PvMD and T_M is the DVR K[X]_(X), so R is a
    # PvMD exactly when k is the quotient field of D
    structural = inst.is_square_plus
    rep.records.append({"check": "structural-flags", "pvmd": structural,
                        "qf_D_is_k": inst.is_square_plus})
    samples = []
    for raw in sample_ideals(inst, params):
        rep.n_samples += 1
        # every sample must be invertible when R is a PvMD
        invertible = (_decide(rep, _pvmd_sample, inst, op, ideal=raw) if structural
                      else invertibility_R(raw, op, inst).is_star_invertible)
        samples.append({"ideal": value_to_expr(raw, inst), "t_invertible": invertible})
    if not structural:
        found = _decide(rep, _pvmd_witness, inst, op,
                        samples_invertible=all(s["t_invertible"] for s in samples))
        if found is not None:
            cand, closure = found
            rep.records.append({
                "check": "witness",
                "ideal": value_to_expr(cand, inst),
                "closure": value_to_expr(as_structured(closure, inst), inst),
                "oracle_confirmed": _decide(rep, _witness_oracle, inst, op, ideal=cand),
            })
    rep.records.extend(samples)
    return rep


def _confirm_noninvertibility(raw: RawIdeal, inst: PullbackInstance) -> bool:
    """Definitional confirmation that (I * I^-1)^v omits 1.

    With certified generators of I^-1 = (R : I), I * I^-1 must lie in
    M = phi^-1(0).  Then e*I*I^-1 lies in M, inside R, for the scalar e
    outside D, so e is in (R : I*I^-1) while 1*e is not in R.
    """
    generators = colon_generators(raw, inst)
    return (generators is not None
            and span_product_in((raw.gens, None), generators, ExtDModule.zero(inst.base), inst)
            and not member_R(outside_D(inst), inst))


def _extension_laws(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Conductor fixing, rT divisorial and the extension (t_R)_T on T.

    On this catalogue T is a PID and M = X*T, so rT and cT are v_R-closed
    by construction.
    """
    rep = Report("extension-laws", inst.name, params)
    for text in IMPLEMENTED_R_OPS:
        fixed = _decide(rep, _m_fixed, inst, read_op(text, "R"))
        rep.records.append({"check": "M-fixed", "op": text, "fixed": fixed})
    rng_count = 20
    for r in sample_elements_of_M(inst, params, rng_count):
        rep.n_samples += 1
        holds = _decide(rep, _rt_divisorial, inst, op, r=r)
        rep.records.append({"check": "rT-divisorial", "r": value_to_expr(r, inst), "holds": holds})
    rng = random.Random(params.seed + 3)
    for _ in range(rng_count):
        c = _sample_ratfunc(rng, inst, params)  # nonzero, as its numerator is
        rep.n_samples += 1
        ct_fixed, t_eq_v = _decide(rep, _extension_agreement, inst, op, c=c)
        rep.records.append({"check": "extension-agreement", "c": value_to_expr(c, inst),
                            "ct_fixed": ct_fixed, "t_eq_v_extension": t_eq_v})
    return rep


def _pic_splitting(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Invertible ideals decompose through the gamma label and the T part."""
    rep = _class_group_report("pic-splitting", inst, params)
    d_op = StarOp.identity("R")  # the Picard group: plain invertibility
    for j in inst.base.class_representatives():
        invertible, label, principal = _decide(rep, _alpha_invertible, inst, d_op, j=j)
        rep.records.append({
            "check": "alpha-invertible",
            "ideal": _dmod_witness(j),
            "invertible": invertible,
            "class_label": str(label),
            "principal": principal,
        })
    for raw in sample_ideals(inst, params):
        rep.n_samples += 1
        closed = structured_hull(raw, inst)
        if not invertibility_R(closed, d_op, inst).is_invertible:
            rep.records.append({"ideal": value_to_expr(raw, inst), "skipped": "not invertible"})
            continue
        label, principal = _decide(rep, _pic_decomposition, inst, d_op, ideal=closed)
        rep.records.append({
            "ideal": value_to_expr(raw, inst),
            "class_label": str(label),
            "beta_image": value_to_expr(extend_to_T(closed, inst), inst),
            "principal": principal,
        })
    return rep


def _star_laws(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """The laws of op on the sampled R-ideals, for the scalars 3 and X and
    against the next sample, and of proj(op) on the sampled D-modules."""
    rep = Report("star-laws", inst.name, params)
    rep.records.append({"check": "op", "op": str(op)})
    raws = sample_ideals(inst, params)
    for raw, other in zip(raws, raws[1:] + raws[:1]):
        rep.n_samples += 1
        closed = _decide(rep, _closure_laws, inst, op, ideal=raw, other=other)
        for z in (RatFunc.coerce(3), RatFunc.x_power(1)):
            _decide(rep, _scalar_laws, inst, op, ideal=raw, scalar=z)
        _decide(rep, _order_laws, inst, op, ideal=raw)
        rep.records.append({"ideal": value_to_expr(raw, inst), "closure": value_to_expr(closed, inst)})
    dmods = sample_dmods(inst, params)
    for j, other in zip(dmods, dmods[1:] + dmods[:1]):
        rep.n_samples += 1
        closed = _decide(rep, _projected_laws, inst, op, j=j, other=other)
        rep.records.append({"dmod": _dmod_witness(j), "closure": value_to_expr(closed, inst)})
    return rep


def _oracle_agreement(inst: PullbackInstance, op: StarOp, params: SampleParams) -> Report:
    """Closed-form colon and divisorial closure never contradict the oracles.

    The colon's degree window, b*X^j for j in 1..degree_window and -1 and
    b the first generator or lift, is decided from X-orders; a shift
    where the two disagree goes to colon-agreement, which must then fail.
    """
    rep = Report("oracle-agreement", inst.name, params)
    shifts = [*range(1, params.degree_window + 1), -1]
    for raw in sample_ideals(inst, params):
        rep.n_samples += 1
        before = len(rep.violations)
        hull = structured_hull(raw, inst)
        # the hull's colon, certified against the raw generators once, in
        # colon_generators; a failure there makes the v-oracle inconclusive
        closed_colon = colon_R(hull, inst)
        closed_v = star_eval(StarOp.divisorial("R"), hull, inst)
        lifts = lift_generators(closed_colon)
        for g in (*raw.gens, *lifts):
            _decide(rep, _colon_agreement, inst, op, ideal=raw, element=g,
                    closed_colon=closed_colon)
        bases = (raw.gens[0], lifts[0])
        for b in bases:
            window = _window_verdicts(b, raw, closed_colon, shifts, inst)
            for j, (oracle, closed) in zip(shifts, window):
                if oracle != closed:
                    found = len(rep.violations)
                    _decide(rep, _colon_agreement, inst, op, ideal=raw, element=b.shift(j),
                            closed_colon=closed_colon)
                    if len(rep.violations) == found:
                        raise AssertionError(f"the degree window disagrees with colon-agreement "
                                             f"at X^{j} * {value_to_expr(b, inst)}")
        generators = colon_generators(raw, inst, closed_colon)
        v_grid = _v_grid(raw, hull, closed_v)
        for h in v_grid:
            _decide(rep, _v_agreement, inst, op, ideal=raw, element=h,
                    closed_v=closed_v, generators=generators)
        rep.records.append({"ideal": value_to_expr(raw, inst),
                            "grid": len(raw.gens) + len(lifts) + len(bases) * len(shifts)
                            + len(v_grid),
                            "contradictions": len(rep.violations) - before})
    return rep


def _window_verdicts(b: RatFunc, raw: RawIdeal, closed_colon: StructuredIdeal, shifts,
                     inst: PullbackInstance) -> list[tuple[bool, bool]]:
    """(oracle, closed) for each j in shifts: whether b*X^j*f lies in R for
    every generator f of raw, and whether b*X^j lies in the closed colon
    u*phi^-1(J), that is b*X^j/u in phi^-1(J); each product's shifts are
    read from its one X-order, pullback._x_order, and its one value at
    zero at the shift j = -e (product_shifts_in)."""
    d_module = inst.base.unit_module()
    oracle = [product_shifts_in(b, f, d_module, shifts, inst) for f in raw.gens]
    closed = product_shifts_in(b, closed_colon._unit_inv, closed_colon.dpart, shifts, inst)
    return [(all(column), inside) for column, inside in zip(zip(*oracle), closed)]


def _v_grid(raw: RawIdeal, hull, closed_v) -> list[RatFunc]:
    out = list(raw.gens)
    if closed_v.dpart.is_lattice():
        out.extend(lift_generators(closed_v))
    out.append(hull.unit.shift(-1))
    out.append(hull.unit / 3)
    out.append(raw.gens[0].shift(1))
    return out


# ---------------------------------------------------------------------------
# runner and replay
# ---------------------------------------------------------------------------

SUITES = {
    "split-exact": _split_exact,
    "quasilocal-iso": _quasilocal_iso,
    "pvmd": _pvmd,
    "extension-laws": _extension_laws,
    "pic-splitting": _pic_splitting,
    "oracle-agreement": _oracle_agreement,
    "star-laws": _star_laws,
}


def run_suite(suite: str, inst: PullbackInstance, params: SampleParams,
              op: StarOp | None = None) -> Report:
    """Run a named suite under ``op`` (default ``t``); the one suite entry point.

    extension-laws, pic-splitting and oracle-agreement fix their own
    operations and do not read ``op``.
    """
    if suite not in SUITES:
        raise HarnessError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return SUITES[suite](inst, op or StarOp.t_op("R"), params)


def replay_violation(violation: dict, inst: PullbackInstance) -> bool:
    """Re-run the failed check from its serialized witness.

    Decodes the witness and calls the check function the suite called.
    Returns True when the violation reproduces (the check still fails).
    A witness that cannot be read, or that the check function refuses as
    outside its domain (ClassGroupError, DomainError, StarEvalError), raises
    HarnessError.
    """
    if not (isinstance(violation, dict) and isinstance(violation.get("check"), str)
            and isinstance(violation.get("witness"), dict)):
        raise HarnessError("a violation is a mapping with a string 'check' and a mapping 'witness'")
    check, data = violation["check"], violation["witness"]
    if check not in CHECKS:
        raise HarnessError(f"no check named {check!r}")
    fn, fields = CHECKS[check]
    if not set(fields) <= set(data):
        raise HarnessError(f"a {check!r} witness needs the fields {sorted(fields)}")
    values = {name: _read(name, kind, data[name], inst) for name, kind in fields.items()}
    failed = []
    try:
        fn(inst, values.pop("op", None), lambda name, *_, **__: failed.append(name), **values)
    except (ClassGroupError, DomainError, StarEvalError) as exc:
        raise HarnessError(f"the {check!r} witness is outside the check's domain: {exc}") from exc
    return check in failed
