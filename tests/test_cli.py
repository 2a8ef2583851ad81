"""Expression language and command-line behavior."""

import json
import random
import string
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starpull import class_groups, exprlang
from starpull.base_domain import class_label_D
from starpull.cli import run_command
from starpull.exprlang import (
    MAX_GENERATORS,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_DEGREE,
    MAX_VALUE_BITS,
    MAX_VALUE_DEGREE,
    ExprError,
    elem_to_expr,
    evaluate,
    parse_expression,
    pretty_elem,
    pretty_value,
    value_to_expr,
)
from starpull.harness import SampleParams, sample_ideals
from starpull.kernel import FieldElem, KernelError, Poly, RatFunc
from starpull.pullback import (
    PullbackError,
    RawIdeal,
    extend_to_T,
    ideal_equal,
    make_instance,
    structured_hull,
)
from starpull.star_ops import StarOp, star_eval
import reference_parser
import reference_printers
from strategies import elems, ratfuncs

V_R = StarOp.divisorial("R")


def _shape(node):
    return node.kind, node.pos, node.value, [_shape(child) for child in node.children]


def _parsed(parse, text):
    """The AST's shape, or the error's (message, offset)."""
    try:
        return _shape(parse(text))
    except ExprError as err:
        return err.message, err.pos


# the grammar's tokens, whitespace, and a few non-ASCII characters: a
# non-decimal digit, a decimal one, a numeric, a letter and a space
_PARSER_TEXTS = st.lists(st.sampled_from([
    "(", ")", ",", "+", "-", "*", "/", "^", "#", "X", "0", "12", "sqrt", "ideal", "v", "hull",
    "alpha", "frob", "_", " ", "  ", "\t", "\n", "²", "٣", "½", "é", "\u00a0",
]), max_size=40).map("".join)


class TestParser:
    def test_t_of_ideal(self):
        ast = parse_expression("t(ideal(2, X))")
        assert ast.kind == "call" and ast.value == "t"
        assert ast.children[0].kind == "ideal"

    def test_colon_of_gaussian(self):
        ast = parse_expression("colon(ideal(1, sqrt(-1)))")
        assert ast.kind == "call" and ast.value == "colon"

    def test_error_position(self):
        with pytest.raises(ExprError) as err:
            parse_expression("ideal(2 X)")
        assert err.value.pos == 8

    def test_unknown_function(self):
        with pytest.raises(ExprError):
            parse_expression("frobnicate(ideal(2))")

    def test_arity_checked(self):
        with pytest.raises(ExprError):
            parse_expression("v(ideal(2), ideal(3))")

    def test_whitespace_insensitive(self):
        a = parse_expression("v( ideal( 2 , X ) )")
        b = parse_expression("v(ideal(2,X))")
        inst = make_instance("A")
        assert evaluate(a, inst) == evaluate(b, inst)

    def test_trailing_input_rejected(self):
        with pytest.raises(ExprError):
            parse_expression("ideal(2))")

    def test_parser_totality_on_fuzz(self):
        rng = random.Random(99)
        alphabet = string.ascii_letters + string.digits + "()+-*/^, X"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 80)))
            try:
                parse_expression(text)
            except ExprError as err:
                assert 0 <= err.pos <= len(text) + 1

    def test_size_limit(self):
        # refused at the first character past 64 KiB of UTF-8: "é" takes two bytes
        for text, pos in (("1" * (64 * 1024 + 1), 64 * 1024), ("é" * 40000, 32 * 1024)):
            with pytest.raises(ExprError) as err:
                parse_expression(text)
            assert err.value.message == "input exceeds 64 KiB"
            assert 0 <= err.value.pos <= len(text) and err.value.pos == pos

    def test_non_decimal_digits_are_not_integers(self):
        # "²" passes str.isdigit but not int(); it is no integer literal.
        # Offsets count characters: "٣", a decimal digit, is two bytes.
        for text, message, pos in (("1²", "trailing input", 1),
                                   ("²", "unexpected character '²'", 0),
                                   ("X^²", "expected an integer", 2),
                                   ("٣+#", "unexpected character '#'", 2)):
            with pytest.raises(ExprError) as err:
                parse_expression(text)
            assert (err.value.message, err.value.pos) == (message, pos)
        assert parse_expression("٣").value == 3

    @given(text=_PARSER_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_parser(self, text):
        new, old = _parsed(parse_expression, text), _parsed(reference_parser.parse_expression, text)
        if new != old:
            # the reference reads a digit such as "²" that int() refuses as a literal
            assert any(ch.isdigit() and not ch.isdecimal() for ch in text)
            assert old[0] == "integer literal too long"

    @pytest.mark.parametrize("text", [
        "", " \t\n", "(" * 101, "( " * 101, " (" * 101 + "1", "-" * 5000 + "1", "- " * 101 + "1",
        "ideal(" * 500 + "1" + ")" * 500, "v(" * 100 + "1" + ")" * 100,
        " + ".join(["X"] * 20001), " * ".join(["X"] * 20001), "1 - 2 * 3 / X ^ -2 + 4",
        "X^- 2", "X^-", "X^--2", "X ^ -2", "sqrt(- 5)", "sqrt(-5)", "sqrt 5", "1" * 5000,
        "ideal(2 X)", "ideal()", "v(1, 2)", "frob(1)", "X2", "2X", "½", "a½", "_(1)", "٣+#",
        "1 +", "(1", "1)", "-X^2^3", "X^2^-1", "é", "ideal(1,)",
    ], ids=lambda text: text if len(text) <= 24 else f"{text[:12]}...({len(text)} chars)")
    def test_matches_the_reference_parser_on_edge_cases(self, text):
        assert _parsed(parse_expression, text) == _parsed(reference_parser.parse_expression, text)


class TestEvaluation:
    def test_scalar_arithmetic(self, inst_a):
        val = evaluate(parse_expression("(1/2 + 1/3) * 6"), inst_a)
        assert val == evaluate(parse_expression("5"), inst_a)

    def test_sqrt_must_match_field(self, inst_a):
        with pytest.raises(ExprError):
            evaluate(parse_expression("ideal(sqrt(-5))"), inst_a)

    def test_sqrt_literal_is_built_from_integers(self, inst_c, monkeypatch):
        # k_disc is squarefree already, so sqrt(d) needs neither the
        # Fraction coordinates nor the squarefree test of FieldElem.__init__
        text = "(1/2 + 3*sqrt(-5)) * X - sqrt(-5)"
        expected = RatFunc(Poly([FieldElem(0, -1, -5), FieldElem(Fraction(1, 2), 3, -5)]))
        surd = RatFunc(Poly([FieldElem(0, 1, -5)]))
        calls = []
        init = FieldElem.__init__
        monkeypatch.setattr(FieldElem, "__init__",
                            lambda self, *args: calls.append(1) or init(self, *args))
        assert evaluate(parse_expression(text), inst_c) == expected
        assert evaluate(parse_expression("sqrt(-5)"), inst_c) == surd
        # sqrt(1) is the scalar 1 on every instance
        one_plus_x = evaluate(parse_expression("X + 1"), inst_c)
        assert evaluate(parse_expression("sqrt(1) + X"), inst_c) == one_plus_x
        assert not calls

    @pytest.mark.parametrize("d", [1, -1, -5, 2])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_constant_is_bounded_as_its_ratfunc(self, d, data):
        # an X-free subexpression stays a FieldElem, whose size is that of
        # the constant RatFunc it becomes, zero and large integers included
        big = st.integers(-2**80, 2**80)
        large = st.builds(lambda a, b, n: FieldElem(Fraction(a, n), b if d != 1 else 0, d),
                          big, big, st.integers(1, 2**70))
        c = data.draw(st.one_of(st.just(FieldElem(0)), elems(d), large))
        assert exprlang._size(c) == exprlang._size(RatFunc.coerce(c))

    def test_constants_are_returned_as_ratfuncs(self, inst_c):
        for text in ("1/2 + sqrt(-5)", "(2 - sqrt(-5))^-2", "-3", "sqrt(1)"):
            value = evaluate(parse_expression(text), inst_c)
            assert type(value) is RatFunc and value.is_constant(), text
        ideal = evaluate(parse_expression("ideal(2, 1 + sqrt(-5))"), inst_c)
        assert all(type(g) is RatFunc for g in ideal.gens)

    def test_x_powers(self, inst_a):
        val = evaluate(parse_expression("X^3"), inst_a)
        assert val == evaluate(parse_expression("X*X*X"), inst_a)

    def test_zero_generator_rejected(self, inst_a):
        with pytest.raises(ExprError):
            evaluate(parse_expression("colon(ideal(0))"), inst_a)
        # a scalar summand of an ideal becomes a generator, so 0 is refused at the "+"
        with pytest.raises(ExprError) as err:
            evaluate(parse_expression("ideal(1) + 0"), inst_a)
        assert (err.value.message, err.value.pos) == ("zero generator rejected", 9)

    @pytest.mark.parametrize("text, message, pos", [
        ("1/0", "division by zero", 1),
        ("0^-1", "division by zero", 1),
        ("-ideal(X)", "negation applies to scalars", 0),
        ("0 * hull(ideal(X))", "scaling an ideal by zero", 2),
        ("principal(ideal(2)) + ideal(X)", "operands must be scalars or ideals", 20),
        ("v(gamma(ideal(2)))", "v needs an ideal argument", 0),
        ("alpha(X)", "alpha takes an ideal of constant generators", 0),
    ])
    def test_typed_errors_name_their_offset(self, inst_a, text, message, pos):
        with pytest.raises(ExprError) as err:
            evaluate(parse_expression(text), inst_a)
        assert (err.value.message, err.value.pos) == (message, pos)

    def test_ideal_products(self, inst_a):
        val = evaluate(parse_expression("ideal(2, X) * ideal(3)"), inst_a)
        direct = evaluate(parse_expression("ideal(6, 3*X)"), inst_a)
        assert ideal_equal(val, direct, inst_a)

    def test_pretty_canonical_print(self, inst_a):
        val = evaluate(parse_expression("v(ideal(2,X))"), inst_a)
        assert pretty_value(val, inst_a) == "2ℤ + X·ℚ[X]"
        # a scalar times a closed form scales its D-part
        scaled = evaluate(parse_expression("3 * v(ideal(2, X))"), inst_a)
        assert pretty_value(scaled, inst_a) == "6ℤ + X·ℚ[X]"
        assert evaluate(parse_expression(value_to_expr(scaled, inst_a)), inst_a) == scaled

    def test_principal_answer(self, inst_a, inst_c):
        val = evaluate(parse_expression("principal(ideal(2,X))"), inst_a)
        assert "not principal" != pretty_value(val, inst_a)
        val2 = evaluate(parse_expression("principal(alpha(ideal(2, 1+sqrt(-5))))"),
                        inst_c)
        assert pretty_value(val2, inst_c) == "not principal"


class TestRoundTrip:
    def test_round_trip_on_sampled_ideals(self):
        for name in ("A", "B", "C", "D", "E"):
            inst = make_instance(name)
            for raw in sample_ideals(inst, SampleParams(seed=23, count=15)):
                for value in (raw, structured_hull(raw, inst),
                              star_eval(V_R, raw, inst), extend_to_T(raw, inst)):
                    text = value_to_expr(value, inst)
                    back = evaluate(parse_expression(text), inst)
                    assert ideal_equal(back, value, inst), text


class TestPrinters:
    """The printers format from the integers (a, b, n, d) of each scalar;
    the same printers over reference_printers' leaves format each scalar
    from its Fraction coordinates."""

    @staticmethod
    def _forms(value, inst):
        try:
            canonical = value_to_expr(value, inst)
        except PullbackError:
            canonical = None
        return canonical, pretty_value(value, inst)

    def _assert_same_bytes(self, values, inst):
        forms = [self._forms(value, inst) for value in values]
        with reference_printers.installed():
            assert exprlang.elem_to_expr is reference_printers.elem_to_expr
            reference = [self._forms(value, inst) for value in values]
        assert exprlang.elem_to_expr is elem_to_expr
        assert forms == reference

    @given(st.sampled_from((1, -1, -5, 2, 3)).flatmap(
        lambda d: st.lists(ratfuncs(d), min_size=1, max_size=3)))
    @settings(max_examples=300, deadline=None)
    def test_scalars_print_the_same_bytes(self, fs):
        inst = make_instance("A")  # a scalar's forms do not read the instance
        values = list(fs)
        if all(fs):
            values.append(RawIdeal(fs))
        self._assert_same_bytes(values, inst)
        for f in fs:
            for c in f.num.coeffs:
                assert elem_to_expr(c) == reference_printers.elem_to_expr(c)
                assert pretty_elem(c) == reference_printers.pretty_elem(c)
                assert str(c) == reference_printers.elem_str(c)

    @pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
    def test_ideals_print_the_same_bytes(self, name):
        inst = make_instance(name)
        values = []
        for raw in sample_ideals(inst, SampleParams(seed=29, count=15)):
            values += [raw, structured_hull(raw, inst), star_eval(V_R, raw, inst),
                       extend_to_T(raw, inst)]
        texts = ["principal(ideal(2, X))", "principal(ideal(X + 1))", "gamma(t(ideal(3, X)))",
                 "principal(ideal(2, 1 + sqrt(-5)))", "ideal(3/2 - 1/2*sqrt(-5), -X/3)"]
        for text in texts:
            try:
                values.append(evaluate(parse_expression(text), inst))
            except ExprError:
                pass
        assert len(values) > 60
        self._assert_same_bytes(values, inst)


class TestScalarPathConstructorCalls:
    """Sums with a polynomial and negation keep canonical forms without the
    constructor's gcd, as do products and so division by a constant, and
    the printers build no value, so a scalar-heavy stream runs
    RatFunc.__init__ rarely."""

    @staticmethod
    def _corpus():
        # the shapes of eval's scalars: sums of constant multiples of X^e,
        # over X + k, shifted, negated and divided by constants
        rng = random.Random(24)

        def const(d):
            sign = "-" if rng.random() < 0.3 else ""
            c = f"{sign}{rng.randint(1, 6)}/{rng.randint(1, 4)}"
            if d != 1 and rng.random() < 0.5:
                return f"({c} + {rng.randint(1, 3)}*sqrt({d}))"
            return f"({c})"

        def scalar(d):
            s = " + ".join([const(d)] + [f"{const(d)}*X^{e}" for e in range(1, rng.randint(1, 3))])
            roll = rng.random()
            if roll < 0.2:
                return f"({s})/(X + {rng.randint(1, 4)})"
            if roll < 0.4:
                return f"({s}) - {const(d)}*X"
            if roll < 0.6:
                return f"-({s}) / {const(d)}"
            if roll < 0.8:
                return f"({s}) * X - {const(d)}"
            return s

        out = []
        for _ in range(200):
            name = rng.choice("ABCDE")
            d = make_instance(name).k_disc
            text = scalar(d)
            out.append((name, f"ideal({text}, {scalar(d)})" if rng.random() < 0.2 else text))
        return out

    def test_scalar_stream_runs_the_constructor_rarely(self, monkeypatch):
        # 200 expressions; forming every sum, negation and quotient through the
        # constructor's gcd ran it 2,648 times
        corpus = self._corpus()
        calls = []
        init = RatFunc.__init__
        monkeypatch.setattr(RatFunc, "__init__",
                            lambda self, *args: calls.append(1) or init(self, *args))
        for name, text in corpus:
            inst = make_instance(name)
            value = evaluate(parse_expression(text), inst)
            value_to_expr(value, inst)
            pretty_value(value, inst)
        assert len(calls) <= 20


# exponents far past the bounds are refused before any work; ones near
# MAX_POWER_DEGREE are drawn only at the top of the text, because ideal
# operations on polynomials of that degree take seconds
_SMALL_OR_HUGE = st.one_of(st.integers(-2, 2), st.integers(10**6, 10**12),
                           st.integers(-10**12, -10**6))
_NEAR_BOUND = st.integers(MAX_POWER_DEGREE - 2, MAX_POWER_DEGREE + 2)
_ATOMS = st.one_of(st.integers(0, 10**6).map(str), st.just("X"),
                   st.sampled_from(["sqrt(-1)", "sqrt(-5)", "sqrt(7)", "1/2", "X + 2"]))
_FUNCS = ("v", "t", "colon", "inv", "extT", "alpha", "beta", "gamma", "principal", "hull",
          "ideal")


def _grown(inner):
    return st.one_of(
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds(lambda a, op, b: f"{a} {op} {b}", inner, st.sampled_from("+-*/"), inner),
        st.builds(lambda a, n: f"({a})^{n}", inner, _SMALL_OR_HUGE),
        st.builds(lambda f, args: f"{f}({', '.join(args)})",
                  st.sampled_from(_FUNCS), st.lists(inner, min_size=1, max_size=2)),
    )


def _deep(inner):
    """Nesting far past MAX_NESTING, long chains and towers of powers."""
    k = st.integers(MAX_NESTING - 2, 40 * MAX_NESTING)
    return st.one_of(
        st.builds(lambda e, n: "(" * n + e + ")" * n, inner, k),
        st.builds(lambda e, n: "-" * n + e, inner, k),
        st.builds(lambda f, e, n: f"{f}(" * n + e + ")" * n, st.sampled_from(_FUNCS), inner, k),
        st.builds(lambda e, op, n: op.join([e] * n), _ATOMS, st.sampled_from("+*"),
                  st.integers(2, 400)),
        st.builds(lambda e, ns: e + "".join(f"^{n}" for n in ns), inner,
                  st.lists(st.one_of(_SMALL_OR_HUGE, _NEAR_BOUND), min_size=1, max_size=30)),
        st.builds(lambda a, n: f"({a})^{n}", _ATOMS, _NEAR_BOUND),
    )


_EXPRESSIONS = st.recursive(_ATOMS, _grown, max_leaves=8)
_TEXTS = st.one_of(_EXPRESSIONS, _deep(_EXPRESSIONS),
                   st.text(alphabet=string.ascii_letters + string.digits + "()+-*/^, X",
                           max_size=80))


# scalars and ideals under the operations that build values, with
# polynomials at the degree bound, so that values at and past it are drawn
_ROUND_TRIP = st.recursive(
    st.sampled_from(["X", "2", "1/3", "X + 2", "1/X", "sqrt(-1)", "sqrt(-5)",
                     f"X^{MAX_POWER_DEGREE}", f"(X + 1)^{MAX_POWER_DEGREE // 2}",
                     "ideal(2, X)", "ideal(X + 2, 3)", "ideal(1, sqrt(-1))",
                     "ideal(2, 1 + sqrt(-5))", f"ideal(X^{MAX_POWER_DEGREE}, 2)",
                     # coordinates of 800 to 1,000 bits, near MAX_POWER_BITS
                     "(3 + 2*sqrt(-1))^512", "(1/2 + 1/3*sqrt(-1))^341",
                     "(1 + sqrt(-5))^700", "(2/3)^500 * X"]),
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: f"({a}) {op} ({b})", inner, st.sampled_from("+-*/"), inner),
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(["v", "t", "colon", "extT", "hull"]),
                  inner),
        st.builds(lambda a, b: f"ideal({a}, {b})", inner, inner)),
    max_leaves=5)


class TestRobustness:
    @given(name=st.sampled_from("ABCDE"), text=_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_any_text_gives_a_value_or_a_typed_error(self, name, text):
        inst = make_instance(name)
        try:
            evaluate(parse_expression(text), inst)
        except (ExprError, PullbackError, KernelError):
            pass

    @pytest.mark.parametrize("text", [
        "(" * 3000 + "1" + ")" * 3000,
        "ideal(" * 500 + "1" + ")" * 500,
        "-" * 5000 + "1",
        "X^99999999",
        "(1 + X)^99999999",
        "2^99999999",
        "X^-99999999",
        "X^2^2^2^2^2^2^2^2^2^2^2^2",
        "65536^64^64^64^64",
        "1" * 5000,
        pytest.param("(" + " " * 65000, id="paren-and-65000-spaces"),
        pytest.param(" " * 65536, id="65536-spaces"),
    ])
    def test_cli_refuses_deep_nesting_and_huge_powers(self, text, capsys):
        start = time.perf_counter()
        code = run_command(["eval", "-i", "A", f"--expr={text}"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bounds_are_far_above_ordinary_input(self):
        inst = make_instance("A")
        nested = "v(" * (MAX_NESTING // 2) + "ideal(2, X)" + ")" * (MAX_NESTING // 2)
        assert evaluate(parse_expression(nested), inst) == \
            evaluate(parse_expression("v(ideal(2, X))"), inst)
        assert evaluate(parse_expression(f"X^{MAX_POWER_DEGREE}"), inst) == \
            RatFunc.x_power(MAX_POWER_DEGREE)
        # 2 has bit length 2
        assert evaluate(parse_expression(f"2^{MAX_POWER_BITS // 2}"), inst) == \
            RatFunc.coerce(2 ** (MAX_POWER_BITS // 2))
        for text in (f"X^{MAX_POWER_DEGREE + 1}", f"2^{MAX_POWER_BITS // 2 + 1}"):
            with pytest.raises(ExprError):
                evaluate(parse_expression(text), inst)
        long_sum = evaluate(parse_expression(" + ".join(["X"] * 5000)), inst)
        assert long_sum == RatFunc.x_power(1) * RatFunc.coerce(5000)
        with pytest.raises(ExprError) as err:
            parse_expression("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1))
        assert err.value.pos == MAX_NESTING

    def test_cli_refuses_raw_products_past_the_generator_bound(self, capsys):
        # each factor doubles the generators: 8 factors give 256, 20 would give 2^20
        start = time.perf_counter()
        code = run_command(["eval", "-i", "A", "-e", " * ".join(["ideal(1, X)"] * 20)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"more than {MAX_GENERATORS} generators" in capsys.readouterr().err
        product = evaluate(parse_expression(" * ".join(["ideal(1, X)"] * 8)), make_instance("A"))
        assert len(product.gens) == MAX_GENERATORS

    def test_cli_refuses_raw_sums_past_the_generator_bound(self, capsys):
        # P lists 256 generators; sums keep every summand's generators
        p = " * ".join(["ideal(1, X)"] * 8)
        start = time.perf_counter()
        code = run_command(["eval", "-i", "A", "-e", "v(" + " + ".join([p] * 64) + ")"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"sum of more than {MAX_GENERATORS} generators" in capsys.readouterr().err
        half = " * ".join(["ideal(1, X)"] * 7)
        total = evaluate(parse_expression(f"{half} + {half}"), make_instance("A"))
        assert len(total.gens) == MAX_GENERATORS

    def test_values_past_the_degree_bound_are_refused(self):
        inst = make_instance("A")
        for text in (f"X^{MAX_POWER_DEGREE} * X", f"ideal(X^{MAX_POWER_DEGREE} * X, 2)",
                     f"1/(X^{MAX_POWER_DEGREE} * (X + 1))"):
            with pytest.raises(ExprError, match=f"value past degree {MAX_POWER_DEGREE}"):
                evaluate(parse_expression(text), inst)
        # intermediate values may pass the bound; the returned value may not
        assert evaluate(parse_expression(f"X^{MAX_POWER_DEGREE} * X / X"), inst) == \
            RatFunc.x_power(MAX_POWER_DEGREE)

    def test_values_past_the_bit_bound_are_refused(self):
        inst = make_instance("A")
        with pytest.raises(ExprError, match=f"value past degree {MAX_POWER_DEGREE} "
                                            f"or {MAX_POWER_BITS} bits"):
            evaluate(parse_expression("2^512 * 2^512"), inst)
        # 2^1024 passes the bound only in between
        assert evaluate(parse_expression("2^512 * 2^512 / 2"), inst) == \
            RatFunc.coerce(2 ** (MAX_POWER_BITS - 1))

    # coprime denominators of 5,001 bits each: over their common
    # denominator the stored integers pass MAX_VALUE_BITS, reduced they do not
    _P, _Q = 2 ** 5000 + 1, 3 ** 3155

    def test_coprime_denominators_are_sized_in_lowest_terms(self):
        value = RatFunc(Poly([Fraction(1, self._P), Fraction(1, self._Q)]))
        assert (self._P * self._Q).bit_length() > MAX_VALUE_BITS >= value.num.bit_length()
        assert exprlang._bounded(value, parse_expression("1")) is value
        # the chain step that forms it is accepted, as is its result
        text = f"(1/{self._P} + X/{self._Q}) * 0 + 1"
        assert evaluate(parse_expression(text), make_instance("A")) == RatFunc.one()

    def test_a_reduced_coefficient_past_the_bit_bound_is_refused(self):
        # (P + Q)/(P*Q) is in lowest terms: the sum step is refused at its '+'
        text = f"1/{self._P} + 1/{self._Q}"
        with pytest.raises(ExprError) as err:
            evaluate(parse_expression(text), make_instance("A"))
        assert err.value.message == (f"intermediate value past degree {MAX_VALUE_DEGREE} "
                                     f"or {MAX_VALUE_BITS} bits")
        assert err.value.pos == text.index("+")

    @pytest.mark.parametrize("factor, count", [("(X + 1)^64", 32), ("2^512", 60),
                                               ("2^512", 3000)])
    def test_cli_refuses_long_chains_of_near_bound_values(self, factor, count, capsys):
        # each factor passes the power bounds; the chain is refused where
        # an intermediate value passes its bounds, not at the end
        start = time.perf_counter()
        code = run_command(["eval", "-i", "A", "-e", " * ".join([factor] * count)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "intermediate value past" in capsys.readouterr().err

    def test_call_errors_outside_the_typed_ones_propagate(self, inst_c, monkeypatch):
        # a typed error of gamma keeps its message and gains the call's offset
        with pytest.raises(ExprError) as err:
            evaluate(parse_expression("ideal(gamma(extT(ideal(1))))"), inst_c)
        assert err.value.pos == 6
        assert err.value.message == "gamma needs an invertible input; T-modules are not"

        def broken(*args):
            raise AssertionError("internal fault")

        monkeypatch.setattr(class_groups, "gamma", broken)
        monkeypatch.setattr(class_groups, "alpha", broken)
        for text in ("gamma(ideal(2, 1 + sqrt(-5)))", "alpha(ideal(2))"):
            with pytest.raises(AssertionError, match="internal fault"):
                evaluate(parse_expression(text), inst_c)

    def test_a_typed_error_from_any_call_gets_its_offset(self, inst_a, monkeypatch):
        def failing(*args):
            raise PullbackError("closure failed")

        monkeypatch.setattr(exprlang, "star_eval", failing)
        with pytest.raises(ExprError) as err:
            evaluate(parse_expression("ideal(v(ideal(2)))"), inst_a)
        assert err.value.pos == 6
        assert err.value.message == "closure failed"

    def test_cli_gcd_of_degree_64_inputs(self, capsys):
        # a plain Euclidean remainder sequence took 24 s on this gcd
        text = ("principal(ideal((X+2)^32 * (X+sqrt(-5))^32, "
                "(X+sqrt(-5))^31 * (1000000+X)^32))")
        start = time.perf_counter()
        code = run_command(["eval", "-i", "C", "-e", text])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert capsys.readouterr().out.startswith("principal, generator")

    @given(name=st.sampled_from("ABCDE"), text=_ROUND_TRIP)
    @settings(max_examples=300, deadline=None)
    def test_every_value_round_trips(self, name, text):
        inst = make_instance(name)
        try:
            value = evaluate(parse_expression(text), inst)
            printed = value_to_expr(value, inst)
        except (ExprError, PullbackError, KernelError):
            return  # refused input, or a class label or principality answer
        back = evaluate(parse_expression(printed), inst)
        assert back == value, (text, printed)


class TestCommands:
    def test_eval_command(self, capsys):
        code = run_command(["eval", "-i", "A", "-e", "v(ideal(2,X))"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out == "2ℤ + X·ℚ[X]"

    @pytest.mark.parametrize("a", [10**4, 10**12])
    @pytest.mark.parametrize("prefix", ["ideal(2, 1+sqrt(-5))",
                                        "ideal(2, 1+sqrt(-5)) * ideal(2, 1-sqrt(-5))"])
    def test_principal_at_large_norm(self, prefix, a, capsys):
        inst = make_instance("C")
        ideal = f"{prefix} * ideal({a}+sqrt(-5))"
        code = run_command(["eval", "-i", "C", "-e", f"principal({ideal})"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        # the class of the D-part predicts the answer
        dpart = structured_hull(evaluate(parse_expression(ideal), inst), inst).dpart
        if class_label_D(dpart).is_identity():
            assert out.startswith("principal, generator")
        else:
            assert out == "not principal"

    @pytest.mark.parametrize("expr, label", [
        ("gamma(ideal(1/10^12))", "[0 mod 2]"),
        ("gamma(ideal(2, 1+sqrt(-5)) * ideal(1/10^12))", "[1 mod 2]"),
    ])
    def test_gamma_at_large_denominator(self, expr, label, capsys):
        # the cost of gamma must not grow with the denominator of the D-part
        start = time.perf_counter()
        code = run_command(["eval", "-i", "C", "-e", expr])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert capsys.readouterr().out.strip() == label

    def test_eval_json(self, capsys):
        code = run_command(["eval", "-i", "A", "-e", "v(ideal(2,X))", "--json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pretty"] == "2ℤ + X·ℚ[X]"
        assert "hull(ideal(" in data["canonical"]

    def test_eval_bad_expression_usage_exit(self, capsys):
        assert run_command(["eval", "-i", "A", "-e", "colon(ideal(0))"]) == 2
        assert run_command(["eval", "-i", "A", "-e", "ideal(2 X)"]) == 2

    def test_verify_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_command(["verify", "-i", "C", "-s", "split-exact",
                            "--seed", "7", "--count", "10", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["verdict"] == "pass"
        assert data["suite"] == "split-exact"
        assert data["seed"] == 7

    def test_verify_unknown_suite(self, capsys):
        assert run_command(["verify", "-i", "A", "-s", "nope"]) == 2

    def test_instances_listing(self, capsys):
        # byte for byte: the T names and the quasilocal flag come from the
        # T kind, and D's empty flag list keeps its trailing "| "
        assert run_command(["instances"]) == 0
        assert capsys.readouterr().out == (
            "A: D = Z, k = Q, T = Q[X] | Cl(D) cyclic orders [] | square-plus\n"
            "B: D = Z, k = Q, T = Q[X]_(X) | Cl(D) cyclic orders [] | square-plus, quasilocal-T\n"
            "C: D = Z[sqrt(-5)], k = Q(sqrt(-5)), T = Q(sqrt(-5))[X] | Cl(D) cyclic orders [2]"
            " | square-plus\n"
            "D: D = Z, k = Q(i), T = Q(i)[X] | Cl(D) cyclic orders [] | \n"
            "E: D = Q, k = Q(i), T = Q(i)[X]_(X) | Cl(D) cyclic orders [] | quasilocal-T\n")

    def test_report_pretty_print(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_command(["verify", "-i", "B", "-s", "extension-laws",
                     "--seed", "3", "--count", "10", "--out", str(out)])
        capsys.readouterr()
        assert run_command(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict:    pass" in text

    def test_verify_star_laws_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_command(["verify", "-i", "D", "-s", "star-laws", "--seed", "7", "--count", "10",
                            "--json", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        data = json.loads(printed)
        assert (data["suite"], data["instance"], data["verdict"]) == ("star-laws", "D", "pass")
        assert run_command(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "suite:      star-laws" in text and "verdict:    pass" in text

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"suite": "pvmd"}',
        '{"suite": "s", "instance": "A", "seed": 0, "n_samples": 1, "n_violations": 1,'
        ' "verdict": "fail", "violations": [{"check": "c"}]}',
    ])
    def test_report_refuses_json_that_is_not_a_report(self, text, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert run_command(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "not a suite report" in captured.err

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "starpull.cfg"
        cfg.write_text('instance = "C"\nseed = 5\ncount = 10\n')
        code = run_command(["verify", "-s", "pic-splitting", "-c", str(cfg)])
        assert code == 0

    def test_config_explicit_fields(self, tmp_path, capsys):
        cfg = tmp_path / "starpull.cfg"
        cfg.write_text("base = quadratic(-5)\nT = poly\n")
        code = run_command(["eval", "-c", str(cfg), "-e",
                            "gamma(alpha(ideal(2, 1+sqrt(-5))))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "[1 mod 2]"

    def test_missing_args_usage(self, capsys):
        assert run_command(["eval", "-i", "A"]) == 2
        assert run_command([]) == 2
