"""Expression language and command-line behavior."""

import json
import random
import string

import pytest

from starpull.base_domain import class_label_D
from starpull.cli import run_command
from starpull.exprlang import (
    ExprError,
    evaluate,
    parse_expression,
    pretty_value,
    value_to_expr,
)
from starpull.harness import SampleParams, sample_ideals
from starpull.pullback import (
    extend_to_T,
    ideal_equal,
    make_instance,
    structured_hull,
    v_closure_R,
)


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
        with pytest.raises(ExprError):
            parse_expression("1" * (64 * 1024 + 1))


class TestEvaluation:
    def test_scalar_arithmetic(self, inst_a):
        val = evaluate(parse_expression("(1/2 + 1/3) * 6"), inst_a)
        assert val == evaluate(parse_expression("5"), inst_a)

    def test_sqrt_must_match_field(self, inst_a):
        with pytest.raises(ExprError):
            evaluate(parse_expression("ideal(sqrt(-5))"), inst_a)

    def test_x_powers(self, inst_a):
        val = evaluate(parse_expression("X^3"), inst_a)
        assert val == evaluate(parse_expression("X*X*X"), inst_a)

    def test_zero_generator_rejected(self, inst_a):
        with pytest.raises(ExprError):
            evaluate(parse_expression("colon(ideal(0))"), inst_a)

    def test_ideal_products(self, inst_a):
        val = evaluate(parse_expression("ideal(2, X) * ideal(3)"), inst_a)
        direct = evaluate(parse_expression("ideal(6, 3*X)"), inst_a)
        assert ideal_equal(val, direct, inst_a)

    def test_pretty_canonical_print(self, inst_a):
        val = evaluate(parse_expression("v(ideal(2,X))"), inst_a)
        assert pretty_value(val, inst_a) == "2ℤ + X·ℚ[X]"

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
                              v_closure_R(raw, inst), extend_to_T(raw, inst)):
                    text = value_to_expr(value, inst)
                    back = evaluate(parse_expression(text), inst)
                    assert ideal_equal(back, value, inst), text


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
        if class_label_D(dpart, inst.base).is_identity():
            assert out.startswith("principal, generator")
        else:
            assert out == "not principal"

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
        assert run_command(["instances"]) == 0
        out = capsys.readouterr().out
        for name in ("A:", "B:", "C:", "D:", "E:"):
            assert name in out
        assert "square-plus" in out and "quasilocal-T" in out

    def test_report_pretty_print(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        run_command(["verify", "-i", "B", "-s", "extension-laws",
                     "--seed", "3", "--count", "10", "--out", str(out)])
        capsys.readouterr()
        assert run_command(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "verdict:    pass" in text

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
