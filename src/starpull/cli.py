"""Command-line front end: eval, verify, instances, report.

Exit codes: 0 success or suite pass, 1 suite violations, 2 usage,
parse or evaluation errors.  Config files are flat ``key = value``
text; command-line flags win over config values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exprlang import (
    evaluate,
    parse_expression,
    pretty_value,
    value_to_expr,
)
from .harness import SUITES, HarnessError, SampleParams, run_suite
from .kernel import KernelError
from .pullback import PullbackError, instance_catalog, make_instance

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def read_config(path: str) -> dict:
    """Flat key = value file; blank lines and # comments are skipped."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PullbackError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip().strip('"')
    return out


def _resolve_instance(args, config: dict):
    name = getattr(args, "instance", None) or config.get("instance")
    if name:
        return make_instance(name)
    if "base" in config:
        return make_instance(config)
    raise PullbackError("no instance selected; use -i or a config file")


def _cmd_eval(args) -> int:
    config = read_config(args.config) if args.config else {}
    inst = _resolve_instance(args, config)
    text = args.expr or config.get("expr")
    if not text:
        print("eval needs an expression (-e)", file=sys.stderr)
        return EXIT_USAGE
    value = evaluate(parse_expression(text), inst)
    line = pretty_value(value, inst)
    if args.json:
        payload = {"instance": inst.name, "expr": text, "pretty": line}
        try:
            payload["canonical"] = value_to_expr(value, inst)
        except PullbackError:
            payload["canonical"] = None
        line = json.dumps(payload, sort_keys=True)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = read_config(args.config) if args.config else {}
    inst = _resolve_instance(args, config)
    suite = args.suite or config.get("suite")
    if not suite:
        print("verify needs a suite (-s); choose from "
              + ", ".join(sorted(SUITES)), file=sys.stderr)
        return EXIT_USAGE
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    count = args.count if args.count is not None else int(config.get("count", 100))
    params = SampleParams(seed=seed, count=count)
    report = run_suite(suite, inst, params)
    out_path = args.out or config.get("out")
    if out_path:
        Path(out_path).write_text(report.to_json())
    if args.json:
        print(report.to_json(), end="")
    else:
        print(f"suite {report.suite} on instance {report.instance}: {report.verdict} "
              f"({report.n_samples} samples, {len(report.violations)} violations)")
        for v in report.violations:
            print(f"  violation [{v['check']}] expected {v['expected']}, got {v['got']}")
    return EXIT_OK if report.verdict == "pass" else EXIT_VIOLATIONS


def _cmd_instances(_args) -> int:
    for name in instance_catalog():
        inst = make_instance(name)
        flags = []
        if inst.is_square_plus:
            flags.append("square-plus")
        if inst.t.quasilocal:
            flags.append("quasilocal-T")
        presentation = list(inst.base.class_presentation)
        print(f"{name}: D = {inst.base}, k = {inst.k_name()}, T = {inst.t_name()}"
              f" | Cl(D) cyclic orders {presentation} | {', '.join(flags)}")
    return EXIT_OK


def _cmd_report(args) -> int:
    data = json.loads(Path(args.path).read_text())
    # check the whole shape first, so a malformed file prints nothing
    violations = data.get("violations", []) if isinstance(data, dict) else None
    if not (isinstance(violations, list)
            and {"suite", "instance", "seed", "n_samples", "n_violations", "verdict"} <= data.keys()
            and all(isinstance(v, dict) and {"check", "expected", "got", "witness"} <= v.keys()
                    for v in violations)):
        raise HarnessError(f"{args.path} is not a suite report")
    print(f"suite:      {data['suite']}")
    print(f"instance:   {data['instance']}")
    print(f"seed:       {data['seed']}")
    print(f"samples:    {data['n_samples']}")
    print(f"violations: {data['n_violations']}")
    print(f"verdict:    {data['verdict']}")
    for v in violations:
        print(f"  [{v['check']}] expected {v['expected']}, got {v['got']}")
        print(f"    witness: {v['witness']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starpull",
        description="Exact ideal arithmetic and star-operation suites on pullback rings.",
    )
    sub = parser.add_subparsers(dest="command")

    p_eval = sub.add_parser("eval", help="evaluate an ideal expression")
    p_eval.add_argument("-i", "--instance", help="catalogued instance name (A..E)")
    p_eval.add_argument("-e", "--expr", help="expression to evaluate")
    p_eval.add_argument("-c", "--config", help="flat key = value config file")
    p_eval.add_argument("--json", action="store_true", help="emit JSON output")
    p_eval.add_argument("--out", help="also write the output to a file")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a conformance suite")
    p_verify.add_argument("-i", "--instance", help="catalogued instance name (A..E)")
    p_verify.add_argument("-s", "--suite", help="suite name")
    p_verify.add_argument("-c", "--config", help="flat key = value config file")
    p_verify.add_argument("--seed", type=int, help="sampler seed")
    p_verify.add_argument("--count", type=int, help="sample count")
    p_verify.add_argument("--json", action="store_true", help="print the JSON report")
    p_verify.add_argument("--out", help="write the JSON report to a file")
    p_verify.set_defaults(func=_cmd_verify)

    p_inst = sub.add_parser("instances", help="list the instance catalog")
    p_inst.set_defaults(func=_cmd_instances)

    p_report = sub.add_parser("report", help="pretty-print a JSON report")
    p_report.add_argument("path", help="report file")
    p_report.set_defaults(func=_cmd_report)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, KernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
