"""The three benchmark workloads and their correctness checks.

Every workload is a closed loop with one client: one thread sends the
next item only after the previous one has completed.  The work of a run
is fixed by (workload, seed, seconds), so a parent commit and a change
run identical inputs; ``RATE`` and ``ROUNDS`` size it.

- ``oracle``: oracle-agreement reports on A, C and D at degree_window
  12, the shape of acceptance criterion 6.  Kernel and membership hot
  path (reads of fixed ideals through ``pullback``).
- ``classes``: split-exact on C, pic-splitting on A, B and C and
  quasilocal-iso on B and E under t_R, the shape of criteria 1, 2
  and 5.  Module predicates, lattices and class maps; little polynomial
  membership.
- ``eval``: a seeded stream of ``starpull eval`` expressions over all
  five instances, with a band of principality queries of growing norm
  and a fixed share of malformed text (builds new ideals through
  ``pullback``).
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from fractions import Fraction

# Library entry points are called through their modules, so that the
# tracer's rebinding of module attributes sees every call.
from starpull import exprlang, harness
from starpull.exprlang import ExprError
from starpull.harness import SampleParams
from starpull.kernel import KernelError, RatFunc
from starpull.pullback import PullbackError, ideal_equal, make_instance
from starpull.star_ops import StarOp

TYPED_ERRORS = (ExprError, PullbackError, KernelError)
INSTANCES = ("A", "B", "C", "D", "E")

SUITE_PAIRS = {
    "oracle": (("oracle-agreement", "A"), ("oracle-agreement", "C"),
               ("oracle-agreement", "D")),
    "classes": (("split-exact", "C"), ("pic-splitting", "A"), ("pic-splitting", "B"),
                ("pic-splitting", "C"), ("quasilocal-iso", "B"), ("quasilocal-iso", "E")),
}
# sampled ideals (expressions on eval) per second of --seconds; with 30 s,
# a plain run of the seed code took 16-46 s of wall time on the reference
# machine (2 cores, Python 3.11.7)
RATE = {"oracle": 4.5, "classes": 30.0, "eval": 90.0}
# A suite workload runs its (suite, instance) pairs this many times over,
# each time with fresh seeds, so that its reports stay short and the speed
# probes (see Speed) fall every few seconds.  Oracle stops at three: every
# report starts with the harness's 5 to 7 fixed corner ideals, which cost
# a third of a sampled one, and criterion 6 samples 200 per instance.
ROUNDS = {"oracle": 3, "classes": 7}
DEGREE_WINDOW = 12
# Coefficient height of the classes population (the acceptance criteria
# use 6).  The cyclic-generator search on C grows with the norm of the
# D-part; at height 6, 2 of 30 seeds drew an ideal whose search alone
# took minutes, past the time a run may take.  At height 3 the largest
# search over those seeds was 70 times smaller, and the growth stays
# visible here and on eval's principality band.
CLASSES_COEFF_HEIGHT = 3
MALFORMED_SHARE = 0.10
PRINCIPAL_SHARE = 0.02
PRINCIPAL_BAND = (1, 40)
STREAM_BLOCK = 50


def setup() -> dict:
    """Build every catalogued instance (C loads its class group)."""
    return {name: make_instance(name) for name in INSTANCES}


def run_size(workload: str, seconds: int) -> int:
    """Items per report on suite workloads, expressions on ``eval``."""
    if workload == "eval":
        return max(50, round(seconds * RATE["eval"]))
    reports = ROUNDS[workload] * len(SUITE_PAIRS[workload])
    return max(10, round(seconds * RATE[workload] / reports))


# The reference machine is shared, and its speed moves: the same code ran
# up to twice as slow in phases of seconds, and the same seeds ran 1.5
# times slower half an hour apart.  So the benchmark runs a probe between
# units of work (suite reports, blocks of STREAM_BLOCK expressions) and
# scales each unit's time by PROBE_NOMINAL_S over the mean of the probes
# just before and after it.  The probe is a fixed polynomial computation
# over Fractions, like starpull's kernel but frozen here, so that changes
# to starpull do not change it.  PROBE_NOMINAL_S is about its median time
# on the reference machine, so scaled times read as times there.
PROBE_NOMINAL_S = 0.006
PROBE_REPEATS = 3


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] -= q * y
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _probe_work() -> None:
    f = [Fraction(i % 7 - 3, i % 4 + 1) for i in range(9)]
    g = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(7)]
    h = [Fraction(1), Fraction(2, 3), Fraction(-1, 5)]
    for _ in range(6):
        x, y = _poly_mul(f, h), _poly_mul(g, h)
        while y:
            x, y = y, _poly_rem(x, y)


def probe_seconds() -> float:
    """Median time of PROBE_REPEATS probes now."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Probes run between units of work; ``factor()`` probes after a unit
    and returns what its raw time is multiplied by."""

    def __init__(self):
        _probe_work()  # warm-up, not recorded
        self.last = probe_seconds()

    def factor(self) -> float:
        now = probe_seconds()
        out = PROBE_NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return out


def report_items(report) -> int:
    """Items of one suite report: its sampled ideals, plus on split-exact
    the ``count // 2`` sampled D-modules of its splitting check."""
    extra = report.params.count // 2 if report.suite == "split-exact" else 0
    return report.n_samples + extra


def run_suites(workload: str, seed: int, seconds: int) -> dict:
    """``ROUNDS`` rounds of one report per (suite, instance) pair, in a
    fixed order.

    The timed section is the sum of the ``harness.run_suite`` calls, so
    per-report work (class representatives, split-exact's D-module
    splitting check) counts as well as the sampled items.  ``seconds``
    is its time scaled by ``Speed``, ``raw_seconds`` the time as measured.

    Report k of a run samples with seed 1000 * seed + 10 * k (the suites
    also use that seed plus 1 and 2), so the reports draw independent
    populations.  With one seed for all, a seed that draws heavy ideals
    would draw them on every instance, and the run's figures would move
    with it.
    """
    count = run_size(workload, seconds)
    op = StarOp.t_op("R")
    clock = time.perf_counter
    pairs = SUITE_PAIRS[workload]
    outputs, scaled, raw, items = [], 0.0, 0.0, 0
    speed = Speed()
    for r in range(ROUNDS[workload]):
        for i, (suite, name) in enumerate(pairs):
            params = SampleParams(seed=1000 * seed + 10 * (r * len(pairs) + i), count=count,
                                  degree_window=DEGREE_WINDOW,
                                  **({"coeff_height": CLASSES_COEFF_HEIGHT}
                                     if workload == "classes" else {}))
            inst = make_instance(name)
            t0 = clock()
            report = harness.run_suite(suite, inst, params, op=op)
            dt = clock() - t0
            raw += dt
            scaled += dt * speed.factor()
            items += report_items(report)
            outputs.append((f"{suite}/{name}/{params.seed}/{count}", report))
    return {"items": items, "seconds": scaled, "raw_seconds": raw, "outputs": outputs}


def check_suites(outputs, pinned: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) counted in items (``report_items``).
    A report fails unless it passes with no violations and matches its
    pinned digest where one exists; every item of a failed report counts."""
    attempted, failed, notes = 0, 0, []
    for key, report in outputs:
        n = report_items(report)
        attempted += n
        digest = hashlib.sha256(report.to_json().encode()).hexdigest()
        bad = report.verdict != "pass" or bool(report.violations)
        if key in pinned and pinned[key] != digest:
            bad = True
            notes.append(f"{key}: digest {digest} != pinned {pinned[key]}")
        if bad:
            failed += n
            notes.append(f"{key}: verdict {report.verdict}, "
                         f"{len(report.violations)} violations")
    return attempted, failed, notes


def suite_digests(outputs) -> dict:
    return {key: hashlib.sha256(r.to_json().encode()).hexdigest() for key, r in outputs}


# ---------------------------------------------------------------------------
# eval stream
# ---------------------------------------------------------------------------

_UNARY = ("v", "t", "colon", "inv", "extT", "hull")


def _frac(rng: random.Random) -> str:
    a = rng.randint(1, 6)
    b = rng.choice((1, 1, 2, 3))
    sign = "-" if rng.random() < 0.3 else ""
    return f"{sign}{a}" if b == 1 else f"{sign}{a}/{b}"


def _const(rng: random.Random, d: int) -> str:
    c = _frac(rng)
    if d != 1 and rng.random() < 0.4:
        return f"({c} + {rng.randint(1, 3)}*sqrt({d}))"
    return f"({c})"


def _scalar(rng: random.Random, d: int) -> str:
    deg = rng.choice((0, 0, 1, 1, 2))
    terms = [_const(rng, d)]
    for e in range(1, deg + 1):
        if rng.random() < 0.7:
            terms.append(f"{_const(rng, d)}*X" + (f"^{e}" if e > 1 else ""))
    s = " + ".join(terms)
    roll = rng.random()
    if roll < 0.15:
        s = f"({s})/(X + {rng.randint(1, 4)})"
    elif roll < 0.3:
        s = f"({s})*X"
    return s


def _ideal(rng: random.Random, d: int) -> str:
    n = rng.choice((1, 2, 2, 3))
    return "ideal(" + ", ".join(_scalar(rng, d) for _ in range(n)) + ")"


def _dconst_ideal(rng: random.Random, inst) -> str:
    """Constant generators inside the quotient field of D (for alpha)."""
    d = inst.k_disc if inst.is_square_plus else 1
    n = rng.choice((1, 2))
    return "ideal(" + ", ".join(_const(rng, d) for _ in range(n)) + ")"


def _ideal_expr(rng: random.Random, inst, depth: int = 0) -> str:
    d = inst.k_disc
    roll = rng.random()
    if roll < 0.3 or depth >= 2:
        return _ideal(rng, d)
    if roll < 0.7:
        return f"{rng.choice(_UNARY)}({_ideal_expr(rng, inst, depth + 1)})"
    if roll < 0.85:
        op = rng.choice(("+", "*"))
        return f"{_ideal_expr(rng, inst, depth + 1)} {op} {_ideal_expr(rng, inst, depth + 1)}"
    return f"alpha({_dconst_ideal(rng, inst)})"


def _principal_band(k: int, offset: int) -> str:
    """The k-th principality query of the band: on C, of an ideal whose
    norm grows with a.  The search cost grows with the norm, so these set
    the latency tail.  a steps through the band by a stride coprime to
    its width, so any run of band queries covers it evenly."""
    lo, hi = PRINCIPAL_BAND
    a = lo + (offset + 17 * k) % (hi - lo + 1)
    if k % 2:
        return f"principal(ideal(2, 1 + sqrt(-5)) * ideal({a} + sqrt(-5)))"
    return f"principal(ideal({a} + sqrt(-5)) * ideal(3, 1 + sqrt(-5)))"


def _wellformed(rng: random.Random, inst) -> str:
    roll = rng.random()
    if roll < 0.08:
        return _scalar(rng, inst.k_disc) + f" - ({_scalar(rng, inst.k_disc)})^2"
    if roll < 0.16:
        return f"beta({_ideal_expr(rng, inst, 1)})"
    if roll < 0.26 and inst.is_square_plus:
        return f"gamma({rng.choice(('alpha', 't'))}({_dconst_ideal(rng, inst)}))"
    if roll < 0.36:
        return f"principal({_ideal(rng, inst.k_disc)})"
    return _ideal_expr(rng, inst)


_BREAKERS = (
    lambda s, rng: s[:-1],                                   # unbalanced
    lambda s, rng: s + ")",                                  # trailing input
    lambda s, rng: "foo(" + s + ")",                         # unknown function
    lambda s, rng: s.replace("(", "(#", 1),                  # bad character
    lambda s, rng: f"ideal(0, {rng.randint(1, 5)})",         # zero generator
    lambda s, rng: f"v(ideal({rng.randint(1, 5)}/0))",       # division by zero
    lambda s, rng: f"ideal(X) - ideal({rng.randint(1, 5)})",  # ideal difference
    lambda s, rng: f"alpha(ideal(X + {rng.randint(1, 5)}))",  # non-constant alpha
    lambda s, rng: f"ideal(sqrt(7), {rng.randint(1, 5)})",   # surd outside k
    lambda s, rng: "",                                       # empty input
)


def eval_stream(seed: int, n: int) -> list[tuple[str, str, bool]]:
    """(instance, text, malformed) triples; the same seed gives the same stream.

    Each STREAM_BLOCK expressions hold exactly their share of malformed
    text and of band queries, in seeded positions.
    """
    rng = random.Random(seed)
    insts = setup()
    n_bad = round(STREAM_BLOCK * MALFORMED_SHARE)
    n_band = round(STREAM_BLOCK * PRINCIPAL_SHARE)
    offset = rng.randrange(PRINCIPAL_BAND[1])
    kinds, n_bands, out = [], 0, []
    for _ in range(n):
        if not kinds:
            kinds = ["bad"] * n_bad + ["band"] * n_band + ["ok"] * (STREAM_BLOCK - n_bad - n_band)
            rng.shuffle(kinds)
        kind = kinds.pop()
        inst = insts[rng.choice(INSTANCES)]
        if kind == "bad":
            out.append((inst.name, rng.choice(_BREAKERS)(_wellformed(rng, inst), rng), True))
        elif kind == "band":
            out.append(("C", _principal_band(n_bands, offset), False))
            n_bands += 1
        else:
            out.append((inst.name, _wellformed(rng, inst), False))
    return out


def run_eval(seed: int, seconds: int) -> dict:
    """Parse, evaluate and print every expression, one at a time; the
    timed section is the sum of the expressions' times.  Latencies are
    scaled by ``Speed``, probed after each block of STREAM_BLOCK."""
    stream = eval_stream(seed, run_size("eval", seconds))
    latencies, raw, block, outputs = [], [], [], []
    clock = time.perf_counter
    speed = Speed()
    for k, (name, text, malformed) in enumerate(stream):
        inst = make_instance(name)
        t0 = clock()
        try:
            value = exprlang.evaluate(exprlang.parse_expression(text), inst)
            pretty = exprlang.pretty_value(value, inst)
            try:
                canonical = exprlang.value_to_expr(value, inst)
            except PullbackError:
                canonical = None
            result = {"pretty": pretty, "canonical": canonical}
        except TYPED_ERRORS as exc:
            value = None
            result = {"error": type(exc).__name__, "message": str(exc)}
        block.append(clock() - t0)
        outputs.append((name, text, malformed, value, result))
        if len(block) == STREAM_BLOCK or k == len(stream) - 1:
            f = speed.factor()
            latencies += [dt * f for dt in block]
            raw += block
            block = []
    return {"items": len(outputs), "seconds": sum(latencies), "raw_seconds": sum(raw),
            "latencies": latencies, "outputs": outputs}


def eval_digest(outputs) -> str:
    h = hashlib.sha256()
    for name, text, _malformed, _value, result in outputs:
        h.update(json.dumps({"instance": name, "expr": text, **result},
                            sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def check_eval(outputs, pinned: str | None) -> tuple[int, int, list[str]]:
    """Malformed text must raise a typed error; well-formed text must give
    a value whose canonical form parses back to an equal value."""
    failed, notes = 0, []
    for name, text, malformed, value, result in outputs:
        inst = make_instance(name)
        problem = None
        if malformed:
            if "error" not in result:
                problem = "malformed input gave a value"
        elif "error" in result:
            problem = f"{result['error']}: {result['message']}"
        elif result["canonical"] is not None:
            try:
                back = exprlang.evaluate(exprlang.parse_expression(result["canonical"]), inst)
            except TYPED_ERRORS as exc:
                problem = f"canonical form does not parse: {exc}"
            else:
                same = (back == value if isinstance(value, RatFunc)
                        else ideal_equal(back, value, inst))
                if not same:
                    problem = "canonical form parses to a different value"
        if problem:
            failed += 1
            notes.append(f"[{name}] {text!r}: {problem}")
    digest = eval_digest(outputs)
    if pinned is not None and digest != pinned:
        failed = max(failed, 1)
        notes.append(f"eval stream digest {digest} != pinned {pinned}")
    return len(outputs), failed, notes
