"""The conformance suites, end to end.

Each suite samples deterministically, checks exact properties, and
produces a JSON-serializable report whose verdict is pass exactly when
no violation was recorded.  The same runs are reachable from the
command line: `starpull verify -i C -s split-exact --seed 7`.
"""

from starpull import SampleParams, make_instance, run_suite

PARAMS = SampleParams(seed=7, count=40)

RUNS = [
    ("C", "split-exact"),      # split exact class sequence, h(D) = 2
    ("D", "split-exact"),      # qf(D) smaller than k: still split exact, all classes trivial
    ("B", "quasilocal-iso"),   # local T: all classes come from D
    ("E", "quasilocal-iso"),   # proper subfield: every invertible ideal principal
    ("A", "pvmd"),             # every finitely generated ideal t-invertible
    ("D", "pvmd"),             # fails structurally; a witness must be found
    ("A", "extension-laws"),   # conductor fixed, (t_R)_T fixes every cT
    ("C", "pic-splitting"),    # invertible ideals decompose through (gamma, beta)
    ("D", "oracle-agreement"), # closed forms vs definitional oracles
    ("D", "star-laws"),        # t is a star operation, d <= t <= v, and t = v on (1, i)
]

for name, suite in RUNS:
    inst = make_instance(name)
    params = PARAMS if suite != "oracle-agreement" else SampleParams(seed=7, count=20)
    report = run_suite(suite, inst, params)
    print(f"{suite:17s} on {name}: {report.verdict}  "
          f"({report.n_samples} samples, {len(report.violations)} violations)")
    if suite == "pvmd" and name == "D":
        witness = next(r for r in report.records if r.get("check") == "witness")
        print(f"{'':21s}witness {witness['ideal']}, closure {witness['closure']}, "
              f"oracle confirmed: {witness['oracle_confirmed']}")

print()
report = run_suite("split-exact", make_instance("C"), SampleParams(seed=7, count=10))
data = report.to_json_dict()
print("JSON schema keys:", sorted(k for k in data if k != "records"))
print("byte-identical on reruns:",
      run_suite("split-exact", make_instance("C"), SampleParams(seed=7, count=10))
      .to_json() == report.to_json())
