"""Self-test of the benchmark's tracer and output checker.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about ten seconds. For each
workload it makes one untraced and one traced invocation on the same input
and checks that:

1. the traced report is byte-identical to the untraced one, and both pass
   the output checker;
2. every traced function predicted to run on the workload runs, and every
   one predicted not to run stays at zero calls (``PREDICTIONS``), so an
   alias the tracer failed to rebind shows up here;
3. the output checker rejects a report with one verdict or dim changed.

It also checks that BENCHMARK.json lists exactly the per-layer metrics that
the tracer reports. Exits 1 and names every failed check.
"""

import json
import os
import sys

from run import ROOT, WORK, Run
from tracer import per_layer_metrics, read_spans, sample_metrics
from workloads import WORKLOADS, report_of

# calls per invocation on (excision-coalgebra, homology-sweedler,
# excision-algebra-f2): an exact count, or "+" for at least one
PREDICTIONS = {
    "linalg.Matrix.mul": ("+", "+", "+"),
    "linalg.permute_slots": ("+", "+", "+"),
    "linalg.rank_kernel": (0, 0, "+"),
    "linalg.map_well_defined": ("+", "+", 0),
    "linalg.QuotientSpace.induce": ("+", "+", 0),
    "linalg.GradedComplex.__init__": ("+", "+", "+"),
    "complexes.twisted_ch": (9, 1, 0),
    "complexes.assemble": (3, 1, 3),
    "complexes.diagonal_action": ("+", "+", 0),
    "complexes.diagonal_right_coaction": (0, 0, "+"),
    "complexes.coinvariant_space_from_matrices": ("+", "+", 0),
    "complexes.CocyclicModule.validate": (3, 1, 0),
    "complexes.CyclicModule.validate": (0, 0, 3),
    "theorems.verify_excision": (1, 0, 1),
    "theorems.CoinvariantCH.__init__": (6, 0, 0),
    "theorems.AlgebraSES.__init__": (0, 0, 1),
    "theorems.h_unitality_probe": (0, 0, 1),
    "equivariant.action_of_basis": ("+", "+", 0),
    "equivariant.h_counitality_probe": (3, 0, 0),
    "equivariant.quotient_ses": (1, 0, 0),
    "serialize.ses_from_json": (1, 0, 0),
    "serialize.module_coalgebra_from_json": (1, 1, 0),
    "serialize.dumps": (1, 1, 1),
}
ORDER = ("excision-coalgebra", "homology-sweedler", "excision-algebra-f2")


def mutated(stdout):
    """The report with its first PASS verdict, or else its first dim 2, changed."""
    if '"verdict": "PASS"' in stdout:
        return stdout.replace('"verdict": "PASS"', '"verdict": "FAIL"', 1)
    return stdout.replace("  2,", "  3,", 1)


def check_workload(name, k):
    errors = []
    run = Run(WORKLOADS[name], seed=0)
    spans = os.path.join(WORK, f"selftest-{name}.jsonl")
    plain, traced = run.invoke(0), run.invoke(0, spans)
    if plain is None or traced is None:
        return [f"{name}: an invocation failed the output check"]
    if traced["stdout"] != plain["stdout"]:
        errors.append(f"{name}: traced report differs from the untraced one")
    metrics = sample_metrics(read_spans(spans))
    for fn, want in PREDICTIONS.items():
        got, want = metrics[f"{fn}.calls"], want[k]
        if (want == "+" and got == 0) or (want != "+" and got != want):
            errors.append(f"{name}: {fn} ran {got} times, predicted {want}")
    bad = mutated(plain["stdout"])
    if not run.problems(dict(plain, stdout=bad)):
        errors.append(f"{name}: the checker accepted a corrupted report")
    if not run.w.check(report_of(bad)):
        errors.append(f"{name}: the invariants accepted a corrupted report")
    return errors


def main():
    os.makedirs(WORK, exist_ok=True)
    errors = []
    for k, name in enumerate(ORDER):
        errors += check_workload(name, k)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    if listed != per_layer_metrics():
        errors.append("BENCHMARK.json per_layer differs from tracer.per_layer_metrics()")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
