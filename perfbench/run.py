"""Benchmark of the hopfcyclic CLI on three verified workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A sample is one
``hopfcyclic.cli.main(argv)`` call in a fresh child process, one child at a
time (a closed loop with a single client). Sample ``i`` uses the input
relabelled by the ``i``-th permutation that the seed draws (see
workloads.py). Samples start until ``--seconds`` have passed; every report is
compared byte for byte with the stored expected output and checked against
seed-independent invariants, and a mismatch, traceback, wrong exit code or
timeout counts as a failed invocation.

With ``--trace 0`` the metrics are wall_s (median over verified
invocations of the ``cli.main`` time), peak_rss_mb (median of the child's
ru_maxrss) and setup_s (median over fresh processes, one after each
sample, of the time to import hopfcyclic.cli plus one cli.parse_input of
the input). Both times are in reference seconds: each measured time is
divided by the mean time of child.py's reference loop in the same process
and multiplied by REFERENCE_S. The host's speed drifts by a third over
minutes and a run sees one or two of its phases, so plain seconds spread
between runs more than any bound allows; the reference loop slows with the
host, and dividing by it removes most of that. The median and quartiles of
the plain seconds go to standard error. With ``--trace 1`` untraced and
traced samples alternate on the same inputs, and the metrics are the
per-layer numbers of tracer.py (medians over traced samples) plus the
tracing overhead. ``attempted`` and ``failed`` count CLI invocations and
set-up probes. The last line of standard output is one JSON object;
progress goes to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
HARD_LIMIT_S = 170  # a run must end within 180 s, whatever --seconds says
REFERENCE_S = 0.01  # a reference second: the reference loop's time on a quiet measurement host

sys.path.insert(0, os.path.join(ROOT, "src"))  # the Sweedler input is built by the package

from tracer import per_layer_metrics, read_spans, sample_metrics  # noqa: E402
from workloads import WORKLOADS, permutations, report_of  # noqa: E402


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Run:
    def __init__(self, workload, seed):
        self.w = workload
        self.doc = workload.load()
        self.perms = permutations(seed)
        with open(workload.expected_path()) as fh:
            self.expected = fh.read()
        self.written = set()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def input_path(self, i):
        p = self.perms[i % len(self.perms)]
        path = os.path.join(WORK, f"{self.w.name}-{''.join(map(str, p))}.json")
        if path not in self.written:
            self.w.write_input(self.doc, p, path)
            self.written.add(path)
        return path

    def child(self, req):
        """Outcome dict of one child process, or None if it crashed or timed out."""
        try:
            proc = subprocess.run([sys.executable, CHILD, json.dumps(req)], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"child timed out: {req}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def setup(self, i):
        """Reference seconds to import hopfcyclic.cli and parse input ``i``, or None."""
        self.attempted += 1
        out = self.child({"mode": "setup", "input": self.input_path(i), "field": self.w.field})
        if out is None:
            self.failed += 1
            return None
        return (out["import_s"] + out["parse_s"]) / out["ref_s"] * REFERENCE_S

    def invoke(self, i, spans=None):
        """One verified invocation; the outcome dict, or None when it failed."""
        self.attempted += 1
        req = {"mode": "invoke", "argv": self.w.cli_argv(self.input_path(i)),
               "spans": spans, "sample": i}
        out = self.child(req)
        problems = ["no outcome"] if out is None else self.problems(out)
        if problems:
            self.failed += 1
            print(f"sample {i} failed: {problems}", file=sys.stderr)
            return None
        return out

    def problems(self, out):
        if out["error"]:
            return [out["error"]]
        errors = []
        if out["exit"] != 0:
            errors.append(f"exit code {out['exit']}")
        if out["stdout"] != self.expected:
            errors.append("output differs from the expected copy")
        try:
            errors += self.w.check(report_of(out["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            errors.append(f"unreadable report: {exc!r}")
        return errors


def measure(run, seconds, trace):
    """Verified untraced samples, traced ones when ``trace``, and set-up times.

    A set-up probe follows every untraced sample, so set-up time is sampled
    across the whole run like wall time.
    """
    plain, traced, setups = [], [], []
    spans = os.path.join(WORK, f"spans-{run.w.name}.jsonl")
    t0 = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - t0 < seconds) and run.remaining() > 0:
        # traced and untraced samples alternate which goes first, so drift favours neither
        for traced_turn in ((i % 2 == 1, i % 2 == 0) if trace else (False,)):
            if traced_turn:
                out = run.invoke(i, spans)
                if out:
                    traced.append(sample_metrics(read_spans(spans)) | out)
            else:
                plain.append(run.invoke(i))
        if not trace:
            setups.append(run.setup(i))
        i += 1
    return [o for o in plain if o], traced, [t for t in setups if t is not None]


def wall_ref_s(outcomes):
    """Median reference seconds of the invocations' ``cli.main`` calls."""
    return statistics.median(o["wall_s"] / o["ref_s"] for o in outcomes) * REFERENCE_S


def main():
    args = parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "hopfcyclic")):
        print("no hopfcyclic sources under src/: run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    plain, traced, setups = measure(run, args.seconds, args.trace == 1)
    if not plain or not (traced if args.trace else setups):
        print("no verified invocation or set-up probe", file=sys.stderr)
        return 1
    walls = sorted(o["wall_s"] for o in plain)
    print(f"{args.workload} seed {args.seed}: {len(walls)} verified samples, "
          f"wall_s median {statistics.median(walls):.4f}, "
          f"quartiles {statistics.quantiles(walls, n=4) if len(walls) > 1 else walls}, "
          f"reference loop median {statistics.median(o['ref_s'] for o in plain):.4f} s",
          file=sys.stderr)
    if args.trace:
        metrics = {}
        for name, unit, _ in per_layer_metrics():
            if name == "trace.overhead_ratio":
                value = wall_ref_s(traced) / wall_ref_s(plain)
            else:
                value = statistics.median(o[name] for o in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": wall_ref_s(plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(o["maxrss_kb"] for o in plain) / 1024,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
