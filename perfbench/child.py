"""One benchmark sample, in a fresh process.

    python3 perfbench/child.py '<request JSON>'

A fresh process per sample is what a user pays for every CLI call, and it
keeps any cache inside the package from carrying over between samples.

Request modes:
  "invoke": import ``hopfcyclic.cli``, then time one ``cli.main(argv)`` call
            with the CLI's output captured. With "spans" set, the call is
            traced and its spans are written to that path.
  "setup":  time the import of ``hopfcyclic.cli`` plus one
            ``cli.parse_input`` of the input.

Both modes also time the reference loop (``reference_s``) in the same
process and report the mean as ``ref_s``: an untraced invocation runs it
before and after the call and, from a SIGALRM timer, every
``PROBE_INTERVAL_S`` during it, and leaves the probes' time out of
``wall_s``; a traced invocation runs it before and after only, so that no
probe lands inside a span, and a set-up probe after the parse only.

Prints one JSON object describing the outcome. An exception escaping
``cli.main`` is recorded with its traceback, not raised.
"""

import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_INTERVAL_S = 0.15
END_PROBES = 3


def reference_s():
    """Seconds of a fixed product of sparse dict-of-dicts integer matrices.

    It is the package's kind of work (``linalg.Matrix.mul`` on int entries)
    and takes about 0.01 s, but never calls the package, so a change to the
    package cannot move it, while the host's slow phases slow it as much as
    they slow a CLI call.
    """
    t0 = time.perf_counter()
    n, rnd = 600, random.Random(12345)
    a = {i: {rnd.randrange(n): rnd.randrange(1, 7) for _ in range(8)} for i in range(n)}
    for row in a.values():
        acc = {}
        for k, x in row.items():
            for j, y in a[k].items():
                acc[j] = acc.get(j, 0) + x * y
    return time.perf_counter() - t0


def end_probes():
    return [reference_s() for _ in range(END_PROBES)]


def timed_call(entry, argv, stdout, stderr, probe):
    """Seconds of ``entry(argv)`` without the probes' time, exit code,
    traceback or None, and the probes' seconds."""
    probes = []
    if probe:
        signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(reference_s()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = entry(argv)
    except Exception:
        error = traceback.format_exc()
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
    return seconds - sum(probes), code, error, probes


def run(req):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import hopfcyclic.cli as cli
    out = {"import_s": time.perf_counter() - t0}
    if req["mode"] == "setup":
        t0 = time.perf_counter()
        cli.parse_input(req["input"], req["field"])
        out["parse_s"] = time.perf_counter() - t0
        refs = end_probes()
        out["ref_s"] = sum(refs) / len(refs)
        return out
    entry, tracer = cli.main, None
    if req.get("spans"):
        from tracer import Tracer, install

        tracer = Tracer(req["sample"])
        entry = install(tracer)
    stdout, stderr = io.StringIO(), io.StringIO()
    refs = end_probes()
    out["wall_s"], code, error, probes = timed_call(entry, req["argv"], stdout, stderr,
                                                    probe=tracer is None)
    refs += probes + end_probes()
    out["ref_s"] = sum(refs) / len(refs)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(req["spans"])
    out.update(exit=code, stdout=stdout.getvalue(), stderr=stderr.getvalue(), error=error)
    return out


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
