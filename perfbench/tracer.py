"""Outside-in tracing of hopfcyclic: spans around public functions, from outside.

The benchmark never edits the package. ``install`` replaces each traced
function by a wrapper that records a span (name, start, end, parent span,
sample id) and, for a few functions, counters computed from the arguments
and the result. A module-level function is rebound under every name that
refers to it in any ``hopfcyclic.*`` namespace, because ``theorems`` and
``complexes`` import ``rank``, ``slotted``, ``twisted_ch`` and others by
name; a method is replaced on its class. Spans stay in memory and are
written as JSON lines when the traced invocation ends.

``sample_metrics`` turns one invocation's spans into the per-layer metrics.
"""

import functools
import importlib
import json
import sys
import time


def _matrix_key(M):
    """Content hash of a sparse matrix: equal matrices get equal keys."""
    cells = frozenset((i, j, v) for i, row in M.rowdict.items() for j, v in row.items())
    return hash((M.rows, M.cols, cells))


def _rank_counters(args, result):
    return {"key": _matrix_key(args[0])}


def _rank_kernel_counters(args, result):
    return {"in_nnz": args[0].nnz(), "kernel_cols": result[1].cols}


def _permute_slots_counters(args, result):
    return {"out_dim": result.rows}


def _quotient_counters(args, result):
    _, _, ambient_dim, relations = args[:4]
    return {"key": hash((ambient_dim, tuple(frozenset(v.items()) for v in relations)))}


def _twisted_ch_counters(args, result):
    """The key ignores the depth: a deeper build serves its truncations."""
    C, M, X = args[:3]
    mats = (C.over.mult, C.over.comult, C.base.comult, C.action, M.action,
            M.left_coaction, M.right_coaction, X.action, X.coaction)
    return {"key": hash(tuple(_matrix_key(m) for m in mats)), "ambient_dim": result.dims[-1]}


def _assemble_counters(args, result):
    maps = list(result.tau)
    for faces in getattr(result, "cofaces", None) or result.faces:
        maps.extend(faces)
    bits = 0
    for M in maps:
        for row in M.rowdict.values():
            for v in row.values():
                bits = max(bits, v.denominator.bit_length())
    return {"den_bits": bits}


# (module, qualified name, counters or None). The layer each one belongs to is
# documented in perfbench/README.md.
TARGETS = [
    # linalg: construct
    ("linalg", "Matrix.mul", None),
    ("linalg", "Matrix.kron", None),
    ("linalg", "Matrix.add", None),
    ("linalg", "permute_slots", _permute_slots_counters),
    ("linalg", "slotted", None),
    ("linalg", "block_matrix", None),
    # linalg: eliminate
    ("linalg", "rank", _rank_counters),
    ("linalg", "rank_kernel", _rank_kernel_counters),
    ("linalg", "solve_columns", None),
    ("linalg", "GradedComplex.homology", None),
    # linalg: descend
    ("linalg", "QuotientSpace.__init__", _quotient_counters),
    ("linalg", "QuotientSpace.induce", None),
    ("linalg", "map_well_defined", None),
    ("linalg", "SubSpace.__init__", None),
    # linalg: validate
    ("linalg", "GradedComplex.__init__", None),
    # complexes
    ("complexes", "twisted_ch", _twisted_ch_counters),
    ("complexes", "assemble", _assemble_counters),
    ("complexes", "diagonal_action", None),
    ("complexes", "diagonal_right_coaction", None),
    ("complexes", "coinvariant_space_from_matrices", None),
    ("complexes", "cyclic_total_complex", None),
    ("complexes", "homology", None),
    ("complexes", "CosimplicialModule.validate", None),
    ("complexes", "CocyclicModule.validate", None),
    ("complexes", "CyclicModule.validate", None),
    # theorems
    ("theorems", "verify_excision", None),
    ("theorems", "CoinvariantCH.__init__", None),
    ("theorems", "CoinvariantCH.induce_map", None),
    ("theorems", "cone_quasi_iso", None),
    ("theorems", "cofibration_verdicts", None),
    ("theorems", "total_chain_map", None),
    ("theorems", "ChainMap.validate", None),
    ("theorems", "AlgebraSES.__init__", None),
    ("theorems", "h_unitality_probe", None),
    # equivariant
    ("equivariant", "action_of_basis", None),
    ("equivariant", "is_projective", None),
    ("equivariant", "h_counitality_probe", None),
    ("equivariant", "make_coefficient", None),
    ("equivariant", "ModComod.__init__", None),
    ("equivariant", "quotient_ses", None),
    # parsing and output
    ("hopf", "desc_from_json", None),
    ("hopf", "audit", None),
    ("hopf", "find_integral", None),
    ("serialize", "module_coalgebra_from_json", None),
    ("serialize", "ses_from_json", None),
    ("serialize", "dumps", None),
]
ENTRY = ("cli", "main")  # the root span; its self time is what the CLI does itself
# spans whose work is mostly in traced callees (products, eliminations), so
# their inclusive time is reported too: rebuilds and validation
INCLUSIVE = [
    "complexes.twisted_ch",
    "complexes.assemble",
    "theorems.CoinvariantCH.__init__",
    "linalg.GradedComplex.__init__",
    "complexes.CosimplicialModule.validate",
    "complexes.CocyclicModule.validate",
    "complexes.CyclicModule.validate",
    "theorems.ChainMap.validate",
]
MODULES = ["linalg", "complexes", "theorems", "equivariant", "hopf", "serialize", "cli"]


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, qualname, _ in TARGETS:
        out.append((f"{module}.{qualname}.calls", "count", "lower"))
        out.append((f"{module}.{qualname}.self_s", "s", "lower"))
    out += [(f"{name}.total_s", "s", "lower") for name in INCLUSIVE]
    out += [
        ("linalg.permute_slots.out_dim", "count", "lower"),
        ("linalg.rank.distinct_ratio", "ratio", "higher"),
        ("linalg.rank_kernel.in_nnz", "count", "lower"),
        ("linalg.rank_kernel.kernel_cols", "count", "lower"),
        ("linalg.QuotientSpace.distinct_ratio", "ratio", "higher"),
        ("complexes.twisted_ch.distinct_ratio", "ratio", "higher"),
        ("complexes.twisted_ch.ambient_dim", "count", "lower"),
        ("fields.qq.max_den_bits", "bits", "lower"),
    ]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Spans of one invocation, kept in memory until ``write``."""

    def __init__(self, sample):
        self.sample = sample
        # [name, start_ns, end_ns, parent index, counters, counter_ns of descendants]
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, counters):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, None, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[4] = counters(args, result)
                # counting is tracer work: keep it out of every enclosing span
                cost = clock() - rec[2]
                for k in stack:
                    spans[k][5] += cost
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for k, (name, start, end, parent, counters, hidden) in enumerate(self.spans):
                rec = {"id": k, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "sample": self.sample, "counter_ns": hidden}
                if counters:
                    rec.update(counters)
                fh.write(json.dumps(rec) + "\n")


def install(tracer):
    """Wrap every target and the CLI entry point; returns the wrapped ``main``."""
    for module in MODULES:
        importlib.import_module(f"hopfcyclic.{module}")
    for module, qualname, counters in TARGETS + [ENTRY + (None,)]:
        mod = importlib.import_module(f"hopfcyclic.{module}")
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and meth in vars(cls):
                setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], counters))
            continue
        orig = getattr(mod, qualname, None)
        if orig is None:
            continue
        wrapped = tracer.wrap(name, orig, counters)
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "hopfcyclic" or mname.startswith("hopfcyclic.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapped)
    return importlib.import_module("hopfcyclic.cli").main


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def sample_metrics(spans):
    """Per-layer metrics of one invocation (all except trace.overhead_ratio)."""
    incl_ns = [s["end_ns"] - s["start_ns"] - s["counter_ns"] for s in spans]
    child_ns = [0] * len(spans)
    for s, incl in zip(spans, incl_ns):
        if s["parent"] >= 0:
            child_ns[s["parent"]] += incl
    calls, self_ns, total_ns, keys = {}, {}, {}, {}
    module_ns = dict.fromkeys(MODULES, 0)
    counts = {"out_dim": 0, "in_nnz": 0, "kernel_cols": 0, "ambient_dim": 0, "den_bits": 0}
    for s, incl, children in zip(spans, incl_ns, child_ns):
        name = s["name"]
        own = incl - children
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + incl
        module_ns[name.split(".")[0]] += own
        if "key" in s:
            keys.setdefault(name, set()).add(s["key"])
        for c in ("out_dim", "in_nnz", "kernel_cols", "ambient_dim"):
            counts[c] += s.get(c, 0)
        counts["den_bits"] = max(counts["den_bits"], s.get("den_bits", 0))

    def ratio(name):
        n = calls.get(name, 0)
        return len(keys.get(name, ())) / n if n else 1.0

    out = {}
    for module, qualname, _ in TARGETS:
        name = f"{module}.{qualname}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name in INCLUSIVE:
        out[f"{name}.total_s"] = total_ns.get(name, 0) / 1e9
    out["linalg.permute_slots.out_dim"] = counts["out_dim"]
    out["linalg.rank.distinct_ratio"] = ratio("linalg.rank")
    out["linalg.rank_kernel.in_nnz"] = counts["in_nnz"]
    out["linalg.rank_kernel.kernel_cols"] = counts["kernel_cols"]
    out["linalg.QuotientSpace.distinct_ratio"] = ratio("linalg.QuotientSpace.__init__")
    out["complexes.twisted_ch.distinct_ratio"] = ratio("complexes.twisted_ch")
    out["complexes.twisted_ch.ambient_dim"] = counts["ambient_dim"]
    out["fields.qq.max_den_bits"] = counts["den_bits"]
    for m in MODULES:
        out[f"{m}.self_s"] = module_ns[m] / 1e9
    return out
