"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Every workload acts on a four-dimensional coalgebra or algebra. The seed
shuffles the 24 relabellings of that basis; sample ``i`` of a run feeds the
CLI the input relabelled by the ``i``-th permutation of the shuffle (the
identity, i.e. the shipped order, is one of them). Homology dims and
verdicts do not depend on the basis, so every relabelling must reproduce
the stored expected output byte for byte. The elimination order does depend
on it, which is why a run walks through many relabellings instead of timing
one.
"""

import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(os.path.dirname(HERE), "src", "hopfcyclic", "fixtures")
MAX_DEGREE = 3
# excision-coalgebra stops at degree 2: at degree 3 its run median drifted by
# up to 0.08 between runs, because fewer than 20 samples fit in a run and the
# host's slowest phases slow it more than the reference loop
COALGEBRA_MAX_DEGREE = 2


class Workload:
    def __init__(self, name, argv, field, check, load, relabel):
        self.name = name
        self.argv = argv  # CLI arguments, with "{input}" standing for the input file
        self.field = field  # the --field override, also used by the set-up probe
        self.check = check  # seed-independent invariants on the parsed --json report
        self.load = load  # () -> the input document in the shipped basis order
        self.relabel = relabel  # (document, permutation) -> relabelled document

    def expected_path(self):
        return os.path.join(HERE, "expected", f"{self.name}.txt")

    def cli_argv(self, path):
        return [path if a == "{input}" else a for a in self.argv]

    def write_input(self, doc, p, path):
        with open(path, "w") as fh:
            json.dump(self.relabel(doc, p), fh, sort_keys=True)


# ---------------------------------------------------------------------------
# Relabelling of JSON documents. ``p[i]`` is the new index of basis vector i.
# ---------------------------------------------------------------------------


def _relabel_list(values, p):
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[p[i]] = v
    return out


def _relabel_matrix(doc, row_map, col_map):
    return {"rows": doc["rows"], "cols": doc["cols"],
            "entries": [[row_map(i), col_map(j), v] for i, j, v in doc["entries"]]}


def relabel_desc(doc, p):
    """Every structure map of a description, relabelled consistently."""
    out = dict(doc)
    out["basis"] = _relabel_list(doc["basis"], p)
    for key in ("mult", "comult"):
        if key in doc:
            out[key] = [[p[i], p[j], p[k], c] for i, j, k, c in doc[key]]
    for key in ("unit", "counit"):
        if key in doc:
            out[key] = _relabel_list(doc[key], p)
    for key in ("antipode", "antipode_inv"):
        if key in doc:
            out[key] = _relabel_matrix(doc[key], p.__getitem__, p.__getitem__)
    return out


def relabel_module_coalgebra(doc, p):
    """Relabel C in {"over": B, "base": C, "action": [[b, c, c', v], ...]}."""
    return {"over": doc["over"], "base": relabel_desc(doc["base"], p),
            "action": [[b, p[c], p[c2], v] for b, c, c2, v in doc["action"]]}


def relabel_coalgebra_ses(doc, p):
    return {"C": relabel_module_coalgebra(doc["C"], p),
            "K": _relabel_matrix(doc["K"], p.__getitem__, int), "mode": doc["mode"]}


def relabel_algebra_ses(doc, p):
    a_doc = doc["A"]
    d = len(a_doc["over"]["basis"])
    coaction = _relabel_matrix(a_doc["coaction"],
                               lambda r: p[r // d] * d + r % d, p.__getitem__)
    return {"A": {"base": relabel_desc(a_doc["base"], p), "over": a_doc["over"],
                  "coaction": coaction},
            "ideal": _relabel_matrix(doc["ideal"], p.__getitem__, int)}


# ---------------------------------------------------------------------------
# The Sweedler H4 module coalgebra, written by this benchmark's own serializer
# ---------------------------------------------------------------------------


def _desc_to_doc(desc):
    f = desc.field
    n = desc.dim
    doc = {"field": f.name, "basis": list(desc.basis), "level": desc.level}
    if desc.mult is not None:
        doc["mult"] = [[j // n, j % n, k, f.fmt(v)] for k, j, v in desc.mult.entries()]
    if desc.comult is not None:
        doc["comult"] = [[i, jk // n, jk % n, f.fmt(v)] for jk, i, v in desc.comult.entries()]
    if desc.unit is not None:
        col = desc.unit.col(0)
        doc["unit"] = [f.fmt(col.get(i, f.zero)) for i in range(n)]
    if desc.counit is not None:
        row = desc.counit.rowdict.get(0, {})
        doc["counit"] = [f.fmt(row.get(i, f.zero)) for i in range(n)]
    for key in ("antipode", "antipode_inv"):
        M = getattr(desc, key)
        if M is not None:
            doc[key] = {"rows": M.rows, "cols": M.cols,
                        "entries": [[i, j, f.fmt(v)] for i, j, v in M.entries()]}
    return doc


def sweedler_module_coalgebra_doc():
    """H4 acting on itself by left multiplication (needs ``src`` on sys.path)."""
    from hopfcyclic.equivariant import regular_module_coalgebra
    from hopfcyclic.fields import QQ
    from hopfcyclic.hopf import sweedler_h4

    mc = regular_module_coalgebra(sweedler_h4(QQ))
    f = mc.base.field
    n = mc.dim
    action = [[col // n, col % n, i, f.fmt(v)] for i, col, v in mc.action.entries()]
    return {"over": _desc_to_doc(mc.over), "base": _desc_to_doc(mc.base), "action": action}


def _fixture(name):
    def load():
        with open(os.path.join(FIXTURES, name)) as fh:
            return json.load(fh)
    return load


# ---------------------------------------------------------------------------
# Report checks that hold for every seed
# ---------------------------------------------------------------------------


def report_of(stdout):
    """The --json document: everything from the first line that is "{"."""
    lines = stdout.split("\n")
    return json.loads("\n".join(lines[lines.index("{"):]))


def _check_excision(whole, sub, quot, max_degree):
    def check(report):
        errors = [f"hypothesis {h['name']!r} is {h['verdict']}"
                  for h in report["hypotheses"] if h["verdict"] != "PASS"]
        for d in report["degrees"]:
            dims = d["dims"]
            if d["verdict"] != "PASS":
                errors.append(f"degree {d['n']} is {d['verdict']}")
            if dims[whole] != dims[sub] + dims[quot]:
                errors.append(f"degree {d['n']}: {whole} != {sub} + {quot} in {dims}")
        if len(report["degrees"]) != max_degree + 1:
            errors.append(f"{len(report['degrees'])} degrees reported")
        return errors
    return check


def _check_sweedler(report):
    want = [2, 1, 2, 1, 2][:MAX_DEGREE + 1]
    return [] if report["dims"] == want else [f"dims {report['dims']} != {want}"]


WORKLOADS = {
    w.name: w for w in (
        Workload("excision-coalgebra",
                 ["excision", "{input}", "--max-degree", str(COALGEBRA_MAX_DEGREE), "--json"],
                 None, _check_excision("C", "K", "C/K", COALGEBRA_MAX_DEGREE),
                 _fixture("direct_sum_ses.json"), relabel_coalgebra_ses),
        Workload("homology-sweedler",
                 ["homology", "{input}", "--coefficient", "r_ad", "--theory", "cyclic",
                  "--max-degree", str(MAX_DEGREE), "--json"],
                 None, _check_sweedler,
                 sweedler_module_coalgebra_doc, relabel_module_coalgebra),
        Workload("excision-algebra-f2",
                 ["excision", "{input}", "--side", "algebra", "--field", "Fp:2",
                  "--max-degree", str(MAX_DEGREE), "--json"],
                 "Fp:2", _check_excision("A", "I", "A/I", MAX_DEGREE),
                 _fixture("z2_product_algebra_ses.json"), relabel_algebra_ses),
    )
}


def permutations(seed, dim=4):
    """All relabellings of a ``dim``-element basis, in the seed's order."""
    perms = [list(p) for p in itertools.permutations(range(dim))]
    random.Random(seed).shuffle(perms)
    return perms

