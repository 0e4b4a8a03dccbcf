"""Command-line surface.

Verbs: check, homology, excision, relative, group-example, special. Tables
go to standard output tab-separated (degree, dim, verdict); --json emits the
full report document; --dump writes serialized complexes. Exit codes: 0 when
every verdict passes, 1 when a check fails, 2 on input or usage errors, with
a message and no traceback, and 3 on an internal error: any exception that
is not a HopfCyclicError, with its traceback on standard error.
"""

import argparse
import json
import sys

from .complexes import assemble_for_homology, homology
from .equivariant import (
    CoalgebraSES,
    ComoduleAlgebra,
    ModuleCoalgebra,
    coefficient_from_json,
    make_coefficient,
    regular_comodule_algebra,
)
from .errors import AuditFailed, HopfCyclicError, ParseError
from .fields import field_by_name
from .hopf import BialgebraDesc, audit, desc_from_json, matrix_from_json
from .serialize import (
    _desc_inline_or_file,
    complex_dump,
    dumps,
    load_json,
    load_object,
    module_coalgebra_from_json,
    ses_from_json,
)
from .theorems import AlgebraSES, relative_hc, special_checks, verify_excision

# what parse_input returns, by the document kind it read
DOCUMENT_KINDS = {
    CoalgebraSES: "coalgebra short exact sequence",
    AlgebraSES: "algebra short exact sequence",
    ModuleCoalgebra: "module coalgebra",
    BialgebraDesc: "bialgebra description",
}


def _override_field(doc, field_name):
    if field_name is None:
        return doc
    if isinstance(doc, dict):
        doc = dict(doc)
        if "field" in doc:
            doc["field"] = field_name
        for k, v in doc.items():
            if isinstance(v, dict):
                doc[k] = _override_field(v, field_name)
    return doc


def parse_input(path, field=None):
    """Parse and fully audit a description file; audit failures abort."""
    doc = _override_field(load_object(path), field)
    if "mode" in doc and "C" in doc:
        return ses_from_json(doc)
    if "ideal" in doc and ("A" in doc or "B" in doc):
        return _algebra_ses_from_json(doc)
    if "action" in doc and "base" in doc:
        return module_coalgebra_from_json(doc)
    if "basis" in doc:
        return desc_from_json(doc)
    raise ParseError(f"{path}: unrecognized input document")


def parse_expected(path, field, expected):
    """parse_input, refusing any document that does not parse to ``expected``."""
    obj = parse_input(path, field)
    if not isinstance(obj, expected):
        raise ParseError(f"{path}: expected a {DOCUMENT_KINDS[expected]} document, "
                         f"got a {DOCUMENT_KINDS[type(obj)]}")
    return obj


def _require_keys(path, doc, keys, kind):
    """Refuse a document that lacks any of ``keys``: it is not a ``kind`` document."""
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise ParseError(f"{path}: expected a {kind} document (keys {', '.join(keys)})")


# the keys each special check reads from its parameters document
SPECIAL_KEYS = {
    "additivity": ("C1", "C2"),
    "commutative_hopf": ("B", "ideal"),
    "cocommutative_hopf": ("B", "ideal"),
    "group_example": ("table", "subgroup"),
}


def _algebra_ses_from_json(doc):
    """Algebra-side SES input.

    Either {"B": <desc>, "ideal": <matrix>} (B coacting on itself) or
    {"A": {"base": <algebra desc>, "over": <desc>, "coaction": <matrix>},
    "ideal": <matrix>}, where each desc may also be the path of a file
    holding it, as in a module coalgebra. The ideal generators are closed
    under two-sided multiplication.
    """
    if "A" in doc:
        a_doc = doc["A"]
        _require_keys('"A"', a_doc, ("base", "over", "coaction"), "comodule algebra")
        base = _desc_inline_or_file(a_doc["base"])
        over = _desc_inline_or_file(a_doc["over"])
        coaction = matrix_from_json(base.field, a_doc["coaction"])
        A = ComoduleAlgebra(base, over, coaction)
    else:
        A = regular_comodule_algebra(_desc_inline_or_file(doc["B"]))
    gens = matrix_from_json(A.base.field, doc["ideal"])
    return AlgebraSES(A, gens)


def _coefficient(arg, B):
    """The coefficient ``arg`` names: a kind, a JSON file path or an inline document."""
    if arg is None:
        return make_coefficient("eps", B)
    if arg in ("eps", "unit", "r_ad", "ad_r"):
        return make_coefficient(arg, B)
    if isinstance(arg, str):
        return coefficient_from_json(B, load_object(arg))
    return coefficient_from_json(B, arg)


def _emit(args, table_rows, report_doc, dump_doc=None):
    for row in table_rows:
        print("\t".join(str(x) for x in row))
    if args.json:
        print(dumps(report_doc))
    if getattr(args, "dump", None) and dump_doc is not None:
        with open(args.dump, "w") as fh:
            fh.write(dumps(dump_doc))


def _emit_report(args, report):
    """Hypothesis rows, then degree rows; exit 0 when every verdict passes."""
    rows = [(h.name, h.verdict, h.window or "") for h in report.hypotheses]
    rows += [(d.n, json.dumps(d.dims, sort_keys=True), d.verdict) for d in report.degrees]
    _emit(args, rows, report.to_json())
    return 0 if report.all_pass else 1


def cmd_check(args):
    doc = _override_field(load_json(args.input), args.field)
    try:
        desc = desc_from_json(doc)
        report = audit(desc, args.level or desc.level)
    except AuditFailed as exc:
        report = exc.report
    rows = [(c.name, "pass" if c.passed else "FAIL",
             "" if c.witness is None else "|".join(map(str, c.witness)))
            for c in report.checks]
    _emit(args, rows, report.to_json())
    return 0 if report.ok else 1


def cmd_homology(args):
    obj = parse_expected(args.input, args.field, ModuleCoalgebra)
    B = obj.over
    X = _coefficient(args.coefficient, B)
    side = args.side
    main = ComoduleAlgebra(obj.base, B, obj.base.comult) if side == "algebra" else obj
    cm = assemble_for_homology(side, main, X, args.max_degree + 1)
    dims = homology(cm, args.theory, args.max_degree)
    rows = [(n, dims[n], "-") for n in range(args.max_degree + 1)]
    doc = {"theory": args.theory, "side": side, "dims": dims}
    dump = None
    if args.dump:
        from .complexes import cyclic_total_complex

        dump = complex_dump({"cyclic_total": cyclic_total_complex(cm, args.max_degree + 1)})
    _emit(args, rows, doc, dump)
    return 0


def cmd_excision(args):
    if args.side == "coalgebra":
        ses = parse_expected(args.input, args.field, CoalgebraSES)
        B = ses.C.over
    else:
        ses = parse_expected(args.input, args.field, AlgebraSES)
        B = ses.A.over
    X = _coefficient(args.coefficient, B)
    report = verify_excision(ses, X, args.side, args.max_degree)
    return _emit_report(args, report)


def cmd_relative(args):
    ses_doc = _override_field(load_json(args.input), args.field)
    _require_keys(args.input, ses_doc, ("C", "K"), DOCUMENT_KINDS[CoalgebraSES])
    mc = module_coalgebra_from_json(ses_doc["C"])
    K = matrix_from_json(mc.base.field, ses_doc["K"])
    X = _coefficient(args.coefficient, mc.over)
    dims, report = relative_hc(mc, K, X, args.mode, args.max_degree)
    rows = [(n, dims[n], report.degrees[n].verdict) for n in range(args.max_degree + 1)]
    _emit(args, rows, report.to_json())
    return 0 if report.all_pass else 1


def cmd_group_example(args):
    doc = load_json(args.group)
    if not isinstance(doc, list):
        _require_keys(args.group, doc, ("table",), "group table")
        doc = doc["table"]
    field = field_by_name(args.field or "Q")
    report = special_checks(
        "group_example", {"table": doc, "subgroup": args.normal, "field": field},
        args.max_degree)
    return _emit_report(args, report)


def cmd_special(args):
    kind = args.kind.replace("-", "_")
    params_doc = _override_field(load_json(args.params), args.field)
    if kind in SPECIAL_KEYS:
        _require_keys(args.params, params_doc, SPECIAL_KEYS[kind],
                      f"--kind {args.kind} parameters")
    field = field_by_name(args.field or params_doc.get("field", "Q"))
    if kind == "additivity":
        C1 = module_coalgebra_from_json(params_doc["C1"])
        C2 = module_coalgebra_from_json(params_doc["C2"])
        X = _coefficient(params_doc.get("coefficient"), C1.over)
        params = {"C1": C1, "C2": C2, "X": X}
    elif kind in ("commutative_hopf", "cocommutative_hopf"):
        B = desc_from_json(params_doc["B"])
        ideal = matrix_from_json(B.field, params_doc["ideal"])
        X = _coefficient(params_doc.get("coefficient"), B)
        key = "J" if kind == "commutative_hopf" else "K"
        params = {"B": B, key: ideal, "X": X}
    elif kind == "group_example":
        params = {"table": params_doc["table"],
                  "subgroup": params_doc["subgroup"],
                  "field": field}
    else:
        raise ParseError(f"unknown special kind {args.kind!r}")
    report = special_checks(kind, params, args.max_degree)
    return _emit_report(args, report)


def _degree(text):
    """argparse type of --max-degree: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative; degrees start at 0")
    return n


def _indices(text):
    """argparse type of --normal: comma-separated element indices."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of integers") from None


def build_parser():
    p = argparse.ArgumentParser(
        prog="hopfcyclic",
        description="Exact-arithmetic equivariant cyclic homology engine")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, dump=False):
        sp.add_argument("--field", help='field override: "Q" or "Fp:<p>"')
        sp.add_argument("--max-degree", type=_degree, default=4)
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        if dump:
            sp.add_argument("--dump", help="write serialized complexes to this path")

    sp = sub.add_parser("check", help="audit a structure-constant description")
    sp.add_argument("input")
    sp.add_argument("--level", choices=["algebra", "coalgebra", "bialgebra", "hopf"])
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("homology", help="homology dims of an assembled triple")
    sp.add_argument("input", help="module-coalgebra JSON file")
    sp.add_argument("--theory", choices=["hochschild", "cyclic", "bar"], default="cyclic")
    sp.add_argument("--side", choices=["coalgebra", "algebra"], default="coalgebra")
    sp.add_argument("--coefficient", help="eps|unit|r_ad|ad_r or a JSON file")
    common(sp, dump=True)
    sp.set_defaults(fn=cmd_homology)

    sp = sub.add_parser("excision", help="verify an excision theorem on an SES")
    sp.add_argument("input", help="SES JSON file")
    sp.add_argument("--side", choices=["coalgebra", "algebra"], default="coalgebra")
    sp.add_argument("--coefficient", help="eps|unit|r_ad|ad_r or a JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_excision)

    sp = sub.add_parser("relative", help="relative cyclic homology of a pair")
    sp.add_argument("input", help="SES JSON file")
    sp.add_argument("--mode", choices=["cokernel", "quotient"], default="quotient")
    sp.add_argument("--coefficient", help="eps|unit|r_ad|ad_r or a JSON file")
    common(sp)
    sp.set_defaults(fn=cmd_relative)

    sp = sub.add_parser("group-example", help="discrete-group example vs the oracle")
    sp.add_argument("--group", required=True, help="JSON file with a group table")
    sp.add_argument("--normal", required=True, type=_indices,
                    help="comma-separated subgroup indices")
    common(sp)
    sp.set_defaults(fn=cmd_group_example)

    sp = sub.add_parser("special", help="additivity and Hopf-reduction checks")
    sp.add_argument("--kind", required=True,
                    choices=["additivity", "commutative-hopf", "cocommutative-hopf",
                             "group-example"])
    sp.add_argument("--params", required=True, help="JSON file with the check inputs")
    common(sp)
    sp.set_defaults(fn=cmd_special)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except AuditFailed as exc:
        print("audit failed:", file=sys.stderr)
        for c in exc.report.failures():
            print(f"  {c.name} at {c.witness}", file=sys.stderr)
        return 2
    except HopfCyclicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, never a verdict or an input error
        import traceback  # imported here: it adds to every start-up otherwise

        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
