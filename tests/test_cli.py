import json
from pathlib import Path

import pytest

from hopfcyclic import cli, complexes
from hopfcyclic.cli import main, parse_input
from hopfcyclic.complexes import assemble, cyclic_total_complex, homology
from hopfcyclic.equivariant import make_coefficient, regular_comodule_algebra
from hopfcyclic.errors import ParseError
from hopfcyclic.regular import regular_cocyclic_module
from hopfcyclic.serialize import complex_dump, dumps

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_sweedler_all_pass(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "sweedler_h4.json"))
        assert code == 0
        assert "FAIL" not in out
        assert "antipode" in out

    def test_group_algebra_fixtures(self, capsys):
        for name in ("z2_group_algebra", "z4_group_algebra", "s3_group_algebra",
                     "dual_z2_group_algebra", "trivial"):
            code, out, _ = run(capsys, "check", str(FIXTURES / f"{name}.json"))
            assert code == 0, name

    def test_malformed_scalar_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "field": "Q", "basis": ["a"], "level": "coalgebra",
            "comult": [[0, 0, 0, "1/0"]]}))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "1/0" in err

    def test_field_override(self, capsys):
        code, _, _ = run(capsys, "check", str(FIXTURES / "z4_group_algebra.json"),
                         "--field", "Fp:5")
        assert code == 0

    def test_mutated_fixture_exits_1_with_witness(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "z2_group_algebra.json").read_text())
        doc["comult"].append([1, 0, 1, "1"])  # break coassociativity/counit
        bad = tmp_path / "mutant.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "FAIL" in out


class TestHomology:
    def test_trivial_triple_table(self, capsys):
        code, out, _ = run(capsys, "homology", str(FIXTURES / "trivial_triple.json"),
                           "--theory", "cyclic", "--max-degree", "4")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert [(r[0], r[1]) for r in rows] == [
            ("0", "1"), ("1", "0"), ("2", "1"), ("3", "0"), ("4", "1")]

    def test_hochschild_theory(self, capsys):
        code, out, _ = run(capsys, "homology", str(FIXTURES / "trivial_triple.json"),
                           "--theory", "hochschild", "--max-degree", "3")
        assert code == 0
        dims = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert dims == ["1", "0", "0", "0"]

    def test_dump_writes_complex(self, capsys, tmp_path):
        dump = tmp_path / "dump.json"
        code, _, _ = run(capsys, "homology", str(FIXTURES / "trivial_triple.json"),
                         "--max-degree", "2", "--dump", str(dump))
        assert code == 0
        doc = json.loads(dump.read_text())
        assert "cyclic_total" in doc
        assert doc["cyclic_total"]["certificate"]["d_squared_zero"] is True

    def test_dump_of_a_regular_module_coalgebra_is_the_model(self, capsys, tmp_path):
        # an SAYD coefficient on B acting on itself dumps the total complex
        # of the model on X (x) B^{(x) n}: the descended dims, its own basis
        path = str(FIXTURES / "sweedler_h4_regular_module_coalgebra.json")
        dump = tmp_path / "dump.json"
        code, _, _ = run(capsys, "homology", path, "--coefficient", "r_ad", "--max-degree", "1",
                         "--dump", str(dump))
        assert code == 0
        mc = parse_input(path)
        X = make_coefficient("r_ad", mc.over)
        model = cyclic_total_complex(regular_cocyclic_module(mc, X, 2), 2)
        assert json.loads(dump.read_text()) == json.loads(
            dumps(complex_dump({"cyclic_total": model})))
        assert model.dims == cyclic_total_complex(assemble("coalgebra", mc, X, 2), 2).dims

    @pytest.mark.parametrize("coefficient", ["eps", "unit"])
    def test_sweedler_regular_with_a_coefficient_not_ayd_exit_2(self, capsys, coefficient):
        code, out, err = run(capsys, "homology",
                             str(FIXTURES / "sweedler_h4_regular_module_coalgebra.json"),
                             "--coefficient", coefficient)
        assert code == 2
        assert out == ""
        assert ("(co)cyclic identity 'coface d_1 well-defined on the quotient' fails in degree 0"
                in err)
        assert "Traceback" not in err

    def test_not_ayd_refusal_stops_at_the_first_quotient_it_fails_on(self, capsys,
                                                                      monkeypatch):
        # descent goes degree by degree: the coface out of degree 0 is
        # refused once the quotients of degrees 0 and 1 exist
        built = []
        real = complexes.QuotientSpace
        monkeypatch.setattr(complexes, "QuotientSpace",
                            lambda *args: built.append(args[1]) or real(*args))
        code, out, err = run(capsys, "homology",
                             str(FIXTURES / "sweedler_h4_regular_module_coalgebra.json"),
                             "--coefficient", "eps", "--max-degree", "4")
        assert code == 2
        assert out == ""
        assert ("(co)cyclic identity 'coface d_1 well-defined on the quotient' fails in degree 0"
                in err)
        assert len(built) <= 2

    def test_algebra_side_of_a_module_coalgebra(self, capsys):
        # B over itself read as a comodule algebra through its comultiplication
        path = str(FIXTURES / "z2_regular_module_coalgebra.json")
        code, out, _ = run(capsys, "homology", path, "--side", "algebra", "--max-degree", "2")
        assert code == 0
        B = parse_input(path).over
        cm = assemble("algebra", regular_comodule_algebra(B), make_coefficient("eps", B), 3)
        assert [int(line.split("\t")[1]) for line in out.splitlines()] == \
            homology(cm, "cyclic", 2)

    def test_bare_description_exit_2(self, capsys):
        code, out, err = run(capsys, "homology", str(FIXTURES / "sweedler_h4.json"))
        assert code == 2
        assert out == ""
        assert "expected a module coalgebra document, got a bialgebra description" in err
        assert "Traceback" not in err


class TestExcision:
    def test_direct_sum_q_exit_0(self, capsys):
        code, out, _ = run(capsys, "excision", str(FIXTURES / "direct_sum_ses.json"),
                           "--max-degree", "2")
        assert code == 0
        assert "UNVERIFIED" not in out

    def test_direct_sum_f2_exit_1(self, capsys):
        code, out, _ = run(capsys, "excision", str(FIXTURES / "direct_sum_ses.json"),
                           "--max-degree", "2", "--field", "Fp:2")
        assert code == 1
        assert "UNVERIFIED" in out

    def test_algebra_side_product_fixture(self, capsys):
        code, out, _ = run(capsys, "excision",
                           str(FIXTURES / "z2_product_algebra_ses.json"),
                           "--side", "algebra", "--max-degree", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_json_flag_emits_report(self, capsys):
        code, out, _ = run(capsys, "excision", str(FIXTURES / "direct_sum_ses.json"),
                           "--max-degree", "1", "--json")
        assert code == 0
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if l == "{")
        doc = json.loads("\n".join(lines[start:]))
        assert doc["theorem"] == "excision/coalgebra"

    def test_wrong_document_kind_exit_2(self, capsys):
        for argv, want, got in (
                (["direct_sum_ses.json", "--side", "algebra"],
                 "algebra short exact sequence", "coalgebra short exact sequence"),
                (["z2_product_algebra_ses.json"],
                 "coalgebra short exact sequence", "algebra short exact sequence"),
                (["z2_regular_module_coalgebra.json"],
                 "coalgebra short exact sequence", "module coalgebra")):
            code, out, err = run(capsys, "excision", str(FIXTURES / argv[0]), *argv[1:])
            assert code == 2, argv
            assert out == ""
            assert f"expected a {want} document, got a {got}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("fixture, side, field, sub, quot", [
        ("direct_sum_ses.json", "coalgebra", "Q", "K", "C/K"),
        ("z2_product_algebra_ses.json", "algebra", "Fp:2", "I", "A/I"),
    ])
    def test_degree_zero_window_matches_degree_one(self, capsys, fixture, side, field, sub,
                                                   quot):
        """--max-degree 0 is a valid window: its report is the degree-0 part of --max-degree 1."""
        reports = []
        for top in (0, 1):
            code, out, err = run(capsys, "excision", str(FIXTURES / fixture), "--side", side,
                                 "--field", field, "--max-degree", str(top), "--json")
            assert code == 0, err
            lines = out.splitlines()
            reports.append(json.loads("\n".join(lines[lines.index("{"):])))
        at0, at1 = reports
        assert [d["n"] for d in at0["degrees"]] == [0]
        assert at0["degrees"][0] == at1["degrees"][0]
        dims = at0["degrees"][0]["dims"]
        assert dims[sub] == 1 and dims[quot] == 1 and sum(dims.values()) == 4

        def window_free(hyps):
            return [{k: v for k, v in h.items() if k != "window"} for h in hyps]

        assert window_free(at0["hypotheses"]) == window_free(at1["hypotheses"])
        assert all(h["verdict"] == "PASS" for h in at0["hypotheses"])
        assert {h.get("window") for h in at0["hypotheses"]} <= {None, "0..0"}


class TestSESBadInput:
    @pytest.mark.parametrize("fixture, change, message", [
        ("z4_coideal_ses.json", {"mode": "subcoalgebra"},
         "comultiplication does not map K into K (x) K"),
        ("direct_sum_ses.json", {"K": {"rows": 4, "cols": 1, "entries": [[0, 0, "1"]]}},
         "action of basis element g1 leaves the subspace"),
    ])
    def test_refused_sequence_exit_2(self, capsys, tmp_path, fixture, change, message):
        doc = json.loads((FIXTURES / fixture).read_text())
        doc.update(change)
        bad = tmp_path / fixture
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "excision", str(bad), "--max-degree", "1")
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


def _set(*path_and_value):
    """A mutation that sets the entry at ``path`` of a document to ``value``;
    "MISSING" stands for a file that does not exist."""
    *path, value = path_and_value

    def mutate(doc, missing):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = missing if value == "MISSING" else value
    return mutate


class TestMalformedInput:
    """Each malformed document, a fixture with one entry changed, exits 2 with
    a message and no traceback: it is neither a crash nor silently misread."""

    @pytest.mark.parametrize("verb, fixture, mutate, message, extra", [
        pytest.param("check", "sweedler_h4.json", _set("mult", 0, [0, 0, 0]),
                     "malformed structure tensor", (), id="mult row of 3"),
        pytest.param("check", "sweedler_h4.json", _set("mult", [5]),
                     "malformed structure tensor", (), id="mult row not a list"),
        pytest.param("check", "sweedler_h4.json", _set("comult", 0, [0, 0, 0]),
                     "malformed structure tensor", (), id="comult row of 3"),
        pytest.param("check", "sweedler_h4.json", _set("unit", 5),
                     "unit must be a list of 4 scalars", (), id="unit not a list"),
        pytest.param("check", "sweedler_h4.json", _set("counit", 5),
                     "counit must be a list of 4 scalars", (), id="counit not a list"),
        pytest.param("check", "z2_group_algebra.json", _set("basis", "ab"),
                     "basis must be a list of strings", (), id="basis a string"),
        pytest.param("check", "z2_group_algebra.json", _set("mult", 0, 0, 0.5),
                     "bad index 0.5", (), id="mult index 0.5"),
        pytest.param("check", "z2_group_algebra.json", _set("mult", 0, 1, 2),
                     "bad index 2: expected an integer in [0, 2)", (), id="mult index 2 of 2"),
        pytest.param("check", "z2_group_algebra.json", _set("antipode", "entries", 0, 0, 0.5),
                     "bad index 0.5", (), id="matrix index 0.5"),
        pytest.param("homology", "trivial_triple.json", _set("over", "MISSING"),
                     "cannot read", (), id="over a missing file"),
        pytest.param("homology", "trivial_triple.json", _set("base", "MISSING"),
                     "cannot read", (), id="base a missing file"),
        pytest.param("homology", "z2_regular_module_coalgebra.json", _set("action", 0, 0, 0.5),
                     "bad index 0.5", (), id="action index 0.5"),
        pytest.param("excision", "z2_product_algebra_ses.json", _set("A", []),
                     "expected a comodule algebra document", ("--side", "algebra"),
                     id="algebra A not an object"),
    ])
    def test_exit_2(self, capsys, tmp_path, verb, fixture, mutate, message, extra):
        doc = json.loads((FIXTURES / fixture).read_text())
        mutate(doc, str(tmp_path / "missing.json"))
        bad = tmp_path / fixture
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, verb, str(bad), "--max-degree", "1", *extra)
        assert code == 2, err
        assert out == ""
        assert message in err
        assert "Traceback" not in err


class TestRelative:
    def test_quotient_mode(self, capsys):
        code, out, _ = run(capsys, "relative", str(FIXTURES / "direct_sum_ses.json"),
                           "--mode", "quotient", "--max-degree", "3")
        assert code == 0
        dims = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert dims == ["1", "0", "1", "0"]

    def test_cokernel_mode(self, capsys):
        code, out, _ = run(capsys, "relative", str(FIXTURES / "direct_sum_ses.json"),
                           "--mode", "cokernel", "--max-degree", "3")
        assert code == 0

    def test_z4_coideal(self, capsys):
        code, out, _ = run(capsys, "relative", str(FIXTURES / "z4_coideal_ses.json"),
                           "--mode", "quotient", "--max-degree", "2")
        # hypotheses for the comparison fail (not a subcoalgebra), exit 1
        assert code == 1
        dims = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert dims == ["1", "0", "1"]

    def test_wrong_document_kind_exit_2(self, capsys):
        code, out, err = run(capsys, "relative", str(FIXTURES / "sweedler_h4.json"))
        assert code == 2
        assert out == ""
        assert "expected a coalgebra short exact sequence document" in err


class TestGroupExample:
    def test_z4_f2(self, capsys):
        code, out, _ = run(capsys, "group-example",
                           "--group", str(FIXTURES / "z4_group.json"),
                           "--normal", "0,2", "--field", "Fp:2", "--max-degree", "4")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        degree_rows = [r for r in rows if r[0].isdigit()]
        hc = [json.loads(r[1])["HC"] for r in degree_rows]
        assert hc == [1, 1, 2, 2, 3]

    def test_z4_rational(self, capsys):
        code, out, _ = run(capsys, "group-example",
                           "--group", str(FIXTURES / "z4_group.json"),
                           "--normal", "0,2", "--max-degree", "4")
        assert code == 0
        degree_rows = [r.split("\t") for r in out.strip().splitlines()
                       if r.split("\t")[0].isdigit()]
        assert [json.loads(r[1])["HC"] for r in degree_rows] == [1, 0, 1, 0, 1]

    def test_document_without_table_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "rows.json"
        doc.write_text(json.dumps({"rows": [[0, 1], [1, 0]]}))
        code, out, err = run(capsys, "group-example", "--group", str(doc), "--normal", "0")
        assert code == 2
        assert out == ""
        assert "expected a group table document (keys table)" in err
        assert "Traceback" not in err

    def test_non_integer_subgroup_exit_2(self, capsys):
        code, out, err = run(capsys, "group-example",
                             "--group", str(FIXTURES / "z4_group.json"), "--normal", "a")
        assert code == 2
        assert out == ""
        assert "--normal: 'a' is not a comma-separated list of integers" in err
        assert "Traceback" not in err

    def test_badly_typed_table_exit_2(self, capsys, tmp_path):
        doc = tmp_path / "letters.json"
        doc.write_text(json.dumps({"table": [["a"]]}))
        code, out, err = run(capsys, "group-example", "--group", str(doc), "--normal", "0")
        assert code == 2
        assert out == ""
        assert "table is not square over element indices" in err
        assert "Traceback" not in err


class TestSpecial:
    def test_additivity(self, capsys):
        code, out, _ = run(capsys, "special", "--kind", "additivity",
                           "--params", str(FIXTURES / "additivity_params.json"),
                           "--max-degree", "2")
        assert code == 0

    def test_commutative_hopf(self, capsys):
        code, out, _ = run(capsys, "special", "--kind", "commutative-hopf",
                           "--params", str(FIXTURES / "commutative_hopf_params.json"),
                           "--max-degree", "3")
        assert code == 0

    def test_cocommutative_hopf(self, capsys):
        code, out, _ = run(capsys, "special", "--kind", "cocommutative-hopf",
                           "--params", str(FIXTURES / "cocommutative_hopf_params.json"),
                           "--max-degree", "3")
        assert code == 0

    def test_wrong_document_kind_exit_2(self, capsys):
        code, out, err = run(capsys, "special", "--kind", "additivity",
                             "--params", str(FIXTURES / "sweedler_h4.json"))
        assert code == 2
        assert out == ""
        assert "expected a --kind additivity parameters document (keys C1, C2)" in err

    def test_badly_typed_subgroup_exit_2(self, capsys, tmp_path):
        table = json.loads((FIXTURES / "z4_group.json").read_text())["table"]
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"table": table, "subgroup": "x"}))
        code, out, err = run(capsys, "special", "--kind", "group-example",
                             "--params", str(params))
        assert code == 2
        assert out == ""
        assert "subgroup must be a list of element indices below 4" in err
        assert "Traceback" not in err


class TestDeterminism:
    def test_byte_identical_json_reports(self, capsys):
        _, out1, _ = run(capsys, "relative", str(FIXTURES / "direct_sum_ses.json"),
                         "--mode", "quotient", "--max-degree", "2", "--json")
        _, out2, _ = run(capsys, "relative", str(FIXTURES / "direct_sum_ses.json"),
                         "--mode", "quotient", "--max-degree", "2", "--json")
        assert out1 == out2

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "excision", str(FIXTURES / "direct_sum_ses.json"),
                        "--max-degree", "1", "--json")
        lines = out.splitlines()
        start = next(i for i, l in enumerate(lines) if l == "{")
        doc = json.loads("\n".join(lines[start:]))
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc


VALID_ARGV = {
    "check": ["check", str(FIXTURES / "sweedler_h4.json")],
    "homology": ["homology", str(FIXTURES / "trivial_triple.json"), "--json"],
    "excision": ["excision", str(FIXTURES / "direct_sum_ses.json")],
    "relative": ["relative", str(FIXTURES / "direct_sum_ses.json")],
    "group-example": ["group-example", "--group", str(FIXTURES / "z4_group.json"),
                      "--normal", "0,2"],
    "special": ["special", "--kind", "additivity",
                "--params", str(FIXTURES / "additivity_params.json")],
}


@pytest.mark.parametrize("verb", sorted(VALID_ARGV))
def test_negative_max_degree_exit_2(capsys, verb):
    code, out, err = run(capsys, *VALID_ARGV[verb], "--max-degree", "-1")
    assert code == 2
    assert out == ""
    assert "--max-degree: -1 is negative" in err


def test_internal_error_exit_3(capsys, monkeypatch):
    # an exception that is not a HopfCyclicError is a bug: exit 3 with its
    # traceback, never a verdict (1) or an input error (2)
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_excision", boom)
    code, out, err = run(capsys, *VALID_ARGV["excision"])
    assert code == 3
    assert out == ""
    assert "Traceback" in err
    assert "RuntimeError: boom" in err
    assert err.rstrip().endswith("internal error")


@pytest.mark.parametrize("where, value", [
    ("input", "5"), ("input", "null"), ("coefficient", "5"), ("coefficient", "null"),
    ("inline coefficient", "5"),  # an inline null is an absent coefficient: eps
])
def test_document_not_an_object_exit_2(capsys, tmp_path, where, value):
    bad = tmp_path / "bad.json"
    bad.write_text(value)
    if where == "input":
        argvs = [["homology", str(bad)], ["excision", str(bad)]]
    elif where == "coefficient":
        argvs = [["homology", str(FIXTURES / "trivial_triple.json"), "--coefficient", str(bad)]]
    else:
        params = json.loads((FIXTURES / "additivity_params.json").read_text())
        params["coefficient"] = json.loads(value)
        bad.write_text(json.dumps(params))
        argvs = [["special", "--kind", "additivity", "--params", str(bad)]]
    for argv in argvs:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "a JSON object" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["additivity", "commutative-hopf", "cocommutative-hopf"])
def test_special_reads_an_inline_coefficient_document(capsys, tmp_path, kind):
    path = FIXTURES / f"{kind.replace('-', '_')}_params.json"
    params = json.loads(path.read_text())
    params["coefficient"] = {"kind": params["coefficient"]}
    inline = tmp_path / "inline.json"
    inline.write_text(json.dumps(params))
    argv = ["special", "--kind", kind, "--max-degree", "2", "--params"]
    assert run(capsys, *argv, str(inline)) == run(capsys, *argv, str(path))


class TestParseInput:
    def test_dispatch_by_shape(self):
        desc = parse_input(str(FIXTURES / "sweedler_h4.json"))
        assert desc.dim == 4
        mc = parse_input(str(FIXTURES / "z2_regular_module_coalgebra.json"))
        assert mc.dim == 2
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        assert ses.quotient.dim == 2

    def test_unknown_document(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(ParseError):
            parse_input(str(p))

    def test_module_coalgebra_with_file_references(self, tmp_path):
        # "over" and "base" may be file paths instead of inline documents
        doc = json.loads((FIXTURES / "z2_regular_module_coalgebra.json").read_text())
        over_path = tmp_path / "over.json"
        over_path.write_text(json.dumps(doc["over"]))
        doc["over"] = str(over_path)
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(doc["base"]))
        doc["base"] = str(base_path)
        mc_path = tmp_path / "mc.json"
        mc_path.write_text(json.dumps(doc))
        mc = parse_input(str(mc_path))
        assert mc.dim == 2

    def test_usage_error_exit_2(self, capsys):
        assert main(["no-such-verb"]) == 2
