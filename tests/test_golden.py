"""Golden reports: every CLI example in README.md, byte for byte.

Each ``tests/golden/<name>.txt`` holds the standard output (table and
``--json`` report) of one README example. A change that moves a single
number, verdict, window or key in any of them fails here.
"""

from pathlib import Path

import pytest

from hopfcyclic.cli import main

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "golden"
F = "src/hopfcyclic/fixtures"

# name -> (argv as in README.md, expected exit code)
EXAMPLES = {
    "check_sweedler_h4": (["check", f"{F}/sweedler_h4.json"], 0),
    "homology_trivial_triple": (
        ["homology", f"{F}/trivial_triple.json", "--theory", "cyclic", "--max-degree", "4"], 0),
    "homology_sweedler_r_ad": (
        ["homology", f"{F}/sweedler_h4_regular_module_coalgebra.json", "--coefficient", "r_ad",
         "--theory", "cyclic", "--max-degree", "3"], 0),
    "excision_direct_sum": (["excision", f"{F}/direct_sum_ses.json", "--max-degree", "3"], 0),
    "excision_direct_sum_f2": (
        ["excision", f"{F}/direct_sum_ses.json", "--max-degree", "3", "--field", "Fp:2"], 1),
    "excision_algebra_z2_product": (
        ["excision", f"{F}/z2_product_algebra_ses.json", "--side", "algebra",
         "--max-degree", "3"], 0),
    "relative_cokernel": (
        ["relative", f"{F}/direct_sum_ses.json", "--mode", "cokernel", "--max-degree", "3"], 0),
    "relative_quotient": (
        ["relative", f"{F}/z4_coideal_ses.json", "--mode", "quotient", "--max-degree", "3"], 1),
    "group_example_z4": (
        ["group-example", "--group", f"{F}/z4_group.json", "--normal", "0,2",
         "--field", "Fp:2"], 0),
    "special_additivity": (
        ["special", "--kind", "additivity", "--params", f"{F}/additivity_params.json"], 0),
    "special_commutative": (
        ["special", "--kind", "commutative-hopf", "--params",
         f"{F}/commutative_hopf_params.json"], 0),
    "special_cocommutative": (
        ["special", "--kind", "cocommutative-hopf", "--params",
         f"{F}/cocommutative_hopf_params.json"], 0),
}


def test_every_readme_example_has_a_golden_report():
    readme = (ROOT / "README.md").read_text()
    commands = [line.split(None, 1)[1].replace("$F", F) for line in readme.splitlines()
                if line.startswith("hopfcyclic ")]
    assert sorted(commands) == sorted(" ".join(argv) for argv, _ in EXAMPLES.values())
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(EXAMPLES)


@pytest.mark.parametrize("name", list(EXAMPLES))
def test_report_matches_golden(name, capsys, monkeypatch):
    argv, exit_code = EXAMPLES[name]
    monkeypatch.chdir(ROOT)
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.txt").read_text()
    assert code == exit_code
