"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line with its runtime; the stated time
budgets are asserted as hard bounds.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from hopfcyclic.cli import main, parse_input
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import (
    BialgebraDesc,
    audit,
    find_integral,
    group_algebra,
    sweedler_h4,
)
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    ModuleCoalgebra,
    counit_action,
    direct_sum_module_coalgebras,
    is_projective,
    make_coefficient,
    quotient_ses,
    regular_bicomodule,
    regular_module_coalgebra,
)
from hopfcyclic.complexes import (
    assemble,
    cyclic_total_complex,
    homology,
    induced_complex,
    twisted_ch,
)
from hopfcyclic.errors import IdentityViolation
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    complex_homology,
    invert,
)
from hopfcyclic.theorems import (
    group_homology,
    relative_hc,
    special_checks,
    verify_excision,
)

from groups import cyclic_table, symmetric_table
from lemmas import (
    antipode_inverse,
    doi_check,
    dual_group_algebra,
    relative_bar,
    shear_map,
    trivial_hopf,
    untwist,
)
from randmat import random_invertible

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


@contextmanager
def budget(name, seconds):
    t0 = time.time()
    yield
    dt = time.time() - t0
    print(f"\n[{name}] PASS ({dt:.2f} s, budget {seconds} s)")
    assert dt < seconds, f"{name} exceeded its {seconds} s budget ({dt:.2f} s)"


def hopf_fixtures():
    return [
        ("Q[Z/2]", group_algebra(cyclic_table(2), QQ)),
        ("Q[Z/4]", group_algebra(cyclic_table(4), QQ)),
        ("Q[S_3]", group_algebra(symmetric_table(3), QQ)),
        ("Q[Z/2]^", dual_group_algebra(cyclic_table(2), QQ)),
        ("Q[Z/4]^", dual_group_algebra(cyclic_table(4), QQ)),
        ("H_4(Q)", sweedler_h4(QQ)),
        ("H_4(F_3)", sweedler_h4(GF(3))),
    ]


def mutate(desc, which, i, j, delta):
    """Perturb one structure-constant entry, skipping the construction audit."""
    f = desc.field
    kwargs = dict(mult=desc.mult, comult=desc.comult, unit=desc.unit,
                  counit=desc.counit, antipode=desc.antipode)
    bump = Matrix.from_entries(f, kwargs[which].rows, kwargs[which].cols,
                               [(i, j, delta)])
    kwargs[which] = kwargs[which].add(bump)
    return BialgebraDesc(f, desc.basis, desc.level, check=False, **kwargs)


def test_criterion_01_axiom_suite():
    with budget("criterion 1: axiom suite", 5):
        fixtures = hopf_fixtures()
        for name, desc in fixtures:
            assert audit(desc, "hopf").ok, name
        mutants = []
        for name, desc in fixtures[:5]:
            mutants.append(mutate(desc, "comult", 1, 0, desc.field.one))
            mutants.append(mutate(desc, "mult", 0, 1, desc.field.one))
        assert len(mutants) == 10
        for m in mutants:
            report = audit(m, "hopf")
            assert not report.ok
            assert all(f.witness is not None for f in report.failures())


def test_criterion_02_antipode():
    with budget("criterion 2: antipode", 1):
        h4 = sweedler_h4(QQ)
        S = h4.antipode
        S2 = S.mul(S)
        S3 = S2.mul(S)
        assert S2.mul(S2) == Matrix.identity(QQ, 4)          # S^4 = id
        assert S2 != Matrix.identity(QQ, 4)                   # S^2 != id
        assert antipode_inverse(h4).antipode_inv == S3        # S^{-1} = S^3
        for table in (cyclic_table(2), cyclic_table(4), symmetric_table(3)):
            b = group_algebra(table, QQ)
            assert antipode_inverse(b).antipode_inv == b.antipode


def test_criterion_03_integrals():
    with budget("criterion 3: integrals", 5):
        from fractions import Fraction

        for table in (cyclic_table(2), cyclic_table(3), cyclic_table(4),
                      symmetric_table(3)):
            b = group_algebra(table, QQ)
            sigma = find_integral(b, "cointegral")
            n = b.dim
            assert sigma is not None
            assert sigma.col(0) == {i: Fraction(1, n) for i in range(n)}
        assert find_integral(group_algebra(cyclic_table(2), GF(2)), "cointegral") is None
        assert find_integral(group_algebra(cyclic_table(4), GF(2)), "cointegral") is None
        assert find_integral(group_algebra(cyclic_table(3), GF(3)), "cointegral") is None
        assert find_integral(group_algebra(symmetric_table(3), GF(3)), "cointegral") is None
        fixtures = [b for _, b in hopf_fixtures()] + [
            group_algebra(cyclic_table(2), GF(2)),
            group_algebra(cyclic_table(4), GF(2)),
            group_algebra(cyclic_table(3), GF(2)),
        ]
        for b in fixtures:
            has = find_integral(b, "cointegral") is not None
            proj = is_projective(b, counit_action(b, 1), 1)
            assert proj == has


def test_criterion_04_sayd_examples():
    with budget("criterion 4: SaYD examples", 5):
        for name, b in hopf_fixtures():
            for kind in ("r_ad", "ad_r"):
                X = make_coefficient(kind, b)
                assert X.stable, (name, kind)
                assert X.ayd, (name, kind)


def test_criterion_05_theorem_ayd():
    with budget("criterion 5: descent of the twisted differential", 60):
        triples = []
        for table in (cyclic_table(2), cyclic_table(4)):
            b = group_algebra(table, QQ)
            triples.append((b, "r_ad"))
            triples.append((b, "ad_r"))
        triples.append((sweedler_h4(QQ), "r_ad"))
        for b, kind in triples:
            C = regular_module_coalgebra(b)
            X = make_coefficient(kind, b)
            T = twisted_ch(C, regular_bicomodule(C), X, 5)
            ic = induced_complex(T)  # every coface descends, degrees <= 4
            assert len(ic.complex.dims) == 6  # d^2 = 0 on the descended complex
        # refusal on a stable-but-not-aYD coefficient: the last coface out of
        # degree 0 does not descend, exactly
        h4 = sweedler_h4(QQ)
        C = regular_module_coalgebra(h4)
        X = make_coefficient("eps", h4)
        assert X.stable and not X.ayd
        T = twisted_ch(C, regular_bicomodule(C), X, 2)
        with pytest.raises(IdentityViolation, match="coface d_1 well-defined on the quotient") as exc:
            induced_complex(T)
        assert exc.value.degree == 0


def test_criterion_06_doi():
    with budget("criterion 6: cotensor comparison isomorphism", 60):
        for b in (group_algebra(cyclic_table(2), QQ),
                  group_algebra(cyclic_table(4), QQ),
                  sweedler_h4(QQ)):
            assert doi_check(b, (b.dim, b.comult, b.comult), 3)


def test_criterion_07_shear_untwist():
    with budget("criterion 7: shear and trivialization maps", 10):
        for name, b in hopf_fixtures():
            for n in range(1, 5):
                shear_map(n, b)  # mutual inverses + intertwining verified inside
            phi, psi = untwist(b, (b.dim, b.mult), (b.dim, b.mult))
            assert phi.mul(psi) == Matrix.identity(b.field, phi.rows)
            assert psi.mul(phi) == Matrix.identity(b.field, psi.rows)


def test_criterion_08_relative_bar_acyclic():
    with budget("criterion 8: two-sided relative bar complex", 30):
        b = group_algebra(cyclic_table(2), QQ)
        C1 = regular_module_coalgebra(b)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        cx, _ = relative_bar(ses, 3)
        assert complex_homology(cx, 3) == [0, 0, 0, 0]


def test_criterion_09_excision():
    with budget("criterion 9: excision with intermediate equivalences", 120):
        b = group_algebra(cyclic_table(2), QQ)
        C1 = regular_module_coalgebra(b)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("eps", b)
        rep = verify_excision(ses, X, "coalgebra", 3)
        assert rep.all_pass
        assert rep.hypothesis(
            "weak equivalence CH(C, C/K; X) -> CH(C/K; X)").verdict == "PASS"
        assert rep.hypothesis(
            "weak equivalence CH(K; X) -> CH(C, K; X)").verdict == "PASS"

        f2 = GF(2)
        b2 = group_algebra(cyclic_table(2), f2)
        C1 = regular_module_coalgebra(b2)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(f2, 4, 2, [(0, 0, f2.one), (1, 1, f2.one)])
        ses2 = quotient_ses(C, K, "subcoalgebra")
        X2 = make_coefficient("eps", b2)
        rep2 = verify_excision(ses2, X2, "coalgebra", 3)
        assert rep2.hypothesis("coefficient projective over B").verdict == "FAIL"
        assert all(d.verdict == "UNVERIFIED" for d in rep2.degrees)


def test_criterion_10_additivity():
    with budget("criterion 10: additivity of cyclic dimensions", 60):
        b = group_algebra(cyclic_table(2), QQ)
        X = make_coefficient("eps", b)
        C1 = regular_module_coalgebra(b)
        C2 = direct_sum_module_coalgebras(C1, C1)
        for pair in ((C1, C1), (C1, C2)):
            rep = special_checks("additivity", {"C1": pair[0], "C2": pair[1], "X": X}, 3)
            assert rep.all_pass


def test_criterion_11_relative_equivalence():
    with budget("criterion 11: two relative constructions agree", 60):
        b = group_algebra(cyclic_table(2), QQ)
        C1 = regular_module_coalgebra(b)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
        X = make_coefficient("eps", b)
        d_cok, rep_cok = relative_hc(C, K, X, "cokernel", 3)
        d_quo, rep_quo = relative_hc(C, K, X, "quotient", 3)
        assert d_cok == d_quo
        assert all(d.verdict == "PASS" for d in rep_cok.degrees)
        assert all(d.verdict == "PASS" for d in rep_quo.degrees)


def test_criterion_12_group_example():
    with budget("criterion 12: discrete-group example vs oracle", 120):
        rep = special_checks(
            "group_example",
            {"table": cyclic_table(4), "subgroup": [0, 2], "field": GF(2)}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 1, 2, 2, 3]

        rep = special_checks(
            "group_example",
            {"table": cyclic_table(4), "subgroup": [0, 2], "field": QQ}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]

        for field in (QQ, GF(3)):  # fields carrying the co-integral of k[Z/4]
            rep = special_checks(
                "group_example",
                {"table": cyclic_table(4), "subgroup": [0, 1, 2, 3], "field": field}, 4)
            assert rep.all_pass
            assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]


def test_criterion_13_trivial_triple():
    with budget("criterion 13: trivial triple point values", 1):
        k = trivial_hopf(QQ)
        X = make_coefficient("eps", k)
        cm = assemble("coalgebra", regular_module_coalgebra(k), X, 5)
        assert homology(cm, "cyclic", 4) == [1, 0, 1, 0, 1]
        assert homology(cm, "hochschild", 4) == [1, 0, 0, 0, 0]


def test_criterion_14_basis_independence():
    with budget("criterion 14: basis independence of homology", 120):
        rng = random.Random(2024)

        def conjugate(cx, gs):
            diffs = {}
            for n, d in cx.diffs.items():
                tgt = n + cx.orientation
                diffs[n] = gs[tgt].mul(d).mul(invert(gs[n]))
            return GradedComplex(cx.field, cx.orientation, cx.dims, diffs)

        fixture_complexes = []
        k = trivial_hopf(QQ)
        Xk = make_coefficient("eps", k)
        fixture_complexes.append(cyclic_total_complex(
            assemble("coalgebra", regular_module_coalgebra(k), Xk, 5), 5))
        b = group_algebra(cyclic_table(2), QQ)
        Xb = make_coefficient("eps", b)
        fixture_complexes.append(cyclic_total_complex(
            assemble("coalgebra", regular_module_coalgebra(b), Xb, 4), 4))
        A = ComoduleAlgebra(b, b, b.comult)
        fixture_complexes.append(cyclic_total_complex(
            assemble("algebra", A, Xb, 4), 4))
        from hopfcyclic.complexes import bar_complex

        fixture_complexes.append(bar_complex(b, 4))
        b2 = group_algebra(cyclic_table(2), GF(2))
        A2 = ComoduleAlgebra(b2, b2, b2.comult)
        fixture_complexes.append(cyclic_total_complex(
            assemble("algebra", A2, make_coefficient("eps", b2), 4), 4))

        for cx in fixture_complexes:
            base = complex_homology(cx, cx.max_valid_degree)
            for _ in range(5):
                gs = [random_invertible(cx.field, d, rng) for d in cx.dims]
                conj = conjugate(cx, gs)
                assert complex_homology(conj, cx.max_valid_degree) == base


def relabel_coalgebra_ses(doc, p):
    """A coalgebra SES document with basis vector i of C renamed p[i].

    The basis names, comultiplication, counit and B-action of C and the
    rows of K move together, so the document describes the same SES.
    """
    base = doc["C"]["base"]
    basis, counit = list(base["basis"]), list(base["counit"])
    for i in range(len(p)):
        basis[p[i]], counit[p[i]] = base["basis"][i], base["counit"][i]
    comult = [[p[i], p[j], p[k], v] for i, j, k, v in base["comult"]]
    action = [[b, p[c], p[c2], v] for b, c, c2, v in doc["C"]["action"]]
    K = dict(doc["K"], entries=[[p[i], j, v] for i, j, v in doc["K"]["entries"]])
    C = dict(doc["C"], base=dict(base, basis=basis, counit=counit, comult=comult),
             action=action)
    return dict(doc, C=C, K=K)


def test_criterion_14_basis_independence_of_excision(tmp_path, capsys):
    with budget("criterion 14: basis independence of excision", 30):
        fixture = FIXTURES / "direct_sum_ses.json"
        doc = json.loads(fixture.read_text())

        def report(path):
            code = main(["excision", str(path), "--max-degree", "2", "--json"])
            assert code == 0
            return capsys.readouterr().out

        base = report(fixture)
        rng = random.Random(14)
        perms = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
        for k, p in enumerate(rng.sample(perms, 3)):
            path = tmp_path / f"relabelled_{k}.json"
            path.write_text(json.dumps(relabel_coalgebra_ses(doc, p)))
            assert report(path) == base, p


def test_criterion_14_basis_independence_of_relative(tmp_path, capsys):
    with budget("criterion 14: basis independence of relative cyclic homology", 30):
        fixture = FIXTURES / "direct_sum_ses.json"
        doc = json.loads(fixture.read_text())

        def report(path):
            code = main(["relative", str(path), "--mode", "cokernel", "--max-degree", "2",
                         "--json"])
            assert code == 0
            return capsys.readouterr().out

        base = report(fixture)
        rng = random.Random(1415)
        perms = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
        for k, p in enumerate(rng.sample(perms, 3)):
            path = tmp_path / f"relabelled_{k}.json"
            path.write_text(json.dumps(relabel_coalgebra_ses(doc, p)))
            assert report(path) == base, p


def relabel_algebra_ses(doc, p):
    """An algebra SES document with basis vector i of A renamed p[i].

    The basis names, multiplication, unit and B-coaction of A and the rows
    of the ideal generators move together, so the document describes the
    same SES. The free rows of every cotensor inclusion move with them.
    """
    a_doc = doc["A"]
    base = a_doc["base"]
    d = len(a_doc["over"]["basis"])
    basis, unit = list(base["basis"]), list(base["unit"])
    for i in range(len(p)):
        basis[p[i]], unit[p[i]] = base["basis"][i], base["unit"][i]
    mult = [[p[i], p[j], p[k], v] for i, j, k, v in base["mult"]]
    coaction = dict(a_doc["coaction"], entries=[
        [p[r // d] * d + r % d, p[c], v] for r, c, v in a_doc["coaction"]["entries"]])
    ideal = dict(doc["ideal"], entries=[[p[i], j, v] for i, j, v in doc["ideal"]["entries"]])
    A = dict(a_doc, base=dict(base, basis=basis, unit=unit, mult=mult), coaction=coaction)
    return dict(doc, A=A, ideal=ideal)


@pytest.mark.parametrize("field", ["Q", "Fp:2"])
def test_criterion_14_basis_independence_of_algebra_excision(tmp_path, capsys, field):
    with budget(f"criterion 14: basis independence of algebra excision over {field}", 30):
        fixture = FIXTURES / "z2_product_algebra_ses.json"
        doc = json.loads(fixture.read_text())

        def report(path):
            code = main(["excision", str(path), "--side", "algebra", "--field", field,
                         "--max-degree", "3", "--json"])
            assert code == 0
            return capsys.readouterr().out

        base = report(fixture)
        rng = random.Random(1414)
        perms = [p for p in itertools.permutations(range(4)) if p != (0, 1, 2, 3)]
        for k, p in enumerate(rng.sample(perms, 3)):
            path = tmp_path / f"relabelled_{k}.json"
            path.write_text(json.dumps(relabel_algebra_ses(doc, p)))
            assert report(path) == base, p


def test_degree_ceiling_algebra_excision_f2():
    with budget("degree ceiling: algebra-side excision at degree 4 over F_2", 0.3):
        ses = parse_input(str(FIXTURES / "z2_product_algebra_ses.json"), "Fp:2")
        X = make_coefficient("eps", ses.A.over)
        rep = verify_excision(ses, X, "algebra", 4)
        assert rep.all_pass
        assert [d.n for d in rep.degrees] == [0, 1, 2, 3, 4]
        for d in rep.degrees:
            assert d.dims["A"] == d.dims["I"] + d.dims["A/I"], d.n


# Each script is run by a fresh interpreter, so that neither its time nor
# its peak RSS depends on what ran before it. Its own peak is VmHWM:
# ru_maxrss also counts the RSS of the process that started it, which a
# long test session makes the larger.
PEAK_RSS_MB = """
import re

def peak_rss_mb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1)) / 1024
"""

CEILING_CHILD = PEAK_RSS_MB + """
import json, sys, time
from hopfcyclic.cli import parse_input
from hopfcyclic.equivariant import make_coefficient
from hopfcyclic.theorems import verify_excision

path, side, field, degree = sys.argv[1:]
t0 = time.time()
ses = parse_input(path, field)
X = make_coefficient("eps", (ses.C if side == "coalgebra" else ses.A).over)
rep = verify_excision(ses, X, side, int(degree))
seconds = time.time() - t0
print(json.dumps({"seconds": seconds, "all_pass": rep.all_pass, "peak_rss_mb": peak_rss_mb(),
                  "degrees": [d.n for d in rep.degrees], "dims": [d.dims for d in rep.degrees]}))
"""

HOMOLOGY_CHILD = PEAK_RSS_MB + """
import contextlib, io, json, sys, time
from hopfcyclic.cli import main

t0 = time.time()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:] + ["--json"])
seconds = time.time() - t0
text = out.getvalue()
print(json.dumps({"seconds": seconds, "code": code, "peak_rss_mb": peak_rss_mb(),
                  "report": json.loads(text[text.index("{"):])}))
"""


def child_run(name, seconds, megabytes, script, *args):
    """``script`` run with ``args`` by a fresh interpreter within its budgets: its JSON line."""
    src = str(FIXTURES.parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert child.returncode == 0, child.stderr
    run = json.loads(child.stdout)
    print(f"\n[{name}] PASS ({run['seconds']:.2f} s, budget {seconds} s; "
          f"peak RSS {run['peak_rss_mb']:.0f} MB, bound {megabytes} MB)")
    assert run["seconds"] < seconds, (
        f"{name} exceeded its {seconds} s budget ({run['seconds']:.2f} s)")
    assert run["peak_rss_mb"] < megabytes, (
        f"{name} exceeded its {megabytes} MB bound ({run['peak_rss_mb']:.0f} MB)")
    return run


def ceiling_run(name, seconds, megabytes, fixture, side, field, degree):
    """Excision of ``fixture`` at ``degree`` in a child process, within its budgets."""
    run = child_run(name, seconds, megabytes, CEILING_CHILD, str(FIXTURES / fixture), side,
                    field, str(degree))
    assert run["all_pass"]
    assert run["degrees"] == list(range(degree + 1))
    return run["dims"]


def test_degree_ceiling_coalgebra_excision():
    # 1.5x the slowest of 19 child readings, 1.81-1.97 s alone and 1.10-1.84 s
    # beside one or two CPU-bound processes, and of their peaks, 70.9-71.3 MB
    dims = ceiling_run("degree ceiling: coalgebra-side excision at degree 5 over Q", 3.0, 107,
                       "direct_sum_ses.json", "coalgebra", "Q", 5)
    for n, d in enumerate(dims):
        assert d["C"] == d["K"] + d["C/K"], n


def test_degree_ceiling_algebra_excision():
    # CM(I) and CM(A) through degree 6, CM(A/I) through 7, as deep as the
    # triple complex and their own homology read them
    dims = ceiling_run("degree ceiling: algebra-side excision at degree 5 over F_2", 1.6, 56,
                       "z2_product_algebra_ses.json", "algebra", "Fp:2", 5)
    for n, d in enumerate(dims):
        assert d["A"] == d["I"] + d["A/I"], n


def test_degree_ceiling_sweedler_cyclic_homology():
    # the model through degree 6: its largest cofaces, the 7 out of degree
    # 5, are built once, checked and let go once b is formed and the last
    # kept, and tau through degree 5 only; Connes' complex on the free rows
    # of the normalized cochains gives the dims. 1.5x the slowest of 21
    # child readings, 0.25-0.50 s alone and 0.33-0.50 s beside one
    # CPU-bound process, and of their peaks, 40.0-40.4 MB
    run = child_run("degree ceiling: Sweedler cyclic homology at degree 5 over Q", 0.76, 61,
                    HOMOLOGY_CHILD, "homology",
                    str(FIXTURES / "sweedler_h4_regular_module_coalgebra.json"),
                    "--coefficient", "r_ad", "--theory", "cyclic", "--max-degree", "5")
    assert run["code"] == 0
    assert run["report"]["dims"] == [2, 1, 2, 1, 2, 1]
