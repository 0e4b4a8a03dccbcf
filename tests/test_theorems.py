from pathlib import Path

import pytest

from hopfcyclic import complexes, equivariant, theorems
from hopfcyclic.cli import parse_input
from hopfcyclic.errors import DegreeOutOfRange, NotAGroup, NotBStable, OrientationMismatch
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import BialgebraDesc, group_algebra
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    counit_action,
    direct_sum_module_coalgebras,
    make_coefficient,
    quotient_ses,
    regular_module_coalgebra,
)
from hopfcyclic.linalg import GradedComplex, Matrix, QuotientSpace, complex_homology
from hopfcyclic.theorems import (
    AlgebraSES,
    ChainMap,
    TheoremReport,
    cone_quasi_iso,
    cofibration_verdicts,
    coset_table,
    group_homology,
    h_unitality_probe,
    mapping_cone,
    relative_hc,
    special_checks,
    verify_excision,
    _two_sided_ideal_closure,
)

from groups import cyclic_table, dihedral_table, symmetric_table

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


def flat(field, dims):
    """Complex with zero differentials (homology = dims)."""
    diffs = {n: Matrix.zero(field, dims[n + 1], dims[n]) for n in range(len(dims) - 1)}
    return GradedComplex(field, +1, dims, diffs)


class TestCones:
    def test_identity_cone_acyclic(self):
        cx = flat(QQ, [1, 1, 1])
        ident = ChainMap(cx, cx, {n: Matrix.identity(QQ, 1) for n in range(3)})
        cone, ok = cone_quasi_iso(ident, 0)
        assert ok == [True]
        assert complex_homology(cone, cone.max_valid_degree) == [0] * (cone.max_valid_degree + 1)

    def test_zero_map_from_acyclic_source(self):
        acyclic = GradedComplex(QQ, +1, [1, 1, 0],
                                {0: Matrix.identity(QQ, 1), 1: Matrix.zero(QQ, 0, 1)})
        target = flat(QQ, [1, 1, 1])
        zero_map = ChainMap(acyclic, target,
                            {n: Matrix.zero(QQ, target.dims[n], acyclic.dims[n])
                             for n in range(3)})
        _, ok = cone_quasi_iso(zero_map, 0)
        # target has homology k in degree 0, source none: not a quasi-iso
        assert ok == [False]

    def test_dimension_mismatch_not_quasi_iso(self):
        src = flat(QQ, [1, 0, 0])
        tgt = flat(QQ, [2, 0, 0])
        f = ChainMap(src, tgt, {0: Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)]),
                                1: Matrix.zero(QQ, 0, 0), 2: Matrix.zero(QQ, 0, 0)})
        cone, ok = cone_quasi_iso(f, 0)
        assert ok == [False]

    def test_orientation_mismatch(self):
        up = GradedComplex(QQ, +1, [1, 1], {0: Matrix.zero(QQ, 1, 1)})
        down = GradedComplex(QQ, -1, [1, 1], {1: Matrix.zero(QQ, 1, 1)})
        with pytest.raises(OrientationMismatch):
            ChainMap(up, down, {})

    def test_window_out_of_range(self):
        cx = flat(QQ, [1, 1, 1])
        ident = ChainMap(cx, cx, {n: Matrix.identity(QQ, 1) for n in range(3)})
        with pytest.raises(DegreeOutOfRange):
            cone_quasi_iso(ident, 5)


class TestGroupHomologyOracle:
    def test_z2_mod_2(self):
        assert group_homology(cyclic_table(2), GF(2), 4) == [1, 1, 1, 1, 1]

    def test_z2_rational(self):
        assert group_homology(cyclic_table(2), QQ, 4) == [1, 0, 0, 0, 0]

    def test_z4_mod_2(self):
        assert group_homology(cyclic_table(4), GF(2), 4) == [1, 1, 1, 1, 1]

    def test_z3_mod_3(self):
        assert group_homology(cyclic_table(3), GF(3), 3) == [1, 1, 1, 1]

    def test_degree_zero_always_one(self):
        for table in (cyclic_table(2), cyclic_table(4), symmetric_table(3)):
            for field in (QQ, GF(2), GF(5)):
                assert group_homology(table, field, 0) == [1]

    def test_s3_rational(self):
        assert group_homology(symmetric_table(3), QQ, 3) == [1, 0, 0, 0]

    def test_invalid_table(self):
        with pytest.raises(NotAGroup):
            group_homology([[0, 1], [1, 1]], QQ, 2)


class TestCosetTable:
    def test_z4_mod_2(self):
        qt, _ = coset_table(cyclic_table(4), [0, 2])
        assert qt == cyclic_table(2)

    def test_not_normal_rejected(self):
        # the order-2 subgroup generated by a transposition is not normal in S_3
        table = symmetric_table(3)
        # find a transposition: an element of order 2
        ident = 0
        for i in range(6):
            if i != ident and table[i][i] == ident:
                sub = [ident, i]
                break
        with pytest.raises(NotAGroup):
            coset_table(table, sub)

    def test_dihedral_center(self):
        table = dihedral_table(4)
        # the center of D_4 is {e, r^2}: rotation index 2 with s = 0
        qt, _ = coset_table(table, [0, 2])
        assert len(qt) == 4


class TestExcisionCoalgebra:
    def test_direct_sum_over_q_passes(self, direct_sum_ses_q, k_eps_z2):
        rep = verify_excision(direct_sum_ses_q, k_eps_z2, "coalgebra", 2)
        assert rep.all_pass
        assert rep.hypothesis("coefficient projective over B").verdict == "PASS"

    def test_direct_sum_over_f2_unasserted(self):
        f2 = GF(2)
        B = group_algebra(cyclic_table(2), f2)
        C1 = regular_module_coalgebra(B)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(f2, 4, 2, [(0, 0, f2.one), (1, 1, f2.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("eps", B)
        rep = verify_excision(ses, X, "coalgebra", 2)
        assert rep.hypothesis("coefficient projective over B").verdict == "FAIL"
        assert rep.hypothesis(
            "coefficient has finite projective dimension").verdict == "UNVERIFIED"
        assert all(d.verdict == "UNVERIFIED" for d in rep.degrees)

    def test_each_complex_built_once(self, monkeypatch):
        # CH(C, C/K), CH(C/K), CH(K), CH(C, K) and CH(C): five distinct
        # complexes, each built once at the deepest depth any consumer needs
        depths = []
        real = complexes.twisted_ch

        def counted(C, M, X, maxdeg, check=True):
            depths.append(maxdeg)
            return real(C, M, X, maxdeg, check)

        monkeypatch.setattr(complexes, "twisted_ch", counted)
        monkeypatch.setattr(theorems, "twisted_ch", counted)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        rep = verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)
        assert rep.all_pass
        assert sorted(depths) == [3, 3, 3, 3, 4]

    def test_each_coface_and_map_induced_once(self, monkeypatch):
        # every coface of the five complexes, every cyclic operator and every
        # component of f1, f2, g1, g2, u and v is checked and induced exactly
        # once: the cyclic-level u and v reuse the Hochschild-level components
        induced, checked = [], []
        real_induce, real_check = QuotientSpace.induce, complexes.map_well_defined

        def induce(self, other, amb):
            induced.append(amb)
            return real_induce(self, other, amb)

        def check(amb, src, dst):
            checked.append(amb)
            return real_check(amb, src, dst)

        monkeypatch.setattr(QuotientSpace, "induce", induce)
        monkeypatch.setattr(complexes, "map_well_defined", check)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        rep = verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)
        assert rep.all_pass
        # CH(C, C/K), CH(C/K), CH(C, K) and CH(C) through degree 3, CH(K) through 4
        cofaces = sum(n + 2 for top in (3, 3, 3, 3, 4) for n in range(top))
        taus = 5 + 4 + 3  # cyclic modules of K, C and C/K through degrees 4, 3, 2
        maps = 6 * 4  # six maps, components in degrees 0..3
        assert len(induced) == len(checked) == cofaces + taus + maps

    def test_sweedler_sayd_coefficient_full_pipeline(self, h4_q):
        # non-cocommutative base with the co-adjoint SaYD coefficient: the
        # checklist exercises the aYD flag and every verdict certifies
        C1 = regular_module_coalgebra(h4_q)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 8, 4, [(i, i, QQ.one) for i in range(4)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("r_ad", h4_q)
        rep = verify_excision(ses, X, "coalgebra", 1)
        assert rep.hypothesis("coefficient anti-Yetter-Drinfeld").verdict == "PASS"
        assert rep.all_pass

    def test_classical_coalgebra_excision_b_trivial(self, k_q):
        # B = k: the theorem reduces to coalgebra excision
        from hopfcyclic.equivariant import eps_module_coalgebra

        z2 = group_algebra(cyclic_table(2), QQ)
        C1 = eps_module_coalgebra(z2, k_q)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("eps", k_q)
        rep = verify_excision(ses, X, "coalgebra", 2)
        assert rep.all_pass


class TestExcisionAlgebra:
    @pytest.fixture()
    def split_algebra_ses(self, k_q):
        f = QQ
        mult = Matrix.from_entries(f, 2, 4, [(0, 0, f.one), (1, 3, f.one)])
        unit = Matrix.from_entries(f, 2, 1, [(0, 0, f.one), (1, 0, f.one)])
        A_desc = BialgebraDesc(f, ["p", "q"], "algebra", mult=mult, unit=unit)
        A = ComoduleAlgebra(A_desc, k_q, Matrix.identity(f, 2))
        return AlgebraSES(A, Matrix.from_entries(f, 2, 1, [(0, 0, f.one)]))

    def test_classical_algebra_excision(self, split_algebra_ses, k_q):
        X = make_coefficient("eps", k_q)
        rep = verify_excision(split_algebra_ses, X, "algebra", 3)
        assert rep.all_pass
        d0 = rep.degrees[0].dims
        assert d0 == {"I": 1, "A": 2, "A/I": 1}

    def test_product_algebra_over_group_algebra(self, z2_q):
        from hopfcyclic.equivariant import (
            direct_sum_comodule_algebras,
            regular_comodule_algebra,
        )

        A1 = regular_comodule_algebra(z2_q)
        A = direct_sum_comodule_algebras(A1, A1)
        ses = AlgebraSES(A, Matrix.from_entries(QQ, 4, 2,
                                                [(0, 0, QQ.one), (1, 1, QQ.one)]))
        X = make_coefficient("eps", z2_q)
        rep = verify_excision(ses, X, "algebra", 3)
        assert rep.all_pass
        assert rep.hypothesis("I and A co-projective over B").verdict == "PASS"

    def test_non_subcomodule_ideal_rejected(self, z4_q):
        # the ideal generated by g^2 - e in k[Z/4] is not a right subcomodule,
        # so the quotient coaction is representative-dependent
        from hopfcyclic.errors import ShapeMismatch
        from hopfcyclic.equivariant import regular_comodule_algebra

        A = regular_comodule_algebra(z4_q)
        gens = Matrix.from_entries(QQ, 4, 1, [(2, 0, QQ.one), (0, 0, QQ.from_int(-1))])
        with pytest.raises(ShapeMismatch):
            AlgebraSES(A, gens)

    def test_h_unitality_probe(self, z2_q):
        # the group algebra is unital, hence H-unital
        assert h_unitality_probe(z2_q, 3) == [0, 0, 0]


class TestRelative:
    def test_modes_agree_on_direct_sum(self, direct_sum_ses_q, z2_q, k_eps_z2):
        C = direct_sum_ses_q.C
        K = direct_sum_ses_q.K
        d_cok, rep_cok = relative_hc(C, K, k_eps_z2, "cokernel", 3)
        d_quo, rep_quo = relative_hc(C, K, k_eps_z2, "quotient", 3)
        assert d_cok == d_quo == [1, 0, 1, 0]
        assert all(d.verdict == "PASS" for d in rep_cok.degrees)
        assert all(d.verdict == "PASS" for d in rep_quo.degrees)

    def test_z4_coideal_quotient_mode(self, z4_q):
        C = regular_module_coalgebra(z4_q)
        K = Matrix.from_entries(
            QQ, 4, 2,
            [(0, 0, QQ.one), (2, 0, QQ.from_int(-1)),
             (1, 1, QQ.one), (3, 1, QQ.from_int(-1))])
        X = make_coefficient("eps", z4_q)
        dims, rep = relative_hc(C, K, X, "quotient", 3)
        # the quotient triple is Q[Z/2] over Q[Z/4]
        assert dims == [1, 0, 1, 0]
        assert any("subcoalgebra" in h.name and h.verdict == "FAIL"
                   for h in rep.hypotheses)

    def test_other_errors_do_not_turn_into_coideal_mode(self, direct_sum_ses_q, k_eps_z2,
                                                        monkeypatch):
        # only NotSubcoalgebra selects the coideal formulation; any other
        # error raised while building the sequence propagates
        modes = []

        def failing(C, K_gens, mode):
            modes.append(mode)
            raise NotBStable("raised inside quotient_ses")

        monkeypatch.setattr(equivariant, "quotient_ses", failing)
        with pytest.raises(NotBStable, match="inside quotient_ses"):
            relative_hc(direct_sum_ses_q.C, direct_sum_ses_q.K, k_eps_z2, "quotient", 1)
        assert modes == ["subcoalgebra"]

    def test_k_equals_c_cokernel_vanishes(self, z2_q, k_eps_z2):
        C = regular_module_coalgebra(z2_q)
        K = Matrix.identity(QQ, 2)
        dims, _ = relative_hc(C, K, k_eps_z2, "cokernel", 3)
        assert dims == [0, 0, 0, 0]


class TestSpecialChecks:
    def test_additivity_two_pairs(self, z2_q, k_eps_z2):
        C1 = regular_module_coalgebra(z2_q)
        C2 = direct_sum_module_coalgebras(C1, C1)
        for pair in ((C1, C1), (C1, C2)):
            rep = special_checks("additivity", {"C1": pair[0], "C2": pair[1],
                                                "X": k_eps_z2}, 3)
            assert rep.all_pass

    def test_commutative_hopf(self, z2_q, k_eps_z2):
        J = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one), (1, 0, QQ.from_int(-1))])
        rep = special_checks("commutative_hopf", {"B": z2_q, "J": J, "X": k_eps_z2}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]

    def test_cocommutative_hopf(self, z4_q):
        K = _two_sided_ideal_closure(
            z4_q, Matrix.from_entries(QQ, 4, 1, [(2, 0, QQ.one), (0, 0, QQ.from_int(-1))]))
        X = make_coefficient("eps", z4_q)
        rep = special_checks("cocommutative_hopf", {"B": z4_q, "K": K, "X": X}, 4)
        assert rep.all_pass

    def test_group_example_z4_f2(self):
        rep = special_checks(
            "group_example",
            {"table": cyclic_table(4), "subgroup": [0, 2], "field": GF(2)}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 1, 2, 2, 3]

    def test_group_example_z4_rational(self):
        rep = special_checks(
            "group_example",
            {"table": cyclic_table(4), "subgroup": [0, 2], "field": QQ}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]

    def test_group_example_full_subgroup(self):
        # H = G quotients to the trivial group: the point values appear
        rep = special_checks(
            "group_example",
            {"table": cyclic_table(4), "subgroup": [0, 1, 2, 3], "field": QQ}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]

    def test_group_example_d4_center(self):
        rep = special_checks(
            "group_example",
            {"table": dihedral_table(4), "subgroup": [0, 2], "field": QQ}, 3)
        assert rep.all_pass


class TestReportSerialization:
    def test_report_json_round_trip(self, direct_sum_ses_q, k_eps_z2):
        import json

        rep = verify_excision(direct_sum_ses_q, k_eps_z2, "coalgebra", 1)
        doc = json.loads(rep.json_str())
        assert doc["theorem"] == "excision/coalgebra"
        assert {h["name"] for h in doc["hypotheses"]} >= {"antipode invertible"}
        assert all("verdict" in d for d in doc["degrees"])
