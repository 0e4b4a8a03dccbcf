from fractions import Fraction

import pytest

from hopfcyclic import complexes, equivariant
from hopfcyclic.errors import (
    AuditFailed,
    MissingAntipodeInverse,
    NotBStable,
    NotCoideal,
    NotSubcoalgebra,
)
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import BialgebraDesc, find_integral, group_algebra, sweedler_h4
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    ModComod,
    ModuleCoalgebra,
    _audit_comodule_algebra,
    _audit_equivariant_bicomodule,
    _audit_module_coalgebra,
    counit_action,
    direct_sum_coalgebras,
    direct_sum_module_coalgebras,
    make_coefficient,
    quotient_ses,
    regular_bicomodule,
    regular_module_coalgebra,
    unit_coaction,
)
from hopfcyclic.linalg import Matrix

import oracles
from groups import cyclic_table, symmetric_table
from lemmas import eps_module_coalgebra


class TestStructureAudits:
    def test_regular_module_coalgebra_passes(self, z2_q):
        mc = regular_module_coalgebra(z2_q)
        assert _audit_module_coalgebra(mc).ok

    def test_eps_action_also_compatible(self, z2_q):
        mc = eps_module_coalgebra(z2_q, z2_q)
        assert _audit_module_coalgebra(mc).ok

    def test_sign_flip_fails_with_witness(self, z2_q):
        mc = regular_module_coalgebra(z2_q)
        bad_action = mc.action.add(
            Matrix.from_entries(QQ, 2, 4, [(0, 3, QQ.parse(-2))]))
        bad = ModuleCoalgebra(z2_q, z2_q, bad_action, check=False)
        report = _audit_module_coalgebra(bad)
        assert not report.ok
        assert all(f.witness is not None for f in report.failures())

    def test_constructor_rejects_bad_action(self, z2_q):
        bad_action = Matrix.zero(QQ, 2, 4)  # right shape, fails unitality
        with pytest.raises(AuditFailed):
            ModuleCoalgebra(z2_q, z2_q, bad_action)

    def test_comodule_algebra_regular(self, z2_q):
        ca = ComoduleAlgebra(z2_q, z2_q, z2_q.comult)
        assert _audit_comodule_algebra(ca).ok

    def test_equivariant_bicomodule(self, z4_q):
        mc = regular_module_coalgebra(z4_q)
        m = regular_bicomodule(mc)
        assert _audit_equivariant_bicomodule(m).ok


class TestCoefficients:
    def test_r_ad_and_ad_r_are_sayd(self, z2_q, z4_q, s3_q, h4_q):
        for B in (z2_q, z4_q, s3_q, h4_q):
            for kind in ("r_ad", "ad_r"):
                X = make_coefficient(kind, B)
                assert X.stable, (B, kind)
                assert X.ayd, (B, kind)

    def test_eps_always_stable(self, z2_q, h4_q):
        for B in (z2_q, h4_q):
            assert make_coefficient("eps", B).stable

    def test_eps_not_ayd_over_sweedler(self, h4_q):
        # the trivial coefficient fails the antipode-twist identity when
        # the antipode is not involutive
        assert make_coefficient("eps", h4_q).ayd is False

    def test_unit_coefficient_stable(self, z4_q):
        assert make_coefficient("unit", z4_q).stable

    def test_r_ad_coaction_on_group_likes(self, z4_q):
        # x_(1) S^{-1}(x_(3)) (x) x_(2) evaluated on a group-like g gives
        # g g^{-1} (x) g = e (x) g
        X = make_coefficient("r_ad", z4_q)
        for g in range(4):
            col = X.coaction.col(g)
            assert col == {0 * 4 + g: QQ.one}

    def test_missing_antipode_inverse(self, z2_q):
        bial = BialgebraDesc(QQ, z2_q.basis, "bialgebra", mult=z2_q.mult,
                             comult=z2_q.comult, unit=z2_q.unit, counit=z2_q.counit)
        with pytest.raises(MissingAntipodeInverse):
            make_coefficient("r_ad", bial)

    def test_stability_flag_computed_not_asserted(self, z2_q):
        # regular action with comultiplication coaction is not stable
        X = ModComod(z2_q, 2, z2_q.mult, z2_q.comult)
        assert X.stable is False


class TestQuotientSES:
    def test_direct_sum_subcoalgebra(self, direct_sum_ses_q):
        ses = direct_sum_ses_q
        assert ses.quotient.dim == 2
        assert ses.b_splitting is not None
        # quotient is the group algebra of Z/2 again: comult diagonal
        q = ses.quotient.base
        assert q.comult.col(0) == {0: QQ.one}
        assert q.comult.col(1) == {3: QQ.one}

    def test_round_trip_dimensions(self, direct_sum_ses_q):
        ses = direct_sum_ses_q
        assert ses.K.cols + ses.quotient.dim == ses.C.dim
        assert ses.projection.mul(ses.K).is_zero()

    def test_z4_coideal_passes_subcoalgebra_fails(self, z4_q):
        C = regular_module_coalgebra(z4_q)
        K = Matrix.from_entries(
            QQ, 4, 2,
            [(0, 0, QQ.one), (2, 0, QQ.parse(-1)),
             (1, 1, QQ.one), (3, 1, QQ.parse(-1))])
        ses = quotient_ses(C, K, "coideal")
        assert ses.quotient.dim == 2
        # quotient is Q[Z/2]: the class of g squares to the class of e
        with pytest.raises(NotSubcoalgebra):
            quotient_ses(C, K, "subcoalgebra")

    def test_non_stable_subspace_rejected(self, z2_q):
        C1 = regular_module_coalgebra(z2_q)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 1, [(0, 0, QQ.one)])  # span{(e,0)}
        with pytest.raises(NotBStable):
            quotient_ses(C, K, "subcoalgebra")

    def test_counit_violation_rejected_in_coideal_mode(self, z2_q):
        # K = C is a coideal on which the counit does not vanish
        C = regular_module_coalgebra(z2_q)
        K = Matrix.identity(QQ, 2)
        with pytest.raises(NotCoideal, match="counit does not vanish on K"):
            quotient_ses(C, K, "coideal")

    def test_non_coideal_rejected_in_coideal_mode(self, z2_q):
        # K = span{e + g} is B-stable, but Delta(e + g) = e (x) e + g (x) g
        # is 2 e (x) e, not 0, in C/K (x) C/K
        C = regular_module_coalgebra(z2_q)
        K = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one), (1, 0, QQ.one)])
        with pytest.raises(NotCoideal, match=r"does not map K into K \(x\) C \+ C \(x\) K"):
            quotient_ses(C, K, "coideal")

    def test_k_module_coalgebra_built_once(self, direct_sum_ses_q):
        ses = direct_sum_ses_q
        Kmc = ses.k_module_coalgebra()
        assert ses.k_module_coalgebra() is Kmc
        assert Kmc.base.comult == ses.comult_k and Kmc.action == ses.action_k
        assert ses.K.mul(ses.action_k) == ses.C.action.mul(
            Matrix.identity(QQ, ses.C.over.dim).kron(ses.K))

    def test_k_module_coalgebra_refused_in_coideal_mode(self, z4_q):
        C = regular_module_coalgebra(z4_q)
        K = Matrix.from_entries(
            QQ, 4, 2,
            [(0, 0, QQ.one), (2, 0, QQ.parse(-1)),
             (1, 1, QQ.one), (3, 1, QQ.parse(-1))])
        ses = quotient_ses(C, K, "coideal")
        assert ses.comult_k is None
        with pytest.raises(NotSubcoalgebra, match="only in subcoalgebra mode"):
            ses.k_module_coalgebra()


class TestHCounitality:
    def test_group_algebras_h_counital(self, z2_q, z4_q):
        for B in (z2_q, z4_q):
            assert equivariant.h_counitality_probe(B, 4) == [0] * 5

    def test_sweedler_h_counital(self, h4_q):
        assert equivariant.h_counitality_probe(h4_q, 3) == [0] * 4

    def test_non_counital_delta_zero(self):
        one_dim = BialgebraDesc(QQ, ["c"], "coalgebra",
                                comult=Matrix.zero(QQ, 1, 1))
        dims = equivariant.h_counitality_probe(one_dim, 2)
        assert dims[0] == 1

    def test_direct_sum_still_h_counital(self, z2_q):
        c = direct_sum_coalgebras(z2_q, z2_q)
        assert equivariant.h_counitality_probe(c, 3) == [0] * 4

    @staticmethod
    def _bar_complexes(monkeypatch):
        built = []
        real = complexes.bar_complex

        def counted(desc, maxN):
            built.append(maxN)
            return real(desc, maxN)

        monkeypatch.setattr(complexes, "bar_complex", counted)
        return built

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
    def test_counital_builds_no_bar_complex(self, monkeypatch, field):
        built = self._bar_complexes(monkeypatch)
        for B in (group_algebra(cyclic_table(2), field), sweedler_h4(field)):
            assert equivariant.h_counitality_probe(B, 4) == [0] * 5
        assert built == []

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
    def test_broken_counit_falls_back_to_the_probe(self, monkeypatch, field):
        # counits that break the counit laws, past the audit: the probe runs
        # and gives the bar complex's dims, as it does with no counit; with
        # Delta = 0 those are not all zero, so the row FAILs
        z2 = group_algebra(cyclic_table(2), field)
        bent = BialgebraDesc(field, z2.basis, "coalgebra", comult=z2.comult,
                             counit=Matrix.from_entries(field, 1, 2, [(0, 0, field.one)]),
                             check=False)
        null = BialgebraDesc(field, ["c"], "coalgebra", comult=Matrix.zero(field, 1, 1),
                             counit=Matrix.identity(field, 1), check=False)
        built = self._bar_complexes(monkeypatch)
        assert equivariant.h_counitality_probe(bent, 3) == oracles.bar_homology(bent, 3)
        assert equivariant.h_counitality_probe(null, 3)[0] == 1
        assert built == [4, 4]


class TestProjectivity:
    def test_free_module_projective(self, z2_q):
        assert equivariant.is_projective(z2_q, z2_q.mult, 2)

    def test_trivial_module_not_projective_char_2(self):
        B = group_algebra(cyclic_table(2), GF(2))
        assert equivariant.is_projective(B, counit_action(B, 1), 1) is False

    def test_everything_projective_over_semisimple(self, z2_q):
        assert equivariant.is_projective(z2_q, counit_action(z2_q, 1), 1)
        assert equivariant.is_projective(z2_q, z2_q.mult, 2)

    def test_projectivity_matches_cointegral(self, z2_q, z4_q, s3_q, h4_q):
        fixtures = [z2_q, z4_q, s3_q, h4_q,
                    group_algebra(cyclic_table(2), GF(2)),
                    group_algebra(cyclic_table(3), GF(2))]
        for B in fixtures:
            has_coint = find_integral(B, "cointegral") is not None
            proj = oracles.is_projective_by_solve(B, counit_action(B, 1), 1)
            assert proj == has_coint, B

    @staticmethod
    def _systems(monkeypatch):
        built = []
        real = equivariant.solve_matrix_system

        def counted(field, m, n, constraints):
            built.append((m, n))
            return real(field, m, n, constraints)

        monkeypatch.setattr(equivariant, "solve_matrix_system", counted)
        return built

    def test_semisimple_builds_no_system(self, monkeypatch, z2_q, s3_q):
        built = self._systems(monkeypatch)
        for B in (z2_q, s3_q):
            assert equivariant.is_projective(B, counit_action(B, 1), 1)
            assert equivariant.is_projective(B, B.mult, B.dim)
        assert built == []

    def test_no_cointegral_solves(self, monkeypatch, h4_q):
        built = self._systems(monkeypatch)
        assert equivariant.is_projective(h4_q, counit_action(h4_q, 1), 1) is False
        assert equivariant.is_projective(h4_q, h4_q.mult, 4)
        assert built == [(4, 1), (16, 4)]

    def test_cointegral_without_antipode_solves(self, monkeypatch):
        # the monoid {1, a, b} with a and b left zeros: a is a normalized
        # co-integral (a y = a = eps(y) a), but no u has y u = eps(y) u and
        # eps(u) = 1, so k_eps is not projective; with no antipode the
        # solve decides
        f, one = QQ, QQ.one
        table = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        B = BialgebraDesc(
            f, ["1", "a", "b"], "bialgebra",
            mult=Matrix.from_entries(f, 3, 9, [(table[i][j], 3 * i + j, one)
                                               for i in range(3) for j in range(3)]),
            comult=Matrix.from_entries(f, 9, 3, [(4 * i, i, one) for i in range(3)]),
            unit=Matrix.from_entries(f, 3, 1, [(0, 0, one)]),
            counit=Matrix.from_entries(f, 1, 3, [(0, i, one) for i in range(3)]))
        assert B.cointegral is not None
        built = self._systems(monkeypatch)
        assert equivariant.is_projective(B, counit_action(B, 1), 1) is False
        assert oracles.is_projective_by_solve(B, counit_action(B, 1), 1) is False
        assert equivariant.is_projective(B, B.mult, 3)
        assert len(built) == 2
