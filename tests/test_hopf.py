import json
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcyclic.equivariant import make_coefficient
from hopfcyclic.errors import AuditFailed, NotAGroup, NotInvertible
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import (
    BialgebraDesc,
    antipode_inverse,
    audit,
    desc_from_json,
    dual_desc,
    dual_group_algebra,
    find_integral,
    group_algebra,
    make_builtin,
    sweedler_h4,
    trivial_hopf,
)
from hopfcyclic.linalg import Matrix

from groups import cyclic_table, symmetric_table

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


def perturb_comult(desc, i, j, k, delta):
    """Mutated copy with comult[(j,k), i] shifted by delta; skips the audit."""
    bump = Matrix.from_entries(desc.field, desc.dim**2, desc.dim,
                               [(j * desc.dim + k, i, delta)])
    return BialgebraDesc(desc.field, desc.basis, desc.level, mult=desc.mult,
                         comult=desc.comult.add(bump), unit=desc.unit,
                         counit=desc.counit, antipode=desc.antipode,
                         antipode_inv=desc.antipode_inv, check=False)


class TestGroupAlgebra:
    def test_z2_audit(self):
        b = group_algebra(cyclic_table(2), QQ)
        assert b.dim == 2
        assert audit(b, "hopf").ok
        # involutive group: S is the identity matrix
        assert b.antipode == Matrix.identity(QQ, 2)

    def test_z4_s3_all_levels(self):
        for table in (cyclic_table(4), symmetric_table(3)):
            for field in (QQ, GF(2), GF(3)):
                b = group_algebra(table, field)
                assert audit(b, "hopf").ok

    def test_not_a_group(self):
        with pytest.raises(NotAGroup):
            group_algebra([[0, 1], [1, 1]], QQ)
        with pytest.raises(NotAGroup):
            group_algebra([[1, 0], [0, 0]], QQ)  # no identity row/col pair fails assoc/ident
        # associativity violation
        with pytest.raises(NotAGroup):
            group_algebra([[0, 1, 2], [1, 2, 0], [2, 1, 0]], QQ)

    def test_mutated_comult_fails_with_witness(self):
        b = group_algebra(cyclic_table(2), QQ)
        bad = perturb_comult(b, 1, 0, 1, Fraction(1))
        report = audit(bad, "hopf")
        assert not report.ok
        fails = report.failures()
        assert fails and all(f.witness is not None for f in fails)


class TestDualGroupAlgebra:
    def test_dual_z2_is_hopf(self):
        d = dual_group_algebra(cyclic_table(2), QQ)
        assert audit(d, "hopf").ok

    def test_dual_s3_is_hopf(self):
        d = dual_group_algebra(symmetric_table(3), QQ)
        assert audit(d, "hopf").ok

    def test_double_dual_is_original(self):
        # evaluation pairing identifies the double dual basis with the
        # original one, so the intertwiner is the identity on coordinates
        b = group_algebra(cyclic_table(4), QQ)
        dd = dual_desc(dual_desc(b))
        assert dd.mult == b.mult
        assert dd.comult == b.comult
        assert dd.unit == b.unit
        assert dd.counit == b.counit
        assert dd.antipode == b.antipode


class TestSweedler:
    def test_audit_over_q_and_f3(self):
        for field in (QQ, GF(3)):
            h4 = sweedler_h4(field)
            assert audit(h4, "hopf").ok

    def test_antipode_powers(self):
        h4 = sweedler_h4(QQ)
        S = h4.antipode
        S2 = S.mul(S)
        assert S2 != Matrix.identity(QQ, 4)
        assert S2.mul(S2) == Matrix.identity(QQ, 4)

    def test_f2_passes_every_audit_with_an_involutive_antipode(self):
        # -1 = 1 in characteristic 2: xg = gx and S^2 = id, a Hopf algebra still
        for field, involutive in ((GF(2), True), (QQ, False)):
            h4 = sweedler_h4(field)
            assert audit(h4).ok
            S = h4.antipode
            assert (S.mul(S) == Matrix.identity(field, 4)) == involutive

    def test_antipode_inverse_is_s_cubed(self):
        h4 = sweedler_h4(QQ)
        d = antipode_inverse(h4)
        S = h4.antipode
        assert d.antipode_inv == S.mul(S).mul(S)
        assert audit(d, "hopf").ok  # inverse checks included once cached


class TestAntipodeInverse:
    def test_group_algebra_self_inverse(self):
        for n in (2, 3, 4):
            b = group_algebra(cyclic_table(n), QQ)
            d = antipode_inverse(b)
            assert d.antipode_inv == b.antipode

    def test_inverse_antipode_leaves_the_description_unchanged(self):
        # solved once and kept, without writing antipode_inv into the desc
        B = desc_from_json(json.loads((FIXTURES / "sweedler_h4.json").read_text()))
        doc = B.to_json()
        assert B.antipode_inv is None
        make_coefficient("r_ad", B)
        assert B.to_json() == doc
        assert B.antipode_inv is None
        S = B.antipode
        assert B.inverse_antipode == S.mul(S).mul(S)
        assert B.inverse_antipode is B.inverse_antipode

    def test_singular_antipode_rejected(self):
        b = group_algebra(cyclic_table(2), QQ)
        bad = BialgebraDesc(b.field, b.basis, "hopf", mult=b.mult, comult=b.comult,
                            unit=b.unit, counit=b.counit,
                            antipode=Matrix.zero(QQ, 2, 2), check=False)
        with pytest.raises(NotInvertible):
            antipode_inverse(bad)


class TestIntegrals:
    def test_cointegral_z2_rational(self):
        b = group_algebra(cyclic_table(2), QQ)
        sigma = find_integral(b, "cointegral")
        assert sigma is not None
        assert sigma.col(0) == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    def test_cointegral_group_sum_formula(self):
        for table in (cyclic_table(3), cyclic_table(4), symmetric_table(3)):
            b = group_algebra(table, QQ)
            sigma = find_integral(b, "cointegral")
            n = b.dim
            assert sigma.col(0) == {i: Fraction(1, n) for i in range(n)}

    def test_cointegral_absent_in_bad_characteristic(self):
        assert find_integral(group_algebra(cyclic_table(2), GF(2)), "cointegral") is None
        assert find_integral(group_algebra(cyclic_table(4), GF(2)), "cointegral") is None
        assert find_integral(group_algebra(cyclic_table(3), GF(3)), "cointegral") is None

    def test_cointegral_present_in_good_characteristic(self):
        sigma = find_integral(group_algebra(cyclic_table(3), GF(2)), "cointegral")
        assert sigma is not None

    def test_integral_z4_is_identity_indicator(self):
        b = group_algebra(cyclic_table(4), QQ)
        eta = find_integral(b, "integral")
        assert eta is not None
        assert eta.rowdict[0] == {0: Fraction(1)}

    def test_sweedler_has_no_normalized_cointegral(self):
        assert find_integral(sweedler_h4(QQ), "cointegral") is None

    def test_cointegral_is_kept(self):
        b = group_algebra(cyclic_table(2), QQ)
        assert b.cointegral == find_integral(b, "cointegral")
        assert b.cointegral is b.cointegral
        assert sweedler_h4(QQ).cointegral is None


class TestJsonRoundTrip:
    def test_desc_roundtrip(self):
        for mk in (lambda: group_algebra(cyclic_table(4), QQ),
                   lambda: sweedler_h4(GF(3)),
                   lambda: trivial_hopf(QQ)):
            b = mk()
            doc = b.to_json()
            b2 = desc_from_json(doc)
            assert b2.mult == b.mult
            assert b2.comult == b.comult
            assert b2.level == b.level

    def test_make_builtin_dispatch(self):
        b = make_builtin("group_algebra", {"table": cyclic_table(2)}, QQ)
        assert b.dim == 2
        t = make_builtin("trivial", {}, GF(5))
        assert t.dim == 1
        assert audit(t, "hopf").ok


class TestAuditFailureAtConstruction:
    def test_constructor_rejects_mutants(self):
        b = group_algebra(cyclic_table(2), QQ)
        with pytest.raises(AuditFailed):
            BialgebraDesc(b.field, b.basis, "hopf", mult=b.mult,
                          comult=b.comult.add(Matrix.from_entries(QQ, 4, 2, [(0, 1, Fraction(2))])),
                          unit=b.unit, counit=b.counit, antipode=b.antipode)
