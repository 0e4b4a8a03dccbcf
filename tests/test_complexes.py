import copy
import json
import random
import types
import weakref
from pathlib import Path

import pytest

from hopfcyclic.cli import parse_input
from hopfcyclic.errors import (
    DegreeOutOfRange,
    HopfCyclicError,
    IdentityViolation,
    NotAYD,
    NotStable,
    ShapeMismatch,
)
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import BialgebraDesc, group_algebra, sweedler_h4, trivial_hopf
from hopfcyclic.equivariant import (
    CoalgebraSES,
    ComoduleAlgebra,
    EquivariantBicomodule,
    ModComod,
    ModuleCoalgebra,
    counit_action,
    make_coefficient,
    regular_bicomodule,
    regular_module_coalgebra,
    unit_coaction,
)
from hopfcyclic.complexes import (
    assemble,
    bar,
    bar_complex,
    coinvariant_space_from_matrices,
    cotensor,
    cotor,
    cyclic_total_complex,
    diagonal_action,
    doi_check,
    shear_map,
    homology,
    induced_complex,
    relative_bar,
    twisted_ch,
    untwist,
)
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    complex_homology,
    invert,
    map_well_defined,
)

from hopfcyclic.serialize import module_coalgebra_from_json
from hopfcyclic import complexes, theorems

import oracles
from groups import cyclic_table
from oracles import dense_rank_of_matrix
from randmat import random_invertible

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


def fixture_module_coalgebras():
    """Every module coalgebra a fixture holds, and every Hopf fixture over itself."""
    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "C1" in doc:
            for key in ("C1", "C2"):
                out[f"{path.stem}:{key}"] = module_coalgebra_from_json(doc[key])
            continue
        try:
            obj = parse_input(str(path))
        except HopfCyclicError:
            continue
        if isinstance(obj, ModuleCoalgebra):
            out[path.stem] = obj
        elif isinstance(obj, CoalgebraSES):
            out[f"{path.stem}:C"] = obj.C
            out[f"{path.stem}:C/K"] = obj.quotient
            if obj.mode == "subcoalgebra":
                out[f"{path.stem}:K"] = obj.k_module_coalgebra()
        elif isinstance(obj, BialgebraDesc) and obj.level == "hopf":
            out[path.stem] = regular_module_coalgebra(obj)
    return out


class TestBar:
    def test_resolution_dims(self, z2_q):
        res = bar(z2_q, "resolution", 3)
        assert res.dims == [4, 8, 16, 32]

    def test_coface_identities_validated(self, z4_q):
        bar(z4_q, "resolution", 3)  # constructor validates, no raise

    def test_bar_complex_acyclic_for_counital(self, z2_q):
        cx = bar_complex(z2_q, 5)
        assert complex_homology(cx, 4) == [0] * 5

    def test_diagonal_action_commutes_with_left_coaction(self, z2_q):
        # the left coaction on degree 1 of the bar resolution is the first
        # coface into degree 2; equivariance is the commutation with the
        # diagonal action
        mc = regular_module_coalgebra(z2_q)
        res = bar(mc, "resolution", 2)
        rho_l = res.cofaces[1][0]
        for b in range(2):
            assert res.actions[2][b].mul(rho_l) == rho_l.mul(res.actions[1][b])


class TestTwistedCH:
    def test_dims(self, z2_q, k_eps_z2):
        mc = regular_module_coalgebra(z2_q)
        T = twisted_ch(mc, regular_bicomodule(mc), k_eps_z2, 3)
        assert T.dims == [2, 4, 8, 16]

    def test_commutators_vanish_below_last(self, z2_q):
        mc = regular_module_coalgebra(z2_q)
        X = make_coefficient("r_ad", z2_q)
        induced_complex(twisted_ch(mc, regular_bicomodule(mc), X, 3), X)  # [L_g, d_j] = 0

    def test_last_coface_commutator_nonzero_for_sweedler(self, h4_q):
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        T = twisted_ch(mc, regular_bicomodule(mc), X, 2)
        n = 1
        found = False
        for b in T.actions[n]:  # the generators g and x
            last = T.cofaces[n][n + 1]
            comm = T.actions[n + 1][b].mul(last).sub(last.mul(T.actions[n][b]))
            if not comm.is_zero():
                found = True
                break
        assert found, "expected a nonzero commutator with the last coface"

    def test_coface_commuting_with_g_but_not_x_rejected(self, h4_q):
        # M's right coaction (id (x) Ad_g) Delta is coassociative and
        # compatible with the left one, so every coface identity holds; but
        # Ad_g(c) = g c g^{-1} commutes with left multiplication by g and not
        # by x, so the zeroth coface is equivariant for one generator only
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        g, x = h4_q.algebra_generators
        assert [h4_q.basis[i] for i in (g, x)] == ["g", "x"]
        left = h4_q.mult.column_blocks(4)
        right_g = h4_q.mult.mul(Matrix.identity(QQ, 4).kron(Matrix.column(QQ, {g: 1}, 4)))
        rco = Matrix.identity(QQ, 4).kron(left[g].mul(right_g)).mul(h4_q.comult)
        M = EquivariantBicomodule(mc, 4, h4_q.mult, h4_q.comult, rco, check=False)
        T = twisted_ch(mc, M, X, 2)  # validates the coface identities
        d0 = T.cofaces[0][0]
        assert T.actions[1][g].mul(d0) == d0.mul(T.actions[0][g])
        assert T.actions[1][x].mul(d0) != d0.mul(T.actions[0][x])
        with pytest.raises(ShapeMismatch, match=r"\[L_b, d_0\] != 0 at degree 0 for b = x"):
            induced_complex(T, X)

    def test_coefficient_must_be_a_module(self, z2_q):
        # the generator-only checks rest on the coefficient's action being
        # associative and unital
        mc = regular_module_coalgebra(z2_q)
        X = ModComod(z2_q, 2, Matrix.zero(QQ, 2, 4), z2_q.comult)
        assert not X.module_report.ok
        with pytest.raises(HopfCyclicError, match="action unitality"):
            twisted_ch(mc, regular_bicomodule(mc), X, 1)


class TestCoinvariants:
    def test_regular_action_collapses_to_scalars(self, z4_q):
        q = coinvariant_space_from_matrices(QQ, z4_q, z4_q.mult.column_blocks(4), 4)
        assert q.dim == 1
        assert q.projection.rows == 1

    def test_diagonal_square_has_dim_of_b(self, z2_q):
        diag = diagonal_action(z2_q, [(2, z2_q.mult), (2, z2_q.mult)])
        q = coinvariant_space_from_matrices(QQ, z2_q, diag, 4)
        assert q.dim == 2  # trivialization: free of rank dim B over one factor

    def test_trivial_action_leaves_everything(self, z2_q):
        triv = counit_action(z2_q, 3)
        q = coinvariant_space_from_matrices(QQ, z2_q, triv.column_blocks(2), 3)
        assert q.dim == 3
        assert invert(q.projection) is not None

    def test_generators_give_the_full_basis_quotient(self):
        # the relations of the algebra generators span B^+ V: the quotient
        # equals the one over every basis element, entry for entry
        mcs = fixture_module_coalgebras()
        assert len(mcs) >= 15
        assert any(len(mc.over.algebra_generators) < mc.over.dim - 1 for mc in mcs.values())
        for name, mc in mcs.items():
            B = mc.over
            for kind in ("eps", "r_ad"):
                X = make_coefficient(kind, B)
                T = twisted_ch(mc, regular_bicomodule(mc), X, 2)
                for n in range(T.top + 1):
                    every = diagonal_action(B, [(mc.dim, mc.action)] * (n + 1),
                                            coefficient=(X.dim, X.action))
                    fast = coinvariant_space_from_matrices(B.field, B, T.actions[n], T.dims[n])
                    full = oracles.coinvariant_space(B.field, B, every, T.dims[n])
                    assert fast.dim == full.dim, (name, kind, n)
                    assert fast.projection == full.projection, (name, kind, n)
                    assert fast.section == full.section, (name, kind, n)


def _escaping(A, src, dst):
    """A + e_i e_j^T, with j in the support of a relation r of ``src`` and e_i
    outside the relations of ``dst``: the change sends r out of them."""
    e = [Matrix.column(QQ, {j: QQ.one}, A.cols) for j in range(A.cols)]
    r = next(v.sub(src.section.mul(src.projection.mul(v))) for v in e
             if v != src.section.mul(src.projection.mul(v)))
    j = min(r.col(0))
    i = min(dst.projection.coldict())
    return A.add(Matrix.from_entries(QQ, A.rows, A.cols, [(i, j, QQ.one)]))


class TestInducedComplex:
    def test_z2_r_ad_descends(self, z2_q):
        mc = regular_module_coalgebra(z2_q)
        X = make_coefficient("r_ad", z2_q)
        T = twisted_ch(mc, regular_bicomodule(mc), X, 5)
        ic = induced_complex(T, X)  # every coface descends
        assert len(ic.complex.dims) == 6  # d^2 = 0 on the descended complex

    def test_trivial_b_reduces_to_plain_ch(self, k_q):
        mc = regular_module_coalgebra(k_q)
        X = make_coefficient("eps", k_q)
        T = twisted_ch(mc, regular_bicomodule(mc), X, 4)
        ic = induced_complex(T, X)
        assert ic.dims == [1, 1, 1, 1, 1]

    def test_not_ayd_refused(self, h4_q):
        # stable but not anti-Yetter-Drinfeld: the trivial coefficient over
        # a Hopf algebra with non-involutive antipode
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("eps", h4_q)
        assert X.stable and not X.ayd
        T = twisted_ch(mc, regular_bicomodule(mc), X, 2)
        with pytest.raises(NotAYD):
            induced_complex(T, X)

    def test_descended_differential_is_the_induced_one(self, direct_sum_ses_q, k_eps_z2):
        # the Hochschild complex of the descended cofaces is T's differential
        # induced on the coinvariant quotients, entry for entry
        triples = [(mc, regular_bicomodule(mc), make_coefficient(kind, mc.over))
                   for mc in fixture_module_coalgebras().values() for kind in ("eps", "r_ad")]
        ses = direct_sum_ses_q
        triples += [(ses.C, theorems._quotient_bicomodule(ses), k_eps_z2),  # CH(C, C/K)
                    (ses.C, theorems._sub_bicomodule(ses), k_eps_z2)]  # CH(C, K)
        checked = 0
        for mc, M, X in triples:
            if not X.ayd:
                continue
            T = twisted_ch(mc, M, X, 2)
            cm = induced_complex(T, X)
            q = cm.quotients
            for n in range(T.top):
                assert cm.complex.diffs[n] == q[n].induce(q[n + 1], T.differential(n))
            checked += 1
        assert checked >= 30

    def test_last_coface_mutant_rejected(self, direct_sum_ses_q, k_eps_z2):
        # the last coface of CH(C, C/K) at degree 1, changed to send a relation
        # out of the relations
        T = twisted_ch(direct_sum_ses_q.C, theorems._quotient_bicomodule(direct_sum_ses_q),
                       k_eps_z2, 2)
        q = induced_complex(T, k_eps_z2).quotients
        n = 1
        T.cofaces[n][n + 1] = _escaping(T.cofaces[n][n + 1], q[n], q[n + 1])
        with pytest.raises(IdentityViolation, match="coface d_2 well-defined on the quotient"):
            induced_complex(T, k_eps_z2)

    def test_first_coface_mutant_rejected(self, h4_q):
        # d_0 is no longer checked for descent: a d_0 that sends a relation out
        # of the relations must still be refused, by the commutator check
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        T = twisted_ch(mc, regular_bicomodule(mc), X, 2)
        q = induced_complex(T, X).quotients
        T.cofaces[0][0] = _escaping(T.cofaces[0][0], q[0], q[1])
        assert map_well_defined(T.cofaces[0][0], q[0], q[1]) is None
        with pytest.raises(ShapeMismatch, match=r"\[L_b, d_0\] != 0 at degree 0"):
            induced_complex(T, X)

    def test_descent_keeps_nothing_of_the_ambient(self, h4_q):
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        T = twisted_ch(mc, regular_bicomodule(mc), X, 2)
        ambient = weakref.ref(T)
        ic = induced_complex(T, X)
        assert [q.ambient_dim for q in ic.quotients] == T.dims
        del T  # reference counting frees it at once: nothing else refers to it
        assert ambient() is None
        assert ic.complex.dims == ic.dims

    def test_truncation_equals_a_fresh_shallower_build(self, h4_q):
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        deep = induced_complex(twisted_ch(mc, regular_bicomodule(mc), X, 3), X)
        fresh = induced_complex(twisted_ch(mc, regular_bicomodule(mc), X, 2), X)
        cut = deep.truncate(2)
        assert cut.top == fresh.top == 2
        assert cut.dims == fresh.dims
        assert cut.complex.diffs == fresh.complex.diffs
        assert [q.ambient_dim for q in cut.quotients] == [q.ambient_dim for q in fresh.quotients]
        assert cut.cofaces == fresh.cofaces
        for a, b in zip(cut.quotients, fresh.quotients, strict=True):
            assert (a.projection, a.section) == (b.projection, b.section)
        with pytest.raises(DegreeOutOfRange):
            deep.truncate(4)


class TestCotensor:
    def test_counit_identification(self, z2_q):
        # X box_C C = X for counital C
        X_dim, rho_X = 1, Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)])
        dim, _ = cotensor(X_dim, rho_X, z2_q, 2, z2_q.comult)
        assert dim == 1

    def test_c_box_c(self, z2_q):
        dim, incl = cotensor(2, z2_q.comult, z2_q, 2, z2_q.comult)
        assert dim == 2
        assert incl.cols == 2

    def test_group_graded_dimension_count(self, z2_q):
        # X = k_e + k_g, Y = k_e + k_g: matched degrees contribute 1 each
        rho_right = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (3, 1, QQ.one)])
        rho_left = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (3, 1, QQ.one)])
        dim, _ = cotensor(2, rho_right, z2_q, 2, rho_left)
        assert dim == 2  # e-e and g-g pairs match


class TestCotor:
    def test_degree_zero_is_cotensor(self, z2_q):
        k_e_r = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)])
        k_e_l = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)])
        dims = cotor(z2_q, (1, k_e_r), (1, k_e_l), 3)
        d0, _ = cotensor(1, k_e_r, z2_q, 1, k_e_l)
        assert dims[0] == d0 == 1

    def test_cosemisimple_higher_vanishing(self, z2_q):
        k_e_r = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)])
        k_e_l = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)])
        assert cotor(z2_q, (1, k_e_r), (1, k_e_l), 3) == [1, 0, 0, 0]

    def test_trivial_coalgebra(self, k_q):
        one = Matrix.identity(QQ, 1)
        dims = cotor(k_q, (1, one), (1, one), 2)
        assert dims == [1, 0, 0]

    def test_equivariant_action_returned(self, z2_q):
        dims, actions = cotor(
            z2_q, (2, z2_q.comult), (2, z2_q.comult), 1,
            equivariant=(z2_q, z2_q.mult, z2_q.mult, z2_q.mult))
        assert len(actions) == 3
        assert all(len(per_b) == 2 for per_b in actions)


class TestDoi:
    def test_group_algebras(self, z2_q, z4_q):
        for B in (z2_q, z4_q):
            assert doi_check(B, (B.dim, B.comult, B.comult), 3)

    def test_trivial_coalgebra(self, k_q):
        assert doi_check(k_q, (1, k_q.comult, k_q.comult), 3)

    def test_sweedler_low_degrees(self, h4_q):
        assert doi_check(h4_q, (4, h4_q.comult, h4_q.comult), 2)


class TestShearUntwist:
    def test_shear_one_is_identity(self, z2_q):
        g, gi = shear_map(1, z2_q)
        assert g == Matrix.identity(QQ, 2)
        assert gi == Matrix.identity(QQ, 2)

    def test_shear_two_on_group_likes(self, z4_q):
        g, _ = shear_map(2, z4_q)
        # Gamma(g (x) h) = g (x) gh
        for a in range(4):
            for b in range(4):
                col = g.col(a * 4 + b)
                assert col == {a * 4 + ((a + b) % 4): QQ.one}

    def test_shear_sweedler_inverse_and_intertwining(self, h4_q):
        for n in (2, 3):
            shear_map(n, h4_q)  # verified internally, raises on failure

    def test_untwist_trivial_b(self, k_q):
        phi, psi = untwist(k_q, (3, counit_action(k_q, 3)), (2, counit_action(k_q, 2)))
        assert phi == Matrix.identity(QQ, 6)
        assert psi == Matrix.identity(QQ, 6)

    def test_untwist_group_algebra(self, z2_q):
        phi, psi = untwist(z2_q, (2, z2_q.mult), (2, z2_q.mult))
        assert phi.rows == phi.cols == 2
        assert phi.mul(psi) == Matrix.identity(QQ, 2)

    def test_untwist_sweedler(self, h4_q):
        phi, psi = untwist(h4_q, (4, h4_q.mult), (4, h4_q.mult))
        assert phi.mul(psi) == Matrix.identity(QQ, phi.rows)

    def test_untwist_refuses_a_non_module(self, z2_q):
        # the coinvariant quotient reads only the generators of B, which is
        # exact for module actions only
        with pytest.raises(HopfCyclicError, match="action unitality"):
            untwist(z2_q, (2, z2_q.mult), (2, Matrix.zero(QQ, 2, 4)))


class TestAssemble:
    def test_z2_dims_are_powers_of_two(self, z2_q, k_eps_z2):
        cm = assemble("coalgebra", regular_module_coalgebra(z2_q), k_eps_z2, 5)
        assert cm.dims == [1, 2, 4, 8, 16, 32]

    def test_not_stable_refused(self, z2_q):
        X = ModComod(z2_q, 2, z2_q.mult, z2_q.comult)
        assert not X.stable
        with pytest.raises(NotStable):
            assemble("coalgebra", regular_module_coalgebra(z2_q), X, 2)

    def test_trivial_b_classical_cocyclic(self, k_q):
        X = make_coefficient("eps", k_q)
        cm = assemble("coalgebra", regular_module_coalgebra(k_q), X, 4)
        assert cm.dims == [1, 1, 1, 1, 1]

    def test_algebra_side_group_algebra(self, z2_q):
        A = ComoduleAlgebra(z2_q, z2_q, z2_q.comult)
        X = make_coefficient("eps", z2_q)
        cm = assemble("algebra", A, X, 4)
        assert cm.dims == [1, 2, 4, 8, 16]

    def test_algebra_face_leaving_the_cotensor_subspace_rejected(self, z2_q):
        # g g = g instead of e: the face d_0 sends g (x) g, whose total
        # coaction is trivial, to g, whose coaction is not
        f = QQ
        bump = Matrix.from_entries(f, 2, 4, [(0, 3, f.neg(f.one)), (1, 3, f.one)])
        broken = BialgebraDesc(f, z2_q.basis, "algebra", mult=z2_q.mult.add(bump),
                               unit=z2_q.unit, check=False)
        A = ComoduleAlgebra(broken, z2_q, z2_q.comult, check=False)
        with pytest.raises(IdentityViolation, match="operator preserves the cotensor subspace"):
            assemble("algebra", A, make_coefficient("eps", z2_q), 2)

    @pytest.mark.parametrize("side", ["coalgebra", "algebra"])
    def test_tau_with_cube_minus_id_rejected(self, z2_q, k_eps_z2, side):
        # over Q, -tau_2 has cube -id, so tau^{n+1} = id fails at n = 2,
        # where the check squares tau and multiplies by tau once more
        main = (regular_module_coalgebra(z2_q) if side == "coalgebra"
                else ComoduleAlgebra(z2_q, z2_q, z2_q.comult))
        cm = assemble(side, main, k_eps_z2, 3)
        mutant = copy.copy(cm)
        mutant.tau = [t.neg() if n == 2 else t for n, t in enumerate(cm.tau)]
        with pytest.raises(IdentityViolation, match=r"'tau\^\{n\+1\} = id' fails in degree 2"):
            mutant.validate()

    def test_tau_order_passes_exactly_when_the_order_divides_n_plus_1(self):
        # permutation matrices of every order 1..6 in each degree 0..5: the
        # check passes exactly when the order divides n + 1
        rng = random.Random(7)
        for n in range(6):
            for order in range(1, 7):
                relabel = list(range(8))
                rng.shuffle(relabel)
                cycle = [(i + 1) % order if i < order else i for i in range(8)]
                tau = Matrix.from_entries(QQ, 8, 8, [(relabel[cycle[i]], relabel[i], 1)
                                                     for i in range(8)])
                cm = types.SimpleNamespace(field=QQ, top=n, dims=[8] * (n + 1),
                                           tau=[Matrix.identity(QQ, 8)] * n + [tau])
                if (n + 1) % order == 0:
                    complexes._check_tau_order(cm)
                else:
                    with pytest.raises(IdentityViolation, match=f"degree {n}"):
                        complexes._check_tau_order(cm)


class TestHomology:
    def test_trivial_triple_point_values(self, k_q):
        X = make_coefficient("eps", k_q)
        cm = assemble("coalgebra", regular_module_coalgebra(k_q), X, 5)
        assert homology(cm, "cyclic", 4) == [1, 0, 1, 0, 1]
        assert homology(cm, "hochschild", 4) == [1, 0, 0, 0, 0]
        assert homology(cm, "bar", 4) == [0, 0, 0, 0, 0]

    def test_degree_out_of_range(self, k_q):
        X = make_coefficient("eps", k_q)
        cm = assemble("coalgebra", regular_module_coalgebra(k_q), X, 3)
        with pytest.raises(DegreeOutOfRange):
            homology(cm, "cyclic", 3)

    def test_bar_vanishes_for_counital_over_trivial_b(self, k_q, z2_q):
        # B = k, C = Q[Z/2] through the counit action of the trivial Hopf algebra
        from hopfcyclic.equivariant import eps_module_coalgebra

        mc = eps_module_coalgebra(z2_q, k_q)
        X = make_coefficient("eps", k_q)
        cm = assemble("coalgebra", mc, X, 5)
        assert homology(cm, "bar", 4) == [0, 0, 0, 0, 0]

    def test_group_algebra_cyclic_char_2(self):
        B = group_algebra(cyclic_table(2), GF(2))
        A = ComoduleAlgebra(B, B, B.comult)
        X = make_coefficient("eps", B)
        cm = assemble("algebra", A, X, 5)
        assert homology(cm, "cyclic", 4) == [1, 1, 2, 2, 3]
        assert homology(cm, "hochschild", 4) == [1, 1, 1, 1, 1]


class TestRelativeBar:
    def test_direct_sum_acyclic(self, direct_sum_ses_q):
        cx, actions = relative_bar(direct_sum_ses_q, 3)
        assert complex_homology(cx, 3) == [0, 0, 0, 0]

    def test_dims(self, direct_sum_ses_q):
        cx, _ = relative_bar(direct_sum_ses_q, 2)
        # K (x) C^n (x) C/K with dim K = dim C/K = 2, dim C = 4
        assert cx.dims == [4, 16, 64, 256]


class TestBasisIndependence:
    def test_homology_invariant_under_conjugation(self, z2_q, k_eps_z2):
        cm = assemble("coalgebra", regular_module_coalgebra(z2_q), k_eps_z2, 4)
        tot = cyclic_total_complex(cm, 4)
        base = [tot.homology(n) for n in range(4)]
        rng = random.Random(99)
        for _ in range(3):
            gs = [random_invertible(QQ, d, rng) for d in tot.dims]
            diffs = {}
            for n, d in tot.diffs.items():
                diffs[n] = gs[n + 1].mul(d).mul(invert(gs[n]))
            conj = GradedComplex(QQ, +1, tot.dims, diffs)
            assert [conj.homology(n) for n in range(4)] == base
