import copy
import itertools
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
from hopfcyclic.hopf import BialgebraDesc, group_algebra, sweedler_h4
from hopfcyclic.equivariant import (
    CoalgebraSES,
    ComoduleAlgebra,
    EquivariantBicomodule,
    ModComod,
    ModuleCoalgebra,
    counit_action,
    make_coefficient,
    direct_sum_module_coalgebras,
    regular_bicomodule,
    regular_module_coalgebra,
    unit_coaction,
)
from hopfcyclic.complexes import (
    CocyclicModule,
    assemble,
    assemble_for_homology,
    bar_complex,
    coinvariant_space_from_matrices,
    cyclic_total_complex,
    homology,
    induced_complex,
    twisted_ch,
)
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    complex_homology,
    invert,
    map_well_defined,
    rank_kernel,
    slotted,
)

from hopfcyclic.serialize import module_coalgebra_from_json
from hopfcyclic import complexes, regular, theorems

from lemmas import (
    cotensor,
    cotor,
    diagonal_action,
    doi_check,
    eps_module_coalgebra,
    relative_bar,
    shear_map,
    trivial_hopf,
    untwist,
)
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
        # degree n of the bar resolution, C^{(x) n+2}, is degree n + 1 of the bar complex
        cx = bar_complex(z2_q, 4)
        assert cx.dims == [2, 4, 8, 16, 32]
        assert sorted(cx.diffs) == [0, 1, 2, 3]
        with pytest.raises(DegreeOutOfRange):
            bar_complex(z2_q, -1)

    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    def test_shifted_bar_complex_is_the_resolution(self, field):
        # diffs[n + 1] of the bar complex is the bar resolution's
        # differential out of degree n, entry for entry, on every Hopf fixture
        checked = 0
        for path in sorted(FIXTURES.glob("*.json")):
            try:
                desc = parse_input(str(path), field)
            except HopfCyclicError:
                continue
            if isinstance(desc, BialgebraDesc) and desc.level == "hopf":
                cx = bar_complex(desc, 5)
                for n in range(4):
                    assert cx.diffs[n + 1] == oracles.bar_resolution_differential(desc, n), \
                        (path.stem, n)
                checked += 1
        assert checked >= 5

    def test_bar_complex_acyclic_for_counital(self, z2_q):
        cx = bar_complex(z2_q, 5)
        assert complex_homology(cx, 4) == [0] * 5

    def test_diagonal_action_commutes_with_left_coaction(self, z2_q):
        # the left coaction on degree 1 of the bar resolution, C^{(x) 3}, is
        # Delta on its first slot; equivariance is the commutation with the
        # diagonal action
        mc = regular_module_coalgebra(z2_q)
        rho_l = slotted(QQ, 1, mc.base.comult, 4)
        L1, L2 = (diagonal_action(z2_q, [(2, mc.action)] * (n + 2)) for n in (1, 2))
        for b in range(2):
            assert L2[b].mul(rho_l) == rho_l.mul(L1[b])


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
                assert cm.complex.diffs[n] == q[n].induce(q[n + 1], T.complex.diffs[n])
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

    def test_truncated_ambient_keeps_its_actions(self, h4_q):
        # truncation slices the L_g of a twisted CH complex like its cofaces,
        # so the truncation descends as a fresh shallower build does
        mc = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        cut = twisted_ch(mc, regular_bicomodule(mc), X, 3).truncate(2)
        fresh = twisted_ch(mc, regular_bicomodule(mc), X, 2)
        assert cut.actions == fresh.actions
        assert induced_complex(cut, X).cofaces == induced_complex(fresh, X).cofaces


@pytest.fixture(scope="module")
def ambient_complexes(direct_sum_ses_q, k_eps_z2, h4_q):
    """name -> (T, X): CH(C), CH(C, K), CH(C, C/K) and CH(K) of the direct sum,
    and Sweedler H4 over itself with r_ad, each through degree 3."""
    ses = direct_sum_ses_q
    Kmc = ses.k_module_coalgebra()
    mh = regular_module_coalgebra(h4_q)
    triples = {
        "CH(C)": (ses.C, regular_bicomodule(ses.C), k_eps_z2),
        "CH(C, K)": (ses.C, theorems._sub_bicomodule(ses), k_eps_z2),
        "CH(C, C/K)": (ses.C, theorems._quotient_bicomodule(ses), k_eps_z2),
        "CH(K)": (Kmc, regular_bicomodule(Kmc), k_eps_z2),
        "H4 r_ad": (mh, regular_bicomodule(mh), make_coefficient("r_ad", h4_q)),
    }
    return {name: (twisted_ch(mc, M, X, 3), X) for name, (mc, M, X) in triples.items()}


@pytest.mark.parametrize("n, j", [(n, j) for n in range(3) for j in range(n + 2)])
@pytest.mark.parametrize("name", ["CH(C)", "CH(C, K)", "CH(C, C/K)", "CH(K)", "H4 r_ad"])
def test_coface_bump_rejected(name, n, j, ambient_complexes, every_coface_identity_holds):
    """d_j out of degree n plus e_0 e_0^T breaks a coface identity, and the
    checks that run outside the test session's full loop reject it: the
    identities with the last coface at construction, else the [L_g, d_j]
    commutators or the descent of the last coface in ``induced_complex``."""
    T, X = ambient_complexes[name]
    bumped = [list(faces) for faces in T.cofaces]
    d = bumped[n][j]
    bumped[n][j] = d.add(Matrix.from_entries(T.field, d.rows, d.cols, [(0, 0, T.field.one)]))
    mutant = CocyclicModule(T.field, T.over, T.dims, bumped, actions=T.actions)
    assert not oracles.all_coface_identities(mutant)
    with pytest.raises(HopfCyclicError):
        every_coface_identity_holds(mutant)  # the reduced check, as twisted_ch runs it
        induced_complex(mutant, X)


@pytest.mark.parametrize("mutation", ["n+1 cofaces", "wrong shape"])
@pytest.mark.parametrize("kind", ["twisted CH", "regular model"])
def test_coface_shape_mutant_rejected(kind, mutation, h4_q, every_coface_identity_holds):
    """A degree n with n+1 cofaces, or a coface of the wrong shape, is refused
    by the count and shape checks of ``_check_coface_identities``."""
    mc = regular_module_coalgebra(h4_q)
    X = make_coefficient("r_ad", h4_q)
    cm = (twisted_ch(mc, regular_bicomodule(mc), X, 2) if kind == "twisted CH"
          else assemble_for_homology("coalgebra", mc, X, 2))
    cofaces = [list(faces) for faces in cm.cofaces]
    if mutation == "n+1 cofaces":
        del cofaces[1][-1]
        message = "degree 1 must carry 3 cofaces"
    else:
        d = cofaces[1][0]
        cofaces[1][0] = Matrix.zero(cm.field, d.rows, d.cols + 1)
        message = "coface at degree 1 has wrong shape"
    mutant = CocyclicModule(cm.field, cm.over, cm.dims, cofaces, cm.tau, actions=cm.actions)
    with pytest.raises(ShapeMismatch, match=message):
        every_coface_identity_holds(mutant)


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

    @pytest.mark.parametrize("n", [0, 2])
    def test_algebra_tau_image_off_the_subspace_rejected(self, monkeypatch, n):
        # tau K_n plus e_p in a row p outside the free rows of K_n: restrict
        # reads the free rows only and its row check must see the bump
        ses = parse_input(str(FIXTURES / "z2_product_algebra_ses.json"), "Q")
        real = complexes._algebra_rotation

        def perturbed(A, X, an, on=None):
            image = real(A, X, an, on=on)
            if an != ses.A.dim ** n:
                return image
            p = min(i for i in range(on.rows) if i not in on.free)
            return image.add(Matrix.from_entries(QQ, image.rows, image.cols, [(p, 0, QQ.one)]))

        monkeypatch.setattr(complexes, "_algebra_rotation", perturbed)
        with pytest.raises(IdentityViolation, match=f"'operator preserves the cotensor "
                                                    f"subspace' fails in degree {n}"):
            assemble("algebra", ses.A, make_coefficient("eps", ses.A.over), 3)

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

    def test_face_perturbed_where_only_a_tau_identity_sees_it_rejected(self):
        # d_1 of the top degree n = 3 plus u v^T with d_0 u = 0 one degree
        # down: every checked face identity d_0 d_j = d_{j-1} d_0 still holds
        # (d_0 d_1 gains d_0 u v^T = 0, d_{j-1} d_0 is untouched) and so do
        # d_0 tau = d_3 and tau^4 = id, so only d_1 tau = tau d_0 rejects it
        ses = parse_input(str(FIXTURES / "z2_product_algebra_ses.json"), "Q")
        n = 3
        cm = assemble("algebra", ses.A, make_coefficient("eps", ses.A.over), n)
        _, ker = rank_kernel(cm.faces[n - 1][0])
        u = ker.col(0)
        bump = Matrix.from_entries(QQ, cm.dims[n - 1], cm.dims[n],
                                   [(i, cm.dims[n] - 1, v) for i, v in u.items()])
        mutant = copy.copy(cm)
        mutant.faces = list(cm.faces)
        mutant.faces[n] = [d.add(bump) if i == 1 else d for i, d in enumerate(cm.faces[n])]
        assert mutant.faces[n - 1][0].mul(bump).is_zero()
        assert not oracles.all_face_identities(mutant)
        with pytest.raises(IdentityViolation, match=r"'d_1 tau = tau d_0' fails in degree 3"):
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
        from lemmas import eps_module_coalgebra

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


# the Hopf algebras of the model tests, by name and field, with the depth
# each is built through: every model built in a test also builds the
# descended module and checks the isomorphism between them (conftest)
REGULAR_CASES = {
    "trivial": (trivial_hopf, 4),
    "Z/2": (lambda f: group_algebra(cyclic_table(2), f), 3),
    "Z/4": (lambda f: group_algebra(cyclic_table(4), f), 2),
}
REGULAR_FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def _relabelled(mc, perm):
    """``mc`` with its basis vector i renamed perm[i]: comultiplication, counit, action."""
    f = mc.base.field
    n = mc.dim
    P = Matrix.from_entries(f, n, n, [(perm[i], i, f.one) for i in range(n)])
    return _rebased(mc, P, [mc.base.basis[perm.index(i)] for i in range(n)])


def _rebased(mc, P, names):
    """``mc`` in the coordinates x' = P x, with its basis renamed ``names``."""
    f = mc.base.field
    Pinv = invert(P)
    desc = BialgebraDesc(f, names, "coalgebra", comult=P.kron(P).mul(mc.base.comult).mul(Pinv),
                         counit=mc.base.counit.mul(Pinv))
    action = P.mul(mc.action).mul(Matrix.identity(f, mc.over.dim).kron(Pinv))
    return ModuleCoalgebra(desc, mc.over, action)


def _bump(M, i=0, j=0):
    """M plus one at entry (i, j)."""
    return M.add(Matrix.from_entries(M.field, M.rows, M.cols, [(i, j, M.field.one)]))


class TestFreeModel:
    """The model on X (x) W (x) C^{(x) n} where W holds no grouplike vector."""

    @staticmethod
    def _unit_plus_x(h4):
        """Sweedler's H4 on itself in the basis 1 + x, g, x, gx: 1 + x is free, not grouplike."""
        f = h4.field
        P = Matrix.from_entries(f, 4, 4, [(0, 0, f.one), (2, 0, f.neg(f.one)), (1, 1, f.one),
                                          (2, 2, f.one), (3, 3, f.one)])  # e_0 = 1 + x
        return _rebased(regular_module_coalgebra(h4), P, ["1+x", "g", "x", "gx"])

    @pytest.mark.parametrize("fname", list(REGULAR_FIELDS))
    def test_d0_and_the_last_coface_untwisted(self, fname):
        h4 = sweedler_h4(REGULAR_FIELDS[fname])
        C = self._unit_plus_x(h4)
        X = make_coefficient("r_ad", h4)
        W = regular.free_basis(h4, C.dim, C.action)
        assert W == [0] and not regular.Untwist(C, X, W).slotted_d0
        assert assemble_for_homology("coalgebra", C, X, 3).untwist.W == W
        # the session fixture checks both against the descended modules
        for M in (None, regular_bicomodule(C)):
            cm = regular.free_model(C, X, W, 3, M)
            assert (cm.tau is None) == (M is not None)
        assert homology(cm, "hochschild", 2) == homology(
            assemble("coalgebra", C, X, 3), "hochschild", 2)

    def test_d0_mutant_that_only_the_d0_identities_see_rejected(self, monkeypatch, h4_q):
        # with no tau and d_0 not slotted, d_0 out of degree 2 bumped at
        # (0, 1) passes every identity with the last coface; d_1 d_0 = d_0 d_0
        # rejects it
        C = self._unit_plus_x(h4_q)
        X = make_coefficient("r_ad", h4_q)
        real = regular._model_cofaces
        monkeypatch.setattr(regular, "_model_cofaces", lambda u, n: [
            _bump(d, 0, 1) if (n, i) == (2, 0) else d for i, d in enumerate(real(u, n))])
        with pytest.raises(IdentityViolation, match="'d_1 d_0 = d_0 d_0' fails in degree 1"):
            regular.free_model(C, X, [0], 3, regular_bicomodule(C))


class TestRegularModel:
    """The model on X (x) W (x) C^{(x) n}, W = {c0}, of a regular module coalgebra."""

    @pytest.mark.parametrize("coefficient", ["r_ad", "ad_r"])
    @pytest.mark.parametrize("fname", list(REGULAR_FIELDS))
    @pytest.mark.parametrize("name", list(REGULAR_CASES))
    def test_model_taken_and_homology_kept(self, name, fname, coefficient):
        build, depth = REGULAR_CASES[name]
        B = build(REGULAR_FIELDS[fname])
        C = regular_module_coalgebra(B)
        X = make_coefficient(coefficient, B)
        cm = assemble_for_homology("coalgebra", C, X, depth)
        assert cm.quotients is None
        assert cm.dims == [X.dim * B.dim ** n for n in range(depth + 1)]
        for theory in ("hochschild", "cyclic", "bar"):
            assert homology(cm, theory, depth - 1) == homology(
                assemble("coalgebra", C, X, depth), theory, depth - 1), theory

    @pytest.mark.parametrize("coefficient", ["r_ad", "ad_r"])
    def test_sweedler_f3_model(self, coefficient):
        B = sweedler_h4(GF(3))
        cm = assemble_for_homology("coalgebra", regular_module_coalgebra(B),
                                   make_coefficient(coefficient, B), 3)
        assert cm.quotients is None
        assert homology(cm, "cyclic", 2) == ([2, 1, 2] if coefficient == "r_ad" else [1, 0, 1])

    def test_every_relabelling_of_sweedler_found_regular(self):
        # the benchmark relabels C's basis and not B's: the model must be
        # found for all 24, with c0 the image of 1 or of g
        B = sweedler_h4(GF(3))
        C = regular_module_coalgebra(B)
        X = make_coefficient("r_ad", B)
        for perm in itertools.permutations(range(4)):
            mc = _relabelled(C, list(perm))
            cm = assemble_for_homology("coalgebra", mc, X, 2)
            assert cm.untwist.W in ([perm[0]], [perm[1]]), perm
            assert cm.quotients is None and homology(cm, "cyclic", 1) == [2, 1]

    def test_without_a_suitable_c0_the_descended_path_is_taken(self, z2_q, k_eps_z2):
        # the counit action on Q[Z/2] has c0 = e grouplike, but b -> eps(b) e
        # is not bijective: no free basis, so it descends
        mc = eps_module_coalgebra(z2_q, z2_q)
        assert regular.free_basis(z2_q, mc.dim, mc.action) is None
        assert assemble_for_homology("coalgebra", mc, k_eps_z2, 2).quotients is not None

    def test_free_on_two_basis_vectors_takes_the_model(self, z2_q, k_eps_z2):
        # C (+) C has no basis vector that generates it, but is free on two
        C1 = regular_module_coalgebra(z2_q)
        mc = direct_sum_module_coalgebras(C1, C1)
        cm = assemble_for_homology("coalgebra", mc, k_eps_z2, 2)
        assert cm.quotients is None and cm.untwist.W == [0, 2]
        for theory in ("hochschild", "cyclic"):
            assert homology(cm, theory, 1) == homology(
                assemble("coalgebra", mc, k_eps_z2, 2), theory, 1), theory

    def test_coefficient_not_ayd_takes_the_descended_path(self, h4_q):
        # eps and unit are stable but not anti-Yetter-Drinfeld on Sweedler's
        # H4, whose antipode is not involutive: the descent check refuses
        C = regular_module_coalgebra(h4_q)
        for kind in ("eps", "unit"):
            X = make_coefficient(kind, h4_q)
            assert X.stable and not X.ayd
            with pytest.raises(IdentityViolation, match="coface d_1 well-defined on the quotient"):
                assemble_for_homology("coalgebra", C, X, 2)

    def test_perturbed_tau_rejected(self, monkeypatch, h4_q):
        real = regular._model_rotation
        monkeypatch.setattr(regular, "_model_rotation",
                            lambda u, n: _bump(real(u, n)) if n == 2 else real(u, n))
        with pytest.raises(IdentityViolation):
            assemble_for_homology("coalgebra", regular_module_coalgebra(h4_q),
                                  make_coefficient("r_ad", h4_q), 3)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_perturbed_coface_rejected(self, monkeypatch, h4_q, j):
        # each coface out of degree 2: d_0, the middle d_1 and d_2, the last d_3
        real = regular._model_cofaces
        monkeypatch.setattr(regular, "_model_cofaces", lambda u, n: [
            _bump(d) if (n, i) == (2, j) else d for i, d in enumerate(real(u, n))])
        with pytest.raises(IdentityViolation):
            assemble_for_homology("coalgebra", regular_module_coalgebra(h4_q),
                                  make_coefficient("r_ad", h4_q), 3)

    def test_coface_mutant_that_only_the_coface_check_sees_rejected(self, monkeypatch, h4_q):
        # d_0 out of degree 1 perturbed and the other cofaces out of degree 1
        # rebuilt from it as d_j = tau^{-1} d_{j-1} tau, so every tau
        # identity holds and only d_k d_0 = d_0 d_{k-1} can fail
        real = regular._model_cofaces

        def mutant(u, n):
            if n != 1:
                return real(u, n)
            tau1, tau2 = (regular._model_rotation(u, k) for k in (1, 2))
            faces = [_bump(real(u, 1)[0], 5, 3)]
            for _ in range(2):
                faces.append(tau2.mul(tau2).mul(faces[-1]).mul(tau1))  # tau^3 = id in degree 2
            return faces

        monkeypatch.setattr(regular, "_model_cofaces", mutant)
        with pytest.raises(IdentityViolation, match=r"'d_\d d_0 = d_0 d_\d'"):
            assemble_for_homology("coalgebra", regular_module_coalgebra(h4_q),
                                  make_coefficient("r_ad", h4_q), 3)

    def test_perturbed_isomorphism_rejected(self, h4_q):
        C = regular_module_coalgebra(h4_q)
        X = make_coefficient("r_ad", h4_q)
        cm = assemble_for_homology("coalgebra", C, X, 3)
        descended = assemble("coalgebra", C, X, 3)
        iso = oracles.free_isomorphism(X, cm.untwist.embed, C.dim, descended.quotients)
        assert oracles.is_cocyclic_isomorphism(iso, cm, descended)
        for n in range(4):
            bumped = [_bump(m) if k == n else m for k, m in enumerate(iso)]
            assert not oracles.is_cocyclic_isomorphism(bumped, cm, descended), n
        # invertible, but two basis vectors swapped in degree 1
        swap = Matrix.from_entries(QQ, 16, 16, [({0: 1, 1: 0}.get(i, i), i, QQ.one)
                                                for i in range(16)])
        swapped = [m.mul(swap) if k == 1 else m for k, m in enumerate(iso)]
        assert not oracles.is_cocyclic_isomorphism(swapped, cm, descended)
