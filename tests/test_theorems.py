import collections
import copy
import functools
import itertools
import random
import sys
from pathlib import Path

import pytest

from hopfcyclic import complexes, equivariant, hopf, regular, theorems
from hopfcyclic.cli import main, parse_input
from hopfcyclic.complexes import CocyclicModule
from hopfcyclic.errors import (
    DegreeOutOfRange,
    IdentityViolation,
    NotAGroup,
    NotBStable,
    NotStable,
    OrientationMismatch,
    ShapeMismatch,
)
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import BialgebraDesc, group_algebra
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    ModComod,
    ModuleCoalgebra,
    counit_action,
    direct_sum_module_coalgebras,
    make_coefficient,
    quotient_ses,
    regular_module_coalgebra,
)
from hopfcyclic.linalg import (GradedComplex, Matrix, QuotientSpace, block_matrix,
                               complex_homology, invert, rank_kernel)
from hopfcyclic.serialize import dumps
from hopfcyclic.theorems import (
    AlgebraSES,
    ChainMap,
    TheoremReport,
    cone_quasi_iso,
    cofibration_verdicts,
    coset_table,
    group_homology,
    mapping_cone,
    relative_hc,
    special_checks,
    verify_excision,
    _two_sided_ideal_closure,
)

import oracles
from groups import cyclic_table, dihedral_table, symmetric_table
from lemmas import hypothesis
from randmat import random_invertible

FIXTURES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures"


def _bump(M, i=0, j=0):
    """M plus one at entry (i, j)."""
    return M.add(Matrix.from_entries(M.field, M.rows, M.cols, [(i, j, M.field.one)]))


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

    @pytest.mark.parametrize("o", [+1, -1])
    def test_missing_component_read_as_zero(self, o):
        # complexes through degree 4 with d = id out of degrees 0 and 2 (into
        # them on the chain side), a map given in degrees 1 and 3 only: its
        # zero f_0, f_2 and f_4 leave squares that f_1 = f_3 = id fails
        one, zero = Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)
        leave = [0, 1, 2, 3] if o > 0 else [1, 2, 3, 4]
        X = GradedComplex(QQ, o, [1] * 5, dict(zip(leave, (one, zero, one, zero))))
        with pytest.raises(ShapeMismatch, match=r"^chain map does not commute at degree \d$"):
            ChainMap(X, X, {1: one, 3: one})
        # with zero differentials the same components commute with everything
        Z = GradedComplex(QQ, o, [1] * 5, {n: zero for n in leave})
        assert ChainMap(Z, Z, {1: one, 3: one}).components.keys() == {1, 3}
        # and the zero map needs no component at all
        ChainMap(X, X, {})

    @pytest.mark.parametrize("o", [+1, -1])
    def test_triple_complex_refuses_a_u_that_is_not_a_chain_map(self, o):
        # neither map is validated on its own; the d o d check of the triple
        # complex must still refuse a u or a v that does not commute with d
        one, zero = Matrix.identity(QQ, 1), Matrix.zero(QQ, 1, 1)
        leave = [0, 1, 2] if o > 0 else [1, 2, 3]
        X = GradedComplex(QQ, o, [1] * 4, dict(zip(leave, (one, zero, one))))
        Y, Z = flat(QQ, [1] * 4), flat(QQ, [1] * 4)
        if o < 0:
            Y = Z = GradedComplex(QQ, -1, [1] * 4, {n: zero for n in leave})
        v = ChainMap(Y, Z, {n: zero for n in range(4)})
        fine = ChainMap(X, Y, {n: zero for n in range(4)})
        assert len(cofibration_verdicts(fine, v, 0)) == 1
        broken = ChainMap(X, Y, {n: one for n in range(4)}, check=False)
        with pytest.raises(ShapeMismatch, match="d o d"):
            cofibration_verdicts(broken, v, 0)
        # v = id from X onto Z, whose d is zero: v d_X != d_Z v, and v u = 0
        u = ChainMap(Z, X, {n: zero for n in range(4)})
        assert len(cofibration_verdicts(u, ChainMap(X, X, {n: one for n in range(4)}), 0)) == 1
        broken = ChainMap(X, Z, {n: one for n in range(4)}, check=False)
        with pytest.raises(ShapeMismatch, match="d o d"):
            cofibration_verdicts(u, broken, 0)

    @staticmethod
    def _random_complex(field, o, dims, rng):
        """A complex on ``dims``: identities from a block of each degree onto the
        next one's first block (transposed on the chain side), conjugated
        degreewise by random invertibles. A zero differential is left out."""
        r, diffs = 0, {}
        for n in range(len(dims) - 1):
            skip, r = r, rng.randint(0, min(dims[n] - r, dims[n + 1]))
            d = Matrix.from_entries(field, dims[n + 1], dims[n],
                                    [(j, skip + j, field.one) for j in range(r)])
            diffs.update({n: d} if o > 0 else {n + 1: d.transpose()})
        g = [random_invertible(field, n, rng) for n in dims]
        conj = {n: g[n + o].mul(d).mul(invert(g[n])) for n, d in diffs.items()}
        return GradedComplex(field, o, dims, {n: d for n, d in conj.items() if not d.is_zero()})

    @staticmethod
    def _split_triple(field, o, X, Z, rng):
        """X -> Y -> Z with Y = X (+) Z through the lower top, conjugated
        degreewise by random invertibles; v u = 0 and cone(u) -> Z is a
        quasi-isomorphism."""
        top = min(X.top, Z.top)
        dims = [X.dims[n] + Z.dims[n] for n in range(top + 1)]
        h = [random_invertible(field, d, rng) for d in dims]
        h_inv = [invert(m) for m in h]
        diffs = {}
        for n in range(top + 1):
            if 0 <= n + o <= top:
                dY = block_matrix(field, [[X.diffs.get(n), None], [None, Z.diffs.get(n)]],
                                  [X.dims[n + o], Z.dims[n + o]], [X.dims[n], Z.dims[n]])
                diffs[n] = h[n + o].mul(dY).mul(h_inv[n])
        Y = GradedComplex(field, o, dims, diffs)
        incl = {n: block_matrix(field, [[Matrix.identity(field, X.dims[n])], [None]],
                                [X.dims[n], Z.dims[n]], [X.dims[n]]) for n in range(top + 1)}
        proj = {n: block_matrix(field, [[None, Matrix.identity(field, Z.dims[n])]],
                                [Z.dims[n]], [X.dims[n], Z.dims[n]]) for n in range(top + 1)}
        u = ChainMap(X, Y, {n: h[n].mul(c) for n, c in incl.items()})
        v = ChainMap(Y, Z, {n: c.mul(h_inv[n]) for n, c in proj.items()})
        return u, v

    @pytest.mark.parametrize("o", [+1, -1])
    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["Q", "F2", "F3"])
    @pytest.mark.parametrize("shape", ["one map", "two maps", "unequal tops",
                                       "missing components"])
    def test_mapping_cone_is_the_nested_cone(self, every_cone_is_the_nested_cone, o, field,
                                             shape):
        # the one block pass against the cone written block by block and the
        # triple complex as the cone of cone(u) -> Z', entry for entry
        build = every_cone_is_the_nested_cone
        rng = random.Random(f"{o}{field}{shape}")
        tops = (5, 3) if shape == "unequal tops" else (4, 4)
        X = self._random_complex(field, o, [rng.randint(0, 3) for _ in range(tops[0] + 1)], rng)
        z_dims = [rng.randint(1, 3) for _ in range(tops[1] + 1)]
        if shape == "missing components":
            z_dims[2] = 0
        Z = self._random_complex(field, o, z_dims, rng)
        u, v = self._split_triple(field, o, X, Z, rng)
        if shape == "missing components":
            # u is the zero map, given by no component; v leaves out its zero ones
            u = ChainMap(X, u.target, {})
            v = ChainMap(v.source, Z, {n: c for n, c in v.components.items() if z_dims[n]})
        maps = (u,) if shape == "one map" else (u, v)
        D = build(*maps)
        assert any(not d.is_zero() for d in D.diffs.values())
        assert (D.dims, D.diffs) == oracles.nested_cone(*maps)
        if shape in ("two maps", "unequal tops"):
            maxdeg = D.top - (3 if o > 0 else 2)
            assert cofibration_verdicts(u, v, maxdeg) == [True] * (maxdeg + 1)

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
        assert hypothesis(rep, "coefficient projective over B").verdict == "PASS"

    def test_direct_sum_over_f2_unasserted(self):
        f2 = GF(2)
        B = group_algebra(cyclic_table(2), f2)
        C1 = regular_module_coalgebra(B)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(f2, 4, 2, [(0, 0, f2.one), (1, 1, f2.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("eps", B)
        rep = verify_excision(ses, X, "coalgebra", 2)
        assert hypothesis(rep, "coefficient projective over B").verdict == "FAIL"
        assert hypothesis(rep, "coefficient has finite projective dimension").verdict == \
            "UNVERIFIED"
        assert all(d.verdict == "UNVERIFIED" for d in rep.degrees)

    def test_each_complex_built_once(self, monkeypatch):
        # CH(C, C/K), CH(C/K), CH(K), CH(C, K) and CH(C): five distinct
        # complexes, each built once at the deepest depth any consumer
        # needs, CH(C/K) one degree short of CH(C, C/K) and CH(C)
        depths = []
        real = complexes.descended_ch

        def counted(C, M, X, maxdeg):
            depths.append(maxdeg)
            return real(C, M, X, maxdeg)

        monkeypatch.setattr(complexes, "descended_ch", counted)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        rep = verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)
        assert rep.all_pass
        assert sorted(depths) == [2, 3, 3, 3, 4]

    def test_cointegral_solved_once(self, monkeypatch):
        # is_projective and both hypothesis checklists read the one B's
        # cached co-integral
        sides = []
        real = hopf.find_integral

        def counted(desc, side):
            sides.append(side)
            return real(desc, side)

        monkeypatch.setattr(hopf, "find_integral", counted)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        X = make_coefficient("eps", ses.C.over)
        assert verify_excision(ses, X, "coalgebra", 1).all_pass
        relative_hc(ses.C, ses.K, X, "cokernel", 1)
        assert sides == ["cointegral"]

    @pytest.mark.parametrize("field", ["Q", "Fp:2"])
    def test_rows_decided_by_proof_build_nothing(self, monkeypatch, field):
        # every piece of direct_sum_ses is counital: no H-counital row builds
        # a bar complex; Q[Z/2] has a normalized co-integral, so no
        # projectivity row builds a system, while F_2[Z/2] has none, so each
        # of C, C/K and the coefficient is solved, in each of the three runs
        bars, systems = [], []
        real_bar, real_solve = complexes.bar_complex, equivariant.solve_matrix_system

        def bar(desc, maxN):
            bars.append(maxN)
            return real_bar(desc, maxN)

        def solve(f, m, n, constraints):
            if sys._getframe(1).f_code.co_name == "is_projective":
                systems.append((m, n))
            return real_solve(f, m, n, constraints)

        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"), field)
        X = make_coefficient("eps", ses.C.over)
        monkeypatch.setattr(complexes, "bar_complex", bar)
        monkeypatch.setattr(equivariant, "solve_matrix_system", solve)
        reports = [verify_excision(ses, X, "coalgebra", 2)] + [
            relative_hc(ses.C, ses.K, X, mode, 2)[1] for mode in ("cokernel", "quotient")]
        assert bars == []
        assert systems == ([] if field == "Q" else [(8, 4), (4, 2), (2, 1)] * 3)
        for rep in reports:
            for name in ("K H-counital", "C H-counital", "C/K H-counital",
                         "C projective over B", "C/K projective over B"):
                assert hypothesis(rep, name).verdict == "PASS", name
        assert hypothesis(reports[0], "coefficient projective over B").verdict == (
            "PASS" if field == "Q" else "FAIL")

    def test_each_coface_and_map_induced_once(self, monkeypatch):
        # on the descended path (no free bases), every coface of the five
        # complexes, every cyclic operator and every component of f1, f2,
        # g1, g2, u and v is induced exactly once: the cyclic-level u and v
        # reuse the Hochschild-level components. Only the last coface of
        # each degree, each tau and each component is checked, in the
        # product form; d_0 ... d_n descend by the commutator checks
        monkeypatch.setattr(regular, "free_bases", lambda X, *pieces: None)
        induced, checked, totals = [], [], []
        real_induce, real_check = QuotientSpace.induce, complexes.map_well_defined
        real_total = complexes.cyclic_total_complex

        def induce(self, other, amb):
            induced.append(amb)
            return real_induce(self, other, amb)

        def check(amb, src, dst):
            checked.append(amb)
            return real_check(amb, src, dst)

        def total(cm, maxtot):
            totals.append(maxtot)
            return real_total(cm, maxtot)

        monkeypatch.setattr(QuotientSpace, "induce", induce)
        monkeypatch.setattr(complexes, "map_well_defined", check)
        monkeypatch.setattr(complexes, "cyclic_total_complex", total)
        monkeypatch.setattr(theorems, "cyclic_total_complex", total)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        rep = verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)
        assert rep.all_pass
        # CH(C, C/K), CH(C, K) and CH(C) through degree 3, CH(C/K) through 2,
        # CH(K) through 4
        tops = (3, 2, 3, 3, 4)
        last_cofaces = sum(tops)
        first_cofaces = sum(n + 1 for top in tops for n in range(top))
        # cyclic modules of K, C and C/K through degrees 4, 3, 2: tau below each top
        taus = 4 + 3 + 2
        maps = 4 * 4 + 2 * 3  # components in degrees 0..3, into CH(C/K) 0..2
        assert len(checked) == last_cofaces + taus + maps
        assert len(induced) == first_cofaces
        # CM(C/K), CM(C), CM(K): one each, through maxdeg + 1 for their own
        # dims; the verdicts are derived from the Hochschild and b' triples,
        # so no total is built at its triple depth
        assert sorted(totals) == [2, 2, 2]

    @pytest.mark.parametrize("first", ["1", "1 + x"])
    def test_sweedler_sayd_coefficient_full_pipeline(self, h4_q, first):
        # non-cocommutative base with the co-adjoint SaYD coefficient: the
        # checklist exercises the aYD flag and every verdict certifies. With
        # the first basis vector of K = the left summand 1 + x, K's free
        # basis {1 + x} is not grouplike: CH(K) and CH(C, K) untwist d_0 and
        # their last coface (the session fixture checks every model and map)
        C1 = regular_module_coalgebra(h4_q)
        if first == "1 + x":
            P = Matrix.from_entries(QQ, 4, 4, [(i, i, QQ.one) for i in range(4)]
                                    + [(2, 0, QQ.neg(QQ.one))])  # e_0 = 1 + x
            Pinv = invert(P)
            desc = BialgebraDesc(QQ, ["1+x", "g", "x", "gx"], "coalgebra",
                                 comult=P.kron(P).mul(h4_q.comult).mul(Pinv),
                                 counit=h4_q.counit.mul(Pinv))
            C1 = ModuleCoalgebra(desc, h4_q, P.mul(h4_q.mult).mul(
                Matrix.identity(QQ, 4).kron(Pinv)))
        C = direct_sum_module_coalgebras(C1, regular_module_coalgebra(h4_q))
        K = Matrix.from_entries(QQ, 8, 4, [(i, i, QQ.one) for i in range(4)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("r_ad", h4_q)
        W_K = regular.free_bases(X, ses.k_module_coalgebra())[0]
        assert regular.Untwist(ses.k_module_coalgebra(), X, W_K).slotted_d0 == (first == "1")
        rep = verify_excision(ses, X, "coalgebra", 1)
        assert hypothesis(rep, "coefficient anti-Yetter-Drinfeld").verdict == "PASS"
        assert rep.all_pass

    def test_classical_coalgebra_excision_b_trivial(self, k_q):
        # B = k: the theorem reduces to coalgebra excision
        from lemmas import eps_module_coalgebra

        z2 = group_algebra(cyclic_table(2), QQ)
        C1 = eps_module_coalgebra(z2, k_q)
        C = direct_sum_module_coalgebras(C1, C1)
        K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
        ses = quotient_ses(C, K, "subcoalgebra")
        X = make_coefficient("eps", k_q)
        rep = verify_excision(ses, X, "coalgebra", 2)
        assert rep.all_pass


class TestCyclicExcision:
    """The cyclic verdicts of excision by the column filtration, on both sides."""

    FIXTURE = {"coalgebra": "direct_sum_ses.json", "algebra": "z2_product_algebra_ses.json"}
    # on the chain side every homotopy out of degree 0 commutes with b' too
    MAXDEG = {"coalgebra": 1, "algebra": 2}

    @classmethod
    def _inputs(cls, monkeypatch, side):
        """What excision on ``side`` over Q hands ``theorems._cyclic_excision``:
        the modules, u, v, the Hochschild verdicts and maxdeg. The lists are
        copied, as the function empties them."""
        seen = []
        real = theorems._cyclic_excision

        def record(mods, maps, *args):
            seen.append((list(mods), *maps, *args))
            return real(mods, maps, *args)

        monkeypatch.setattr(theorems, "_cyclic_excision", record)
        ses = parse_input(str(FIXTURES / cls.FIXTURE[side]))
        X = make_coefficient("eps", (ses.C if side == "coalgebra" else ses.A).over)
        assert verify_excision(ses, X, side, cls.MAXDEG[side]).all_pass
        (args,) = seen
        return args

    @staticmethod
    def _plus(u, delta):
        """u plus ``delta[n]`` in each degree n of ``delta``, checked to commute with b."""
        return ChainMap(u.source, u.target,
                        {n: c.add(delta[n]) if n in delta else c for n, c in u.components.items()})

    @pytest.mark.parametrize("side", ["coalgebra", "algebra"])
    def test_u_commuting_with_b_not_b_prime_rejected(
            self, monkeypatch, every_cyclic_excision_is_the_bicomplex_triple, side):
        # u + (d h + h d) for h: X_k -> Y_{k-o} with one entry commutes with
        # b, as every null-homotopic perturbation does, but not with b' in
        # the square out of k - o, which the b' complexes read, k = maxdeg + o
        derive = every_cyclic_excision_is_the_bicomplex_triple
        mods, u, v, hoch_ok, maxdeg = self._inputs(monkeypatch, side)
        o, (X, Y) = u.orientation, mods[:2]
        k, dX, dY = maxdeg + o, u.source.diffs, u.target.diffs
        bpX, bpY = (complexes._differentials(T, drop_last=True) for T in (X, Y))
        for i, j in itertools.product(range(Y.dims[k - o]), range(X.dims[k])):
            h = Matrix.from_entries(QQ, Y.dims[k - o], X.dims[k], [(i, j, QQ.one)])
            delta = {k - o: h.mul(dX[k - o]), k: dY[k - o].mul(h)}
            if delta[k].mul(bpX[k - o]) != bpY[k - o].mul(delta[k - o]):
                break
        else:
            pytest.fail("every one-entry homotopy commutes with b'")
        with pytest.raises(ShapeMismatch, match=r"^chain map does not commute at degree \d$"):
            derive(mods, [self._plus(u, delta), v], hoch_ok, maxdeg)

    @pytest.mark.parametrize("side", ["coalgebra", "algebra"])
    def test_map_commuting_with_b_and_b_prime_not_tau_rejected(
            self, monkeypatch, every_cyclic_excision_is_the_bicomplex_triple, side):
        # f + y phi in the last degree r of f whose tau the cyclic verdict
        # reads, y killed by the differentials out of r and phi by those into
        # r of every square that a ChainMap onto the Hochschild or the b'
        # complexes checks, and v u = 0 kept: only tau tells. Cochain: f = u,
        # r = maxdeg + 1. Chain: f = v, r = maxdeg, as the images of b and b'
        # of CM(I) span degree maxdeg - 1, so no such perturbation of u exists
        derive = every_cyclic_excision_is_the_bicomplex_triple
        mods, u, v, hoch_ok, maxdeg = self._inputs(monkeypatch, side)
        i, f, r = (0, u, maxdeg + 1) if side == "coalgebra" else (1, v, maxdeg)
        o, (X, Y) = f.orientation, mods[i:i + 2]
        outs, intos = ([], [u.components[r]]) if i else ([v.components[r]], [])
        bars = [complexes._hochschild_complex(T.truncate(T.top - 1), drop_last=True)
                for T in (X, Y)]
        for src, tgt in ((f.source, f.target), bars):
            top = min(src.top, tgt.top)
            if r <= top and 0 <= r + o <= top:
                outs.append(tgt.diffs[r])
            if r <= top and 0 <= r - o <= top:
                intos.append(src.diffs[r - o])
        stacked = block_matrix(outs[0].field, [[M] for M in outs], [M.rows for M in outs],
                               [outs[0].cols])
        ys = rank_kernel(stacked)[1].columns()
        phis = rank_kernel(functools.reduce(Matrix.hstack, intos).transpose())[1].columns()
        for y, phi in itertools.product(ys, phis):
            delta = Matrix.column(QQ, y, Y.dims[r]).mul(
                Matrix.column(QQ, phi, X.dims[r]).transpose())
            if delta.mul(X.tau[r]) != Y.tau[r].mul(delta):
                break
        else:
            pytest.fail("every y phi commutes with tau")
        maps = [u, v]
        maps[i] = self._plus(f, {r: delta})
        with pytest.raises(ShapeMismatch,
                           match=f"^chain map does not commute with tau at degree {r}$"):
            derive(mods, maps, hoch_ok, maxdeg)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("side", ["coalgebra", "algebra"])
    def test_short_tau_refused(self, monkeypatch, every_cyclic_excision_is_the_bicomplex_triple,
                               side, which):
        # cochain: u_q tau = tau u_q reads tau of CM(K) and CM(C) through
        # maxdeg + 1, v's of CM(C) and CM(C/K) through maxdeg: CM(K) carries
        # one tau more, the others exactly these. Chain: u's reads CM(I) and
        # CM(A) through maxdeg - 1, v's CM(A) and CM(A/I) through maxdeg, and
        # each carries tau through its top. With one tau short of what is
        # read, each is refused by name
        derive = every_cyclic_excision_is_the_bicomplex_triple
        mods, u, v, hoch_ok, maxdeg = self._inputs(monkeypatch, side)
        if side == "coalgebra":
            assert [len(T.tau) for T in mods] == [maxdeg + 3, maxdeg + 2, maxdeg + 1]
            reach = maxdeg + 1 if which < 2 else maxdeg
        else:
            assert [len(T.tau) for T in mods] == [maxdeg + 2, maxdeg + 2, maxdeg + 3]
            reach = maxdeg - 1 if which == 0 else maxdeg
        mods[which] = copy.copy(mods[which])
        mods[which].tau = mods[which].tau[:reach]
        with pytest.raises(DegreeOutOfRange, match=f"^the cyclic excision verdict reads tau "
                                                   f"through degree {reach}, "):
            derive(mods, [u, v], hoch_ok, maxdeg)

    @pytest.mark.parametrize("side", ["coalgebra", "algebra"])
    def test_acyclicity_not_derived_takes_the_bicomplex(
            self, monkeypatch, every_cyclic_excision_is_the_bicomplex_triple, side):
        # u = 0 leaves the Hochschild triple not acyclic, so the bicomplex
        # triple decides, and builds each total through its module's depth.
        # (The b' triple of these modules is acyclic whatever u and v are:
        # each b' complex is)
        derive = every_cyclic_excision_is_the_bicomplex_triple
        mods, u, v, _, maxdeg = self._inputs(monkeypatch, side)
        zero = ChainMap(u.source, u.target, {n: Matrix.zero(QQ, c.rows, c.cols)
                                             for n, c in u.components.items()})
        hoch_ok = cofibration_verdicts(zero, v, maxdeg)
        assert not all(hoch_ok)
        totals = []
        real_total = theorems.cyclic_total_complex

        def total(cm, maxtot):
            totals.append(maxtot)
            return real_total(cm, maxtot)

        monkeypatch.setattr(theorems, "cyclic_total_complex", total)
        verdicts, dims = derive(list(mods), [zero, v], hoch_ok, maxdeg)
        assert totals == [T.top for T in mods]
        assert not all(verdicts)
        assert (verdicts, dims) == oracles.bicomplex_cyclic_excision(*mods, zero, v, maxdeg)

    @pytest.mark.parametrize("fixture, field, maxdeg, lifted", [
        ("z2_product_algebra_ses.json", "Q", 3, 0),
        ("z2_product_algebra_ses.json", "Fp:2", 3, 0),
        ("z2_product_algebra_ses.json", "Fp:3", 3, 0),
        # the Hochschild triple of I = (x) in Q[Z/2][x]/(x^2) fails from degree 1
        ("z2_dual_numbers_ses.json", "Q", 3, 2),
    ])
    def test_algebra_excision_lifts_maps_only_in_the_fallback(self, monkeypatch, fixture, field,
                                                              maxdeg, lifted):
        # the bicomplex triple is the one reader of the maps lifted onto the totals
        calls = []
        real = theorems.total_chain_map

        def lift(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(theorems, "total_chain_map", lift)
        ses = parse_input(str(FIXTURES / fixture), field)
        verify_excision(ses, make_coefficient("eps", ses.A.over), "algebra", maxdeg)
        assert len(calls) == lifted


class TestFreeModels:
    """Coalgebra excision and the cokernel construction on free pieces: the model path."""

    @staticmethod
    def _paths(monkeypatch):
        """Counts of model builds and of twisted complexes built to be descended."""
        counts = {"model": 0, "descended": 0}
        build, twisted = regular.free_model, complexes.descended_ch

        def counting_build(*args, **kwargs):
            counts["model"] += 1
            return build(*args, **kwargs)

        def counting_twisted(*args, **kwargs):
            counts["descended"] += 1
            return twisted(*args, **kwargs)

        monkeypatch.setattr(regular, "free_model", counting_build)
        monkeypatch.setattr(complexes, "descended_ch", counting_twisted)
        return counts

    @pytest.mark.parametrize("verb", ["excision", "relative"])
    @pytest.mark.parametrize("fixture, field, path, certified", [
        ("direct_sum_ses.json", "Q", "model", True),
        ("direct_sum_ses.json", "Fp:2", "model", False),  # X not projective over F_2[Z/2]
        ("direct_sum_ses.json", "Fp:3", "model", True),
        ("grouplike_counit_ses.json", "Q", "descended", True),
    ])
    def test_each_fixture_takes_its_path(self, monkeypatch, capsys,
                                         every_model_is_the_descended_module,
                                         verb, fixture, field, path, certified):
        # every piece of direct_sum_ses is free over B (|W| = 2, 1, 1); the
        # counit action on k{e, g} makes no piece free
        self._unchecked(monkeypatch, every_model_is_the_descended_module)
        counts = self._paths(monkeypatch)
        argv = [verb, str(FIXTURES / fixture), "--max-degree", "2", "--field", field]
        code = main(argv + (["--mode", "cokernel"] if verb == "relative" else []))
        assert code == (0 if certified else 1)
        # the five CH complexes; CM(K) and CM(C), and CM(C/K) for the quotient
        # construction that a certified comparison computes too
        built = 5 if verb == "excision" else 2 + certified
        assert counts == {path: built, ({"model", "descended"} - {path}).pop(): 0}
        capsys.readouterr()

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)])
    def test_model_and_descended_reports_agree(self, monkeypatch, field):
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"), field.name)
        X = make_coefficient("eps", ses.C.over)
        model = dumps(verify_excision(ses, X, "coalgebra", 2).to_json())
        dims = relative_hc(ses.C, ses.K, X, "cokernel", 2)[0]
        monkeypatch.setattr(regular, "free_bases", lambda X, *pieces: None)
        assert dumps(verify_excision(ses, X, "coalgebra", 2).to_json()) == model
        assert relative_hc(ses.C, ses.K, X, "cokernel", 2)[0] == dims

    def test_free_bases_found_exactly(self):
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        X = make_coefficient("eps", ses.C.over)
        W_K, W_C, W_Q = regular.free_bases(X, ses.k_module_coalgebra(), ses.C, ses.quotient)
        assert (len(W_K), len(W_C), len(W_Q)) == (1, 2, 1)
        plain = parse_input(str(FIXTURES / "grouplike_counit_ses.json"))
        assert regular.free_basis(plain.C.over, plain.C.dim, plain.C.action) is None
        unstable = ModComod(ses.C.over, 1, counit_action(ses.C.over, 1),
                            Matrix.zero(QQ, 2, 1))  # not stable: the coaction is zero
        assert regular.free_bases(unstable, ses.C) is None

    @pytest.mark.parametrize("W", [[0], [0, 1]])
    def test_w_not_a_basis_rejected(self, W):
        # one vector cannot span a 4-dimensional module over a 2-dimensional
        # B; l.e and l.g1 span only the summand B l.e
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        X = make_coefficient("eps", ses.C.over)
        match = "cannot make" if len(W) == 1 else "do not make the bicomodule free"
        with pytest.raises(ShapeMismatch, match=match):
            regular.free_model(ses.C, X, W, 2)

    @staticmethod
    def _unchecked(monkeypatch, every_model_is_the_descended_module):
        """The package's builder and comparison writer, without the session's oracle."""
        build, compare = every_model_is_the_descended_module
        monkeypatch.setattr(regular, "free_model", build)
        monkeypatch.setattr(regular.Untwist, "comparison", compare)

    @pytest.mark.parametrize("piece, check", [
        ("sub", "chain map does not commute"),  # CH(C, K), no tau: the squares of f2 and g1
        # CH(C, C/K), no tau: g2's square out of degree 2, as g2 is onto; f1
        # ends at degree 2, where CH(C/K) ends
        pytest.param("quotient", "chain map does not commute at degree 2",
                     id="quotient-chain map does not commute"),
        # CH(C), with tau through degree 2 and none into the top: g1's square
        # out of degree 2, the first map into CH(C)
        pytest.param("regular", "chain map does not commute at degree 2",
                     id="regular-chain map does not commute"),
    ])
    def test_top_coface_bump_rejected(self, monkeypatch, every_model_is_the_descended_module,
                                      every_coface_identity_holds, piece, check):
        # the last coface into the top degree bumped at an entry that every
        # coface identity misses; the named check rejects it
        self._unchecked(monkeypatch, every_model_is_the_descended_module)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        X = make_coefficient("eps", ses.C.over)
        W_K, W_C, W_Q = regular.free_bases(X, ses.k_module_coalgebra(), ses.C, ses.quotient)
        M, W = {"sub": (theorems._sub_bicomodule(ses), W_K),
                "quotient": (theorems._quotient_bicomodule(ses), W_Q),
                "regular": (None, W_C)}[piece]
        target = regular.Untwist(ses.C, X, W, M).left
        real = regular._model_cofaces
        top = 3  # maxdeg 1: CH(C), CH(C, K) and CH(C, C/K) through degree 3
        clean = real(regular.Untwist(ses.C, X, W, M), top - 1)
        bump = next((r, c) for r in range(clean[-1].rows) for c in range(clean[-1].cols)
                    if self._unseen(every_coface_identity_holds, ses.C, X, W, M, top, (r, c)))

        def bumped(u, n):
            faces = real(u, n)
            if n == top - 1 and u.C is ses.C and u.left == target:
                faces[-1] = _bump(faces[-1], *bump)
            return faces

        monkeypatch.setattr(regular, "_model_cofaces", bumped)
        with pytest.raises(ShapeMismatch, match=check):
            verify_excision(ses, X, "coalgebra", 1)

    @staticmethod
    def _unseen(reduced_check, C, X, W, M, top, entry):
        """True iff the last coface into ``top``, bumped at ``entry``, passes the coface check."""
        u = regular.Untwist(C, X, W, M)
        cofaces = [regular._model_cofaces(u, n) for n in range(top)]
        cofaces[-1][-1] = _bump(cofaces[-1][-1], *entry)
        dims = [X.dim * len(W) * C.dim ** n for n in range(top + 1)]
        try:
            reduced_check(CocyclicModule(C.over.field, C.over, dims, cofaces), u.slotted_d0)
        except IdentityViolation:
            return False
        return True

    def test_perturbed_tau_rejected(self, monkeypatch, every_model_is_the_descended_module):
        self._unchecked(monkeypatch, every_model_is_the_descended_module)
        real = regular._model_rotation
        monkeypatch.setattr(regular, "_model_rotation",
                            lambda u, n: _bump(real(u, n)) if n == 2 else real(u, n))
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        # every leg of tau on Z_2 is grouplike: tau^{n+1} = id is formed
        # through degree 1 only, and tau d_1 = d_0 tau rejects tau_2
        with pytest.raises(IdentityViolation, match="'tau d_1 = d_0 tau' fails in degree 2"):
            verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)

    @pytest.mark.parametrize("which", [0, 1, 2, 3, 4, 5])
    def test_perturbed_comparison_map_rejected(self, monkeypatch,
                                               every_model_is_the_descended_module, which):
        # f1, f2, g1, g2, u and v in the order excision writes them, each
        # bumped in degree 1: its own ChainMap squares reject it
        self._unchecked(monkeypatch, every_model_is_the_descended_module)
        real = regular.Untwist.comparison
        calls = []

        def bumped(src, dst, m_map, c_map, top):
            comps = real(src, dst, m_map, c_map, top)
            calls.append(None)
            if len(calls) == which + 1:
                comps[1] = _bump(comps[1])
            return comps

        monkeypatch.setattr(regular.Untwist, "comparison", bumped)
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"))
        with pytest.raises(ShapeMismatch, match="chain map does not commute"):
            verify_excision(ses, make_coefficient("eps", ses.C.over), "coalgebra", 1)
        assert len(calls) == which + 1

    @pytest.mark.parametrize("kind", ["eps", "unit", "r_ad", "ad_r"])
    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    def test_every_comparison_equals_both_oracles(self, monkeypatch, field, kind):
        # the session's writer checks each degree against the map written
        # leg by leg and against the descended map; here on f1, f2, g1, g2,
        # u and v of excision at degree 2 and on the cokernel's map at
        # degree 3, through degree 4
        real = regular.Untwist.comparison
        tops = []
        monkeypatch.setattr(regular.Untwist, "comparison",
                            lambda *args: tops.append(args[-1]) or real(*args))
        ses = parse_input(str(FIXTURES / "direct_sum_ses.json"), field)
        X = make_coefficient(kind, ses.C.over)
        verify_excision(ses, X, "coalgebra", 2)
        theorems._cokernel_cyclic_dims(ses, X, 3)
        assert tops == [3, 4, 4, 4, 4, 3, 4]


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
        from hopfcyclic.equivariant import regular_comodule_algebra
        from lemmas import direct_sum_comodule_algebras

        A1 = regular_comodule_algebra(z2_q)
        A = direct_sum_comodule_algebras(A1, A1)
        ses = AlgebraSES(A, Matrix.from_entries(QQ, 4, 2,
                                                [(0, 0, QQ.one), (1, 1, QQ.one)]))
        X = make_coefficient("eps", z2_q)
        rep = verify_excision(ses, X, "algebra", 3)
        assert rep.all_pass
        assert hypothesis(rep, "I and A co-projective over B").verdict == "PASS"

    def test_slot_map_leaving_the_cotensor_subspace_rejected(self, z2_q):
        A = ComoduleAlgebra(z2_q, z2_q, z2_q.comult)
        X = make_coefficient("eps", z2_q)
        cm = complexes.assemble("algebra", A, X, 2)
        ident = theorems._cyclic_map_components(cm, cm, X, Matrix.identity(QQ, 2), 2)
        assert all(ident[n] == Matrix.identity(QQ, cm.dims[n]) for n in range(3))
        # the flip e <-> g is no comodule map: it sends e, whose coaction is
        # trivial, to g, whose coaction is not
        flip = Matrix.from_entries(QQ, 2, 2, [(0, 1, QQ.one), (1, 0, QQ.one)])
        with pytest.raises(ShapeMismatch, match="leaves the cotensor subspace at degree 0"):
            theorems._cyclic_map_components(cm, cm, X, flip, 2)

    def test_non_subcomodule_ideal_rejected(self, z4_q):
        # the ideal generated by g^2 - e in k[Z/4] is not a right subcomodule,
        # so the quotient coaction is representative-dependent
        from hopfcyclic.errors import ShapeMismatch
        from hopfcyclic.equivariant import regular_comodule_algebra

        A = regular_comodule_algebra(z4_q)
        gens = Matrix.from_entries(QQ, 4, 1, [(2, 0, QQ.one), (0, 0, QQ.parse(-1))])
        with pytest.raises(ShapeMismatch):
            AlgebraSES(A, gens)

    def test_h_unitality_probe(self, z2_q):
        # the group algebra is unital, hence H-unital
        assert theorems.h_unitality_probe(z2_q, 3) == [0, 0, 0]

    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    def test_h_unitality_probe_of_a_square_zero_ideal(self, field):
        # I = (x) in k[Z/2][x]/(x^2) has I^2 = 0, so b' vanishes on I^{(x) n}
        ses = parse_input(str(FIXTURES / "z2_dual_numbers_ses.json"), field)
        assert theorems.h_unitality_probe(ses.ideal.base, 2) == [2, 4]
        report = verify_excision(ses, make_coefficient("eps", ses.A.over), "algebra", 0)
        assert hypothesis(report, "I H-unital").verdict == "FAIL"

    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    @pytest.mark.parametrize("fixture", ["z2_product_algebra_ses.json",
                                         "z2_dual_numbers_ses.json"])
    def test_h_unitality_probe_is_the_algebra_bar_complex(self, fixture, field):
        # the probe reads the bar complex of the dual coalgebra, with no
        # counit; every_unitality_probe_is_the_algebra_bar_complex compares
        # each call with (I^{(x) n}, b') built on I
        ses = parse_input(str(FIXTURES / fixture), field)
        for alg, m in itertools.product((ses.ideal, ses.A, ses.quotient), (1, 2, 4)):
            assert len(theorems.h_unitality_probe(alg.base, m)) == m


class TestExcisionDepths:
    """Each excision driver builds every module exactly as deep as it is read."""

    FIXTURE = {"coalgebra": "direct_sum_ses.json", "algebra": "z2_product_algebra_ses.json"}

    @classmethod
    def _run(cls, side, field, maxdeg):
        ses = parse_input(str(FIXTURES / cls.FIXTURE[side]), field)
        X = make_coefficient("eps", (ses.C if side == "coalgebra" else ses.A).over)
        return verify_excision(ses, X, side, maxdeg)

    @staticmethod
    def _shifted(monkeypatch, which, by):
        real = theorems._excision_depths

        def shifted(orientation, maxdeg):
            depths = list(real(orientation, maxdeg))
            depths[which] += by
            return tuple(depths)

        monkeypatch.setattr(theorems, "_excision_depths", shifted)

    @pytest.mark.parametrize("maxdeg", [0, 1, 2, 3])
    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    @pytest.mark.parametrize("side, which, message", [
        # CH(K) one short: the Hochschild triple complex reads it through maxdeg + 3
        pytest.param("coalgebra", 0,
                     "triple complex certified through {m1}, asked for verdicts through {m}",
                     id="K"),
        # CH(C) and the comparisons one short: the cone of CH(C, C/K) -> CH(C/K)
        pytest.param("coalgebra", 1,
                     "cone certified through degree {m}, asked for verdicts through {m}",
                     id="C"),
        # CH(C/K) and CM(C/K) one short: the cone of CH(C, C/K) -> CH(C/K)
        # reads it through maxdeg + 1, as do both triple complexes
        pytest.param("coalgebra", 2,
                     "cone certified through degree {m}, asked for verdicts through {m}",
                     id="C/K"),
        # CM(I) one short: its total through maxdeg + 1, for its cyclic dims
        pytest.param("algebra", 0,
                     "total degree {m1} needs internal degree {m1}, built through {m}", id="I"),
        # CM(A) or CM(A/I) one short: the triple complex
        pytest.param("algebra", 1,
                     "triple complex certified through {m}, asked for verdicts through {m}",
                     id="A"),
        pytest.param("algebra", 2,
                     "triple complex certified through {m}, asked for verdicts through {m}",
                     id="A/I"),
    ])
    def test_each_depth_is_read(self, monkeypatch, side, which, message, field, maxdeg):
        self._shifted(monkeypatch, which, -1)
        text = message.format(m=maxdeg, m1=maxdeg + 1)
        with pytest.raises(DegreeOutOfRange, match=f"^{text}$"):
            self._run(side, field, maxdeg)

    @pytest.mark.parametrize("maxdeg", [0, 1, 2, 3])
    @pytest.mark.parametrize("field", ["Q", "Fp:2", "Fp:3"])
    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_algebra_report_same_one_degree_deeper(self, monkeypatch, which, field, maxdeg):
        built = dumps(self._run("algebra", field, maxdeg).to_json())
        self._shifted(monkeypatch, which, +1)
        assert dumps(self._run("algebra", field, maxdeg).to_json()) == built


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
            [(0, 0, QQ.one), (2, 0, QQ.parse(-1)),
             (1, 1, QQ.one), (3, 1, QQ.parse(-1))])
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

    @pytest.mark.parametrize("fixture", ["direct_sum_ses.json", "grouplike_counit_ses.json"])
    def test_cokernel_writes_no_tau_for_k(self, monkeypatch, capsys, fixture):
        # CM(K) is read only by its Hochschild comparison into CM(C): on the
        # model path (direct_sum_ses) and on the descended one
        # (grouplike_counit_ses) no rotation is written or induced for it,
        # while CM(C), the cokernel and CM(C/K) get theirs
        ks, inside, taus = [], [], collections.Counter()
        k_mc, build = equivariant.CoalgebraSES.k_module_coalgebra, theorems.coinvariant_ch
        with_tau, rotation = CocyclicModule.with_tau, regular._model_rotation

        def kept(ses):
            ks.append(k_mc(ses))
            return ks[-1]

        def tracked(C, *args, **kwargs):
            inside.append(any(C is k for k in ks))
            try:
                return build(C, *args, **kwargs)
            finally:
                inside.pop()

        def counted_with_tau(cm, t):
            taus["K" if any(inside) else "other"] += 1
            return with_tau(cm, t)

        def counted_rotation(u, n):
            taus["K" if any(u.C is k for k in ks) else "other"] += 1
            return rotation(u, n)

        monkeypatch.setattr(equivariant.CoalgebraSES, "k_module_coalgebra", kept)
        monkeypatch.setattr(theorems, "coinvariant_ch", tracked)
        monkeypatch.setattr(CocyclicModule, "with_tau", counted_with_tau)
        monkeypatch.setattr(regular, "_model_rotation", counted_rotation)
        assert main(["relative", str(FIXTURES / fixture), "--mode", "cokernel",
                     "--max-degree", "2", "--json"]) == 0
        capsys.readouterr()
        assert ks and taus["K"] == 0 and taus["other"], taus

    def test_cokernel_refuses_an_unstable_coefficient_first(self, monkeypatch):
        # CM(K), built with no tau, takes an unstable X; CM(C), built first
        # on the descended path, refuses it before any complex is built
        ses = parse_input(str(FIXTURES / "grouplike_counit_ses.json"))
        B = ses.C.over
        X = ModComod(B, 1, counit_action(B, 1), Matrix.zero(B.field, B.dim, 1))
        built = []
        monkeypatch.setattr(complexes, "descended_ch", lambda *args: built.append(args))
        with pytest.raises(NotStable, match="coefficient is not stable"):
            theorems._cokernel_cyclic_dims(ses, X, 1)
        assert not built

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
        J = Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one), (1, 0, QQ.parse(-1))])
        rep = special_checks("commutative_hopf", {"B": z2_q, "J": J, "X": k_eps_z2}, 4)
        assert rep.all_pass
        assert [d.dims["HC"] for d in rep.degrees] == [1, 0, 1, 0, 1]

    def test_cocommutative_hopf(self, z4_q):
        K = _two_sided_ideal_closure(
            z4_q, Matrix.from_entries(QQ, 4, 1, [(2, 0, QQ.one), (0, 0, QQ.parse(-1))]))
        X = make_coefficient("eps", z4_q)
        rep = special_checks("cocommutative_hopf", {"B": z4_q, "K": K, "X": X}, 4)
        assert rep.all_pass

    @staticmethod
    def ideal_verdicts(B, J, want_antipode_stable=False):
        report = TheoremReport("bialgebra ideal")
        ok = theorems._bialgebra_ideal_checks(B, J, report, want_antipode_stable)
        return ok, {h.name: h.verdict for h in report.hypotheses}

    def test_ideal_checks_refuse_a_non_ideal(self, z2_q):
        # span{e}: g e = g leaves it; it is a coideal, Delta e = e (x) e
        ok, verdicts = self.ideal_verdicts(z2_q, Matrix.from_entries(QQ, 2, 1, [(0, 0, QQ.one)]))
        assert not ok
        assert verdicts == {"J is a two-sided ideal": "FAIL",
                            "J is a two-sided coideal": "PASS",
                            "counit vanishes on J": "FAIL"}

    def test_ideal_checks_refuse_a_non_coideal(self, z4_q):
        # x = (e - g)(e + g^2) spans an ideal (g x = -x) killed by the counit,
        # but no Hopf ideal of k[Z/4] has dimension 1
        x = [(0, 0, QQ.one), (1, 0, -QQ.one), (2, 0, QQ.one), (3, 0, -QQ.one)]
        ok, verdicts = self.ideal_verdicts(z4_q, Matrix.from_entries(QQ, 4, 1, x))
        assert not ok
        assert verdicts == {"J is a two-sided ideal": "PASS",
                            "J is a two-sided coideal": "FAIL",
                            "counit vanishes on J": "PASS"}

    def test_ideal_checks_refuse_an_antipode_unstable_span(self, z4_q):
        # span{g - e} is a coideal killed by the counit; S(g - e) = g^3 - e
        J = Matrix.from_entries(QQ, 4, 1, [(1, 0, QQ.one), (0, 0, -QQ.one)])
        ok, verdicts = self.ideal_verdicts(z4_q, J, want_antipode_stable=True)
        assert not ok
        assert verdicts == {"J is a two-sided ideal": "FAIL",
                            "J is a two-sided coideal": "PASS",
                            "counit vanishes on J": "PASS",
                            "antipode preserves J": "FAIL"}

    def test_ideal_checks_pass_a_hopf_ideal(self, z4_q):
        J = _two_sided_ideal_closure(
            z4_q, Matrix.from_entries(QQ, 4, 1, [(2, 0, QQ.one), (0, 0, -QQ.one)]))
        ok, verdicts = self.ideal_verdicts(z4_q, J, want_antipode_stable=True)
        assert ok and set(verdicts.values()) == {"PASS"} and len(verdicts) == 4

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
        doc = json.loads(dumps(rep.to_json()))
        assert doc["theorem"] == "excision/coalgebra"
        assert {h["name"] for h in doc["hypotheses"]} >= {"antipode invertible"}
        assert all("verdict" in d for d in doc["degrees"])
