import sys
import weakref
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import group_algebra, sweedler_h4
from hopfcyclic.equivariant import (
    direct_sum_module_coalgebras,
    make_coefficient,
    quotient_ses,
    regular_module_coalgebra,
)
from hopfcyclic import complexes, regular, theorems
from hopfcyclic.linalg import Matrix, map_well_defined

from lemmas import trivial_hopf
import oracles
from groups import cyclic_table, symmetric_table


@pytest.fixture(scope="session", autouse=True)
def every_descended_tau_stops_below_the_top():
    """Each module that ``CocyclicModule.with_tau`` gives a cyclic operator in
    a test carries tau_0 ... tau_{top-1}, in the degrees that cofaces leave,
    and no tau_top: the descended path keeps the rule of the model."""
    real = complexes.CocyclicModule.with_tau

    def with_tau(cm, taus):
        out = real(cm, taus)
        assert len(out.tau) == out.top, "a descended tau does not stop below its top"
        return out

    complexes.CocyclicModule.with_tau = with_tau
    yield
    complexes.CocyclicModule.with_tau = real


@pytest.fixture(scope="session", autouse=True)
def every_face_identity_holds():
    """Each cyclic module that passes ``CyclicModule.validate`` in a test also
    passes every face identity d_i d_j = d_{j-1} d_i, the full loop that the
    reduced check proves implied (``oracles.all_face_identities``)."""
    reduced = complexes.CyclicModule.validate

    def validate(cm):
        reduced(cm)
        assert oracles.all_face_identities(cm), "a face identity fails that validate passed"

    complexes.CyclicModule.validate = validate
    yield
    complexes.CyclicModule.validate = reduced


@pytest.fixture(scope="session", autouse=True)
def every_coface_identity_holds():
    """Each degree of cofaces that passes ``_check_coface_degree`` in a test
    (every degree of every twisted CH complex and of every model of
    ``regular.free_model``, checked as it is built) also passes every coface
    identity d_j d_i = d_i d_{j-1} with the degree below, the full loop of
    which the reduced check proves the rest implied
    (``oracles.all_coface_identities``). Both names are wrapped: the one in
    ``complexes`` and the one ``regular`` imports.

    Yields the reduced check run over every degree of a module, for a test
    of what it alone rejects."""
    reduced = complexes._check_coface_degree

    def check(dims, n, faces, lower, slotted_d0=True):
        reduced(dims, n, faces, lower, slotted_d0)
        assert lower is None or oracles.all_coface_identities([lower, faces]), \
            "a coface identity fails that the check passed"

    def reduced_on_module(cm, slotted_d0=True):
        lower = None
        for n, faces in enumerate(cm.cofaces):
            reduced(cm.dims, n, faces, lower, slotted_d0)
            lower = faces

    complexes._check_coface_degree = regular._check_coface_degree = check
    yield reduced_on_module
    complexes._check_coface_degree = regular._check_coface_degree = reduced


@pytest.fixture(scope="session", autouse=True)
def every_model_is_the_descended_module():
    """Each cocyclic module that ``regular.free_model`` builds in a test (the
    model of a regular module coalgebra included) is isomorphic to the
    descended module of the same triple by Phi, the class of
    x (x) w (x) t -> x (x) w (x) t (``oracles.free_isomorphism``): the map is
    invertible and intertwines every coface and tau, exactly. And each
    degree of each comparison map that ``regular.Untwist.comparison``
    writes is the map that id_X (x) m_map (x) c_map^{(x) n} induces on the
    descended modules, moved across the two isomorphisms, and, entry for
    entry, the map written with one whole diagonal action per leg
    (``oracles.comparison_by_legs``); an untwist whose model is not built
    yet, as the cokernel's CM(C) when its quotients are formed, is
    descended for the check. Every coface that a model hands over as it
    builds each degree, and its tau, also equal, entry for entry, those
    that apply Psi with the whole diagonal action L_s of each leg
    (``oracles.is_the_applied_model``), and the b that it keeps is the
    alternating sum of its cofaces and, with tau, the last coface that it
    keeps is the last of them. A model with tau carries tau_0 ... tau_{top-1}
    and no tau_top, as a descended module does
    (``every_descended_tau_stops_below_the_top``), and passes tau^{n+1} = id
    in every degree and every tau identity on the cofaces it handed over
    wherever tau is built, the full loops of which ``regular.free_model``
    proves the rest implied (``oracles.all_tau_identities``). A model
    keeps no cofaces, so the checks that read them after the build take
    the oracle's (``oracles.model_cofaces``), which these comparisons show
    equal.

    Yields the unwrapped builder and comparison writer, for a mutant that only the
    checks of the package are to reject."""
    build, compare = regular.free_model, regular.Untwist.comparison
    descended = weakref.WeakKeyDictionary()  # untwist -> (descended module, Phi)

    def descend(u, top):
        """The descended module of ``u``'s triple through ``top``, and Phi onto it, kept."""
        if u not in descended or descended[u][0].top < top:
            C, X, M = u.C, u.X, u.M
            T = complexes.coinvariant_ch(C, X, top, M)
            descended[u] = T, oracles.free_isomorphism(X, u.embed, C.dim, T.quotients)
        return descended[u]

    def checked_build(C, X, W, maxdeg, M=None, each=None):
        built = []

        def handed(n, faces):
            built.append(faces)
            if each is not None:
                each(n, faces)

        cm = build(C, X, W, maxdeg, M, each=handed)
        assert cm.cofaces is None, "a model keeps its cofaces"
        assert cm.tau is None or len(cm.tau) == cm.top, "a model's tau does not stop below its top"
        assert cm.tau is None or oracles.all_tau_identities(cm, built), \
            "a tau identity fails that the model's checks passed"
        assert oracles.is_the_applied_model(cm, built), "the model is not Psi with whole actions"
        assert len(cm.b) == cm.top and (cm.last is None) == (cm.tau is None)
        for n, faces in enumerate(built):
            assert cm.b[n] == complexes._alternating(cm.field, faces) and (
                cm.last is None or cm.last[n] == faces[-1]), \
                f"a kept map out of degree {n} is not b or the last coface"
        T, iso = descend(cm.untwist, maxdeg)
        assert oracles.is_cocyclic_isomorphism(iso, cm, T), "the model is not the descended module"
        return cm

    def checked_comparison(src, dst, m_map, c_map, top):
        comps = compare(src, dst, m_map, c_map, top)
        assert len(comps) == top + 1, "a comparison map does not write degrees 0..top"
        (T_src, iso_src), (T_dst, iso_dst) = descend(src, top), descend(dst, top)
        for n, comp in enumerate(comps):
            assert comp == oracles.comparison_by_legs(src, dst, m_map, c_map, n), \
                f"a model comparison map is not the per-leg map in degree {n}"
            ambient = oracles.comparison_ambient(src.X.dim, m_map, c_map, n)
            induced = map_well_defined(ambient, T_src.quotients[n], T_dst.quotients[n])
            assert induced is not None and iso_dst[n].mul(comp) == induced.mul(iso_src[n]), \
                f"a model comparison map is not the descended map in degree {n}"
        return comps

    regular.free_model, regular.Untwist.comparison = checked_build, checked_comparison
    yield build, compare
    regular.free_model, regular.Untwist.comparison = build, compare


@pytest.fixture(scope="session", autouse=True)
def every_connes_complex_is_the_bicomplex():
    """Each total complex that ``complexes.connes_complex`` builds on a model
    in a test is, entry for entry and so block for block, the one of bbar and
    Bbar formed on whole degrees and restricted
    (``oracles.whole_degree_connes``); it has the
    homology of the (b, b', 1 - lambda, N) bicomplex of the same model
    (``complexes.cyclic_total_complex``) in every degree it certifies; and
    the model passes every codegeneracy identity, the full loop that
    ``complexes.codegeneracy`` proves (``oracles.all_codegeneracy_identities``).

    Yields the unwrapped builder, for a mutant that only the checks of the
    package are to reject."""
    build = complexes.connes_complex

    def checked(cm, maxtot):
        cx = build(cm, maxtot)
        assert cx.diffs == oracles.whole_degree_connes(cm, maxtot).diffs, \
            "bbar or Bbar is not the whole-degree map restricted"
        bicomplex = complexes.cyclic_total_complex(cm, maxtot)
        assert [cx.homology(n) for n in range(maxtot)] == [
            bicomplex.homology(n) for n in range(maxtot)], "Connes' complex is not the bicomplex"
        assert oracles.all_codegeneracy_identities(cm), "a codegeneracy identity fails"
        return cx

    complexes.connes_complex = checked
    yield build
    complexes.connes_complex = build


@pytest.fixture(scope="session", autouse=True)
def every_cyclic_excision_is_the_bicomplex_triple():
    """Each coalgebra excision in a test gives, from the column filtration of
    ``theorems._cyclic_excision``, the cyclic verdicts and the cyclic dims of
    K, C and C/K that the triple complex of the three (b, b', 1 - lambda, N)
    totals gives (``oracles.bicomplex_cyclic_excision``).

    Yields the unwrapped function, for a mutant that only its checks are to
    reject."""
    derive = theorems._cyclic_excision

    def checked(T_K, T_C, T_Q, u, v, hoch_ok, maxdeg):
        out = derive(T_K, T_C, T_Q, u, v, hoch_ok, maxdeg)
        assert out == oracles.bicomplex_cyclic_excision(T_K, T_C, T_Q, u, v, maxdeg), \
            "the column filtration's cyclic verdicts or dims are not the bicomplex triple's"
        return out

    theorems._cyclic_excision = checked
    yield derive
    theorems._cyclic_excision = derive


@pytest.fixture(scope="session", autouse=True)
def every_cone_is_the_nested_cone():
    """Each mapping cone and triple complex that ``theorems.mapping_cone``
    writes in one block pass in a test has the dims and, entry for entry,
    the differentials of the cone written block by block and of the triple
    complex built as the cone of cone(u) -> Z' (``oracles.nested_cone``).

    Yields the unwrapped builder, for a test that compares it directly."""
    build = theorems.mapping_cone

    def checked(*maps):
        D = build(*maps)
        assert (D.dims, D.diffs) == oracles.nested_cone(*maps), \
            "the one-pass cone is not the nested cone"
        return D

    theorems.mapping_cone = checked
    yield build
    theorems.mapping_cone = build


@pytest.fixture(scope="session")
def z2_q():
    return group_algebra(cyclic_table(2), QQ)


@pytest.fixture(scope="session")
def z4_q():
    return group_algebra(cyclic_table(4), QQ)


@pytest.fixture(scope="session")
def s3_q():
    return group_algebra(symmetric_table(3), QQ)


@pytest.fixture(scope="session")
def h4_q():
    return sweedler_h4(QQ)


@pytest.fixture(scope="session")
def k_q():
    return trivial_hopf(QQ)


@pytest.fixture(scope="session")
def direct_sum_ses_q(z2_q):
    C1 = regular_module_coalgebra(z2_q)
    C = direct_sum_module_coalgebras(C1, C1)
    K = Matrix.from_entries(QQ, 4, 2, [(0, 0, QQ.one), (1, 1, QQ.one)])
    return quotient_ses(C, K, "subcoalgebra")


@pytest.fixture(scope="session")
def k_eps_z2(z2_q):
    return make_coefficient("eps", z2_q)
