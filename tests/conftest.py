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
    regular_bicomodule,
    regular_module_coalgebra,
)
from hopfcyclic import complexes, regular
from hopfcyclic.linalg import Matrix, map_well_defined

from lemmas import trivial_hopf
import oracles
from groups import cyclic_table, symmetric_table


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
    """Each cocyclic module that passes ``_check_coface_identities`` in a test
    (every twisted CH complex and every model of ``regular.free_model``) also
    passes every coface identity d_j d_i = d_i d_{j-1}, the full loop of
    which the reduced check proves the rest implied
    (``oracles.all_coface_identities``). Both names are wrapped: the one in
    ``complexes`` and the one ``regular`` imports.

    Yields the reduced check, for a test of what it alone rejects."""
    reduced = complexes._check_coface_identities

    def check(cm, slotted_d0=True):
        reduced(cm, slotted_d0)
        assert oracles.all_coface_identities(cm), "a coface identity fails that the check passed"

    complexes._check_coface_identities = regular._check_coface_identities = check
    yield reduced
    complexes._check_coface_identities = regular._check_coface_identities = reduced


@pytest.fixture(scope="session", autouse=True)
def every_model_is_the_descended_module():
    """Each cocyclic module that ``regular.free_model`` builds in a test (the
    model of a regular module coalgebra included) is isomorphic to the
    descended module of the same triple by Phi, the class of
    x (x) w (x) t -> x (x) w (x) t (``oracles.free_isomorphism``): the map is
    invertible and intertwines every coface and tau, exactly. And each
    comparison map that ``regular.Untwist.map_to`` writes between two models
    is the map that id_X (x) m_map (x) c_map^{(x) n} induces on the
    descended modules, moved across the two isomorphisms.

    Yields the unwrapped builder and map writer, for a mutant that only the
    checks of the package are to reject."""
    build, map_to = regular.free_model, regular.Untwist.map_to
    descended = weakref.WeakKeyDictionary()  # untwist -> (descended module, Phi)

    def checked_build(C, X, W, maxdeg, M=None):
        cm = build(C, X, W, maxdeg, M)
        T = complexes.induced_complex(
            complexes.twisted_ch(C, M or regular_bicomodule(C), X, maxdeg), X, check_flags=False)
        if M is None:
            T = complexes.assemble("coalgebra", C, X, maxdeg, descended=T)
        iso = oracles.free_isomorphism(X, cm.untwist.embed, C.dim, T.quotients)
        assert oracles.is_cocyclic_isomorphism(iso, cm, T), "the model is not the descended module"
        descended[cm.untwist] = (T, iso)
        return cm

    def checked_map_to(src, dst, m_map, c_map, n):
        comp = map_to(src, dst, m_map, c_map, n)
        (T_src, iso_src), (T_dst, iso_dst) = descended[src], descended[dst]
        ambient = oracles.comparison_ambient(src.X.dim, m_map, c_map, n)
        induced = map_well_defined(ambient, T_src.quotients[n], T_dst.quotients[n])
        assert induced is not None and iso_dst[n].mul(comp) == induced.mul(iso_src[n]), \
            "a model comparison map is not the descended map"
        return comp

    regular.free_model, regular.Untwist.map_to = checked_build, checked_map_to
    yield build, map_to
    regular.free_model, regular.Untwist.map_to = build, map_to


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
