import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import group_algebra, sweedler_h4, trivial_hopf
from hopfcyclic.equivariant import (
    direct_sum_module_coalgebras,
    make_coefficient,
    quotient_ses,
    regular_module_coalgebra,
)
from hopfcyclic import complexes, regular
from hopfcyclic.linalg import Matrix

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
    (every twisted CH complex and model of a regular module coalgebra) also
    passes every coface identity d_j d_i = d_i d_{j-1}, the full loop of
    which the reduced check proves the rest implied
    (``oracles.all_coface_identities``). Both names are wrapped: the one in
    ``complexes`` and the one ``regular`` imports.

    Yields the reduced check, for a test of what it alone rejects."""
    reduced = complexes._check_coface_identities

    def check(cm):
        reduced(cm)
        assert oracles.all_coface_identities(cm), "a coface identity fails that the check passed"

    complexes._check_coface_identities = regular._check_coface_identities = check
    yield reduced
    complexes._check_coface_identities = regular._check_coface_identities = reduced


@pytest.fixture(scope="session", autouse=True)
def every_regular_model_is_the_descended_module():
    """Each cocyclic module that ``regular_cocyclic_module`` builds in a test
    is isomorphic to the descended module of the same triple by the class of
    x (x) v -> x (x) c0 (x) v (``oracles.regular_isomorphism``): the map is
    invertible and intertwines every coface and tau, exactly."""
    direct = regular.regular_cocyclic_module

    def build(C, X, maxdeg):
        cm = direct(C, X, maxdeg)
        descended = complexes.assemble("coalgebra", C, X, maxdeg)
        iso = oracles.regular_isomorphism(C, regular.regular_grouplike(C), X,
                                          descended.quotients)
        assert oracles.is_cocyclic_isomorphism(iso, cm, descended), \
            "the model is not the descended module"
        return cm

    regular.regular_cocyclic_module = build
    yield
    regular.regular_cocyclic_module = direct


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
