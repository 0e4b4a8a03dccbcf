"""Assembled hypothesis systems against their hand-indexed oracles.

``solve_matrix_system``, ``find_integral``, ``counit_action``,
``unit_coaction``, the ideal closure and the three direct sums are built
from ``kron``, ``wire``, ``column_blocks`` and one ``solve_columns`` call.
Each must equal, entry for entry, the hand-indexed coefficient loops kept in
``tests/oracles.py``, over Q, F_2 and F_3: a solve depends only on the row
space of its equations and the order of its unknowns, so reordering the
rows may not change a single entry.
"""

import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic.cli import parse_input
from hopfcyclic.equivariant import (
    CoalgebraSES,
    ComoduleAlgebra,
    ModuleCoalgebra,
    counit_action,
    direct_sum_coalgebras,
    direct_sum_module_coalgebras,
    regular_comodule_algebra,
    solve_matrix_system,
    unit_coaction,
)
from hopfcyclic.errors import HopfCyclicError
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import BialgebraDesc, find_integral, group_algebra, sweedler_h4
from hopfcyclic.linalg import Matrix
from hopfcyclic.theorems import AlgebraSES, _two_sided_ideal_closure

from lemmas import direct_sum_comodule_algebras
import oracles
from groups import cyclic_table

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "hopfcyclic" / "fixtures"
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}


def parsed_fixtures():
    """(name, field name, object) for every fixture document that parses over the field."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        for name, field in FIELDS.items():
            override = None if name == "Q" else f"Fp:{field.p}"
            try:
                obj = parse_input(str(path), override)
            except HopfCyclicError:  # a parameter file, or an audit that fails over this field
                continue
            out.append((path.stem, name, obj))
    return out


PARSED = parsed_fixtures()
HOPF = [(f"{stem}/{fld}", obj) for stem, fld, obj in PARSED
        if isinstance(obj, BialgebraDesc) and obj.level == "hopf"]


def module_coalgebras():
    """Every module coalgebra a fixture holds: the regular ones, C, K and C/K of each SES."""
    out = []
    for stem, fld, obj in PARSED:
        if isinstance(obj, ModuleCoalgebra):
            out.append((f"{stem}/{fld}", obj))
        elif isinstance(obj, CoalgebraSES):
            out += [(f"{stem}.C/{fld}", obj.C), (f"{stem}.C/K/{fld}", obj.quotient)]
            if obj.mode == "subcoalgebra":
                out.append((f"{stem}.K/{fld}", obj.k_module_coalgebra()))
    return out


def comodule_algebras():
    """B over itself for every Hopf fixture, and A and I of each algebra SES."""
    out = [(name, regular_comodule_algebra(B)) for name, B in HOPF]
    for stem, fld, obj in PARSED:
        if isinstance(obj, AlgebraSES):
            out += [(f"{stem}.A/{fld}", obj.A), (f"{stem}.I/{fld}", obj.ideal)]
    return out


def same_base(a, b):
    """True iff the two structures live over one field and one B, so they sum."""
    return (a.over.field == b.over.field and a.over.dim == b.over.dim
            and a.over.mult == b.over.mult and a.over.comult == b.over.comult)


def pairs(named):
    return [pytest.param(a, b, id=f"{na}+{nb}")
            for (na, a), (nb, b) in itertools.product(named, repeat=2) if same_base(a, b)]


# -- solve_matrix_system ---------------------------------------------------


@st.composite
def matrix_systems(draw):
    """(field, m, n, constraints, kind): R = sum A U B for a random U, a random
    R, or a consistent system with one constraint repeated and its R shifted
    by a nonzero matrix, which no U solves."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    scalar = st.sampled_from([0, 0, 1, -1, 2]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    U = matrix(m, n)
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        terms = [(matrix(r, m), matrix(n, c)) for _ in range(draw(st.integers(1, 2)))]
        R = Matrix.zero(field, r, c)
        for A, Bm in terms:
            R = R.add(A.mul(U).mul(Bm))
        constraints.append((terms, R))
    kind = draw(st.sampled_from(["consistent", "random", "contradiction"]))
    if kind == "random":
        constraints = [(terms, matrix(R.rows, R.cols)) for terms, R in constraints]
    elif kind == "contradiction":
        terms, R = constraints[draw(st.integers(0, len(constraints) - 1))]
        i, j = draw(st.integers(0, R.rows - 1)), draw(st.integers(0, R.cols - 1))
        shift = Matrix.from_entries(field, R.rows, R.cols, [(i, j, field.one)])
        constraints.append((terms, R.add(shift)))
    return field, m, n, constraints, kind


@given(matrix_systems())
@settings(max_examples=300, deadline=None)
def test_solve_matrix_system_equals_the_loops(case):
    field, m, n, constraints, kind = case
    U = solve_matrix_system(field, m, n, constraints)
    assert U == oracles.solve_matrix_system(field, m, n, constraints)
    if kind == "consistent":
        assert U is not None
    if kind == "contradiction":
        assert U is None
    if U is not None:
        for terms, R in constraints:
            lhs = Matrix.zero(field, R.rows, R.cols)
            for A, Bm in terms:
                lhs = lhs.add(A.mul(U).mul(Bm))
            assert lhs == R


# -- integrals --------------------------------------------------------------


@pytest.mark.parametrize("side", ["cointegral", "integral"])
@pytest.mark.parametrize("B", [pytest.param(B, id=name) for name, B in HOPF])
def test_integrals_of_every_hopf_fixture_equal_the_loops(B, side):
    assert find_integral(B, side) == oracles.find_integral(B, side)


@st.composite
def structure_constants(draw):
    """Unaudited mult, comult, unit and counit with small random entries: the
    integral systems are defined for any of them, consistent or not."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    d = draw(st.integers(1, 3))
    scalar = st.sampled_from([0, 0, 0, 1, -1]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    return BialgebraDesc(field, [f"e{i}" for i in range(d)], "bialgebra",
                         mult=matrix(d, d * d), comult=matrix(d * d, d),
                         unit=matrix(d, 1), counit=matrix(1, d), check=False)


@given(structure_constants(), st.sampled_from(["cointegral", "integral"]))
@settings(max_examples=300, deadline=None)
def test_integrals_of_random_structure_constants_equal_the_loops(B, side):
    assert find_integral(B, side) == oracles.find_integral(B, side)


# -- counit action, unit coaction, ideal closure -----------------------------


@pytest.mark.parametrize("B", [pytest.param(B, id=name) for name, B in HOPF])
def test_counit_action_and_unit_coaction_equal_the_loops(B):
    for dim in range(4):
        assert counit_action(B, dim) == oracles.counit_action(B, dim)
        assert unit_coaction(B, dim) == oracles.unit_coaction(B, dim)


@pytest.mark.parametrize("B", [pytest.param(B, id=name) for name, B in HOPF])
def test_ideal_closure_of_every_basis_difference_equals_the_loops(B):
    """The generators of the group example, e_i - e_j, on every Hopf fixture."""
    f, n = B.field, B.dim
    for i, j in itertools.combinations(range(n), 2):
        gens = Matrix.from_entries(f, n, 1, [(i, 0, f.one), (j, 0, f.neg(f.one))])
        assert _two_sided_ideal_closure(B, gens) == oracles.two_sided_ideal_closure(B, gens)


@given(st.sampled_from([sweedler_h4(QQ), sweedler_h4(GF(3)),
                        group_algebra(cyclic_table(4), GF(2))]
                       + [B for _, B in HOPF if B.dim > 1]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_ideal_closure_of_random_generators_equals_the_loops(B, data):
    f, n = B.field, B.dim
    k = data.draw(st.integers(0, 2))
    vals = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]).map(f.parse),
                              min_size=n * k, max_size=n * k))
    gens = Matrix.from_entries(f, n, k, [(t % n, t // n, v) for t, v in enumerate(vals)])
    assert _two_sided_ideal_closure(B, gens) == oracles.two_sided_ideal_closure(B, gens)


# -- direct sums --------------------------------------------------------------


@pytest.mark.parametrize("a, b", pairs(module_coalgebras()))
def test_direct_sum_of_module_coalgebras_equals_the_loops(a, b):
    got, want = direct_sum_module_coalgebras(a, b), oracles.direct_sum_module_coalgebras(a, b)
    assert got.action == want.action
    assert got.base.to_json() == want.base.to_json()
    assert direct_sum_coalgebras(a.base, b.base).to_json() == \
        oracles.direct_sum_coalgebras(a.base, b.base).to_json()


@pytest.mark.parametrize("a, b", pairs(comodule_algebras()))
def test_direct_sum_of_comodule_algebras_equals_the_loops(a, b):
    got, want = direct_sum_comodule_algebras(a, b), oracles.direct_sum_comodule_algebras(a, b)
    assert isinstance(got, ComoduleAlgebra)
    assert got.coaction == want.coaction
    assert got.base.to_json() == want.base.to_json()
