"""The tensor-wiring builder against the reference Kronecker/permutation forms.

Every structure map the engine writes with ``linalg.wire``,
``complexes._diagonal_action`` or as the Kronecker blocks of
``complexes.total_coactions`` must equal, entry for entry, the same map
composed from Kronecker products, slot permutation matrices and matrix
products (``tests/oracles.py``); the blocks also equal the total coaction
wired one degree at a time. The mutation tests check that a
mis-wired builder does not get through construction. ``linalg.wire``
itself equals, on random wirings, the planner that walks every basis
tuple through every step (``oracles.planned_wire``).
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic import complexes, equivariant, hopf
from hopfcyclic.cli import parse_input
from hopfcyclic.complexes import (
    _algebra_rotation,
    _ambient_cofaces,
    _coalgebra_rotation,
    _diagonal_action,
    _wrap_coface,
    assemble,
    comodule_coinvariants,
    homology,
    total_coactions,
)
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    EquivariantBicomodule,
    ModuleCoalgebra,
    action_of_vector,
    make_coefficient,
    regular_bicomodule,
    regular_comodule_algebra,
    regular_module_coalgebra,
)
from hopfcyclic.errors import IdentityViolation, ShapeMismatch
from hopfcyclic.fields import GF, QQ
from hopfcyclic.hopf import audit, group_algebra, sweedler_h4
from hopfcyclic.linalg import Matrix, slotted, wire

import lemmas
from lemmas import _ch_cofaces, diagonal_action, doi_check, dual_group_algebra, shear_map
import oracles
from groups import cyclic_table

BIALGEBRAS = {
    "H4": sweedler_h4,
    "Z3": lambda f: group_algebra(cyclic_table(3), f),
    "dual Z3": lambda f: dual_group_algebra(cyclic_table(3), f),
}
FIELDS = {"Q": QQ, "F2": GF(2), "F3": GF(3)}
COEFFICIENTS = ("eps", "unit", "r_ad", "ad_r")
TOP = 3


def spy(monkeypatch, module):
    """Record every operator ``module.wire`` builds, keyed by its wiring."""
    seen = {}
    real = module.wire

    def recording(field, dims, spec, *steps):
        M = real(field, dims, spec, *steps)
        seen.setdefault(spec, []).append(M)
        return M

    monkeypatch.setattr(module, "wire", recording)
    return seen


class TestWire:
    def test_flip_is_the_swap(self):
        for m, n in ((1, 3), (2, 3), (3, 2)):
            got = wire(QQ, {"v": m, "w": n}, "v w -> w v")
            assert got == oracles.swap_matrix(QQ, m, n)

    def test_reorders_like_a_slot_permutation(self):
        dims = [2, 3, 1, 2]
        names = ["a", "b", "c", "d"]
        for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [1, 3, 2, 0]):
            spec = " ".join(names) + " -> " + " ".join(names[p] for p in perm)
            got = wire(GF(3), dict(zip(names, dims)), spec)
            assert got == oracles.permute_slots(GF(3), dims, perm)

    def test_identity_slots_match_kron_with_identities(self):
        M = Matrix.from_entries(QQ, 2, 3, [(0, 0, QQ.one), (0, 2, QQ.parse(2)),
                                           (1, 1, QQ.parse(-1))])
        for pre, post in ((1, 1), (3, 1), (1, 2), (2, 3)):
            assert slotted(QQ, pre, M, post) == oracles.slotted(QQ, pre, M, post)

    def test_vector_step_and_contraction(self, z2_q):
        # x -> (e_0 + 2 e_1) . x, and b (x) x -> eps(b) x through a covector step
        vec = {0: 1, 1: 2}
        got = action_of_vector(z2_q, z2_q.mult, 2, vec)
        assert got == oracles.action_of_vector(z2_q, z2_q.mult, 2, vec)
        eps = wire(QQ, {"b": 2, "x": 3}, "b x -> x", (z2_q.counit, "b ->"))
        assert eps == equivariant.counit_action(z2_q, 3)

    def test_wrong_tensor_shape_refused(self, z2_q):
        with pytest.raises(ShapeMismatch):
            wire(QQ, {"a": 2, "b": 3}, "a -> b", (z2_q.comult, "a -> b"))

    def test_dangling_or_unknown_legs_refused(self, z2_q):
        dims = {"a": 2, "a1": 2, "a2": 2}
        with pytest.raises(ShapeMismatch):
            wire(QQ, dims, "a -> a1", (z2_q.comult, "a -> a1 a2"))
        with pytest.raises(ShapeMismatch):
            wire(QQ, dims, "a -> a1 a2", (z2_q.comult, "a2 -> a1 a2"))


@st.composite
def random_wirings(draw):
    """(field, dims, spec, steps, on, before): 1-3 steps on legs of dims 1..3.

    A step reads 0..2 of the legs live before it (none: a vector step) and
    writes 0..2 new ones, at most four legs live at a time. A source leg
    that no step reads is an identity leg, wherever it falls in the source;
    the target is the final legs in a random order. ``on`` is None or a
    matrix on the source with some rows empty; ``before`` are the legs
    live before the last step.
    """
    field = draw(st.sampled_from(list(FIELDS.values())))
    scalar = st.sampled_from([0, 1, -1, 2]).map(field.parse)
    dims = {}

    def fresh():
        leg = f"l{len(dims)}"
        dims[leg] = draw(st.integers(1, 3))
        return leg

    def matrix(rows, cols):
        """Random entries; some matrices also store their zeros, which no product keeps."""
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        stored = draw(st.booleans())
        rd = {}
        for k, v in enumerate(vals):
            if v != field.zero or stored:
                rd.setdefault(k // cols, {})[k % cols] = v
        return Matrix(field, rows, cols, rd)

    def size(legs):
        out = 1
        for leg in legs:
            out *= dims[leg]
        return out

    src = [fresh() for _ in range(draw(st.integers(1, 4)))]
    live, steps = list(src), []
    for _ in range(draw(st.integers(1, 3))):
        before = live
        ins = draw(st.lists(st.sampled_from(live), unique=True, max_size=2)) if live else []
        rest = [leg for leg in live if leg not in ins]
        outs = [fresh() for _ in range(draw(st.integers(0, min(2, 4 - len(rest)))))]
        steps.append((matrix(size(outs), size(ins)), " ".join(ins) + " -> " + " ".join(outs)))
        live = rest + outs
    spec = " ".join(src) + " -> " + " ".join(draw(st.permutations(live)))
    on = None
    if draw(st.booleans()):
        on = matrix(size(src), draw(st.integers(0, 3)))
        empty = draw(st.sets(st.integers(0, on.rows - 1)))
        on = Matrix(field, on.rows, on.cols, {i: {j: v for j, v in r.items() if v != field.zero}
                                              for i, r in on.rowdict.items() if i not in empty})
    return field, dims, spec, steps, on, before


def _same_refusal(field, dims, spec, *steps):
    """Both wirings refuse with ShapeMismatch, and with the same message."""
    with pytest.raises(ShapeMismatch) as got:
        wire(field, dims, spec, *steps)
    with pytest.raises(ShapeMismatch) as want:
        oracles.planned_wire(field, dims, spec, *steps)
    assert str(got.value) == str(want.value)


@given(random_wirings(), st.data())
@settings(max_examples=300, deadline=None)
def test_wire_equals_the_planned_wiring(case, data):
    """``linalg.wire`` against ``oracles.planned_wire``, entry for entry, over
    Q, F_2 and F_3, with and without ``on``; and the same ShapeMismatch
    message from both on a misfit step (one reading a leg that is not live,
    writing a live one, or of the wrong shape) and on a target that leaves
    a leg unmatched."""
    field, dims, spec, steps, on, before = case
    assert wire(field, dims, spec, *steps, on=on) == \
        oracles.planned_wire(field, dims, spec, *steps, on=on)
    src, dst = spec.split("->")
    M, text = steps[-1]
    misfit = data.draw(st.sampled_from(
        [(Matrix.zero(field, 1, 1), "zz ->"), (Matrix.zero(field, M.rows + 1, M.cols), text)]
        + [(Matrix.zero(field, dims[leg], 1), "-> " + leg) for leg in before]))
    _same_refusal(field, dict(dims, zz=1), spec, *steps[:-1], misfit)
    unmatched = " ".join(dst.split()[:-1]) if dst.split() else "zz"
    _same_refusal(field, dict(dims, zz=1), src + "-> " + unmatched, *steps)


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("bname", list(BIALGEBRAS))
def test_structure_maps_equal_reference_forms(bname, fname, monkeypatch):
    """Every ported operator against its oracle, coefficients eps/unit/r_ad/ad_r, n = 0..3."""
    f = FIELDS[fname]
    B = BIALGEBRAS[bname](f)
    d = B.dim
    sinv = B.inverse_antipode
    mc = regular_module_coalgebra(B)
    M = regular_bicomodule(mc)
    A = regular_comodule_algebra(B)
    for n in range(TOP + 1):
        factors = [(d, mc.action)] * (n + 1)
        assert diagonal_action(B, factors) == oracles.diagonal_action(B, factors)
    built = spy(monkeypatch, equivariant)
    for kind in COEFFICIENTS:
        X = make_coefficient(kind, B)
        x = X.dim
        if kind == "r_ad":
            assert X.coaction == oracles.r_ad_coaction(B, sinv)
        if kind == "ad_r":
            assert X.action == oracles.ad_r_action(B, sinv)
        assert built.pop("b x -> q y") == [oracles.ayd_rhs(X, sinv)]
        mixed = [(x, X.action), (d, mc.action), (d, mc.action), (x, X.action)]
        assert diagonal_action(B, mixed) == oracles.diagonal_action(B, mixed)
        rho_x = oracles.right_coaction_of_modcomod(X)
        coactions = total_coactions(A, X, TOP)
        for n in range(TOP + 1):
            full = oracles.twisted_actions(B, M, mc, X, n)
            factors = [(d, M.action)] + [(d, mc.action)] * n
            assert diagonal_action(B, factors, coefficient=(x, X.action)) == full, (kind, n)
            assert _diagonal_action(B, factors, (x, X.action), B.algebra_generators) == {
                g: full[g] for g in B.algebra_generators}, (kind, n)
            assert _wrap_coface(mc, M, X, d**n) == oracles.wrap_coface(mc, M, X, n)
            if n < TOP:
                faces = _ambient_cofaces(mc, M, X, n)
                assert faces[0] == oracles.slotted(f, x, M.right_coaction, d**n)
                for j in range(1, n + 1):
                    assert faces[j] == oracles.slotted(f, x * d**j, mc.base.comult, d**(n - j))
                assert faces[n + 1] == oracles.wrap_coface(mc, M, X, n)
            assert _coalgebra_rotation(mc, X, d**n) == oracles.coalgebra_rotation(mc, X, n)
            assert _algebra_rotation(A, X, d**n) == oracles.algebra_rotation(A, X, n)
            factors = [(d, A.coaction)] * (n + 1) + [(x, rho_x)]
            assert oracles.from_blocks(next(coactions)) == \
                oracles.diagonal_right_coaction(B, factors)
        vec = sinv.col(d - 1)
        assert action_of_vector(B, X.action, x, vec) == \
            oracles.action_of_vector(B, X.action, x, vec)


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("bname", list(BIALGEBRAS))
def test_audit_and_comparison_maps_equal_reference_forms(bname, fname, monkeypatch):
    f = FIELDS[fname]
    B = BIALGEBRAS[bname](f)
    d = B.dim
    built = spy(monkeypatch, hopf)
    assert audit(B, "hopf").ok
    assert built["a b -> p q"] == [oracles.bialgebra_rhs(B)]

    built = spy(monkeypatch, equivariant)
    mc = ModuleCoalgebra(B, B, B.mult)
    ca = ComoduleAlgebra(B, B, B.comult)
    m = EquivariantBicomodule(mc, d, B.mult, B.comult, B.comult)
    assert built["b c -> p q"] == [oracles.module_coalgebra_rhs(mc)]
    assert built["a e -> p q"] == [oracles.comodule_algebra_rhs(ca)]
    left, right = oracles.bicomodule_rhs(m)
    assert built["b m -> p q"] == [left]
    assert built["b m -> q p"] == [right]

    for n in range(TOP):
        faces = _ch_cofaces(B, (d, B.comult, B.comult), n + 1)
        assert faces[n][n + 1] == oracles.ch_wrap(B, d, B.comult, n)
    built = spy(monkeypatch, lemmas)
    assert doi_check(B, (d, B.comult, B.comult), TOP - 1)
    for n in range(TOP):
        rho_m, lam_w, phi = oracles.doi_maps(B, d, B.comult, B.comult, n)
        assert built["m -> m0 cr cl"] == [rho_m]
        assert built["w1 t wl -> cl cr u t v"][n] == lam_w
        assert built["m t -> m0 cr t cl"][n] == phi
    for n in (1, 2, 3):
        assert shear_map(n, B) == oracles.shear_maps(n, B)


# ---------------------------------------------------------------------------
# Mutants: a mis-wired builder must not get through construction
# ---------------------------------------------------------------------------


def _sweedler_triple():
    h4 = sweedler_h4(QQ)
    return regular_module_coalgebra(h4), make_coefficient("r_ad", h4)


CLI_FIELDS = {"Q": "Q", "F2": "Fp:2", "F3": "Fp:3"}
SES = Path(__file__).parent.parent / "src" / "hopfcyclic" / "fixtures" / \
    "z2_product_algebra_ses.json"
COMODULES = {
    "A": lambda f: parse_input(str(SES), CLI_FIELDS[f]).A,
    "I": lambda f: parse_input(str(SES), CLI_FIELDS[f]).ideal,
    "A/I": lambda f: parse_input(str(SES), CLI_FIELDS[f]).quotient,
    # coactions that are not gradings: each column of Delta has several entries
    "H4": lambda f: regular_comodule_algebra(sweedler_h4(FIELDS[f])),
    "dual Z3": lambda f: regular_comodule_algebra(
        dual_group_algebra(cyclic_table(3), FIELDS[f])),
}


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("cname", list(COMODULES))
def test_block_coaction_and_its_coinvariants_equal_the_wire_form(cname, fname):
    """Kronecker blocks of the total coaction against the wire built one degree at a time.

    The comodules of the algebra-side excision of ``z2_product_algebra_ses``
    and two regular comodule algebras whose coaction is no grading, with
    the coefficients eps and r_ad, in degrees 0..3, entry for entry; the
    coinvariant kernel read off the stacked blocks against the one of
    rho - id (x) 1.
    """
    A = COMODULES[cname](fname)
    B = A.over
    for kind in ("eps", "r_ad"):
        X = make_coefficient(kind, B)
        wired = oracles.wire_total_coactions(A, X, TOP)
        for n, blocks in enumerate(total_coactions(A, X, TOP)):
            rho = next(wired)
            assert rho.cols == A.dim ** (n + 1) * X.dim
            assert oracles.from_blocks(blocks) == rho, (kind, n)
            assert comodule_coinvariants(B.unit, blocks) == oracles.coinvariants_of(B, rho), \
                (kind, n)


@pytest.mark.parametrize("fname", ["Q", "F2"])
@pytest.mark.parametrize("cname", list(COMODULES))
def test_coinvariant_rows_handed_to_elimination_are_pairwise_independent(cname, fname,
                                                                         monkeypatch):
    """No row of the stacked C_p - u_p I reaches the elimination twice, up to a scalar.

    The kernel stays the one of rho - id (x) 1, entry for entry, so no row
    space is lost. The comodules of ``z2_product_algebra_ses`` are graded:
    every row comes twice up to sign, and every row that is kept raises the
    rank.
    """
    A = COMODULES[cname](fname)
    B = A.over
    f = B.field
    stacked = []
    real = complexes.rank_kernel
    monkeypatch.setattr(complexes, "rank_kernel", lambda M: stacked.append(M) or real(M))
    for kind in ("eps", "r_ad"):
        X = make_coefficient(kind, B)
        wired = oracles.wire_total_coactions(A, X, TOP)
        for n, blocks in enumerate(total_coactions(A, X, TOP)):
            rho = next(wired)
            kernel = comodule_coinvariants(B.unit, blocks)
            assert kernel == oracles.coinvariants_of(B, rho), (kind, n)
            rows = list(stacked.pop().rowdict.values())
            scaled = {frozenset((c, f.mul(f.inv(row[min(row)]), v)) for c, v in row.items())
                      for row in rows}
            assert len(scaled) == len(rows), (kind, n)
            if cname in ("A", "I", "A/I"):  # the rank of rho - id (x) 1, by the kernel
                assert len(rows) == rho.cols - kernel.cols, (kind, n)


@pytest.mark.parametrize("fname", list(FIELDS))
@pytest.mark.parametrize("cname", ["A", "I", "A/I"])
def test_algebra_assembly_equals_the_ambient_form(cname, fname):
    """Faces, tau and inclusions applied on the kernel basis against the
    ambient operators times the kernel basis (``oracles.ambient_assemble_algebra``),
    entry for entry, for the comodules of the algebra-side excision of
    ``z2_product_algebra_ses`` with the coefficients eps and r_ad, at depth 4."""
    A = COMODULES[cname](fname)
    for kind in ("eps", "r_ad"):
        X = make_coefficient(kind, A.over)
        got, want = assemble("algebra", A, X, 4), oracles.ambient_assemble_algebra(A, X, 4)
        assert got.inclusions == want.inclusions, kind
        assert got.faces == want.faces, kind
        assert got.tau == want.tau, kind


def test_sweedler_construction_passes_unmutated():
    mc, X = _sweedler_triple()
    assert homology(assemble("coalgebra", mc, X, 3), "cyclic", 2) == [2, 1, 2]


def test_mutant_wrapped_leg_in_wrong_slot_rejected(monkeypatch):
    """The last coface writes x_(-1)(m_(-1)) next to x_(0) instead of at the end.

    Its identities with the cofaces out of degree 0 fail out of degree 1,
    and it does not descend out of degree 0, which the build, one degree at
    a time, refuses first."""
    def miswired(C, M, X, cn):
        dims = {"x": X.dim, "x0": X.dim, "m": M.dim, "m0": M.dim, "t": cn,
                "h": C.over.dim, "c": C.dim, "hc": C.dim}
        return wire(C.over.field, dims, "x m t -> x0 hc m0 t",
                    (X.coaction, "x -> h x0"), (M.left_coaction, "m -> c m0"),
                    (C.action, "h c -> hc"))

    monkeypatch.setattr(complexes, "_wrap_coface", miswired)
    mc, X = _sweedler_triple()
    M = regular_bicomodule(mc)
    lower, faces = (_ambient_cofaces(mc, M, X, n) for n in (0, 1))
    dims = [X.dim * mc.dim ** (n + 1) for n in range(3)]
    with pytest.raises(IdentityViolation, match=r"d_\d d_\d = d_\d d_\d"):
        complexes._check_coface_degree(dims, 1, faces, lower)
    with pytest.raises(IdentityViolation, match="coface d_1 well-defined"):
        assemble("coalgebra", mc, X, 3)


def test_mutant_coefficient_takes_first_leg_rejected(monkeypatch):
    """The graded action deals the coefficient the first coproduct leg, not the last."""
    real = complexes._diagonal_action

    def miswired(B, factors, coefficient, wanted):
        return real(B, ([coefficient] if coefficient else []) + list(factors), None, wanted)

    monkeypatch.setattr(complexes, "_diagonal_action", miswired)
    mc, X = _sweedler_triple()
    with pytest.raises(IdentityViolation, match="coface d_1 well-defined"):
        assemble("coalgebra", mc, X, 3)


def test_mutant_rotation_without_twist_rejected(monkeypatch):
    """The cyclic operator rotates c0 to the end without acting x_(-1) on it."""
    def miswired(C, X, cn):
        dims = {"x": X.dim, "x0": X.dim, "c0": C.dim, "t": cn, "h": C.over.dim}
        return wire(C.over.field, dims, "x c0 t -> x0 t c0",
                    (X.coaction, "x -> h x0"), (C.over.counit, "h ->"))

    monkeypatch.setattr(complexes, "_coalgebra_rotation", miswired)
    mc, X = _sweedler_triple()
    with pytest.raises(IdentityViolation, match="cyclic operator well-defined"):
        assemble("coalgebra", mc, X, 3)
