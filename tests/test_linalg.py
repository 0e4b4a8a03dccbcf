import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcyclic import linalg
from hopfcyclic.errors import DegreeOutOfRange, ShapeMismatch
from hopfcyclic.fields import GF, QQ
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    QuotientSpace,
    block_matrix,
    column_basis,
    complex_homology,
    invert,
    map_well_defined,
    rank,
    rank_kernel,
    restrict,
    slotted,
    solve_columns,
    wire,
)

from oracles import (
    backsub_kernel,
    dense_of,
    dense_quotient,
    dense_rank,
    dense_rank_of_matrix,
    descends_by_membership,
    row_order_rank,
    sympy_rank,
    tracked_solve,
)
from randmat import random_invertible


def mat(field, dense):
    return Matrix.from_entries(field, len(dense), len(dense[0]) if dense else 0,
                               [(i, j, field.parse(v) if isinstance(v, int) else v)
                                for i, row in enumerate(dense) for j, v in enumerate(row)])


class TestMatrixBasics:
    def test_entries_canonical(self):
        m = Matrix.from_entries(QQ, 2, 2, [(1, 0, Fraction(2)), (0, 1, Fraction(3))])
        assert m.entries() == [(0, 1, Fraction(3)), (1, 0, Fraction(2))]

    def test_duplicate_coordinates_add(self):
        m = Matrix.from_entries(QQ, 1, 1, [(0, 0, Fraction(1)), (0, 0, Fraction(-1))])
        assert m.is_zero()

    def test_mul_identity(self):
        m = mat(QQ, [[1, 2], [3, 4]])
        assert m.mul(Matrix.identity(QQ, 2)) == m
        assert Matrix.identity(QQ, 2).mul(m) == m

    def test_kron_index_convention(self):
        a = mat(QQ, [[0, 1], [0, 0]])
        b = Matrix.identity(QQ, 3)
        k = a.kron(b)
        # e_1 (x) e_j -> e_0 (x) e_j, i.e. column 1*3+j maps to row 0*3+j
        for j in range(3):
            assert k.col(3 + j) == {j: Fraction(1)}

    def test_block_matrix(self):
        a = Matrix.identity(QQ, 2)
        b = mat(QQ, [[5]])
        m = block_matrix(QQ, [[a, None], [None, b]], [2, 1], [2, 1])
        assert m == mat(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 5]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mat(QQ, [[1]]).mul(mat(QQ, [[1, 2], [3, 4]]))


class TestRankKernel:
    def test_proportional_rows(self):
        m = mat(QQ, [[1, 2], [2, 4]])
        r, k = rank_kernel(m)
        assert r == 1
        assert k.cols == 1
        assert m.mul(k).is_zero()
        # kernel spanned by (-2, 1)^T
        assert k.col(0) == {0: Fraction(-2), 1: Fraction(1)}

    def test_identity(self):
        r, k = rank_kernel(Matrix.identity(QQ, 2))
        assert r == 2 and k.cols == 0

    def test_equal_rows_f2(self):
        f2 = GF(2)
        m = mat(f2, [[1, 1], [1, 1]])
        r, k = rank_kernel(m)
        assert r == 1
        assert k.cols == 1
        assert k.col(0) == {0: 1, 1: 1}

    def test_kernel_postcondition(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            dense = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            m = mat(QQ, dense)
            r, k = rank_kernel(m)
            assert r + k.cols == cols
            assert m.mul(k).is_zero()
            assert rank(k) == k.cols  # columns independent
            assert r == dense_rank(dense_of(m), QQ)

    def test_rank_against_sympy(self):
        rng = random.Random(11)
        for _ in range(10):
            dense = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)] for _ in range(4)]
            m = mat(QQ, dense)
            assert rank(m) == sympy_rank(m)

    def test_rank_transpose_invariance_fp(self):
        f5 = GF(5)
        rng = random.Random(3)
        for _ in range(25):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            dense = [[rng.randint(0, 4) for _ in range(cols)] for _ in range(rows)]
            m = mat(f5, dense)
            assert rank(m) == rank(m.transpose())


def check_kernel(M):
    """rank_kernel against the back-substitution oracle and its own contract."""
    f = M.field
    r, K = rank_kernel(M)
    r_o, free, kernel = backsub_kernel(M)
    assert r == r_o
    cols = K.columns()
    assert (K.rows, K.cols) == (M.cols, len(kernel))
    assert cols == kernel
    assert M.mul(K).is_zero()
    assert r + K.cols == M.cols
    for k, col in enumerate(cols):
        for fc in free:
            assert col.get(fc, f.zero) == (f.one if fc == free[k] else f.zero)


KERNEL_FIELDS = [QQ, GF(2), GF(3)]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("shape, dense", [
    ((0, 0), []),
    ((0, 4), []),
    ((3, 0), [[], [], []]),
    ((3, 4), [[0] * 4] * 3),
    ((2, 6), [[1, 0, 2, 0, 1, 1], [0, 0, 1, 1, 0, 2]]),
    ((6, 2), [[1, 1], [2, 2], [0, 1], [1, 0], [0, 0], [2, 1]]),
])
def test_kernel_edge_shapes(field, shape, dense):
    rows, cols = shape
    ents = [(i, j, field.parse(v)) for i, r in enumerate(dense) for j, v in enumerate(r) if v]
    check_kernel(Matrix.from_entries(field, rows, cols, ents))


@st.composite
def sparse_matrices(draw):
    field = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    if not rows or not cols:
        return Matrix.zero(field, rows, cols)
    cell = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                     st.integers(-3, 3), st.integers(1, 3))
    ents = []
    for i, j, a, b in draw(st.lists(cell, max_size=rows * cols)):
        v = Fraction(a, b) if field == QQ else field.parse(a)
        ents.append((i, j, v))
    return Matrix.from_entries(field, rows, cols, ents)


@st.composite
def rank_cases(draw):
    """A sparse matrix over Q, F_2 or F_3, square, wide or tall (up to 24 rows), and of
    full rank or rank-deficient: a product P Q through an inner dimension 0..4."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(0, 24)), draw(st.integers(0, 8))
    scalar = st.sampled_from([1, -1, 2, 3]).map(field.parse)

    def sparse(r, c):
        cells = draw(st.lists(st.tuples(st.integers(0, max(r - 1, 0)),
                                        st.integers(0, max(c - 1, 0)), scalar),
                              max_size=2 * r * c)) if r and c else []
        return Matrix.from_entries(field, r, c, cells)

    if draw(st.booleans()):
        inner = draw(st.integers(0, 4))
        return sparse(rows, inner).mul(sparse(inner, cols))
    return sparse(rows, cols)


@given(rank_cases())
@settings(max_examples=200, deadline=None)
def test_rank_equals_the_row_order_rank(M):
    """``rank`` inserts the rows sparsest first; the row-order rank and the
    dense elimination give the same number."""
    assert rank(M) == row_order_rank(M) == dense_rank_of_matrix(M)


@st.composite
def slot_maps(draw):
    """A field, dims p, q, r of three identity slots, and maps F: a -> a2, G: b -> b2."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    dim = st.integers(1, 3)
    p, q, r = draw(dim), draw(dim), draw(dim)

    def block():
        rows, cols = draw(dim), draw(dim)
        entries = st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows)
        # from_entries drops what is zero in the field (2 over F_2), and
        # the rows left empty, as every Matrix must
        return Matrix.from_entries(field, rows, cols, [
            (i, j, field.parse(v)) for i, row in enumerate(draw(entries))
            for j, v in enumerate(row)])

    return field, p, q, r, block(), block()


@given(slot_maps())
@settings(max_examples=100, deadline=None)
def test_maps_on_disjoint_slots_commute(case):
    """The slotted lemma that ``complexes._check_coface_degree`` rests on:
    F on one slot and G on a later one, of P (x) A (x) Q (x) B (x) R, commute,
    whether F is ``slotted`` or a ``wire`` step next to identity slots.
    Over Q, F_2 and F_3."""
    f, p, q, r, F, G = case
    a, a2, b, b2 = F.cols, F.rows, G.cols, G.rows
    f_first = slotted(f, p * a2 * q, G, r).mul(slotted(f, p, F, q * b * r))
    g_first = slotted(f, p, F, q * b2 * r).mul(slotted(f, p * a * q, G, r))
    assert f_first == g_first
    dims = {"p": p, "a": a, "a2": a2, "t": q * b * r, "t2": q * b2 * r}
    wired = wire(f, dims, "p a t -> p a2 t", (F, "a -> a2"))
    wired2 = wire(f, dims, "p a t2 -> p a2 t2", (F, "a -> a2"))
    assert wired == slotted(f, p, F, q * b * r)
    if a == 1:  # F inserts a vector, as the unit step of the model's d_0 does
        assert wire(f, dims, "p t -> p a2 t", (F, "-> a2")) == wired
    assert slotted(f, p * a2 * q, G, r).mul(wired) == wired2.mul(slotted(f, p * a * q, G, r))


WIRINGS = {  # name -> (spec, the legs of each step)
    "identity slots": ("p i q -> p o q", ["i -> o"]),
    "vector step": ("p q -> p o q", ["-> o"]),
    "covector step and a reorder": ("i p q -> q p", ["i ->"]),
    "two steps around an identity slot": ("r a x -> a0 r y", ["a -> a0 h", "h x -> y"]),
    "no step": ("p q -> q p", []),
}


@st.composite
def wirings_on(draw):
    """(field, dims, spec, steps, M): a wiring of ``WIRINGS`` with leg dims 1..3
    and random tensors, and an M with as many rows as it has columns, some
    rows empty and 0..3 columns."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    spec, texts = WIRINGS[draw(st.sampled_from(sorted(WIRINGS)))]
    legs = sorted({leg for text in [spec] + texts for leg in text.replace("->", " ").split()})
    dims = {leg: draw(st.integers(1, 3)) for leg in legs}
    scalar = st.sampled_from([0, 1, -1, 2]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    def size(legs):
        return math.prod(dims[leg] for leg in legs.split())

    steps = [(matrix(size(text.split("->")[1]), size(text.split("->")[0])), text)
             for text in texts]
    M = matrix(size(spec.split("->")[0]), draw(st.integers(0, 3)))
    empty = draw(st.sets(st.integers(0, M.rows - 1)))
    M = Matrix(field, M.rows, M.cols, {i: r for i, r in M.rowdict.items() if i not in empty})
    return field, dims, spec, steps, M


@given(wirings_on())
@settings(max_examples=200, deadline=None)
def test_wire_on_a_matrix_is_the_product(case):
    """``wire(..., on=M)`` writes only the columns at which M has rows and
    equals the operator times M, entry for entry, over Q, F_2 and F_3."""
    field, dims, spec, steps, M = case
    full = wire(field, dims, spec, *steps)
    assert wire(field, dims, spec, *steps, on=M) == full.mul(M)
    with pytest.raises(ShapeMismatch):
        wire(field, dims, spec, *steps, on=Matrix.zero(field, M.rows + 1, 1))


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_backsubstitution_oracle(M):
    check_kernel(M)


@given(sparse_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_one_pass_difference_equals_adding_the_negation(M, data):
    # N keeps some entries of M, so entries and whole rows of M - N cancel
    cells = [(i, j, v) for i, row in M.rowdict.items() for j, v in row.items()]
    keep = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    extra = data.draw(st.lists(st.tuples(st.integers(0, max(M.rows - 1, 0)),
                                         st.integers(0, max(M.cols - 1, 0)),
                                         st.integers(-2, 2)), max_size=4)
                      if M.rows and M.cols else st.just([]))
    N = Matrix.from_entries(M.field, M.rows, M.cols,
                            [c for c, k in zip(cells, keep) if k]
                            + [(i, j, M.field.parse(v)) for i, j, v in extra])
    diff = M.sub(N)
    assert diff == M.add(N.neg())
    assert all(diff.rowdict.values())
    assert M.sub(M).is_zero()


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(dense):
    m = mat(QQ, dense)
    assert rank(m) == rank(m.transpose())
    assert rank(m) == dense_rank_of_matrix(m)


@st.composite
def quotient_maps(draw):
    """(A, src, dst, src relations, dst relations) for a map A that is random,
    built to descend, or built to send one relation out of the relations.

    Relation sets may be empty, everything, or a few random vectors.
    """
    field = draw(st.sampled_from(KERNEL_FIELDS))
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.parse)  # shrinks to 1, not 0

    def relations(dim):
        kind = draw(st.sampled_from(["some", "none", "all"]))
        if kind == "all":
            return [{i: field.one} for i in range(dim)]
        count = draw(st.integers(1, 3)) if kind == "some" and dim else 0
        vecs = [draw(st.lists(scalar, min_size=dim, max_size=dim)) for _ in range(count)]
        return [{i: v for i, v in enumerate(vec) if v != field.zero} for vec in vecs]

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    src_rels, dst_rels = relations(m), relations(n)
    src, dst = QuotientSpace(field, m, src_rels), QuotientSpace(field, n, dst_rels)
    kind = draw(st.sampled_from(["escapes", "descends", "random"]))
    if kind == "random":
        return matrix(n, m), src, dst, src_rels, dst_rels
    # S_dst M P_src + R_dst N sends ker P_src into the span of R_dst
    R = Matrix.from_entries(field, n, len(dst_rels),
                            [(i, j, v) for j, r in enumerate(dst_rels) for i, v in r.items()])
    A = dst.section.mul(matrix(dst.dim, src.dim)).mul(src.projection).add(
        R.mul(matrix(len(dst_rels), m)))
    r = next((r for r in src_rels if r), None)
    if kind == "escapes" and r and dst.dim:
        # a free coordinate i of dst: e_i is no relation, so A r + r_j e_i is none
        i = min(dst.projection.coldict())
        A = A.add(Matrix.from_entries(field, n, m, [(i, min(r), field.one)]))
    return A, src, dst, src_rels, dst_rels


@given(quotient_maps())
@settings(max_examples=300, deadline=None)
def test_product_form_matches_the_membership_oracle(case):
    A, src, dst, src_rels, dst_rels = case
    induced = map_well_defined(A, src, dst)
    assert (induced is not None) == descends_by_membership(A, src_rels, dst_rels)
    if induced is not None:
        assert induced == src.induce(dst, A)


@st.composite
def restriction_cases(draw):
    """(K, Y, solvable): K the canonical kernel basis of a random wide M (K
    has columns), of M = 0 (K = I) or of an injective M (K has no columns);
    Y = K Z, K Z with one column pushed out of the span, or random. Y may
    have no columns.
    """
    field = draw(st.sampled_from(KERNEL_FIELDS))
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    n = draw(st.integers(0, 6))
    M = matrix(draw(st.integers(0, max(n - 1, 0))), n)  # fewer rows than columns
    kind = draw(st.sampled_from(["random", "zero", "injective"]))
    if kind == "zero":
        M = Matrix.zero(field, M.rows, n)
    elif kind == "injective":
        M = block_matrix(field, [[M], [Matrix.identity(field, n)]], [M.rows, n], [n])
    _, K = rank_kernel(M)
    width = draw(st.integers(0, 3))
    Y = K.mul(matrix(K.cols, width))
    how = draw(st.sampled_from(["span", "escapes", "random"]))
    pivots = [p for p in range(K.rows) if p not in K.free]
    if how == "escapes" and pivots and width:
        # column p of M is a pivot column, nonzero, so e_p is not in ker M
        p, j = draw(st.sampled_from(pivots)), draw(st.integers(0, width - 1))
        return K, Y.add(Matrix.from_entries(field, K.rows, width, [(p, j, field.one)])), False
    if how == "random":
        return K, matrix(K.rows, width), None
    return K, Y, True


@given(restriction_cases())
@settings(max_examples=300, deadline=None)
def test_restriction_equals_the_solve_oracle(case):
    K, Y, solvable = case
    X = restrict(K, Y)
    assert X == solve_columns(K, Y)
    if solvable is not None:
        assert (X is not None) == solvable


@st.composite
def restriction_mutants(draw):
    """(K, Y, mutant, where): K the canonical kernel basis of a random wide M
    stacked on e_z^T, so row z of K is empty; Y = K Z; the mutant Y plus e_i
    in column j, at a row i outside ``free`` where K has a row ("outside
    free"), or at z ("no row of K")."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    n = draw(st.integers(2, 7))
    z = draw(st.integers(0, n - 1))
    M = matrix(draw(st.integers(1, n - 2)) if n > 2 else 1, n)
    pin = Matrix.from_entries(field, 1, n, [(0, z, field.one)])
    _, K = rank_kernel(block_matrix(field, [[M], [pin]], [M.rows, 1], [n]))
    width = draw(st.integers(1, 3))
    Y = K.mul(matrix(K.cols, width))
    where = draw(st.sampled_from(["outside free", "no row of K"]))
    if where == "outside free":
        rows = [i for i in K.rowdict if i not in K.free]
        assume(rows)  # K is no coordinate inclusion
        i = draw(st.sampled_from(rows))
    else:
        assert z not in K.rowdict
        i = z
    j = draw(st.integers(0, width - 1))
    bump = Matrix.from_entries(field, K.rows, width, [(i, j, draw(scalar.filter(bool)))])
    return K, Y, Y.add(bump), where


@given(restriction_mutants())
@settings(max_examples=300, deadline=None)
def test_restriction_rejects_a_perturbed_row(case):
    """The rows ``free`` of K X agree with Y by construction, so restrict
    checks only the other rows: a Y perturbed in one of them, or in a row
    where K has none, has no restriction."""
    K, Y, mutant, _ = case
    assert restrict(K, Y) is not None
    assert restrict(K, mutant) is None
    assert solve_columns(K, mutant) is None


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_restriction_edge_shapes(field):
    one = field.one
    _, injective = rank_kernel(Matrix.identity(field, 3))
    assert injective.cols == 0 and injective.free == []
    assert restrict(injective, Matrix.zero(field, 3, 2)) == Matrix.zero(field, 0, 2)
    assert restrict(injective, Matrix.from_entries(field, 3, 1, [(1, 0, one)])) is None
    _, everything = rank_kernel(Matrix.zero(field, 2, 3))
    Y = Matrix.from_entries(field, 3, 2, [(0, 0, one), (2, 1, one)])
    assert restrict(everything, Y) == Y
    for K in (injective, everything):
        assert restrict(K, Matrix.zero(field, 3, 0)) == Matrix.zero(field, K.cols, 0)
    with pytest.raises(ShapeMismatch):
        restrict(everything, Matrix.zero(field, 2, 1))


@st.composite
def relation_sets(draw):
    """(field, n, relations) of one kind: binomial only; mixed widths;
    binomial with single-entry kills; cycles of binomials whose ratios may
    disagree; with zero and duplicate (rescaled) relations; empty; full rank.
    """
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(
        ["binomial", "mixed", "kills", "cycles", "zero and duplicate", "empty", "full"]))
    scalar = st.sampled_from([1, -1, 2, 3, -3]).map(field.parse).filter(
        lambda v: v != field.zero)

    def relation(width):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width,
                            unique=True))
        return {i: draw(scalar) for i in idx}

    def some(widths):
        return [relation(w) for w in draw(st.lists(widths, max_size=8))]

    if kind == "empty" or n == 0:
        return field, n, [{}] * draw(st.integers(0, 2))
    if kind == "full":
        rels = some(st.integers(1, min(n, 4))) + [{i: draw(scalar)} for i in range(n)]
        return field, n, draw(st.permutations(rels))
    if kind == "binomial":
        return field, n, some(st.just(min(n, 2)))
    if kind == "mixed":
        return field, n, some(st.integers(1, min(n, 5)))
    if kind == "kills":
        return field, n, draw(st.permutations(some(st.just(min(n, 2)))
                                              + some(st.just(min(n, 1)))))
    if kind == "cycles":
        rels = []
        for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
            cyc = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
            ratios = [draw(scalar) for _ in cyc]
            if draw(st.booleans()):
                # close the cycle consistently: the product of ratios is 1
                prod = field.one
                for r in ratios[:-1]:
                    prod = field.mul(prod, r)
                ratios[-1] = field.inv(prod)
            # e_a = r e_b, i.e. e_a - r e_b, around a -> b
            for a, b, r in zip(cyc, cyc[1:] + cyc[:1], ratios):
                rels.append({a: field.one, b: field.neg(r)})
        return field, n, draw(st.permutations(rels + some(st.just(min(n, 2)))))
    rels = some(st.integers(1, min(n, 4)))
    dups = [{i: field.mul(c, v) for i, v in r.items()}
            for r, c in zip(rels, draw(st.lists(scalar, max_size=len(rels))))]
    return field, n, draw(st.permutations(rels + dups + [{}] * draw(st.integers(1, 3))))


@given(relation_sets())
@settings(max_examples=300, deadline=None)
def test_quotient_equals_the_dense_kernel_oracle(case):
    field, n, rels = case
    q = QuotientSpace(field, n, rels)
    assert (q.dim, q.projection, q.section) == dense_quotient(field, n, rels)


class TestQuotient:
    def test_one_relation(self):
        s = mat(QQ, [[1], [1]])
        q = QuotientSpace(QQ, 2, s.columns())
        assert q.dim == 1
        assert q.projection.rows == 1 and q.projection.cols == 2
        assert q.projection.mul(s).is_zero()

    def test_no_relations(self):
        s = Matrix.zero(QQ, 3, 0)
        q = QuotientSpace(QQ, 3, s.columns())
        assert q.dim == 3
        assert invert(q.projection) is not None

    def test_full_subspace(self):
        s = Matrix.identity(QQ, 3)
        q = QuotientSpace(QQ, 3, s.columns())
        assert q.dim == 0

    def test_projection_surjective_and_annihilating(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            dense = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            s = mat(QQ, dense) if k else Matrix.zero(QQ, n, 0)
            q = QuotientSpace(QQ, n, s.columns())
            assert q.dim == n - rank(s)
            assert rank(q.projection) == q.dim
            assert q.projection.mul(s).is_zero()

    def test_section_roundtrip(self):
        q = QuotientSpace(QQ, 3, [{0: Fraction(1), 1: Fraction(-1)}])
        assert q.projection.mul(q.section) == Matrix.identity(QQ, q.dim)


class TestSolve:
    def test_solve_exact(self):
        a = mat(QQ, [[1, 2], [0, 1], [1, 0]])
        x = mat(QQ, [[3], [-2]])
        b = a.mul(x)
        got = solve_columns(a, b)
        assert got is not None
        assert a.mul(got) == b

    def test_solve_inconsistent(self):
        a = mat(QQ, [[1], [1]])
        b = mat(QQ, [[1], [2]])
        assert solve_columns(a, b) is None

    def test_invert(self):
        m = mat(QQ, [[2, 1], [1, 1]])
        mi = invert(m)
        assert m.mul(mi) == Matrix.identity(QQ, 2)
        assert mi.mul(m) == Matrix.identity(QQ, 2)
        assert invert(mat(QQ, [[1, 1], [1, 1]])) is None


class TestSpan:
    def test_membership(self):
        span = Matrix.from_entries(QQ, 3, 2, [(0, 0, QQ.one), (1, 0, QQ.one), (2, 1, QQ.one)])
        inside = Matrix.column(QQ, {0: Fraction(2), 1: Fraction(2), 2: Fraction(-1)}, 3)
        assert solve_columns(span, inside) is not None
        assert solve_columns(span, Matrix.column(QQ, {0: Fraction(1)}, 3)) is None

    def test_column_basis_spans(self):
        vecs = mat(QQ, [[1, 2, 0], [2, 4, 1]])
        basis = column_basis(vecs)
        assert basis.cols == 2 == rank(vecs)
        assert solve_columns(basis, vecs) is not None


@st.composite
def solve_cases(draw):
    """(A, B, solvable): A random, with no rows, with no columns, or with a
    column repeated; B = A Z, A Z with one column pushed out of the span of
    A, or random. B may have no columns.
    """
    field = draw(st.sampled_from(KERNEL_FIELDS))
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.parse)

    def matrix(rows, cols):
        vals = draw(st.lists(scalar, min_size=rows * cols, max_size=rows * cols))
        return Matrix.from_entries(field, rows, cols,
                                   [(k // cols, k % cols, v) for k, v in enumerate(vals)])

    shape = draw(st.sampled_from(["random", "no rows", "no columns", "repeated column"]))
    rows = 0 if shape == "no rows" else draw(st.integers(1, 6))
    A = matrix(rows, 0 if shape == "no columns" else draw(st.integers(1, 5)))
    if shape == "repeated column":
        A = A.hstack(Matrix.column(field, A.col(draw(st.integers(0, A.cols - 1))), rows))
    width = draw(st.integers(0, 3))
    B = A.mul(matrix(A.cols, width))
    how = draw(st.sampled_from(["span", "escapes", "random"]))
    if how == "random":
        return A, matrix(rows, width), None
    base = dense_rank_of_matrix(A)
    escapes = [i for i in range(rows)
               if dense_rank_of_matrix(A.hstack(Matrix.column(field, {i: field.one}, rows)))
               > base]
    if how == "escapes" and escapes and width:
        i, j = draw(st.sampled_from(escapes)), draw(st.integers(0, width - 1))
        return A, B.add(Matrix.from_entries(field, rows, width, [(i, j, field.one)])), False
    return A, B, True


@given(solve_cases())
@settings(max_examples=300, deadline=None)
def test_solve_equals_the_tracked_oracle(case):
    A, B, solvable = case
    X = solve_columns(A, B)
    assert X == tracked_solve(A, B)
    if solvable is not None:
        assert (X is not None) == solvable
    if X is not None:
        assert A.mul(X) == B


@given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 5),
       st.sampled_from(["invertible", "random", "repeated column"]), st.randoms())
@settings(max_examples=200, deadline=None)
def test_invert_equals_the_tracked_oracle(field, n, kind, rng):
    if kind == "invertible":
        M = random_invertible(field, n, rng)
    else:
        M = mat(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if kind == "repeated column" and n >= 2:
            # column 1 := column 0
            shift = [(0, 1, field.one), (1, 1, field.neg(field.one))]
            M = M.mul(Matrix.identity(field, n).add(Matrix.from_entries(field, n, n, shift)))
    inv = invert(M)
    assert inv == tracked_solve(M, Matrix.identity(field, n))
    if kind == "invertible":
        assert inv is not None and M.mul(inv) == Matrix.identity(field, n)
    elif kind == "repeated column" and n >= 2:
        assert inv is None


class TestGradedComplex:
    def test_exact_two_term(self):
        d = Matrix.identity(QQ, 1)
        x = GradedComplex(QQ, +1, [1, 1], {0: d})
        assert complex_homology(x, 0) == [0]

    def test_zero_differential(self):
        x = GradedComplex(QQ, +1, [2, 3, 4], {0: Matrix.zero(QQ, 3, 2), 1: Matrix.zero(QQ, 4, 3)})
        assert complex_homology(x, 1) == [2, 3]

    def test_each_differential_ranked_once(self, monkeypatch):
        ranked = []

        def counting_rank(M):
            ranked.append(M)
            return rank(M)

        monkeypatch.setattr(linalg, "rank", counting_rank)
        d0 = mat(QQ, [[1, 1, 0], [1, 1, 0]])
        d1 = mat(QQ, [[1, -1], [0, 0]])
        x = GradedComplex(QQ, +1, [3, 2, 2, 1], {0: d0, 1: d1, 2: Matrix.zero(QQ, 1, 2)})
        assert complex_homology(x, 2) == [2, 0, 1]
        assert complex_homology(x, 2) == [2, 0, 1]
        assert len(ranked) == 3

    def test_degree_out_of_range(self):
        x = GradedComplex(QQ, +1, [1, 1], {0: Matrix.identity(QQ, 1)})
        with pytest.raises(DegreeOutOfRange):
            complex_homology(x, 1)

    def test_dd_zero_enforced(self):
        d0 = Matrix.identity(QQ, 1)
        d1 = Matrix.identity(QQ, 1)
        with pytest.raises(ShapeMismatch):
            GradedComplex(QQ, +1, [1, 1, 1], {0: d0, 1: d1})

    def test_lowering_orientation(self):
        # k <- k <- 0 with d_1 = id: H_0 = 0, H_1 = 0
        x = GradedComplex(QQ, -1, [1, 1, 0], {1: Matrix.identity(QQ, 1), 2: Matrix.zero(QQ, 1, 0)})
        assert complex_homology(x, 1) == [0, 0]

    def test_basis_change_invariance(self):
        rng = random.Random(13)
        d0 = mat(QQ, [[1, 1, 0], [0, 0, 0]])
        d1 = mat(QQ, [[0, 0], [1, -1]])
        # rows: d1 @ d0 must vanish; adjust d0 so composite is zero
        d0 = mat(QQ, [[1, 1, 0], [1, 1, 0]])
        x = GradedComplex(QQ, +1, [3, 2, 2], {0: d0, 1: d1})
        base = complex_homology(x, 1)
        for _ in range(5):
            g0 = random_invertible(QQ, 3, rng)
            g1 = random_invertible(QQ, 2, rng)
            g2 = random_invertible(QQ, 2, rng)
            y = GradedComplex(
                QQ,
                +1,
                [3, 2, 2],
                {0: g1.mul(d0).mul(invert(g0)), 1: g2.mul(d1).mul(invert(g1))},
            )
            assert complex_homology(y, 1) == base
