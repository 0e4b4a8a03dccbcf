import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcyclic import linalg
from hopfcyclic.errors import DegreeOutOfRange, ShapeMismatch
from hopfcyclic.fields import GF, QQ
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    QuotientSpace,
    SubSpace,
    block_matrix,
    complex_homology,
    invert,
    map_well_defined,
    quotient,
    rank,
    rank_kernel,
    restrict,
    solve_columns,
)

from oracles import (
    backsub_kernel,
    dense_of,
    dense_rank,
    dense_rank_of_matrix,
    descends_by_membership,
    echelon_quotient,
    sympy_rank,
)
from randmat import random_invertible


def mat(field, dense):
    return Matrix.from_dense(field, dense)


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
    ents = [(i, j, field.from_int(v)) for i, r in enumerate(dense) for j, v in enumerate(r) if v]
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
        v = Fraction(a, b) if field == QQ else field.from_int(a)
        ents.append((i, j, v))
    return Matrix.from_entries(field, rows, cols, ents)


@given(sparse_matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_backsubstitution_oracle(M):
    check_kernel(M)


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
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.from_int)  # shrinks to 1, not 0

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
    scalar = st.sampled_from([1, -1, 2, 0]).map(field.from_int)

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
        M = M.vstack(Matrix.identity(field, n))
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
    scalar = st.sampled_from([1, -1, 2, 3, -3]).map(field.from_int).filter(
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
def test_orbit_quotient_equals_the_echelon_oracle(case):
    field, n, rels = case
    q = QuotientSpace(field, n, rels)
    assert (q.dim, q.projection, q.section) == echelon_quotient(field, n, rels)


class TestQuotient:
    def test_one_relation(self):
        s = mat(QQ, [[1], [1]])
        dim, proj = quotient(2, s)
        assert dim == 1
        assert proj.rows == 1 and proj.cols == 2
        assert proj.mul(s).is_zero()

    def test_no_relations(self):
        s = Matrix.zero(QQ, 3, 0)
        dim, proj = quotient(3, s)
        assert dim == 3
        assert invert(proj) is not None

    def test_full_subspace(self):
        s = Matrix.identity(QQ, 3)
        dim, proj = quotient(3, s)
        assert dim == 0

    def test_projection_surjective_and_annihilating(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            dense = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            s = mat(QQ, dense) if k else Matrix.zero(QQ, n, 0)
            dim, proj = quotient(n, s)
            assert dim == n - rank(s)
            assert rank(proj) == dim
            assert proj.mul(s).is_zero()

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


class TestSubSpace:
    def test_membership(self):
        s = SubSpace(QQ, 3, [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}])
        assert s.contains({0: Fraction(2), 1: Fraction(2), 2: Fraction(-1)})
        assert not s.contains({0: Fraction(1)})

    def test_basis_matrix_spans(self):
        vecs = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}, {1: Fraction(1)}]
        s = SubSpace(QQ, 2, vecs)
        assert s.rank == 2
        assert s.basis_matrix().cols == 2


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
