"""Independent oracles used to cross-check the sparse engine.

Textbook row reduction on dense lists, written without reference to the
package internals so the two routes stay independent; the structure maps in
their reference form, composed from Kronecker products, slot permutation
matrices and matrix products; the coinvariant quotient taken over every
basis element of B; the quotient read off one RREF of all the relations,
the reference for the orbit quotients of ``linalg.QuotientSpace``; and the
test that a map descends to quotients by one membership test per relation,
the reference for the product form of ``linalg.map_well_defined``.
"""

from fractions import Fraction

from hopfcyclic.linalg import Echelon, Matrix, QuotientSpace, _free_basis


def dense_of(M):
    """Dense list-of-lists copy of a package Matrix."""
    out = [[M.field.zero] * M.cols for _ in range(M.rows)]
    for i, row in M.rowdict.items():
        for j, v in row.items():
            out[i][j] = v
    return out


def dense_rank(rows, field):
    """Rank by plain dense Gaussian elimination over the given field."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col] != field.zero:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = field.inv(m[row][col])
        m[row] = [field.mul(inv, x) for x in m[row]]
        for r in range(nr):
            if r != row and m[r][col] != field.zero:
                c = m[r][col]
                m[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nr:
            break
    return rank


def dense_kernel_dim(rows, ncols, field):
    if not rows:
        return ncols
    return ncols - dense_rank(rows, field)


def dense_rank_of_matrix(M):
    return dense_rank(dense_of(M), M.field) if M.rows else 0


def sympy_rank(M):
    """Rational rank via sympy, as a second independent route over Q."""
    import sympy

    d = [[sympy.Rational(v.numerator, v.denominator) if isinstance(v, Fraction) else v for v in row]
         for row in dense_of(M)]
    if not d:
        return 0
    return sympy.Matrix(d).rank()


def backsub_kernel(M):
    """Rank, free columns and kernel basis of a package Matrix, column by column.

    Dense row echelon form with monic leftmost pivots, then for every free
    column fc the kernel vector with 1 at fc and 0 at the other free columns,
    solved upward through the pivot rows one pivot at a time. Kernel vectors
    come back as ``{row: value}`` dicts without zero entries.
    """
    f = M.field
    m = dense_of(M)
    nr, nc = M.rows, M.cols
    piv = {}  # pivot column -> its echelon row
    top = 0
    for col in range(nc):
        r = next((r for r in range(top, nr) if m[r][col] != f.zero), None)
        if r is None:
            continue
        m[top], m[r] = m[r], m[top]
        inv = f.inv(m[top][col])
        m[top] = [f.mul(inv, x) for x in m[top]]
        for r in range(top + 1, nr):
            if m[r][col] != f.zero:
                c = m[r][col]
                m[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r], m[top])]
        piv[col] = m[top]
        top += 1
    free = [c for c in range(nc) if c not in piv]
    kernel = []
    for fc in free:
        x = {fc: f.one}
        for p in sorted(piv, reverse=True):
            s = f.zero
            for c in range(p + 1, nc):
                if c in x:
                    s = f.add(s, f.mul(piv[p][c], x[c]))
            if s != f.zero:
                x[p] = f.neg(s)  # the pivot entry is 1
        kernel.append(x)
    return len(piv), free, kernel


def descends_by_membership(A, src_relations, dst_relations):
    """True iff A sends every source relation into the span of the target ones.

    One membership test per relation, by dense ranks: A r lies in the span
    exactly when appending it leaves the rank unchanged.
    """
    f = A.field
    dense = dense_of(A)
    span = [[v.get(i, f.zero) for i in range(A.rows)] for v in dst_relations]
    base = dense_rank(span, f)
    for r in src_relations:
        img = [f.zero] * A.rows
        for i, row in enumerate(dense):
            for c, v in r.items():
                img[i] = f.add(img[i], f.mul(row[c], v))
        if dense_rank(span + [img], f) != base:
            return False
    return True


def echelon_quotient(field, ambient_dim, relation_vectors):
    """(dim, projection, section) of k^n modulo the relation span, by elimination only.

    Every relation goes into one echelon; the quotient coordinates are the
    free columns of its RREF and the projection is the transpose of the
    canonical kernel basis of the RREF.
    """
    ech = Echelon(field)
    for v in relation_vectors:
        ech.insert(v)
    basis = _free_basis(field, ambient_dim, ech.reduced_rows())
    free = basis.free
    sec = [(c, k, field.one) for k, c in enumerate(free)]
    return len(free), basis.transpose(), Matrix.from_entries(field, ambient_dim, len(free), sec)


def coinvariant_space(field, B, L_list, dim):
    """Quotient of a B-module by the span of b.v - eps(b) v over every basis b."""
    eps = B.counit.rowdict.get(0, {})
    rels = []
    I = Matrix.identity(field, dim)
    for bb, L in enumerate(L_list):
        e = eps.get(bb, field.zero)
        R = L.sub(I.scale(e)) if e != field.zero else L
        rels.extend(col for col in R.columns() if col)
    return QuotientSpace(field, dim, rels)


# ---------------------------------------------------------------------------
# Structure maps as products of permutation and identity-kron matrices
# ---------------------------------------------------------------------------
#
# The reference forms of the operators that ``linalg.wire`` and
# ``complexes.diagonal_action`` write directly: every map is spread by
# Kronecker products, reordered by a slot permutation matrix and collected
# by a matrix product, as the engine built them before the wiring builder.


def swap_matrix(field, m, n):
    """The flip V (x) W -> W (x) V for dim V = m, dim W = n."""
    one = field.one
    return Matrix(field, m * n, m * n, {j * m + i: {i * n + j: one}
                                        for i in range(m) for j in range(n)})


def permute_slots(field, dims, perm):
    """Matrix reordering tensor slots: target slot k holds source slot perm[k]."""
    n = len(dims)
    src_strides = [1] * n
    for k in range(n - 2, -1, -1):
        src_strides[k] = src_strides[k + 1] * dims[k + 1]
    tgt_dims = [dims[p] for p in perm]
    tgt_strides = [1] * n
    for k in range(n - 2, -1, -1):
        tgt_strides[k] = tgt_strides[k + 1] * tgt_dims[k + 1]
    total = 1
    for d in dims:
        total *= d
    rd = {}
    for col in range(total):
        rem = col
        idx = [0] * n
        for k in range(n):
            idx[k], rem = divmod(rem, src_strides[k])
        rd[sum(idx[perm[k]] * tgt_strides[k] for k in range(n))] = {col: field.one}
    return Matrix(field, total, total, rd)


def slotted(field, pre_dim, M, post_dim):
    """id_{pre} (x) M (x) id_{post} by Kronecker products with identities."""
    return Matrix.identity(field, pre_dim).kron(M).kron(Matrix.identity(field, post_dim))


def action_of_basis(action, dim_b, dim_x, b_index):
    """Single-element action matrix out of a B (x) X -> X tensor."""
    base = b_index * dim_x
    rd = {}
    for i, row in action.rowdict.items():
        tgt = {j - base: v for j, v in row.items() if base <= j < base + dim_x}
        if tgt:
            rd[i] = tgt
    return Matrix(action.field, dim_x, dim_x, rd)


def diagonal_action_tensor(B, factors):
    """Diagonal action B (x) V_1 (x) ... -> V_1 (x) ..., legs dealt left to right."""
    if not factors:
        return B.counit
    dim0, act0 = factors[0]
    if len(factors) == 1:
        return act0
    rest_dim = 1
    for d, _ in factors[1:]:
        rest_dim *= d
    f, b = B.field, B.dim
    spread = B.comult.kron(Matrix.identity(f, dim0 * rest_dim))
    reorder = permute_slots(f, [b, b, dim0, rest_dim], [0, 2, 1, 3])
    return act0.kron(diagonal_action_tensor(B, factors[1:])).mul(reorder).mul(spread)


def diagonal_action(B, factors):
    """L_b of the diagonal action, sliced out of the tensor."""
    dim = 1
    for d, _ in factors:
        dim *= d
    big = diagonal_action_tensor(B, factors)
    return [action_of_basis(big, B.dim, dim, b) for b in range(B.dim)]


def twisted_actions(B, M, C, X, n):
    """L_b on X (x) M (x) C^n: the coefficient X receives the last leg."""
    f, b = B.field, B.dim
    rest_dim = M.dim * C.dim**n
    rest = diagonal_action_tensor(B, [(M.dim, M.action)] + [(C.dim, C.action)] * n)
    spread = B.comult.kron(Matrix.identity(f, X.dim * rest_dim))
    reorder = permute_slots(f, [b, b, X.dim, rest_dim], [1, 2, 0, 3])
    big = X.action.kron(rest).mul(reorder).mul(spread)
    return [action_of_basis(big, b, X.dim * rest_dim, bb) for bb in range(b)]


def wrap_coface(C, M, X, n):
    """Last coface x (x) m (x) t -> x_(0) (x) m_(0) (x) t (x) x_(-1)(m_(-1))."""
    f, b, c, m, x = C.over.field, C.over.dim, C.dim, M.dim, X.dim
    cn = c**n
    spread = X.coaction.kron(M.left_coaction).kron(Matrix.identity(f, cn))
    reorder = permute_slots(f, [b, x, c, m, cn], [1, 3, 4, 0, 2])
    return Matrix.identity(f, x * m * cn).kron(C.action).mul(reorder).mul(spread)


def coalgebra_rotation(C, X, n):
    """Cyclic operator x (x) c0 (x) t -> x_(0) (x) t (x) x_(-1)(c0)."""
    f, c, x = C.over.field, C.dim, X.dim
    cn = c**n
    spread = X.coaction.kron(Matrix.identity(f, c * cn))
    reorder = permute_slots(f, [C.over.dim, x, c, cn], [1, 3, 0, 2])
    return Matrix.identity(f, x * cn).kron(C.action).mul(reorder).mul(spread)


def algebra_rotation(A, X, n):
    """Cyclic operator r (x) a (x) x -> a_(0) (x) r (x) a_(1) x."""
    f, a, x = A.over.field, A.dim, X.dim
    an = a**n
    spread = Matrix.identity(f, an).kron(A.coaction).kron(Matrix.identity(f, x))
    reorder = permute_slots(f, [an, a, A.over.dim, x], [1, 0, 2, 3])
    return Matrix.identity(f, a**(n + 1)).kron(X.action).mul(reorder).mul(spread)


def right_coaction_of_modcomod(X):
    """x -> x_(0) (x) x_(-1) by the flip."""
    return swap_matrix(X.over.field, X.over.dim, X.dim).mul(X.coaction)


def diagonal_right_coaction(B, factors):
    """Diagonal right coaction; legs multiply in slot order."""
    f, b = B.field, B.dim
    dim0, rho0 = factors[0]
    if len(factors) == 1:
        return rho0
    rest_dim = 1
    for d, _ in factors[1:]:
        rest_dim *= d
    spread = rho0.kron(diagonal_right_coaction(B, factors[1:]))
    reorder = permute_slots(f, [dim0, b, rest_dim, b], [0, 2, 1, 3])
    collect = Matrix.identity(f, dim0 * rest_dim).kron(B.mult)
    return collect.mul(reorder).mul(spread)


def r_ad_coaction(B, sinv):
    """x -> x_(1) S^{-1}(x_(3)) (x) x_(2)."""
    I_B = B.identity_matrix()
    d = B.dim
    delta2 = B.comult.kron(I_B).mul(B.comult)
    reorder = permute_slots(B.field, [d, d, d], [0, 2, 1])
    pair = B.mult.mul(I_B.kron(sinv)).kron(I_B)
    return pair.mul(reorder).mul(delta2)


def ad_r_action(B, sinv):
    """b (x) x -> b_(1) x S^{-1}(b_(2))."""
    I_B = B.identity_matrix()
    d = B.dim
    spread = B.comult.kron(I_B)
    reorder = permute_slots(B.field, [d, d, d], [0, 2, 1])
    return B.mult.mul(B.mult.kron(I_B)).mul(I_B.kron(I_B).kron(sinv)).mul(reorder).mul(spread)


def ayd_rhs(X, sinv):
    """b (x) x -> b_(1) x_(-1) S^{-1}(b_(3)) (x) b_(2) x_(0)."""
    B = X.over
    I_B = B.identity_matrix()
    d, x = B.dim, X.dim
    delta2 = B.comult.kron(I_B).mul(B.comult)
    spread = delta2.kron(X.coaction)
    reorder = permute_slots(B.field, [d, d, d, d, x], [0, 3, 2, 1, 4])
    m3s = B.mult.mul(B.mult.kron(I_B)).mul(I_B.kron(I_B).kron(sinv))
    return m3s.kron(X.action).mul(reorder).mul(spread)


def bialgebra_rhs(B):
    """a (x) b -> a_(1) b_(1) (x) a_(2) b_(2) through the middle flip."""
    I = B.identity_matrix()
    mid = I.kron(swap_matrix(B.field, B.dim, B.dim)).kron(I)
    return B.mult.kron(B.mult).mul(mid).mul(B.comult.kron(B.comult))


def action_of_vector(B, action, dim, vec):
    """x -> v . x as a combination of single-element action matrices."""
    out = Matrix.zero(B.field, dim, dim)
    for b, coeff in vec.items():
        out = out.add(action_of_basis(action, B.dim, dim, b).scale(coeff))
    return out


def module_coalgebra_rhs(mc):
    """b (x) c -> b_(1)(c_(1)) (x) b_(2)(c_(2))."""
    B, C, act = mc.over, mc.base, mc.action
    mid = B.identity_matrix().kron(swap_matrix(B.field, B.dim, C.dim)).kron(C.identity_matrix())
    return act.kron(act).mul(mid).mul(B.comult.kron(C.comult))


def comodule_algebra_rhs(ca):
    """a (x) a' -> a_(0) a'_(0) (x) a_(1) a'_(1)."""
    A, B, rho = ca.base, ca.over, ca.coaction
    mid = A.identity_matrix().kron(swap_matrix(B.field, B.dim, A.dim)).kron(B.identity_matrix())
    return A.mult.kron(B.mult).mul(mid).mul(rho.kron(rho))


def bicomodule_rhs(m):
    """Both equivariance right-hand sides of an equivariant bicomodule."""
    mc = m.coalgebra
    B, C = mc.over, mc.base
    f = B.field
    I_B, I_M, I_C = B.identity_matrix(), Matrix.identity(f, m.dim), C.identity_matrix()
    mid = I_B.kron(swap_matrix(f, B.dim, C.dim)).kron(I_M)
    left = mc.action.kron(m.action).mul(mid).mul(B.comult.kron(m.left_coaction))
    mid2 = I_B.kron(swap_matrix(f, B.dim, m.dim)).kron(I_C)
    right = m.action.kron(mc.action).mul(mid2).mul(B.comult.kron(m.right_coaction))
    return left, right


def ch_wrap(C_desc, md, lco, n):
    """Last plain Cartier-Hochschild coface m (x) t -> m_(0) (x) t (x) m_(-1)."""
    f, c = C_desc.field, C_desc.dim
    spread = lco.kron(Matrix.identity(f, c**n))
    return permute_slots(f, [c, md, c**n], [1, 2, 0]).mul(spread)


def doi_maps(C_desc, md, lco, rco, n):
    """The comparison's rho_e(M), lambda_e(W) at degree n and phi at degree n."""
    f, c = C_desc.field, C_desc.dim
    rho_m = permute_slots(f, [c, md, c], [1, 2, 0]).mul(
        Matrix.identity(f, c).kron(rco).mul(lco))
    w = c**(n + 2)
    lam = slotted(f, 1, C_desc.comult, c**(n + 1))
    rho = slotted(f, c**(n + 1), C_desc.comult, 1)
    lam_w = permute_slots(f, [c, w, c], [0, 2, 1]).mul(slotted(f, c, rho, 1).mul(lam))
    spread = Matrix.identity(f, c).kron(rco).mul(lco).kron(Matrix.identity(f, c**n))
    phi = permute_slots(f, [c, md, c, c**n], [1, 2, 3, 0]).mul(spread)
    return rho_m, lam_w, phi


def shear_maps(n, B):
    """The shear map on B^{(x) n} and its inverse by Kronecker chains."""
    f, d = B.field, B.dim
    I = Matrix.identity(f, d)

    def shear_rec(k):
        if k == 1:
            return I
        diag = diagonal_action_tensor(B, [(d, B.mult)] * (k - 1))
        return I.kron(diag).mul(B.comult.kron(shear_rec(k - 1)))

    if n == 1:
        return I, I
    spread = B.comult
    for _ in range(n - 2):
        spread = spread.kron(B.comult)
    fold = I
    for _ in range(n - 1):
        fold = fold.kron(B.mult.mul(B.antipode.kron(I)))
    return shear_rec(n), fold.mul(spread.kron(I))
