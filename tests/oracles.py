"""Independent oracles used to cross-check the sparse engine.

Textbook row reduction on dense lists, written without reference to the
package internals so the two routes stay independent; the rank with the
rows in dict order, the reference for the sparsest-first order of
``linalg.rank``; the structure maps in
their reference form, composed from Kronecker products, slot permutation
matrices and matrix products; the coinvariant quotient taken over every
basis element of B; the quotient read off the dense kernel of the matrix
whose rows are the relations, the reference for ``linalg.QuotientSpace``; the
test that a map descends to quotients by one membership test per relation,
the reference for the product form of ``linalg.map_well_defined``; the
solve that expresses each column over the generators a tracking echelon
keeps, the reference for ``linalg.solve_columns``; the
total coaction of the algebra side wired one degree at a time, the
reference for its Kronecker blocks; the algebra-side cyclic module
assembled from ambient faces and tau times the kernel basis, the reference
for the assembly that applies them on the kernel basis; every face identity of a cyclic
module and every coface identity of a cocyclic module, with or without tau,
the references for the reduced checks of ``CyclicModule.validate`` and
``complexes._check_coface_degree``; tau^{n+1} = id and every tau identity
of a model, the reference for the checks and proofs of
``regular.free_model``; bbar and Bbar of Connes' complex formed on whole
degrees and restricted, the reference for the free-row products of
``complexes.connes_complex``; the differential of the bar
resolution as a sum of Kronecker products, the reference for the shifted
``complexes.bar_complex``; the isomorphism from the model of a regular
module coalgebra onto its descended cocyclic module; the model's tau and
cofaces with Psi applied by the whole diagonal action of each leg, the
reference for the Kronecker sums of ``regular.Untwist.wrapped``; each
degree of a comparison map between models written with one whole
diagonal action per leg, the reference for the one pass of
``regular.Untwist.comparison``; the wiring planner that walks every basis
tuple through every step, the reference for ``linalg.wire``; the cyclic
verdicts of coalgebra excision read off the triple complex of the three
(b, b', 1 - lambda, N) totals, the reference for the column filtration of
``theorems._cyclic_excision``; the mapping cone written block by block and
the triple complex as the cone of cone(u) -> Z', the reference for the one
pass of ``theorems.mapping_cone``; and the hypothesis
systems, integrals, counit action, unit coaction, ideal closure and direct
sums written as hand-indexed coefficient loops, the references for their
forms assembled from ``kron``, ``wire``, ``column_blocks`` and one
``solve_columns`` call.
"""

import itertools
import math
import operator
from fractions import Fraction
from types import SimpleNamespace

from hopfcyclic.complexes import (
    CyclicModule,
    _diagonal_action,
    _mixed_total,
    codegeneracy,
    comodule_coinvariants,
    cyclic_total_complex,
    normalized_cochains,
    total_coactions,
)
from hopfcyclic.equivariant import ComoduleAlgebra, ModuleCoalgebra
from hopfcyclic.errors import IdentityViolation, ParseError, ShapeMismatch
from hopfcyclic.hopf import BialgebraDesc
from hopfcyclic.linalg import (
    Echelon,
    GradedComplex,
    Matrix,
    QuotientSpace,
    block_matrix,
    complex_homology,
    rank_kernel,
    restrict,
    solve_columns,
    wire,
)
from hopfcyclic.theorems import ChainMap, cofibration_verdicts, total_chain_map


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


def row_order_rank(M):
    """Rank of M, its rows inserted into an ``Echelon`` in dict order.

    The rank ``linalg.rank`` computed before it took the rows sparsest
    first; the same elimination in another order.
    """
    ech = Echelon(M.field)
    for row in M.rowdict.values():
        ech.insert(row)
    return ech.rank


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


def dense_quotient(field, ambient_dim, relation_vectors):
    """(dim, projection, section) of k^n modulo the relation span, on dense lists.

    The relations are the rows of a matrix R, so the span is its row space
    and, with x_k the kernel vectors of R that :func:`backsub_kernel` solves
    for, the projection sends e_i to sum_k x_k[i] e_k. It fixes the free
    coordinates, and it sends each row of the RREF of R, e_p plus terms at
    free columns only, to 0. The section puts e_k at the k-th free column.
    """
    R = Matrix.from_entries(field, len(relation_vectors), ambient_dim,
                            [(r, c, v) for r, rel in enumerate(relation_vectors)
                             for c, v in rel.items()])
    _, free, kernel = backsub_kernel(R)
    proj = [(k, i, v) for k, x in enumerate(kernel) for i, v in x.items()]
    sec = [(c, k, field.one) for k, c in enumerate(free)]
    return (len(free), Matrix.from_entries(field, len(free), ambient_dim, proj),
            Matrix.from_entries(field, ambient_dim, len(free), sec))


class TrackingEchelon:
    """Row echelon form that tracks, for every stored row, its expression as a
    combination of the inserted generators, which turns membership tests
    into solvers.
    """

    def __init__(self, field):
        self.field = field
        self.pivrows = {}  # pivot col -> row dict (row[pivot] == 1)
        self.combos = {}  # pivot col -> {gen index: coeff}
        self.ngens = 0

    def _reduce(self, vec, combo, combo_sign):
        """Reduce ``vec`` against stored pivot rows.

        With ``combo_sign=-1`` the invariant ``vec == sum(combo[g] * gen_g)``
        is maintained (used on insertion); with ``+1`` the accumulated combo
        expresses the eliminated part (used by :meth:`express`).
        """
        f = self.field
        zero = f.zero
        piv = self.pivrows
        while True:
            hit = None
            for c in vec:
                if c in piv:
                    if hit is None or c < hit:
                        hit = c
            if hit is None:
                return vec, combo
            coeff = vec[hit]
            prow = piv[hit]
            for j, v in prow.items():
                w = f.sub(vec.get(j, zero), f.mul(coeff, v))
                if w == zero:
                    vec.pop(j, None)
                else:
                    vec[j] = w
            pc = self.combos[hit]
            for g, v in pc.items():
                delta = f.mul(coeff, v)
                if combo_sign < 0:
                    delta = f.neg(delta)
                w = f.add(combo.get(g, zero), delta)
                if w == zero:
                    combo.pop(g, None)
                else:
                    combo[g] = w

    def insert(self, vec):
        """Insert a copy of ``vec`` (``{coord: scalar}``). True if rank grew."""
        f = self.field
        combo = {self.ngens: f.one}
        self.ngens += 1
        vec = dict(vec)
        vec, combo = self._reduce(vec, combo, combo_sign=-1)
        if not vec:
            return False
        p = min(vec)
        lead = vec[p]
        if lead != f.one:
            inv = f.inv(lead)
            vec = {j: f.mul(inv, v) for j, v in vec.items()}
            combo = {g: f.mul(inv, v) for g, v in combo.items()}
        self.pivrows[p] = vec
        self.combos[p] = combo
        return True

    def express(self, vec):
        """Coefficients writing ``vec`` over the inserted generators, or None."""
        vec, combo = self._reduce(dict(vec), {}, combo_sign=+1)
        if vec:
            return None
        return combo


def tracked_solve(A, B):
    """X with A @ X == B, or None: each column of B expressed over the columns
    of A inserted in order into a :class:`TrackingEchelon`. The reference for
    ``linalg.solve_columns``, which reads X off the RREF of [A | B] instead.
    """
    f = A.field
    if A.rows != B.rows:
        raise ShapeMismatch("solve dimension mismatch")
    ech = TrackingEchelon(f)
    for c in A.columns():
        ech.insert(c)
    ents = []
    for j, b in enumerate(B.columns()):
        combo = ech.express(b)
        if combo is None:
            return None
        for g, v in combo.items():
            ents.append((g, j, v))
    return Matrix.from_entries(f, A.cols, B.cols, ents)


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


def wire_total_coactions(A, X, maxdeg):
    """The total coaction V_n -> V_n (x) B on V_n = A^{(x) n+1} (x) X, n = 0 .. maxdeg.

    Each degree wires one A slot to the coaction of the degree below, and
    the coefficient's left coaction is flipped into a right one, by
    ``linalg.wire``.
    """
    B = A.over
    f, b, a = B.field, B.dim, A.dim
    rho = wire(f, {"x": X.dim, "x0": X.dim, "h": b}, "x -> x0 h", (X.coaction, "x -> h x0"))
    for _ in range(maxdeg + 1):
        rest = rho.cols
        dims = {"v": a, "v0": a, "w": rest, "w0": rest, "h": b, "k": b, "p": b}
        rho = wire(f, dims, "v w -> v0 w0 p", (A.coaction, "v -> v0 h"),
                   (rho, "w -> w0 k"), (B.mult, "h k -> p"))
        yield rho


def coinvariants_of(B, rho):
    """The canonical kernel basis of rho - id (x) unit: the v with rho(v) = v (x) 1."""
    return rank_kernel(rho.sub(slotted(B.field, rho.cols, B.unit, 1)))[1]


def from_blocks(blocks):
    """The coaction V -> V (x) B whose blocks are ``blocks``: row v0 * dim B + p."""
    b = len(blocks)
    rd = {}
    for p, C in enumerate(blocks):
        for i, row in C.rowdict.items():
            rd[i * b + p] = dict(row)
    return Matrix(blocks[0].field, blocks[0].rows * b, blocks[0].cols, rd)


def ambient_assemble_algebra(A, X, maxdeg):
    """The validated cyclic module of the algebra side, from ambient operators.

    Every face and tau is built on all of A^{(x) n+1} (x) X, d_n as the
    ambient product d_0 tau, and each is multiplied by the kernel basis
    before ``restrict`` reads it off. The reference for
    ``complexes._assemble_algebra``, which applies each operator on the
    kernel basis only; the operators here are the Kronecker forms of
    ``slotted`` and of the rotation.
    """
    B = A.over
    f = B.field
    a = A.dim
    x = X.dim
    # no blocks outlive the generator, so none is alive past the last kernel
    inclusions = [comodule_coinvariants(B.unit, blocks)
                  for blocks in total_coactions(A, X, maxdeg)]

    def onto(Mamb, n_src, n_dst):
        small = restrict(inclusions[n_dst], Mamb.mul(inclusions[n_src]))
        if small is None:
            raise IdentityViolation(n_src, "operator preserves the cotensor subspace")
        return small

    taus_amb = [algebra_rotation(A, X, n) for n in range(maxdeg + 1)]
    faces_small = [[]]  # degree 0 has no faces
    for n in range(1, maxdeg + 1):
        faces = [slotted(f, a**j, A.base.mult, a**(n - 1 - j) * x) for j in range(n)]
        faces.append(faces[0].mul(taus_amb[n]))
        faces_small.append([onto(d, n, n - 1) for d in faces])
    taus_small = [onto(taus_amb[n], n, n) for n in range(maxdeg + 1)]
    cm = CyclicModule(f, B, [K.cols for K in inclusions], faces_small, taus_small, inclusions)
    cm.validate()
    return cm


def all_face_identities(cm):
    """True iff every face identity d_i d_j = d_{j-1} d_i, i < j, holds in every degree.

    The full loop of n(n+1)/2 pairs per degree n of a cyclic module.
    """
    for n in range(2, cm.top + 1):
        faces, lower = cm.faces[n], cm.faces[n - 1]
        for j in range(1, n + 1):
            for i in range(j):
                if lower[i].mul(faces[j]) != lower[j - 1].mul(faces[i]):
                    return False
    return True


def all_coface_identities(cofaces):
    """True iff every coface identity d_j d_i = d_i d_{j-1}, i < j, holds in every degree.

    ``cofaces`` lists the cofaces out of consecutive degrees: those of a
    cocyclic module, with or without tau, or two degrees of them. The full
    loop of (m+3)(m+2)/2 pairs out of each degree m but the last.
    """
    for lower, upper in itertools.pairwise(cofaces):
        for j in range(len(upper)):
            for i in range(j):
                if upper[j].mul(lower[i]) != upper[i].mul(lower[j - 1]):
                    return False
    return True


def all_tau_identities(cm, cofaces):
    """True iff tau^{n+1} = id and every tau identity hold wherever tau is built.

    ``cofaces[n]`` are the cofaces out of degree n. The full loops:
    tau^{n+1} in every degree that carries tau, and tau d_j = d_{j-1} tau
    for 1 <= j <= n+1 and tau d_0 = d_{n+1} out of each degree n whose
    tau_{n+1} is built, of which a model of ``regular.free_model`` checks
    only the first and the last two and proves the rest. tau^{n+1} is
    (tau^k)^2, k = floor((n+1)/2), times tau once more where n+1 is odd:
    ceil((n+1)/2) products, not n.
    """
    tau = cm.tau
    for n, t in enumerate(tau):
        half = t
        for _ in range((n + 1) // 2 - 1):
            half = half.mul(t)
        power = t if n == 0 else half.mul(half) if n % 2 else half.mul(half).mul(t)
        if power != Matrix.identity(cm.field, cm.dims[n]):
            return False
    for n, faces in enumerate(cofaces[:max(len(tau) - 1, 0)]):
        if any(tau[n + 1].mul(faces[j]) != faces[j - 1].mul(tau[n]) for j in range(1, n + 2)):
            return False
        if tau[n + 1].mul(faces[0]) != faces[n + 1]:
            return False
    return True


def all_codegeneracy_identities(cm):
    """True iff every identity of the codegeneracies of a model with tau holds in every degree.

    sigma_i out of degree n+1 is ``complexes.codegeneracy(cm, n, i)``, d
    the cofaces, which a model does not keep, from :func:`model_cofaces`,
    and tau the cyclic operator of ``cm``. The full loop, which
    that function's docstring proves from audits:
    sigma_j sigma_i = sigma_i sigma_{j+1} for i <= j; sigma_j d_i =
    d_i sigma_{j-1} for i < j, id for i = j and i = j+1, and
    d_{i-1} sigma_j for i > j+1; tau sigma_i = sigma_{i-1} tau for
    1 <= i <= n, and tau_n sigma_0 = sigma_n tau_{n+1}^2 wherever tau_{n+1}
    is built.
    """
    tau = cm.tau
    sigma = [[codegeneracy(cm, n, i) for i in range(n + 1)] for n in range(cm.top)]
    faces = [model_cofaces(cm.untwist, n) for n in range(cm.top)]
    for n, s in enumerate(sigma):  # s[j]: degree n+1 -> n
        if n + 1 < cm.top:
            up = sigma[n + 1]
            if any(s[j].mul(up[i]) != s[i].mul(up[j + 1])
                   for j in range(n + 1) for i in range(j + 1)):
                return False
        ident = Matrix.identity(cm.field, cm.dims[n])
        for j in range(n + 1):
            for i, d in enumerate(faces[n]):
                if i < j:
                    want = faces[n - 1][i].mul(sigma[n - 1][j - 1])
                elif i <= j + 1:
                    want = ident
                else:
                    want = faces[n - 1][i - 1].mul(sigma[n - 1][j])
                if s[j].mul(d) != want:
                    return False
        if n + 1 >= len(tau):
            continue
        if any(tau[n].mul(s[i]) != s[i - 1].mul(tau[n + 1]) for i in range(1, n + 1)):
            return False
        if tau[n].mul(s[0]) != s[n].mul(tau[n + 1]).mul(tau[n + 1]):
            return False
    return True


def whole_degree_connes(cm, maxtot):
    """Connes' complex on a model with bbar and Bbar each formed on whole degrees.

    b_n K_n, and N_n sigma_n tau_{n+1} K_{n+1} with N_n applied as n
    products lambda_n . image on all dims[n] rows, are restricted onto the
    normalized cochains by ``linalg.restrict``, which checks exactly that
    each image lies in them. The reference for the free-row products of
    ``complexes.connes_complex``, which reads off the rows K_n.free only
    what its docstring proves to lie in the normalized cochains.
    """
    K = normalized_cochains(cm, maxtot)

    def onto(n, image, what):
        small = restrict(K[n], image)
        if small is None:
            raise IdentityViolation(n, f"{what} preserves the normalized cochains")
        return small

    b = [onto(n + 1, cm.b[n].mul(K[n]), "b") for n in range(maxtot)]
    B = []
    for n in range(maxtot - 1):
        lam = cm.tau[n] if n % 2 == 0 else cm.tau[n].neg()
        image = extra = codegeneracy(cm, n, n).mul(cm.tau[n + 1]).mul(K[n + 1])
        for _ in range(n):  # N_n Y = Y + lambda (Y + lambda (... + lambda Y))
            image = extra.add(lam.mul(image))
        B.append(onto(n, image, "B"))
    return _mixed_total(cm.field, [k.cols for k in K], b, B)


def bar_resolution_differential(desc, n):
    """The bar resolution's differential C^{(x) n+2} -> C^{(x) n+3} out of degree n.

    sum_j (-1)^j id^{(x) j} (x) Delta (x) id^{(x) n+1-j}, each term a
    Kronecker product with identities.
    """
    f, c = desc.field, desc.dim
    out = Matrix.zero(f, c**(n + 3), c**(n + 2))
    for j in range(n + 2):
        term = slotted(f, c**j, desc.comult, c**(n + 1 - j))
        out = out.add(term.neg() if j % 2 else term)
    return out


def free_isomorphism(X, embed, c, quotients):
    """Degree n -> the class of x (x) w (x) t -> x (x) w (x) t, w a basis vector of W.

    The map Phi from the model on X (x) W (x) C^{(x) n} of a module
    coalgebra free on W to the coinvariant quotients of X (x) M (x)
    C^{(x) n}, as a Kronecker product followed by the quotient projection.
    ``embed`` is the dim M x |W| matrix of the basis vectors W and ``c``
    is dim C.
    """
    f = embed.field
    J = Matrix.identity(f, X.dim).kron(embed)
    out = []
    for q in quotients:
        out.append(q.projection.mul(J))
        J = J.kron(Matrix.identity(f, c))
    return out


def comparison_ambient(x, m_map, c_map, n):
    """id_X (x) m_map (x) c_map^{(x) n} on the ambient twisted complexes, as Kronecker products."""
    out = Matrix.identity(m_map.field, x).kron(m_map)
    for _ in range(n):
        out = out.kron(c_map)
    return out


def comparison_by_legs(src, dst, m_map, c_map, n):
    """Degree n of id_X (x) m_map (x) c_map^{(x) n} from the model of untwist ``src`` to ``dst``'s.

    With A = T_dst m_map on W, one whole diagonal action
    (``complexes._diagonal_action``) per leg s of A: X's action composed
    with A_s, each C slot's with c_map; the reference for the one pass of
    ``regular.Untwist.comparison``.
    """
    B = src.C.over
    f = B.field
    w = len(dst.W)
    A = dst.T.mul(m_map).mul(src.embed)  # rows s * |W_dst| + v
    blocks = {}
    for r, row in A.rowdict.items():
        s, v = divmod(r, w)
        blocks.setdefault(s, {})[v] = row
    factor = dst.C.action.mul(slotted(f, B.dim, c_map, 1))
    dims = {"s": B.dim, "x": src.X.dim, "x1": src.X.dim, "w": len(src.W), "v": w}
    out = Matrix.zero(f, src.X.dim * w * c_map.rows**n, src.X.dim * len(src.W) * c_map.cols**n)
    for s, rd in blocks.items():
        head = wire(f, dims, "s x w -> x1 v", (src.X.action, "s x -> x1"),
                    (Matrix(f, w, A.cols, rd), "w -> v"))
        out = out.add(_diagonal_action(B, [(None, factor)] * n, (None, head), [s])[s])
    return out


def cofaces_of(cm, n):
    """The cofaces out of degree n of ``cm``, a model's from :func:`model_cofaces`: it keeps none."""
    return model_cofaces(cm.untwist, n) if cm.cofaces is None else cm.cofaces[n]


def is_cocyclic_isomorphism(iso, src, dst):
    """True iff each iso[n] is invertible and iso intertwines every coface and tau, exactly.

    tau is compared wherever it is built, in the same degrees on both; a
    module with tau is no isomorph of one without. A model's cofaces are
    :func:`cofaces_of` it.
    """
    if len(iso) != src.top + 1 or src.dims != dst.dims:
        return False
    if (src.tau is None) != (dst.tau is None):
        return False
    if src.tau is not None and len(src.tau) != len(dst.tau):
        return False
    for n, m in enumerate(iso):
        if (m.rows, m.cols) != (dst.dims[n], src.dims[n]) or rank_kernel(m)[0] != m.rows:
            return False
    for n, (t_src, t_dst) in enumerate(zip(src.tau or (), dst.tau or ())):
        if t_dst.mul(iso[n]) != iso[n].mul(t_src):
            return False
    for n in range(src.top):
        for d_src, d_dst in zip(cofaces_of(src, n), cofaces_of(dst, n), strict=True):
            if d_dst.mul(iso[n]) != iso[n + 1].mul(d_src):
                return False
    return True


def counit_action(B, dim):
    """b . x = eps(b) x as a B (x) X -> X tensor."""
    f = B.field
    eps = B.counit.rowdict.get(0, {})
    ents = []
    for b, v in eps.items():
        for x in range(dim):
            ents.append((x, b * dim + x, v))
    return Matrix.from_entries(f, dim, B.dim * dim, ents)


def unit_coaction(B, dim):
    """x -> unit (x) x as an X -> B (x) X tensor."""
    f = B.field
    ents = []
    for b, v in B.unit.col(0).items():
        for x in range(dim):
            ents.append((b * dim + x, x, v))
    return Matrix.from_entries(f, B.dim * dim, dim, ents)


def solve_matrix_system(field, m, n, constraints):
    """Solve sum_k A_k U B_k = R (several constraints) for an m x n unknown U.

    Each constraint is ``(terms, R)`` with ``terms`` a list of (A, B) pairs.
    Returns U as a Matrix, or None when inconsistent. Unknowns are vectorized
    row-major: U[i, j] -> i * n + j.
    """
    f = field
    rows = []
    rhs_entries = []
    rowcount = 0
    for terms, R in constraints:
        out_rows = R.rows
        out_cols = R.cols
        # coefficient of U[i,j] in constraint entry (r, c): sum_k A_k[r,i] B_k[j,c]
        coeff = {}
        for A, Bm in terms:
            if A.rows != out_rows or A.cols != m or Bm.rows != n or Bm.cols != out_cols:
                raise ShapeMismatch("constraint term shapes do not match")
            for r, arow in A.rowdict.items():
                for i, av in arow.items():
                    for j, brow in Bm.rowdict.items():
                        for c, bv in brow.items():
                            key = (r, c)
                            slot = coeff.setdefault(key, {})
                            w = f.add(slot.get(i * n + j, f.zero), f.mul(av, bv))
                            if w == f.zero:
                                slot.pop(i * n + j, None)
                            else:
                                slot[i * n + j] = w
        for (r, c), slot in sorted(coeff.items()):
            rows.append((rowcount, slot))
            v = R.rowdict.get(r, {}).get(c, f.zero)
            if v != f.zero:
                rhs_entries.append((rowcount, 0, v))
            rowcount += 1
        # rows of R with no unknown coefficients must be zero for consistency
        for r, rrow in R.rowdict.items():
            for c, v in rrow.items():
                if (r, c) not in coeff and v != f.zero:
                    return None
    A_big = Matrix(f, rowcount, m * n, {i: dict(s) for i, s in rows if s})
    rhs = Matrix.from_entries(f, rowcount, 1, rhs_entries)
    x = solve_columns(A_big, rhs)
    if x is None:
        return None
    col = x.col(0)
    return Matrix.from_entries(f, m, n, [(k // n, k % n, v) for k, v in col.items()])


def find_integral(desc, side):
    """Normalized (co)integral, or None when the affine system is inconsistent.

    side="cointegral": element s with s b = eps(b) s and eps(s) = 1.
    side="integral": functional n with b_(1) n(b_(2)) = n(b) unit, n(unit) = 1.
    """
    f = desc.field
    d = desc.dim
    if desc.counit is None or desc.unit is None:
        raise ShapeMismatch("integrals need a unital and counital description")
    rows = []
    rhs = []
    if side == "cointegral":
        # unknowns: coordinates of sigma
        eps = desc.counit.rowdict.get(0, {})
        for j in range(d):
            # sigma * e_j - eps(e_j) sigma = 0, componentwise in e_k
            epsj = eps.get(j, f.zero)
            for k in range(d):
                row = {}
                for i in range(d):
                    c = desc.mult.col(i * d + j).get(k, f.zero)
                    if i == k:
                        c = f.sub(c, epsj)
                    if c != f.zero:
                        row[i] = c
                if row:
                    rows.append(row)
                    rhs.append(f.zero)
        rows.append({i: v for i, v in eps.items()})
        rhs.append(f.one)
        sol = _solve_affine(f, rows, rhs, d)
        if sol is None:
            return None
        return Matrix.from_entries(f, d, 1, [(i, 0, v) for i, v in sol.items()])
    if side == "integral":
        # unknowns: coordinates of eta
        unit = desc.unit.col(0)
        for k in range(d):
            dcol = desc.comult.col(k)  # Delta(e_k) entries at j*d+l
            for j in range(d):
                row = {}
                for l in range(d):
                    c = dcol.get(j * d + l, f.zero)
                    if c != f.zero:
                        row[l] = f.add(row.get(l, f.zero), c)
                uj = unit.get(j, f.zero)
                if uj != f.zero:
                    row[k] = f.sub(row.get(k, f.zero), uj)
                row = {i: v for i, v in row.items() if v != f.zero}
                if row:
                    rows.append(row)
                    rhs.append(f.zero)
        rows.append(dict(unit))
        rhs.append(f.one)
        sol = _solve_affine(f, rows, rhs, d)
        if sol is None:
            return None
        return Matrix.from_entries(f, 1, d, [(0, i, v) for i, v in sol.items()])
    raise ParseError(f"unknown integral side {side!r}")


def _solve_affine(field, rows, rhs, nunknowns):
    A = Matrix(field, len(rows), nunknowns,
               {i: dict(r) for i, r in enumerate(rows) if r})
    b = Matrix.from_entries(field, len(rows), 1,
                            [(i, 0, v) for i, v in enumerate(rhs) if v != field.zero])
    x = solve_columns(A, b)
    if x is None:
        return None
    return x.col(0)


def two_sided_ideal_closure(B, gens):
    """Span closure of generator columns under left/right multiplication."""
    f = B.field
    n = B.dim
    ech = Echelon(f)
    for col in gens.columns():
        ech.insert(col)
    grew = True
    while grew:
        grew = False
        basis = ech.basis(n)
        for idx in range(n):
            e = Matrix.from_entries(f, n, 1, [(idx, 0, f.one)])
            for M in (B.mult.mul(e.kron(Matrix.identity(f, n))),
                      B.mult.mul(Matrix.identity(f, n).kron(e))):
                for col in M.mul(basis).columns():
                    if col and ech.insert(col):
                        grew = True
    return ech.basis(n)


def direct_sum_coalgebras(a, b):
    """Componentwise direct sum of two coalgebra descriptions."""
    f = a.field
    if f != b.field:
        raise ShapeMismatch("direct sum needs a common field")
    na, nb = a.dim, b.dim
    n = na + nb
    ents = []
    for jk, i, v in a.comult.entries():
        j, k = divmod(jk, na)
        ents.append((j * n + k, i, v))
    for jk, i, v in b.comult.entries():
        j, k = divmod(jk, nb)
        ents.append(((j + na) * n + (k + na), i + na, v))
    comult = Matrix.from_entries(f, n * n, n, ents)
    counit = None
    if a.counit is not None and b.counit is not None:
        ents = [(0, i, v) for _, i, v in a.counit.entries()]
        ents += [(0, i + na, v) for _, i, v in b.counit.entries()]
        counit = Matrix.from_entries(f, 1, n, ents)
    names = [f"l.{x}" for x in a.basis] + [f"r.{x}" for x in b.basis]
    return BialgebraDesc(f, names, "coalgebra", comult=comult, counit=counit)


def direct_sum_module_coalgebras(a, b):
    """Direct sum of module coalgebras over the same B, componentwise action."""
    if a.over is not b.over and a.over.mult != b.over.mult:
        raise ShapeMismatch("direct sum needs a common acting bialgebra")
    B = a.over
    f = B.field
    na, nb = a.dim, b.dim
    n = na + nb
    base = direct_sum_coalgebras(a.base, b.base)
    ents = []
    for i, col, v in a.action.entries():
        bb, c = divmod(col, na)
        ents.append((i, bb * n + c, v))
    for i, col, v in b.action.entries():
        bb, c = divmod(col, nb)
        ents.append((i + na, bb * n + (c + na), v))
    action = Matrix.from_entries(f, n, B.dim * n, ents)
    return ModuleCoalgebra(base, B, action)


def direct_sum_comodule_algebras(a, b):
    """Product algebra A_1 x A_2 with the componentwise coaction."""
    B = a.over
    f = B.field
    na, nb = a.dim, b.dim
    n = na + nb
    ents = []
    for i, col, v in a.base.mult.entries():
        x, y = divmod(col, na)
        ents.append((i, x * n + y, v))
    for i, col, v in b.base.mult.entries():
        x, y = divmod(col, nb)
        ents.append((i + na, (x + na) * n + (y + na), v))
    mult = Matrix.from_entries(f, n, n * n, ents)
    unit = None
    if a.base.unit is not None and b.base.unit is not None:
        ents = [(i, 0, v) for i, _, v in a.base.unit.entries()]
        ents += [(i + na, 0, v) for i, _, v in b.base.unit.entries()]
        unit = Matrix.from_entries(f, n, 1, ents)
    names = [f"l.{x}" for x in a.base.basis] + [f"r.{x}" for x in b.base.basis]
    desc = BialgebraDesc(f, names, "algebra", mult=mult, unit=unit)
    d = B.dim
    ents = []
    for row, i, v in a.coaction.entries():
        x, leg = divmod(row, d)
        ents.append((x * d + leg, i, v))
    for row, i, v in b.coaction.entries():
        x, leg = divmod(row, d)
        ents.append(((x + na) * d + leg, i + na, v))
    coaction = Matrix.from_entries(f, n * d, n, ents)
    return ComoduleAlgebra(desc, B, coaction)


def untwist_apply(u, front, k):
    """Psi after ``front``, whose rows are X (x) B (x) W (x) C^{(x) k}: sum_s L_s front_s.

    front_s are the rows with s on the B leg, and L_s the diagonal action of
    s on X (x) W (x) C^{(x) k}, W idle, X receiving the last leg, built
    whole for each s; the reference for ``regular.Untwist.wrapped``.
    """
    B = u.C.over
    f = B.field
    rest = len(u.W) * u.C.dim**k
    blocks = {}
    for r, row in front.rowdict.items():
        xi, r = divmod(r, B.dim * rest)
        s, r = divmod(r, rest)
        blocks.setdefault(s, {})[xi * rest + r] = row
    idle_w = wire(f, {"b": B.dim, "x": u.X.dim, "y": u.X.dim, "w": len(u.W)}, "b x w -> y w",
                  (u.X.action, "b x -> y"))
    acts = _diagonal_action(B, [(None, u.C.action)] * k, (None, idle_w), blocks)
    rows = u.X.dim * rest
    out = Matrix.zero(f, rows, front.cols)
    for s, rd in blocks.items():
        out = out.add(acts[s].mul(Matrix(f, rows, front.cols, rd)))
    return out


def model_cofaces(u, n):
    """The n+2 cofaces of ``regular.free_model`` out of degree n, Psi by :func:`untwist_apply`."""
    C, X = u.C, u.X
    f = C.over.field
    x, w, c = X.dim, len(u.W), C.dim
    dims = {"x": x, "x0": x, "w": w, "v": w, "s": C.over.dim, "h": C.over.dim, "c": c,
            "y": c, "m": u.embed.rows, "t": c**n}
    first = wire(f, dims, "x w t -> x s v c t", (u.right, "w -> m c"), (u.T, "m -> s v"))
    last = wire(f, dims, "x w t -> x0 s v t y", (X.coaction, "x -> h x0"),
                (u.left, "w -> c m"), (C.action, "h c -> y"), (u.T, "m -> s v"))
    return ([untwist_apply(u, first, n + 1)]
            + [slotted(f, x * w * c**(j - 1), C.base.comult, c**(n - j)) for j in range(1, n + 1)]
            + [untwist_apply(u, last, n + 1)])


def model_rotation(u, n):
    """tau of ``regular.free_model`` in degree n, Psi applied by :func:`untwist_apply`."""
    C, X = u.C, u.X
    f = C.over.field
    dims = {"x": X.dim, "x0": X.dim, "w": len(u.W), "v": len(u.W), "s": C.over.dim,
            "h": C.over.dim, "m": C.dim, "c": C.dim, "y": C.dim, "t": C.dim**max(n - 1, 0)}
    steps = [(X.coaction, "x -> h x0"), (u.embed, "w -> m"), (C.action, "h m -> y")]
    if n == 0:
        front = wire(f, dims, "x w -> x0 s v", *steps, (u.T, "y -> s v"))
    else:
        front = wire(f, dims, "x w c t -> x0 s v t y", *steps, (u.T, "c -> s v"))
    return untwist_apply(u, front, n)


def is_the_applied_model(cm, cofaces):
    """True iff tau and the cofaces of the model ``cm`` equal their :func:`untwist_apply` form.

    A model keeps no cofaces: ``cofaces[n]`` are those out of degree n as
    ``regular.free_model`` handed them over while it built ``cm``.
    """
    u = cm.untwist
    if cm.tau is not None and any(t != model_rotation(u, n) for n, t in enumerate(cm.tau)):
        return False
    return len(cofaces) == cm.top and all(
        list(faces) == model_cofaces(u, n) for n, faces in enumerate(cofaces))


def _planned_legs(text):
    """The leg names on either side of "in legs -> out legs"."""
    src, arrow, dst = text.partition("->")
    if not arrow:
        raise ShapeMismatch(f"wiring {text!r} has no '->'")
    return src.split(), dst.split()


def _planned_unravel(index, dims):
    """The row-major slot values of ``index`` in a product of ``dims``."""
    out = []
    for d in reversed(dims):
        index, r = divmod(index, d)
        out.append(r)
    return tuple(reversed(out))


def _planned_picker(positions):
    """st -> the tuple of st's entries at ``positions``."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        k = positions[0]
        return lambda st: (st[k],)
    return lambda st: ()


def planned_wire(field, dims, spec, *steps, on=None):
    """A wiring's operator, planned one basis tuple at a time; the reference for ``linalg.wire``.

    Same reading of ``spec``, ``steps``, ``dims`` and ``on``, the same
    refusals with the same messages. Each step's entries are unravelled
    into leg values, every basis tuple of the touched legs is walked
    through the steps as a dict of states, and each row and column index
    is a sum over its legs' strides.
    """
    f = field
    zero = f.zero
    src, dst = _planned_legs(spec)
    consumed = {leg for _, text in steps for leg in _planned_legs(text)[0]}
    ident = [leg for leg in src if leg not in consumed]
    live = [leg for leg in src if leg in consumed]
    touched = list(live)
    plan = []
    for M, text in steps:
        ins, outs = _planned_legs(text)
        if any(leg not in live for leg in ins) or any(
                leg in live or leg in ident for leg in outs):
            raise ShapeMismatch(f"step {text!r} does not fit the live legs {live}")
        in_dims = [dims[leg] for leg in ins]
        out_dims = [dims[leg] for leg in outs]
        shape = (math.prod(out_dims), math.prod(in_dims))
        if (M.rows, M.cols) != shape:
            raise ShapeMismatch(f"step {text!r} needs a {shape[0]}x{shape[1]} tensor, "
                                f"got {M.rows}x{M.cols}")
        reads = [live.index(leg) for leg in ins]
        keep = [k for k, leg in enumerate(live) if leg not in ins]
        hits = {}  # in leg values, as ``read`` returns them -> [(out leg values, entry)]
        for i, row in M.rowdict.items():
            values = _planned_unravel(i, out_dims)
            for j, v in row.items():
                key = _planned_unravel(j, in_dims)
                hits.setdefault(key[0] if len(key) == 1 else key, []).append((values, v))
        read = operator.itemgetter(*reads) if reads else (lambda st: ())
        plan.append((read, _planned_picker(keep), hits))
        live = [live[k] for k in keep] + outs
    if sorted(live + ident) != sorted(dst) or len(set(dst)) != len(dst):
        raise ShapeMismatch(f"wiring {spec!r} leaves legs {live} unmatched")
    src_strides = {leg: math.prod(dims[x] for x in src[k + 1:]) for k, leg in enumerate(src)}
    dst_strides = {leg: math.prod(dims[x] for x in dst[k + 1:]) for k, leg in enumerate(dst)}
    col_strides = [src_strides[leg] for leg in touched]
    row_strides = [dst_strides[leg] for leg in live]

    table = {}  # row on the touched legs -> {column on the touched legs: entry}
    for start in itertools.product(*[range(dims[leg]) for leg in touched]):
        states = {start: f.one}
        for read, keep, hits in plan:
            nxt = {}
            for st, c in states.items():
                found = hits.get(read(st))
                if found is None:
                    continue
                base = keep(st)
                for values, v in found:
                    key = base + values
                    w = f.add(nxt.get(key, zero), f.mul(c, v))
                    if w == zero:
                        nxt.pop(key, None)
                    else:
                        nxt[key] = w
            states = nxt
        col = sum(t * s for t, s in zip(start, col_strides))
        for st, c in states.items():
            row = sum(t * s for t, s in zip(st, row_strides))
            table.setdefault(row, {})[col] = c

    offsets = [(0, 0)]  # (row offset, column offset) of each identity basis tuple
    for leg in ident:
        so, si = dst_strides[leg], src_strides[leg]
        offsets = [(ro + t * so, co + t * si) for ro, co in offsets for t in range(dims[leg])]
    nrows, ncols = math.prod(dims[leg] for leg in dst), math.prod(dims[leg] for leg in src)
    rd = {}
    if on is None:
        for row, cols in table.items():
            for ro, co in offsets:
                rd[row + ro] = {col + co: v for col, v in cols.items()}
        return Matrix(f, nrows, ncols, rd)
    if on.rows != ncols:
        raise ShapeMismatch(f"a {nrows}x{ncols} wiring does not apply to {on.rows} rows")
    written = on.rowdict
    for row, cols in table.items():
        for ro, co in offsets:
            entries = {col + co: v for col, v in cols.items() if col + co in written}
            if entries:
                rd[row + ro] = entries
    return Matrix(f, nrows, ncols, rd).mul(on)


def bicomplex_cyclic_excision(T_K, T_C, T_Q, u, v, maxdeg):
    """(verdicts, dims) of ``theorems._cyclic_excision`` from the bicomplex triple.

    Each module's (b, b', 1 - lambda, N) total is built through its depth,
    u and v are lifted onto the totals with every block square checked, and
    the verdicts are those of the triple complex of the three totals.
    """
    tots = [cyclic_total_complex(T, T.top) for T in (T_K, T_C, T_Q)]
    verdicts = cofibration_verdicts(total_chain_map(tots[0], tots[1], u.components),
                                    total_chain_map(tots[1], tots[2], v.components), maxdeg)
    return verdicts, [complex_homology(t, maxdeg) for t in tots]


def cone_pieces(f):
    """(dims, diffs) of the mapping cone of ``f``, block by block and unchecked.

    Cochain: cone^m = A^m (+) B^{m-1} with d(a, b) = (d a, f a - d b).
    Chain: cone_m = A_{m-1} (+) B_m with d(a, b) = (-d a, f a + d b).
    """
    A, B = f.source, f.target
    fld = A.field
    if f.orientation == +1:
        top = min(A.top, B.top + 1)
        dims = [A.dims[m] + (B.dims[m - 1] if m >= 1 else 0) for m in range(top + 1)]
        diffs = {}
        for m in range(top):
            b_dim = B.dims[m - 1] if m >= 1 else 0
            dB = B.diffs.get(m - 1) if m >= 1 else None
            grid = [[A.diffs.get(m), None],
                    [f.components.get(m), None if dB is None else dB.neg()]]
            diffs[m] = block_matrix(fld, grid,
                                    [A.dims[m + 1], B.dims[m]],
                                    [A.dims[m], b_dim])
        return dims, diffs
    top = min(A.top + 1, B.top)
    dims = [(A.dims[m - 1] if m >= 1 else 0) + B.dims[m] for m in range(top + 1)]
    diffs = {}
    for m in range(1, top + 1):
        a_dim = A.dims[m - 1]
        a_tgt = A.dims[m - 2] if m >= 2 else 0
        dA = A.diffs.get(m - 1) if m >= 2 else None
        grid = [[None if dA is None else dA.neg(), None],
                [f.components.get(m - 1), B.diffs.get(m)]]
        diffs[m] = block_matrix(fld, grid,
                                [a_tgt, B.dims[m - 1]],
                                [a_dim, B.dims[m]])
    return dims, diffs


def nested_cone(*maps):
    """(dims, diffs) of ``theorems.mapping_cone`` of one map or of two, built as nested cones.

    One map is :func:`cone_pieces`. Two maps u, v give the cone of the map
    w: cone(u) -> Z' induced by v, w(x, y) = v y. On the cochain side Z' is
    Z shifted up one degree with its differential negated, so
    D^m = X^m (+) Y^{m-1} (+) Z^{m-2} with d(x, y, z) = (d x, u x - d y,
    v y + d z); on the chain side Z' = Z and D_m = X_{m-2} (+) Y_{m-1} (+) Z_m.
    """
    if len(maps) == 1:
        return cone_pieces(maps[0])
    u, v = maps
    Z = v.target
    fld = Z.field
    dims, diffs = cone_pieces(u)
    A = SimpleNamespace(field=fld, orientation=u.orientation, dims=dims, top=len(dims) - 1,
                        diffs=diffs)
    shift = 0
    if u.orientation == +1:
        shift = 1
        Z = GradedComplex(fld, +1, [0] + Z.dims, {n + 1: d.neg() for n, d in Z.diffs.items()})
    w = {}
    for m in range(A.top + 1):
        vy = v.components.get(m - shift)  # Y part of cone(u) in degree m -> Z'
        if vy is not None:
            w[m] = block_matrix(fld, [[None, vy]], [vy.rows], [A.dims[m] - vy.cols, vy.cols])
    return cone_pieces(ChainMap(A, Z, w, check=False))
