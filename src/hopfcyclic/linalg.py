"""Sparse exact linear algebra: matrices, ranks, kernels, quotients, homology.

Everything downstream reduces to the operations in this module. Matrices are
immutable-by-convention sparse maps ``row -> col -> scalar`` over a
:class:`~hopfcyclic.fields.Field`; elimination is exact Gaussian elimination
with leftmost-pivot selection and monic pivot rows, which keeps Fraction
entries small on the structured matrices this package produces. Floating
point never appears.
"""

import itertools
import math
import operator

from .errors import DegreeOutOfRange, ShapeMismatch


class Matrix:
    """A sparse rows x cols matrix over an exact field.

    ``rowdict`` maps row index to ``{col: scalar}``; zero entries and empty
    rows are never stored, so structural equality is semantic equality.
    """

    __slots__ = ("field", "rows", "cols", "rowdict", "_coldict")

    def __init__(self, field, rows, cols, rowdict):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.rowdict = rowdict
        self._coldict = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """Build from an iterable of (i, j, value); duplicate coords add up."""
        rd = {}
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeMismatch(f"entry ({i},{j}) outside {rows}x{cols}")
            row = rd.setdefault(i, {})
            w = field.add(row.get(j, field.zero), v)
            if w == field.zero:
                row.pop(j, None)
            else:
                row[j] = w
        for i in [i for i, row in rd.items() if not row]:
            del rd[i]
        return cls(field, rows, cols, rd)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, {})

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, {i: {i: one} for i in range(n)})

    @classmethod
    def from_dense(cls, field, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        ents = []
        for i, r in enumerate(dense):
            for j, v in enumerate(r):
                fv = field.from_int(v) if isinstance(v, int) else v
                if fv != field.zero:
                    ents.append((i, j, fv))
        return cls.from_entries(field, rows, cols, ents)

    @classmethod
    def column(cls, field, coldict, rows):
        """Single-column matrix from ``{row: scalar}``."""
        rd = {i: {0: v} for i, v in coldict.items() if v != field.zero}
        return cls(field, rows, 1, rd)

    # -- basic queries ------------------------------------------------

    def entries(self):
        """Canonical sorted (row, col, value) list."""
        out = []
        for i in sorted(self.rowdict):
            row = self.rowdict[i]
            for j in sorted(row):
                out.append((i, j, row[j]))
        return out

    def nnz(self):
        return sum(len(r) for r in self.rowdict.values())

    def is_zero(self):
        return not self.rowdict

    def coldict(self):
        """Column-indexed view ``{col: {row: scalar}}``, cached.

        Matrices are immutable after construction, so the cache is safe;
        callers must not mutate the returned dicts.
        """
        if self._coldict is None:
            cd = {}
            for i, row in self.rowdict.items():
                for j, v in row.items():
                    cd.setdefault(j, {})[i] = v
            self._coldict = cd
        return self._coldict

    def col(self, j):
        """Column ``j`` as a fresh ``{row: scalar}``."""
        return dict(self.coldict().get(j, ()))

    def columns(self):
        """All columns as ``{row: scalar}`` dicts, including zero ones."""
        cols = [dict() for _ in range(self.cols)]
        for i, row in self.rowdict.items():
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.rowdict == other.rowdict
        )

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols}, nnz={self.nnz()})"

    # -- arithmetic ---------------------------------------------------

    def add(self, other):
        self._check_same_shape(other)
        f = self.field
        rd = {i: dict(r) for i, r in self.rowdict.items()}
        for i, row in other.rowdict.items():
            tgt = rd.setdefault(i, {})
            for j, v in row.items():
                w = f.add(tgt.get(j, f.zero), v)
                if w == f.zero:
                    tgt.pop(j, None)
                else:
                    tgt[j] = w
            if not tgt:
                del rd[i]
        return Matrix(f, self.rows, self.cols, rd)

    def sub(self, other):
        return self.add(other.neg())

    def neg(self):
        f = self.field
        rd = {i: {j: f.neg(v) for j, v in r.items()} for i, r in self.rowdict.items()}
        return Matrix(f, self.rows, self.cols, rd)

    def scale(self, scalar):
        f = self.field
        if scalar == f.zero:
            return Matrix.zero(f, self.rows, self.cols)
        rd = {i: {j: f.mul(scalar, v) for j, v in r.items()} for i, r in self.rowdict.items()}
        return Matrix(f, self.rows, self.cols, rd)

    def mul(self, other):
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        zero = f.zero
        rd = {}
        orows = other.rowdict
        for i, row in self.rowdict.items():
            if len(row) == 1:
                # a field has no zero divisors, so a scaled row keeps its support
                (k, a), = row.items()
                brow = orows.get(k)
                if brow:
                    rd[i] = dict(brow) if a == f.one else {j: f.mul(a, b) for j, b in brow.items()}
                continue
            acc = {}
            for k, a in row.items():
                brow = orows.get(k)
                if not brow:
                    continue
                for j, b in brow.items():
                    w = f.add(acc.get(j, zero), f.mul(a, b))
                    if w == zero:
                        acc.pop(j, None)
                    else:
                        acc[j] = w
            if acc:
                rd[i] = acc
        return Matrix(f, self.rows, other.cols, rd)

    def transpose(self):
        rd = {}
        for i, row in self.rowdict.items():
            for j, v in row.items():
                rd.setdefault(j, {})[i] = v
        return Matrix(self.field, self.cols, self.rows, rd)

    def kron(self, other):
        """Kronecker product; index (i, j) of a tensor factor pair maps to
        ``i * dim_other + j`` (left factor is the slow index)."""
        f = self.field
        rd = {}
        orows, ocols = other.rows, other.cols
        for ia, rowa in self.rowdict.items():
            for ib, rowb in other.rowdict.items():
                tgt = rd.setdefault(ia * orows + ib, {})
                for ja, a in rowa.items():
                    base = ja * ocols
                    for jb, b in rowb.items():
                        tgt[base + jb] = f.mul(a, b)
        return Matrix(f, self.rows * orows, self.cols * ocols, rd)

    def column_blocks(self, count):
        """The columns cut into ``count`` consecutive blocks of equal width.

        Cutting an action tensor B (x) X -> X into dim B blocks gives the
        action matrix L_b of every basis element b.
        """
        if count <= 0 or self.cols % count:
            raise ShapeMismatch(f"{self.cols} columns do not split into {count} blocks")
        width = self.cols // count
        rds = [{} for _ in range(count)]
        for i, row in self.rowdict.items():
            for j, v in row.items():
                q, r = divmod(j, width)
                rds[q].setdefault(i, {})[r] = v
        return [Matrix(self.field, self.rows, width, rd) for rd in rds]

    def hstack(self, other):
        if self.rows != other.rows or self.field != other.field:
            raise ShapeMismatch("hstack shape mismatch")
        rd = {i: dict(r) for i, r in self.rowdict.items()}
        off = self.cols
        for i, row in other.rowdict.items():
            tgt = rd.setdefault(i, {})
            for j, v in row.items():
                tgt[j + off] = v
        return Matrix(self.field, self.rows, self.cols + other.cols, rd)

    def vstack(self, other):
        if self.cols != other.cols or self.field != other.field:
            raise ShapeMismatch("vstack shape mismatch")
        rd = {i: dict(r) for i, r in self.rowdict.items()}
        off = self.rows
        for i, row in other.rowdict.items():
            rd[i + off] = dict(row)
        return Matrix(self.field, self.rows + other.rows, self.cols, rd)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols or self.field != other.field:
            raise ShapeMismatch(
                f"{self.rows}x{self.cols}/{self.field} vs {other.rows}x{other.cols}/{other.field}"
            )


def block_matrix(field, grid, row_dims, col_dims):
    """Assemble a block matrix from a grid of ``Matrix | None`` blocks."""
    total_r = sum(row_dims)
    total_c = sum(col_dims)
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    rd = {}
    for bi, brow in enumerate(grid):
        for bj, blk in enumerate(brow):
            if blk is None or blk.is_zero():
                continue
            if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
                raise ShapeMismatch(f"block ({bi},{bj}) has wrong shape")
            r0, c0 = roff[bi], coff[bj]
            for i, row in blk.rowdict.items():
                tgt = rd.setdefault(r0 + i, {})
                for j, v in row.items():
                    tgt[c0 + j] = v
    return Matrix(field, total_r, total_c, rd)


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


class Echelon:
    """Incremental row echelon form with monic leftmost pivots.

    Optionally tracks, for every stored row, its expression as a combination
    of the inserted generators, which turns membership tests into solvers.
    """

    def __init__(self, field, track=False):
        self.field = field
        self.pivrows = {}  # pivot col -> row dict (row[pivot] == 1)
        self.combos = {} if track else None  # pivot col -> {gen index: coeff}
        self.ngens = 0

    @property
    def rank(self):
        return len(self.pivrows)

    def _reduce(self, vec, combo=None, combo_sign=+1):
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
            if combo is not None:
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
        combo = {self.ngens: f.one} if self.combos is not None else None
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
            if combo is not None:
                combo = {g: f.mul(inv, v) for g, v in combo.items()}
        self.pivrows[p] = vec
        if combo is not None:
            self.combos[p] = combo
        return True

    def contains(self, vec):
        vec, _ = self._reduce(dict(vec))
        return not vec

    def express(self, vec):
        """Coefficients writing ``vec`` over the inserted generators, or None.

        Requires ``track=True``. Exact: no least-squares fallback.
        """
        if self.combos is None:
            raise ValueError("echelon built without tracking")
        vec, combo = self._reduce(dict(vec), {}, combo_sign=+1)
        if vec:
            return None
        return combo

    def reduced_rows(self):
        """Fully back-eliminated (RREF) rows, keyed by pivot column."""
        f = self.field
        zero = f.zero
        out = {}
        for p in sorted(self.pivrows, reverse=True):
            row = dict(self.pivrows[p])
            for c in [c for c in row if c != p and c in out]:
                coeff = row.pop(c)
                for j, v in out[c].items():
                    if j == c:
                        continue
                    w = f.sub(row.get(j, zero), f.mul(coeff, v))
                    if w == zero:
                        row.pop(j, None)
                    else:
                        row[j] = w
            out[p] = row
        return out


def rank(M):
    ech = Echelon(M.field)
    for row in M.rowdict.values():
        ech.insert(row)
    return ech.rank


def rank_kernel(M):
    """Rank of M and a :class:`KernelBasis` whose columns are a basis of ker M.

    The kernel basis is canonical: one vector per free column, carrying 1 at
    its free column and 0 at every other free column. It is read off the
    RREF of M in one pass; see :func:`_free_basis`.
    """
    ech = Echelon(M.field)
    for row in M.rowdict.values():
        ech.insert(row)
    return ech.rank, _free_basis(M.field, M.cols, ech.reduced_rows())


class KernelBasis(Matrix):
    """A canonical kernel basis K with its free rows: the dual of :class:`QuotientSpace`.

    ``free[k]`` is the free coordinate of column k, so the rows ``free`` of
    K form the identity; :func:`restrict` reads coordinates off them.
    """

    __slots__ = ("free",)

    def __init__(self, field, rows, free, rowdict):
        super().__init__(field, rows, len(free), rowdict)
        self.free = free


def _free_basis(field, ncols, red):
    """The canonical basis of the kernel of the RREF ``red``, a :class:`KernelBasis`.

    Basis vector k has 1 at the k-th free column and -red[p][c] at each pivot
    p, so row p of the basis matrix is row p of ``red`` negated, without its
    pivot, and indexed by free column. The transpose of this matrix is the
    projection of k^ncols onto the free coordinates along the row space.
    """
    free = [c for c in range(ncols) if c not in red]
    index = {c: k for k, c in enumerate(free)}
    rd = {c: {k: field.one} for k, c in enumerate(free)}
    for p in sorted(red):
        row = {index[c]: field.neg(v) for c, v in red[p].items() if c != p}
        if row:
            rd[p] = row
    return KernelBasis(field, ncols, free, rd)


def restrict(K, Y):
    """The X with K X == Y for a :class:`KernelBasis` K, or None when there is none.

    This is ``solve_columns(K, Y)`` entry for entry, without elimination:
    the rows ``free`` of K form the identity, so a solution X must equal the
    rows ``free`` of Y. X is read off there and one exact product identity,
    K X == Y, decides. As K has full column rank, a solution is unique, so X
    is the one solve_columns expresses, and when the identity fails there is
    none. The subspace dual of :func:`map_well_defined`.
    """
    if K.rows != Y.rows:
        raise ShapeMismatch(f"{Y.rows} rows do not restrict onto a subspace of k^{K.rows}")
    index = {c: k for k, c in enumerate(K.free)}
    X = Matrix(K.field, K.cols, Y.cols,
               {index[i]: dict(row) for i, row in Y.rowdict.items() if i in index})
    return X if K.mul(X) == Y else None


class SubSpace:
    """Span of a list of vectors in k^n, with membership and quotient data."""

    def __init__(self, field, dim, vectors=(), track=False):
        self.field = field
        self.dim = dim
        self.ech = Echelon(field, track=track)
        for v in vectors:
            self.ech.insert(v)

    @classmethod
    def from_columns(cls, M, track=False):
        return cls(M.field, M.rows, M.columns(), track=track)

    def insert(self, vec):
        return self.ech.insert(vec)

    @property
    def rank(self):
        return self.ech.rank

    def contains(self, vec):
        return self.ech.contains(vec)

    def contains_columns(self, M):
        return all(self.ech.contains(c) for c in M.columns() if c)

    def basis_matrix(self):
        piv = self.ech.pivrows
        ents = []
        for k, p in enumerate(sorted(piv)):
            for coord, v in piv[p].items():
                ents.append((coord, k, v))
        return Matrix.from_entries(self.field, self.dim, self.ech.rank, ents)


class QuotientSpace:
    """k^n modulo the span W of the relations, with projection and a coordinate section.

    Quotient coordinates are the free (non-pivot) columns of the RREF of the
    relations with leftmost pivots, so the section re-embeds them and
    projection . section is the identity. The projection has kernel W; no
    echelon is kept.

    Relations with one or two nonzeros are never eliminated. They fold into
    a weighted union-find over the field (Tarjan, J. ACM 22, 1975): each
    index keeps its ratio w_i to its root, e_i = w_i e_root modulo W, and the
    root is the largest index of its class. A relation with one nonzero
    kills its class; one with two merges the classes of its indices, and
    kills the class when the ratios around a cycle disagree. Only the wider
    relations reach an echelon, rewritten in the coordinates of the live
    roots; dead classes drop out and zero results are skipped.

    This gives the canonical RREF quotient entry for entry. The pivots of an
    RREF are the numbers min supp(w) over the nonzero w in W, so the free
    set depends on W only. The vectors e_i - w_i e_root (i a member of a
    live class other than its root, so i < root), e_i (i in a dead class)
    and the echelon rows of the rewritten wide relations lie in W, span it
    (a wide relation differs from its rewrite by a combination of the first
    two kinds) and have distinct minimal supports. A nonzero combination of
    them has the least of those minima among its terms, so the minima are
    the pivots and the free set is the live roots that are no echelon
    pivot. As
    k^n = W + span(e_free) is direct, only one projection onto the free
    coordinates has kernel W: e_i goes to w_i times the image of its root,
    which is its own coordinate for a free root and minus its RREF row for
    an echelon pivot.
    """

    def __init__(self, field, ambient_dim, relation_vectors):
        f = field
        zero, one = f.zero, f.one
        self.field = field
        self.ambient_dim = ambient_dim
        parent = list(range(ambient_dim))
        ratio = [one] * ambient_dim  # e_i = ratio[i] e_parent[i] modulo the relations
        dead = set()  # roots of killed classes

        def find(i):
            """(root of i, w) with e_i = w e_root; compresses the path."""
            if parent[i] == i:
                return i, one
            path = []
            while parent[i] != i:
                path.append(i)
                i = parent[i]
            w = one
            for j in reversed(path):
                w = f.mul(ratio[j], w)
                ratio[j], parent[j] = w, i
            return i, w

        wide = []
        for rel in relation_vectors:
            if len(rel) > 2:
                wide.append(rel)
                continue
            terms = [(i, a) for i, a in rel.items() if a != zero]
            if len(terms) == 1:
                dead.add(find(terms[0][0])[0])
            elif terms:
                # a e_i + b e_j reads c_u e_u + c_v e_v = 0 on the roots u, v
                (u, wu), (v, wv) = find(terms[0][0]), find(terms[1][0])
                cu, cv = f.mul(terms[0][1], wu), f.mul(terms[1][1], wv)
                if u == v:
                    if f.add(cu, cv) != zero:
                        dead.add(u)
                    continue
                if u > v:
                    u, v, cu, cv = v, u, cv, cu
                parent[u], ratio[u] = v, f.neg(f.mul(cv, f.inv(cu)))
                if u in dead or v in dead:
                    dead.discard(u)
                    dead.add(v)
        ech = Echelon(f)
        for rel in wide:
            vec = {}
            for i, a in rel.items():
                r, w = find(i)
                if r not in dead:
                    s = f.add(vec.get(r, zero), f.mul(a, w))
                    if s == zero:
                        vec.pop(r, None)
                    else:
                        vec[r] = s
            if vec:
                ech.insert(vec)

        red = ech.reduced_rows()
        free = [i for i in range(ambient_dim)
                if parent[i] == i and i not in dead and i not in red]
        image = {c: {k: one} for k, c in enumerate(free)}  # live root -> projected e_root
        index = {c: k for k, c in enumerate(free)}
        for p, row in red.items():
            image[p] = {index[c]: f.neg(v) for c, v in row.items() if c != p}
        rd = {}
        for i in range(ambient_dim):
            r, w = find(i)
            if r not in dead:
                for k, v in image[r].items():
                    rd.setdefault(k, {})[i] = f.mul(w, v)
        self.dim = len(free)
        self.projection = Matrix(f, self.dim, ambient_dim, rd)
        sec = [(c, k, one) for k, c in enumerate(free)]
        self.section = Matrix.from_entries(f, ambient_dim, self.dim, sec)

    def induce(self, other, ambient_map):
        """Induced matrix other_quotient <- self on representatives, unchecked.

        ``ambient_map`` sends this ambient space to ``other``'s ambient space.
        Use it only where a proof shows that relations map into relations;
        :func:`map_well_defined` checks that and induces in one go.
        """
        # the section picks columns, so apply it first: the products stay small
        return other.projection.mul(ambient_map.mul(self.section))


def map_well_defined(ambient_map, src_quot, dst_quot):
    """The map ``ambient_map`` induces from ``src_quot`` to ``dst_quot``, or None.

    With P the projections and S the section of ``src_quot``, the check is
    one exact product identity, P_dst A == (P_dst A S) P_src. It holds
    exactly when A sends the relations, ker P_src, into ker P_dst: it says
    P_dst A (I - S P_src) = 0, and as P_src S = I, I - S P_src is a
    projection onto ker P_src. Its middle factor is the induced map.
    """
    pa = dst_quot.projection.mul(ambient_map)
    induced = pa.mul(src_quot.section)
    return induced if induced.mul(src_quot.projection) == pa else None


def quotient(ambient_dim, S):
    """Quotient of k^ambient_dim by the column span of S.

    Returns ``(quot_dim, projection)`` where the projection is surjective and
    annihilates the column space of S exactly.
    """
    if S.rows != ambient_dim:
        raise ShapeMismatch(f"subspace generators live in k^{S.rows}, not k^{ambient_dim}")
    q = QuotientSpace(S.field, ambient_dim, S.columns())
    return q.dim, q.projection


def solve_columns(A, B):
    """X with A @ X == B, or None when inconsistent. Exact, sparse."""
    f = A.field
    if A.rows != B.rows:
        raise ShapeMismatch("solve dimension mismatch")
    ech = Echelon(f, track=True)
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


def invert(M):
    """Inverse of a square matrix, or None when singular."""
    if M.rows != M.cols:
        raise ShapeMismatch("only square matrices invert")
    return solve_columns(M, Matrix.identity(M.field, M.rows))


# ---------------------------------------------------------------------------
# Graded complexes
# ---------------------------------------------------------------------------


class GradedComplex:
    """Degreewise based spaces with validated differentials.

    ``orientation`` is +1 for degree-raising differentials and -1 for
    degree-lowering ones. ``diffs[n]`` is the differential leaving degree n
    (absent exactly at the terminal degree). Construction checks shapes and
    that consecutive differentials compose to zero, entry-exactly. The rank
    of each differential is computed on first use and kept.
    """

    def __init__(self, field, orientation, dims, diffs):
        if orientation not in (+1, -1):
            raise ShapeMismatch("orientation must be +1 or -1")
        self.field = field
        self.orientation = orientation
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.diffs = dict(diffs)
        self._ranks = {}
        for n, d in self.diffs.items():
            tgt = n + orientation
            if not (0 <= n <= self.top and 0 <= tgt <= self.top):
                raise ShapeMismatch(f"differential at degree {n} out of range")
            if d.cols != self.dims[n] or d.rows != self.dims[tgt]:
                raise ShapeMismatch(
                    f"d_{n}: expected {self.dims[tgt]}x{self.dims[n]}, got {d.rows}x{d.cols}"
                )
        for n, d in self.diffs.items():
            nxt = self.diffs.get(n + orientation)
            if nxt is not None and not nxt.mul(d).is_zero():
                raise ShapeMismatch(f"d o d != 0 leaving degree {n}")

    @property
    def max_valid_degree(self):
        return self.top - 1

    def homology(self, n):
        """dim ker(d out of n) - rank(d into n)."""
        if not (0 <= n <= self.max_valid_degree):
            raise DegreeOutOfRange(
                f"degree {n} not certified (valid through {self.max_valid_degree})"
            )
        return self.dims[n] - self._rank(n) - self._rank(n - self.orientation)

    def _rank(self, n):
        """Rank of the differential leaving degree n; 0 where there is none."""
        if n not in self._ranks:
            d = self.diffs.get(n)
            self._ranks[n] = rank(d) if d is not None else 0
        return self._ranks[n]


def complex_homology(X, max_valid_degree):
    """Homology dimensions of a GradedComplex for degrees 0..max_valid_degree."""
    if max_valid_degree > X.max_valid_degree:
        raise DegreeOutOfRange(
            f"requested degree {max_valid_degree}, certified through {X.max_valid_degree}"
        )
    return [X.homology(n) for n in range(max_valid_degree + 1)]


def _legs(text):
    """The leg names on either side of "in legs -> out legs"."""
    src, arrow, dst = text.partition("->")
    if not arrow:
        raise ShapeMismatch(f"wiring {text!r} has no '->'")
    return src.split(), dst.split()


def _unravel(index, dims):
    """The row-major slot values of ``index`` in a product of ``dims``."""
    out = []
    for d in reversed(dims):
        index, r = divmod(index, d)
        out.append(r)
    return tuple(reversed(out))


def _picker(positions):
    """st -> the tuple of st's entries at ``positions``."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    if positions:
        k = positions[0]
        return lambda st: (st[k],)
    return lambda st: ()


def wire(field, dims, spec, *steps):
    """The operator of a wiring of structure tensors, entries written directly.

    ``spec`` reads ``"in legs -> out legs"``: the tensor slots of source and
    target, row-major. Each step is ``(tensor, "in legs -> out legs")``: a
    Matrix whose columns index its in legs and whose rows index its out
    legs, both row-major. Steps apply in order; a step consumes its in legs
    and creates its out legs, and a step without in legs is a vector.
    ``dims`` gives the dimension of every leg.

    Source legs that no step consumes are identity slots. The coefficient
    table is computed once on the other legs, one basis tuple at a time, and
    copied across the identity slots by stride arithmetic.
    """
    f = field
    zero = f.zero
    src, dst = _legs(spec)
    consumed = {leg for _, text in steps for leg in _legs(text)[0]}
    ident = [leg for leg in src if leg not in consumed]
    live = [leg for leg in src if leg in consumed]
    touched = list(live)
    plan = []
    for M, text in steps:
        ins, outs = _legs(text)
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
            values = _unravel(i, out_dims)
            for j, v in row.items():
                key = _unravel(j, in_dims)
                hits.setdefault(key[0] if len(key) == 1 else key, []).append((values, v))
        read = operator.itemgetter(*reads) if reads else (lambda st: ())
        plan.append((read, _picker(keep), hits))
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
    rd = {}
    for row, cols in table.items():
        for ro, co in offsets:
            rd[row + ro] = {col + co: v for col, v in cols.items()}
    return Matrix(f, math.prod(dims[leg] for leg in dst), math.prod(dims[leg] for leg in src), rd)


def slotted(field, pre_dim, M, post_dim):
    """id_{pre} (x) M (x) id_{post}, written by stride arithmetic."""
    dims = {"p": pre_dim, "q": post_dim, "i": M.cols, "o": M.rows}
    return wire(field, dims, "p i q -> p o q", (M, "i -> o"))
