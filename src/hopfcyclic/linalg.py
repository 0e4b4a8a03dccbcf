"""Sparse exact linear algebra: matrices, ranks, kernels, quotients, homology.

Everything downstream reduces to the operations in this module. Matrices are
immutable-by-convention sparse maps ``row -> col -> scalar`` over a
:class:`~hopfcyclic.fields.Field`; elimination is exact Gaussian elimination
with leftmost-pivot selection and monic pivot rows, which keeps Fraction
entries small on the structured matrices this package produces. Floating
point never appears.

There is one elimination, :class:`Echelon`, and every answer is read off
its result: a rank is its pivot count, a kernel the canonical basis of its
RREF (:func:`rank_kernel`), a quotient's projection that basis transposed
(:class:`QuotientSpace`), a span basis its rows (:func:`column_basis`),
and a solve of A X = B, membership included, the RREF of [A | B]
(:func:`solve_columns`). Two paths need no elimination at all:
:func:`restrict` onto a :class:`KernelBasis`, and :func:`map_well_defined`
between quotients.
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
        return self._merge(other, self.field.add)

    def sub(self, other):
        """self - other in one pass, with no negated copy of ``other``."""
        return self._merge(other, self.field.sub)

    def _merge(self, other, op):
        """The entries op(self[i, j], other[i, j]), zeros dropped."""
        self._check_same_shape(other)
        f = self.field
        rd = {i: dict(r) for i, r in self.rowdict.items()}
        for i, row in other.rowdict.items():
            tgt = rd.setdefault(i, {})
            for j, v in row.items():
                w = op(tgt.get(j, f.zero), v)
                if w == f.zero:
                    tgt.pop(j, None)
                else:
                    tgt[j] = w
            if not tgt:
                del rd[i]
        return Matrix(f, self.rows, self.cols, rd)

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
    """Incremental row echelon form with monic leftmost pivots."""

    def __init__(self, field):
        self.field = field
        self.pivrows = {}  # pivot col -> row dict (row[pivot] == 1)

    @property
    def rank(self):
        return len(self.pivrows)

    def _reduce(self, vec):
        """Reduce ``vec`` in place against the stored pivot rows and return it."""
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
                return vec
            coeff = vec[hit]
            for j, v in piv[hit].items():
                w = f.sub(vec.get(j, zero), f.mul(coeff, v))
                if w == zero:
                    vec.pop(j, None)
                else:
                    vec[j] = w

    def insert(self, vec):
        """Insert a copy of ``vec`` (``{coord: scalar}``). True if rank grew."""
        f = self.field
        vec = self._reduce(dict(vec))
        if not vec:
            return False
        p = min(vec)
        lead = vec[p]
        if lead != f.one:
            inv = f.inv(lead)
            vec = {j: f.mul(inv, v) for j, v in vec.items()}
        self.pivrows[p] = vec
        return True

    def contains(self, vec):
        return not self._reduce(dict(vec))

    def basis(self, dim):
        """The stored rows as the columns of a dim x rank matrix, in pivot order."""
        piv = self.pivrows
        ents = [(coord, k, v) for k, p in enumerate(sorted(piv)) for coord, v in piv[p].items()]
        return Matrix.from_entries(self.field, dim, self.rank, ents)

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
    """Rank of M, its rows inserted sparsest first (a stable sort).

    The rank does not depend on the order, but the fill-in does: on the
    triple complexes of coalgebra excision in a basis where K's free basis
    is not grouplike, the dict order took over 200 times as long.
    ``tests/oracles.py`` keeps the row-order rank.
    """
    ech = Echelon(M.field)
    for row in sorted(M.rowdict.values(), key=len):
        ech.insert(row)
    return ech.rank


def _reduced_rows(field, rows):
    """The RREF of ``rows``, keyed by pivot column; the echelon is freed on return."""
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
    return ech.reduced_rows()


def rank_kernel(M):
    """Rank of M and a :class:`KernelBasis` whose columns are a basis of ker M.

    The kernel basis is canonical: one vector per free column, carrying 1 at
    its free column and 0 at every other free column. It is read off the
    RREF of M in one pass; see :func:`_free_basis`.
    """
    red = _reduced_rows(M.field, M.rowdict.values())
    return len(red), _free_basis(M.field, M.cols, red)


class KernelBasis(Matrix):
    """A canonical kernel basis K with its free rows.

    ``free[k]`` is the free coordinate of column k, so the rows ``free`` of
    K form the identity; :func:`restrict` reads coordinates off them. The
    kernel basis of the RREF of a relation set, transposed, is the
    projection of its :class:`QuotientSpace`.
    """

    __slots__ = ("free",)

    def __init__(self, field, rows, free, rowdict):
        super().__init__(field, rows, len(free), rowdict)
        self.free = free


def kernel_kron(K, L):
    """K (x) L of two :class:`KernelBasis`, itself one: its free rows are the products of theirs.

    Row free_K[k] * L.rows + free_L[l] of K (x) L is e_k (x) e_l, which is
    e_{k * L.cols + l}.
    """
    M = K.kron(L)
    return KernelBasis(K.field, M.rows, [k * L.rows + l for k in K.free for l in L.free],
                       M.rowdict)


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
    rows ``free`` of Y. X is read off there and one exact identity, K X ==
    Y, decides. As K has full column rank, a solution is unique, so X is the
    one solve_columns expresses, and when the identity fails there is none.
    The subspace dual of :func:`map_well_defined`.

    The identity is checked row by row, and K X is never formed. The rows
    ``free`` agree by construction: row free[k] of K is e_k, so row free[k]
    of K X is row k of X, which is row free[k] of Y. Every other row of K
    takes one row product, and a row where K has none must be empty in Y.
    """
    if K.rows != Y.rows:
        raise ShapeMismatch(f"{Y.rows} rows do not restrict onto a subspace of k^{K.rows}")
    if any(i not in K.rowdict for i in Y.rowdict):
        return None
    f = K.field
    zero = f.zero
    index = {c: k for k, c in enumerate(K.free)}
    xrows = {index[i]: dict(row) for i, row in Y.rowdict.items() if i in index}
    for i, krow in K.rowdict.items():
        if i in index:
            continue
        acc = {}
        for k, a in krow.items():
            for j, b in xrows.get(k, {}).items():
                w = f.add(acc.get(j, zero), f.mul(a, b))
                if w == zero:
                    acc.pop(j, None)
                else:
                    acc[j] = w
        if acc != Y.rowdict.get(i, {}):
            return None
    return Matrix(f, K.cols, Y.cols, xrows)


class QuotientSpace:
    """k^n modulo the span W of the relations, with projection and a coordinate section.

    The dual of :class:`KernelBasis`, read off the same elimination: the
    relations go into one :class:`Echelon`, and the quotient coordinates are
    the free columns of its RREF. The projection is the transpose of the
    canonical kernel basis of that RREF (:func:`_free_basis`), so its kernel
    is W, and the section puts e_k at the k-th free column, so projection .
    section is the identity. No echelon is kept.
    """

    def __init__(self, field, ambient_dim, relation_vectors):
        basis = _free_basis(field, ambient_dim, _reduced_rows(field, relation_vectors))
        self.field = field
        self.ambient_dim = ambient_dim
        self.dim = basis.cols
        self.projection = basis.transpose()
        self.section = Matrix(field, ambient_dim, self.dim,
                              {c: {k: field.one} for k, c in enumerate(basis.free)})

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


def column_basis(M):
    """A basis of the column span of M: its echelon rows, in pivot order."""
    ech = Echelon(M.field)
    for c in M.columns():
        ech.insert(c)
    return ech.basis(M.rows)


def solve_columns(A, B):
    """X with A @ X == B, or None when inconsistent. Exact, sparse.

    The rows of [A | B] go into one echelon and X is read off its RREF.
    There is a solution exactly when no column of B is a pivot: such a
    pivot row is a combination y of the rows with y A = 0 and y B != 0, and
    without one [A | B] reduces to [R | Z] plus zero rows, with R the RREF
    of A. X is then Z on A's pivot columns and zero on its free columns:
    pivot row p reads x_p + (terms in free x) = Z_p.

    This is the unique solution supported on A's pivot columns, as A is
    injective on them. Those are the columns of A that are independent of
    the ones before them, which are exactly the generators that inserting
    the columns of A in order into a tracking echelon keeps; expressing B
    over the kept generators gives the same X entry for entry.
    """
    f = A.field
    if A.rows != B.rows:
        raise ShapeMismatch("solve dimension mismatch")
    n = A.cols
    ech = Echelon(f)
    for i in sorted(A.rowdict.keys() | B.rowdict.keys()):
        row = dict(A.rowdict.get(i, ()))
        row.update((n + j, v) for j, v in B.rowdict.get(i, {}).items())
        ech.insert(row)
    if any(p >= n for p in ech.pivrows):
        return None
    rd = {}
    for p, row in ech.reduced_rows().items():
        x = {j - n: v for j, v in row.items() if j >= n}
        if x:
            rd[p] = x
    return Matrix(f, n, B.cols, rd)


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


def _strides(legs, dims):
    """{leg: row-major stride} of a product of ``legs``, and the product's dimension."""
    strides, size = {}, 1
    for leg in reversed(legs):
        strides[leg] = size
        size *= dims[leg]
    return strides, size


def _flat(legs, dims, strides):
    """index in the product of ``legs`` -> the sum of its slot values times ``strides``."""
    if len(legs) == 1:
        s = strides[legs[0]]
        return lambda i: i * s
    pairs = [(dims[leg], strides[leg]) for leg in reversed(legs)]

    def flat(i):
        out = 0
        for d, s in pairs:
            i, r = divmod(i, d)
            out += r * s
        return out
    return flat


def wire(field, dims, spec, *steps, on=None):
    """The operator of a wiring of structure tensors, entries written directly.

    ``spec`` reads ``"in legs -> out legs"``: the tensor slots of source and
    target, row-major. Each step is ``(tensor, "in legs -> out legs")``: a
    Matrix whose columns index its in legs and whose rows index its out
    legs, both row-major. Steps apply in order; a step consumes its in legs
    and creates its out legs, and a step without in legs is a vector.
    ``dims`` gives the dimension of every leg.

    Source legs that no step consumes are identity slots. The coefficient
    table on the other legs is copied across the identity slots by stride
    arithmetic. With one step it is the tensor's entries re-indexed;
    otherwise it is computed one basis tuple at a time, each step looking
    up its in-leg values among the tensor's entries.

    With ``on`` a matrix M, the result is the product operator @ M, and
    only the operator columns at which M has a row are written. The
    product reads no other column: (operator M)_{rc} is the sum over j of
    operator_{rj} M_{jc}, and M_{jc} = 0 wherever M has no row j.
    """
    f = field
    zero = f.zero
    src, dst = _legs(spec)
    steps = [(M, text, *_legs(text)) for M, text in steps]
    consumed = {leg for _, _, ins, _ in steps for leg in ins}
    ident = [leg for leg in src if leg not in consumed]
    live = [leg for leg in src if leg in consumed]
    touched = list(live)
    plan = []
    for M, text, ins, outs in steps:
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
        plan.append((M, ins, outs, reads, keep))
        live = [live[k] for k in keep] + outs
    if sorted(live + ident) != sorted(dst) or len(set(dst)) != len(dst):
        raise ShapeMismatch(f"wiring {spec!r} leaves legs {live} unmatched")
    src_strides, ncols = _strides(src, dims)
    dst_strides, nrows = _strides(dst, dims)

    if len(plan) == 1:
        M, ins, outs = plan[0][:3]
        row_of, col_of = _flat(outs, dims, dst_strides), _flat(ins, dims, src_strides)
        table = {}
        for i, row in M.rowdict.items():
            entries = {col_of(j): v for j, v in row.items() if v != zero}
            if entries:
                table[row_of(i)] = entries
    else:
        table = _walk(f, dims, plan, touched, [dst_strides[leg] for leg in live], src_strides)

    offsets = [(0, 0)]  # (row offset, column offset) of each identity basis tuple
    for leg in ident:
        so, si = dst_strides[leg], src_strides[leg]
        offsets = [(ro + t * so, co + t * si) for ro, co in offsets for t in range(dims[leg])]
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


def _walk(f, dims, plan, touched, row_strides, src_strides):
    """The table of :func:`wire` on the touched legs, one basis tuple at a time.

    Each step keys its entries by their in-leg values, a bare value for one
    in leg; a state is the tuple of live leg values, and a row index is its
    dot product with ``row_strides``.
    """
    zero = f.zero
    steps = []
    for M, ins, outs, reads, keep in plan:
        in_dims = [dims[leg] for leg in ins]
        out_dims = [dims[leg] for leg in outs]
        hits = {}  # in leg values, as ``read`` returns them -> [(out leg values, entry)]
        for i, row in M.rowdict.items():
            values = (i,) if len(outs) == 1 else _unravel(i, out_dims)
            for j, v in row.items():
                key = j if len(ins) == 1 else _unravel(j, in_dims)
                hits.setdefault(key, []).append((values, v))
        read = operator.itemgetter(*reads) if reads else (lambda st: ())
        steps.append((read, _picker(keep), hits))
    cols = [0]  # the column index of each basis tuple of the touched legs, in product order
    for leg in touched:
        s = src_strides[leg]
        cols = [c + t * s for c in cols for t in range(dims[leg])]
    table = {}  # row on the touched legs -> {column on the touched legs: entry}
    for start, col in zip(itertools.product(*[range(dims[leg]) for leg in touched]), cols):
        states = {start: f.one}
        for read, keep, hits in steps:
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
        for st, c in states.items():
            table.setdefault(sum(map(operator.mul, st, row_strides)), {})[col] = c
    return table


def slotted(field, pre_dim, M, post_dim, on=None):
    """id_{pre} (x) M (x) id_{post}, written by stride arithmetic; with ``on``,
    its product with ``on`` (see :func:`wire`)."""
    dims = {"p": pre_dim, "q": post_dim, "i": M.cols, "o": M.rows}
    return wire(field, dims, "p i q -> p o q", (M, "i -> o"), on=on)
