"""Sparse exact linear algebra: matrices, ranks, kernels, quotients, homology.

Everything downstream reduces to the operations in this module. Matrices are
immutable-by-convention sparse maps ``row -> col -> scalar`` over a
:class:`~hopfcyclic.fields.Field`; elimination is exact Gaussian elimination
with leftmost-pivot selection and monic pivot rows, which keeps Fraction
entries small on the structured matrices this package produces. Floating
point never appears.
"""

from .errors import DegreeOutOfRange, ShapeMismatch
from .fields import QQ


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

    def residual(self, vec):
        """Remainder of ``vec`` after reduction (empty dict iff in span)."""
        vec, _ = self._reduce(dict(vec))
        return vec

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
    """Rank of M and a Matrix whose columns are a basis of ker M.

    The kernel basis is canonical: one vector per free column, carrying 1 at
    its free column and 0 at every other free column. It is read off the
    RREF of M in one pass; see :func:`_free_basis`.
    """
    ech = Echelon(M.field)
    for row in M.rowdict.values():
        ech.insert(row)
    _, kernel = _free_basis(M.field, M.cols, ech.reduced_rows())
    return ech.rank, kernel


def _free_basis(field, ncols, red):
    """Free columns of the RREF ``red`` and the canonical basis of its kernel.

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
    return free, Matrix(field, ncols, len(free), rd)


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
    """k^n modulo a subspace, with projection and a coordinate section.

    Quotient coordinates are the non-pivot coordinates of the relation
    echelon, so the section just re-embeds representative coordinates.
    """

    def __init__(self, field, ambient_dim, relation_vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        ech = Echelon(field)
        for v in relation_vectors:
            ech.insert(v)
        self._relech = ech
        free, basis = _free_basis(field, ambient_dim, ech.reduced_rows())
        self.dim = len(free)
        self.projection = basis.transpose()
        sec = [(c, k, field.one) for k, c in enumerate(free)]
        self.section = Matrix.from_entries(field, ambient_dim, self.dim, sec)

    def relations_contain(self, vec):
        return self._relech.contains(vec)

    def induce(self, other, ambient_map):
        """Induced matrix other_quotient <- self on representatives.

        ``ambient_map`` sends this ambient space to ``other``'s ambient space.
        Well-definedness (relations map into relations) is the caller's
        check; see :func:`map_well_defined`.
        """
        return other.projection.mul(ambient_map).mul(self.section)


def map_well_defined(ambient_map, src_quot, dst_quot):
    """True iff ``ambient_map`` sends src relations into dst relations."""
    f = ambient_map.field
    cd = ambient_map.coldict()
    zero = f.zero
    for row in src_quot._relech.pivrows.values():
        img = {}
        for c, v in row.items():
            colv = cd.get(c)
            if not colv:
                continue
            for i, w in colv.items():
                s = f.add(img.get(i, zero), f.mul(v, w))
                if s == zero:
                    img.pop(i, None)
                else:
                    img[i] = s
        if not dst_quot.relations_contain(img):
            return False
    return True


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

    def diff_out(self, n):
        d = self.diffs.get(n)
        if d is None:
            return Matrix.zero(self.field, self.dims[n + self.orientation] if 0 <= n + self.orientation <= self.top else 0, self.dims[n])
        return d

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


def swap_matrix(field, m, n):
    """The flip V (x) W -> W (x) V for dim V = m, dim W = n."""
    one = field.one
    rd = {}
    for i in range(m):
        for j in range(n):
            rd[j * m + i] = {i * n + j: one}
    return Matrix(field, m * n, m * n, rd)


def permute_slots(field, dims, perm):
    """Matrix reordering tensor slots: target slot k holds source slot perm[k].

    ``dims`` are the source slot dimensions; row-major indexing throughout.
    """
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ShapeMismatch(f"{perm} is not a permutation of {n} slots")
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
    one = field.one
    rd = {}
    idx = [0] * n
    for col in range(total):
        rem = col
        for k in range(n):
            idx[k], rem = divmod(rem, src_strides[k])
        row = sum(idx[perm[k]] * tgt_strides[k] for k in range(n))
        rd[row] = {col: one}
    return Matrix(field, total, total, rd)


def slotted(field, pre_dim, M, post_dim):
    """id_{pre} (x) M (x) id_{post} without building needless identities."""
    out = M
    if pre_dim != 1:
        out = Matrix.identity(field, pre_dim).kron(out)
    if post_dim != 1:
        out = out.kron(Matrix.identity(field, post_dim))
    return out
