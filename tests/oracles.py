"""Independent dense oracles used to cross-check the sparse engine.

Textbook row reduction on dense lists, written without reference to the
package internals so the two routes stay independent.
"""

from fractions import Fraction


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
