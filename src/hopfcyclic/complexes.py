"""Complex builders and the (co)cyclic homology engines.

The bar complex (shifted by one degree, the bar resolution), the twisted
coalgebra Hochschild complex with its graded action, its coinvariants, and
assembly of validated (co)cyclic modules together with
Hochschild/bar/cyclic dimension computations. The models that need no
coinvariant quotient are in ``regular``.

Degree bookkeeping: every constructed object records the top internal degree
it was built through; consumers asking beyond the certified window get a
DegreeOutOfRange error, never a silent wrong answer.
"""

import functools

from .errors import (
    AuditFailed,
    DegreeOutOfRange,
    IdentityViolation,
    NotStable,
    ShapeMismatch,
)
from .equivariant import regular_bicomodule
from .linalg import (
    GradedComplex,
    KernelBasis,
    Matrix,
    QuotientSpace,
    block_matrix,
    kernel_kron,
    map_well_defined,
    rank_kernel,
    restrict,
    slotted,
    wire,
)


def _pow(n, k):
    return n**k if k >= 0 else 0


def _diagonal_action(B, factors, coefficient, wanted):
    """Diagonal B-action on a product of B-modules: {b: L_b} for each b in ``wanted``.

    ``factors`` is a list of (dim, action) pairs in slot order (the dims
    are not read); Sweedler legs are dealt left to right. A ``coefficient``
    (dim, action) pair occupies the first slot and receives the last leg.
    Each L_b is the sum over Delta(b) = b_(1) (x) b_(2) of the tensor
    product of the per-leg matrices: b_(1) acts on the first factor and
    b_(2) diagonally on the rest, or b_(2) on the coefficient and b_(1) on
    the factors. One level down, only the legs of their Delta(b) are built.
    An action may be a B (x) V -> V' tensor, the action of V' after a map
    V -> V': L_b is then those maps, slot by slot, followed by the diagonal
    action on the V'.
    """
    d = B.dim
    if coefficient is None and len(factors) <= 1:
        blocks = (factors[0][1] if factors else B.counit).column_blocks(d)
        return {b: blocks[b] for b in wanted}
    head = (coefficient or factors[0])[1].column_blocks(d)
    terms = {}  # b -> [(head leg, rest leg, coefficient)]
    for b in wanted:
        legs = [(divmod(r, d), v) for r, v in B.comult.coldict()[b].items()]
        terms[b] = [(b2, b1, v) if coefficient else (b1, b2, v) for (b1, b2), v in legs]
    rest = _diagonal_action(B, factors if coefficient else factors[1:], None,
                            {r for legs in terms.values() for _, r, _ in legs})
    return {b: functools.reduce(Matrix.add, [head[h].scale(v).kron(rest[r]) for h, r, v in legs])
            for b, legs in terms.items()}


def coaction_blocks(coaction, count, left=False):
    """The blocks C_p of a B-coaction rho, with rho(v) = sum_p C_p v (x) e_p.

    ``coaction`` is a right coaction V -> V (x) B, row v0 * count + p, or with
    ``left`` a left one V -> B (x) V, row p * dim V + v0, read as the right
    coaction v -> v_(0) (x) v_(-1). ``count`` is dim B.
    """
    dim = coaction.rows // count
    rds = [{} for _ in range(count)]
    for i, row in coaction.rowdict.items():
        if left:
            p, v0 = divmod(i, dim)
        else:
            v0, p = divmod(i, count)
        rds[p][v0] = dict(row)
    return [Matrix(coaction.field, dim, coaction.cols, rd) for rd in rds]


def diagonal_right_coaction(B, head, rest):
    """The blocks of the diagonal right B-coaction on V (x) W.

    ``head`` and ``rest`` are the blocks (:func:`coaction_blocks`) of V and
    W. The legs multiply in slot order, v (x) w -> v_(0) (x) w_(0) (x)
    v_(1) w_(1), so with m[p; h,k] the structure constants of B's
    multiplication, block p is the Kronecker sum
    C_p = sum_{h,k} m[p; h,k] H_h (x) R_k, the mirror of how
    :func:`_diagonal_action` builds L_b. No sum is empty: 1 e_p = e_p.
    """
    d = B.dim
    terms = [[] for _ in range(d)]
    for p, row in B.mult.rowdict.items():
        for hk, v in row.items():
            h, k = divmod(hk, d)
            terms[p].append(head[h].scale(v).kron(rest[k]))
    return [functools.reduce(Matrix.add, kron_terms) for kron_terms in terms]


def total_coactions(A, X, maxdeg):
    """The blocks of the total coaction on A^{(x) n+1} (x) X for n = 0 .. maxdeg.

    a_0 (x) ... (x) a_n (x) x -> a_0(0) (x) ... (x) a_n(0) (x) x_(0)
    (x) a_0(1) ... a_n(1) x_(-1). Degree n is one more A slot on degree
    n - 1 (:func:`diagonal_right_coaction`); the degrees are yielded one at
    a time, so a consumer keeps only the blocks it holds.
    """
    B = A.over
    head = coaction_blocks(A.coaction, B.dim)
    blocks = coaction_blocks(X.coaction, B.dim, left=True)
    for _ in range(maxdeg + 1):
        blocks = diagonal_right_coaction(B, head, blocks)
        yield blocks


def comodule_coinvariants(unit, blocks):
    """The :class:`KernelBasis` of the coinvariants {v : rho(v) = v (x) 1}.

    ``blocks`` are the blocks C_p of rho and ``unit`` the dim B x 1 unit u
    of B. rho(v) = v (x) 1 says C_p v = u_p v for every p, so this is the
    kernel of the C_p - u_p I stacked, read without assembling rho.

    A row that is a scalar multiple of an earlier one is dropped: scaled by
    the inverse of its leading entry, it equals the scaled earlier row.
    When the coaction is a grading, every row comes twice up to sign. The
    dropped rows lie in the span of the kept ones, so the row space is
    unchanged, and with it the kernel, its annihilator, and the canonical
    kernel basis, which :func:`rank_kernel` reads off the RREF of the row
    space alone.
    """
    f = unit.field
    dim = blocks[0].cols
    u = unit.coldict().get(0, {})
    rd = {}
    seen = set()  # kept rows: the column of a one-entry row, else the row scaled to lead 1
    for p, C in enumerate(blocks):
        rows = C.rowdict
        if p in u:  # rows of C_p - u_p I, the diagonal entry shifted
            rows = {i: dict(rows.get(i, ())) for i in range(dim)}
            for i, row in rows.items():
                w = f.sub(row.get(i, f.zero), u[p])
                if w == f.zero:
                    row.pop(i, None)
                else:
                    row[i] = w
        for i, row in rows.items():
            if row:
                if len(row) == 1:  # a multiple of e_c, keyed by c
                    key = next(iter(row))
                else:
                    lead = f.inv(row[min(row)])
                    key = frozenset((c, f.mul(lead, v)) for c, v in row.items())
                if key not in seen:
                    seen.add(key)
                    rd[p * dim + i] = row
    stacked = Matrix(f, len(blocks) * dim, dim, rd)
    return rank_kernel(stacked)[1]


def _check_coface_degree(dims, n, faces, lower, slotted_d0=True):
    """The cofaces ``faces`` out of degree n: their count, shapes and identities with the last.

    Checked, entry-exactly: n+2 cofaces leave degree n, each of shape
    dims[n+1] x dims[n]; and, with ``lower`` the cofaces out of degree
    m = n-1 (None for n = 0), d_{m+2} d_i = d_i d_{m+1} for 0 <= i <= m+1,
    the m+2 of the (m+3)(m+2)/2 identities d_j d_i = d_i d_{j-1}, i < j,
    that involve a last coface. :func:`twisted_ch` and
    :func:`regular.free_model` check each degree as they build it. The
    identities with j <= m+1 involve only d_0 and the middle cofaces, each
    written with ``slotted`` or with ``wire`` and identity slots: the middle
    d_k is Delta on the k-th C slot, and d_0 is the right coaction of M (on
    the model, restricted to W) inserted after the coefficient. They follow
    from audits that have run:
      - j >= i+2: both sides apply the same two maps on disjoint slots, and
        maps on disjoint slots commute, (A (x) I)(I (x) B') = A (x) B' =
        (I (x) B')(A (x) I) (the slotted lemma).
      - j = i+1 >= 2: (Delta (x) id) Delta = (id (x) Delta) Delta on one
        slot, the coassociativity of C that ``hopf.audit`` checks.
      - (i, j) = (0, 1): (rho (x) id) rho = (id (x) Delta) rho for M's
        right coaction rho, which the ``EquivariantBicomodule`` audit (for
        M = C, the coassociativity of C) checks; on the model, for rho
        restricted to W, into span(W) (x) C.
    Where d_0 is not slotted (``slotted_d0`` False: on a model whose d_0
    reads M's coaction through Psi), the identities d_j d_0 = d_0 d_{j-1}
    for 1 <= j <= m+1 are checked too. Only the last coface reads X's
    coaction, and no audit relates that coaction to the rest, so the
    identities with j = m+2 are the ones that can fail.
    ``tests/oracles.py`` keeps the full loop.
    """
    if len(faces) != n + 2:
        raise ShapeMismatch(f"degree {n} must carry {n + 2} cofaces")
    for d in faces:
        if d.cols != dims[n] or d.rows != dims[n + 1]:
            raise ShapeMismatch(f"coface at degree {n} has wrong shape")
    if lower is None:
        return
    m = n - 1
    pairs = [(m + 2, i) for i in range(m + 2)]
    if not slotted_d0:
        pairs += [(j, 0) for j in range(1, m + 2)]
    for j, i in pairs:
        if faces[j].mul(lower[i]) != faces[i].mul(lower[j - 1]):
            raise IdentityViolation(m, f"d_{j} d_{i} = d_{i} d_{j - 1}")


# ---------------------------------------------------------------------------
# Bar complex
# ---------------------------------------------------------------------------


def bar_complex(desc, maxN):
    """CB_* with CB_n = C^{(x) n+1}, d = sum_j (-1)^j Delta on slot j.

    d_0 is Delta itself. Shifted by one degree it is the bar resolution:
    ``diffs[n + 1]`` leaves C^{(x) n+2}, degree n of the resolution.
    """
    if maxN < 0:
        raise DegreeOutOfRange("maxN must be nonnegative")
    f = desc.field
    c = desc.dim
    dims = [_pow(c, n + 1) for n in range(maxN + 1)]
    diffs = {n: _alternating(f, [slotted(f, _pow(c, j), desc.comult, _pow(c, n - j))
                                 for j in range(n + 1)])
             for n in range(maxN)}
    return GradedComplex(f, +1, dims, diffs)


# ---------------------------------------------------------------------------
# Twisted Cartier-Hochschild complex
# ---------------------------------------------------------------------------


def twisted_ch(C, M, X, maxdeg):
    """CH with coefficients in M twisted by X: degree n space X (x) M (x) C^n.

    Cofaces come from the smash comodule structure: the zeroth applies the
    right coaction of M, the middle ones comultiply a C slot, the last wraps
    the left legs around with the coefficient twist
    x (x) m (x) ... -> x_(0) (x) m_(0) (x) ... (x) x_(-1)(m_(-1)).
    The result is a :class:`CocyclicModule` with no tau, the coface counts,
    shapes and identities of each degree checked as it is built. The
    graded B-action is attached for the algebra generators g only,
    ``actions[n][g]`` = L_g: nothing reads any other (see
    :func:`induced_complex`).
    """
    B = C.over
    f = B.field
    c = C.dim
    m = M.dim
    x = X.dim
    if M.coalgebra is not C and M.coalgebra.base.comult != C.base.comult:
        raise ShapeMismatch("bicomodule must live over the same module coalgebra")
    if not X.module_report.ok:
        raise AuditFailed(X.module_report)
    dims = [x * m * _pow(c, n) for n in range(maxdeg + 1)]
    cofaces = []
    for n in range(maxdeg):
        faces = [slotted(f, x, M.right_coaction, _pow(c, n))]
        for j in range(1, n + 1):
            faces.append(slotted(f, x * m * _pow(c, j - 1), C.base.comult, _pow(c, n - j)))
        faces.append(_wrap_coface(C, M, X, _pow(c, n)))
        _check_coface_degree(dims, n, faces, cofaces[-1] if n else None)
        cofaces.append(faces)
    actions = [_diagonal_action(B, [(m, M.action)] + [(c, C.action)] * n, (x, X.action),
                                B.algebra_generators)
               for n in range(maxdeg + 1)]
    return CocyclicModule(f, B, dims, cofaces, actions=actions)


def _wrap_coface(C, M, X, cn):
    """The last coface x (x) m (x) t -> x_(0) (x) m_(0) (x) t (x) x_(-1)(m_(-1)).

    ``t`` is the C^n tail of dimension ``cn``, an identity slot.
    """
    dims = {"x": X.dim, "x0": X.dim, "m": M.dim, "m0": M.dim, "t": cn,
            "h": C.over.dim, "c": C.dim, "hc": C.dim}
    return wire(C.over.field, dims, "x m t -> x0 m0 t hc",
                (X.coaction, "x -> h x0"), (M.left_coaction, "m -> c m0"),
                (C.action, "h c -> hc"))


def coinvariant_space_from_matrices(field, B, L_list, dim):
    """Quotient of a B-module V by B^+ V, where B^+ = ker eps.

    ``L_list`` maps basis elements b to their action matrix L_b; only the
    algebra generators g_i of B are read, since
    B^+ V = sum_i (g_i - eps(g_i)) V. Proof: B is spanned by words in the
    g_i, and for a word g w, g w - eps(g w) 1 = (g - eps(g)) w
    + eps(g) (w - eps(w) 1). By induction on length every b - eps(b) 1 lies
    in sum_i (g_i - eps(g_i)) B, and conversely each (g_i - eps(g_i)) b lies
    in B^+ because eps is multiplicative. So B^+ = sum_i (g_i - eps(g_i)) B,
    and B^+ V = sum_i (g_i - eps(g_i)) B V = sum_i (g_i - eps(g_i)) V, the
    last step because the audited action is associative and unital
    (V = 1 V).
    """
    eps = B.counit.rowdict.get(0, {})
    zero = field.zero
    rels = []
    for g in B.algebra_generators:
        e = eps.get(g, zero)
        for j, col in enumerate(L_list[g].columns()):  # columns of L_g - eps(g) I
            col[j] = field.sub(col.get(j, zero), e)
            if col[j] == zero:
                del col[j]
            rels.append(col)
    return QuotientSpace(field, dim, rels)


def induced_complex(T):
    """Coinvariants of a twisted CH complex: its :class:`CocyclicModule`, no tau.

    [L_g, d_j] = 0 is verified for j <= n and the algebra generators g of
    B. They suffice: the diagonal action is multiplicative, L_{bb'} =
    L_b L_{b'} and L_1 = id, as Delta is an algebra map and every factor an
    audited module (the coefficient by the ``module_report`` that
    :func:`twisted_ch` requires), so the b with L_b d = d L_b form a
    subalgebra, and one that contains every g is B.

    Only the last coface is checked for descent (:func:`map_well_defined`).
    For j <= n, d_j (L_g - eps(g)) v = (L_g - eps(g)) d_j v by the verified
    commutators, again a relation, and the (L_g - eps(g)) v span the
    relations: d_0 ... d_n descend without a check. The check of the last
    is what refuses a coefficient that is not anti-Yetter-Drinfeld.

    The work goes degree by degree: the commutators out of degree n, then
    the quotient of degree n+1, then the cofaces out of n induced. A
    coface that does not descend is refused before any higher quotient is
    built.
    """
    B = T.over
    q = [coinvariant_space_from_matrices(T.field, B, T.actions[0], T.dims[0])]
    cofaces = []
    for n, faces in enumerate(T.cofaces):
        for j, d in enumerate(faces[:-1]):
            for g in B.algebra_generators:
                if T.actions[n + 1][g].mul(d) != d.mul(T.actions[n][g]):
                    raise ShapeMismatch(f"[L_b, d_{j}] != 0 at degree {n} for b = {B.basis[g]}")
        q.append(coinvariant_space_from_matrices(T.field, B, T.actions[n + 1], T.dims[n + 1]))
        failure = IdentityViolation(n, f"coface d_{n + 1} well-defined on the quotient")
        cofaces.append([q[n].induce(q[n + 1], d) for d in faces[:-1]]
                       + [_induced(faces[-1], q[n], q[n + 1], failure)])
    return CocyclicModule(T.field, B, [qn.dim for qn in q], cofaces, quotients=q)


# ---------------------------------------------------------------------------
# Cocyclic and cyclic modules
# ---------------------------------------------------------------------------


def _check_tau_order(cm):
    """tau^{n+1} = id in every degree that carries tau, entry-exactly.

    With k = floor((n+1)/2), tau^{n+1} is (tau^k)^2, times tau once more
    when n+1 is odd: ceil((n+1)/2) products where powering one factor at a
    time takes n, and never more than two powers alive at once. The power
    is compared with the identity row by row, without building it.
    """
    one = cm.field.one
    for n, t in enumerate(cm.tau):
        power = t
        for _ in range((n + 1) // 2 - 1):
            power = t.mul(power)
        if n:
            power = power.mul(power)
            if n % 2 == 0:
                power = t.mul(power)
        if len(power.rowdict) != cm.dims[n] or any(
                row != {i: one} for i, row in power.rowdict.items()):
            raise IdentityViolation(n, "tau^{n+1} = id")


def _check_tau_degree(tau, n, faces, middle=True):
    """tau d_j = d_{j-1} tau and tau d_0 = d_{n+1} for the cofaces out of n, entry-exactly.

    Checked for 1 <= j <= n+1, or, with ``middle`` False, for j = 1 and
    j = n+1 alone: on a model of ``regular.free_model``, whose docstring
    proves the middle identities, 2 <= j <= n, from the checked tail
    actions, the audited B-linearity of Delta_C and the slotted lemma.
    """
    for j in range(1, n + 2) if middle else sorted({1, n + 1}):
        if tau[n + 1].mul(faces[j]) != faces[j - 1].mul(tau[n]):
            raise IdentityViolation(n + 1, f"tau d_{j} = d_{j-1} tau")
    if tau[n + 1].mul(faces[0]) != faces[n + 1]:
        raise IdentityViolation(n + 1, "tau d_0 = d_n")


def _induced(amb, src, dst, failure):
    """``amb`` induced from the quotient ``src`` to ``dst``.

    Raises ``failure`` unless ``amb`` sends relations into relations, exactly.
    """
    induced = map_well_defined(amb, src, dst)
    if induced is None:
        raise failure
    return induced


def descend_degree(n, faces, quotients):
    """The cofaces ``faces`` out of degree n induced from ``quotients[n]`` to ``quotients[n + 1]``.

    Each must send relations into relations, exactly. The cokernel of
    ``relative --mode cokernel`` induces every degree of CM(C) with it: a
    descended module's degree by degree, a model's inside
    ``regular.free_model`` as each degree is built.
    """
    return [_induced(d, quotients[n], quotients[n + 1],
                     IdentityViolation(n, f"coface d_{j} well-defined on the quotient"))
            for j, d in enumerate(faces)]


class CocyclicModule:
    """Cocyclic module on degreewise spaces of dimension ``dims`` (coalgebra side).

    ``cofaces[n]`` lists the n+2 cofaces leaving degree n and ``tau[n]`` is
    the cyclic operator, None on an ambient twisted CH complex
    (:func:`twisted_ch`) and on CH(C, M; X) for M other than C. A module
    through degree ``top`` carries tau_0 ... tau_{top-1}, in the degrees
    that cofaces leave: the engines read no more (:func:`connes_complex`,
    :func:`cyclic_total_complex`), and the identities of a tau_top would
    be its only reader. An ambient
    complex carries ``actions[n][g]``, L_g on degree n for the algebra
    generators g of B, by which :func:`induced_complex` descends it. A
    module induced on quotients of an ambient module keeps them as
    ``quotients[n]``, the quotient of degree n, on which :meth:`with_tau`
    induces tau; nothing of the ambient is kept but the dimensions each
    quotient records, so it is freed once descended. A model of
    :func:`regular.free_model` has neither, and no cofaces: its ``cofaces``
    is None, and the one reader of single cofaces, the cokernel of
    ``relative --mode cokernel``, induces them inside the build loop of
    ``free_model``. It keeps the ``untwist`` (``regular.Untwist``) by which
    maps between models are written and its codegeneracies read, and b and,
    with tau, the last coface out of each degree, ``b[n]`` and ``last[n]``,
    from which its complexes are formed. :func:`coinvariant_ch` builds
    CH(C; X) with its tau as either. Built once per run at the deepest
    degree any consumer needs; shallower consumers take a truncation, which
    shares every matrix.
    """

    orientation = +1

    def __init__(self, field, over, dims, cofaces, tau=None, quotients=None, actions=None,
                 untwist=None, b=None, last=None):
        self.field = field
        self.over = over
        self.quotients = quotients
        self.actions = actions
        self.untwist = untwist
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.cofaces = cofaces
        self.tau = tau
        self.b, self.last = b, last

    @functools.cached_property
    def complex(self):
        """The Hochschild complex, d = b = sum_j (-1)^j d_j, built on first use.

        It is the matrix that inducing the ambient differential gives,
        because inducing is linear.
        """
        return _hochschild_complex(self)

    def truncate(self, top):
        """The same module through degree ``top``, tau through top - 1, nothing rebuilt."""
        if top > self.top:
            raise DegreeOutOfRange(f"truncation to degree {top}, built through {self.top}")

        def cut(seq, stop):
            return None if seq is None else seq[:stop]

        return CocyclicModule(self.field, self.over, self.dims[:top + 1], cut(self.cofaces, top),
                              cut(self.tau, top), cut(self.quotients, top + 1),
                              cut(self.actions, top + 1), self.untwist, cut(self.b, top),
                              cut(self.last, top))

    def with_tau(self, taus):
        """This module with the ambient cyclic operators ``taus`` induced, validated.

        ``taus`` holds one operator per degree below the top and is iterated once.
        """
        what = "cyclic operator well-defined on the quotient"
        tau = [_induced(t, q, q, IdentityViolation(n, what))
               for n, (t, q) in enumerate(zip(taus, self.quotients[:self.top], strict=True))]
        cm = CocyclicModule(self.field, self.over, self.dims, self.cofaces, tau, self.quotients)
        cm.validate()
        return cm

    def validate(self):
        """Check the cocyclic identities at every degree n that carries tau, entry-exactly.

        Checked: tau^{n+1} = id for n < top, and tau d_j = d_{j-1} tau for
        1 <= j <= n and tau d_0 = d_n for the cofaces d_j into degree
        n < top. The coface identities hold on a module descended from a
        validated ambient (:func:`induced_complex`), because inducing is
        multiplicative; :func:`regular.free_model` checks them and these
        degree by degree. No tau_top is built, so the identities of the
        cofaces into the top with it are not read; those cofaces are the
        ambient cofaces induced, written by the same code as every lower
        degree, whose identities with the last coface the ambient's checks
        passed, and d o d runs on every complex formed from them.
        """
        _check_tau_order(self)
        for n in range(self.top - 1):
            _check_tau_degree(self.tau, n, self.cofaces[n])


class CyclicModule:
    """Validated cyclic module on cotensor subspaces (algebra side)."""

    def __init__(self, field, over, dims, faces, tau, inclusions):
        self.field = field
        self.over = over
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.faces = faces  # faces[n]: list of n+1 maps V_n -> V_{n-1}
        self.tau = tau
        self.inclusions = inclusions
        self.orientation = -1
        self.b = self.last = None  # alternated from the faces when read
        self.untwist = None

    def validate(self):
        """Check the cyclic identities at every degree n, entry-exactly.

        Checked: tau^{n+1} = id, d_i tau = tau d_{i-1} for 1 <= i <= n,
        d_0 tau = d_n, and d_0 d_j = d_{j-1} d_0 for 1 <= j <= n, which are
        n of the n(n+1)/2 face identities d_i d_j = d_{j-1} d_i, i < j.
        They imply the rest, as d_0 and tau generate every face (Connes'
        cyclic category). tau is invertible, as tau^{n+1} = id, so
        d_i tau = tau d_{i-1} gives d_i = tau d_{i-1} tau^{-1} in every
        degree. For 1 <= i < j <= n then
        d_i d_j = tau d_{i-1} d_{j-1} tau^{-1} and
        d_{j-1} d_i = tau d_{j-2} d_{i-1} tau^{-1}: identity (i, j) is
        identity (i-1, j-1) conjugated by tau, and down to i = 0 it is
        identity (0, j-i), which is checked. The d_i used one degree down
        have i <= n-1, where their tau identity is checked too.
        """
        _check_tau_order(self)
        for n in range(1, self.top + 1):
            faces = self.faces[n]
            if n >= 2:
                lower = self.faces[n - 1]
                for j in range(1, n + 1):
                    if lower[0].mul(faces[j]) != lower[j - 1].mul(faces[0]):
                        raise IdentityViolation(n, f"d_0 d_{j} = d_{j-1} d_0")
            for i in range(1, n + 1):
                if faces[i].mul(self.tau[n]) != self.tau[n - 1].mul(faces[i - 1]):
                    raise IdentityViolation(n, f"d_{i} tau = tau d_{i-1}")
            if faces[0].mul(self.tau[n]) != faces[n]:
                raise IdentityViolation(n, "d_0 tau = d_n")


def coinvariant_ch(C, X, maxdeg, M=None, W=None):
    """CH(C, M; X) on coinvariants through ``maxdeg``, M = C where None: its one constructor.

    With ``W``, basis indices on which M is free over B
    (``regular.free_bases``), the model of ``regular.free_model`` on
    X (x) W (x) C^{(x) n}; otherwise :func:`twisted_ch` descended by
    :func:`induced_complex`. For M = C tau comes with the module on both
    paths: the model writes it, and :meth:`CocyclicModule.with_tau` induces
    the rotation of :func:`_coalgebra_rotation` on the quotients and
    validates it. A tau needs a stable X: for M = C an unstable X is refused
    before anything is built.
    """
    if M is None and not X.stable:
        raise NotStable("coefficient is not stable")
    if W is not None:
        from . import regular  # imported here: it adds to every start-up otherwise

        return regular.free_model(C, X, W, maxdeg, M)
    descended = induced_complex(twisted_ch(C, M or regular_bicomodule(C), X, maxdeg))
    if M is not None:
        return descended
    return descended.with_tau(_coalgebra_rotation(C, X, _pow(C.dim, n))
                              for n in range(maxdeg))  # one at a time


def assemble(side, main, X, maxdeg):
    """Build the validated (co)cyclic module of a triple.

    Coalgebra side: the coinvariants of X (x) C^{(x) n+1} with the twisted
    cofaces and the cyclic rotation through the coefficient coaction, the
    module of :func:`coinvariant_ch` descended to its quotients, never the
    model, even where C is free: the quotients and every coface are kept.
    Algebra side: the subspace of A^{(x) n+1} (x) X on which the total
    coaction is trivial, with multiplication faces and the rotation twisted
    through the coaction. Every (co)cyclic identity is verified on the
    constructed spaces; assembly fails on any violation.
    """
    if not X.stable:
        raise NotStable("coefficient is not stable")
    if side == "coalgebra":
        return coinvariant_ch(main, X, maxdeg)
    if side == "algebra":
        return _assemble_algebra(main, X, maxdeg)
    raise ShapeMismatch(f"unknown side {side!r}")


def _coalgebra_rotation(C, X, cn):
    """The cyclic operator x (x) c0 (x) t -> x_(0) (x) t (x) x_(-1)(c0).

    ``t`` is the C^n tail of dimension ``cn``, an identity slot.
    """
    dims = {"x": X.dim, "x0": X.dim, "c0": C.dim, "t": cn, "h": C.over.dim, "c": C.dim}
    return wire(C.over.field, dims, "x c0 t -> x0 t c",
                (X.coaction, "x -> h x0"), (C.action, "h c0 -> c"))


def _algebra_rotation(A, X, an, on=None):
    """The cyclic operator r (x) a (x) x -> a_(0) (x) r (x) a_(1) x.

    ``r`` is the A^n head of dimension ``an``, an identity slot. With
    ``on``, its product with ``on`` (see :func:`wire`).
    """
    dims = {"r": an, "a": A.dim, "a0": A.dim, "x": X.dim, "y": X.dim, "h": A.over.dim}
    return wire(A.over.field, dims, "r a x -> a0 r y",
                (A.coaction, "a -> a0 h"), (X.action, "h x -> y"), on=on)


def _assemble_algebra(A, X, maxdeg):
    B = A.over
    # no blocks outlive the generator, so none is alive past the last kernel
    inclusions = [comodule_coinvariants(B.unit, blocks)
                  for blocks in total_coactions(A, X, maxdeg)]
    faces, taus = zip(*(_algebra_degree(A, X, inclusions, n) for n in range(maxdeg + 1)))
    cm = CyclicModule(B.field, B, [K.cols for K in inclusions], list(faces), list(taus),
                      inclusions)
    cm.validate()
    return cm


def _algebra_degree(A, X, inclusions, n):
    """The faces out of degree n and tau_n on the cotensor subspaces, as (faces, tau).

    Each operator is applied only where the kernel basis K_n has rows
    (``on=`` of :func:`wire`), and no ambient operator or product is built.
    The images are tau K_n, d_j K_n for j < n, and d_n K_n = d_0 (tau K_n):
    the last face is defined as d_n = d_0 tau, and the product is
    associative, so (d_0 tau) K_n = d_0 (tau K_n) is the same matrix. Every
    image, d_n's included, goes through :func:`restrict`, whose identity
    check says that it lies in the subspace; each is the same matrix as
    the ambient operator times K_n, so it restricts to the same map. No
    image outlives this call.
    """
    f = A.over.field
    a, x = A.dim, X.dim

    def onto(K, image):
        small = restrict(K, image)
        if small is None:
            raise IdentityViolation(n, "operator preserves the cotensor subspace")
        return small

    K = inclusions[n]
    tau_image = _algebra_rotation(A, X, _pow(a, n), on=K)
    tau = onto(K, tau_image)
    if n == 0:
        return [], tau  # degree 0 has no faces

    def face(j, on):  # d_j, the multiplication of slots j and j+1, times ``on``
        return onto(inclusions[n - 1],
                    slotted(f, _pow(a, j), A.base.mult, _pow(a, n - 1 - j) * x, on=on))

    return [face(j, K) for j in range(n)] + [face(0, tau_image)], tau


def assemble_for_homology(side, main, X, maxdeg):
    """:func:`assemble` for a caller that reads nothing but the (co)cyclic module.

    On the coalgebra side this is :func:`coinvariant_ch` with the free basis
    W of C that ``regular.free_bases`` finds, if any (X stable and
    anti-Yetter-Drinfeld too): the model, with the same homology in another
    basis and no quotients to induce ambient maps through, or else the
    descended module.
    """
    if side == "coalgebra":
        from . import regular  # imported here: it adds to every start-up otherwise

        return coinvariant_ch(main, X, maxdeg, W=(regular.free_bases(X, main) or [None])[0])
    return assemble(side, main, X, maxdeg)


# ---------------------------------------------------------------------------
# Homology engines
# ---------------------------------------------------------------------------


def _face_maps(cm):
    """(degree, its (co)faces) for every degree a (co)face leaves, one degree at a time."""
    if cm.orientation > 0:
        return ((n, cm.cofaces[n]) for n in range(cm.top))
    return ((n, cm.faces[n]) for n in range(1, cm.top + 1))


def _alternating(field, faces):
    """sum_j (-1)^j faces[j], accumulated in one pass."""
    zero = field.zero
    rd = {}
    for j, d in enumerate(faces):
        for i, row in d.rowdict.items():
            tgt = rd.setdefault(i, {})
            for c, v in row.items():
                w = field.add(tgt.get(c, zero), field.neg(v) if j % 2 else v)
                if w == zero:
                    tgt.pop(c, None)
                else:
                    tgt[c] = w
    return Matrix(field, faces[0].rows, faces[0].cols, {i: r for i, r in rd.items() if r})


def _differentials(cm, drop_last=False):
    """b by degree, or b' (the last (co)face dropped) with ``drop_last``.

    A model keeps b and the last coface d_{n+1} out of each degree n
    (``b``, ``last``), and b' = b - (-1)^{n+1} d_{n+1} is formed from them
    in one subtraction. Any other module's are alternated from its
    (co)faces, one degree at a time.
    """
    if cm.b is not None and not drop_last:
        return dict(enumerate(cm.b))
    if drop_last and cm.last is not None:
        return {n: b.sub(d) if n % 2 else b.add(d) for n, (b, d) in enumerate(zip(cm.b, cm.last))}
    return {n: _alternating(cm.field, faces[:len(faces) - drop_last])
            for n, faces in _face_maps(cm)}


def _hochschild_complex(cm, drop_last=False):
    return GradedComplex(cm.field, cm.orientation, cm.dims, _differentials(cm, drop_last))


def _tau_through(cm, top, reader):
    """Refuse, with DegreeOutOfRange, a module that carries no tau_{top} for ``reader``."""
    if top >= len(cm.tau):
        raise DegreeOutOfRange(f"{reader} reads tau through degree {top}, and the module "
                               f"carries it through {len(cm.tau) - 1}")


def _lambda_n(cm, n):
    t = cm.tau[n]
    return t if n % 2 == 0 else t.neg()


def _norm_n(cm, n):
    f = cm.field
    lam = _lambda_n(cm, n)
    acc = Matrix.identity(f, cm.dims[n])
    out = acc
    for _ in range(n):
        acc = lam.mul(acc)
        out = out.add(acc)
    return out


def cyclic_total_complex(cm, maxtot):
    """Total complex of the first-quadrant (b, b', 1 - lambda, N) bicomplex.

    Works for both orientations: cochain for cocyclic modules, chain for
    cyclic modules. Total degree runs through ``maxtot``; 1 - lambda and N
    leave total degrees below it, so tau is read through maxtot - 1.
    """
    f = cm.field
    if maxtot > cm.top:
        raise DegreeOutOfRange(
            f"total degree {maxtot} needs internal degree {maxtot}, built through {cm.top}")
    _tau_through(cm, maxtot - 1, f"the bicomplex through total degree {maxtot}")
    o = cm.orientation
    b_full, b_prime = _differentials(cm), _differentials(cm, drop_last=True)
    tot_dims = []
    blocks = []  # per total degree: list of (p, q)
    for m in range(maxtot + 1):
        pq = [(p, m - p) for p in range(m + 1)]
        blocks.append(pq)
        tot_dims.append(sum(cm.dims[q] for _, q in pq))
    diffs = {}
    for m in range(maxtot + 1):
        src = blocks[m]
        if not 0 <= m + o <= maxtot:
            continue
        tgt = blocks[m + o]
        tgt_index = {pq: i for i, pq in enumerate(tgt)}
        grid = [[None] * len(src) for _ in range(len(tgt))]
        for si, (p, q) in enumerate(src):
            # b leaves degree q exactly when q is in b_full
            if (p, q + o) in tgt_index and q in b_full:
                grid[tgt_index[p, q + o]][si] = b_full[q] if p % 2 == 0 else b_prime[q].neg()
            if (p + o, q) in tgt_index:
                # 1 - lambda leaves the even columns of the cochain bicomplex
                # and the odd columns of the chain one, N the others
                grid[tgt_index[p + o, q]][si] = (
                    Matrix.identity(f, cm.dims[q]).sub(_lambda_n(cm, q))
                    if (p % 2 == 0) == (o > 0) else _norm_n(cm, q))
        diffs[m] = block_matrix(f, grid,
                                [cm.dims[q] for _, q in tgt],
                                [cm.dims[q] for _, q in src])
    return GradedComplex(f, o, tot_dims, diffs)


def _counital(X):
    """Whether X's coaction is counital, eps(x_(-1)) x_(0) = x.

    The codegeneracy identities read it (:func:`codegeneracy`), and no
    audit of a coefficient checks it.
    """
    f = X.over.field
    return slotted(f, 1, X.over.counit, X.dim).mul(X.coaction) == Matrix.identity(f, X.dim)


def codegeneracy(cm, n, i):
    """sigma_i out of degree n+1 of a model with tau, 0 <= i <= n: eps_C on its C slot i+1.

    ``cm`` is a :func:`regular.free_model` of M = C, on X (x) W (x)
    C^{(x) n+1}. sigma_i is Psi sigma_i Phi for sigma_i = eps_C on the
    same C slot of X (x) C (x) C^{(x) n+1}. That sigma_i commutes with
    the diagonal action, as eps_C(b c) = eps(b) eps_C(c) (the audited
    counit compatibility of the module coalgebra) and eps on one leg of
    Delta^{(k)}(b) leaves Delta^{(k-1)}(b) (the counit law of B), so it
    descends; and Psi [x (x) w (x) t] = x (x) w (x) t for w in W, as
    S(1) = 1, so it needs no untwisting. Each identity below holds on the
    ambient cofaces of :func:`twisted_ch` and the rotation
    x (x) m (x) c_1 (x) t -> x_(0) (x) c_1 (x) t (x) x_(-1) m, and
    descends to the model, on which Phi Psi = id:
      - sigma_j sigma_i = sigma_i sigma_{j+1} (i <= j), sigma_j d_i =
        d_i sigma_{j-1} (i < j), sigma_j d_i = d_{i-1} sigma_j (i > j+1)
        and tau_n sigma_i = sigma_{i-1} tau_{n+1} (1 <= i <= n): both
        sides apply the same maps on disjoint slots, moved alike, and maps
        on disjoint slots commute (the slotted lemma). d_0 writes the M
        slot and slot 1, the last coface the X and M slots and the last
        slot, and tau reads slot 1 and writes the last.
      - sigma_j d_j = sigma_j d_{j+1} = id: (id (x) eps) Delta =
        (eps (x) id) Delta = id on a middle slot and, for d_0, on the M
        slot, the counit law of C (``hopf.audit``). For the last coface,
        eps(x_(-1) m_(-1)) x_(0) (x) m_(0) = eps(x_(-1)) x_(0) (x)
        eps(m_(-1)) m_(0) by the B-linearity of eps_C, and that is
        x (x) m by the counit laws of X's coaction (:func:`_counital`)
        and of C.
      - tau_n sigma_0 = sigma_n tau_{n+1}^2: tau^2 sends x (x) m (x) c_1
        (x) c_2 (x) t to x_(0)(0) (x) c_2 (x) t (x) x_(-1) m (x)
        x_(0)(-1) c_1; eps on the last slot gives eps(x_(0)(-1)) eps(c_1)
        by the B-linearity of eps_C, and x_(0)(0) eps(x_(0)(-1)) = x_(0)
        by the counit law of X's coaction, which leaves
        eps(c_1) tau(x (x) m (x) c_2 (x) t).
    They are not checked here; ``tests/oracles.py`` keeps the full loop.
    """
    c = cm.untwist.C.dim
    return slotted(cm.field, cm.dims[0] * _pow(c, i), cm.untwist.C.base.counit, _pow(c, n - i))


def normalized_cochains(cm, top):
    """The normalized cochains X (x) W (x) Cbar^{(x) n} of a model, Cbar = ker eps_C, n <= top.

    They are the common kernel of the :func:`codegeneracy` maps out of
    degree n: in a basis of C that extends one of Cbar by a vector e with
    eps_C(e) = 1, sigma_i kills the basis tensors with a Cbar vector at
    its slot and sends the others to distinct basis tensors, so the
    common kernel is spanned by those with Cbar vectors at every slot.
    Each is the
    :class:`KernelBasis` K_n = I (x) K_eps^{(x) n}, K_eps the canonical
    kernel basis of eps_C, its free rows the products of theirs
    (:func:`kernel_kron`).
    """
    f = cm.field
    eps = rank_kernel(cm.untwist.C.base.counit)[1]
    head = cm.dims[0]
    K = [KernelBasis(f, head, list(range(head)), {i: {i: f.one} for i in range(head)})]
    for _ in range(top):
        K.append(kernel_kron(K[-1], eps))
    return K


def connes_complex(cm, maxtot):
    """Total complex of Connes' (b, B) mixed complex on a model's normalized cochains.

    ``cm`` is a model of :func:`regular.free_model` with tau. Its
    codegeneracies sigma_i are eps_C on a C slot (:func:`codegeneracy`
    proves the identities read below), so the normalized cochains, their
    common kernel, are X (x) W (x) Cbar^{(x) n}, Cbar = ker eps_C, with the
    basis K_n (:func:`normalized_cochains`). Tot^m = (+)_k Cbar^{m-2k} with
    D = bbar + Bbar, Bbar_n = N_n sigma_n tau_{n+1} restricted and
    N_n = sum_i lambda_n^i, computes cyclic cohomology over any field, as
    the bicomplex of :func:`cyclic_total_complex` does (Connes, C. R. Acad.
    Sci. Paris 296, 1983; Loday, *Cyclic Homology*, 1.6 and 2.1).

    The rows ``K_n.free`` of K_n form the identity, so a Y with columns in
    Cbar^n is K_n P_n Y, P_n the selection of those rows, and P_n Y is what
    :func:`restrict` reads off Y. Hence bbar_n = (P_{n+1} b_n) K_n and
    Bbar_n = (P_n N_n) Z_n, Z_n = sigma_n tau_{n+1} K_{n+1}, with P_n N_n
    by Horner from the left, R_0 = P_n and R_{k+1} = R_k lambda_n + P_n,
    for these reasons (sigma_i out of degree m+1, i <= m):
      - b maps Cbar^n into Cbar^{n+1}: sigma_j d_i is d_i sigma_{j-1} for
        i < j, d_{i-1} sigma_j for i > j+1 and id for i = j, j+1, which b
        takes with opposite signs.
      - Z_n lies in Cbar^n: sigma_i sigma_n tau_{n+1} =
        sigma_{n-1} tau_n sigma_{i+1} for i < n.
      - N_n maps sigma_n tau_{n+1} Cbar^{n+1} into Cbar^n. Let z be in
        Cbar^{n+1} and 0 <= j <= n. By tau_n sigma_k = sigma_{k-1}
        tau_{n+1}, tau_n^j sigma_n tau_{n+1} z = sigma_{n-j} w,
        w = tau_{n+1}^{j+1} z. For i < n, sigma_i sigma_{n-j} is
        sigma_{n-j-1} sigma_i (i < n-j) or sigma_{n-j} sigma_{i+1}, so
        sigma_i lambda^j Z_n reads sigma_l w for an l != n-j, l <= n. By
        the same and tau_n sigma_0 = sigma_n tau_{n+1}^2, sigma_l w is
        tau_n^{j+1} sigma_{l+j+1} z if l + j < n and tau_n^j sigma_{l+j-n-1} z
        if l + j > n, and z is normalized.

    Checked: ``restrict(K_n, Z_n)``, exactly (one image, no N), and
    D o D = 0 in :class:`GradedComplex`. Tot through ``maxtot`` reads b
    and tau through maxtot - 1, which a module through maxtot carries.
    """
    if maxtot > cm.top:
        raise DegreeOutOfRange(
            f"total degree {maxtot} needs internal degree {maxtot}, built through {cm.top}")
    _tau_through(cm, maxtot - 1, f"Connes' complex through total degree {maxtot}")
    f = cm.field
    K = normalized_cochains(cm, maxtot)

    b = []
    for n in range(maxtot):  # (P_{n+1} b_n) K_n
        rd = cm.b[n].rowdict
        rows = {k: rd[i] for k, i in enumerate(K[n + 1].free) if i in rd}
        b.append(Matrix(f, K[n + 1].cols, cm.dims[n], rows).mul(K[n]))
    B = []
    for n in range(maxtot - 1):
        Z = codegeneracy(cm, n, n).mul(cm.tau[n + 1]).mul(K[n + 1])
        if restrict(K[n], Z) is None:
            raise IdentityViolation(n, "B preserves the normalized cochains")
        lam = _lambda_n(cm, n)
        P = R = Matrix(f, K[n].cols, cm.dims[n],
                       {k: {i: f.one} for k, i in enumerate(K[n].free)})
        for _ in range(n):  # R = P_n (1 + lambda + ... + lambda^k)
            R = R.mul(lam).add(P)
        B.append(R.mul(Z))
    return _mixed_total(f, [k.cols for k in K], b, B)


def _mixed_total(field, dims, b, B):
    """Total cochain complex of a mixed complex: Tot^m = (+)_k V^{m-2k}, D = b + B.

    ``dims[q]`` is dim V^q, ``b[q]`` leaves V^q for V^{q+1} and ``B[q]``
    leaves V^{q+1} for V^q. Component k of Tot^m is V^{m-2k}; b keeps the
    component and B moves it one up. Total degree runs through
    len(dims) - 1.
    """
    parts = [range(m, -1, -2) for m in range(len(dims))]
    diffs = {}
    for m in range(len(dims) - 1):
        src, tgt = parts[m], parts[m + 1]
        grid = [[None] * len(src) for _ in tgt]
        for k, q in enumerate(src):
            grid[k][k] = b[q]
            if q:
                grid[k + 1][k] = B[q - 1]
        diffs[m] = block_matrix(field, grid, [dims[q] for q in tgt], [dims[q] for q in src])
    return GradedComplex(field, +1, [sum(dims[q] for q in p) for p in parts], diffs)


def homology(obj, theory, maxdeg):
    """Dimensions per degree of the chosen theory of a (co)cyclic module.

    Cyclic homology of a model with tau whose coefficient coaction is
    counital reads :func:`connes_complex`; of any other module, the
    bicomplex of :func:`cyclic_total_complex`. Cyclic homology needs tau,
    and bar homology the last coface, which a model without tau does not
    keep.
    """
    if theory not in ("hochschild", "cyclic", "bar"):
        raise ShapeMismatch(f"unknown theory {theory!r}")
    if theory == "cyclic" and obj.tau is None:
        raise ShapeMismatch("cyclic homology reads tau, and this module has none")
    if theory == "bar" and obj.orientation > 0 and obj.last is None and obj.cofaces is None:
        raise ShapeMismatch("bar homology reads the last coface, and a model without tau "
                            "keeps none")
    if maxdeg + 1 > obj.top:
        raise DegreeOutOfRange(f"{theory} degree {maxdeg} needs internal degree "
                               f"{maxdeg + 1}, built through {obj.top}")
    if theory == "cyclic":
        connes = obj.untwist is not None and obj.tau is not None and _counital(obj.untwist.X)
        cx = (connes_complex if connes else cyclic_total_complex)(obj, maxdeg + 1)
    else:
        cx = _hochschild_complex(obj, drop_last=theory == "bar")
    return [cx.homology(n) for n in range(maxdeg + 1)]
