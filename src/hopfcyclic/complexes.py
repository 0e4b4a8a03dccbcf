"""Complex builders and the (co)cyclic homology engines.

Bar resolutions and bar complexes, the twisted coalgebra Hochschild complex
with its graded action, coinvariants, cotensor products and their derived
dimensions, the comparison isomorphism onto the cotensor model, the tensor
trivialization maps, and assembly of validated (co)cyclic modules together
with Hochschild/bar/cyclic dimension computations.

Degree bookkeeping: every constructed object records the top internal degree
it was built through; consumers asking beyond the certified window get a
DegreeOutOfRange error, never a silent wrong answer.
"""

import functools

from .errors import (
    AuditFailed,
    DegreeOutOfRange,
    IdentityViolation,
    NotAYD,
    NotCounital,
    NotStable,
    NotSubcoalgebra,
    ShapeMismatch,
    WellDefinednessFailure,
)
from .equivariant import action_of_vector, module_audit, regular_bicomodule
from .linalg import (
    GradedComplex,
    Matrix,
    QuotientSpace,
    block_matrix,
    map_well_defined,
    rank_kernel,
    restrict,
    slotted,
    wire,
)


def _pow(n, k):
    return n**k if k >= 0 else 0


def diagonal_action(B, factors, coefficient=None):
    """Diagonal B-action on a product of B-modules: L_b for every basis b.

    ``factors`` is a list of (dim, action) pairs in slot order; Sweedler legs
    are dealt left to right. A ``coefficient`` (dim, action) pair occupies
    the first slot and receives the last leg. Each L_b is the sum over
    Delta(b) = b_(1) (x) b_(2) of the tensor product of the per-leg
    matrices: b_(1) acts on the first factor and b_(2) diagonally on the
    rest, or b_(2) on the coefficient and b_(1) on the factors.
    """
    acts = _diagonal_action(B, factors, coefficient, range(B.dim))
    return [acts[b] for b in range(B.dim)]


def _diagonal_action(B, factors, coefficient, wanted):
    """{b: L_b} of :func:`diagonal_action` for each b in ``wanted``; one level
    down, only the legs of their Delta(b) are built."""
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


def right_coaction_of_modcomod(X):
    """Flip the left coaction of a coefficient into a right one.

    x -> x_(0) (x) x_(-1); the leg order convention downstream multiplies
    this leg last.
    """
    dims = {"x": X.dim, "x0": X.dim, "h": X.over.dim}
    return wire(X.over.field, dims, "x -> x0 h", (X.coaction, "x -> h x0"))


def diagonal_right_coaction(B, factors):
    """Diagonal right B-coaction on a product of right comodules.

    ``factors`` is a list of (dim, coaction V -> V (x) B); legs multiply in
    slot order, v0_(1) (v1_(1) (... vk_(1))). Each step wires the first
    factor to the coaction of the rest.
    """
    dim0, rho0 = factors[0]
    if len(factors) == 1:
        return rho0
    rho_rest = diagonal_right_coaction(B, factors[1:])
    rest = rho_rest.cols
    dims = {"v": dim0, "v0": dim0, "w": rest, "w0": rest, "h": B.dim, "k": B.dim, "p": B.dim}
    return wire(B.field, dims, "v w -> v0 w0 p", (rho0, "v -> v0 h"),
                (rho_rest, "w -> w0 k"), (B.mult, "h k -> p"))


# ---------------------------------------------------------------------------
# Cosimplicial modules
# ---------------------------------------------------------------------------


class CosimplicialModule:
    """Degreewise spaces with cofaces V_n -> V_{n+1} and optional B-action.

    ``cofaces[n]`` lists the n+2 cofaces leaving degree n. ``actions[n]``
    (when present) gives L_b by basis index b: for every b on a bar
    resolution, for the algebra generators on a twisted CH complex. The
    coface identities are validated entry-exactly at construction.
    """

    def __init__(self, field, dims, cofaces, actions=None, over=None):
        self.field = field
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.cofaces = cofaces
        self.actions = actions
        self.over = over
        self.validate()

    def validate(self):
        for n in range(self.top):
            faces = self.cofaces[n]
            if len(faces) != n + 2:
                raise ShapeMismatch(f"degree {n} must carry {n + 2} cofaces")
            for d in faces:
                if d.cols != self.dims[n] or d.rows != self.dims[n + 1]:
                    raise ShapeMismatch(f"coface at degree {n} has wrong shape")
        for n in range(self.top - 1):
            lower = self.cofaces[n]
            upper = self.cofaces[n + 1]
            for j in range(n + 3):
                for i in range(j):
                    lhs = upper[j].mul(lower[i])
                    rhs = upper[i].mul(lower[j - 1])
                    if lhs != rhs:
                        raise ShapeMismatch(
                            f"coface identity d_{j} d_{i} = d_{i} d_{j-1} fails at degree {n}")

    def differential(self, n):
        """Alternating coface sum out of degree n."""
        return _alternating(self.field, self.cofaces[n])


# ---------------------------------------------------------------------------
# Bar resolution and bar complex
# ---------------------------------------------------------------------------


def bar(C, variant, maxdeg):
    """Bar resolution (degree n space C^{(x) n+2}) or bar complex of C.

    For the resolution variant, C may be a plain coalgebra description or a
    module coalgebra; in the latter case the diagonal B-action matrices are
    attached degreewise. The complex variant returns the GradedComplex with
    CB_0 = C and d_0 the comultiplication.
    """
    if maxdeg < 0:
        raise DegreeOutOfRange("maxdeg must be nonnegative")
    mc = None
    desc = C
    if hasattr(C, "base"):
        mc, desc = C, C.base
    if variant == "complex":
        return bar_complex(desc, maxdeg)
    if variant != "resolution":
        raise ShapeMismatch(f"unknown bar variant {variant!r}")
    f = desc.field
    c = desc.dim
    dims = [_pow(c, n + 2) for n in range(maxdeg + 1)]
    cofaces = []
    for n in range(maxdeg):
        faces = []
        for j in range(n + 2):
            faces.append(slotted(f, _pow(c, j), desc.comult, _pow(c, n + 1 - j)))
        cofaces.append(faces)
    actions = None
    over = None
    if mc is not None:
        over = mc.over
        actions = [diagonal_action(over, [(c, mc.action)] * (n + 2)) for n in range(maxdeg + 1)]
    return CosimplicialModule(f, dims, cofaces, actions=actions, over=over)


def bar_complex(desc, maxN):
    """CB_* with CB_0 = C, CB_n = C^{(x) n+1}, d_0 = comultiplication."""
    f = desc.field
    c = desc.dim
    dims = [c] + [_pow(c, n + 1) for n in range(1, maxN + 1)]
    diffs = {0: desc.comult}
    for n in range(1, maxN):
        diffs[n] = _alternating(f, [slotted(f, _pow(c, j), desc.comult, _pow(c, n - j))
                                    for j in range(n + 1)])
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
    The coface identities are validated. The graded B-action is attached
    for the algebra generators g only, ``actions[n][g]`` = L_g: nothing
    reads any other (see :func:`induced_complex`).
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
        cofaces.append(faces)
    actions = [_diagonal_action(B, [(m, M.action)] + [(c, C.action)] * n, (x, X.action),
                                B.algebra_generators)
               for n in range(maxdeg + 1)]
    return CosimplicialModule(f, dims, cofaces, actions=actions, over=B)


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


def induced_complex(T, X, check_flags=True):
    """Coinvariants of a twisted CH complex: its :class:`CocyclicModule`, no tau yet.

    Requires the coefficient to be anti-Yetter-Drinfeld (the hypothesis of
    the descent) unless ``check_flags`` is off. [L_g, d_j] = 0 is verified
    for j <= n and the algebra generators g of B. They suffice: the
    diagonal action is multiplicative, L_{bb'} = L_b L_{b'} and L_1 = id,
    as Delta is an algebra map and every factor an audited module (the
    coefficient by the ``module_report`` that :func:`twisted_ch` requires),
    so the b with L_b d = d L_b form a subalgebra, and one that contains
    every g is B.

    Only the last coface is checked for descent (:func:`map_well_defined`).
    For j <= n, d_j (L_g - eps(g)) v = (L_g - eps(g)) d_j v by the verified
    commutators, again a relation, and the (L_g - eps(g)) v span the
    relations: d_0 ... d_n descend without a check.
    """
    if check_flags and not X.ayd:
        raise NotAYD("coefficient is not anti-Yetter-Drinfeld")
    B = T.over
    for n in range(T.top):
        for j, d in enumerate(T.cofaces[n][:-1]):
            for g in B.algebra_generators:
                if T.actions[n + 1][g].mul(d) != d.mul(T.actions[n][g]):
                    raise ShapeMismatch(f"[L_b, d_{j}] != 0 at degree {n} for b = {B.basis[g]}")
    q = [coinvariant_space_from_matrices(T.field, B, T.actions[n], T.dims[n])
         for n in range(T.top + 1)]
    cofaces = [[q[n].induce(q[n + 1], d) for d in faces[:-1]]
               + [_induced(faces[-1], q[n], q[n + 1],
                           IdentityViolation(n, f"coface d_{n + 1} well-defined on the quotient"))]
               for n, faces in enumerate(T.cofaces)]
    return CocyclicModule(T.field, B, q, cofaces)


# ---------------------------------------------------------------------------
# Cotensor products and derived dimensions
# ---------------------------------------------------------------------------


def cotensor(X_dim, rho_X, C_desc, Y_dim, rho_Y):
    """X box_C Y: kernel of rho_X (x) id - id (x) rho_Y inside X (x) Y.

    ``rho_X``: X -> X (x) C (right), ``rho_Y``: Y -> C (x) Y (left).
    Returns (dim, inclusion).
    """
    f = C_desc.field
    a = slotted(f, 1, rho_X, Y_dim)
    bmat = slotted(f, X_dim, rho_Y, 1)
    _, ker = rank_kernel(a.sub(bmat))
    return ker.cols, ker


def cotor(C_desc, X, Y, maxdeg, equivariant=None):
    """Dims of the derived cotensor: homology of X box CBbar_*(C) box Y.

    ``X = (dim, right coaction)``, ``Y = (dim, left coaction)``. With
    ``equivariant=(B, action_X, action_C, action_Y)`` the induced B-action
    matrices on degreewise representatives are returned as well.
    """
    if C_desc.counit is None:
        raise NotCounital("derived cotensor needs a counital coalgebra")
    f = C_desc.field
    c = C_desc.dim
    xd, rho_X = X
    yd, rho_Y = Y
    top = maxdeg + 1
    inclusions = []
    dims = []
    for n in range(top + 1):
        w = _pow(c, n + 2)
        lam = slotted(f, 1, C_desc.comult, _pow(c, n + 1))  # W -> C (x) W
        rho = slotted(f, _pow(c, n + 1), C_desc.comult, 1)  # W -> W (x) C
        left_eq = slotted(f, 1, rho_X, w * yd).sub(slotted(f, xd, lam, yd))
        right_eq = slotted(f, xd, rho, yd).sub(slotted(f, xd * w, rho_Y, 1))
        _, ker = rank_kernel(left_eq.vstack(right_eq))
        inclusions.append(ker)
        dims.append(ker.cols)
    diffs = {}
    res = bar(C_desc, "resolution", top)
    for n in range(top):
        d_amb = slotted(f, xd, res.differential(n), yd)
        induced = restrict(inclusions[n + 1], d_amb.mul(inclusions[n]))
        if induced is None:
            raise WellDefinednessFailure(
                f"bar differential does not preserve the cotensor subspace at degree {n}")
        diffs[n] = induced
    cx = GradedComplex(f, +1, dims, diffs)
    out_dims = [cx.homology(n) for n in range(maxdeg + 1)]
    if equivariant is None:
        return out_dims
    B, act_X, act_C, act_Y = equivariant
    actions = []
    for n in range(top + 1):
        per_b = []
        for L in diagonal_action(B, [(xd, act_X)] + [(c, act_C)] * (n + 2) + [(yd, act_Y)]):
            small = restrict(inclusions[n], L.mul(inclusions[n]))
            if small is None:
                raise WellDefinednessFailure("cotensor subspace is not B-stable")
            per_b.append(small)
        actions.append(per_b)
    return out_dims, actions


def doi_check(C_desc, M, maxdeg):
    """Verify the comparison map CH_*(C, M) -> M box_{C^e} CBbar_*(C).

    ``M = (dim, left coaction, right coaction)``. True iff the canonical map
    is a degreewise isomorphism onto the cotensor subspace and commutes with
    the differentials through maxdeg.
    """
    if C_desc.counit is None:
        raise NotCounital("the comparison needs a counital coalgebra")
    f = C_desc.field
    c = C_desc.dim
    md, lco, rco = M
    res = bar(C_desc, "resolution", maxdeg + 1)

    dims = {"m": md, "m1": md, "m0": md, "cl": c, "cr": c, "w1": c, "wl": c, "u": c, "v": c}
    coact = ((lco, "m -> cl m1"), (rco, "m1 -> m0 cr"))

    def lambda_e_W(n):
        # w1 (x) t (x) wl -> w1_(1) (x) wl_(2) (x) w1_(2) (x) t (x) wl_(1)
        return wire(f, dict(dims, t=_pow(c, n)), "w1 t wl -> cl cr u t v",
                    (C_desc.comult, "w1 -> cl u"), (C_desc.comult, "wl -> v cr"))

    rho_m = wire(f, dims, "m -> m0 cr cl", *coact)  # m -> m_(0) (x) m_(1) (x) m_(-1)
    inclusions = []
    for n in range(maxdeg + 1):
        w = _pow(c, n + 2)
        eq = slotted(f, 1, rho_m, w).sub(slotted(f, md, lambda_e_W(n), 1))
        _, ker = rank_kernel(eq)
        inclusions.append(ker)

    # comparison: m (x) cvec -> m_(0) (x) m_(1) (x) cvec (x) m_(-1)
    phis = []
    ch_faces = _ch_cofaces(C_desc, M, maxdeg)
    for n in range(maxdeg + 1):
        cn = _pow(c, n)
        phi = wire(f, dict(dims, t=cn), "m t -> m0 cr t cl", *coact)
        phis.append(phi)
        if restrict(inclusions[n], phi) is None:
            return False
        r, _ = rank_kernel(phi)
        if r != md * cn or inclusions[n].cols != md * cn:
            return False
    for n in range(maxdeg):
        d_ch = _alternating(f, ch_faces[n])
        d_bar = slotted(f, md, res.differential(n), 1)
        if d_bar.mul(phis[n]) != phis[n + 1].mul(d_ch):
            return False
    return True


def _ch_cofaces(C_desc, M, maxdeg):
    """Plain (untwisted) Cartier-Hochschild cofaces for a bicomodule."""
    f = C_desc.field
    c = C_desc.dim
    md, lco, rco = M
    out = []
    for n in range(maxdeg):
        faces = [slotted(f, 1, rco, _pow(c, n))]
        for j in range(1, n + 1):
            faces.append(slotted(f, md * _pow(c, j - 1), C_desc.comult, _pow(c, n - j)))
        dims = {"m": md, "m0": md, "t": _pow(c, n), "c": c}
        faces.append(wire(f, dims, "m t -> m0 t c", (lco, "m -> c m0")))
        out.append(faces)
    return out


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


# ---------------------------------------------------------------------------
# Trivialization isomorphisms
# ---------------------------------------------------------------------------


def shear_map(n, B):
    """The shear isomorphism on B^{(x) n} and its inverse.

    Gamma(b1 (x) ... (x) bn) = b1_(1) (x) b1_(2) b2_(1) (x) ... ; the inverse
    interleaves the antipode. Both the mutual-inverse identities and the
    intertwining of the diagonal action with first-slot multiplication are
    verified before returning.
    """
    f = B.field
    d = B.dim
    I = Matrix.identity(f, d)
    if n < 1:
        raise ShapeMismatch("shear map needs n >= 1")

    def diag_tensor(k):
        """The diagonal action on B^{(x) k} as one B (x) B^{(x) k} -> B^{(x) k} tensor."""
        return functools.reduce(Matrix.hstack, diagonal_action(B, [(d, B.mult)] * k))

    def shear_rec(k):
        if k == 1:
            return I
        r = _pow(d, k - 1)
        dims = {"b": d, "b1": d, "b2": d, "r": r, "s": r, "t": r}
        return wire(f, dims, "b r -> b1 t", (B.comult, "b -> b1 b2"),
                    (shear_rec(k - 1), "r -> s"), (diag_tensor(k - 1), "b2 s -> t"))

    g = shear_rec(n)
    # inverse: b_1 (x) ... (x) b_n -> b_1(1) (x) S(b_1(2)) b_2(1) (x) ... (x) S(b_{n-1}(2)) b_n
    dims = {}
    steps = []
    outs = []
    for i in range(n):
        dims.update({f"{leg}{i}": d for leg in "bpqso"})
        leg = f"b{i}"
        if i < n - 1:
            steps += [(B.comult, f"b{i} -> p{i} q{i}"), (B.antipode, f"q{i} -> s{i}")]
            leg = f"p{i}"
        if i > 0:
            steps.append((B.mult, f"s{i - 1} {leg} -> o{i}"))
            leg = f"o{i}"
        outs.append(leg)
    ginv = wire(f, dims, " ".join(f"b{i}" for i in range(n)) + " -> " + " ".join(outs), *steps)
    big = Matrix.identity(f, _pow(d, n))
    if g.mul(ginv) != big or ginv.mul(g) != big:
        raise IdentityViolation(n, "shear inverse")
    first_mult = slotted(f, 1, B.mult, _pow(d, n - 1))
    if g.mul(first_mult) != diag_tensor(n).mul(slotted(f, d, g, 1)):
        raise IdentityViolation(n, "shear intertwining")
    return g, ginv


def untwist(B, U, V):
    """Mutually inverse maps between k (x)_B (U (x) V) and U^op (x)_B V.

    ``U``/``V`` are (dim, action) pairs of left B-modules, audited as such.
    Returns (phi, psi) on the two quotient spaces, verified mutual inverses;
    the two relation subspaces are checked to coincide, which is the content
    of the trivialization.
    """
    for dim, action in (U, V):
        report = module_audit(B, dim, action)
        if not report.ok:
            raise AuditFailed(report)
    sinv = B.inverse_antipode
    f = B.field
    ud, act_u = U
    vd, act_v = V
    amb = ud * vd
    diag = diagonal_action(B, [(ud, act_u), (vd, act_v)])
    q1 = coinvariant_space_from_matrices(f, B, diag, amb)
    rels2 = []
    for bb, L_vb in enumerate(act_v.column_blocks(B.dim)):
        L_s = action_of_vector(B, act_u, ud, sinv.col(bb))  # S^{-1}(e_b) acting on U
        R = slotted(f, 1, L_s, vd).sub(slotted(f, ud, L_vb, 1))
        rels2.extend(col for col in R.columns() if col)
    q2 = QuotientSpace(f, amb, rels2)
    ident = Matrix.identity(f, amb)
    phi, psi = map_well_defined(ident, q2, q1), map_well_defined(ident, q1, q2)
    if phi is None or psi is None:
        raise IdentityViolation(0, "trivialization relation exchange")
    if phi.mul(psi) != Matrix.identity(f, q1.dim) or psi.mul(phi) != Matrix.identity(f, q2.dim):
        raise IdentityViolation(0, "trivialization mutual inverse")
    return phi, psi


# ---------------------------------------------------------------------------
# Cocyclic and cyclic modules
# ---------------------------------------------------------------------------


def _check_tau_order(cm):
    """tau^{n+1} = id in every degree, entry-exactly.

    With k = floor((n+1)/2), tau^{n+1} is (tau^k)^2, times tau once more
    when n+1 is odd: ceil((n+1)/2) products where powering one factor at a
    time takes n+1, and never more than two powers alive at once.
    """
    for n in range(cm.top + 1):
        t = cm.tau[n]
        power = t
        for _ in range((n + 1) // 2 - 1):
            power = t.mul(power)
        if n:
            power = power.mul(power)
            if n % 2 == 0:
                power = t.mul(power)
        if power != Matrix.identity(cm.field, cm.dims[n]):
            raise IdentityViolation(n, "tau^{n+1} = id")


def _induced(amb, src, dst, failure):
    """``amb`` induced from the quotient ``src`` to ``dst``.

    Raises ``failure`` unless ``amb`` sends relations into relations, exactly.
    """
    induced = map_well_defined(amb, src, dst)
    if induced is None:
        raise failure
    return induced


def descend(T, quotients):
    """The :class:`CocyclicModule`, no tau yet, that ``T``'s cofaces induce on ``quotients``.

    ``T`` is any module with ``field``, ``over`` and ``cofaces``, such as a
    cocyclic module with the quotients of a cokernel. Every coface must
    send relations into relations, exactly (twisted CH complexes:
    :func:`induced_complex`). The result keeps no reference to ``T``.
    """
    cofaces = [[_induced(d, quotients[n], quotients[n + 1],
                         IdentityViolation(n, f"coface d_{j} well-defined on the quotient"))
                for j, d in enumerate(T.cofaces[n])]
               for n in range(len(quotients) - 1)]
    return CocyclicModule(T.field, T.over, quotients, cofaces)


class CocyclicModule:
    """Cocyclic module induced on quotients of an ambient module (coalgebra side).

    ``quotients[n]`` is the quotient of degree n, ``cofaces[n]`` the n+2
    induced cofaces leaving it and ``tau[n]`` the induced cyclic operator,
    None until :meth:`with_tau`. Nothing of the ambient is kept but the
    dimensions each quotient records, so it is freed once descended. Built once
    per run at the deepest degree any consumer needs; shallower consumers
    take a truncation, which shares every matrix.
    """

    orientation = +1

    def __init__(self, field, over, quotients, cofaces, tau=None):
        self.field = field
        self.over = over
        self.quotients = quotients
        self.dims = [q.dim for q in quotients]
        self.top = len(self.dims) - 1
        self.cofaces = cofaces
        self.tau = tau

    @functools.cached_property
    def complex(self):
        """The Hochschild complex, d = sum_j (-1)^j d_j, built on first use.

        It is the matrix that inducing the ambient differential gives,
        because inducing is linear.
        """
        return _hochschild_complex(self)

    def truncate(self, top):
        """The same module through degree ``top``, nothing rebuilt."""
        if top > self.top:
            raise DegreeOutOfRange(f"truncation to degree {top}, built through {self.top}")
        tau = self.tau[:top + 1] if self.tau is not None else None
        return CocyclicModule(self.field, self.over, self.quotients[:top + 1],
                              self.cofaces[:top], tau)

    def with_tau(self, taus):
        """This module with the ambient cyclic operators ``taus`` induced, validated.

        ``taus`` holds one operator per degree and is iterated once.
        """
        what = "cyclic operator well-defined on the quotient"
        tau = [_induced(t, q, q, IdentityViolation(n, what))
               for n, (t, q) in enumerate(zip(taus, self.quotients, strict=True))]
        cm = CocyclicModule(self.field, self.over, self.quotients, self.cofaces, tau)
        cm.validate()
        return cm

    def induce_map(self, other, ambient_components, check=True):
        """The ChainMap of Hochschild complexes induced by degreewise ambient maps.

        Components above either top degree are dropped; each kept one must
        send relations into relations, exactly.
        """
        from .theorems import ChainMap  # theorems builds on this module

        comps = {}
        for n, amb in ambient_components.items():
            if n <= min(self.top, other.top):
                failure = WellDefinednessFailure(f"comparison map does not descend at degree {n}")
                comps[n] = _induced(amb, self.quotients[n], other.quotients[n], failure)
        return ChainMap(self.complex, other.complex, comps, check=check)

    def validate(self):
        _check_tau_order(self)
        for n in range(1, self.top + 1):
            faces_in = self.cofaces[n - 1]
            for j in range(1, n + 1):
                if self.tau[n].mul(faces_in[j]) != faces_in[j - 1].mul(self.tau[n - 1]):
                    raise IdentityViolation(n, f"tau d_{j} = d_{j-1} tau")
            if self.tau[n].mul(faces_in[0]) != faces_in[n]:
                raise IdentityViolation(n, "tau d_0 = d_n")


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

    def validate(self):
        _check_tau_order(self)
        for n in range(1, self.top + 1):
            faces = self.faces[n]
            lower = self.faces[n - 1] if n >= 1 else None
            for j in range(1, n + 1):
                for i in range(j):
                    if n >= 2:
                        lhs = lower[i].mul(faces[j])
                        rhs = lower[j - 1].mul(faces[i])
                        if lhs != rhs:
                            raise IdentityViolation(n, f"d_{i} d_{j} = d_{j-1} d_{i}")
            for i in range(1, n + 1):
                if faces[i].mul(self.tau[n]) != self.tau[n - 1].mul(faces[i - 1]):
                    raise IdentityViolation(n, f"d_{i} tau = tau d_{i-1}")
            if faces[0].mul(self.tau[n]) != faces[n]:
                raise IdentityViolation(n, "d_0 tau = d_n")


def assemble(side, main, X, maxdeg, descended=None):
    """Build the validated (co)cyclic module of a triple.

    Coalgebra side: coinvariants of X (x) C^{(x) n+1} with the twisted
    cofaces and the cyclic rotation through the coefficient coaction.
    ``descended``, the :func:`induced_complex` of CH(C; X) built through at
    least ``maxdeg``, supplies the induced cofaces instead of a fresh build;
    only the cyclic operator is then induced.
    Algebra side: the subspace of A^{(x) n+1} (x) X on which the total
    coaction is trivial, with multiplication faces and the rotation twisted
    through the coaction. Every (co)cyclic identity is verified on the
    constructed spaces; assembly fails on any violation.
    """
    if not X.stable:
        raise NotStable("coefficient is not stable")
    if side == "coalgebra":
        return _assemble_coalgebra(main, X, maxdeg, descended)
    if side == "algebra":
        return _assemble_algebra(main, X, maxdeg)
    raise ShapeMismatch(f"unknown side {side!r}")


def _assemble_coalgebra(C, X, maxdeg, descended=None):
    c = C.dim
    if descended is None:
        descended = induced_complex(twisted_ch(C, regular_bicomodule(C), X, maxdeg), X,
                                    check_flags=False)
    elif descended.top < maxdeg or descended.quotients[0].ambient_dim != X.dim * c:
        raise ShapeMismatch(f"descended complex is not CH(C; X) through degree {maxdeg}")
    taus = (_coalgebra_rotation(C, X, _pow(c, n)) for n in range(maxdeg + 1))  # one at a time
    return descended.truncate(maxdeg).with_tau(taus)


def _coalgebra_rotation(C, X, cn):
    """The cyclic operator x (x) c0 (x) t -> x_(0) (x) t (x) x_(-1)(c0).

    ``t`` is the C^n tail of dimension ``cn``, an identity slot.
    """
    dims = {"x": X.dim, "x0": X.dim, "c0": C.dim, "t": cn, "h": C.over.dim, "c": C.dim}
    return wire(C.over.field, dims, "x c0 t -> x0 t c",
                (X.coaction, "x -> h x0"), (C.action, "h c0 -> c"))


def _algebra_rotation(A, X, an):
    """The cyclic operator r (x) a (x) x -> a_(0) (x) r (x) a_(1) x.

    ``r`` is the A^n head of dimension ``an``, an identity slot.
    """
    dims = {"r": an, "a": A.dim, "a0": A.dim, "x": X.dim, "y": X.dim, "h": A.over.dim}
    return wire(A.over.field, dims, "r a x -> a0 r y",
                (A.coaction, "a -> a0 h"), (X.action, "h x -> y"))


def _assemble_algebra(A, X, maxdeg):
    B = A.over
    f = B.field
    a = A.dim
    x = X.dim
    rho = right_coaction_of_modcomod(X)
    inclusions = []
    for n in range(maxdeg + 1):
        # the coaction on A (x) (A^n (x) X) wires one A slot to that of degree n - 1
        rho = diagonal_right_coaction(B, [(a, A.coaction), (rho.cols, rho)])
        _, ker = rank_kernel(rho.sub(slotted(f, rho.cols, B.unit, 1)))
        inclusions.append(ker)

    def onto(Mamb, n_src, n_dst):
        small = restrict(inclusions[n_dst], Mamb.mul(inclusions[n_src]))
        if small is None:
            raise IdentityViolation(n_src, "operator preserves the cotensor subspace")
        return small

    taus_amb = [_algebra_rotation(A, X, _pow(a, n)) for n in range(maxdeg + 1)]
    faces_small = [[]]  # degree 0 has no faces
    for n in range(1, maxdeg + 1):
        faces = [slotted(f, _pow(a, j), A.base.mult, _pow(a, n - 1 - j) * x) for j in range(n)]
        faces.append(faces[0].mul(taus_amb[n]))
        faces_small.append([onto(d, n, n - 1) for d in faces])
    taus_small = [onto(taus_amb[n], n, n) for n in range(maxdeg + 1)]
    cm = CyclicModule(f, B, [K.cols for K in inclusions], faces_small, taus_small, inclusions)
    cm.validate()
    return cm


# ---------------------------------------------------------------------------
# Homology engines
# ---------------------------------------------------------------------------


def _face_maps(cm):
    """Degree -> its (co)faces, for every degree a (co)face leaves."""
    if cm.orientation > 0:
        return {n: cm.cofaces[n] for n in range(cm.top)}
    return {n: cm.faces[n] for n in range(1, cm.top + 1)}


def _hochschild_complex(cm, drop_last=False):
    diffs = {n: _alternating(cm.field, faces[:len(faces) - drop_last])
             for n, faces in _face_maps(cm).items()}
    return GradedComplex(cm.field, cm.orientation, cm.dims, diffs)


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
    cyclic modules. Total degree runs through ``maxtot``.
    """
    f = cm.field
    if maxtot > cm.top:
        raise DegreeOutOfRange(
            f"total degree {maxtot} needs internal degree {maxtot}, built through {cm.top}")
    o = cm.orientation
    b_full = {n: _alternating(f, faces) for n, faces in _face_maps(cm).items()}
    b_prime = {n: _alternating(f, faces[:-1]) for n, faces in _face_maps(cm).items()}
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


def homology(obj, theory, maxdeg):
    """Dimensions per degree of the chosen theory of a (co)cyclic module."""
    if theory not in ("hochschild", "cyclic", "bar"):
        raise ShapeMismatch(f"unknown theory {theory!r}")
    if maxdeg + 1 > obj.top:
        raise DegreeOutOfRange(f"{theory} degree {maxdeg} needs internal degree "
                               f"{maxdeg + 1}, built through {obj.top}")
    if theory == "cyclic":
        cx = cyclic_total_complex(obj, maxdeg + 1)
    else:
        cx = _hochschild_complex(obj, drop_last=theory == "bar")
    return [cx.homology(n) for n in range(maxdeg + 1)]


# ---------------------------------------------------------------------------
# Relative bar complex
# ---------------------------------------------------------------------------


def relative_bar(ses, maxdeg):
    """The two-sided complex K (x) C^{(x) n} (x) C/K with its B-action.

    Needs subcoalgebra mode so K carries its own comultiplication. Returns
    (GradedComplex, actions) where actions[n] lists the diagonal L_b per
    basis element; [L_b, d] = 0 is verified for the algebra generators of
    B, which suffices because K, C and C/K are audited modules (see
    :func:`induced_complex`).
    """
    if ses.mode != "subcoalgebra":
        raise NotSubcoalgebra("relative bar complex needs a subcoalgebra")
    C = ses.C
    B = C.over
    f = B.field
    c = C.dim
    Kmc = ses.k_module_coalgebra()
    k = Kmc.dim
    Q = ses.quotient
    q = Q.dim
    K_incl = ses.K
    proj = ses.projection
    sec = ses.space.section
    rho_q = slotted(f, c, proj, 1).mul(C.base.comult).mul(sec)  # C/K -> C (x) C/K
    delta_k_into_c = slotted(f, k, K_incl, 1).mul(Kmc.base.comult)  # K -> K (x) C
    dims = [k * _pow(c, n) * q for n in range(maxdeg + 2)]
    diffs = {}
    for n in range(maxdeg + 1):
        faces = [slotted(f, 1, delta_k_into_c, _pow(c, n) * q)]
        for j in range(1, n + 1):
            faces.append(slotted(f, k * _pow(c, j - 1), C.base.comult, _pow(c, n - j) * q))
        faces.append(slotted(f, k * _pow(c, n), rho_q, 1))
        diffs[n] = _alternating(f, faces)
    cx = GradedComplex(f, +1, dims, diffs)
    actions = [diagonal_action(B, [(k, Kmc.action)] + [(c, C.action)] * n + [(q, Q.action)])
               for n in range(maxdeg + 2)]
    for n in range(maxdeg + 1):
        for g in B.algebra_generators:
            if actions[n + 1][g].mul(diffs[n]) != diffs[n].mul(actions[n][g]):
                raise ShapeMismatch(f"relative bar differential is not B-linear at degree {n}")
    return cx, actions
