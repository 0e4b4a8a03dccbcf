"""Equivariant structures over a fixed bialgebra B.

Module coalgebras (B acts, comultiplication is B-linear), comodule algebras
(B coacts, multiplication is colinear), coefficient module/comodules with
computed stability and anti-Yetter-Drinfeld flags, short exact sequences of
coalgebras with induced quotient structure, H-counitality probes, and the
projectivity test, the last two decided by proof where a checked counit or
a normalized co-integral of a Hopf B allows it. All conditions are verified
entry-exactly; nothing is asserted on trust.
"""

import functools

from .errors import (
    AuditFailed,
    MissingAntipodeInverse,
    NotBStable,
    NotCoideal,
    NotSubcoalgebra,
    ParseError,
    ShapeMismatch,
)
from .hopf import AxiomReport, BialgebraDesc, _compare, matrix_from_json, parse_index
from .linalg import (
    Matrix,
    QuotientSpace,
    block_matrix,
    column_basis,
    slotted,
    solve_columns,
    wire,
)


def action_of_vector(B, action, dim, vec):
    """x -> v . x on a B-module, for a vector ``vec`` = {basis index: coeff} of B."""
    dims = {"b": B.dim, "x": dim, "y": dim}
    return wire(B.field, dims, "x -> y",
                (Matrix.column(B.field, vec, B.dim), "-> b"), (action, "b x -> y"))


class ModuleCoalgebra:
    """A coalgebra C with a compatible left B-action.

    ``action`` is the tensor B (x) C -> C as a dim_C x (dim_B * dim_C)
    matrix. Construction audits associativity, unitality and the
    comultiplication compatibility (b(c))_(1) (x) (b(c))_(2)
    = b_(1)(c_(1)) (x) b_(2)(c_(2)), plus the counit law when counits exist.
    """

    def __init__(self, base, over, action, check=True):
        if base.comult is None:
            raise ShapeMismatch("base of a module coalgebra needs a comultiplication")
        self.base = base
        self.over = over
        self.action = action
        if action.rows != base.dim or action.cols != over.dim * base.dim:
            raise ShapeMismatch("action tensor has wrong shape")
        if check:
            report = _audit_module_coalgebra(self)
            if not report.ok:
                raise AuditFailed(report)

    @property
    def dim(self):
        return self.base.dim

    @functools.cached_property
    def action_matrices(self):
        """L_b on C for every basis element b of B."""
        return self.action.column_blocks(self.over.dim)

    def __repr__(self):
        return f"ModuleCoalgebra(dim={self.dim} over dim={self.over.dim})"


class ComoduleAlgebra:
    """An algebra A with a compatible right B-coaction A -> A (x) B."""

    def __init__(self, base, over, coaction, check=True):
        if base.mult is None:
            raise ShapeMismatch("base of a comodule algebra needs a multiplication")
        self.base = base
        self.over = over
        self.coaction = coaction
        if coaction.rows != base.dim * over.dim or coaction.cols != base.dim:
            raise ShapeMismatch("coaction tensor has wrong shape")
        if check:
            report = _audit_comodule_algebra(self)
            if not report.ok:
                raise AuditFailed(report)

    @property
    def dim(self):
        return self.base.dim

    def __repr__(self):
        return f"ComoduleAlgebra(dim={self.dim} over dim={self.over.dim})"


class EquivariantBicomodule:
    """A C-bicomodule with a B-action making both coactions equivariant.

    ``left_coaction``: M -> C (x) M, ``right_coaction``: M -> M (x) C,
    ``action``: B (x) M -> M, with C a module coalgebra over the same B.
    """

    def __init__(self, coalgebra, dim, action, left_coaction, right_coaction, check=True):
        self.coalgebra = coalgebra
        self.dim = dim
        self.action = action
        self.left_coaction = left_coaction
        self.right_coaction = right_coaction
        c, b = coalgebra.dim, coalgebra.over.dim
        if action.rows != dim or action.cols != b * dim:
            raise ShapeMismatch("bicomodule action tensor has wrong shape")
        if left_coaction.rows != c * dim or left_coaction.cols != dim:
            raise ShapeMismatch("left coaction has wrong shape")
        if right_coaction.rows != dim * c or right_coaction.cols != dim:
            raise ShapeMismatch("right coaction has wrong shape")
        if check:
            report = _audit_equivariant_bicomodule(self)
            if not report.ok:
                raise AuditFailed(report)


def regular_bicomodule(mc):
    """C over itself: both coactions are the comultiplication."""
    return EquivariantBicomodule(
        mc, mc.dim, mc.action, mc.base.comult, mc.base.comult, check=True
    )


class ModComod:
    """A space with a B-action and a left B-coaction, no compatibility assumed.

    ``stable`` and ``ayd`` are computed at construction, never asserted:
    stable means action following coaction is the identity, ayd means the
    coaction of an acted element twists by conjugation through the inverse
    antipode. Without an invertible antipode the ayd flag is recorded False.
    ``module_report`` audits that the action is associative and unital; the
    twisted complex, the model and the algebra-side cyclic module refuse a
    coefficient that fails it.
    """

    def __init__(self, over, dim, action, coaction):
        self.over = over
        self.dim = dim
        self.action = action
        self.coaction = coaction
        b = over.dim
        if action.rows != dim or action.cols != b * dim:
            raise ShapeMismatch("coefficient action tensor has wrong shape")
        if coaction.rows != b * dim or coaction.cols != dim:
            raise ShapeMismatch("coefficient coaction tensor has wrong shape")
        self.stable = action.mul(coaction) == Matrix.identity(over.field, dim)
        self.ayd = self._compute_ayd()
        self.module_report = module_audit(over, dim, action)

    def _compute_ayd(self):
        B = self.over
        if B.antipode is None:
            return False
        try:
            sinv = B.inverse_antipode
        except MissingAntipodeInverse:
            return False
        lhs = self.coaction.mul(self.action)
        # b (x) x -> b_(1) x_(-1) S^{-1}(b_(3)) (x) b_(2) x_(0)
        dims = dict.fromkeys(["b", "b12", "b1", "b2", "b3", "h", "s", "p", "q"], B.dim)
        dims.update(x=self.dim, x0=self.dim, y=self.dim)
        rhs = wire(B.field, dims, "b x -> q y",
                   (B.comult, "b -> b12 b3"), (B.comult, "b12 -> b1 b2"),
                   (self.coaction, "x -> h x0"), (sinv, "b3 -> s"),
                   (B.mult, "b1 h -> p"), (B.mult, "p s -> q"), (self.action, "b2 x0 -> y"))
        return lhs == rhs

    def __repr__(self):
        return f"ModComod(dim={self.dim}, stable={self.stable}, ayd={self.ayd})"


# ---------------------------------------------------------------------------
# Structure audits: each returns an AxiomReport whose failures carry a witness
# basis tuple of the acting/coacting element followed by the module element
# ---------------------------------------------------------------------------


def _names(B, other_names):
    return [f"{b}|{c}" for b in B.basis for c in other_names]


def _action_checks(B, action, names):
    """Associativity and unitality of an action B (x) V -> V; ``names`` name V's basis."""
    I_V = Matrix.identity(B.field, len(names))
    assoc_l = action.mul(B.identity_matrix().kron(action))
    assoc_r = action.mul(B.mult.kron(I_V))
    return [_compare("action associativity", assoc_l, assoc_r, _names(B, _names(B, names)), 1),
            _compare("action unitality", action.mul(B.unit.kron(I_V)), I_V, names, 1)]


def module_audit(B, dim, action):
    """AxiomReport saying whether ``action`` makes a ``dim``-space a B-module."""
    return AxiomReport(_action_checks(B, action, [str(i) for i in range(dim)]))


def _audit_module_coalgebra(mc):
    B, C, act = mc.over, mc.base, mc.action
    f = B.field
    names = _names(B, C.basis)
    checks = _action_checks(B, act, C.basis)
    lhs = C.comult.mul(act)
    dims = {"b": B.dim, "b1": B.dim, "b2": B.dim, "c": C.dim, "c1": C.dim, "c2": C.dim,
            "p": C.dim, "q": C.dim}
    rhs = wire(f, dims, "b c -> p q", (B.comult, "b -> b1 b2"), (C.comult, "c -> c1 c2"),
               (act, "b1 c1 -> p"), (act, "b2 c2 -> q"))
    checks.append(_compare("comultiplication compatibility", lhs, rhs, names, 1))
    if C.counit is not None and B.counit is not None:
        checks.append(_compare("counit compatibility", C.counit.mul(act),
                               B.counit.kron(C.counit), names, 1))
    return AxiomReport(checks)


def _audit_comodule_algebra(ca):
    A, B, rho = ca.base, ca.over, ca.coaction
    f = B.field
    I_A, I_B = A.identity_matrix(), B.identity_matrix()
    names = A.basis
    pair_names = [f"{a}|{b}" for a in A.basis for b in A.basis]
    checks = []
    coassoc_l = rho.kron(I_B).mul(rho)
    coassoc_r = I_A.kron(B.comult).mul(rho)
    checks.append(_compare("coaction coassociativity", coassoc_l, coassoc_r, names, 1))
    if B.counit is not None:
        checks.append(_compare("coaction counitality", I_A.kron(B.counit).mul(rho), I_A, names, 1))
    lhs = rho.mul(A.mult)
    dims = {"a": A.dim, "a0": A.dim, "e": A.dim, "e0": A.dim, "p": A.dim,
            "h": B.dim, "k": B.dim, "q": B.dim}
    rhs = wire(f, dims, "a e -> p q", (rho, "a -> a0 h"), (rho, "e -> e0 k"),
               (A.mult, "a0 e0 -> p"), (B.mult, "h k -> q"))
    checks.append(_compare("multiplicativity", lhs, rhs, pair_names, 1))
    if A.unit is not None and B.unit is not None:
        checks.append(_compare("unit colinearity", rho.mul(A.unit), A.unit.kron(B.unit), ["1"], 0))
    return AxiomReport(checks)


def _audit_equivariant_bicomodule(m):
    mc = m.coalgebra
    B, C = mc.over, mc.base
    f = B.field
    I_M = Matrix.identity(f, m.dim)
    mnames = [str(i) for i in range(m.dim)]
    names = _names(B, mnames)
    checks = []
    # left coaction coassociativity and equivariance
    lco = m.left_coaction
    coassoc_l = C.comult.kron(I_M).mul(lco)
    coassoc_r = Matrix.identity(f, C.dim).kron(lco).mul(lco)
    checks.append(_compare("left coaction coassociativity", coassoc_l, coassoc_r, mnames, 1))
    lhs = lco.mul(m.action)
    dims = {"b": B.dim, "b1": B.dim, "b2": B.dim, "c": C.dim, "p": C.dim,
            "m": m.dim, "m0": m.dim, "q": m.dim}
    rhs = wire(f, dims, "b m -> p q", (B.comult, "b -> b1 b2"), (lco, "m -> c m0"),
               (mc.action, "b1 c -> p"), (m.action, "b2 m0 -> q"))
    checks.append(_compare("left coaction equivariance", lhs, rhs, names, 1))
    rco = m.right_coaction
    coassoc_l = rco.kron(Matrix.identity(f, C.dim)).mul(rco)
    coassoc_r = I_M.kron(C.comult).mul(rco)
    checks.append(_compare("right coaction coassociativity", coassoc_l, coassoc_r, mnames, 1))
    lhs = rco.mul(m.action)
    rhs = wire(f, dims, "b m -> q p", (B.comult, "b -> b1 b2"), (rco, "m -> m0 c"),
               (m.action, "b1 m0 -> q"), (mc.action, "b2 c -> p"))
    checks.append(_compare("right coaction equivariance", lhs, rhs, names, 1))
    bicosym_l = lco.kron(Matrix.identity(f, C.dim)).mul(rco)
    bicosym_r = Matrix.identity(f, C.dim).kron(rco).mul(lco)
    checks.append(_compare("bicomodule compatibility", bicosym_l, bicosym_r, mnames, 1))
    return AxiomReport(checks + _action_checks(B, m.action, mnames))


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def counit_action(B, dim):
    """b . x = eps(b) x as a B (x) X -> X tensor."""
    return slotted(B.field, 1, B.counit, dim)


def unit_coaction(B, dim):
    """x -> unit (x) x as an X -> B (x) X tensor."""
    return slotted(B.field, 1, B.unit, dim)


def make_coefficient(kind, B, payload=None):
    """The coefficient module/comodules used throughout.

    eps: coaction from the payload (default: one-dimensional trivial), action
    through the counit. unit: action from the payload, coaction through the
    unit. r_ad: B with the regular action and the co-adjoint coaction
    x_(1) S^{-1}(x_(3)) (x) x_(2). ad_r: B with the adjoint action
    b_(1) x S^{-1}(b_(2)) and the comultiplication coaction.
    """
    f = B.field
    if kind == "eps":
        if payload is None:
            dim, coaction = 1, unit_coaction(B, 1)
        else:
            dim, coaction = payload
        return ModComod(B, dim, counit_action(B, dim), coaction)
    if kind == "unit":
        if payload is None:
            dim, action = 1, counit_action(B, 1)
        else:
            dim, action = payload
        return ModComod(B, dim, action, unit_coaction(B, dim))
    if kind in ("r_ad", "ad_r"):
        sinv = B.inverse_antipode
        d = B.dim
        dims = dict.fromkeys(["x", "x12", "x1", "x2", "x3", "b", "b1", "b2", "s", "p", "q"], d)
        if kind == "r_ad":
            coaction = wire(f, dims, "x -> p x2",  # x_(1) S^{-1}(x_(3)) (x) x_(2)
                            (B.comult, "x -> x12 x3"), (B.comult, "x12 -> x1 x2"),
                            (sinv, "x3 -> s"), (B.mult, "x1 s -> p"))
            return ModComod(B, d, B.mult, coaction)
        act = wire(f, dims, "b x -> q",  # b_(1) x S^{-1}(b_(2))
                   (B.comult, "b -> b1 b2"), (sinv, "b2 -> s"),
                   (B.mult, "b1 x -> p"), (B.mult, "p s -> q"))
        return ModComod(B, d, act, B.comult)
    raise ParseError(f"unknown coefficient kind {kind!r}")


def coefficient_from_json(B, doc):
    if not isinstance(doc, dict):
        raise ParseError(f"a coefficient document must be a JSON object, got {doc!r:.40}")
    if "kind" in doc:
        return make_coefficient(doc["kind"], B)
    try:
        action = matrix_from_json(B.field, doc["action"])
        coaction = matrix_from_json(B.field, doc["coaction"])
        dim = parse_index(doc.get("dim", action.rows))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed coefficient document: {exc}") from exc
    return ModComod(B, dim, action, coaction)


# ---------------------------------------------------------------------------
# Short exact sequences of coalgebras
# ---------------------------------------------------------------------------


class CoalgebraSES:
    """0 -> K -> C -> C/K -> 0 data with the induced quotient structure.

    ``action_k`` is the B-action restricted to K, in the coordinates of the
    basis ``K``; ``comult_k`` is the comultiplication restricted to K in
    subcoalgebra mode and None in coideal mode.
    """

    def __init__(self, C, K_basis, quotient_mc, mode, quot_space, b_splitting,
                 action_k, comult_k):
        self.C = C
        self.K = K_basis  # Matrix: columns a basis of the subspace
        self.quotient = quotient_mc
        self.mode = mode
        self.space = quot_space  # QuotientSpace with projection/section
        self.b_splitting = b_splitting  # Matrix or None
        self.action_k = action_k
        self.comult_k = comult_k
        self._k_mc = None

    @property
    def projection(self):
        return self.space.projection

    def k_module_coalgebra(self):
        """K as a module coalgebra in its own right (subcoalgebra mode), built once."""
        if self.mode != "subcoalgebra":
            raise NotSubcoalgebra("K carries a coalgebra structure only in subcoalgebra mode")
        if self._k_mc is None:
            base = self.C.base
            counit_k = base.counit.mul(self.K) if base.counit is not None else None
            names = [f"k{i}" for i in range(self.K.cols)]
            desc = BialgebraDesc(base.field, names, "coalgebra", comult=self.comult_k,
                                 counit=counit_k)
            self._k_mc = ModuleCoalgebra(desc, self.C.over, self.action_k)
        return self._k_mc


def quotient_ses(C, K_gens, mode):
    """Validate a B-stable subcoalgebra/coideal and build the quotient.

    The B-stability check is the solve that restricts the action to K, and
    in subcoalgebra mode the subcoalgebra check is the solve that restricts
    the comultiplication; the sequence keeps both. Searches for a B-linear
    splitting of C ->> C/K and records None when the intertwiner system is
    inconsistent.
    """
    if mode not in ("subcoalgebra", "coideal"):
        raise ParseError(f"unknown SES mode {mode!r}")
    B, Cdesc = C.over, C.base
    f = Cdesc.field
    n = Cdesc.dim
    if K_gens.rows != n:
        raise ShapeMismatch("K generators do not live in C")
    K_basis = column_basis(K_gens)

    # B-stability
    blocks = []
    for b, act_b in enumerate(C.action_matrices):
        block = solve_columns(K_basis, act_b.mul(K_basis))
        if block is None:
            raise NotBStable(f"action of basis element {B.basis[b]} leaves the subspace")
        blocks.append(block)
    action_k = functools.reduce(Matrix.hstack, blocks)

    # mode condition
    delta_K = Cdesc.comult.mul(K_basis)
    comult_k = None
    if mode == "subcoalgebra":
        comult_k = solve_columns(K_basis.kron(K_basis), delta_K)
        if comult_k is None:
            raise NotSubcoalgebra("comultiplication does not map K into K (x) K")
    else:
        mixed = K_basis.kron(Matrix.identity(f, n)).hstack(Matrix.identity(f, n).kron(K_basis))
        if solve_columns(mixed, delta_K) is None:
            raise NotCoideal("comultiplication does not map K into K (x) C + C (x) K")
        if Cdesc.counit is not None and not Cdesc.counit.mul(K_basis).is_zero():
            raise NotCoideal("counit does not vanish on K")

    # quotient structure on a complement basis
    qspace = QuotientSpace(f, n, K_basis.columns())
    proj, sec = qspace.projection, qspace.section
    qdim = qspace.dim
    comult_q = proj.kron(proj).mul(Cdesc.comult).mul(sec)
    # representative independence: K must die under (proj (x) proj) . comult
    if not proj.kron(proj).mul(delta_K).is_zero():
        raise NotCoideal("quotient comultiplication is not well-defined")
    counit_q = None
    if Cdesc.counit is not None:
        cand = Cdesc.counit.mul(sec)
        iq = Matrix.identity(f, qdim)
        if (cand.kron(iq).mul(comult_q) == iq and iq.kron(cand).mul(comult_q) == iq):
            counit_q = cand
    names = [f"q{i}" for i in range(qdim)]
    qdesc = BialgebraDesc(f, names, "coalgebra", comult=comult_q, counit=counit_q)
    action_q = proj.mul(C.action).mul(Matrix.identity(f, B.dim).kron(sec))
    quotient_mc = ModuleCoalgebra(qdesc, B, action_q)

    b_splitting = _find_b_linear_section(C, quotient_mc, proj)
    return CoalgebraSES(C, K_basis, quotient_mc, mode, qspace, b_splitting, action_k,
                        comult_k)


def _find_b_linear_section(C, quotient_mc, proj):
    """Solve proj . s = id with s . L_b = L_b . s for all basis b, or None."""
    B = C.over
    f = B.field
    n, q = C.dim, quotient_mc.dim
    constraints = [([(proj, Matrix.identity(f, q))], Matrix.identity(f, q))]
    for act_b, act_qb in zip(C.action_matrices, quotient_mc.action_matrices):
        constraints.append(
            ([(Matrix.identity(f, n), act_qb), (act_b.neg(), Matrix.identity(f, q))],
             Matrix.zero(f, n, q)))
    return solve_matrix_system(f, n, q, constraints)


def solve_matrix_system(field, m, n, constraints):
    """Solve sum_k A_k U B_k = R (several constraints) for an m x n unknown U.

    Each constraint is ``(terms, R)`` with ``terms`` a list of (A, B) pairs.
    Returns U as a Matrix, or None when inconsistent. Unknowns are vectorized
    row-major, U[i, j] -> i * n + j, so A U B = (A (x) B^T) vec U with R
    vectorized row-major too; every constraint's operator is stacked into
    one solve.
    """
    f = field
    ops, rhs = [], []
    for terms, R in constraints:
        for A, Bm in terms:
            if A.rows != R.rows or A.cols != m or Bm.rows != n or Bm.cols != R.cols:
                raise ShapeMismatch("constraint term shapes do not match")
        ops.append([functools.reduce(Matrix.add, [A.kron(Bm.transpose()) for A, Bm in terms])])
        rhs.append([Matrix(f, R.rows * R.cols, 1, {r * R.cols + c: {0: v}
                                                   for r, row in R.rowdict.items()
                                                   for c, v in row.items()})])
    heights = [op.rows for op, in ops]
    x = solve_columns(block_matrix(f, ops, heights, [m * n]), block_matrix(f, rhs, heights, [1]))
    if x is None:
        return None
    return Matrix.from_entries(f, m, n, [(k // n, k % n, v) for k, v in x.col(0).items()])


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def h_counitality_probe(C_desc, maxdeg):
    """Homology dims of the bar complex of C through degree maxdeg.

    All zeros means "H-counital up to maxdeg"; acyclicity beyond the
    truncation is never claimed. Where C has a counit eps that passes both
    counit laws, checked here, the dims are zeros by proof and no complex is
    built: s = id^{(x) n} (x) eps, C^{(x) n+1} -> C^{(x) n}, has
    s d_j = d_j s for j < n and s d_n = id by the right counit law, so
    s d - d s = (-1)^n id in degree n (s d = id in degree 0) and every
    cocycle x is d((-1)^{n+1} s x).
    """
    e, cm, I = C_desc.counit, C_desc.comult, C_desc.identity_matrix()
    if e is not None and e.kron(I).mul(cm) == I and I.kron(e).mul(cm) == I:
        return [0] * (maxdeg + 1)
    from .complexes import bar_complex  # local import: complexes builds on this module

    cx = bar_complex(C_desc, maxdeg + 1)
    return [cx.homology(n) for n in range(maxdeg + 1)]


def is_projective(B, action, dim):
    """True iff the action epimorphism B (x) P -> P of a B-module P splits B-linearly.

    A Hopf algebra B with a normalized co-integral is semisimple (Maschke's
    theorem of Larson and Sweedler; Montgomery, *Hopf Algebras and Their
    Actions on Rings*, Thm 2.2.1), so every B-module is projective and the
    answer is True with no system built. Elsewhere the intertwiner system is
    solved: without a co-integral (F_2[Z/2], Sweedler's H4), and over a
    bialgebra with no antipode, where a co-integral s b = eps(b) s does not
    make every module projective.
    """
    if B.level == "hopf" and B.cointegral is not None:
        return True
    f = B.field
    I_P = Matrix.identity(f, dim)
    constraints = [([(action, I_P)], I_P)]
    big = B.dim * dim
    for act_b, L_b in zip(action.column_blocks(B.dim), B.mult.column_blocks(B.dim)):
        lb_free = slotted(f, 1, L_b, dim)
        constraints.append(
            ([(Matrix.identity(f, big), act_b), (lb_free.neg(), I_P)], Matrix.zero(f, big, dim)))
    return solve_matrix_system(f, big, dim, constraints) is not None


# ---------------------------------------------------------------------------
# Direct sums (fixture machinery)
# ---------------------------------------------------------------------------


def _summand_inclusions(field, na, nb):
    """The inclusions of k^na and k^nb as the first and second summand of k^(na+nb)."""
    one = field.one
    return (Matrix(field, na + nb, na, {i: {i: one} for i in range(na)}),
            Matrix(field, na + nb, nb, {na + i: {i: one} for i in range(nb)}))


def _componentwise(maps, outs, ins):
    """sum over the summands s of outs[s] . maps[s] . ins[s]^T."""
    return functools.reduce(Matrix.add, [o.mul(M).mul(i.transpose())
                                         for M, o, i in zip(maps, outs, ins)])


def direct_sum_coalgebras(a, b):
    """Componentwise direct sum of two coalgebra descriptions."""
    f = a.field
    if f != b.field:
        raise ShapeMismatch("direct sum needs a common field")
    incl = _summand_inclusions(f, a.dim, b.dim)
    comult = _componentwise((a.comult, b.comult), [i.kron(i) for i in incl], incl)
    counit = None
    if a.counit is not None and b.counit is not None:
        counit = _componentwise((a.counit, b.counit), [Matrix.identity(f, 1)] * 2, incl)
    names = [f"l.{x}" for x in a.basis] + [f"r.{x}" for x in b.basis]
    return BialgebraDesc(f, names, "coalgebra", comult=comult, counit=counit)


def direct_sum_module_coalgebras(a, b):
    """Direct sum of module coalgebras over the same B, componentwise action."""
    if a.over is not b.over and a.over.mult != b.over.mult:
        raise ShapeMismatch("direct sum needs a common acting bialgebra")
    B = a.over
    f = B.field
    base = direct_sum_coalgebras(a.base, b.base)
    incl = _summand_inclusions(f, a.dim, b.dim)
    action = _componentwise((a.action, b.action), incl,
                            [slotted(f, B.dim, i, 1) for i in incl])
    return ModuleCoalgebra(base, B, action)


def regular_comodule_algebra(B):
    """B over itself with the comultiplication as the right coaction."""
    return ComoduleAlgebra(B, B, B.comult)


def regular_module_coalgebra(B):
    """B over itself by left multiplication."""
    return ModuleCoalgebra(B, B, B.mult)
