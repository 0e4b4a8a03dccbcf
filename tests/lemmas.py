"""Lemmas of the paper that the acceptance criteria check, and instance builders.

No CLI verb reaches anything here, so it lives with the tests rather than in
``src/``: the derived cotensor product and the comparison onto the cotensor
model (Doi), the shear and trivialization isomorphisms, and the acyclic
two-sided relative bar complex (criteria 6-8), with the diagonal action on
a product of modules that they read; and builders of standard instances
(builtin Hopf algebras by name, the inverse antipode, the counit action,
direct sums of comodule algebras). Each is checked where it is built, as it
was in the package.
"""

import functools

from hopfcyclic.complexes import (
    _alternating,
    _diagonal_action,
    _pow,
    bar_complex,
    coinvariant_space_from_matrices,
)
from hopfcyclic.equivariant import (
    ComoduleAlgebra,
    ModuleCoalgebra,
    _componentwise,
    _summand_inclusions,
    action_of_vector,
    counit_action,
    module_audit,
)
from hopfcyclic.errors import (
    AuditFailed,
    HopfCyclicError,
    IdentityViolation,
    NotSubcoalgebra,
    ParseError,
    ShapeMismatch,
    WellDefinednessFailure,
)
from hopfcyclic.hopf import BialgebraDesc, group_algebra, sweedler_h4
from hopfcyclic.linalg import (
    GradedComplex,
    Matrix,
    block_matrix,
    QuotientSpace,
    map_well_defined,
    rank_kernel,
    restrict,
    slotted,
    wire,
)


class NotCounital(HopfCyclicError):
    """A coalgebra whose counit law fails where a lemma needs it."""


# ---------------------------------------------------------------------------
# Diagonal actions, cotensor products and the Doi comparison
# ---------------------------------------------------------------------------


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
        _, ker = rank_kernel(block_matrix(f, [[left_eq], [right_eq]],
                                          [left_eq.rows, right_eq.rows], [left_eq.cols]))
        inclusions.append(ker)
        dims.append(ker.cols)
    diffs = {}
    res = bar_complex(C_desc, top + 1)
    for n in range(top):
        d_amb = slotted(f, xd, res.diffs[n + 1], yd)
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
    res = bar_complex(C_desc, maxdeg + 1)

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
        d_bar = slotted(f, md, res.diffs[n + 1], 1)
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
# Relative bar complex
# ---------------------------------------------------------------------------


def relative_bar(ses, maxdeg):
    """The two-sided complex K (x) C^{(x) n} (x) C/K with its B-action.

    Needs subcoalgebra mode so K carries its own comultiplication. Returns
    (GradedComplex, actions) where actions[n] lists the diagonal L_b per
    basis element; [L_b, d] = 0 is verified for the algebra generators of
    B, which suffices because K, C and C/K are audited modules (see
    ``complexes.descended_ch``).
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


# ---------------------------------------------------------------------------
# Builders of instances
# ---------------------------------------------------------------------------


def dual_desc(desc):
    """Linear dual: multiplication and comultiplication tensors transpose."""
    return BialgebraDesc(
        desc.field,
        [f"{b}^" for b in desc.basis],
        desc.level,
        mult=desc.comult.transpose() if desc.comult is not None else None,
        comult=desc.mult.transpose() if desc.mult is not None else None,
        unit=desc.counit.transpose() if desc.counit is not None else None,
        counit=desc.unit.transpose() if desc.unit is not None else None,
        antipode=desc.antipode.transpose() if desc.antipode is not None else None,
        antipode_inv=desc.antipode_inv.transpose() if desc.antipode_inv is not None else None,
    )


def dual_group_algebra(table, field, names=None):
    """Functions on a finite group with pointwise product."""
    base = group_algebra(table, field, names)
    return dual_desc(base)


def trivial_hopf(field):
    """The ground field as a one-dimensional Hopf algebra."""
    one = Matrix.identity(field, 1)
    return BialgebraDesc(field, ["1"], "hopf", mult=one, comult=one, unit=one,
                         counit=one, antipode=one, antipode_inv=one)


def make_builtin(kind, params, field):
    if kind == "group_algebra":
        return group_algebra(params["table"], field, params.get("names"))
    if kind == "dual_group_algebra":
        return dual_group_algebra(params["table"], field, params.get("names"))
    if kind == "sweedler_h4":
        return sweedler_h4(field)
    if kind == "trivial":
        return trivial_hopf(field)
    raise ParseError(f"unknown builtin kind {kind!r}")


def antipode_inverse(desc):
    """Desc copy carrying :attr:`BialgebraDesc.inverse_antipode` as ``antipode_inv``."""
    return BialgebraDesc(desc.field, desc.basis, desc.level, mult=desc.mult,
                         comult=desc.comult, unit=desc.unit, counit=desc.counit,
                         antipode=desc.antipode, antipode_inv=desc.inverse_antipode,
                         check=False)


def eps_module_coalgebra(C_desc, B):
    """Any coalgebra as a B-module coalgebra through the counit action."""
    return ModuleCoalgebra(C_desc, B, counit_action(B, C_desc.dim))


def direct_sum_comodule_algebras(a, b):
    """Product algebra A_1 x A_2 with the componentwise coaction."""
    B = a.over
    f = B.field
    incl = _summand_inclusions(f, a.dim, b.dim)
    mult = _componentwise((a.base.mult, b.base.mult), incl, [i.kron(i) for i in incl])
    unit = None
    if a.base.unit is not None and b.base.unit is not None:
        unit = _componentwise((a.base.unit, b.base.unit), incl, [Matrix.identity(f, 1)] * 2)
    names = [f"l.{x}" for x in a.base.basis] + [f"r.{x}" for x in b.base.basis]
    desc = BialgebraDesc(f, names, "algebra", mult=mult, unit=unit)
    coaction = _componentwise((a.coaction, b.coaction),
                              [slotted(f, 1, i, B.dim) for i in incl], incl)
    return ComoduleAlgebra(desc, B, coaction)


def hypothesis(report, name):
    """The hypothesis of a ``TheoremReport`` named ``name``."""
    return next(h for h in report.hypotheses if h.name == name)
