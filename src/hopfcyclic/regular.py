"""The cocyclic module of a regular module coalgebra, built on X (x) B^{(x) n}.

For B acting on itself the diagonal action on X (x) B^{(x) n+1} is free,
and its coinvariants are X (x) B^{(x) n} (Connes-Moscovici, Comm. Math.
Phys. 198, 1998; Hajac-Khalkhali-Rangipour-Sommerhaeuser, C. R. Acad. Sci.
Paris 338, 2004). This module writes the cofaces and the cyclic operator
of that model from B's structure maps and X's action and coaction, with no
ambient complex and no quotient, and checks on it every cocyclic identity
that the audits do not imply.
``complexes.assemble_for_homology`` takes it where only the module is read.
"""

import functools

from .complexes import CocyclicModule, _check_coface_identities, _diagonal_action, _pow
from .errors import AuditFailed, ShapeMismatch
from .linalg import Matrix, rank, slotted, wire


def regular_grouplike(C):
    """A basis index c0 of C with Delta(c0) = c0 (x) c0 and b -> b c0 bijective, or None.

    Such a c0 makes phi(b) = b c0 an isomorphism B -> C of module
    coalgebras, from the module-coalgebra axioms that the construction of C
    audits. phi is B-linear, phi(a b) = (a b) c0 = a (b c0), by the audited
    associativity, and phi(1) = c0 by unitality. It preserves the
    comultiplication: by the audited compatibility and Delta(c0) =
    c0 (x) c0, Delta(b c0) = b_(1) c0 (x) b_(2) c0 = (phi (x) phi) Delta(b).
    It is bijective by the rank test. (Where C has a counit, eps_C phi is a
    counit of B, so it is eps_B.) So phi carries B acting on itself to C,
    and with it the regular bicomodule and everything the twisted complex
    CH(C; X) and its coinvariants read of C, its comultiplication and its
    action: CH(C; X) is CH(B; X) relabelled, cofaces, tau and L_b alike.
    """
    f = C.base.field
    n = C.dim
    if n != C.over.dim:
        return None
    columns = C.base.comult.coldict()
    for c0 in range(n):
        if columns.get(c0) == {c0 * n + c0: f.one}:
            e0 = Matrix.column(f, {c0: f.one}, n)
            if rank(C.action.mul(Matrix.identity(f, n).kron(e0))) == n:  # b -> b c0
                return c0
    return None


def regular_cocyclic_module(C, X, maxdeg):
    """The cocyclic module of (C, B, X) for C regular, built on X (x) B^{(x) n}.

    C must have a c0 of :func:`regular_grouplike`, so it is B acting on
    itself up to relabelling, and only B's structure is read. b acts on
    x (x) a_0 (x) ... (x) a_n as b_(n+2) x (x) b_(1) a_0 (x) ... (x)
    b_(n+1) a_n (``complexes._diagonal_action``).
    Phi(x (x) a) = [x (x) 1 (x) a] is an isomorphism onto the coinvariants
    with inverse Psi[x (x) a_0 (x) a] = S(a_0) (a (x) x), S(a_0) acting
    diagonally with x last. Psi is well defined: on b v it gives
    S(a_0) S(b_(1)) b_(2) (a (x) x) = eps(b) Psi(v), as Delta is an algebra
    map, S is antimultiplicative and X is an audited module. Psi Phi = id
    as S(1) = 1. And v = a_0(1) w(a_0(2)), the diagonal action on
    w(c) = 1 (x) S(c) (a (x) x), by a_(1) S(a_(2)) = eps(a); on the
    coinvariants a_0(1) acts by eps(a_0(1)), so [v] = [w(a_0)] = Phi Psi [v].

    The cofaces and tau here are those of ``complexes.twisted_ch`` and
    ``complexes._coalgebra_rotation``, moved across: Psi d Phi. With
    a_0 = 1 only tau needs Psi:
      d_0:      x (x) a -> x (x) 1 (x) a;
      d_j:      Delta on a_j, for 1 <= j <= n;
      d_{n+1}:  x (x) a -> x_(0) (x) a (x) x_(-1);
      tau:      x (x) a_1 (x) ... (x) a_n -> s_(n+1) x_(0) (x) s_(1) a_2 (x) ...
                (x) s_(n-1) a_n (x) s_(n) x_(-1), with s = S(a_1); in degree 0,
                x -> S(x_(-1)) x_(0).
    They descend only for an anti-Yetter-Drinfeld X, which this builder
    does not test (``complexes.assemble_for_homology`` does). No ambient is
    built, so the cocyclic identities are checked here, and the coface
    identities that can fail (``complexes._check_coface_identities``).
    """
    if regular_grouplike(C) is None:
        raise ShapeMismatch("module coalgebra has no grouplike c0 with b -> b c0 bijective")
    if not X.module_report.ok:
        raise AuditFailed(X.module_report)
    B = C.over
    cofaces = [_regular_cofaces(B, X, n) for n in range(maxdeg)]
    tau = [_regular_rotation(B, X, n) for n in range(maxdeg + 1)]
    cm = CocyclicModule(B.field, B, [X.dim * _pow(B.dim, n) for n in range(maxdeg + 1)],
                        cofaces, tau)
    cm.validate()
    _check_coface_identities(cm)
    return cm


def _regular_cofaces(B, X, n):
    """The n+2 cofaces of :func:`regular_cocyclic_module` out of X (x) B^{(x) n}."""
    f = B.field
    d = B.dim
    x = X.dim
    t = _pow(d, n)
    return ([wire(f, {"x": x, "u": d, "t": t}, "x t -> x u t", (B.unit, "-> u"))]
            + [slotted(f, x * _pow(d, j - 1), B.comult, _pow(d, n - j))
               for j in range(1, n + 1)]
            + [wire(f, {"x": x, "x0": x, "h": d, "t": t}, "x t -> x0 t h",
                    (X.coaction, "x -> h x0"))])


def _regular_rotation(B, X, n):
    """tau of :func:`regular_cocyclic_module` on X (x) B^{(x) n}.

    x (x) a_1 (x) a -> S(a_1) (x_(0) (x) a (x) x_(-1)), S(a_1) acting by
    the diagonal action of ``complexes._diagonal_action``, which deals the
    last leg s_(n+1) to the coefficient slot: the hstacked L_b applied
    after a front map that takes S of a_1 to the front and x_(-1) to the
    end. In degree 0, a_1 is x_(-1) itself.
    """
    f = B.field
    d = B.dim
    acts = _diagonal_action(B, [(d, B.mult)] * n, (X.dim, X.action), range(d))
    dims = {"x": X.dim, "x0": X.dim, "h": d, "a": d, "s": d, "t": _pow(d, n - 1)}
    if n == 0:
        front = wire(f, dims, "x -> s x0", (X.coaction, "x -> h x0"), (B.antipode, "h -> s"))
    else:
        front = wire(f, dims, "x a t -> s x0 t h", (X.coaction, "x -> h x0"),
                     (B.antipode, "a -> s"))
    return functools.reduce(Matrix.hstack, [acts[b] for b in range(d)]).mul(front)

