"""Coinvariant CH complexes of free module coalgebras, built on X (x) W (x) C^{(x) n}.

Where a C-bicomodule M is free over B on basis vectors W, M = (+)_w B w,
the diagonal action on X (x) M (x) C^{(x) n} is free too, and its
coinvariants are X (x) W (x) C^{(x) n} (Connes-Moscovici, Comm. Math. Phys.
198, 1998; Hajac-Khalkhali-Rangipour-Sommerhaeuser, C. R. Acad. Sci. Paris
338, 2004). This module finds such a W (:func:`free_basis`) and writes on
that model the cofaces, the cyclic operator (for M = C) and the comparison
maps of the coinvariant complexes, from the structure maps, with no ambient
complex and no quotient, untwisting by Kronecker sums over the action on
the idle C slots; it checks on them every identity that the audits do not
imply. ``complexes.coinvariant_ch`` builds it wherever its caller passes
the W that :func:`free_bases` finds: ``complexes.assemble_for_homology``
and the coalgebra-side drivers of ``theorems``. Every start-up that reads
no coalgebra side leaves this module unimported.
"""

import functools

from .complexes import (CocyclicModule, _alternating, _check_coface_degree, _check_tau_degree,
                        _check_tau_order, _diagonal_action, _pow)
from .errors import AuditFailed, IdentityViolation, ShapeMismatch
from .linalg import Matrix, invert, rank, slotted, wire


def free_basis(B, dim, action):
    """Basis indices W of a B-module with (+)_w B w -> M bijective, or None.

    ``action`` is B (x) M -> M. W is chosen greedily in basis order: w is
    kept when the vectors b w of the kept w and of w are independent, which
    the rank of their matrix decides exactly, and W is returned once they
    span M. None means that this choice found no basis; a module free on a
    set of basis vectors that the greedy choice misses is left to the
    descended path, which is correct for every module.
    """
    f = B.field
    d = B.dim
    if dim % d:
        return None
    picked = []
    for w in range(dim):
        if len(picked) * d == dim:
            break
        embed = _embedding(f, dim, picked + [w])
        if rank(action.mul(Matrix.identity(f, d).kron(embed))) == d * (len(picked) + 1):
            picked.append(w)
    return picked if len(picked) * d == dim else None


def free_bases(X, *pieces):
    """A :func:`free_basis` of every module coalgebra in ``pieces``, or None.

    None also where X is not stable and anti-Yetter-Drinfeld: only then is
    the model the coinvariant module (see :func:`free_model`), and ``X.ayd``
    holds only where B has an inverse antipode.
    """
    if not (X.stable and X.ayd):
        return None
    bases = [free_basis(mc.over, mc.dim, mc.action) for mc in pieces]
    return None if any(W is None for W in bases) else bases


def _embedding(field, dim, W):
    """The dim x |W| matrix of the basis vectors W."""
    return Matrix(field, dim, len(W), {w: {k: field.one} for k, w in enumerate(W)})


def free_model(C, X, W, maxdeg, M=None, each=None):
    """CH(C, M; X) on coinvariants, built on X (x) W (x) C^{(x) n}, with tau where M = C.

    ``M`` is an ``EquivariantBicomodule`` over C, or None for C itself, the
    regular bicomodule, which alone gets a cyclic operator. ``W`` are basis
    indices of M on which M is free over B (:func:`free_basis`); the
    :class:`Untwist` refuses any other W.

    Phi(x (x) w (x) t) = [x (x) w (x) t] is an isomorphism onto the
    coinvariants of the diagonal action (b acts as b_(1) on M, b_(2) ...
    b_(n+1) on the C slots and b_(n+2) on X), with inverse
    Psi[x (x) b w (x) t] = S(b) (t, x) (x) w, S(b) acting diagonally on the C
    slots and X, X last. Psi is well defined: M = (+)_w B w with b w -> b (x) w
    B-linear by the audited associativity, and on a v = x (x) b w (x) t it
    gives Psi(a v) = S(a_(1) b) a_(2) (t, x) (x) w = eps(a) Psi(v), as Delta
    is an algebra map, S antimultiplicative and X and the C slots audited
    modules. Psi Phi = id as S(1) = 1. And v = b_(1) (S(b_(2)) (t, x) (x) w)
    by b_(1) S(b_(2)) = eps(b), so [v] = [S(b) (t, x) (x) w] = Phi Psi [v].

    The cofaces and tau are Psi d Phi for the cofaces d of
    ``complexes.twisted_ch`` and the rotation of
    ``complexes._coalgebra_rotation``: d_0 applies M's right coaction to w,
    the middle d_j is Delta on C slot j, the last coface is
    x (x) w (x) t -> x_(0) (x) w_(0) (x) t (x) x_(-1) w_(-1), and tau moves
    the first C slot into M; Psi is applied wherever the M slot leaves the
    span of W.

    Psi is applied to the last coface, to tau and to d_0 without the action
    of S(b) on a whole degree. Each of them, T applied, reads x (x) w (x) r
    (r: tau's first C slot; nothing for the cofaces) and writes
    x_0 (x) s (x) v (x) t (x) y, with t the C^{(x) k} tail copied from the
    source and y one C slot; d_0 writes y before t. The diagonal action of
    s deals s_(1) ... s_(k) to t, s_(k+1) to y and s_(k+2) to x_0. As Delta
    is coassociative, that is Delta(s) = s' (x) s'', Delta^{(k-1)} dealing
    s' to t and Delta(s'') = p (x) q, p to y and q to x_0. So Psi of the
    map is sum_{s'} H_{s'} (x) L^{(k)}_{s'}, y moved behind t: H_{s'} is the
    map on x (x) w (x) r, then the s' part of Delta(s) (x) Delta(s'') and
    the actions of p and q, and it does not depend on k; L^{(k)}_b is the
    diagonal action of b on C^{(x) k}, L^{(0)}_b = eps(b) and L^{(k)}_b =
    sum L^{(1)}_{b_(1)} (x) L^{(k-1)}_{b_(2)}, again by coassociativity.
    For d_0, Delta^{(2)}(s) = a (x) s' (x) q deals a to y, s' to t and q
    to x_0 (:attr:`Untwist.insert`). In degree 0 tau has no C slot, and s
    acts on x_0 alone.

    These are the induced maps, so the model is the coinvariant module,
    exactly where every d descends: d_0 and the middle cofaces are B-linear
    by the audited equivariance of M's right coaction and of Delta_C, and
    the last coface and tau descend for an anti-Yetter-Drinfeld X, which
    the callers require (:func:`free_bases`). Nothing descends here, so the
    [L_g, d_j] commutators and the well-definedness checks of the descended
    path have nothing left to check. What remains is checked or proved:
      - each kept L^{(k)}_b is the diagonal action of b, checked once the
        cofaces out of a degree are built, before any of their identities
        (:meth:`Untwist.check_tails`);
      - tau d_j = d_{j-1} tau for 2 <= j <= n out of degree n is proved.
        d_j is Delta on C slot j, slot j-1 of the tail t, and tau_n and
        tau_{n+1} are sum_s H_s (x) L^{(n-1)}_s and sum_s H_s (x)
        L^{(n)}_s with the same H_s (:attr:`Untwist.rotate`), which acts on
        other slots (the slotted lemma). So the identity is L^{(n)}_s
        Delta_{j-1} = Delta_{j-1} L^{(n-1)}_s, Delta on tail slot j-1: the
        audited B-linearity Delta(b c) = b_(1) c_(1) (x) b_(2) c_(2) of
        Delta_C, with the coassociativity of Delta_B, for the checked tails;
      - tau d_1 = d_0 tau, tau d_{n+1} = d_n tau and tau d_0 = d_{n+1}
        read H blocks and are checked out of every degree n <= maxdeg - 2
        (``complexes._check_tau_degree``);
      - tau^{n+1} = id holds for the rotation induced on the coinvariants of
        a stable anti-Yetter-Drinfeld X (Hajac-Khalkhali-Rangipour-
        Sommerhaeuser, C. R. Acad. Sci. Paris 338, 2004), and in every
        degree n >= 1 tau is one H block with a checked tail. The power is
        checked through the lowest degree in which every leg of that block
        acts (:meth:`Untwist.exercised` of maxdeg - 1), degree 0, where tau
        is written apart, included;
      - the cofaces out of each degree n are built once, and their
        identities with the cofaces out of n-1 checked
        (``complexes._check_coface_degree``, with d_0's own where d_0 is
        not slotted, :class:`Untwist`).
    tau is written in degrees 0 .. maxdeg - 1, the degrees that cofaces
    leave (:class:`complexes.CocyclicModule`): through total degree m,
    Connes' complex and the bicomplex read the cochains through m and
    tau through m - 1 (``complexes.connes_complex``). tau_{maxdeg} has no
    reader, and so it is neither written nor checked. Its identities were
    the only check that linked it with the cofaces out of maxdeg - 1;
    those cofaces are still checked: their identities with the last
    coface and, where d_0 is not slotted, with d_0, by
    ``_check_coface_degree`` out of maxdeg - 1 >= 1, and d o d by every
    complex formed from b (``linalg.GradedComplex``). They are written
    from the same H blocks and checked tails as every lower degree. At
    maxdeg = 1 no identity relates the two cofaces out of degree 0 at
    all: a module through degree 1 satisfies none.
    b_n and, for M = C, the last coface d_{n+1} are kept, and the others let
    go: b' = b - (-1)^{n+1} d_{n+1} (``complexes._differentials``), and
    Connes' complex reads b and tau (``complexes.connes_complex``). A model
    has no cofaces (``cofaces`` is None): ``each``, where given, is called
    as each(n, faces) once the cofaces out of degree n are checked, and
    there the one reader of single cofaces, ``relative --mode cokernel``,
    induces them on its quotients.
    """
    if not X.module_report.ok:
        raise AuditFailed(X.module_report)
    u = Untwist(C, X, W, M)
    tau = None if M is not None else [_model_rotation(u, n) for n in range(maxdeg)]
    dims = [X.dim * len(W) * _pow(C.dim, n) for n in range(maxdeg + 1)]
    cm = CocyclicModule(C.over.field, C.over, dims, None, tau, untwist=u, b=[],
                        last=None if tau is None else [])
    if tau is not None:
        _check_tau_order(cm.truncate(u.exercised(maxdeg - 1) + 1))
    lower = None
    for n in range(maxdeg):
        faces = _model_cofaces(u, n)
        u.check_tails()
        if tau is not None:
            if n + 1 < maxdeg:
                _check_tau_degree(tau, n, faces, middle=False)
            cm.last.append(faces[-1])
        _check_coface_degree(dims, n, faces, lower, u.slotted_d0)
        cm.b.append(_alternating(cm.field, faces))
        if each is not None:
            each(n, faces)
        lower = faces
    return cm


class Untwist:
    """Psi of :func:`free_model` and what it needs: W, its embedding and the untwisting T.

    ``M`` is the bicomodule, None for C, as :func:`free_model` takes it.

    T = (S (x) id_W) F, with F the inverse of b (x) w -> b w, sends m = b w
    to S(b) (x) w. Psi after a map whose target has the M slot is that map
    with T on the M slot, followed by the diagonal action of the S(b) leg,
    written as sum_{s'} H_{s'} (x) L^{(k)}_{s'} (:meth:`wrapped`, proof in
    :func:`free_model`): the H of tau, of the last coface and of d_0 are
    built once, and each L^{(k)}_b is kept (:meth:`tail`). A comparison
    map into another model is such a sum too, its degrees written in one
    pass (:meth:`comparison`).
    ``slotted_d0`` says that M's right coaction maps W into
    span(W) (x) C: T then puts no leg but 1 on it, so d_0 is
    id_X (x) rho_W (x) id, a slotted map whose identity with d_1 is the
    audited coassociativity of the coaction restricted to W.
    """

    def __init__(self, C, X, W, M=None):
        B = C.over
        f = B.field
        self.C, self.X, self.W, self.M = C, X, list(W), M
        if B.antipode is None:
            raise ShapeMismatch("the model needs an antipode on B")
        mdim = C.dim if M is None else M.dim
        action = C.action if M is None else M.action
        if len(self.W) * B.dim != mdim:
            raise ShapeMismatch(f"{len(self.W)} basis vectors cannot make a {mdim}-dimensional "
                                f"module free over a {B.dim}-dimensional B")
        self.embed = _embedding(f, mdim, self.W)
        F = invert(action.mul(Matrix.identity(f, B.dim).kron(self.embed)))
        if F is None:
            raise ShapeMismatch("the basis vectors W do not make the bicomodule free over B")
        self.T = slotted(f, 1, B.antipode, len(self.W)).mul(F)
        self.left = (C.base.comult if M is None else M.left_coaction).mul(self.embed)
        self.right = (C.base.comult if M is None else M.right_coaction).mul(self.embed)
        unit = B.unit.coldict().get(0, {})
        self.unit = next(iter(unit)) if list(unit.values()) == [f.one] else None
        rho_w = slotted(f, 1, self.T, C.dim).mul(self.right)  # w -> S(b) (x) w' (x) c
        self.slotted_d0 = self.unit is not None and all(
            r // (len(self.W) * C.dim) == self.unit for r in rho_w.rowdict)
        self.tails, self.checked = {}, set()  # (k, b) -> L^{(k)}_b; the keys checked
        self.dims = {"x": X.dim, "x0": X.dim, "x1": X.dim, "w": len(self.W), "v": len(self.W),
                     "m": mdim, "c": C.dim, "c1": C.dim, "y": C.dim, "y1": C.dim}
        self.dims.update(dict.fromkeys(["s", "s1", "s2", "h", "p", "q"], B.dim))

    def tail(self, k, b):
        """L^{(k)}_b, the diagonal action of b on C^{(x) k}, built once and kept.

        L^{(0)}_b = eps(b) and L^{(k)}_b = sum L^{(1)}_{b_(1)} (x) L^{(k-1)}_{b_(2)}.
        For the unit 1, L^{(k)}_1 = id by the audited unitality: it is
        written, not kept, so that a model whose legs are all 1 keeps none.
        """
        B = self.C.over
        if b == self.unit:
            return Matrix.identity(B.field, _pow(self.C.dim, k))
        if (k, b) not in self.tails:
            self.tails[k, b] = B.counit.column_blocks(B.dim)[b] if not k else _grown(
                B, self.C.action_matrices, functools.partial(self.tail, k - 1), b)
        return self.tails[k, b]

    def check_tails(self):
        """Each L^{(k)}_b kept since the last call is the diagonal action of b, entry-exactly.

        Compared with ``complexes._diagonal_action`` of b on C^{(x) k}.
        """
        pending = {}
        for k, b in sorted(self.tails.keys() - self.checked):
            pending.setdefault(k, []).append(b)
        for k, bs in pending.items():
            acts = _diagonal_action(self.C.over, [(None, self.C.action)] * k, None, bs)
            for b in bs:
                if self.tails[k, b] != acts[b]:
                    raise IdentityViolation(k, f"L^{{({k})}}_{b} is the diagonal action")
                self.checked.add((k, b))

    def exercised(self, top):
        """The lowest degree n >= 1 where each leg s of :attr:`rotate` has L^{(n-1)}_s != 0.

        ``top`` where no degree through ``top`` is one. A leg with
        L^{(n-1)}_s = 0 adds nothing to tau in degree n.
        """
        block = self.rotate.rows // self.C.over.dim
        legs = {r // block for r in self.rotate.rowdict}
        return next((n for n in range(1, top + 1)
                     if all(self.tail(n - 1, s).rowdict for s in legs)), top)

    def wrapped(self, H, k, trail):
        """sum_s H_s (x) L^{(k)}_s, y moved behind the tail (:func:`_kron_sum`)."""
        n = _pow(self.C.dim, k)
        return _kron_sum(H, self.C.over.dim, functools.partial(self.tail, k), (n, n), trail)

    def untwisted(self, spec, *front):
        """H of :meth:`wrapped`: ``front``, Delta(s) = s1 s2, Delta(s2) = p q, p on y, q on x0."""
        B = self.C.over
        return wire(B.field, self.dims, spec, *front, (B.comult, "s -> s1 s2"),
                    (B.comult, "s2 -> p q"), (self.C.action, "p y -> y1"),
                    (self.X.action, "q x0 -> x1"))

    @functools.cached_property
    def rotate(self):
        """H of tau: x (x) w (x) c -> s1 (x) q x_(0) (x) v (x) p x_(-1) w, s (x) v = T(c)."""
        return self.untwisted("x w c -> s1 x1 v y1", (self.X.coaction, "x -> h x0"),
                              (self.embed, "w -> m"), (self.C.action, "h m -> y"),
                              (self.T, "c -> s v"))

    @functools.cached_property
    def wrap(self):
        """H of the last coface: x (x) w -> s1 (x) q x_(0) (x) v (x) p x_(-1) w_(-1)."""
        return self.untwisted("x w -> s1 x1 v y1", (self.X.coaction, "x -> h x0"),
                              (self.left, "w -> c m"), (self.C.action, "h c -> y"),
                              (self.T, "m -> s v"))

    @functools.cached_property
    def insert(self):
        """H of d_0: x (x) w -> s1 (x) q x (x) v (x) a w_(1), Delta^{(2)}(s) = a s1 q."""
        B = self.C.over
        return wire(B.field, dict(self.dims, a=B.dim), "x w -> s1 x1 v c1",
                    (self.right, "w -> m c"), (self.T, "m -> s v"), (B.comult, "s -> a s2"),
                    (B.comult, "s2 -> s1 q"), (self.C.action, "a c -> c1"),
                    (self.X.action, "q x -> x1"))

    def comparison(self, dst, m_map, c_map, top):
        """Degrees 0..top of id_X (x) m_map (x) c_map^{(x) n} from this model to ``dst``'s.

        It is Psi_dst f Phi, which descends as m_map and c_map are B-linear.
        With A = T_dst m_map on W, degree n is sum_s H_s (x) L'^{(n)}_s
        (:func:`_kron_sum`): H = (Delta (x) X's action) A, one wire, and
        L'^{(n)}_b = sum factor_{b_(1)} (x) L'^{(n-1)}_{b_(2)}, L'^{(0)}_b =
        eps(b), the diagonal action of b after c_map on each C slot, factor =
        action_dst (id (x) c_map). Each degree's tails grow from the last's,
        for the legs of H and every leg their tails read.
        """
        B = self.C.over
        f, d = B.field, B.dim
        H = wire(f, dict(self.dims, v=len(dst.W)), "x w -> s1 x1 v",
                 (dst.T.mul(m_map).mul(self.embed), "w -> s v"), (B.comult, "s -> s1 s2"),
                 (self.X.action, "s2 x -> x1"))
        factor = dst.C.action.mul(slotted(f, d, c_map, 1)).column_blocks(d)
        legs = {r // (H.rows // d) for r in H.rowdict}
        while more := {i % d for b in legs for i in B.comult.coldict()[b]} - legs:
            legs |= more
        tails, comps = dict(enumerate(B.counit.column_blocks(d))), []
        for n in range(top + 1):
            if n:
                tails = {b: _grown(B, factor, tails.get, b) for b in legs}
            shape = (_pow(c_map.rows, n), _pow(c_map.cols, n))
            comps.append(_kron_sum(H, d, tails.get, shape, 1, share=False))
        return comps


def _grown(B, heads, rest, b):
    """sum heads[b_(1)] (x) rest(b_(2)) over Delta(b): a diagonal action one slot longer."""
    d = B.dim
    return functools.reduce(Matrix.add, [heads[i // d].scale(v).kron(rest(i % d))
                                         for i, v in B.comult.coldict()[b].items()])


def _kron_sum(H, d, tail, shape, trail, share=True):
    """sum_s H_s (x) tail(s), y moved behind the tail: u (x) t -> a (x) t (x) y.

    H_s: u -> a (x) y are the rows of H with s first, of the d legs, y of
    dimension ``trail``; every tail(s) is a ``shape`` matrix. Accumulated
    entry by entry; with ``share``, each column index is one int object
    shared by the rows, which saves memory where many rows hit a column.
    """
    f = H.field
    zero = f.zero
    nr, nc = shape
    block = H.rows // d
    keys = range(H.cols * nc)
    if share:
        keys = list(keys)
    acts, rd = {}, {}
    for r, row in H.rowdict.items():
        s, r = divmod(r, block)
        a, y = divmod(r, trail)
        if s not in acts:
            acts[s] = tail(s).rowdict
        for i, lrow in acts[s].items():
            out = (a * nr + i) * trail + y
            tgt = rd.get(out)
            if tgt is None:
                tgt = rd[out] = {}
            for col, hv in row.items():
                base = col * nc
                for j, lv in lrow.items():
                    key = keys[base + j]
                    v = f.add(tgt.get(key, zero), f.mul(hv, lv))
                    if v == zero:
                        del tgt[key]
                    else:
                        tgt[key] = v
    for i in [i for i, row in rd.items() if not row]:
        del rd[i]
    return Matrix(f, block * nr, H.cols * nc, rd)


def _model_cofaces(u, n):
    """The n+2 cofaces of :func:`free_model` out of X (x) W (x) C^{(x) n}.

    d_0 and the last coface are Psi of their maps with the C^{(x) n} tail
    (:meth:`Untwist.wrapped`); the middle d_j comultiplies C slot j.
    """
    c = u.C.dim
    pre = u.X.dim * len(u.W)
    return ([u.wrapped(u.insert, n, 1)]
            + [slotted(u.C.over.field, pre * _pow(c, j - 1), u.C.base.comult, _pow(c, n - j))
               for j in range(1, n + 1)]
            + [u.wrapped(u.wrap, n, c)])


def _model_rotation(u, n):
    """tau of :func:`free_model` on X (x) W (x) C^{(x) n}.

    x (x) w (x) c_1 (x) t -> Psi(x_(0) (x) c_1 (x) t (x) x_(-1) w): the first C
    slot becomes the M slot, so T is applied to it, and t is the tail
    (:meth:`Untwist.wrapped`). In degree 0 the M slot is x_(-1) w itself
    and S(b) acts on X alone.
    """
    if n:
        return u.wrapped(u.rotate, n - 1, u.C.dim)
    return wire(u.C.over.field, u.dims, "x w -> x1 v", (u.X.coaction, "x -> h x0"),
                (u.embed, "w -> m"), (u.C.action, "h m -> y"), (u.T, "y -> s v"),
                (u.X.action, "s x0 -> x1"))
