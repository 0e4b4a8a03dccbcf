"""Coinvariant CH complexes of free module coalgebras, built on X (x) W (x) C^{(x) n}.

Where a C-bicomodule M is free over B on basis vectors W, M = (+)_w B w,
the diagonal action on X (x) M (x) C^{(x) n} is free too, and its
coinvariants are X (x) W (x) C^{(x) n} (Connes-Moscovici, Comm. Math. Phys.
198, 1998; Hajac-Khalkhali-Rangipour-Sommerhaeuser, C. R. Acad. Sci. Paris
338, 2004). This module finds such a W (:func:`free_basis`) and writes on
that model the cofaces, the cyclic operator (for M = C) and the comparison
maps of the coinvariant complexes, from the structure maps, with no ambient
complex and no quotient; it checks on them every identity that the audits
do not imply. ``complexes.assemble_for_homology`` and the coalgebra-side
drivers of ``theorems`` take it wherever :func:`free_bases` finds W; every
start-up that does not leaves this module unimported.
"""

import collections.abc
import functools

from .complexes import CocyclicModule, _check_coface_identities, _diagonal_action, _pow
from .errors import AuditFailed, ShapeMismatch
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


def free_model(C, X, W, maxdeg, M=None):
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
    span of W. These are the induced maps, so the model is the coinvariant
    module, exactly where every d descends: d_0 and the middle cofaces are
    B-linear by the audited equivariance of M's right coaction and of
    Delta_C, and the last coface and tau descend for an anti-Yetter-Drinfeld
    X, which the callers require (:func:`free_bases`). Nothing descends
    here, so the [L_g, d_j] commutators and the well-definedness checks of
    the descended path have nothing left to check. What remains is checked:
    the coface identities of ``complexes._check_coface_identities``, with
    d_0's own where d_0 is not slotted (:class:`Untwist`), and for M = C the
    cocyclic identities.
    """
    if not X.module_report.ok:
        raise AuditFailed(X.module_report)
    u = Untwist(C, X, W, M)
    tau = None if M is not None else [_model_rotation(u, n) for n in range(maxdeg + 1)]
    dims = [X.dim * len(W) * _pow(C.dim, n) for n in range(maxdeg + 1)]
    cm = CocyclicModule(C.over.field, C.over, dims, _Cofaces(u, maxdeg, dims), tau, untwist=u)
    if tau is not None:
        cm.validate()
    _check_coface_identities(cm, slotted_d0=u.slotted_d0)
    return cm


class Untwist:
    """Psi of :func:`free_model` and what it needs: W, its embedding and the untwisting T.

    T = (S (x) id_W) F, with F the inverse of b (x) w -> b w, sends m = b w
    to S(b) (x) w. Psi after a map whose target has the M slot is that map
    with T on the M slot, followed by the diagonal action of the S(b) leg
    (:meth:`apply`). ``slotted_d0`` says that M's right coaction maps W into
    span(W) (x) C: T then puts no leg but 1 on it, so d_0 is
    id_X (x) rho_W (x) id, a slotted map whose identity with d_1 is the
    audited coassociativity of the coaction restricted to W.
    """

    def __init__(self, C, X, W, M=None):
        B = C.over
        f = B.field
        self.C, self.X, self.W = C, X, list(W)
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

    @functools.cached_property
    def _idle_w(self):
        """X's action on X (x) W, W idle (:meth:`_coefficient`)."""
        return self._coefficient(Matrix.identity(self.C.over.field, len(self.W)))

    def _coefficient(self, on_w):
        """B (x) X (x) W' -> X (x) W: b (x) x (x) w -> b x (x) on_w w, X's action with ``on_w``."""
        dims = {"b": self.C.over.dim, "x": self.X.dim, "y": self.X.dim, "w": on_w.cols,
                "v": on_w.rows}
        return wire(self.C.over.field, dims, "b x w -> y v", (self.X.action, "b x -> y"),
                    (on_w, "w -> v"))

    def apply(self, front, k):
        """Psi after ``front``, whose rows are X (x) B (x) W (x) C^{(x) k}: sum_s L_s front_s.

        front_s are the rows with s on the B leg, and L_s the diagonal action
        of s on X (x) W (x) C^{(x) k}, W idle, X receiving the last leg. For
        the unit 1, L_1 = id by the audited unitality, so front_1 is added
        as it is; where only 1 occurs, no L_s is built. ``front`` is
        consumed: its rows become the result's.
        """
        B = self.C.over
        w = len(self.W)
        rest = w * _pow(self.C.dim, k)
        blocks = {}
        for r, row in front.rowdict.items():
            xi, r = divmod(r, B.dim * rest)
            s, r = divmod(r, rest)
            blocks.setdefault(s, {})[xi * rest + r] = row
        f = B.field
        rows = self.X.dim * rest
        out = blocks.pop(self.unit, {})
        if blocks:
            acts = _diagonal_action(B, [(None, self.C.action)] * k, (None, self._idle_w), blocks)
        for s, rd in blocks.items():  # each L_s front_s added into ``out`` in place
            for i, row in acts.pop(s).mul(Matrix(f, rows, front.cols, rd)).rowdict.items():
                tgt = out.setdefault(i, {})
                for j, v in row.items():
                    v = f.add(tgt.get(j, f.zero), v)
                    if v == f.zero:
                        del tgt[j]
                    else:
                        tgt[j] = v
        return Matrix(f, rows, front.cols, {i: row for i, row in out.items() if row})

    def map_to(self, dst, m_map, c_map, n):
        """Degree n of id_X (x) m_map (x) c_map^{(x) n} from this model to ``dst``'s.

        It is Psi_dst f Phi: m_map (B-linear from this M to dst's) and c_map
        (B-linear between the coalgebras) make f B-linear, so it descends.
        With A = T_dst m_map on W, f Phi is id_X (x) A (x) c_map^{(x) n}, and
        L_s after its rows with s on the B leg, id_X (x) A_s (x)
        c_map^{(x) n}, is the diagonal action of s with X's action composed
        with A_s and each C slot's with c_map: a sum over the legs of s of
        Kronecker products, none of them as large as L_s.
        """
        B = self.C.over
        f = B.field
        w = len(dst.W)
        A = dst.T.mul(m_map).mul(self.embed)  # rows s * |W_dst| + v
        blocks = {}
        for r, row in A.rowdict.items():
            s, v = divmod(r, w)
            blocks.setdefault(s, {})[v] = row
        factor = dst.C.action.mul(slotted(f, B.dim, c_map, 1))
        terms = [_diagonal_action(B, [(None, factor)] * n,
                                  (None, self._coefficient(Matrix(f, w, A.cols, rd))), [s])[s]
                 for s, rd in blocks.items()]
        shape = (self.X.dim * w * _pow(c_map.rows, n),
                 self.X.dim * len(self.W) * _pow(c_map.cols, n))
        return functools.reduce(Matrix.add, terms, Matrix.zero(f, *shape))


class _Cofaces(collections.abc.Sequence):
    """The cofaces of a model by degree, ``[n]`` built by :func:`_model_cofaces` when read.

    Degree n is kept once built when its n+2 cofaces have at most ``KEEP``
    columns together, (n+2) dims[n]; a larger degree lives only as long as
    its reader holds it, so a model holds none of its large degrees between
    the four readers (the two identity checks, the Hochschild complex and
    the cyclic total complex), each of which reads one degree at a time.
    KEEP is measured, on ``excision direct_sum_ses.json`` over Q (a
    2-vCPU host). Keeping nothing makes perfbench's excision-coalgebra
    (degree 2) take 0.061 s against 0.049 s (10 of 10 pairs). Keeping
    everything raises the peak at degree 5 from 102 to 123 MB and at
    degree 6 from 367 to 480 MB (out of degree 7, CH(C) has 9 cofaces of
    32768 columns). From 2^10 to 2^14 the times agree within noise and
    the peaks within 5 MB (97-102 MB at degree 5, 362-367 MB at degree
    6); 2^14 keeps the most of them. 2^16 peaks at 122 and 384 MB. A
    prefix slice shares what is kept (``CocyclicModule.truncate``).
    """

    KEEP = 1 << 14

    def __init__(self, untwist, count, dims, kept=None):
        self.untwist, self.count, self.dims = untwist, count, dims
        self.kept = {} if kept is None else kept

    def __len__(self):
        return self.count

    def __getitem__(self, n):
        if isinstance(n, slice):
            start, stop, step = n.indices(self.count)
            if (start, step) != (0, 1):
                raise ShapeMismatch("only prefixes of the cofaces are taken")
            return _Cofaces(self.untwist, stop, self.dims, self.kept)
        if not 0 <= n < self.count:
            raise IndexError(n)
        if n in self.kept:
            return self.kept[n]
        faces = _model_cofaces(self.untwist, n)
        if (n + 2) * self.dims[n] <= self.KEEP:
            self.kept[n] = faces
        return faces


def _model_cofaces(u, n):
    """The n+2 cofaces of :func:`free_model` out of X (x) W (x) C^{(x) n}."""
    C, X = u.C, u.X
    f = C.over.field
    x, w, c = X.dim, len(u.W), C.dim
    dims = {"x": x, "x0": x, "w": w, "v": w, "s": C.over.dim, "h": C.over.dim, "c": c,
            "y": c, "m": u.embed.rows, "t": _pow(c, n)}
    first = wire(f, dims, "x w t -> x s v c t", (u.right, "w -> m c"), (u.T, "m -> s v"))
    last = wire(f, dims, "x w t -> x0 s v t y", (X.coaction, "x -> h x0"),
                (u.left, "w -> c m"), (C.action, "h c -> y"), (u.T, "m -> s v"))
    return ([u.apply(first, n + 1)]
            + [slotted(f, x * w * _pow(c, j - 1), C.base.comult, _pow(c, n - j))
               for j in range(1, n + 1)]
            + [u.apply(last, n + 1)])


def _model_rotation(u, n):
    """tau of :func:`free_model` on X (x) W (x) C^{(x) n}.

    x (x) w (x) c_1 (x) t -> Psi(x_(0) (x) c_1 (x) t (x) x_(-1) w): the first C
    slot becomes the M slot, so T is applied to it. In degree 0 the M slot
    is x_(-1) w itself.
    """
    C, X = u.C, u.X
    f = C.over.field
    dims = {"x": X.dim, "x0": X.dim, "w": len(u.W), "v": len(u.W), "s": C.over.dim,
            "h": C.over.dim, "m": C.dim, "c": C.dim, "y": C.dim, "t": _pow(C.dim, n - 1)}
    steps = [(X.coaction, "x -> h x0"), (u.embed, "w -> m"), (C.action, "h m -> y")]
    if n == 0:
        front = wire(f, dims, "x w -> x0 s v", *steps, (u.T, "y -> s v"))
    else:
        front = wire(f, dims, "x w c t -> x0 s v t y", *steps, (u.T, "c -> s v"))
    return u.apply(front, n)
