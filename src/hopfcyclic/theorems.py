"""Theorem-verification drivers.

Mapping cones and quasi-isomorphism checks, the excision theorems on both
the coalgebra and the algebra side with their hypothesis checklists, the two
relative-homology constructions and their comparison, the commutative and
cocommutative reductions, and the discrete-group example checked against an
independent bar-resolution group-homology oracle.

Verdict discipline: PASS/FAIL only for hypotheses decidable by finite linear
algebra within the certified degree window; anything else is UNVERIFIED. A
conclusion is asserted only when every hypothesis is certified.
"""

import functools

from .complexes import (
    CocyclicModule,
    _hochschild_complex,
    _induced,
    _tau_through,
    assemble,
    assemble_for_homology,
    coinvariant_ch,
    comodule_coinvariants,
    cyclic_total_complex,
    descend_degree,
    homology,
    total_coactions,
)
from .equivariant import (
    ComoduleAlgebra,
    EquivariantBicomodule,
    ModComod,
    ModuleCoalgebra,
    action_of_vector,
    h_counitality_probe,
    is_projective,
    make_coefficient,
    regular_bicomodule,
    regular_comodule_algebra,
    regular_module_coalgebra,
)
from .errors import (
    DegreeOutOfRange,
    MissingAntipodeInverse,
    NotAGroup,
    NotSubcoalgebra,
    OrientationMismatch,
    ShapeMismatch,
    WellDefinednessFailure,
)
from .hopf import BialgebraDesc, find_integral, group_algebra, _validate_group_table
from .linalg import (
    Echelon,
    GradedComplex,
    Matrix,
    QuotientSpace,
    block_matrix,
    column_basis,
    complex_homology,
    map_well_defined,
    rank,
    rank_kernel,
    restrict,
    slotted,
    solve_columns,
    total_complex,
)

PASS, FAIL, UNVERIFIED = "PASS", "FAIL", "UNVERIFIED"


class Hypothesis:
    __slots__ = ("name", "verdict", "window", "detail")

    def __init__(self, name, verdict, window=None, detail=None):
        self.name = name
        self.verdict = verdict
        self.window = window
        self.detail = detail

    def to_json(self):
        doc = {"name": self.name, "verdict": self.verdict}
        if self.window is not None:
            doc["window"] = self.window
        if self.detail is not None:
            doc["detail"] = self.detail
        return doc

    def __repr__(self):
        w = f" (window {self.window})" if self.window else ""
        return f"{self.name}: {self.verdict}{w}"


class DegreeVerdict:
    __slots__ = ("n", "dims", "verdict")

    def __init__(self, n, dims, verdict):
        self.n = n
        self.dims = dims
        self.verdict = verdict

    def to_json(self):
        return {"n": self.n, "dims": self.dims, "verdict": self.verdict}


class TheoremReport:
    """Hypothesis checklist plus per-degree conclusion verdicts."""

    def __init__(self, theorem):
        self.theorem = theorem
        self.hypotheses = []
        self.degrees = []
        self.witness = None
        self.notes = []

    def add_hypothesis(self, name, verdict, window=None, detail=None):
        self.hypotheses.append(Hypothesis(name, verdict, window, detail))

    def add_degree(self, n, dims, verdict):
        self.degrees.append(DegreeVerdict(n, dims, verdict))

    @property
    def hypotheses_certified(self):
        return all(h.verdict == PASS for h in self.hypotheses)

    @property
    def all_pass(self):
        return self.hypotheses_certified and all(d.verdict == PASS for d in self.degrees)

    def to_json(self):
        return {
            "theorem": self.theorem,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "degrees": [d.to_json() for d in self.degrees],
            "witness": self.witness,
            "notes": list(self.notes),
        }

    def __str__(self):
        lines = [f"[{self.theorem}]"]
        lines += [f"  {h!r}" for h in self.hypotheses]
        for d in self.degrees:
            lines.append(f"  degree {d.n}: dims={d.dims} {d.verdict}")
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chain maps and mapping cones
# ---------------------------------------------------------------------------


class ChainMap:
    """Degreewise components commuting with the differentials, entry-exactly."""

    def __init__(self, source, target, components, check=True):
        if source.orientation != target.orientation:
            raise OrientationMismatch("chain map needs matching orientations")
        self.source = source
        self.target = target
        self.components = dict(components)
        self.orientation = source.orientation
        self.top = min(source.top, target.top)
        if check:
            self.validate()

    def validate(self):
        """Each component's shape, and f d = d f out of every degree n with n and n + o in 0..top.

        A missing component or differential is zero, as :func:`mapping_cone`
        reads it: a square with a zero side checks that the other is zero.
        """
        o = self.orientation
        for n, comp in self.components.items():
            if comp.cols != self.source.dims[n] or comp.rows != self.target.dims[n]:
                raise ShapeMismatch(f"chain map component {n} has wrong shape")
        for n in range(self.top + 1):
            if not 0 <= n + o <= self.top:
                continue
            f_n, f_m = self.components.get(n), self.components.get(n + o)
            d_s, d_t = self.source.diffs.get(n), self.target.diffs.get(n)
            left = None if f_m is None or d_s is None else f_m.mul(d_s)
            right = None if d_t is None or f_n is None else d_t.mul(f_n)
            if left is None or right is None:
                one = right if left is None else left  # the other side is zero
                holds = one is None or one.is_zero()
            else:
                holds = left == right
            if not holds:
                raise ShapeMismatch(f"chain map does not commute at degree {n}")


def mapping_cone(*maps):
    """The iterated mapping cone D of X_0 -> X_1 -> ... -> X_k.

    D is the :func:`linalg.total_complex` of the columns X_i, X_i placed i
    degrees up on the cochain side and k - i on the chain side:
    D^m = (+)_i X_i^{m-i}, with (-1)^i d on X_i and maps[i] below it with
    sign +; D_m = (+)_i X_{i, m-k+i}, with (-1)^{k-i} d on X_i and maps[i]
    with sign (-1)^{k-1-i} (Weibel, *An Introduction to Homological
    Algebra*, 1.5).

    One map f: A -> B is the cone A^m (+) B^{m-1}, d(a, b) = (d a, f a - d b),
    re-indexed so its bottom degree (which carries A^0) is not truncated
    away; chain A_{m-1} (+) B_m, d(a, b) = (-d a, f a + d b). It is acyclic
    through a window iff f is a homology isomorphism one degree below it.
    Two maps u, v with v u = 0 give the triple complex, the cone of
    w(x, y) = v y on cone(u). d o d = 0 is checked on D, which reads every
    block: d o d of each X_i, the square of each map, and v u.
    """
    X = [maps[0].source] + [f.target for f in maps]
    k, o = len(maps), maps[0].orientation
    return total_complex(X[0].field, o, [(x.dims, x.diffs) for x in X],
                         [i if o == +1 else k - i for i in range(k + 1)],
                         [f.components.get for f in maps])


def cone_quasi_iso(f, maxdeg):
    """(cone, per-degree homology-isomorphism verdicts for 0..maxdeg).

    f induces an isomorphism on homology at degree n iff the cone's homology
    vanishes at degrees n and n+1 (long exact sequence of the cone).
    """
    cone = mapping_cone(f)
    if maxdeg + 1 > cone.max_valid_degree:
        raise DegreeOutOfRange(
            f"cone certified through degree {cone.max_valid_degree}, "
            f"asked for verdicts through {maxdeg}")
    vanish = [cone.homology(n) == 0 for n in range(maxdeg + 2)]
    verdicts = [vanish[n] and vanish[n + 1] for n in range(maxdeg + 1)]
    return cone, verdicts


def cofibration_verdicts(u, v, maxdeg):
    """Per-degree verdicts that X -> Y -> Z is a homotopy cofibration.

    The induced map cone(u) -> Z is a quasi-isomorphism iff the triple
    complex D = :func:`mapping_cone` ``(u, v)`` is acyclic, D^m = X^m (+)
    Y^{m-1} (+) Z^{m-2} or D_m = X_{m-2} (+) Y_{m-1} (+) Z_m; the verdict
    at degree n consumes its vanishing through degree n+2 (cochain) or n+1
    (chain). The b' triple of :func:`_cyclic_excision` is read only for its
    vanishing through maxdeg + 1 (cochain) or maxdeg (chain), so each
    module one degree shallower.
    """
    shift = 2 if u.orientation == +1 else 1
    return _triple_vanishing(u, v, maxdeg + shift, maxdeg)[shift:]


def _triple_vanishing(u, v, top, maxdeg):
    """Whether the triple complex of X -> Y -> Z is acyclic through each degree 0..``top``.

    v u = 0 is checked on every shared component first. ``top`` serves
    verdicts through ``maxdeg``, which a too shallow module names.
    """
    for n, c in u.components.items():
        if n in v.components and not v.components[n].mul(c).is_zero():
            raise ShapeMismatch("cofibration check needs v u = 0")
    D = mapping_cone(u, v)
    if top > D.max_valid_degree:
        raise DegreeOutOfRange(
            f"triple complex certified through {D.max_valid_degree}, "
            f"asked for verdicts through {maxdeg}")
    vanish = [D.homology(m) == 0 for m in range(top + 1)]
    return [all(vanish[: m + 1]) for m in range(top + 1)]


def total_chain_map(src_tot, dst_tot, components):
    """Lift a (co)cyclic-module morphism to the cyclic total complexes.

    ``src_tot`` and ``dst_tot`` are the modules' :func:`cyclic_total_complex`.
    Either may be built deeper than the other (:func:`_excision_depths`);
    components are produced wherever both sides exist, the degree-q
    component on each (p, q) block.
    """
    f = src_tot.field
    comps = {}
    for m in range(min(src_tot.top, dst_tot.top) + 1):
        blocks = [components[m - p] for p in range(m + 1)]
        grid = [[blk if i == k else None for k, blk in enumerate(blocks)]
                for i in range(len(blocks))]
        comps[m] = block_matrix(f, grid, [b.rows for b in blocks], [b.cols for b in blocks])
    return ChainMap(src_tot, dst_tot, comps)


# ---------------------------------------------------------------------------
# Morphisms between coinvariant CH complexes
# ---------------------------------------------------------------------------


def _tensor_power(M, k, field):
    out = Matrix.identity(field, 1)
    for _ in range(k):
        out = out.kron(M)
    return out


def _quotient_bicomodule(ses):
    """C/K as a B-equivariant C-bicomodule."""
    C = ses.C
    f = C.base.field
    proj, sec = ses.projection, ses.space.section
    c = C.dim
    left = slotted(f, c, proj, 1).mul(C.base.comult).mul(sec)
    right = proj.kron(Matrix.identity(f, c)).mul(C.base.comult).mul(sec)
    return EquivariantBicomodule(C, ses.quotient.dim, ses.quotient.action, left, right)


def _sub_bicomodule(ses):
    """K as a B-equivariant C-bicomodule (subcoalgebra mode)."""
    Kmc = ses.k_module_coalgebra()
    C = ses.C
    f = C.base.field
    incl = ses.K
    k = Kmc.dim
    left = incl.kron(Matrix.identity(f, k)).mul(Kmc.base.comult)
    right = Matrix.identity(f, k).kron(incl).mul(Kmc.base.comult)
    return EquivariantBicomodule(C, k, Kmc.action, left, right)


def _comparison(src, dst, X, m_map, c_map):
    """The ChainMap of id_X (x) m_map (x) c_map^{(x) n} between :func:`coinvariant_ch` complexes.

    Between models it is written in model bases, every degree in one pass
    (``regular.Untwist.comparison``); between descended modules it is
    induced from the ambient map, each component checked, exactly, to send
    relations into relations.
    """
    top = min(src.top, dst.top)
    if src.untwist is not None:
        comps = dict(enumerate(src.untwist.comparison(dst.untwist, m_map, c_map, top)))
    else:
        I_x = Matrix.identity(src.field, X.dim)
        comps = {n: _induced(I_x.kron(m_map).kron(_tensor_power(c_map, n, src.field)),
                             src.quotients[n], dst.quotients[n],
                             WellDefinednessFailure(f"comparison map does not descend at degree {n}"))
                 for n in range(top + 1)}
    return ChainMap(src.complex, dst.complex, comps)


def _add_hopf_hypotheses(add, B, X):
    """The rows every excision and relative checklist opens with, through ``add``."""
    try:
        B.inverse_antipode
        add("antipode invertible", PASS)
    except MissingAntipodeInverse:
        add("antipode invertible", FAIL)
    add("coefficient stable", PASS if X.stable else FAIL)
    add("coefficient anti-Yetter-Drinfeld", PASS if X.ayd else FAIL)


# ---------------------------------------------------------------------------
# Excision, coalgebra side
# ---------------------------------------------------------------------------


def _excision_depths(orientation, maxdeg):
    """The depths (X, Y, Z) to build an excision triple X -> Y -> Z through, for ``maxdeg``.

    Each module is built through the deepest degree that is read of it.
    :func:`cofibration_verdicts` reads the homology of the triple complex D
    through maxdeg + 2 (cochain) or maxdeg + 1 (chain), and so D itself one
    degree further. Each module's own homology through maxdeg reads that
    module through maxdeg + 1.

    - Cochain, D^m = X^m (+) Y^{m-1} (+) Z^{m-2}: D^{maxdeg+3} reads X
      through maxdeg + 3, Y through maxdeg + 2 and Z through maxdeg + 1,
      which its own homology reads too. On the coalgebra side CH(C/K) is
      built at Z's depth for both its uses: the cone of the weak
      equivalence CH(C, C/K) -> CH(C/K), cone^m = A^m (+) B^{m-1}, reads
      its target one degree below its source, built at Y's depth.
    - Chain, D_m = X_{m-2} (+) Y_{m-1} (+) Z_m: D_{maxdeg+2} reads X through
      maxdeg, Y through maxdeg + 1 and Z through maxdeg + 2; X's own
      homology reads X through maxdeg + 1.

    On both sides :func:`_cyclic_excision` reads the b' triple of the
    modules one degree shallower, through maxdeg + 1 (cochain) or maxdeg
    (chain), each total through maxdeg + 1, and tau of X, Y and Z through
    maxdeg + 1, maxdeg + 1 and maxdeg (cochain) or maxdeg - 1, maxdeg and
    maxdeg (chain), its fallback's totals through each depth minus one. A
    cocyclic module carries tau through its depth minus one
    (:class:`complexes.CocyclicModule`), a cyclic module in every degree. A
    module built one degree shallower than this raises DegreeOutOfRange.
    """
    if orientation == +1:
        return maxdeg + 3, maxdeg + 2, maxdeg + 1
    return maxdeg + 1, maxdeg + 1, maxdeg + 2


def verify_excision(ses, X, side, maxdeg):
    """Hypothesis checklist plus cofibration verdicts via mapping cones."""
    if side == "coalgebra":
        return _verify_excision_coalgebra(ses, X, maxdeg)
    if side == "algebra":
        return _verify_excision_algebra(ses, X, maxdeg)
    raise ShapeMismatch(f"unknown side {side!r}")


def _coalgebra_rows(add, ses, maxdeg):
    """The rows that excision and relative share, through ``add``: K, C and
    C/K H-counital (subcoalgebra mode only), then C and C/K projective over B."""
    if ses.mode == "subcoalgebra":
        for name, mc in (("K", ses.k_module_coalgebra()), ("C", ses.C), ("C/K", ses.quotient)):
            dims = h_counitality_probe(mc.base, maxdeg)
            add(f"{name} H-counital", FAIL if any(dims) else PASS, window=f"0..{maxdeg}")
    for name, mc in (("C", ses.C), ("C/K", ses.quotient)):
        add(f"{name} projective over B",
            PASS if is_projective(mc.over, mc.action, mc.dim) else FAIL)


def _verify_excision_coalgebra(ses, X, maxdeg):
    report = TheoremReport("excision/coalgebra")
    C = ses.C
    B = C.over
    window = f"0..{maxdeg}"

    _add_hopf_hypotheses(report.add_hypothesis, B, X)
    report.add_hypothesis("C counital", PASS if C.base.counit is not None else FAIL)
    if ses.mode != "subcoalgebra":
        report.add_hypothesis("K is a subcoalgebra", FAIL)
        report.notes.append("conclusion requires a short exact sequence of coalgebras")
        return report
    report.add_hypothesis("K is a subcoalgebra", PASS)
    _coalgebra_rows(report.add_hypothesis, ses, maxdeg)
    x_proj = is_projective(B, X.action, X.dim)
    report.add_hypothesis("coefficient projective over B", PASS if x_proj else FAIL)
    if x_proj:
        report.add_hypothesis("coefficient has finite projective dimension", PASS,
                              detail="projective, dimension 0")
    else:
        report.add_hypothesis("coefficient has finite projective dimension", UNVERIFIED,
                              detail="not decidable by truncated linear algebra")
    report.add_hypothesis("K -> C splits B-linearly",
                          PASS if ses.b_splitting is not None else FAIL)
    certified = report.hypotheses_certified

    Kmc = ses.k_module_coalgebra()
    f = B.field
    c, q, k = C.dim, ses.quotient.dim, Kmc.dim
    I_c, I_k, I_q = (Matrix.identity(f, n) for n in (c, k, q))
    depth_k, depth_c, depth_q = _excision_depths(+1, maxdeg)
    proj, incl = ses.projection, ses.K
    from . import regular  # imported here: it adds to every start-up otherwise

    W_K, W_C, W_Q = regular.free_bases(X, Kmc, C, ses.quotient) or (None,) * 3

    # each distinct complex is built once, at the deepest depth any consumer
    # needs; CH(K), CH(C) and CH(C/K) with tau
    T_C_q = coinvariant_ch(C, X, depth_c, _quotient_bicomodule(ses), W_Q)  # CH(C, C/K)
    T_q_q = coinvariant_ch(ses.quotient, X, depth_q, W=W_Q)  # CH(C/K)
    T_K = coinvariant_ch(Kmc, X, depth_k, W=W_K)  # CH(K)
    T_C_k = coinvariant_ch(C, X, depth_c, _sub_bicomodule(ses), W_K)  # CH(C, K)
    T_C_C = coinvariant_ch(C, X, depth_c, W=W_C)  # CH(C)

    # intermediate weak equivalence: CH(C, C/K) -> CH(C/K)
    _, h1_ok = cone_quasi_iso(_comparison(T_C_q, T_q_q, X, I_q, proj), maxdeg)
    report.add_hypothesis("weak equivalence CH(C, C/K; X) -> CH(C/K; X)",
                          PASS if all(h1_ok) else FAIL, window=window)

    # intermediate weak equivalence: CH(K) -> CH(C, K)
    _, h2_ok = cone_quasi_iso(_comparison(T_K.truncate(depth_c), T_C_k, X, I_k, incl), maxdeg)
    report.add_hypothesis("weak equivalence CH(K; X) -> CH(C, K; X)",
                          PASS if all(h2_ok) else FAIL, window=window)

    # Hochschild-level short exact sequence of coefficient complexes
    g1 = _comparison(T_C_k, T_C_C, X, incl, I_c)
    g2 = _comparison(T_C_C, T_C_q, X, proj, I_c)
    ses_exact = True
    for n in range(maxdeg + 1):
        dk = T_C_k.dims[n]
        dc = T_C_C.dims[n]
        dq = T_C_q.dims[n]
        r1 = rank(g1.components[n])
        r2 = rank(g2.components[n])
        if not (g2.components[n].mul(g1.components[n]).is_zero()
                and dc == dk + dq and r1 == dk and r2 == dq and dc - r2 == r1):
            ses_exact = False
    report.add_hypothesis("coefficient sequence exact after coinvariants",
                          PASS if ses_exact else FAIL, window=window)
    # each step below reads less than the one before; what none reads is dropped
    del T_C_q, T_C_k, g1, g2

    # Hochschild-level cofibration CH(K) -> CH(C) -> CH(C/K)
    u_h = _comparison(T_K, T_C_C, X, incl, incl)
    v_h = _comparison(T_C_C, T_q_q, X, proj, proj)
    hoch_ok = cofibration_verdicts(u_h, v_h, maxdeg)

    cyc_ok, dims = _cyclic_excision([T_K, T_C_C, T_q_q], [u_h, v_h], hoch_ok, maxdeg)
    _add_degrees(report, ("K", "C", "C/K"), dims, [h and c for h, c in zip(hoch_ok, cyc_ok)],
                 certified)
    return report


def _add_degrees(report, names, dims, verdicts, certified):
    """A degree row per verdict, each module's dims by name; UNVERIFIED unless ``certified``."""
    for n, ok in enumerate(verdicts):
        report.add_degree(n, {name: d[n] for name, d in zip(names, dims)},
                          (PASS if ok else FAIL) if certified else UNVERIFIED)
    if not certified:
        report.notes.append("conclusion left unasserted: hypotheses not fully certified")


def _cyclic_excision(mods, maps, hoch_ok, maxdeg):
    """Cyclic verdicts of the triple ``mods`` through ``maxdeg``, and each module's dims.

    ``mods`` is CM(K) -> CM(C) -> CM(C/K) (cochain, s = 1) or
    CM(I) -> CM(A) -> CM(A/I) (chain, s = 0); ``maps`` holds u and v, the
    checked Hochschild chain maps, and ``hoch_ok`` their
    :func:`cofibration_verdicts`. The verdicts are those of
    D = :func:`mapping_cone` ``(u_tot, v_tot)``, the triple complex of the
    (b, b', 1 - lambda, N) totals and the maps of :func:`total_chain_map`,
    derived without D by Connes' column filtration (Loday, *Cyclic
    Homology*, 2.2):

    - u_tot and v_tot put u_q and v_q on each block (p, q), and the
      horizontal maps raise p (cochain) or lower it (chain), so the columns
      p >= r, or p <= r, form a subcomplex F_r. gr_p D in degree m is the
      triple of column p in degree m - p: of b for even p, of -b' for odd
      p, which (x, y, z) -> (x, -y, z) carries onto that of b' negated. D
      in degree m meets columns p <= m only, so the exact sequences of
      0 -> F_{p+1} -> F_p -> gr_p -> 0 taken down from F_{m+1} D^m = 0
      (cochain), or of 0 -> F_{p-1} -> F_p -> gr_p -> 0 taken up from
      F_{-1} = 0 to F_{m+1}, which agrees with D through m + 1 (chain),
      leave D no homology at m where no gr_p has any. The verdict at n
      reads D through n + 1 + s: column 0 as ``hoch_ok[n]`` does, column 1,
      the b' triple, through n + s, and column p >= 2 p degrees lower.
    - Column p of each total reaches its module's depth minus p. Column 1
      is the b' triple of the modules one degree shallower, built here;
      every other column truncates one of the two triples above the
      degrees read.
    - D is a complex where the block squares that its homology through
      maxdeg + 1 + s reads commute: those of u_tot out of total degrees
      t <= maxdeg + 1 and of v_tot out of t <= maxdeg (cochain), or
      t <= maxdeg and t <= maxdeg + 1 (chain). Vertically that is u b = b u,
      which ``u`` passed, and u b' = b' u in odd columns, q <= t - 1, which
      the ChainMaps onto the b' complexes check. Horizontally it is
      1 - lambda and N, polynomials in lambda = (-1)^q tau, for
      q <= t - 1 + s: u_q tau = tau u_q through q = maxdeg + 1 (cochain) or
      maxdeg - 1 (chain) and v's through maxdeg, checked. A cocyclic module
      carries tau through its depth minus one (:class:`CocyclicModule`), a
      cyclic module in every degree; one that carries fewer is refused with
      DegreeOutOfRange. v u = 0 is checked on the shared components, a
      missing component is a zero block, and each total's bicomplex
      identities follow from its module's.

    Where a derived verdict fails, the bicomplex triple decides, so every
    verdict is D's. The dims read each total through maxdeg + 1, the
    fallback's through its module's depth. ``mods`` and ``maps`` are
    emptied once the totals are built: a caller that keeps no other
    reference frees the modules and the Hochschild complexes before any
    total is ranked.
    """
    s = 1 if maps[0].orientation == +1 else 0
    comps = [f.components for f in maps]
    bars = [_hochschild_complex(T.truncate(T.top - 1), drop_last=True) for T in mods]
    bar_maps = []
    for i, reach in enumerate((maxdeg - 1 + 2 * s, maxdeg)):  # u's reach, v's
        top = min(bars[i].top, bars[i + 1].top)
        bar_maps.append(ChainMap(bars[i], bars[i + 1],
                                 {n: c for n, c in comps[i].items() if n <= top}))
        _tau_through(mods[i], reach, "the cyclic excision verdict")
        _tau_through(mods[i + 1], reach, "the cyclic excision verdict")
        for n in range(reach + 1):
            c = comps[i].get(n)
            if c is not None and c.mul(mods[i].tau[n]) != mods[i + 1].tau[n].mul(c):
                raise ShapeMismatch(f"chain map does not commute with tau at degree {n}")
    bar_ok = _triple_vanishing(*bar_maps, maxdeg + s, maxdeg)
    del bars, bar_maps
    cyc_ok = [hoch_ok[n] and bar_ok[n + s] for n in range(maxdeg + 1)]
    derived = all(cyc_ok)
    tots = [cyclic_total_complex(T, maxdeg + 1 if derived else T.top) for T in mods]
    # no (co)face, tau or inclusion of a module and no Hochschild complex is read past here
    mods.clear()
    maps.clear()
    if not derived:
        cyc_ok = cofibration_verdicts(*(total_chain_map(*tots[i:i + 2], comps[i]) for i in (0, 1)),
                                      maxdeg)
    return cyc_ok, [complex_homology(t, maxdeg) for t in tots]


# ---------------------------------------------------------------------------
# Excision, algebra side
# ---------------------------------------------------------------------------


class AlgebraSES:
    """0 -> I -> A -> A/I -> 0 of comodule algebras, validated."""

    def __init__(self, A, I_gens):
        B = A.over
        f = B.field
        n = A.dim
        if I_gens.rows != n:
            raise ShapeMismatch("ideal generators do not live in A")
        self.A = A
        self.I = _two_sided_ideal_closure(A.base, I_gens)
        # the quotient coaction is representative-dependent unless the ideal
        # is a right B-subcomodule, so this is a construction precondition;
        # the check is the solve that restricts the coaction to I
        coact_i = solve_columns(self.I.kron(Matrix.identity(f, B.dim)),
                                A.coaction.mul(self.I))
        self.subcomodule = coact_i is not None
        if not self.subcomodule:
            raise ShapeMismatch(
                "ideal closure is not a B-subcomodule; the quotient carries no "
                "induced coaction")
        self.space = QuotientSpace(f, n, self.I.columns())
        proj, sec = self.space.projection, self.space.section
        qd = self.space.dim
        mult_q = proj.mul(A.base.mult).mul(sec.kron(sec))
        unit_q = proj.mul(A.base.unit) if A.base.unit is not None else None
        qdesc = BialgebraDesc(f, [f"q{i}" for i in range(qd)], "algebra",
                              mult=mult_q, unit=unit_q)
        coact_q = proj.kron(Matrix.identity(f, B.dim)).mul(A.coaction).mul(sec)
        self.quotient = ComoduleAlgebra(qdesc, B, coact_q)
        # I as a (non-unital) comodule algebra in its own right
        idim = self.I.cols
        mult_i = solve_columns(self.I, A.base.mult.mul(self.I.kron(self.I)))
        if mult_i is None:
            raise ShapeMismatch("ideal is not closed under multiplication")
        idesc = BialgebraDesc(f, [f"i{j}" for j in range(idim)], "algebra", mult=mult_i)
        self.ideal = ComoduleAlgebra(idesc, B, coact_i, check=False)

    @property
    def projection(self):
        return self.space.projection


def h_unitality_probe(alg_desc, maxdeg):
    """Homology H_1..H_maxdeg of the algebra bar complex (I^{(x) n}, b').

    Its b'_{n+1} is the transpose of the differential out of degree n - 1
    of the bar complex of the dual coalgebra (comultiplication the
    transpose of I's product, no counit), and b'_1 = 0, so H_n has the dim
    of H^{n-1} there (:func:`equivariant.h_counitality_probe`).
    """
    dual = BialgebraDesc(alg_desc.field, alg_desc.basis, "coalgebra",
                         comult=alg_desc.mult.transpose(), check=False)
    return h_counitality_probe(dual, maxdeg - 1)


def _verify_excision_algebra(ses, X, maxdeg):
    report = TheoremReport("excision/algebra")
    A = ses.A
    B = A.over
    window = f"0..{maxdeg}"
    _add_hopf_hypotheses(report.add_hypothesis, B, X)
    report.add_hypothesis("A unital", PASS if A.base.unit is not None else FAIL)
    report.add_hypothesis("I is a B-subcomodule", PASS if ses.subcomodule else FAIL)
    # H_1..H_{maxdeg+1}: the tensor powers 1..maxdeg+1 that the coalgebra probe reads too
    hdims = h_unitality_probe(ses.ideal.base, maxdeg + 1)
    report.add_hypothesis("I H-unital", PASS if all(d == 0 for d in hdims) else FAIL,
                          window=window)
    if find_integral(B, "integral") is not None:
        report.add_hypothesis("I and A co-projective over B", PASS,
                              detail="normalized integral exists, B co-semi-simple")
    else:
        report.add_hypothesis("I and A co-projective over B", UNVERIFIED,
                              detail="UNVERIFIED-HYPOTHESIS: no integral found; "
                                     "only the integral criterion is implemented")

    # chain orientation: A/I is read one degree deeper than I and A
    mods = [assemble("algebra", M, X, depth)
            for M, depth in zip((ses.ideal, A, ses.quotient), _excision_depths(-1, maxdeg))]
    maps = [ChainMap(mods[i].complex, mods[i + 1].complex,
                     _cyclic_map_components(mods[i], mods[i + 1], X, slot_map,
                                            min(mods[i].top, mods[i + 1].top)))
            for i, slot_map in enumerate((ses.I, ses.projection))]
    cyc_ok, dims = _cyclic_excision(mods, maps, cofibration_verdicts(*maps, maxdeg), maxdeg)
    _add_degrees(report, ("I", "A", "A/I"), dims, cyc_ok, report.hypotheses_certified)
    return report


def _cyclic_map_components(src_cm, dst_cm, X, slot_map, top):
    """Restrict slot_map^{(x) n+1} (x) id_X to the cotensor subspaces."""
    f = src_cm.field
    I_x = Matrix.identity(f, X.dim)
    comps = {}
    for n in range(top + 1):
        amb = _tensor_power(slot_map, n + 1, f).kron(I_x)
        img = amb.mul(src_cm.inclusions[n])
        small = restrict(dst_cm.inclusions[n], img)
        if small is None:
            raise ShapeMismatch(f"cyclic morphism leaves the cotensor subspace at degree {n}")
        comps[n] = small
    return comps


# ---------------------------------------------------------------------------
# Relative cyclic homology
# ---------------------------------------------------------------------------


def relative_hc(C, K_gens, X, mode, maxdeg):
    """Relative cyclic dimensions in cokernel or quotient formulation.

    Returns (dims, report). When the comparison theorem's hypotheses all
    certify, the other formulation is computed too and equality of dims is
    asserted per degree, any mismatch being reported as a counterexample
    candidate.
    """
    if mode not in ("cokernel", "quotient"):
        raise ShapeMismatch(f"unknown relative mode {mode!r}")
    report = TheoremReport(f"relative/{mode}")
    from .equivariant import quotient_ses

    try:
        ses = quotient_ses(C, K_gens, "subcoalgebra")
    except NotSubcoalgebra:
        if mode == "cokernel":
            raise
        ses = quotient_ses(C, K_gens, "coideal")
    if ses.b_splitting is None:
        report.notes.append(
            "NonMonomorphismWarning: K -> C is not B-split; the canonical morphism "
            "of cocyclic modules need not be injective")
    depth = maxdeg + 1
    if mode == "quotient":
        dims = homology(assemble_for_homology("coalgebra", ses.quotient, X, depth), "cyclic",
                        maxdeg)
    else:
        dims = _cokernel_cyclic_dims(ses, X, maxdeg)

    hyps_ok = _relative_hypotheses(ses, X, maxdeg, report)
    if hyps_ok and ses.mode == "subcoalgebra":
        other = (_cokernel_cyclic_dims(ses, X, maxdeg) if mode == "quotient"
                 else homology(assemble_for_homology("coalgebra", ses.quotient, X, depth),
                               "cyclic", maxdeg))
        for n in range(maxdeg + 1):
            agree = dims[n] == other[n]
            report.add_degree(n, {"this": dims[n], "other": other[n]},
                              PASS if agree else FAIL)
            if not agree:
                report.witness = {"degree": n, "cokernel_vs_quotient": [dims[n], other[n]],
                                  "note": "counterexample candidate"}
    else:
        for n in range(maxdeg + 1):
            report.add_degree(n, {"this": dims[n]}, UNVERIFIED)
        report.notes.append("comparison not asserted: hypotheses not fully certified")
    return dims, report


def _relative_hypotheses(ses, X, maxdeg, report):
    B = ses.C.over
    ok = True

    def add(name, verdict, **kw):
        nonlocal ok
        report.add_hypothesis(name, verdict, **kw)
        if verdict != PASS:
            ok = False

    _add_hopf_hypotheses(add, B, X)
    add("K is a subcoalgebra", PASS if ses.mode == "subcoalgebra" else FAIL)
    _coalgebra_rows(add, ses, maxdeg)
    add("coefficient has finite projective dimension",
        PASS if is_projective(B, X.action, X.dim) else UNVERIFIED)
    return ok


def _cokernel_cyclic_dims(ses, X, maxdeg):
    """Cyclic dims of the degreewise cokernel of CM(K) -> CM(C).

    Only the Hochschild comparison is read of CM(K), so :func:`coinvariant_ch`
    builds it as CH(K, K; X), with no tau, on either path; the descended
    CM(C) is built first, so that an unstable X is refused before CM(K) is
    built. Between models the comparison reads only the two untwists, so
    the quotients exist before CM(C) is built, and its cofaces are induced
    on them (:func:`descend_degree`) as ``regular.free_model`` builds them.
    """
    from . import regular  # imported here: it adds to every start-up otherwise

    depth = maxdeg + 1
    Kmc = ses.k_module_coalgebra()
    W_K, W_C = regular.free_bases(X, Kmc, ses.C) or (None, None)
    cm_C = coinvariant_ch(ses.C, X, depth) if W_C is None else None
    cm_K = coinvariant_ch(Kmc, X, depth, regular_bicomodule(Kmc), W_K)
    if W_C is None:
        comps = _comparison(cm_K, cm_C, X, ses.K, ses.K).components
    else:
        u_C = regular.Untwist(ses.C, X, W_C)
        comps = dict(enumerate(cm_K.untwist.comparison(u_C, ses.K, ses.K, depth)))
    coker = [QuotientSpace(cm_K.field, comps[n].rows, comps[n].columns())
             for n in range(depth + 1)]
    if W_C is None:
        cofaces = [descend_degree(n, cm_C.cofaces[n], coker) for n in range(depth)]
    else:
        cofaces = []
        cm_C = regular.free_model(ses.C, X, W_C, depth, each=lambda n, faces: cofaces.append(
            descend_degree(n, faces, coker)))
        ChainMap(cm_K.complex, cm_C.complex, comps)
    cm = CocyclicModule(cm_K.field, cm_K.over, [q.dim for q in coker], cofaces, quotients=coker)
    return homology(cm.with_tau(cm_C.tau), "cyclic", maxdeg)


# ---------------------------------------------------------------------------
# Group homology oracle
# ---------------------------------------------------------------------------


def group_homology(table, field, maxdeg):
    """H_*(G; k) from the inhomogeneous bar resolution, exactly.

    Independent of the cyclic machinery; this is the oracle the group
    example is compared against.
    """
    _validate_group_table(table)
    g = len(table)
    f = field
    one = f.one
    dims = [g**n for n in range(maxdeg + 2)]
    diffs = {}
    for n in range(1, maxdeg + 2):
        ents = {}

        def add_entry(r, c, v):
            w = f.add(ents.get((r, c), f.zero), v)
            if w == f.zero:
                ents.pop((r, c), None)
            else:
                ents[(r, c)] = w

        for col in range(g**n):
            tup = []
            rem = col
            for k in range(n):
                tup.append(rem // (g ** (n - 1 - k)) % g)
            # first face drops the leading letter
            row = 0
            for k in range(1, n):
                row = row * g + tup[k]
            add_entry(row, col, one)
            s = one
            for i in range(1, n):
                s = f.neg(s)
                merged = tup[:i - 1] + [table[tup[i - 1]][tup[i]]] + tup[i + 1:]
                row = 0
                for v in merged:
                    row = row * g + v
                add_entry(row, col, s)
            s = f.neg(s) if n > 1 else f.neg(one)
            # last face drops the final letter
            row = 0
            for k in range(n - 1):
                row = row * g + tup[k]
            add_entry(row, col, s)
        diffs[n] = Matrix.from_entries(f, dims[n - 1], dims[n],
                                       [(r, c, v) for (r, c), v in ents.items()])
    cx = GradedComplex(f, -1, dims, diffs)
    return [cx.homology(n) for n in range(maxdeg + 1)]


# ---------------------------------------------------------------------------
# Special checks
# ---------------------------------------------------------------------------


def special_checks(kind, params, maxdeg):
    """Additivity, the (co)commutative reductions, and the group example."""
    if kind == "additivity":
        return _check_additivity(params, maxdeg)
    if kind == "commutative_hopf":
        return _check_commutative_hopf(params, maxdeg)
    if kind == "cocommutative_hopf":
        return _check_cocommutative_hopf(params, maxdeg)
    if kind == "group_example":
        return _check_group_example(params, maxdeg)
    raise ShapeMismatch(f"unknown special check {kind!r}")


def _check_additivity(params, maxdeg):
    from .equivariant import direct_sum_module_coalgebras

    C1, C2, X = params["C1"], params["C2"], params["X"]
    report = TheoremReport("additivity")
    B = C1.over
    report.add_hypothesis("coefficient stable", PASS if X.stable else FAIL)
    report.add_hypothesis("coefficient anti-Yetter-Drinfeld", PASS if X.ayd else FAIL)
    for name, mc in (("first summand", C1), ("second summand", C2)):
        report.add_hypothesis(f"{name} counital",
                              PASS if mc.base.counit is not None else FAIL)
        report.add_hypothesis(f"{name} projective over B",
                              PASS if is_projective(B, mc.action, mc.dim) else FAIL)
    certified = report.hypotheses_certified
    depth = maxdeg + 1
    Csum = direct_sum_module_coalgebras(C1, C2)
    d1, d2, ds = (homology(assemble_for_homology("coalgebra", mc, X, depth), "cyclic", maxdeg)
                  for mc in (C1, C2, Csum))
    for n in range(maxdeg + 1):
        ok = ds[n] == d1[n] + d2[n]
        report.add_degree(n, {"sum": ds[n], "parts": [d1[n], d2[n]]},
                          (PASS if ok else FAIL) if certified else UNVERIFIED)
    return report


def _bialgebra_ideal_checks(B, J_basis, report, want_antipode_stable=False):
    """Two-sided ideal, two-sided coideal, counit kills J; optionally S J = J."""
    f = B.field
    n = B.dim
    ideal_ok = all(solve_columns(J_basis, L.mul(J_basis).hstack(R.mul(J_basis))) is not None
                   for L, R in zip(*B.multiplication_operators))
    report.add_hypothesis("J is a two-sided ideal", PASS if ideal_ok else FAIL)
    mixed = J_basis.kron(Matrix.identity(f, n)).hstack(Matrix.identity(f, n).kron(J_basis))
    coideal_ok = solve_columns(mixed, B.comult.mul(J_basis)) is not None
    report.add_hypothesis("J is a two-sided coideal", PASS if coideal_ok else FAIL)
    eps_ok = B.counit.mul(J_basis).is_zero()
    report.add_hypothesis("counit vanishes on J", PASS if eps_ok else FAIL)
    if want_antipode_stable and B.antipode is not None:
        s_ok = solve_columns(J_basis, B.antipode.mul(J_basis)) is not None
        report.add_hypothesis("antipode preserves J", PASS if s_ok else FAIL)
    return ideal_ok and coideal_ok and eps_ok


def _quotient_bialgebra(B, J_basis):
    """B/J as a bialgebra (Hopf when the antipode descends)."""
    f = B.field
    n = B.dim
    space = QuotientSpace(f, n, J_basis.columns())
    proj, sec = space.projection, space.section
    qd = space.dim
    mult_q = proj.mul(B.mult).mul(sec.kron(sec))
    comult_q = proj.kron(proj).mul(B.comult).mul(sec)
    unit_q = proj.mul(B.unit)
    counit_q = B.counit.mul(sec)
    antipode_q = map_well_defined(B.antipode, space, space) if B.antipode is not None else None
    level = "hopf" if antipode_q is not None else "bialgebra"
    names = [f"q{i}" for i in range(qd)]
    desc = BialgebraDesc(f, names, level, mult=mult_q, comult=comult_q, unit=unit_q,
                         counit=counit_q, antipode=antipode_q)
    return desc, space


def _check_commutative_hopf(params, maxdeg):
    B, J_gens, X = params["B"], params["J"], params["X"]
    report = TheoremReport("commutative-hopf reduction")
    f = B.field
    J_basis = column_basis(J_gens)
    _bialgebra_ideal_checks(B, J_basis, report)
    # the action-splitting premise: z . x = 0 for z in J
    kills = all(
        action_of_vector(B, X.action, X.dim, col).is_zero()
        for col in J_basis.columns())
    report.add_hypothesis("J annihilates the coefficient", PASS if kills else FAIL)
    report.add_hypothesis("coefficient stable", PASS if X.stable else FAIL)
    certified = report.hypotheses_certified
    if not certified:
        report.notes.append("reduction not attempted: hypotheses failed")
        return report

    qdesc, space = _quotient_bialgebra(B, J_basis)
    proj, sec = space.projection, space.section
    depth = maxdeg + 1

    # triple over B: C = B/J with the action through the quotient map
    act_over_B = proj.mul(B.mult).mul(Matrix.identity(f, B.dim).kron(sec))
    C_over_B = ModuleCoalgebra(qdesc, B, act_over_B)
    cm_B = assemble("coalgebra", C_over_B, X, depth)

    # triple over B/J with the transported coefficient
    act_x_q = X.action.mul(sec.kron(Matrix.identity(f, X.dim)))
    coact_x_q = proj.kron(Matrix.identity(f, X.dim)).mul(X.coaction)
    X_q = ModComod(qdesc, X.dim, act_x_q, coact_x_q)
    report.add_hypothesis("transported coefficient stable", PASS if X_q.stable else FAIL)
    C_over_Q = regular_module_coalgebra(qdesc)
    cm_Q = assemble("coalgebra", C_over_Q, X_q, depth)

    same_spaces = cm_B.dims == cm_Q.dims
    same_maps = same_spaces and all(
        cm_B.cofaces[n][j] == cm_Q.cofaces[n][j]
        for n in range(depth) for j in range(n + 2)) and cm_B.tau == cm_Q.tau
    report.add_hypothesis("triples over B and over B/J literally coincide",
                          PASS if same_maps else FAIL)

    hc = homology(cm_Q, "cyclic", maxdeg)
    hh = homology(cm_Q, "hochschild", maxdeg)
    for n in range(maxdeg + 1):
        expected = sum(hh[n - 2 * i] for i in range(n // 2 + 1))
        ok = hc[n] == expected
        report.add_degree(n, {"HC": hc[n], "sum_HH": expected}, PASS if ok else FAIL)
    return report


def _group_like_splitting(B, space):
    """Coalgebra section of B ->> B/K through group-like representatives."""
    f = B.field
    n = B.dim
    proj = space.projection
    qd = space.dim
    group_likes = []
    eps = B.counit.rowdict.get(0, {})
    for i in range(n):
        col = B.comult.col(i)
        if col == {i * n + i: f.one} and eps.get(i, f.zero) == f.one:
            group_likes.append(i)
    reps = {}
    for g in group_likes:
        img = proj.col(g)
        if len(img) == 1:
            (j, v), = img.items()
            if v == f.one and j not in reps:
                reps[j] = g
    if len(reps) != qd:
        return None
    s = Matrix.from_entries(f, n, qd, [(g, j, f.one) for j, g in reps.items()])
    # verify: section, coalgebra morphism
    if proj.mul(s) != Matrix.identity(f, qd):
        return None
    comult_q = proj.kron(proj).mul(B.comult).mul(space.section)
    if B.comult.mul(s) != s.kron(s).mul(comult_q):
        return None
    counit_q = B.counit.mul(space.section)
    if B.counit.mul(s) != counit_q:
        return None
    return s


def _restriction_to_ideal(B, K_basis, X):
    """The equalizer K box_B X inside K (x) X (zero iff the restriction vanishes)."""
    f = B.field
    n = B.dim
    kd = K_basis.cols
    lhs = B.comult.mul(K_basis).kron(Matrix.identity(f, X.dim))
    rhs = K_basis.kron(X.coaction)
    _, ker = rank_kernel(lhs.sub(rhs))
    return ker.cols


def _cocommutative_core(B, K_basis, X, maxdeg, report):
    """Shared machinery of the cocommutative reduction and the group example.

    Returns (hc_dims, hh_dims) of the dual theory of the triple
    (B/K, B, X), computed through the literal identification with the
    triple over B/K, or None when a hypothesis fails.
    """
    f = B.field
    res_dim = _restriction_to_ideal(B, K_basis, X)
    report.add_hypothesis("restriction of the coefficient to K vanishes",
                          PASS if res_dim == 0 else FAIL)
    qdesc, space = _quotient_bialgebra(B, K_basis)
    proj, sec = space.projection, space.section
    s = _group_like_splitting(B, space)
    if s is None:
        report.add_hypothesis("quotient splits as a coalgebra morphism", UNVERIFIED,
                              detail="no group-like section found; general bilinear "
                                     "solvability is out of scope")
        return None
    report.add_hypothesis("quotient splits as a coalgebra morphism", PASS)

    I_x = Matrix.identity(f, X.dim)
    # transported coefficient over B/K
    coact_q = proj.kron(I_x).mul(X.coaction)
    if s.kron(I_x).mul(coact_q) != X.coaction:
        report.add_hypothesis("coefficient coaction factors through the section", FAIL)
        return None
    report.add_hypothesis("coefficient coaction factors through the section", PASS)
    act_q = X.action.mul(s.kron(I_x))
    X_q = ModComod(qdesc, X.dim, act_q, coact_q)
    q_assoc = act_q.mul(Matrix.identity(f, qdesc.dim).kron(act_q)) == \
        act_q.mul(qdesc.mult.kron(I_x))
    report.add_hypothesis("transported action associative over B/K",
                          PASS if q_assoc else FAIL)
    report.add_hypothesis("transported coefficient stable", PASS if X_q.stable else FAIL)
    if not (q_assoc and X_q.stable):
        return None

    depth = maxdeg + 1
    A_q = regular_comodule_algebra(qdesc)
    cm = assemble("algebra", A_q, X_q, depth)

    def over_b(blocks):
        """The blocks of (id (x) s) rho over B: block r is sum_p s[r, p] C_p."""
        amb = blocks[0].cols
        return [functools.reduce(Matrix.add, [blocks[p].scale(v) for p, v in row.items()],
                                 Matrix.zero(f, amb, amb))
                for row in (s.rowdict.get(r, {}) for r in range(B.dim))]

    # literal identity of the two cotensor conditions, degreewise; the
    # inclusions of cm are the kernels over B/K, read off these same blocks
    coactions = total_coactions(A_q, X_q, depth)
    same = all(K == comodule_coinvariants(B.unit, over_b(blocks))
               for K, blocks in zip(cm.inclusions, coactions, strict=True))
    report.add_hypothesis("cotensor conditions over B and B/K literally coincide",
                          PASS if same else FAIL)
    hc = homology(cm, "cyclic", maxdeg)
    hh = homology(cm, "hochschild", maxdeg)
    return hc, hh


def _check_cocommutative_hopf(params, maxdeg):
    B, K_gens, X = params["B"], params["K"], params["X"]
    report = TheoremReport("cocommutative-hopf reduction")
    K_basis = column_basis(K_gens)
    bi_ideal = _bialgebra_ideal_checks(B, K_basis, report, want_antipode_stable=True)
    out = _cocommutative_core(B, K_basis, X, maxdeg, report) if bi_ideal else None
    if out is None:
        report.notes.append("reduction not attempted: hypotheses failed")
        return report
    hc, hh = out
    for n in range(maxdeg + 1):
        expected = sum(hh[n - 2 * i] for i in range(n // 2 + 1))
        report.add_degree(n, {"HC": hc[n], "sum_HH": expected},
                          PASS if hc[n] == expected else FAIL)
    return report


def _two_sided_ideal_closure(B, gens):
    """Span closure of generator columns under left/right multiplication."""
    n = B.dim
    left, right = B.multiplication_operators
    ech = Echelon(B.field)
    for col in gens.columns():
        ech.insert(col)
    grew = True
    while grew:
        grew = False
        basis = ech.basis(n)
        for L, R in zip(left, right):
            for M in (L, R):  # this order fixes the echelon rows, hence the basis
                for col in M.mul(basis).columns():
                    if col and ech.insert(col):
                        grew = True
    return ech.basis(n)


def coset_table(table, subgroup):
    """Multiplication table of G/H for a normal subgroup H (by indices)."""
    ident = _validate_group_table(table)
    n = len(table)
    H = sorted(set(subgroup))
    if ident not in H:
        raise NotAGroup("subgroup must contain the identity")
    for h1 in H:
        for h2 in H:
            if table[h1][h2] not in H:
                raise NotAGroup("subset is not closed under multiplication")
    inv = [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]
    for h in H:
        if inv[h] not in H:
            raise NotAGroup("subset is not closed under inverses")
    for g in range(n):
        for h in H:
            if table[table[g][h]][inv[g]] not in H:
                raise NotAGroup("subgroup is not normal")
    cosets = []
    seen = set()
    for g in range(n):
        if g in seen:
            continue
        coset = frozenset(table[g][h] for h in H)
        seen |= coset
        cosets.append(coset)
    index = {}
    for ci, coset in enumerate(cosets):
        for g in coset:
            index[g] = ci
    qtable = [[index[table[min(a)][min(b)]] for b in cosets] for a in cosets]
    return qtable, index


def _check_group_example(params, maxdeg):
    table = params["table"]
    subgroup = params["subgroup"]
    field = params["field"]
    report = TheoremReport("group example")
    B = group_algebra(table, field)
    f = field
    n = B.dim
    ident = _validate_group_table(table)
    if not isinstance(subgroup, list) or any(not isinstance(h, int) or not 0 <= h < n
                                             for h in subgroup):
        raise NotAGroup(f"subgroup must be a list of element indices below {n}")
    gens_entries = []
    for col, h in enumerate(sorted(set(subgroup))):
        gens_entries.append((h, col, f.one))
        gens_entries.append((ident, col, f.neg(f.one)))
    gens = Matrix.from_entries(f, n, len(set(subgroup)), gens_entries)
    K_basis = _two_sided_ideal_closure(B, gens)
    _bialgebra_ideal_checks(B, K_basis, report, want_antipode_stable=True)
    X = make_coefficient("eps", B)
    out = _cocommutative_core(B, K_basis, X, maxdeg, report)
    if out is None:
        report.notes.append("pipeline aborted: hypotheses failed")
        return report
    hc, _ = out
    qtable, _ = coset_table(table, subgroup)
    gh = group_homology(qtable, field, maxdeg)
    for deg in range(maxdeg + 1):
        expected = sum(gh[deg - 2 * i] for i in range(deg // 2 + 1))
        report.add_degree(deg, {"HC": hc[deg], "oracle": expected},
                          PASS if hc[deg] == expected else FAIL)
    return report
