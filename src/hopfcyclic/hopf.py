"""Structure-constant (co/bi/Hopf) algebras with exact axiom audits.

A :class:`BialgebraDesc` packages the multiplication and comultiplication
tensors of a finite-dimensional object as sparse matrices once a basis is
fixed: mult is dim x dim^2, comult is dim^2 x dim, with tensor index
``(i, j) -> i * dim + j``. Every axiom a level requires is verified as an
exact equality of composed matrices at construction time; failures come with
a witness basis tuple.
"""

import functools

from .errors import AuditFailed, MissingAntipodeInverse, NotAGroup, ParseError, ShapeMismatch
from .fields import field_by_name
from .linalg import Matrix, SubSpace, invert, solve_columns, wire

LEVELS = ("algebra", "coalgebra", "bialgebra", "hopf")


class AxiomCheck:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        if self.passed:
            return f"{self.name}: pass"
        return f"{self.name}: FAIL at {self.witness}"


class AxiomReport:
    """Per-axiom verdicts; a failing check carries one witness basis tuple."""

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        return "\n".join(repr(c) for c in self.checks)

    def to_json(self):
        return [
            {"axiom": c.name, "verdict": "pass" if c.passed else "fail",
             **({"witness": list(c.witness)} if c.witness else {})}
            for c in self.checks
        ]


def _decode_index(idx, dim, arity):
    out = []
    for _ in range(arity):
        out.append(idx % dim)
        idx //= dim
    return tuple(reversed(out))


def _compare(name, lhs, rhs, basis, arity):
    """Equality check of two composed matrices; witness = first bad column."""
    diff = lhs.sub(rhs)
    if diff.is_zero():
        return AxiomCheck(name, True)
    bad = min(j for row in diff.rowdict.values() for j in row)
    witness = tuple(basis[i] for i in _decode_index(bad, len(basis), arity))
    return AxiomCheck(name, False, witness)


class BialgebraDesc:
    """A finite-dimensional algebra/coalgebra/bialgebra/Hopf algebra.

    Immutable after construction. ``mult``/``comult``/``unit``/``counit``
    are present as the level demands (unit and counit may be absent below
    bialgebra level, matching non-unital algebras and non-counital
    coalgebras). ``antipode_inv`` is an optional given inverse of the
    antipode, audited and serialized; ``inverse_antipode`` and
    ``algebra_generators`` are derived on first use and kept, leaving every
    given field and :meth:`to_json` as they were.
    """

    def __init__(self, field, basis, level, mult=None, comult=None, unit=None,
                 counit=None, antipode=None, antipode_inv=None, check=True):
        if level not in LEVELS:
            raise ParseError(f"unknown level {level!r}")
        self.field = field
        self.basis = list(basis)
        self.dim = len(self.basis)
        self.level = level
        self.mult = mult
        self.comult = comult
        self.unit = unit
        self.counit = counit
        self.antipode = antipode
        self.antipode_inv = antipode_inv
        self._shape_check()
        if check:
            report = audit(self, level)
            if not report.ok:
                raise AuditFailed(report)

    def _shape_check(self):
        d = self.dim
        shapes = [
            ("mult", self.mult, (d, d * d)),
            ("comult", self.comult, (d * d, d)),
            ("unit", self.unit, (d, 1)),
            ("counit", self.counit, (1, d)),
            ("antipode", self.antipode, (d, d)),
            ("antipode_inv", self.antipode_inv, (d, d)),
        ]
        for name, m, (r, c) in shapes:
            if m is not None and (m.rows, m.cols) != (r, c):
                raise ShapeMismatch(f"{name} must be {r}x{c}, got {m.rows}x{m.cols}")
        need = {
            "algebra": ("mult",),
            "coalgebra": ("comult",),
            "bialgebra": ("mult", "comult", "unit", "counit"),
            "hopf": ("mult", "comult", "unit", "counit", "antipode"),
        }[self.level]
        for name in need:
            if getattr(self, name) is None:
                raise ShapeMismatch(f"level {self.level} requires {name}")

    # -- convenience ---------------------------------------------------

    def identity_matrix(self):
        return Matrix.identity(self.field, self.dim)

    @functools.cached_property
    def algebra_generators(self):
        """Basis indices g_i that generate this unital algebra.

        Exact span closure, greedy in basis order: e_i becomes a generator
        unless it already lies in the span of the words in the earlier
        generators, and that span is then closed again under left
        multiplication by every generator. Computed on first use and kept.
        """
        f, d = self.field, self.dim
        left = self.mult.column_blocks(d)  # left[i]: a -> e_i a
        span, words, gens = SubSpace(f, d), [], []

        def times(i, v):
            return left[i].mul(Matrix.column(f, v, d)).col(0)

        def close(pending):
            while pending:
                v = pending.pop()
                if span.insert(v):
                    words.append(v)
                    pending.extend(times(g, v) for g in gens)

        close([self.unit.col(0)])
        for i in range(d):
            if not span.contains({i: f.one}):
                gens.append(i)
                close([times(i, w) for w in words])
        return tuple(gens)

    @functools.cached_property
    def inverse_antipode(self):
        """S^{-1}: the given ``antipode_inv``, else solved from S on first use and kept.

        Raises MissingAntipodeInverse without an invertible antipode.
        """
        if self.antipode_inv is not None:
            return self.antipode_inv
        if self.antipode is None:
            raise MissingAntipodeInverse("no antipode present")
        sinv = invert(self.antipode)
        if sinv is None:
            raise MissingAntipodeInverse("antipode is not invertible")
        return sinv

    def to_json(self):
        f = self.field
        doc = {"field": f.name, "basis": list(self.basis), "level": self.level}
        if self.mult is not None:
            doc["mult"] = [[j // self.dim, j % self.dim, k, f.fmt(v)]
                           for k, j, v in self.mult.entries()]
        if self.comult is not None:
            doc["comult"] = [[i, jk // self.dim, jk % self.dim, f.fmt(v)]
                             for jk, i, v in self.comult.entries()]
        if self.unit is not None:
            col = self.unit.col(0)
            doc["unit"] = [f.fmt(col.get(i, f.zero)) for i in range(self.dim)]
        if self.counit is not None:
            row = self.counit.rowdict.get(0, {})
            doc["counit"] = [f.fmt(row.get(i, f.zero)) for i in range(self.dim)]
        if self.antipode is not None:
            doc["antipode"] = matrix_to_json(self.antipode)
        if self.antipode_inv is not None:
            doc["antipode_inv"] = matrix_to_json(self.antipode_inv)
        return doc

    def __repr__(self):
        return f"BialgebraDesc({self.level}, dim={self.dim}, field={self.field})"


def matrix_to_json(M):
    return {"rows": M.rows, "cols": M.cols,
            "entries": [[i, j, M.field.fmt(v)] for i, j, v in M.entries()]}


def matrix_from_json(field, doc):
    try:
        entries = [(int(i), int(j), field.parse(v)) for i, j, v in doc["entries"]]
        return Matrix.from_entries(field, int(doc["rows"]), int(doc["cols"]), entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed matrix document: {exc}") from exc


def desc_from_json(doc):
    """Parse the JSON description format (the CLI ingestion unit)."""
    try:
        field = field_by_name(doc["field"])
        basis = list(doc["basis"])
        level = doc["level"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field in description: {exc}") from exc
    dim = len(basis)
    mult = comult = unit = counit = antipode = antipode_inv = None
    if "mult" in doc:
        mult = Matrix.from_entries(
            field, dim, dim * dim,
            [(int(k), int(i) * dim + int(j), field.parse(c)) for i, j, k, c in doc["mult"]])
    if "comult" in doc:
        comult = Matrix.from_entries(
            field, dim * dim, dim,
            [(int(j) * dim + int(k), int(i), field.parse(c)) for i, j, k, c in doc["comult"]])
    if "unit" in doc:
        unit = Matrix.from_entries(
            field, dim, 1,
            [(i, 0, field.parse(v)) for i, v in enumerate(doc["unit"])])
    if "counit" in doc:
        counit = Matrix.from_entries(
            field, 1, dim,
            [(0, i, field.parse(v)) for i, v in enumerate(doc["counit"])])
    if "antipode" in doc:
        antipode = matrix_from_json(field, doc["antipode"])
    if "antipode_inv" in doc:
        antipode_inv = matrix_from_json(field, doc["antipode_inv"])
    return BialgebraDesc(field, basis, level, mult=mult, comult=comult, unit=unit,
                         counit=counit, antipode=antipode, antipode_inv=antipode_inv)


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------


def audit(desc, level=None):
    """Check exactly the axioms the level implies, entry-exactly.

    Returns an :class:`AxiomReport`; a failing axiom names one basis tuple
    where the two sides of the law differ.
    """
    level = level or desc.level
    if level not in LEVELS:
        raise ParseError(f"unknown level {level!r}")
    f = desc.field
    d = desc.dim
    basis = desc.basis
    I = Matrix.identity(f, d)
    checks = []
    m, cm, u, e, S = desc.mult, desc.comult, desc.unit, desc.counit, desc.antipode

    alg = level in ("algebra", "bialgebra", "hopf")
    co = level in ("coalgebra", "bialgebra", "hopf")

    if alg and m is not None:
        assoc_l = m.mul(m.kron(I))
        assoc_r = m.mul(I.kron(m))
        checks.append(_compare("associativity", assoc_l, assoc_r, basis, 3))
        if u is not None:
            checks.append(_compare("left unit law", m.mul(u.kron(I)), I, basis, 1))
            checks.append(_compare("right unit law", m.mul(I.kron(u)), I, basis, 1))
    if co and cm is not None:
        coas_l = cm.kron(I).mul(cm)
        coas_r = I.kron(cm).mul(cm)
        checks.append(_compare("coassociativity", coas_l, coas_r, basis, 1))
        if e is not None:
            checks.append(_compare("left counit law", e.kron(I).mul(cm), I, basis, 1))
            checks.append(_compare("right counit law", I.kron(e).mul(cm), I, basis, 1))
    if level in ("bialgebra", "hopf"):
        lhs = cm.mul(m)
        dims = dict.fromkeys(["a", "a1", "a2", "b", "b1", "b2", "p", "q"], d)
        rhs = wire(f, dims, "a b -> p q", (cm, "a -> a1 a2"), (cm, "b -> b1 b2"),
                   (m, "a1 b1 -> p"), (m, "a2 b2 -> q"))
        checks.append(_compare("comultiplication multiplicative", lhs, rhs, basis, 2))
        checks.append(_compare("counit multiplicative", e.mul(m), e.kron(e), basis, 2))
        checks.append(_compare("comultiplication unital", cm.mul(u), u.kron(u), basis, 0))
        one = Matrix.identity(f, 1)
        checks.append(_compare("counit unital", e.mul(u), one, basis, 0))
    if level == "hopf":
        target = u.mul(e)
        checks.append(_compare("left antipode law", m.mul(S.kron(I)).mul(cm), target, basis, 1))
        checks.append(_compare("right antipode law", m.mul(I.kron(S)).mul(cm), target, basis, 1))
        if desc.antipode_inv is not None:
            Si = desc.antipode_inv
            checks.append(_compare("antipode inverse", S.mul(Si), I, basis, 1))
            checks.append(_compare("antipode inverse (other side)", Si.mul(S), I, basis, 1))
    return AxiomReport(checks)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def _validate_group_table(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not square over element indices")
    identity = None
    for i in range(n):
        if all(table[i][j] == j for j in range(n)) and all(table[j][i] == j for j in range(n)):
            identity = i
            break
    if identity is None:
        raise NotAGroup("no two-sided identity element")
    for i in range(n):
        if not any(table[i][j] == identity and table[j][i] == identity for j in range(n)):
            raise NotAGroup(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup(f"associativity fails at ({i},{j},{k})")
    return identity


def group_algebra(table, field, names=None):
    """Hopf algebra of a finite group given by its multiplication table.

    Group-likes comultiply diagonally and S(g) = g^{-1}.
    """
    ident = _validate_group_table(table)
    n = len(table)
    if names is None:
        names = [f"g{i}" if i != ident else "e" for i in range(n)]
    f = field
    one = f.one
    mult = Matrix.from_entries(f, n, n * n,
                               [(table[i][j], i * n + j, one) for i in range(n) for j in range(n)])
    comult = Matrix.from_entries(f, n * n, n, [(i * n + i, i, one) for i in range(n)])
    unit = Matrix.from_entries(f, n, 1, [(ident, 0, one)])
    counit = Matrix.from_entries(f, 1, n, [(0, i, one) for i in range(n)])
    inv = [next(j for j in range(n) if table[i][j] == ident) for i in range(n)]
    antipode = Matrix.from_entries(f, n, n, [(inv[i], i, one) for i in range(n)])
    sinv = antipode  # S(g) = g^{-1} is an involution on group-likes
    return BialgebraDesc(f, names, "hopf", mult=mult, comult=comult, unit=unit,
                         counit=counit, antipode=antipode, antipode_inv=sinv)


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


def sweedler_h4(field):
    """The 4-dimensional Hopf algebra with a non-involutive antipode.

    Basis {1, g, x, gx} with g^2 = 1, x^2 = 0, xg = -gx, Dg = g (x) g,
    Dx = x (x) 1 + g (x) x, S(g) = g, S(x) = -gx. Degenerates in
    characteristic 2, so audits reject F_2 input upstream of any use.
    """
    f = field
    one, neg = f.one, f.neg(f.one)
    E, G, X, GX = 0, 1, 2, 3
    prod = {
        (E, E): [(E, one)], (E, G): [(G, one)], (E, X): [(X, one)], (E, GX): [(GX, one)],
        (G, E): [(G, one)], (G, G): [(E, one)], (G, X): [(GX, one)], (G, GX): [(X, one)],
        (X, E): [(X, one)], (X, G): [(GX, neg)], (X, X): [], (X, GX): [],
        (GX, E): [(GX, one)], (GX, G): [(X, neg)], (GX, X): [], (GX, GX): [],
    }
    mult = Matrix.from_entries(
        f, 4, 16, [(k, i * 4 + j, c) for (i, j), terms in prod.items() for k, c in terms])
    cop = {
        E: [(E, E, one)],
        G: [(G, G, one)],
        X: [(X, E, one), (G, X, one)],
        GX: [(GX, G, one), (E, GX, one)],
    }
    comult = Matrix.from_entries(
        f, 16, 4, [(j * 4 + k, i, c) for i, terms in cop.items() for j, k, c in terms])
    unit = Matrix.from_entries(f, 4, 1, [(E, 0, one)])
    counit = Matrix.from_entries(f, 1, 4, [(0, E, one), (0, G, one)])
    antipode = Matrix.from_entries(f, 4, 4, [(E, E, one), (G, G, one), (GX, X, neg), (X, GX, one)])
    sinv = antipode.mul(antipode).mul(antipode)  # S^4 = id, so S^{-1} = S^3
    return BialgebraDesc(f, ["1", "g", "x", "gx"], "hopf", mult=mult, comult=comult,
                         unit=unit, counit=counit, antipode=antipode, antipode_inv=sinv)


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


# ---------------------------------------------------------------------------
# Antipode inverse and integrals
# ---------------------------------------------------------------------------


def antipode_inverse(desc):
    """Desc copy carrying :attr:`BialgebraDesc.inverse_antipode` as ``antipode_inv``."""
    return BialgebraDesc(desc.field, desc.basis, desc.level, mult=desc.mult,
                         comult=desc.comult, unit=desc.unit, counit=desc.counit,
                         antipode=desc.antipode, antipode_inv=desc.inverse_antipode,
                         check=False)


def find_integral(desc, side):
    """Normalized (co)integral, or None when the affine system is inconsistent.

    side="cointegral": element s with s b = eps(b) s and eps(s) = 1.
    side="integral": functional n with b_(1) n(b_(2)) = n(b) unit, n(unit) = 1.
    """
    f = desc.field
    d = desc.dim
    if desc.counit is None or desc.unit is None:
        raise ShapeMismatch("integrals need a unital and counital description")
    rows = []
    rhs = []
    if side == "cointegral":
        # unknowns: coordinates of sigma
        eps = desc.counit.rowdict.get(0, {})
        for j in range(d):
            # sigma * e_j - eps(e_j) sigma = 0, componentwise in e_k
            epsj = eps.get(j, f.zero)
            for k in range(d):
                row = {}
                for i in range(d):
                    c = desc.mult.col(i * d + j).get(k, f.zero)
                    if i == k:
                        c = f.sub(c, epsj)
                    if c != f.zero:
                        row[i] = c
                if row:
                    rows.append(row)
                    rhs.append(f.zero)
        rows.append({i: v for i, v in eps.items()})
        rhs.append(f.one)
        sol = _solve_affine(f, rows, rhs, d)
        if sol is None:
            return None
        return Matrix.from_entries(f, d, 1, [(i, 0, v) for i, v in sol.items()])
    if side == "integral":
        # unknowns: coordinates of eta
        unit = desc.unit.col(0)
        for k in range(d):
            dcol = desc.comult.col(k)  # Delta(e_k) entries at j*d+l
            for j in range(d):
                row = {}
                for l in range(d):
                    c = dcol.get(j * d + l, f.zero)
                    if c != f.zero:
                        row[l] = f.add(row.get(l, f.zero), c)
                uj = unit.get(j, f.zero)
                if uj != f.zero:
                    row[k] = f.sub(row.get(k, f.zero), uj)
                row = {i: v for i, v in row.items() if v != f.zero}
                if row:
                    rows.append(row)
                    rhs.append(f.zero)
        rows.append(dict(unit))
        rhs.append(f.one)
        sol = _solve_affine(f, rows, rhs, d)
        if sol is None:
            return None
        return Matrix.from_entries(f, 1, d, [(0, i, v) for i, v in sol.items()])
    raise ParseError(f"unknown integral side {side!r}")


def _solve_affine(field, rows, rhs, nunknowns):
    A = Matrix(field, len(rows), nunknowns,
               {i: dict(r) for i, r in enumerate(rows) if r})
    b = Matrix.from_entries(field, len(rows), 1,
                            [(i, 0, v) for i, v in enumerate(rhs) if v != field.zero])
    x = solve_columns(A, b)
    if x is None:
        return None
    return x.col(0)
