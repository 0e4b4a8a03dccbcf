"""Exact scalar arithmetic over the rationals and prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over Q and ints in
``[0, p)`` over F_p. A ``Field`` object carries the operations, so matrix code
stays generic and allocation-free.
"""

from fractions import Fraction

from .errors import ParseError


class Field:
    """Common interface; subclasses fix the scalar representation."""

    name: str

    def parse(self, s):
        raise NotImplementedError

    def fmt(self, x):
        """JSON-facing form of a scalar."""
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class RationalField(Field):
    """Exact rationals, stored as plain ints whenever integral.

    Mixing int and Fraction is safe: Python compares and hashes them
    consistently, and arithmetic stays exact. Keeping the integral case
    native makes the bulk of the structure-constant arithmetic (entries
    are mostly 0 and +-1) an order of magnitude faster than boxing every
    scalar in a Fraction.
    """

    name = "Q"
    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        if isinstance(a, int):
            if a in (1, -1):
                return a
            return Fraction(1, a)
        r = 1 / a
        return r.numerator if r.denominator == 1 else r

    def parse(self, s):
        if isinstance(s, int):
            return s
        if isinstance(s, str):
            try:
                val = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational scalar {s!r}") from exc
            return val.numerator if val.denominator == 1 else val
        raise ParseError(f"bad rational scalar {s!r}")

    def fmt(self, x):
        if isinstance(x, int):
            return str(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"


class PrimeField(Field):
    def __init__(self, p):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.p)

    def parse(self, s):
        if isinstance(s, int):
            return s % self.p
        if isinstance(s, str):
            try:
                return int(s) % self.p
            except ValueError as exc:
                raise ParseError(f"bad F_{self.p} scalar {s!r}") from exc
        raise ParseError(f"bad F_{self.p} scalar {s!r}")

    def fmt(self, x):
        return x % self.p


QQ = RationalField()

_gf_cache = {}


def GF(p):
    """The prime field F_p (cached so field objects compare by identity too)."""
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_by_name(name):
    """Resolve "Q" or "Fp:<p>" as used in JSON descriptions."""
    if name == "Q":
        return QQ
    if isinstance(name, str) and name.startswith("Fp:"):
        try:
            return GF(int(name[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field name {name!r}") from exc
    raise ParseError(f"bad field name {name!r}")
