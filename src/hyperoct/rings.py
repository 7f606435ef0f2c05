"""Exact coefficient rings: the rationals, the integers and prime fields.

Every scalar in the system is a plain ``int`` (an integer, an integral
rational, or a canonical residue 0..p-1 for a prime field) or a
``fractions.Fraction`` (a rational from a division that left a remainder,
or computed from one).  There is no floating point anywhere.
"""
from __future__ import annotations

from fractions import Fraction


class RingError(ValueError):
    pass


class Ring:
    """Tagged exact ring.  Instances are stateless and freely shared."""

    name: str
    is_field: bool
    characteristic: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        raise RingError(f"division not available in {self.name}")

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def from_int(self, n: int):
        raise NotImplementedError

    def from_pair(self, num: int, den: int):
        """Exact scalar from an integer pair numerator/denominator."""
        raise NotImplementedError

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Ring) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


class Rationals(Ring):
    """The rationals, as ``int`` where integral and ``Fraction`` otherwise.

    Boundaries, chain maps and homotopies of group algebras have integer
    entries, so most scalars stay ints and their products skip the gcd of
    ``Fraction`` arithmetic.  Only ``div`` and ``from_pair`` make a
    ``Fraction``, and only for a quotient that is not integral; ``add``,
    ``sub``, ``mul`` and ``neg`` are the plain operators, so an int with an
    int stays an int and a ``Fraction`` operand gives a ``Fraction`` (which
    may be integral: results are not normalised).  ``div`` is the one
    division of scalars, since ``/`` between two ints would give a float."""

    name = "Q"
    is_field = True
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def div(self, a, b):
        if b == 0:
            raise RingError("division by zero")
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def from_pair(self, num, den):
        if den == 0:
            raise RingError("zero denominator")
        return self.div(num, den)


class Integers(Ring):
    name = "Z"
    is_field = False
    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def sub(self, a, b):
        return a - b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n

    def from_pair(self, num, den):
        if den == 0:
            raise RingError("zero denominator")
        if num % den != 0:
            raise RingError(f"{num}/{den} is not an integer")
        return num // den


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField(Ring):
    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.characteristic = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def div(self, a, b):
        if b % self.p == 0:
            raise RingError("division by zero")
        return (a * pow(b, self.p - 2, self.p)) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def from_pair(self, num, den):
        if den % self.p == 0:
            raise RingError(f"denominator {den} vanishes in F{self.p}")
        return self.div(num % self.p, den % self.p)


QQ = Rationals()
ZZ = Integers()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field


def ring_by_name(name: str) -> Ring:
    """Parse a ring tag: ``q``, ``z`` or ``f<p>``."""
    low = name.lower()
    if low in ("q", "qq", "rationals"):
        return QQ
    if low in ("z", "zz", "integers"):
        return ZZ
    if low.startswith("f") and low[1:].isdigit():
        return GF(int(low[1:]))
    raise RingError(f"unknown ring {name!r}")
