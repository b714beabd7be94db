"""Exact coefficient rings: the integers, the rationals, and odd prime fields.

Elements are plain Python values: `int` for Z and F_p (reduced to the range
[0, p)). A rational is canonical: an `int` when it is integral and a
`fractions.Fraction` only when it is not, so the integer matrices that
make up almost every complex never pay for `Fraction` arithmetic. Every Q
operation returns a canonical value. A `Ring` bundles the arithmetic so
that matrix and chain code can stay ring-generic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SchemaViolation
from .records import record


def canonical(x):
    """A rational in canonical form: the numerator of a Fraction whose
    denominator is 1, anything else unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the primes up to 37, which has no strong
    pseudoprime below 3.3 * 10^24 (Sorenson & Webster, Math. Comp. 2017),
    so it is exact for every modulus below 2^64."""
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@record
class Ring:
    """One of Z, Q, or F_p with p an odd prime below 2^64.

    F_2 is rejected: the calculus requires 2 to be invertible in the
    coefficient ring (odd-arity operators square to zero only then).
    """

    name: str
    p: int | None = None
    zero = 0
    one = 1

    def __post_init__(self):
        if self.name not in ("Z", "Q", "Fp"):
            raise SchemaViolation(f"unknown ring {self.name!r}")
        if self.name == "Fp":
            if self.p is not None and self.p >= 2**64:
                raise SchemaViolation(f"Fp modulus {self.p} is not below 2^64")
            if self.p is None or not _is_prime(self.p):
                raise SchemaViolation(f"Fp requires a prime modulus, got {self.p!r}")
            if self.p == 2:
                raise SchemaViolation(
                    "F_2 is not supported: 2 must be invertible in the coefficient ring"
                )
        elif self.p is not None:
            raise SchemaViolation(f"ring {self.name} takes no modulus")

    @property
    def is_field(self) -> bool:
        return self.name != "Z"

    def coerce(self, x):
        """Coerce an int, Fraction, or 'a/b' string into this ring."""
        if type(x) is int and self.name != "Fp":
            return x
        if isinstance(x, str):
            x = Fraction(x)
        x = canonical(x)
        if self.name == "Z":
            if not isinstance(x, int):
                raise SchemaViolation(f"{x!r} is not an integer")
            return x
        if self.name == "Q":
            # floats and bools become Fractions first
            return x if type(x) is int or type(x) is Fraction else canonical(Fraction(x))
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise SchemaViolation(f"denominator of {x} is not invertible mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if not isinstance(x, int):
            raise SchemaViolation(f"{x!r} is not a ring element")
        return x % self.p

    def normal(self, x):
        """The element that x, a sum of products of elements taken in plain
        arithmetic, stands for: reduced mod p over F_p, else canonical."""
        return x % self.p if self.p else canonical(x)

    def add(self, a, b):
        return self.normal(a + b)

    def sub(self, a, b):
        return self.normal(a - b)

    def mul(self, a, b):
        return self.normal(a * b)

    def neg(self, a):
        return self.normal(-a)

    def inv(self, a):
        if self.name == "Q":
            # almost every pivot over Q is a plain +-1, its own inverse
            # (a Fraction(1) still goes through canonical, to come back an int)
            if type(a) is int and (a == 1 or a == -1):
                return a
            return canonical(Fraction(1) / a)
        if self.name == "Fp":
            return pow(a, -1, self.p)
        raise SchemaViolation("Z is not a field")

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a):
        """JSON form: rationals as 'a/b' strings, big integers as strings."""
        if self.name == "Q":
            return str(Fraction(a))
        if abs(a) > 2**53:
            return str(a)
        return a

    def __str__(self):
        return f"F{self.p}" if self.name == "Fp" else self.name


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)

