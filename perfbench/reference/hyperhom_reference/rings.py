"""Exact coefficient rings: the integers, the rationals, and odd prime fields.

Elements are plain Python values: `int` for Z and F_p (reduced to the range
[0, p)), `fractions.Fraction` for Q. A `Ring` bundles the arithmetic so that
matrix and chain code can stay ring-generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SchemaViolation


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Ring:
    """One of Z, Q, or F_p with p an odd prime.

    F_2 is rejected: the calculus requires 2 to be invertible in the
    coefficient ring (odd-arity operators square to zero only then).
    """

    name: str
    p: int | None = None

    def __post_init__(self):
        if self.name not in ("Z", "Q", "Fp"):
            raise SchemaViolation(f"unknown ring {self.name!r}")
        if self.name == "Fp":
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

    @property
    def zero(self):
        return Fraction(0) if self.name == "Q" else 0

    @property
    def one(self):
        return Fraction(1) if self.name == "Q" else 1

    def coerce(self, x):
        """Coerce an int, Fraction, or 'a/b' string into this ring."""
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            x = x.numerator
        if self.name == "Z":
            if not isinstance(x, int):
                raise SchemaViolation(f"{x!r} is not an integer")
            return x
        if self.name == "Q":
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise SchemaViolation(f"denominator of {x} is not invertible mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        if not isinstance(x, int):
            raise SchemaViolation(f"{x!r} is not a ring element")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.name == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.name == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.name == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.name == "Fp" else -a

    def inv(self, a):
        if self.name == "Q":
            return Fraction(1) / a
        if self.name == "Fp":
            return pow(a, -1, self.p)
        raise SchemaViolation("Z is not a field")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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


def ring_from_name(name: str, p: int | None = None) -> Ring:
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name == "Fp":
        if p is None:
            raise SchemaViolation("ring Fp requires --p")
        return GF(p)
    raise SchemaViolation(f"unknown ring {name!r} (expected Z, Q, or Fp)")
