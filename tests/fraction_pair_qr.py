"""The Fraction-pair ``QuadraticRational``: p + q*sqrt(d) stored as two
``Fraction``s, the package's original exact number class.

Kept verbatim as the test oracle for the integer-quadruple class in
``tilegroups.exactnum``; nothing in the package imports it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from numbers import Rational

from tilegroups.exactnum import DiscriminantMismatch, is_square_free

_VALIDATED_DISCS: set[int] = set()


@total_ordering
class QuadraticRational:
    """p + q*sqrt(d) with p, q in Q and d square-free, d >= 0.

    Values are immutable and hashable.  A value with q == 0 is stored with
    d == 0 (the canonical rational embedding) and combines with any field;
    combining two values with different nonzero discriminants raises
    :class:`DiscriminantMismatch` rather than silently promoting.
    """

    __slots__ = ("rat", "surd", "disc")

    def __init__(self, rat=0, surd=0, disc: int = 0):
        rat = Fraction(rat)
        surd = Fraction(surd)
        disc = int(disc)
        if disc not in _VALIDATED_DISCS:
            if not is_square_free(disc):
                raise ValueError(f"discriminant {disc} is not a square-free non-negative integer")
            _VALIDATED_DISCS.add(disc)
        if disc == 1:  # sqrt(1) = 1, fold exactly
            rat += surd
            surd = Fraction(0)
            disc = 0
        if surd == 0:
            disc = 0
        elif disc == 0:
            raise ValueError("nonzero surd part requires a positive discriminant")
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "surd", surd)
        object.__setattr__(self, "disc", disc)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticRational is immutable")

    # -- field selection -------------------------------------------------

    @staticmethod
    def sqrt_of(d: int) -> "QuadraticRational":
        return QuadraticRational(0, 1, d)

    def _coerce(self, other) -> "QuadraticRational":
        if isinstance(other, QuadraticRational):
            return other
        if isinstance(other, Rational):
            return QuadraticRational(other)
        raise TypeError(f"cannot combine QuadraticRational with {type(other).__name__}")

    def _joint_disc(self, other: "QuadraticRational") -> int:
        if self.disc == 0:
            return other.disc
        if other.disc == 0 or other.disc == self.disc:
            return self.disc
        raise DiscriminantMismatch(f"sqrt({self.disc}) and sqrt({other.disc}) in one expression")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        d = self._joint_disc(o)
        return QuadraticRational(self.rat + o.rat, self.surd + o.surd, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticRational(-self.rat, -self.surd, self.disc)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._joint_disc(o)
        rat = self.rat * o.rat + self.surd * o.surd * d
        surd = self.rat * o.surd + self.surd * o.rat
        return QuadraticRational(rat, surd, d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticRational":
        """The field conjugate p - q*sqrt(d)."""
        return QuadraticRational(self.rat, -self.surd, self.disc)

    def __truediv__(self, other):
        o = self._coerce(other)
        d = self._joint_disc(o)
        norm = o.rat * o.rat - o.surd * o.surd * d
        if norm == 0:
            # p^2 = q^2 d with d square-free forces p = q = 0
            raise ZeroDivisionError("division by zero")
        num = self * o.conjugate()
        return QuadraticRational(num.rat / norm, num.surd / norm, d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return QuadraticRational(1) / self ** (-n)
        out = QuadraticRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by rational comparisons.

        For p + q*sqrt(d) with p, q of opposite signs the decision reduces
        to comparing p^2 against q^2*d.
        """
        p, q, d = self.rat, self.surd, self.disc
        if q == 0:
            return 0 if p == 0 else (1 if p > 0 else -1)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        lhs, rhs = p * p, q * q * d
        if lhs == rhs:
            return 0
        if p > 0:  # q < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.rat == o.rat and self.surd == o.surd and self.disc == o.disc

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __hash__(self):
        if self.surd == 0:
            return hash(self.rat)
        return hash((self.rat, self.surd, self.disc))

    def __bool__(self):
        return self.rat != 0 or self.surd != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversions -----------------------------------------------------

    def is_rational(self) -> bool:
        return self.surd == 0

    def to_float(self) -> float:
        """Double approximation; for report output only, never for decisions."""
        return float(self.rat) + float(self.surd) * math.sqrt(self.disc)

    def floor(self) -> int:
        """Exact integer floor, computed on integers only.

        Over a common denominator c > 0 the value is (a + b*sqrt(d))/c.
        With s = isqrt(b^2*d), b*sqrt(d) lies strictly between two
        consecutive integers (d is square-free, so it is never an integer):
        (s, s+1) when b > 0 and (-s-1, -s) when b < 0.
        """
        if self.surd == 0:
            return math.floor(self.rat)
        rat, surd = self.rat, self.surd
        c = math.lcm(rat.denominator, surd.denominator)
        a = rat.numerator * (c // rat.denominator)
        b = surd.numerator * (c // surd.denominator)
        s = math.isqrt(b * b * self.disc)
        return (a + s) // c if b > 0 else (a - s - 1) // c

    def ceil(self) -> int:
        """Exact integer ceiling; an irrational value is never an integer,
        so its ceiling is its floor plus one."""
        if self.surd == 0:
            return math.ceil(self.rat)
        return self.floor() + 1

    def nearest_int(self) -> int:
        """Nearest integer; raises ValueError on an exact half-integer tie."""
        n = (self + Fraction(1, 2)).floor()
        if self - n == Fraction(1, 2) or n - self == Fraction(1, 2):
            raise ValueError(f"{self} is equidistant from two integers")
        return n

    # -- text form "p/q+r/s*sqrt(d)" --------------------------------------

    _TERM = re.compile(
        r"""\s*(?P<sign>[+-]?)\s*
            (?:(?P<coef>\d+(?:/\d+)?)\s*\*?\s*)?
            (?:(?P<surd>sqrt\(\s*(?P<disc>\d+)\s*\)))?\s*""",
        re.VERBOSE,
    )

    @classmethod
    def from_string(cls, text: str) -> "QuadraticRational":
        """Parse "p/q+r/s*sqrt(d)"; zero parts may be omitted.

        Accepts e.g. "2", "-1/2", "sqrt(5)", "3/2+1/2*sqrt(5)", "1-sqrt(2)".
        """
        s = text.strip()
        if not s:
            raise ValueError("empty number string")
        rat = Fraction(0)
        surd = Fraction(0)
        disc = 0
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse {text!r} at position {pos}")
            if m.group("sign") == "" and not first:
                raise ValueError(f"missing +/- between terms in {text!r}")
            if m.group("coef") is None and m.group("surd") is None:
                raise ValueError(f"cannot parse {text!r} at position {pos}")
            sign = -1 if m.group("sign") == "-" else 1
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("surd"):
                d = int(m.group("disc"))
                if disc and d != disc and surd != 0:
                    raise DiscriminantMismatch(f"two discriminants in {text!r}")
                disc = d
                surd += sign * coef
            else:
                rat += sign * coef
            pos = m.end()
            first = False
        if surd == 0:
            disc = 0
        return cls(rat, surd, disc)

    def __str__(self):
        if self.surd == 0:
            return str(self.rat)
        surd_txt = f"sqrt({self.disc})"
        if abs(self.surd) != 1:
            surd_txt = f"{abs(self.surd)}*{surd_txt}"
        sign = "+" if self.surd > 0 else "-"
        if self.rat == 0:
            return surd_txt if self.surd > 0 else f"-{surd_txt}"
        return f"{self.rat}{sign}{surd_txt}"

    def __repr__(self):
        return f"QuadraticRational({self.rat!r}, {self.surd!r}, {self.disc})"
