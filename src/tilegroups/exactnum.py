"""Exact arithmetic in the real quadratic field Q(sqrt(d)).

Every geometric quantity in this package (tile lengths, point
coordinates, window endpoints) is a ``QuadraticRational``: a number
(a + b*sqrt(d))/c stored as four normalised integers, with d a fixed
square-free non-negative integer.  Arithmetic, comparisons, floors,
ceilings, nearest integers and ``str`` work on those integers only.
``Fraction`` is still used by the public constructor,
:meth:`QuadraticRational.from_string`, the ``rat``/``surd`` views,
``repr`` (which shows those views) and the hash of a non-integer
rational value (so that it hashes like the equal ``Fraction``).  Floats
appear only in :meth:`QuadraticRational.to_float` for report output.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from numbers import Rational


class DiscriminantMismatch(ValueError):
    """Raised when two values from different quadratic fields are combined."""


def is_square_free(d: int) -> bool:
    """No square of a prime divides d (0 and 1 count as square-free).

    Trial division by p while p^3 <= n, each p divided out of the cofactor
    n once, with p^2 | d found as p dividing what is left.  The n left then
    has no prime factor below p and n < p^3, so it is 1, a prime or a
    product of two primes, and it is square-free iff it is not a perfect
    square above 1.  The cost grows as d^(1/3), not d^(1/2).
    """
    if d < 0:
        return False
    n, p = d, 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1
    return n < 2 or math.isqrt(n) ** 2 != n


# Discriminants that already passed is_square_free: each field is validated
# once per process, not on every construction.
_VALIDATED_DISCS: set[int] = set()

_new = object.__new__
_set = object.__setattr__


def _make(a: int, b: int, c: int, d: int) -> "QuadraticRational":
    """(a + b*sqrt(d))/c for c != 0 and an already validated d, normalised."""
    g = math.gcd(a, b, c) if c > 0 else -math.gcd(a, b, c)
    x = _new(QuadraticRational)
    _set(x, "_q", (a // g, b // g, c // g, d if b else 0))
    return x


def _joint_disc(d: int, e: int) -> int:
    if d and e and d != e:
        raise DiscriminantMismatch(f"sqrt({d}) and sqrt({e}) in one expression")
    return d or e


@total_ordering
class QuadraticRational:
    """(a + b*sqrt(d))/c with integers a, b, c and d square-free, d >= 0.

    The integers are kept normalised: c > 0, gcd(a, b, c) = 1, and d == 0
    whenever b == 0 (the canonical rational embedding, which combines with
    any field).  Combining two values with different nonzero discriminants
    raises :class:`DiscriminantMismatch` rather than silently promoting.
    Values are immutable and hashable; a rational value hashes like the
    equal ``int`` or ``Fraction``.
    """

    __slots__ = ("_q",)

    def __init__(self, rat=0, surd=0, disc: int = 0):
        disc = int(disc)
        if disc not in _VALIDATED_DISCS:
            if not is_square_free(disc):
                raise ValueError(f"discriminant {disc} is not a square-free non-negative integer")
            _VALIDATED_DISCS.add(disc)
        rat, surd = Fraction(rat), Fraction(surd)
        c = math.lcm(rat.denominator, surd.denominator)
        a = rat.numerator * (c // rat.denominator)
        b = surd.numerator * (c // surd.denominator)
        if disc == 1:  # sqrt(1) = 1, fold exactly
            a, b, disc = a + b, 0, 0
        if b and not disc:
            raise ValueError("nonzero surd part requires a positive discriminant")
        _set(self, "_q", _make(a, b, c, disc)._q)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticRational is immutable")

    @property
    def rat(self) -> Fraction:
        """The rational part a/c."""
        return Fraction(self._q[0], self._q[2])

    @property
    def surd(self) -> Fraction:
        """The coefficient b/c of sqrt(d)."""
        return Fraction(self._q[1], self._q[2])

    @property
    def disc(self) -> int:
        return self._q[3]

    @property
    def triple(self) -> tuple[int, int, int]:
        """(a, b, c) with the value (a + b*sqrt(disc))/c, normalised."""
        return self._q[:3]

    # -- field selection -------------------------------------------------

    @staticmethod
    def sqrt_of(d: int) -> "QuadraticRational":
        return QuadraticRational(0, 1, d)

    def _coerce(self, other) -> "QuadraticRational":
        if isinstance(other, QuadraticRational):
            return other
        if isinstance(other, int):  # bool too; skips the Fraction round trip
            return _make(int(other), 0, 1, 0)
        if isinstance(other, Rational):
            return QuadraticRational(other)
        raise TypeError(f"cannot combine QuadraticRational with {type(other).__name__}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b, c, d = self._q
        oa, ob, oc, od = self._coerce(other)._q
        return _make(a * oc + oa * c, b * oc + ob * c, c * oc, _joint_disc(d, od))

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d = self._q
        return _make(-a, -b, c, d)

    def __sub__(self, other):
        a, b, c, d = self._q
        oa, ob, oc, od = self._coerce(other)._q
        return _make(a * oc - oa * c, b * oc - ob * c, c * oc, _joint_disc(d, od))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        a, b, c, d = self._q
        oa, ob, oc, od = self._coerce(other)._q
        d = _joint_disc(d, od)
        return _make(a * oa + b * ob * d, a * ob + b * oa, c * oc, d)

    __rmul__ = __mul__

    def conjugate(self) -> "QuadraticRational":
        """The field conjugate p - q*sqrt(d)."""
        a, b, c, d = self._q
        return _make(a, -b, c, d)

    def __truediv__(self, other):
        # x/y = x * conj(y) / norm(y), norm(y) = (a'^2 - b'^2 d)/c'^2
        a, b, c, d = self._q
        oa, ob, oc, od = self._coerce(other)._q
        d = _joint_disc(d, od)
        norm = oa * oa - ob * ob * d
        if norm == 0:
            # a'^2 = b'^2 d with d square-free forces a' = b' = 0
            raise ZeroDivisionError("division by zero")
        return _make((a * oa - b * ob * d) * oc, (b * oa - a * ob) * oc, c * norm, d)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- order -----------------------------------------------------------

    @staticmethod
    def int_sign(p: int, q: int, d: int) -> int:
        """Exact sign in {-1, 0, +1} of p + q*sqrt(d) for integers p, q.

        It is the common sign of p and q when they agree, the sign of q
        when p == 0, and otherwise the sign of p times that of p^2 - q^2*d.
        """
        sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
        if sp == sq:
            return sp
        if not sp:
            return sq
        diff = p * p - q * q * d
        return sp * ((diff > 0) - (diff < 0))

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; the denominator c is positive."""
        a, b, _, d = self._q
        return self.int_sign(a, b, d)

    def __lt__(self, other):
        # the sign of self - other from the cross-multiplied numerators
        a, b, c, d = self._q
        oa, ob, oc, od = self._coerce(other)._q
        return self.int_sign(a * oc - oa * c, b * oc - ob * c, _joint_disc(d, od)) < 0

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self._q == o._q

    def __hash__(self):
        a, b, c, _ = self._q
        if b:
            return hash(self._q)
        return hash(a) if c == 1 else hash(Fraction(a, c))

    def __bool__(self):
        return bool(self._q[0] or self._q[1])

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- conversions -----------------------------------------------------

    def is_rational(self) -> bool:
        return self._q[1] == 0

    def to_float(self) -> float:
        """Double approximation; for report output only, never for decisions."""
        a, b, c, d = self._q
        return a / c + b / c * math.sqrt(d)

    @staticmethod
    def int_floor(a: int, b: int, c: int, d: int) -> int:
        """Exact floor of (a + b*sqrt(d))/c for integers with c > 0 and, when
        b != 0, d square-free and at least 2; no normalisation is needed.

        With s = isqrt(b^2*d), b*sqrt(d) lies strictly between two
        consecutive integers (d is square-free, so it is never an integer):
        (s, s+1) when b > 0 and (-s-1, -s) when b < 0.
        """
        if b == 0:
            return a // c
        s = math.isqrt(b * b * d)
        return (a + s) // c if b > 0 else (a - s - 1) // c

    def floor(self) -> int:
        """Exact integer floor, computed on integers only."""
        return self.int_floor(*self._q)

    def ceil(self) -> int:
        """Exact integer ceiling, -floor(-x)."""
        return -(-self).floor()

    def nearest_int(self) -> int:
        """Nearest integer n = floor(x + 1/2); raises ValueError on an exact
        half-integer tie, which x + 1/2 < n + 1 leaves only at x = n - 1/2."""
        a, b, c, d = self._q
        n = self.int_floor(2 * a + c, 2 * b, 2 * c, d)
        if not b and 2 * a == (2 * n - 1) * c:
            raise ValueError(f"{self} is equidistant from two integers")
        return n

    # -- text form "p/q+r/s*sqrt(d)" --------------------------------------

    _TERM = re.compile(
        r"""\s*(?P<sign>[+-]?)\s*
            (?:(?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*(?=sqrt\())?)?
            (?:(?P<surd>sqrt\(\s*(?P<disc>\d+)\s*\)))?\s*""",
        re.VERBOSE,
    )

    @classmethod
    def from_string(cls, text: str) -> "QuadraticRational":
        """Parse "p/q+r/s*sqrt(d)"; zero parts may be omitted.

        Accepts e.g. "2", "-1/2", "sqrt(5)", "3/2+1/2*sqrt(5)", "1-sqrt(2)".
        """
        if not isinstance(text, str):
            raise ValueError(f"a number is written as a string, not {text!r}")
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
            try:
                coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
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
        return pair_text(*self._q)

    def __repr__(self):
        return f"QuadraticRational({self.rat!r}, {self.surd!r}, {self.disc})"


def pair_text(a: int, b: int, c: int, d: int) -> str:
    """(a + b*sqrt(d))/c for c > 0 as "p/q+r/s*sqrt(d)", each part in lowest
    terms as ``str(Fraction(.., c))`` prints it, omitting a zero rational
    part, a denominator 1 and a surd coefficient 1; (a, b, c) need not be
    normalised, and d is not read when b == 0.  It prints single values
    (``str``); :func:`frame_text` prints a whole frame the same way."""
    g = math.gcd(a, c)
    text = str(a // g) if g == c else f"{a // g}/{c // g}"
    if not b:
        return text
    g = math.gcd(b, c)
    coef = "" if g == c == abs(b) else f"{abs(b) // g}*" if g == c else f"{abs(b) // g}/{c // g}*"
    return f"{text if a else ''}{'-' if b < 0 else '+' if a else ''}{coef}sqrt({d})"


def frame_text(c: int, d: int, rows) -> list[str]:
    """``pair_text(a, b, c, d)`` of every row (a, b) of one frame over c > 0.
    A part x's divisor gcd(x, c) and the text after the quotient depend on
    x mod c only, so each part finds them once per residue that its rows
    meet, in a memo local to the call (c may be far too large for a table)."""
    gcd, rat, surd, texts = math.gcd, {}, {}, []
    for a, b in rows:
        r = a % c
        m = rat.get(r)
        if m is None:
            g = gcd(r, c)
            m = rat[r] = g, "" if g == c else f"/{c // g}"
        g, tail = m
        if b:
            r = b % c
            m = surd.get(r)
            if m is None:
                h = gcd(r, c)
                m = surd[r] = h, f"*sqrt({d})" if h == c else f"/{c // h}*sqrt({d})"
            h, coef_tail = m
            n = abs(b) // h
            coef = f"sqrt({d})" if n == 1 and h == c else f"{n}{coef_tail}"
            texts.append(f"{a // g}{tail}{'-' if b < 0 else '+'}{coef}" if a else f"-{coef}" if b < 0 else coef)
        else:
            texts.append(f"{a // g}{tail}")
    return texts


def common_denominator(values) -> tuple[int, int, list[tuple[int, int]]]:
    """(c, d, [(a, b), ...]) with each value equal to (a + b*sqrt(d))/c, c the
    least common denominator and d the one field: the join of one-value
    frames.  Mixed fields raise :class:`DiscriminantMismatch`."""
    c, d, *rows = _join(*map(_framed, values))
    return c, d, [r for r, in rows]


def _framed(v: QuadraticRational) -> tuple:
    a, b, c, d = v._q
    return c, d, ((a, b),)


def _join(*frames) -> tuple:
    """(c, d, rows, ...): each frame's rows, pairs (a, b) for (a + b*sqrt(d))/c,
    placed at the lcm c of the denominators and the one field d of the frames."""
    c, d = 1, 0
    for k, e, _ in frames:
        c, d = math.lcm(c, k), _joint_disc(d, e)
    return c, d, *[f[2] if f[0] == c else _place(f, c, d) for f in frames]


def _lowest(c: int, d: int, rows) -> tuple:
    """(c, d, rows) in lowest terms, d = 0 when every surd (odd) entry is 0."""
    flat = [x for r in rows for x in r]
    g = math.gcd(c, *flat)
    if g > 1:
        c, rows = c // g, [tuple([x // g for x in r]) for r in rows]
    return c, d if any(flat[1::2]) else 0, tuple(rows)


def _place(frame: tuple, c: int, d: int):
    """The rows of a frame over c in the field d, or None if they do not fit."""
    k, e, rows = frame
    if c % k or e not in (0, d):
        return None
    k = c // k
    return rows if k == 1 else tuple([tuple([x * k for x in r]) for r in rows])


def golden_ratio() -> QuadraticRational:
    """tau = (1+sqrt(5))/2, the length ratio of the Fibonacci examples."""
    return QuadraticRational(Fraction(1, 2), Fraction(1, 2), 5)


QR = QuadraticRational
