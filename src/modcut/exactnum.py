"""Exact number tower: rationals, real quadratic surds, extended reals, 2x2 integer matrices.

Everything here is immutable and pure; no floating point is used anywhere.
One representation per exact value: a finite value is a stdlib
``fractions.Fraction`` if and only if it is rational, and every ``QuadSurd``
a function here returns is irrational, u + v*sqrt(d) with rational u, v != 0
and a square-free radicand d > 1.  So ``Fraction`` and ``QuadSurd`` values mix
freely under ``+ - * / == <`` and ``math.floor``.

Underneath, a value is ints.  ``real_of`` is the one conversion: an int, a
Fraction, a QuadSurd or +-inf becomes a ``Real`` (u, v, w, d), the value
(u + v*sqrt(d))/w in lowest terms with w > 0, a rational with d = 0 and +-inf
as (1, 0, 0, 0); anything else is a TypeError.  ``_real_cmp`` is the one
order on finite Reals.  Over one radicand it is the sign of the difference by
``surd_sign``, which decides the sign of u + v*sqrt(d) with at most one
squaring; over two radicands it squares once more.  ``compare`` and the
rich comparisons of ``QuadSurd`` both call it.

Hot loops go further and run on a projective end x/y with x and y in
Z[sqrt(d)], stored as the four ints (x0, x1, y0, y1) for (x0 + x1*sqrt(d)) /
(y0 + y1*sqrt(d)) (an ``End``); a Real is the end (u, v, w, 0) beside its d.
``end_triple`` and ``end_value`` take an end back to its reduced triple
(u, v, w) and to its value, reduced as ``QuadSurd`` arithmetic reduces.
``lft_apply`` is the one Moebius action: a 2x2 integer matrix-vector product
on an end, and a value is mapped as its end, so m(inf) and a pole need no
rule of their own.  ``_digits`` is the one continued-fraction digit stream,
on a triple (u + v*sqrt(d))/w; ``rational_between`` is one Stern-Brocot walk
on two triples whose radicand need not be square-free, so a caller holding
quadratic roots over raw discriminants walks between them without factoring.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, NamedTuple

__all__ = [
    "QuadSurd",
    "ExtReal",
    "IntMatrix2",
    "PINF",
    "NINF",
    "surd",
    "surd_sign",
    "as_surd",
    "Real",
    "End",
    "real_of",
    "end_triple",
    "end_value",
    "lft_apply",
    "surd_floor",
    "compare",
    "sqrt_exact",
    "rational_between",
    "parse_extreal",
    "parse_int",
    "format_extreal",
    "squarefree_split",
    "ParseError",
    "BudgetError",
]


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d square-free, for n >= 0.

    Trial division runs while f^3 <= m, the cofactor left; its prime factors
    are then >= f, so it is 1, p, p q or p^2, and ``isqrt`` finds p^2.  A
    cofactor still undecided past f = 2^21 is a BudgetError, so every n below
    2^63 is split exactly.
    """
    if n < 0:
        raise ValueError("negative radicand")
    s, d = 1, 1
    m = n
    f = 2
    while f * f * f <= m:
        if f > 1 << 21:
            raise BudgetError("radicand %d too large to factor by trial division" % n)
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    r = math.isqrt(m)
    if m > 1 and r * r == m:
        return s * r, d
    return s, d * m


class QuadSurd:
    """Exact irrational value u + v*sqrt(d): v != 0, d square-free and > 1.

    Stored as three ints, (a + b*sqrt(d))/w with gcd(a, b, w) = 1 and w > 0,
    so that arithmetic and comparison run on ints; ``u`` and ``v`` are the
    Fractions a/w and b/w.  ``QuadSurd(u, v, d)`` takes ints or Fractions;
    the fourth argument w is for ints a, b, w already in that form.

    Build values with :func:`surd`, which returns a ``Fraction`` whenever the
    value is rational; arithmetic and :func:`lft_apply` keep that rule, so
    every ``QuadSurd`` they return is irrational.  The raw constructor does
    not normalize (``as_surd`` uses it to view a rational with v = 0).
    """

    __slots__ = ("a", "b", "w", "d")

    def __init__(self, u, v, d: int, w: int = 1):
        if type(u) is not int or type(v) is not int:
            u, v = Fraction(u, w), Fraction(v, w)
            w = math.lcm(u.denominator, v.denominator)
            u, v = u.numerator * (w // u.denominator), v.numerator * (w // v.denominator)
        self.a, self.b, self.w, self.d = u, v, w, d

    @property
    def u(self) -> Fraction:
        return Fraction(self.a, self.w)

    @property
    def v(self) -> Fraction:
        return Fraction(self.b, self.w)

    def sign(self) -> int:
        return surd_sign(self.a, self.b, self.d)

    def _join(self, other):
        # other as ints (a, b, w) over one radicand with self, and that
        # radicand; v = 0 on one side adopts the other's
        if type(other) is QuadSurd:
            if self.b and other.b and self.d != other.d:
                raise ValueError("mixed-radicand arithmetic is unsupported")
            return other.a, other.b, other.w, self.d if self.b else other.d
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, self.d
        return None

    def __add__(self, other):
        o = self._join(other)
        if o is None:
            return NotImplemented
        a, b, w, d = o
        return _canonical(self.a * w + a * self.w, self.b * w + b * self.w, self.w * w, d)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(-self.a, -self.b, self.w, self.d)

    def __sub__(self, other):
        o = self._join(other)
        if o is None:
            return NotImplemented
        a, b, w, d = o
        return _canonical(self.a * w - a * self.w, self.b * w - b * self.w, self.w * w, d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._join(other)
        if o is None:
            return NotImplemented
        a, b, w, d = o
        return _canonical(self.a * a + self.b * b * d, self.a * b + self.b * a, self.w * w, d)

    __rmul__ = __mul__

    def inverse(self) -> Fraction | QuadSurd:
        # 1/(u + v sqrt d) = (u - v sqrt d)/(u^2 - v^2 d); the norm of an
        # irrational value is nonzero because d is not a square
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("1/0 surd")
        return _canonical(self.w * self.a, -self.w * self.b, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, QuadSurd):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("surd / 0")
            p, q = other.numerator, other.denominator
            return _canonical(self.a * q, self.b * q, self.w * p, self.d)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __floor__(self) -> int:
        return _real_floor(self.a, self.b, self.w, self.d)

    # the total order is _real_cmp on this value's ints and other's, so an
    # infinity is a TypeError here, as it is beside a Fraction
    def __lt__(self, other):
        return _real_cmp((self.a, self.b, self.w, self.d), real_of(other)) < 0

    def __le__(self, other):
        return _real_cmp((self.a, self.b, self.w, self.d), real_of(other)) <= 0

    def __gt__(self, other):
        return _real_cmp((self.a, self.b, self.w, self.d), real_of(other)) > 0

    def __ge__(self, other):
        return _real_cmp((self.a, self.b, self.w, self.d), real_of(other)) >= 0

    def __eq__(self, other):
        if isinstance(other, (QuadSurd, int, Fraction)):
            return _real_cmp((self.a, self.b, self.w, self.d), real_of(other)) == 0
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.d))

    def __repr__(self):
        return "QuadSurd(%s)" % format_extreal(self)


def surd_sign(u, v, d: int) -> int:
    """Sign of u + v*sqrt(d), by at most one squaring.

    u and v are ints or Fractions; d > 0, or d = 0 with v = 0 (a rational).
    """
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    # opposite signs: the side with the larger square wins
    lhs, rhs = u * u, v * v * d
    return su if lhs > rhs else (sv if lhs < rhs else 0)


def _lowest_terms(a: int, b: int, w: int) -> tuple[int, int, int]:
    # (a, b, w) over gcd(a, b, w), signed so that w > 0; w != 0
    g = math.gcd(a, b, w)
    if w < 0:
        g = -g
    return a // g, b // g, w // g


def _canonical(a: int, b: int, w: int, d: int) -> Fraction | QuadSurd:
    # (a + b*sqrt(d))/w for w != 0 and a d that is already square-free (or
    # b = 0): the arithmetic of one field, which need not factor d again as
    # surd() does
    if not b:
        return Fraction(a, w)
    a, b, w = _lowest_terms(a, b, w)
    return QuadSurd(a, b, d, w)


def surd(u, v=0, d: int = 0) -> Fraction | QuadSurd:
    """Canonical u + v*sqrt(d): a ``Fraction`` when rational, else a QuadSurd.
    u and v are ints or Fractions and d is an int, or it is a TypeError."""
    if not (isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction))
            and isinstance(d, int)):
        raise TypeError("not exact surd parts: %r, %r, %r" % (u, v, d))
    u, v = Fraction(u), Fraction(v)
    if v == 0 or d == 0:
        return u
    if d < 0:
        raise ValueError("negative radicand")
    s, d0 = squarefree_split(d)
    if d0 == 1:
        return u + v * s
    return QuadSurd(u, v * s, d0)


def as_surd(x) -> QuadSurd:
    """x as a QuadSurd, rationals included (v = 0); not a canonical value."""
    if isinstance(x, QuadSurd):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadSurd(Fraction(x), Fraction(0), 0)
    raise TypeError("cannot interpret %r as a surd" % (x,))


def sqrt_exact(x) -> Fraction | QuadSurd:
    """Exact square root of a non-negative rational: a Fraction or a QuadSurd."""
    p, v, q, _ = real_of(x)
    if v or not q:
        raise TypeError("not an exact rational: %r" % (x,))
    if p < 0:
        raise ValueError("negative operand")
    # sqrt(p/q) = sqrt(p q)/q = s sqrt(d)/q, d square-free
    s, d = squarefree_split(p * q)
    return QuadSurd(0, Fraction(s, q), d) if d > 1 else Fraction(s * d, q)


class _Infinity:
    __slots__ = ("positive",)

    def __init__(self, positive: bool):
        self.positive = positive

    def __repr__(self):
        return "+inf" if self.positive else "-inf"

    def __neg__(self):
        return NINF if self.positive else PINF

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("inf", self.positive))


PINF = _Infinity(True)
NINF = _Infinity(False)

# not typing.Union, whose cache keeps every re-import's classes alive
ExtReal = Fraction | int | QuadSurd | _Infinity


def is_infinite(x: ExtReal) -> bool:
    return isinstance(x, _Infinity)


def compare(x: ExtReal, y: ExtReal) -> int:
    """Exact three-way comparison on the extended real line (-1, 0, +1):
    ``_real_cmp``, or the signs of the infinities, a finite value's being 0."""
    rx, ry = real_of(x), real_of(y)
    if rx[2] and ry[2]:
        return _real_cmp(rx, ry)
    sx = 0 if rx[2] else (1 if x.positive else -1)
    sy = 0 if ry[2] else (1 if y.positive else -1)
    return (sx > sy) - (sx < sy)


def surd_floor(x) -> int:
    """The unique integer n with n <= x < n+1, by exact integer comparisons."""
    return math.floor(x)


class IntMatrix2(NamedTuple):
    """2x2 integer matrix acting on the extended reals by z -> (az+b)/(cz+d):
    the tuple (a, b, c, d), whose + and int factor are TypeErrors here."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMatrix2") -> "IntMatrix2":
        return IntMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other):  # not a tuple's concatenation or repetition
        return NotImplemented
    __rmul__ = __add__

    def inverse(self) -> "IntMatrix2":
        det = self.det()
        if det == 1:
            return IntMatrix2(self.d, -self.b, -self.c, self.a)
        if det == -1:
            return IntMatrix2(-self.d, self.b, self.c, -self.a)
        raise ValueError("inverse requires det +-1, got %d" % det)

    def __repr__(self):
        return "IntMatrix2[[%d,%d],[%d,%d]]" % (self.a, self.b, self.c, self.d)


def lft_apply(m: IntMatrix2, x: ExtReal | End) -> ExtReal | End:
    """Apply the linear fractional map of m to x, with the usual inf conventions.

    The map is one 2x2 integer matrix-vector product on a projective end.  An
    end x = (x0, x1, y0, y1) comes back as the end m (x, y), left unreduced;
    a value goes in as the end (u, v, w, 0) of its ``real_of(x)`` = (u, v, w,
    d) and comes back through ``end_value``, so a pole and both infinities
    map as ends do (a pole to PINF).
    """
    ma, mb, mc, md = m  # one unpacking, not twelve reads of a tuple field
    if ma * md == mb * mc:
        raise ValueError("singular matrix in lft_apply")
    if type(x) is tuple:
        (x0, x1, y0, y1), d = x, None
    else:
        x0, x1, y0, d = real_of(x)
        y1 = 0
    image = (ma * x0 + mb * y0, ma * x1 + mb * y1, mc * x0 + md * y0, mc * x1 + md * y1)
    return image if d is None else end_value(image, d)


# ---------------------------------------------------------------------------
# projective ends over Z[sqrt(d)]

End = tuple[int, int, int, int]  # (x0, x1, y0, y1): (x0 + x1 sqrt d)/(y0 + y1 sqrt d)


def _over_norm(e: End, d: int) -> tuple[int, int, int]:
    # x/y = x conj(y) / N(y) as an unreduced triple; N(y) = 0 only for y = 0,
    # the infinite end, since d is not a square or y1 = 0
    x0, x1, y0, y1 = e
    return x0 * y0 - d * x1 * y1, x1 * y0 - x0 * y1, y0 * y0 - d * y1 * y1


def end_triple(e: End, d: int) -> tuple[int, int, int]:
    """The reduced triple (u, v, w) of an end, whose value is (u + v*sqrt(d))/w.

    gcd(u, v, w) = 1 and w > 0; infinity is (1, 0, 0).  Two ends over one
    radicand have the same value if and only if their triples are equal.
    """
    u, v, w = _over_norm(e, d)
    return _lowest_terms(u, v, w) if w else (1, 0, 0)


def end_value(e: End, d: int) -> ExtReal:
    """The canonical extended real of an end: PINF, a Fraction or a QuadSurd."""
    u, v, w = _over_norm(e, d)
    return _canonical(u, v, w, d) if w else PINF


# ---------------------------------------------------------------------------
# reals as integer triples: (u + v*sqrt(d))/w is the four ints (u, v, w, d)
# with w > 0 and any radicand d >= 0; a rational has v = 0, and +inf is
# (1, 0, 0, 0).  A triple need not be in lowest terms and d need not be
# square-free, but a perfect-square d must be folded into u (v = 0), so that
# the conjugate of a nonzero value is nonzero.

Real = tuple[int, int, int, int]


def real_of(x: ExtReal) -> Real:
    """x as the ints of (u + v*sqrt(d))/w in lowest terms, w > 0: the one
    conversion.  A rational (a bool too) has v = d = 0, +-inf is (1, 0, 0,
    0), and anything else, inexact or not, is a TypeError."""
    if isinstance(x, QuadSurd):
        return (x.a, x.b, x.w, x.d) if x.b else (x.a, 0, x.w, 0)
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator, 0
    if isinstance(x, _Infinity):
        return 1, 0, 0, 0
    raise TypeError("not an exact extended real: %r" % (x,))


def _real_cmp(x: Real, y: Real) -> int:
    """The one order: exact three-way comparison of two finite triples (an
    infinite one is a TypeError).  w1*w2 times x - y is s + t, s = a +
    b*sqrt(d1) and t = c*sqrt(d2): one ``surd_sign`` when one radicand serves
    both, else one more squaring when s and t differ in sign."""
    u1, v1, w1, d1 = x
    u2, v2, w2, d2 = y
    if not (w1 and w2):
        raise TypeError("an infinity has no place in the finite order")
    a, b, c = u1 * w2 - u2 * w1, v1 * w2, -v2 * w1
    if d1 == d2 or not c:
        return surd_sign(a, b + c, d1)
    if not b:
        return surd_sign(a, c, d2)
    ss, ts = surd_sign(a, b, d1), (c > 0) - (c < 0)
    if ss * ts >= 0:
        return ss or ts
    # opposite signs: compare s^2 = a^2 + b^2 d1 + 2ab sqrt(d1) with t^2 = c^2 d2
    diff = surd_sign(a * a + b * b * d1 - c * c * d2, 2 * a * b, d1)
    return ss if diff > 0 else (ts if diff < 0 else 0)


def _real_floor(u: int, v: int, w: int, d: int) -> int:
    # floor((u + v sqrt d)/w) = floor((u + floor(v sqrt d))/w) for w > 0
    sq = v * v * d
    r = math.isqrt(sq)
    if v < 0:
        r = -r - (r * r != sq)
    return (u + r) // w


def _real_recip(u: int, v: int, w: int, d: int) -> Real:
    # w/(u + v sqrt d) = w (u - v sqrt d)/(u^2 - v^2 d), reduced; the norm is
    # 0 only for the value 0, whose reciprocal is +inf
    norm = u * u - v * v * d
    if norm == 0:
        return (1, 0, 0, 0)
    return _lowest_terms(w * u, -w * v, norm) + (d,)


def _digits(u: int, v: int, w: int, d: int) -> Iterator[int]:
    """The continued-fraction digits of the finite triple (u + v*sqrt(d))/w:
    each is the floor of the rest, which goes on as the reciprocal of its
    fractional part, for a rational the swap w/u of a Euclid step.  The
    stream ends after a rational's last digit and never for a surd (v != 0).
    """
    while True:
        a = _real_floor(u, v, w, d)
        yield a
        u -= a * w
        if v:
            u, v, w, d = _real_recip(u, v, w, d)
        elif u:
            u, w = w, u
        else:
            return


def _between(lo: Real, hi: Real) -> tuple[int, int]:
    """The rational p/q (q > 0, lowest terms) ``rational_between`` picks
    strictly between a finite lo and a larger hi, which may be +inf.

    A Stern-Brocot walk: the first integer above floor(lo) if it is below
    hi; else both ends lie in [f, f+1] with f = floor(lo), and the walk
    goes on in the image of (lo, hi) under x -> 1/(x - f), which is
    (1/(hi - f), 1/(lo - f)), +inf when lo = f.  The answer is the
    continued fraction [f0; f1, ..., t] of the floors and the last integer,
    folded into the convergent matrix [[p1, p0], [q1, q0]].  It reads no
    ``_digits`` streams: its ends swap at every step, and an upper end equal
    to f + 1 reads as the digits f, 1 here.
    """
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        u, v, w, d = lo
        f = _real_floor(u, v, w, d)
        hu, hv, hw, hd = hi
        if hw == 0 or surd_sign(hu - (f + 1) * hw, hv, hd) > 0:
            t = f + 1
            return p1 * t + p0, q1 * t + q0
        lo, hi = _real_recip(hu - f * hw, hv, hw, hd), _real_recip(u - f * w, v, w, d)
        p1, p0, q1, q0 = p1 * f + p0, p1, q1 * f + q0, q1


def rational_between(lo: ExtReal, hi: ExtReal) -> Fraction:
    """Some rational strictly between lo and hi (lo < hi required)."""
    if compare(lo, hi) >= 0:
        raise ValueError("empty interval")
    if lo is NINF:
        return Fraction(0) if hi is PINF else -rational_between(-hi, PINF)
    return Fraction(*_between(real_of(lo), real_of(hi)))


# ---------------------------------------------------------------------------
# text formats: "p/q" | "n" | "(u+v*sqrt(d))/w" | "inf"

# "(u+v*sqrt(d))/w" or, radical first, "(v*sqrt(d)+u)/w": the first term may
# carry a "-", the second carries its sign, and u and v take it along
_RADICAL = r"\s*\*\s*sqrt\(\s*(?P<d>\d+)\s*\)"
_SURD_RES = [re.compile(r"^\(\s*%s\s*%s\s*\)\s*/\s*(?P<w>\d+)$" % terms) for terms in (
    (r"(?P<u>-?\d+)", r"(?P<v>[+-]\s*\d+)" + _RADICAL),
    (r"(?P<v>-?\d+)" + _RADICAL, r"(?P<u>[+-]\s*\d+)"))]


class ParseError(ValueError):
    """Malformed text for a number, word or digit sequence."""


class BudgetError(RuntimeError):
    """An explicit budget (``limit``, ``--max-len``) ran out before an answer."""


def _check_count(name: str, n: int, least: int | None) -> None:
    """The one check of a count or bound such as ``limit``: anything but an
    int (a bool counts as one) is a TypeError, and an int below ``least`` a
    ValueError."""
    if not isinstance(n, int):
        raise TypeError("%s must be an int, not %r" % (name, n))
    if least is not None and n < least:
        raise ValueError("%s must be >= %d" % (name, least))


def _check_type(name: str, x, cls: type) -> None:
    """The one check of an argument's type: anything but a ``cls`` is a
    TypeError, raised at entry rather than where the argument is first
    read."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError("%s must be %s %s, not %r" % (name, article, cls.__name__, x))


def parse_int(text: str) -> int:
    """The integer ``int`` reads from text; ParseError where it reads none."""
    try:
        return int(text)
    except ValueError:
        raise ParseError("cannot parse %r as an integer" % text) from None


def parse_extreal(text: str) -> ExtReal:
    """The exact number that text writes; text that is not a str is a
    TypeError, and one that writes no number a ParseError."""
    _check_type("text", text, str)
    t = text.strip()
    if t in ("inf", "+inf"):
        return PINF
    if t == "-inf":
        return NINF
    m = _SURD_RES[0].match(t) or _SURD_RES[1].match(t)
    if m:
        # "".join(split()) drops the spaces (tabs too) between a sign and its digits
        u, v, d, w = (int("".join(m[g].split())) for g in "uvdw")
        if w == 0:
            raise ParseError("zero denominator in %r" % text)
        return surd(Fraction(u, w), Fraction(v, w), d)
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("cannot parse %r as an exact number" % text) from exc


def format_extreal(x: ExtReal) -> str:
    u, v, w, d = real_of(x)
    if not w:
        return "inf" if x.positive else "-inf"
    if not v:
        return str(u) if w == 1 else "%d/%d" % (u, w)
    return "(%d%s%d*sqrt(%d))/%d" % (u, "+" if v > 0 else "-", abs(v), d, w)
