"""Ordinary, additive, and Farey-tree continued fractions.

An OCF is [a0; a1, a2, ...] from the floor/Euclid algorithm.  Its additive
form is the word R^{a0} F R^{a1} F R^{a2} ... over {F, R}, and its Farey-tree
form is R^{a0} D^{a1} R^{a2} ... over {R, D}.  The two word forms are related
by the substitution D -> F R F with F F cancellation, realized both ways by a
two-state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .exactnum import (
    ExtReal,
    IntMatrix2,
    ParseError,
    QuadSurd,
    compare,
    is_infinite,
    surd_floor,
)

__all__ = [
    "OcfDigits",
    "ConvergentPair",
    "ocf_digits",
    "ocf_value",
    "convergents",
    "acf_of",
    "farey_of",
    "acf_to_farey",
    "farey_to_acf",
    "acf_value",
    "digits_to_acf",
    "acf_to_digits",
    "parse_digits",
    "format_digits",
    "F_MAT",
    "R_MAT",
    "D_MAT",
]

F_MAT = IntMatrix2(0, 1, 1, 0)
R_MAT = IntMatrix2(1, 1, 0, 1)
D_MAT = IntMatrix2(1, 0, 1, 1)


@dataclass(frozen=True)
class OcfDigits:
    """Continued fraction digits [a0; a1, a2, ...].

    ``finite`` is True when the expansion terminates (rational input fully
    expanded); otherwise ``tail`` is just the computed prefix.
    """

    a0: int
    tail: tuple[int, ...] = ()
    finite: bool = True

    def __post_init__(self):
        if any(a < 1 for a in self.tail):
            raise ValueError("tail digits must be positive")

    def all_digits(self) -> tuple[int, ...]:
        return (self.a0,) + self.tail

    def __len__(self):
        return 1 + len(self.tail)

    def __repr__(self):
        return "OcfDigits(%s%s)" % (format_digits(self), "" if self.finite else "...")


def ocf_digits(x: ExtReal, limit: int = 64) -> OcfDigits:
    """Digits of x by the floor algorithm; exact for rationals, lazy for surds.

    For rational x the expansion terminates (and, by construction, never ends
    in a digit 1 except the single-digit case).  For surd x the first
    ``limit`` digits are produced with finite=False.
    """
    if is_infinite(x):
        raise ValueError("cannot expand inf")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    a0 = surd_floor(x)
    digits = [a0]
    rest = x - a0
    while rest != 0:
        if isinstance(rest, QuadSurd) and len(digits) >= limit:
            return OcfDigits(a0, tuple(digits[1:]), False)
        rest = 1 / rest
        a = surd_floor(rest)
        digits.append(a)
        rest = rest - a
    return OcfDigits(a0, tuple(digits[1:]), True)


def ocf_value(digits: OcfDigits) -> Fraction:
    """Exact value of a terminating digit sequence."""
    if not digits.finite:
        raise ValueError("value of a non-terminating prefix is undefined")
    v = Fraction(0)
    for a in reversed(digits.tail):
        v = 1 / (a + v)
    return digits.a0 + v


@dataclass(frozen=True)
class ConvergentPair:
    """The matrix [[p_n, p_{n-1}], [q_n, q_{n-1}]] of consecutive convergents."""

    m: IntMatrix2

    @property
    def p(self) -> int:
        return self.m.a

    @property
    def q(self) -> int:
        return self.m.c

    @property
    def p_prev(self) -> int:
        return self.m.b

    @property
    def q_prev(self) -> int:
        return self.m.d

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergents(digits: OcfDigits) -> Iterator[ConvergentPair]:
    """Stream of convergent matrices [[a0,1],[1,0]] ... [[a_n,1],[1,0]]."""
    m = IntMatrix2(digits.a0, 1, 1, 0)
    yield ConvergentPair(m)
    for a in digits.tail:
        m = m * IntMatrix2(a, 1, 1, 0)
        yield ConvergentPair(m)


# ---------------------------------------------------------------------------
# additive and Farey words


def digits_to_acf(digits: OcfDigits) -> str:
    """ACF word R^{a0} F R^{a1} F ... (trailing F after the last digit)."""
    if digits.a0 < 0:
        raise ValueError("ACF words require a0 >= 0")
    parts = ["R" * digits.a0]
    for a in digits.tail:
        parts.append("F")
        parts.append("R" * a)
    if digits.tail:
        parts.append("F")
    return "".join(parts)


def acf_to_digits(word: str) -> OcfDigits:
    """Digits encoded by a (finite) ACF word; inverse of digits_to_acf."""
    runs = []
    count = 0
    for ch in word:
        if ch == "R":
            count += 1
        elif ch == "F":
            runs.append(count)
            count = 0
        else:
            raise ParseError("bad ACF letter %r" % ch)
    runs.append(count)
    # canonical finite words end with F, leaving a trailing empty run
    if len(runs) > 1 and runs[-1] == 0:
        runs.pop()
    a0, tail = runs[0], runs[1:]
    if any(a < 1 for a in tail):
        raise ParseError("ACF word contains FF")
    return OcfDigits(a0, tuple(tail), True)


def acf_of(x: ExtReal, limit: int = 64) -> str:
    """Additive continued fraction word of x > 0."""
    if is_infinite(x) or compare(x, 0) <= 0:
        raise ValueError("acf_of requires finite x > 0")
    d = ocf_digits(x, limit)
    if d.finite:
        return digits_to_acf(d)
    parts = ["R" * d.a0]
    for a in d.tail:
        parts.append("F")
        parts.append("R" * a)
    return "".join(parts)  # truncated word of a non-terminating expansion


def farey_of(x: ExtReal, limit: int = 64) -> str:
    """Farey-tree word R^{a0} D^{a1} R^{a2} D^{a3} ... of x > 0."""
    if is_infinite(x) or compare(x, 0) <= 0:
        raise ValueError("farey_of requires finite x > 0")
    d = ocf_digits(x, limit)
    parts = []
    for i, a in enumerate(d.all_digits()):
        parts.append(("R" if i % 2 == 0 else "D") * a)
    return "".join(parts)


def acf_to_farey(word: Iterable[str]) -> str:
    """Two-state rewriting: F toggles and emits nothing; R emits R/D by state."""
    out = []
    state = 1
    for ch in word:
        if ch == "F":
            state = -state
        elif ch == "R":
            out.append("R" if state == 1 else "D")
        else:
            raise ParseError("bad ACF letter %r" % ch)
    return "".join(out)


def farey_to_acf(word: Iterable[str]) -> str:
    """Inverse rewriting via D -> FRF with FF cancellation.

    Any word containing a D owes a closing F (canonical finite words end in
    F whenever the digit tail is nonempty).
    """
    out = []
    state = 1
    seen_d = False
    for ch in word:
        if ch == "R":
            if state == -1:
                out.append("F")
                state = 1
            out.append("R")
        elif ch == "D":
            seen_d = True
            if state == 1:
                out.append("F")
                state = -1
            out.append("R")
        else:
            raise ParseError("bad Farey letter %r" % ch)
    if seen_d:
        out.append("F")
    return "".join(out)


def acf_value(word: str) -> Fraction:
    """Value of a finite ACF word (matrix product applied to inf)."""
    m = IntMatrix2(1, 0, 0, 1)
    for ch in word:
        if ch == "R":
            m = m * R_MAT
        elif ch == "F":
            m = m * F_MAT
        else:
            raise ParseError("bad ACF letter %r" % ch)
    if m.c == 0:
        raise ValueError("word has infinite value")
    return Fraction(m.a, m.c)


# ---------------------------------------------------------------------------
# digit text format: "a0;a1,a2,..." or bare "a0"


def parse_digits(text: str) -> OcfDigits:
    t = text.strip()
    if ";" in t:
        head, _, rest = t.partition(";")
        a0 = int(head)
        tail = tuple(int(p) for p in rest.split(",")) if rest else ()
    else:
        a0 = int(t)
        tail = ()
    return OcfDigits(a0, tail, True)


def format_digits(digits: OcfDigits) -> str:
    if not digits.tail:
        return str(digits.a0)
    return "%d;%s" % (digits.a0, ",".join(str(a) for a in digits.tail))
