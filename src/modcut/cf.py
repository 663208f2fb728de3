"""Ordinary, additive, and Farey-tree continued fractions.

An OCF is [a0; a1, a2, ...] from the floor/Euclid algorithm.  Its additive
form is the word R^{a0} F R^{a1} F R^{a2} ... over {F, R}, and its Farey-tree
form is R^{a0} D^{a1} R^{a2} ... over {R, D}.  The two word forms are related
by the substitution D -> F R F with F F cancellation.  Each direction is one
transition table, ``ACF_TO_FAREY`` and ``FAREY_TO_ACF``; the batch functions
here and the ``automata`` transducers both read it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional

from .exactnum import (
    BudgetError,
    ExtReal,
    IntMatrix2,
    ParseError,
    _check_count,
    _check_type,
    _digits,
    compare,
    is_infinite,
    parse_int,
    real_of,
)

__all__ = [
    "OcfDigits",
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
    "ACF_MATS",
    "ACF_TO_FAREY",
    "FAREY_TO_ACF",
    "FAREY_TO_ACF_FINALS",
]

F_MAT = IntMatrix2(0, 1, 1, 0)
R_MAT = IntMatrix2(1, 1, 0, 1)
# additive letter -> its matrix
ACF_MATS = {"R": R_MAT, "F": F_MAT}


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
    ``limit`` digits are produced with finite=False.  The digits are read
    from ``exactnum._digits``, the one digit stream, on x's reduced triple.
    """
    _check_count("limit", limit, 1)
    u, v, w, d = real_of(x)
    if not w:
        raise ValueError("cannot expand inf")
    digits = list(islice(_digits(u, v, w, d), limit if v else None))
    return OcfDigits(digits[0], tuple(digits[1:]), not v)


def ocf_value(digits: OcfDigits) -> Fraction:
    """Exact value of a terminating digit sequence: p_n/q_n of its last
    convergent.  Digits that are no ``OcfDigits`` are a TypeError."""
    _check_type("digits", digits, OcfDigits)
    if not digits.finite:
        raise ValueError("value of a non-terminating prefix is undefined")
    *_, (p, _p0, q, _q0) = _rows(digits.a0, digits.tail)
    return Fraction(p, q)


def _rows(a0: int, tail: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """The convergents of [a0; tail] as plain int rows (p_n, p_{n-1}, q_n,
    q_{n-1}), one per digit, read from ``tail`` as it yields: the recurrence
    p_n = a_n p_{n-1} + p_{n-2} (and the same for q), written once."""
    p1, p0, q1, q0 = a0, 1, 1, 0
    yield p1, p0, q1, q0
    for a in tail:
        p1, p0, q1, q0 = a * p1 + p0, p1, a * q1 + q0, q1
        yield p1, p0, q1, q0


def convergents(digits: OcfDigits) -> Iterator[IntMatrix2]:
    """The convergent matrices [[p_n, p_{n-1}], [q_n, q_{n-1}]], the products
    [[a0,1],[1,0]] ... [[a_n,1],[1,0]], built lazily from ``_rows``.

    The n-th maps t to [a0; a1, ..., a_n, t], so it times F = [[0,1],[1,0]]
    maps y to [a0; a1, ..., a_n + y].
    """
    _check_type("digits", digits, OcfDigits)
    return (IntMatrix2(*row) for row in _rows(digits.a0, digits.tail))


# ---------------------------------------------------------------------------
# additive and Farey words


def _too_long(n: int) -> BudgetError:
    """The error for a digit n past ``sys.maxsize``, whose run R^n no str
    can hold: a budget, where ``"R" * n`` would raise OverflowError."""
    return BudgetError("digit %d is too large to write as a letter run" % n)


def digits_to_acf(digits: OcfDigits) -> str:
    """ACF word R^{a0} F R^{a1} F ... (trailing F after the last digit); a
    digit past ``sys.maxsize`` is a BudgetError."""
    _check_type("digits", digits, OcfDigits)
    if digits.a0 < 0:
        raise ValueError("ACF words require a0 >= 0")
    big = max(digits.all_digits())
    if big > sys.maxsize:
        raise _too_long(big)
    parts = ["R" * digits.a0]
    for a in digits.tail:
        parts.append("F")
        parts.append("R" * a)
    if digits.tail:
        parts.append("F")
    return "".join(parts)


def _acf_runs(word: str) -> list[int]:
    """Lengths of the R runs of an ACF word, one per F-separated piece.

    The last entry is the run after the final F (0 when the word ends in F).
    """
    _check_type("word", word, str)
    runs = word.split("F")
    for r in runs:
        if r.strip("R"):
            raise ParseError("bad ACF letter %r" % r.strip("R")[0])
    if "" in runs[1:-1]:
        raise ParseError("ACF word contains FF")
    return [len(r) for r in runs]


def acf_to_digits(word: str) -> OcfDigits:
    """Digits encoded by a (finite) ACF word; inverse of digits_to_acf."""
    runs = _acf_runs(word)
    # canonical finite words end with F, leaving a trailing empty run
    if len(runs) > 1 and runs[-1] == 0:
        runs.pop()
    return OcfDigits(runs[0], tuple(runs[1:]), True)


def acf_of(x: ExtReal, limit: int = 64) -> str:
    """Additive continued fraction word of x > 0."""
    if is_infinite(x) or compare(x, 0) <= 0:
        raise ValueError("acf_of requires finite x > 0")
    d = ocf_digits(x, limit)
    word = digits_to_acf(d)
    # a non-terminating expansion is cut after its last computed run
    return word if d.finite else word.removesuffix("F")


def farey_of(x: ExtReal, limit: int = 64) -> str:
    """Farey-tree word R^{a0} D^{a1} R^{a2} D^{a3} ... of x > 0: the additive
    word read through ``ACF_TO_FAREY``."""
    return acf_to_farey(acf_of(x, limit))


# One table per direction: (state, letter) -> (next state, printed letters).
# ACF -> Farey: F toggles the state and prints nothing; R prints R or D.
ACF_TO_FAREY = {
    ("even", "R"): ("even", ("R",)),
    ("even", "F"): ("odd", ()),
    ("odd", "R"): ("odd", ("D",)),
    ("odd", "F"): ("even", ()),
}
# Farey -> ACF: D -> F R F with F F cancelled; the closing F is owed from the
# first D on, so it is the final word of the two states after "int".
FAREY_TO_ACF = {
    ("int", "R"): ("int", ("R",)),
    ("int", "D"): ("odd", ("F", "R")),
    ("odd", "D"): ("odd", ("R",)),
    ("odd", "R"): ("even", ("F", "R")),
    ("even", "R"): ("even", ("R",)),
    ("even", "D"): ("odd", ("F", "R")),
}
FAREY_TO_ACF_FINALS = {"int": (), "odd": ("F",), "even": ("F",)}


def _walk(table, state, word: Iterable[str]) -> tuple[object, list[str]]:
    """Run a deterministic table over word from state: (end state, printed
    letters)."""
    out: list[str] = []
    for i, sym in enumerate(word):
        try:
            state, printed = table[state, sym]
        except KeyError:
            raise ParseError("no edge from state %r on %r (input position %d)"
                             % (state, sym, i)) from None
        out += printed
    return state, out


def _rewrite(table, state, word: Iterable[str], finals=None) -> list[str]:
    """Letters printed by a deterministic table run over word from state,
    then the final word of the state it ends in."""
    state, out = _walk(table, state, word)
    if finals is not None:
        out += finals.get(state, ())
    return out


def acf_to_farey(word: Iterable[str]) -> str:
    """Farey word of an ACF word, by the ACF_TO_FAREY table."""
    return "".join(_rewrite(ACF_TO_FAREY, "even", word))


def farey_to_acf(word: Iterable[str]) -> str:
    """ACF word of a Farey word, by the FAREY_TO_ACF table and its finals."""
    return "".join(_rewrite(FAREY_TO_ACF, "int", word, FAREY_TO_ACF_FINALS))


def _word_matrix(mats, word: Iterable[str], what: str) -> IntMatrix2:
    """The product of the matrices ``mats`` gives the letters of word, left to
    right; a letter without one is ParseError("bad <what> 'X'")."""
    try:
        return math.prod((mats[ch] for ch in word), start=IntMatrix2(1, 0, 0, 1))
    except KeyError as exc:
        raise ParseError("bad %s %r" % (what, exc.args[0])) from None


def acf_value(word: str) -> Fraction:
    """Value of a finite ACF word (matrix product applied to inf)."""
    m = _word_matrix(ACF_MATS, word, "ACF letter")
    if m.c == 0:
        raise ValueError("word has infinite value")
    return Fraction(m.a, m.c)


# ---------------------------------------------------------------------------
# digit text format: "a0;a1,a2,..." or bare "a0"


def _parse_digit_list(text: str, tags: str = "") -> list[tuple[int, Optional[str]]]:
    """The digits "d1,d2,..." of text as (digit, tag) pairs, where a 1 may
    end in a letter of ``tags``; a token that is no integer (empty included)
    or a tag on a digit != 1 is a ParseError."""
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        tag = tok[-1] if tok[-1:] and tok[-1] in tags else None
        d = parse_int(tok[:-1] if tag else tok)
        if tag and d != 1:
            raise ParseError("tag on a digit != 1: %r" % tok)
        pairs.append((d, tag))
    return pairs


def parse_digits(text: str) -> OcfDigits:
    _check_type("text", text, str)
    head, _, rest = text.strip().partition(";")
    tail = tuple(d for d, _t in _parse_digit_list(rest)) if rest else ()
    return OcfDigits(parse_int(head), tail, True)


def format_digits(digits: OcfDigits) -> str:
    _check_type("digits", digits, OcfDigits)
    if not digits.tail:
        return str(digits.a0)
    return "%d;%s" % (digits.a0, ",".join(str(a) for a in digits.tail))
