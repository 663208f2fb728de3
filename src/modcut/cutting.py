"""Cutting-sequence alphabet and conversions.

Symbols are the tokens "L", "R", "J", "C1", "C2" (rendered with bars in the
math).  A cutting word is stored as a tuple of tokens.  The MGCF <-> cutting
conversion is a two-state parity machine, written once as the table
``MGCF_TO_CUTTING``: in even parity L->L, R->R, J->J; in odd parity L->R, R->L,
J->J; L and J toggle the parity, R preserves it, and a corner C maps to C2
(even) or C1 (odd).  Every edge prints one token, so ``CUTTING_TO_MGCF`` is the
same table read backwards.  The batch functions here and the ``automata``
transducers both read these tables.  Parity always equals the determinant
sign of the consumed MGCF prefix; the corner convention matches the geodesic
tracer (a left-corner crossing resolves as JRJ ~ LJL, the C1 matrix).
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from .exactnum import IntMatrix2, ParseError, _check_type
from .cf import R_MAT, _rewrite, _word_matrix
from .mgcf import MGCF_TO_ACF, MGCF_TO_ACF_FINALS

__all__ = [
    "CUTTING_MATS",
    "MGCF_TO_CUTTING",
    "CUTTING_TO_MGCF",
    "CuttingWord",
    "EDGE_FORBIDDEN",
    "cutting_from_mgcf",
    "mgcf_from_cutting",
    "find_edge_forbidden",
    "acf_from_cutting",
    "parse_cutting",
    "format_cutting",
    "cutting_matrix",
    "corner_resolutions",
]

CuttingWord = tuple[str, ...]

LBAR = IntMatrix2(1, -1, 0, 1)
JBAR = IntMatrix2(0, 1, -1, 0)
C1BAR = IntMatrix2(-1, 0, 1, -1)
C2BAR = IntMatrix2(-1, 0, -1, -1)

CUTTING_MATS = {"L": LBAR, "R": R_MAT, "J": JBAR, "C1": C1BAR, "C2": C2BAR}


def cutting_matrix(word: Sequence[str]) -> IntMatrix2:
    """h_j = g_1 g_2 ... g_j, multiplied left-to-right."""
    return _word_matrix(CUTTING_MATS, word, "cutting token")


def corner_resolutions(tok: str) -> tuple[CuttingWord, CuttingWord]:
    """The two three-letter words whose product equals the corner matrix."""
    if tok == "C1":
        return (("J", "R", "J"), ("L", "J", "L"))
    if tok == "C2":
        return (("J", "L", "J"), ("R", "J", "R"))
    raise ValueError("not a corner token: %r" % tok)


# (parity, MGCF symbol) -> (next parity, (cutting token,))
MGCF_TO_CUTTING = {
    ("even", "J"): ("odd", ("J",)),
    ("even", "R"): ("even", ("R",)),
    ("even", "L"): ("odd", ("L",)),
    ("even", "C"): ("even", ("C2",)),
    ("odd", "J"): ("even", ("J",)),
    ("odd", "R"): ("odd", ("L",)),
    ("odd", "L"): ("even", ("R",)),
    ("odd", "C"): ("odd", ("C1",)),
}
# (parity, cutting token) -> (next parity, (MGCF symbol,)); no C1 edge leaves
# even parity and no C2 edge leaves odd parity
CUTTING_TO_MGCF = {
    (state, out[0]): (nxt, (sym,))
    for (state, sym), (nxt, out) in MGCF_TO_CUTTING.items()
}


def cutting_from_mgcf(word: str) -> CuttingWord:
    """Parity letter-replacement MGCF -> cutting."""
    return tuple(_rewrite(MGCF_TO_CUTTING, "even", word))


def mgcf_from_cutting(word: Sequence[str]) -> str:
    """Exact inverse of cutting_from_mgcf (parity tracked by determinant)."""
    return "".join(_rewrite(CUTTING_TO_MGCF, "even", word))


def acf_from_cutting(word: Sequence[str]) -> str:
    """Vertical cutting word -> additive word, by ``mgcf.MGCF_TO_ACF``.

    A word that ends in J is read as complete, without the F that would
    close a terminating expansion; one that ends in R or C as a prefix, each
    letter of which every continuation keeps.  So a J-ending prefix may print
    too much: an L after the J makes the JL separator, whose digit is one less.
    """
    return "".join(_rewrite(MGCF_TO_ACF, "q0", mgcf_from_cutting(word), MGCF_TO_ACF_FINALS))


# ---------------------------------------------------------------------------
# edge-forbidden scanning (shared with shiftspace)

EDGE_FORBIDDEN: tuple[CuttingWord, ...] = (
    ("J", "J"),
    ("L", "R"),
    ("R", "L"),
    ("L", "J", "L", "J"),
    ("R", "J", "R", "J"),
    ("J", "L", "J", "L"),
    ("J", "R", "J", "R"),
    ("L", "J", "L", "L", "J", "L"),
    ("R", "J", "R", "R", "J", "R"),
)


# the nine blocks joined, as one alternation; no block holds a corner, so a
# match starts and ends on token boundaries, and no two blocks match at one
# position, so the first match is the first (position, block) of the scan
_EDGE_OF_TEXT = {"".join(b): b for b in EDGE_FORBIDDEN}
_EDGE_SCAN = re.compile("|".join(_EDGE_OF_TEXT))


def _tokens(w: Sequence[str]) -> CuttingWord:
    """w as a tuple; a token that is no cutting symbol is a ValueError."""
    w = tuple(w)
    if not set(w) <= CUTTING_MATS.keys():
        raise ValueError("bad cutting token in %r" % (w,))
    return w


def find_edge_forbidden(word: Sequence[str]) -> Optional[tuple[int, CuttingWord]]:
    """Position and identity of the first edge-forbidden factor, if any; a
    token that is no cutting symbol is a ValueError.  The joined word is
    scanned once, and a match's token index is its start less the corners
    before it, each C1 or C2 being two letters."""
    text = "".join(_tokens(word))
    m = _EDGE_SCAN.search(text)
    if m is None:
        return None
    i = m.start()
    return i - text.count("C", 0, i), _EDGE_OF_TEXT[m.group()]


# ---------------------------------------------------------------------------
# text format: letters with C1/C2 tokens, e.g. "JRRC1..." or "J,R,R,C1"


_TOKEN = re.compile(r"C[12]|[LRJ]")


def parse_cutting(text: str) -> CuttingWord:
    """The tokens of a cutting word, written run together or split by commas;
    text that is not a str is a TypeError, and a bad token a ParseError."""
    _check_type("cutting word text", text, str)
    t = text.strip()
    if "," in t:
        toks = tuple(p.strip() for p in t.split(",") if p.strip())
        ok = all(tok in CUTTING_MATS for tok in toks)
    else:
        toks = tuple(_TOKEN.findall(t))
        ok = "".join(toks) == t  # the tokens cover the whole text
    if not ok:
        raise ParseError("bad cutting word %r" % text)
    return toks


def format_cutting(word: Sequence[str]) -> str:
    return "".join(word)
