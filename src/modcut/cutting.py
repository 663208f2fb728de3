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

from dataclasses import dataclass
from typing import Optional, Sequence

from .exactnum import IntMatrix2, ParseError
from .cf import R_MAT, _rewrite
from .mgcf import annotated_from_mgcf

__all__ = [
    "CUTTING_MATS",
    "MGCF_TO_CUTTING",
    "CUTTING_TO_MGCF",
    "CuttingWord",
    "Segment",
    "SegmentParse",
    "cutting_from_mgcf",
    "mgcf_from_cutting",
    "parse_segments",
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
    m = IntMatrix2(1, 0, 0, 1)
    for tok in word:
        m = m * CUTTING_MATS[tok]
    return m


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


def find_edge_forbidden(word: Sequence[str]) -> Optional[tuple[int, CuttingWord]]:
    """Position and identity of the first edge-forbidden factor, if any."""
    w = tuple(word)
    for i in range(len(w)):
        for blk in EDGE_FORBIDDEN:
            if w[i : i + len(blk)] == blk:
                return i, blk
    return None


# ---------------------------------------------------------------------------
# segment factorization of vertical cutting words


@dataclass(frozen=True)
class Segment:
    digits: tuple[tuple[int, Optional[str]], ...]  # (digit, tag)


@dataclass(frozen=True)
class SegmentParse:
    a0: Optional[int]
    segments: tuple[Segment, ...]
    incomplete_suffix: CuttingWord
    suffix_encodings: tuple[tuple, ...]  # possible digit readings of the suffix


def parse_segments(word: Sequence[str]) -> SegmentParse:
    """Greedy unique factorization of a vertical cutting word.

    The word must start with J-bar.  A trailing letter run is reported as an
    incomplete suffix together with its consistent digit readings:
    ("ge", k) for a_next >= k, and ("pair", k-1, "m") for a_next = k-1
    followed by a 1_m.  A bare single-letter run (no separator at all) is
    accepted and reported entirely as an incomplete suffix.
    """
    w = tuple(word)
    hit = find_edge_forbidden(w)
    if hit is not None:
        raise ParseError("edge-forbidden factor %s at %d" % ("".join(hit[1]), hit[0]))
    if w and all(t == w[0] for t in w) and w[0] in ("L", "R"):
        a0, segments, suffix = None, [], w
    else:
        if not w or w[0] != "J":
            raise ParseError("vertical cutting words start with J")
        mg = mgcf_from_cutting(w)
        ad = annotated_from_mgcf(mg)
        a0 = ad.a0
        # the a0 = -1 opening J L holds the first 1_m
        pairs = ad.tail[1:] if a0 == -1 else ad.tail
        segments = []
        i = 0
        while i < len(pairs):
            # a digit and the 1_m or 1_c closing it form one segment
            nxt = pairs[i + 1] if i + 1 < len(pairs) else None
            n = 2 if nxt in ((1, "m"), (1, "c")) else 1
            segments.append(Segment(pairs[i:i + n]))
            i += n
        # an incomplete word ends in a run of R, one letter per token
        suffix = () if ad.finite else w[len(mg.rstrip("R")):]
    encodings: list[tuple] = []
    if suffix:
        k = len(suffix)
        encodings.append(("ge", k))
        if k >= 2:
            encodings.append(("pair", k - 1, "m"))
    return SegmentParse(a0, tuple(segments), suffix, tuple(encodings))


def acf_from_cutting(word: Sequence[str]) -> str:
    """Vertical cutting word -> ACF word prefix (strip tags, emit digits).

    Stream semantics: the trailing F that would close a terminating expansion
    is never emitted, so the output is a valid prefix whether or not the
    underlying expansion continues.
    """
    sp = parse_segments(word)
    if sp.a0 is None:
        raise ParseError("not a vertical cutting word")
    if sp.a0 < 0:
        raise ValueError("ACF words are defined for theta > 0 only (a0 >= 0)")
    digits = [d for seg in sp.segments for (d, _t) in seg.digits]
    from .cf import OcfDigits, digits_to_acf

    od = OcfDigits(sp.a0, tuple(digits), True)
    wacf = digits_to_acf(od)
    if digits and wacf.endswith("F"):
        wacf = wacf[:-1]
    return wacf


# ---------------------------------------------------------------------------
# text format: letters with C1/C2 tokens, e.g. "JRRC1..." or "J,R,R,C1"


def parse_cutting(text: str) -> CuttingWord:
    t = text.strip()
    if "," in t:
        toks = [p.strip() for p in t.split(",") if p.strip()]
        for tok in toks:
            if tok not in CUTTING_MATS:
                raise ParseError("bad cutting token %r" % tok)
        return tuple(toks)
    toks = []
    i = 0
    while i < len(t):
        ch = t[i]
        if ch == "C":
            if i + 1 >= len(t) or t[i + 1] not in "12":
                raise ParseError("corner token must be C1 or C2 (position %d)" % i)
            toks.append("C" + t[i + 1])
            i += 2
        elif ch in "LRJ":
            toks.append(ch)
            i += 1
        else:
            raise ParseError("bad cutting letter %r at %d" % (ch, i))
    return tuple(toks)


def format_cutting(word: Sequence[str]) -> str:
    return "".join(word)
