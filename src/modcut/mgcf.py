"""Minkowski geodesic continued fraction.

Three routes to the same word live here:

* ``mgcf_direct`` — event-driven simulation of the Minkowski-reduced basis of
  the lattice spanned by the rows of P * B_t(theta) as t decreases, each
  symbol a wall |2 g12| = g11 or g11 = g22 of its Gram form G0 + s G1 in
  s = t^2 (updated in place), R or L by the sign of g12, J against R by
  one cross-multiplication;
* ``annotate_ones`` + ``mgcf_from_annotated`` — the digit-segment codec,
  with every interior digit 1 tagged h, m, or c by the sign of the tail
  value beta_n against N(alpha_n), N(z) = (z+2)/(2z+1);
* ``mgcf_from_acf`` — an online converter from an additive-CF prefix, which
  can only look at the digits it has been given (used by the benchmark).

The segment grammar is one table, ``_SEGMENTS``: the codec writes with it,
and the one segment reader behind ``annotated_from_mgcf`` reads with it, as
``shiftspace`` does over cutting-word blocks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactnum import (
    End,
    ExtReal,
    IntMatrix2,
    ParseError,
    _check_count,
    _check_type,
    _digits,
    compare,
    lft_apply,
    parse_int,
    real_of,
    surd_sign,
)
from .cf import OcfDigits, _acf_runs, _parse_digit_list, _rows, _too_long, convergents

__all__ = [
    "N_MAT",
    "AnnotatedDigits",
    "mgcf_direct",
    "annotate_ones",
    "mgcf_from_annotated",
    "annotated_from_mgcf",
    "mgcf_from_acf",
    "n_transform",
    "parse_annotated",
    "format_annotated",
]

# the trichotomy transformation N(z) = (z+2)/(2z+1)
N_MAT = IntMatrix2(1, 2, 2, 1)


def n_transform(x) -> ExtReal:
    return lft_apply(N_MAT, x)


# the tag of an interior 1 by the sign of beta - N(alpha)
_TAG_OF_SIGN = {1: "h", 0: "c", -1: "m"}
# the tags a digit may carry: None, or h, m or c on a digit 1
_TAGS = (None, *_TAG_OF_SIGN.values())

# The MGCF segments by separator: (back, tag).  A digit a and the 1 tagged
# ``tag`` after it are the segment R^(a + back) sep, back being the R's of
# the run that the digit gives up to that 1; J holds no 1.  JL precedes J,
# so that a scan in order finds the longer separator first.
_SEGMENTS = {"JL": (1, "m"), "J": (0, None), "C": (0, "c")}
# the separator of a digit by the tag of a 1 after it
_SEP_OF_TAG = {tag: sep for sep, (_back, tag) in _SEGMENTS.items()}
# separators that begin a longer one, which a word ending in them may hold
_OPEN_SEPS = {s for s in _SEGMENTS for t in _SEGMENTS if t != s and t.startswith(s)}


# ---------------------------------------------------------------------------
# direct simulation


def mgcf_direct(theta: ExtReal, limit: int = 200) -> str:
    """MGCF word of theta in [-1/2, 1/2) by direct lattice reduction.

    The basis rows (p - q theta, q t) of the lattice spanned by the rows of
    P * B_t(theta) have the Gram form G0 + s G1 in s = t^2, G0 = [l_i l_j]
    with l = p - q theta and G1 = [q_i q_j], reduced while |2 g12| <= g11 <=
    g22.  As s falls from +infinity, each symbol is the wall the form reaches
    next, its s a numerator over a positive int and ahead while that is > 0:
    J at g11 = g22 (swap the rows), R and L at g11 +- 2 g12 = 0 (row 2
    becomes row 1 +- row 2), and C where J and R tie (row 1 becomes row 1 +
    row 2).  R needs g12 < 0 and L g12 > 0, as g11 = l1^2 >= 0; q1, q2 >= 0,
    so J (q2 > q1) never meets L (q1 > 2 q2): only J and R compete, by one
    cross-multiplication.  At theta = -1/2, where the swapped basis meets L
    at the s of the first J, the word is J.  Ends for rational theta, else
    after ``limit`` symbols; a theta that is no exact extended real, or a
    limit that is not an int, is a TypeError.
    """
    if not real_of(theta)[2]:
        raise ValueError("theta must be finite")
    _check_count("limit", limit, 1)
    low = compare(theta, Fraction(-1, 2))
    if low < 0 or compare(theta, Fraction(1, 2)) >= 0:
        raise ValueError("theta outside [-1/2, 1/2)")
    if not low:
        return "J"  # J, then L at the same s: ROADMAP item 2 settles this end
    g11, g12, g22, q1, q2 = 1, -theta, theta * theta, 0, 1  # rows (1, 0), (0, 1)
    word: list[str] = []
    while len(word) < limit:
        h = 2 * g12
        nj = g11 - g22 if q2 > q1 else 0  # J: s = nj/(q2^2 - q1^2)
        sym = "J" if nj > 0 else ""
        nr = -(g11 + h) if h < 0 and q1 else 0  # R: s = nr/(q1 (q1 + 2 q2))
        if nr > 0:  # nr dJ - nj dR has the sign of s_R - s_J
            x = nr * (q2 * q2 - q1 * q1) - nj * (q1 * (q1 + 2 * q2)) if sym else 1
            sym = "R" if x > 0 else "C" if x == 0 else "J"
        elif not sym and q1 > 2 * q2:
            nl = h - g11  # L: s = nl/(q1 (q1 - 2 q2))
            sym = "L" if nl > 0 else ""
        if not sym:
            break
        if sym == "J":
            g11, q1, g22, q2 = g22, q2, g11, q1
        elif sym == "R":
            g22, g12, q2 = g22 - nr, g11 + g12, q1 + q2
        elif sym == "L":
            g22, g12, q2 = g22 - nl, g11 - g12, q1 - q2
        else:  # C
            g11, g12, q1 = g22 - nr, g12 + g22, q1 + q2
        word.append(sym)
    return "".join(word)


# ---------------------------------------------------------------------------
# annotated digits


@dataclass(frozen=True)
class AnnotatedDigits:
    """OCF digits in which interior 1s carry a tag from {h, m, c}.

    ``tail`` holds (digit, tag) pairs; tag is None for digits != 1 and for
    nothing else.  A digit a1 = 1 is always tagged m.
    """

    a0: int
    tail: tuple[tuple[int, Optional[str]], ...] = ()
    finite: bool = True

    def digits(self) -> OcfDigits:
        return OcfDigits(self.a0, tuple(d for d, _t in self.tail), self.finite)

    def __repr__(self):
        return "AnnotatedDigits(%s%s)" % (
            format_annotated(self),
            "" if self.finite else "...",
        )


def annotate_ones(digits: OcfDigits, theta: ExtReal) -> AnnotatedDigits:
    """Tag every digit 1 of the expansion of theta with h, m, or c.

    For a_{n+1} = 1 with n >= 1, alpha_n = q_{n-1}/q_n and beta_n is theta
    pulled back by the n-th convergent, -(p_{n-1} - q_{n-1} theta)/(p_n - q_n
    theta); the tag is h, c, m according to beta_n >, =, < N(alpha_n).
    a_1 = 1 is always tagged m.

    The digits are checked by one tail value, t = beta_n at the last
    convergent (theta = [a0; a1, ..., a_n, t]): they begin the expansion iff
    t > 1, or t = inf not after a final digit 1 (the other representation
    [..., a_n + 1]); finite digits need t = inf.  Digits that are no
    ``OcfDigits`` are a TypeError.
    """
    _check_type("digits", digits, OcfDigits)
    u, v, w, d = real_of(theta)
    if not w:
        raise ValueError("theta must be finite")

    def pullback(ma: int, mb: int, mc: int, md: int) -> End:
        # beta = m^-1(theta) = (b0 + b1 sqrt d)/(c0 + c1 sqrt d), by the
        # adjugate of m, its inverse up to sign
        return md * u - mb * w, md * v, ma * w - mc * u, -mc * v

    ms = list(_rows(digits.a0, digits.tail))
    b0, b1, c0, c1 = pullback(*ms[-1])
    if not c0 and not c1:  # t = inf: theta = p_n/q_n
        ok = not (digits.tail and digits.tail[-1] == 1)
    else:
        ok = not digits.finite and surd_sign(b0 - c0, b1 - c1, d) * surd_sign(c0, c1, d) > 0
    if not ok:
        raise ValueError("digits are not the expansion of theta")
    pairs: list[tuple[int, Optional[str]]] = []
    # a = a_{n+1} beside the n-th convergent row (p_n, p_{n-1}, q_n, q_{n-1})
    for n, (a, m) in enumerate(zip(digits.tail, ms)):
        if a != 1:
            pairs.append((a, None))
        elif n == 0:
            pairs.append((1, "m"))
        else:
            # sign(beta - nn/nd), with N(alpha) = nn/nd and nd > 0
            ma, mb, mc, md = m
            b0, b1, c0, c1 = pullback(ma, mb, mc, md)
            nn, nd = md + 2 * mc, 2 * md + mc
            sign = surd_sign(b0 * nd - nn * c0, b1 * nd - nn * c1, d) * surd_sign(c0, c1, d)
            pairs.append((1, _TAG_OF_SIGN[sign]))
    return AnnotatedDigits(digits.a0, tuple(pairs), digits.finite)


def mgcf_from_annotated(ad: AnnotatedDigits) -> str:
    """The segment codec: annotated digits -> MGCF word.

    Each digit is a segment of ``_SEGMENTS``, its separator chosen by the tag
    of the 1 after it; a0 = -1 and a1 = 1 are the JL segment with no R run.
    A digit < 1, a tag outside h/m/c or on a digit != 1, an a1 = 1 after
    a0 = -1 tagged h or c, and a 1_c in a non-terminating expansion are
    ValueErrors; a digit past ``sys.maxsize`` is a BudgetError.
    """
    tail, bad = ad.tail, None
    if ad.a0 == 0:
        out, i = ["J"], 0
    elif ad.a0 == -1:
        if not tail or tail[0][0] != 1 or tail[0][1] in ("h", "c"):
            raise ValueError("a0 = -1 requires a1 = 1, untagged or tagged m")
        out, i, bad = ["JL"], 1, (None if tail[0][1] in _TAGS else tail[0])
    else:
        raise ValueError("normalized digits require a0 in {0, -1}")
    n, finite = len(tail), ad.finite
    while i < n:
        a, tag = tail[i]
        if a >= sys.maxsize:  # no str holds its run R^(a + back)
            raise _too_long(a)
        if tag is None:
            if a < 1:
                bad = bad or (a, tag)
        elif tag == "c" and not finite:
            raise ValueError("1_c on a non-terminating expansion")
        elif a != 1 or tag not in _TAGS:
            bad = bad or (a, tag)
        i += 1
        if i < n:
            b, t = tail[i]
            sep = _SEP_OF_TAG.get(t, "J") if b == 1 else "J"
        elif finite:
            sep = "J"
        else:
            out.append("R" * a)  # unknown continuation: only the run is determined
            break
        back, held = _SEGMENTS[sep]
        if held == "c" and not finite:
            raise ValueError("1_c on a non-terminating expansion")
        out.append("R" * (a + back) + sep)
        if held:
            i += 1
    if bad:
        # after the checks above, so that their messages come first
        raise ValueError("not an annotated digit: %r" % (bad,))
    return "".join(out)


def _standalone(k: int) -> tuple[int, Optional[str]]:
    """A complete digit k that heads its own segment: a 1 there is tagged h."""
    return (k, "h" if k == 1 else None)


def _read_segments(word: str, i: int) -> tuple[list, int]:
    """Read the segments of ``word`` from position i.

    R^k sep is the digit k - back, then the 1 of its separator's tag
    (``_SEGMENTS``).  Returns the (digit, tag) pairs read and the position
    of the first letter left unread: the reader stops before a final R^k or
    R^k J, whose digit depends on letters beyond the word.  Raises
    ParseError where no segment fits.
    """
    pairs: list[tuple[int, Optional[str]]] = []
    n = len(word)
    while True:
        j = i
        while j < n and word[j] == "R":
            j += 1
        if j == n:
            return pairs, i
        sep = "JL" if word.startswith("JL", j) else word[j]
        try:
            back, tag = _SEGMENTS[sep]
        except KeyError:
            raise ParseError("unexpected symbol %r at position %d" % (sep, j)) from None
        k = j - i
        if k <= back:  # the digit k - back would be below 1
            if k == 0:
                raise ParseError("segment with no R run at position %d" % j)
            raise ParseError("%s after a single R at position %d" % (" ".join(sep), j))
        i = j + len(sep)
        if i == n and sep in _OPEN_SEPS:
            return pairs, j - k
        pairs.append(_standalone(k - back))
        if tag:
            pairs.append((1, tag))


def annotated_from_mgcf(word: str) -> AnnotatedDigits:
    """Inverse of mgcf_from_annotated; rejects unfactorizable words.  A JL
    opening is a0 = -1, which has no additive word: the MGCF -> additive
    machine reads only the non-empty words of feet in [0, 1/2)."""
    if not word:
        raise ParseError("empty MGCF word")
    if word[0] != "J":
        raise ParseError("no segment may precede the initial J (position 0)")
    if word[1:2] == "L":
        a0, pairs, i = -1, [(1, "m")], 2
    else:
        a0, pairs, i = 0, [], 1
    read, i = _read_segments(word, i)
    pairs += read
    # the final piece: R^k J is a complete digit, a bare R^k is not
    tail = word[i:]
    if tail.endswith("J"):
        pairs.append(_standalone(len(tail) - 1))
    if pairs and pairs[0] == (1, "h"):
        pairs[0] = (1, "m")  # a1 = 1 is always tagged m
    return AnnotatedDigits(a0, tuple(pairs), not tail.endswith("R"))


# ---------------------------------------------------------------------------
# online conversion from an additive-CF prefix (benchmark subject)


def _cmp_vs_prefix_interval(n: int, w: int, digs: Sequence[int]) -> int:
    """Position of t = n/w (w > 0) relative to all reals whose CF starts
    with ``digs``.

    Returns -1 (t below every such real), +1 (above), 0 (cannot be decided
    from the prefix / t lies among them).  Lazy: reads t's digit stream
    against ``digs`` and stops at the first difference.  A stream that ends
    early reads as the digit +inf: t is then an end of the interval.
    """
    stream = _digits(n, 0, w, 0)
    for i, target in enumerate(digs):
        a = next(stream, None)
        if a != target:
            side = 1 if a is None or a > target else -1
            return side if i % 2 == 0 else -side
    return 0


def mgcf_from_acf(word: str):
    """Convert an ACF word (prefix) to the determined MGCF prefix.

    Only symbols forced by the available digits are emitted; tags of
    interior 1s are decided by comparing N(alpha_n) against the interval of
    possible tail values.  Returns (mgcf_word, stats) where stats has the
    retained digit count.  A word that is not a str is a TypeError.
    """
    _check_type("word", word, str)
    # the last run is only a lower bound on the next digit: drop it
    digits = tuple(_acf_runs(word)[:-1]) or (0,)
    tail = digits[1:]
    pairs: list[tuple[int, Optional[str]]] = []
    ms = convergents(OcfDigits(digits[0], tail))
    for n, (a, (_ma, _mb, mc, md)) in enumerate(zip(tail, ms)):
        if a != 1:
            pairs.append((a, None))
            continue
        if n == 0:
            pairs.append((1, "m"))
            continue
        # N(alpha) below every possible tail value beta means beta > N(alpha),
        # with alpha = md/mc and N(alpha) = (md + 2 mc)/(2 md + mc)
        sign = -_cmp_vs_prefix_interval(md + 2 * mc, 2 * md + mc, tail[n:])
        if sign == 0:
            break  # undecidable from this prefix; stop here
        pairs.append((1, _TAG_OF_SIGN[sign]))
    word = mgcf_from_annotated(AnnotatedDigits(digits[0], tuple(pairs), False))
    return word, {"retained_digits": len(digits)}


# ---------------------------------------------------------------------------
# annotated digit text format: "0;2,1c,4"


def parse_annotated(text: str) -> AnnotatedDigits:
    head, _, rest = text.strip().partition(";")
    a0 = parse_int(head)
    pairs = _parse_digit_list(rest, "hmc") if rest else []
    if any(d < 1 for d, _t in pairs):
        raise ValueError("tail digits must be positive")
    return AnnotatedDigits(a0, tuple(pairs), True)


def format_annotated(ad: AnnotatedDigits) -> str:
    if not ad.tail:
        return str(ad.a0)
    toks = [("%d%s" % (d, t) if t else str(d)) for d, t in ad.tail]
    return "%d;%s" % (ad.a0, ",".join(toks))
