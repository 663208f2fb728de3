"""Forbidden-block analysis of the vertical cutting-sequence shift.

A block over {L, R, J, C1, C2} is rewritten in MGCF letters from each
starting parity that admits it, and each rewrite is read by the segment
reader that ``mgcf.annotated_from_mgcf`` uses, between a head piece (the end
of a digit begun before the block, cut at a separator of ``mgcf._SEGMENTS``)
and a tail piece (a digit the block cuts off).  A reading is one frozen
record, built whole: complete digits with their 1-tags, the boxes of the
boundary variables y (head continuation, the value [0; e1, e2, ...] of the
digits preceding the block read outward) and z (tail continuation) as integer
pairs (p, q), q > 0, and one constraint record per tagged 1, computed when
the reading is built.  The tagged 1 at digit index i wants

    beta_i(z)  >  N(alpha_i(y))   for 1_h,
    beta_i(z)  <  N(alpha_i(y))   for 1_m,
    beta_i(z)  =  N(alpha_i(y))   for 1_c,

with alpha_i = [0; d_{i-1}, ..., d_0 + y] and beta_i = [1; d_{i+1}, ...,
d_last + z].  Both are convergents: with C(ds) the last convergent of
[0; ds], alpha_i = C(d_{i-1}, ..., d_0) F and beta_i = R C(d_{i+1}, ...,
d_last) F, read off the plain int rows (p_n, p_{n-1}, q_n, q_{n-1}) of
``cf._rows``, one pass over the digits forwards and one backwards; no
matrix object is built.  At y = y1/y2 and z = z1/z2 the
constraint's sign is that of the cross product bn nd - nn bd of (bn, bd) =
beta_i (z1, z2) and (nn, nd) = N alpha_i (y1, y2), since bd and nd are
positive on the boxes: one integer bilinear form f(y, z) = z1 (a y1 + b y2)
+ z2 (c y1 + d y2).  A constraint is the one record (sign, q), q = (a, b,
c, d); it is tight on the curve z = -(c y + d)/(a y + b).  The block is
whole-forbidden iff every reading's constraints are infeasible over the open
box; feasibility is decided exactly by isolating the y-values where the
curves cross each other or the box (integer quadratics) and testing a
rational sample point in every cell.  All of it runs on integers: the
breakpoints are the roots of integer linear and quadratic forms in y.  A
linear form's root is rational, kept as an integer pair and tested against
the box by cross-multiplication; it and a quadratic's roots become triples
(u + v sqrt(D))/w over the raw discriminant D, sorted by the exact
mixed-radicand sign, with the cell samples drawn by the integer walk of
``exactnum.rational_between``; and a witness point is an integer pair
(y, z) until it becomes a foot.  An initial word is the same system with y
pinned to one value (0, or 1 after the J R opening), its one cell.  Each
reading gives one stream of witness points (``_witness_points``): its first
feasible cell's, then, for a free y, those of 60 seeded samples; none when
it is infeasible.  ``decide_block`` takes the readings, their points and
each point's feet one at a time, up to the first witness: a rational foot
whose cutting word, read by the segment codec from the point's own digits
(``_codec_word``), holds the joined block as a substring (a prefix for an
initial word).  Only a verdict without one decides every reading.  Neither
the tracer nor lattice reduction is consulted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, partial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .exactnum import (
    PINF,
    ParseError,
    Real,
    _between,
    _check_count,
    _check_type,
    _digits,
    _real_cmp,
    format_extreal,
)
from .cf import OcfDigits, _rewrite, _rows, ocf_digits, ocf_value
from .mgcf import (
    N_MAT,
    _SEGMENTS,
    _read_segments,
    _standalone,
    _TAG_OF_SIGN,
    annotate_ones,
    mgcf_from_annotated,
    n_transform,
)
from .cutting import (
    CUTTING_TO_MGCF,
    CuttingWord,
    EDGE_FORBIDDEN,
    _tokens,
    corner_resolutions,
    cutting_from_mgcf,
    find_edge_forbidden,
    mgcf_from_cutting,
)
from .tessellation import GeodesicSpec

__all__ = [
    "BlockVerdict",
    "central_head_to_tail",
    "central_block",
    "decide_block",
    "excluded_initial",
    "enumerate_minimal_forbidden",
    "follower_separation",
    "random_cross_check",
    "verdict_json",
]


def central_head_to_tail(head: Sequence[int]) -> tuple[int, ...]:
    """Tail digits b1..bm making head,1_c,tail central.

    alpha = [0, d_n, ..., d_1]; the tail is the continued fraction of
    N(alpha) = [1, b_1, ..., b_m] with the leading 1 removed.  Empty for the
    degenerate head [1] (alpha = 1, N(1) = 1, associated rational 1/2).
    """
    if not head or any(d < 1 for d in head):
        raise ValueError("head digits must be positive")
    alpha = ocf_value(OcfDigits(0, tuple(reversed(head))))
    d = ocf_digits(n_transform(alpha))
    if d.a0 != 1:
        raise AssertionError("N maps (0,1] into (1,2]")
    return d.tail


# ---------------------------------------------------------------------------
# block parsing into readings


class _Reading(NamedTuple):
    """One reading of a block, built whole: its digits, the constraint
    record (sign, q) of each of their tagged 1s, and the boxes.  It is
    frozen: nothing is assigned to it after it is built."""

    digits: tuple  # ((value, tag), ...): tag in {"h","m","c",None}; None = plain >= 2
    cons: tuple  # ``_constraints(digits, trailing_pair)``
    # the boxes as pairs (p, q), q > 0: y in (y_lo, y_hi), y = y_lo when they
    # meet, and z in (z_lo, z_hi)
    y_lo: tuple = (0, 1)
    y_hi: tuple = (1, 1)
    z_lo: tuple = (0, 1)
    z_hi: tuple = (1, 1)
    z_hi_closed: bool = False  # z = z_hi realizable (partial digit, then end)
    trailing_pair: Optional[int] = None  # trailing run read as a full pair
    # run of digit `trailing_pair`; the pair's unseen 1_m adds a constraint


def _partial_digit(k: int):
    """Readings of a partial digit e >= k seen through its last k letters,
    as (continuation bound, split-out digits): the bound is 1/k; for k <= 1
    it is 1/2 (e >= 2), and e = 1 is split out, since a digit 1 owning a run
    must be tagged h."""
    if k >= 2:
        return [((1, k), ())]
    return [((1, 2), ()), ((1, 1), ((1, "h"),))]


def _mgcf_readings(w: Sequence[str]) -> list[str]:
    """The block in MGCF letters, from each starting parity that admits it;
    the reading with R first (after any J) comes before the one with L."""
    out = set()
    for parity in ("even", "odd"):
        try:
            out.add("".join(_rewrite(CUTTING_TO_MGCF, parity, w)))
        except ParseError:
            pass
    return sorted(out, reverse=True)


def _heads(mg: str):
    """(resume position, head digits, y_hi) for each reading of the head of
    the MGCF block ``mg``, which is not a bare R run."""
    r = len(mg) - len(mg.lstrip("R"))
    if r == 0 and mg[0] == "L":
        # (b) the tail of an unseen pair: boundary 1_m with alpha = y free
        return [(1, ((1, "m"),), (1, 1))]
    for sep, (back, tag) in _SEGMENTS.items():
        if mg.startswith(sep, r):
            break
    else:
        return []
    ones = ((1, tag),) if tag else ()
    if r == 0:
        # a J, a pair's J L or a corner closes an unseen digit
        return [(len(sep), ones, (1, 1))]
    # (a) the R run is the tail of a partial digit e >= k absorbed into y,
    #     with k = r - back: a pair's J L takes one R for its 1_m
    return [(r + len(sep), one + ones, bound)
            for bound, one in _partial_digit(r - back)]


def _block_readings(w: Sequence[str], anchored: bool = False) -> Iterator[_Reading]:
    """All consistent (head reading, interior, tail reading) combinations,
    built one at a time as the caller asks for the next.

    The block is read in MGCF letters; its interior goes to the segment
    reader of the codec.  An anchored block is an initial word: it opens
    with J or J L (a0 = -1), and the head continuation y is pinned to 0 or
    to 1 = [0; 1], the consumed 1_m.
    """
    y_lo = (0, 1)
    if anchored:
        try:
            mg = mgcf_from_cutting(w)
        except ParseError:
            return
        start = 2 if mg[1:2] == "L" else 1
        y_lo = (start - 1, 1)
        heads: Iterable = [(mg, start, (), y_lo)]
    else:
        mgs = _mgcf_readings(w)
        if mgs and not mgs[0].strip("R"):
            # an empty block or a bare letter run: any digit >= its length
            yield _Reading((), ())
            return
        # (MGCF block, resume position, head digits, y_hi)
        heads = ((mg,) + head for mg in mgs for head in _heads(mg))
    for mg, start, hdigits, y_hi in heads:
        try:
            digits, stop = _read_segments(mg, start)
        except ParseError:
            continue
        yield from _tail_readings(hdigits + tuple(digits), mg[stop:], y_lo, y_hi)


def _tail_readings(digs: tuple, tail: str, y_lo: tuple, y_hi: tuple) -> Iterator[_Reading]:
    """Readings of the final piece R^r or R^r J that the segment reader left,
    one at a time, each built whole over the head's y box."""

    def reading(ds: tuple, pair: Optional[int] = None, **z_box) -> _Reading:
        return _Reading(ds, _constraints(ds, pair), y_lo, y_hi, trailing_pair=pair, **z_box)

    r = tail.count("R")
    if not tail:
        yield reading(digs)
    elif tail.endswith("J"):
        # plain separator: digit r complete, z free; or a pair: digit r-1
        # then 1_m whose pair tail is unseen
        yield reading(digs + (_standalone(r),))
        if r >= 2:
            yield reading(digs + (_standalone(r - 1), (1, "m")))
    else:
        # (a) partial digit e >= r: z in (0, bound], closed when e = r ends
        #     the expansion
        for bound, one in _partial_digit(r):
            yield reading(digs + one, z_hi=bound, z_hi_closed=not one)
        # (b) the run is a full pair run of length exactly r (digit r-1, J
        #     and pair tail unseen): continuation [0, r-1, 1, ...],
        #     z in (1/r, 2/(2r-1)), plus the unseen 1_m's tag constraint
        if r >= 2:
            yield reading(digs, r - 1, z_lo=(1, r), z_hi=(2, 2 * r - 1))


# ---------------------------------------------------------------------------
# exact feasibility of a reading


def _real(u: int, v: int, w: int, d: int = 0) -> Real:
    """(u + v sqrt(d))/w, w != 0, as a triple with a positive denominator."""
    return (u, v, w, d) if w > 0 else (-u, -v, -w, d)


def _quad_roots(A: int, B: int, C: int) -> list[Real]:
    """Real roots of A x^2 + B x + C as triples (-B +- sqrt(D))/(2A) over the
    raw discriminant D, rational when D is a square; a double root is listed
    twice.  For A = 0, a crossing that degenerates to a linear form, it is
    the one root -C/B, the pole rule: none when B = 0."""
    if A == 0:
        return [_real(-C, 0, B)] if B else []
    D = B * B - 4 * A * C
    if D < 0:
        return []
    s = math.isqrt(D)
    if s * s == D:
        return [_real(-B + s, 0, 2 * A), _real(-B - s, 0, 2 * A)]
    return [_real(-B, e, 2 * A, D) for e in (1, -1)]


_SIGN_OF_TAG = {tag: sign for sign, tag in _TAG_OF_SIGN.items()}


def _constraints(digits: tuple, trailing_pair: Optional[int]) -> tuple:
    """One record (sign, q) per tagged 1 of a reading's digits, and one for
    the unseen 1_m after its trailing pair, if any: the tag wants
    sign(beta(z) - N(alpha(y))) = sign.  q = (a, b, c, d) is the cross
    product bn nd - nn bd of (bn, bd) = beta (z1, z2) and (nn, nd) = N alpha
    (y1, y2), the form f(y, z) = z1 r + z2 t with r = a y1 + b y2 and t =
    c y1 + d y2.  sign(f) is the tag's sign on the boxes, where bd and nd are
    positive: every convergent entry is >= 0, y, z >= 0 over positive
    denominators, and the trailing pair's z stays below 2/(2r - 1) < 1/a.

    With D(a) = [[a, 1], [1, 0]], fw[i] = F D(d_0) ... D(d_(i-1)) and bw[j]
    = F D(d_(k-1)) ... D(d_(k-j)) are the convergents of the digits read
    forwards and backwards, one ``cf._rows`` pass each, as int rows
    (p, p', q, q').  D(a) and F are symmetric, so alpha_i = F D(d_(i-1))
    ... D(d_0) F = F fw[i]^T and beta_i = R F D(d_(i+1)) ... D(d_(k-1)) F =
    R F bw[k-1-i]^T, each read off one row by its entries.
    """
    ds = [v for v, _tag in digits]
    k = len(ds)
    pair = [] if trailing_pair is None else [trailing_pair]
    fw = list(_rows(0, ds + pair))
    bw = list(_rows(0, reversed(ds)))
    cons = []
    for i, (_v, tag) in enumerate(digits):
        if tag in _SIGN_OF_TAG:
            ba, bb, bc, bd = bw[k - 1 - i]
            cons.append(_record(_SIGN_OF_TAG[tag], (ba + bb, bc + bd, ba, bc), fw[i]))
    if trailing_pair is not None:
        # the unseen 1_m after the trailing pair digit a: z = [0; a, 1, t]
        # with t the continuation, and beta = 1 + 1/t = z/(1 - a z)
        cons.append(_record(-1, (1, 0, -trailing_pair, 1), fw[k + 1]))
    return tuple(cons)


def _record(sign: int, beta: tuple, fw: tuple) -> tuple:
    """The record (sign, q) of beta's entries and alpha = F fw^T."""
    (b1, b2, b3, b4), (fa, fb, fc, fd), (n1, n2, n3, n4) = beta, fw, N_MAT
    # N alpha, with alpha = [[fb, fd], [fa, fc]]
    m1, m2 = n1 * fb + n2 * fa, n1 * fd + n2 * fc
    m3, m4 = n3 * fb + n4 * fa, n3 * fd + n4 * fc
    return sign, (b1 * m3 - b3 * m1, b1 * m4 - b3 * m2,
                  b2 * m3 - b4 * m1, b2 * m4 - b4 * m2)


def _satisfied(cons: tuple, y: tuple[int, int], z: tuple[int, int]) -> bool:
    """Whether the rationals y = y1/y2 and z = z1/z2 meet every record."""
    (y1, y2), (z1, z2) = y, z
    for sign, (a, b, c, d) in cons:
        f = z1 * (a * y1 + b * y2) + z2 * (c * y1 + d * y2)
        if (f > 0) - (f < 0) != sign:
            return False
    return True


def _z_at(rd: _Reading, y: tuple[int, int]) -> Optional[tuple[int, int]]:
    """A rational z = (z1, z2), z2 > 0, solving the reading's constraints at
    the fixed rational y = (y1, y2), or None.

    The open z-interval (lo, hi) satisfying every inequality is narrowed
    first; an equality constraint pins z, which must then lie inside it.
    Every value is an integer pair, compared by cross-multiplication.
    """
    y1, y2 = y
    if y1 == 0 and rd.digits and rd.digits[0][1] in _SIGN_OF_TAG:
        # alpha_0 = y must lie in (0, 1]; every later alpha_i does, as
        # p_i >= p_(i-1) and q_i >= q_(i-1) >= 1
        return None
    z_lo, z_hi = rd.z_lo, rd.z_hi
    (l1, l2), (h1, h2) = z_lo, z_hi
    pinned = None
    for sign, (a, b, c, d) in rd.cons:
        # f(y, z) = z1 r + z2 t is tight at z* = -t/r, a pole when r = 0
        r, t = a * y1 + b * y2, c * y1 + d * y2
        s1, s2 = (-t, r) if r > 0 else (t, -r)
        if sign == 0:
            if r == 0:
                return None
            if pinned is not None and pinned[0] * s2 != s1 * pinned[1]:
                return None
            pinned = (s1, s2)
            continue
        # f is monotone in z; probe a point to orient
        p1, p2 = l1 * h2 + h1 * l2, 2 * l2 * h2  # (lo + hi)/2
        good = (p1 * r + p2 * t > 0) == (sign > 0)  # the probe's side
        if r == 0:  # f keeps one sign on the line
            if not good:
                return None
            continue
        # the good side of z*: the probe's side if good, else the other
        if good == (s1 * p2 <= p1 * s2):
            if s1 * l2 > l1 * s2:
                l1, l2 = s1, s2
        elif s1 * h2 < h1 * s2:
            h1, h2 = s1, s2
        if l1 * h2 >= h1 * l2:
            return None
    if pinned is None:
        return _between((l1, 0, l2, 0), (h1, 0, h2, 0))
    z1, z2 = pinned
    # terminating expansions realize the closed endpoints: z = 0 when
    # the tail stops at the block's final separator, z = z_hi when a
    # partial trailing digit is the word's last
    ok = (l1 * z2 < z1 * l2 and z1 * h2 < h1 * z2 or z1 == 0 == z_lo[0] == l1
          or rd.z_hi_closed and z1 * h2 == h1 * z2 and h1 * z_hi[1] == z_hi[0] * h2)
    return pinned if ok else None


def _y_breakpoints(rd: _Reading) -> list[Real]:
    """Sorted distinct y-values in [y_lo, y_hi] where the feasible z-set can
    change, as triples.

    The box ends, z*'s poles and z* meeting z_lo and z_hi are the roots
    -C/B of linear forms B y + C: rational by construction, each is kept as
    an integer pair and tested against the box by cross-multiplication, and
    only one inside becomes a triple.  Two curves cross at the roots of a
    quadratic A y^2 + B y + C, which ``_quad_roots`` isolates.
    """
    (l1, l2), (h1, h2) = rd.y_lo, rd.y_hi
    lines = [(l2, -l1), (h2, -h1)]  # (B, C): the box ends
    cons, crossings = rd.cons, []
    for i, (_sign, (a, b, c, d)) in enumerate(cons):
        lines.append((a, b))  # z*'s pole; alpha's is below y = 0
        for zn, zd in (rd.z_lo, rd.z_hi):
            lines.append((zn * a + zd * c, zn * b + zd * d))  # f(y, zn/zd) = 0
        for _sign2, (a2, b2, c2, d2) in cons[i + 1:]:
            # two curves cross where r t2 = r2 t
            crossings.append((a * c2 - a2 * c, a * d2 + b * c2 - a2 * d - b2 * c,
                              b * d2 - b2 * d))
    roots = ((-C, B) if B > 0 else (C, -B) for B, C in lines if B)
    inside = [(s1, 0, s2, 0) for s1, s2 in roots
              if l1 * s2 <= s1 * l2 and s1 * h2 <= h1 * s2]
    y_lo, y_hi = (l1, 0, l2, 0), (h1, 0, h2, 0)
    inside += [c for form in crossings for c in _quad_roots(*form)
               if _real_cmp(y_lo, c) <= 0 and _real_cmp(c, y_hi) <= 0]
    inside.sort(key=cmp_to_key(_real_cmp))
    # equal values from different candidates sit side by side
    return [c for i, c in enumerate(inside) if i == 0 or _real_cmp(inside[i - 1], c)]


def _witness_points(rd: _Reading) -> Iterator[tuple[tuple, tuple]]:
    """The reading's witness points (y, z), as pairs, one at a time: that of
    the first feasible cell between consecutive breakpoints (none when no
    cell is feasible), then, for a free y only, those of 60 seeded samples.
    A pinned y is its own cell."""
    if rd.y_lo == rd.y_hi:
        yield from _solved(rd, [rd.y_lo])
        return
    inside = _y_breakpoints(rd)
    first = next(_solved(rd, (_between(a, b) for a, b in zip(inside, inside[1:]))), None)
    if first is not None:
        yield first
        rng = random.Random(1729)
        yield from _solved(rd, (_sample(rng, 401, rd.y_lo, rd.y_hi) for _ in range(60)))


def _solved(rd: _Reading, ys: Iterable) -> Iterator[tuple[tuple, tuple]]:
    """(y, z) for each y of ``ys`` at which ``_z_at`` finds a z."""
    for y in ys:
        z = _z_at(rd, y)
        if z is not None:
            yield y, z


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class BlockVerdict:
    block: CuttingWord
    status: str  # admissible | edge-forbidden | whole-forbidden
    witness: Optional[GeodesicSpec] = None
    reason: Optional[str] = None
    anchored: bool = False  # decided as an initial word

    @property
    def forbidden(self) -> bool:
        return self.status != "admissible"


def _theta_from(rd: _Reading, y: tuple, z: tuple) -> Iterator[tuple[Fraction, OcfDigits]]:
    """Nonzero candidate feet realizing the reading at the pairs (y, z),
    each beside its canonical digits, yielded one head representation at a
    time, so a foot is valued only if the one before it fails.

    The head continuation digits come from the two continued fraction
    representations of y (their lengths differ by one), since the parity of
    the head digit count fixes on which side of the strip the block's
    letters fall.  A final digit 1 is folded into the digit before it; a
    value >= 1/2 is shifted by -1, to a0 = -1 before the same digits.
    """
    (y1, y2), (z1, z2) = y, z
    tail = list(_digits(z1, 0, z2, 0))[1:] if z1 else []
    body = [v for v, _t in rd.digits]
    # y = [0; hd], so hd expands 1/y; a pinned y = 1 is the head [1]
    hd = list(_digits(y2, 0, y1, 0)) if y1 else []
    heads = [list(reversed(hd))]
    if hd:  # the other representation: [..., a] == [..., a-1, 1]
        alt = hd[:-1] + ([hd[-1] - 1, 1] if hd[-1] >= 2 else [])
        if alt and alt != hd:
            heads.append(list(reversed(alt)))
    # y == 0: only the empty head exists, single parity
    for head in heads:
        digits = head + body + tail
        if len(digits) > 1 and digits[-1] == 1:
            digits[-2:] = [digits[-2] + 1]
        if digits and digits != [1]:  # [0; 1] = 1 would be the foot 0
            a0 = -1 if digits[0] == 1 or digits == [2] else 0  # theta >= 1/2
            cf = OcfDigits(a0, tuple(digits))
            yield ocf_value(cf), cf


def _codec_word(theta: Fraction, digits: OcfDigits) -> CuttingWord:
    """The complete cutting word of a rational foot theta in [-1/2, 1/2),
    read from its canonical digits by the segment codec."""
    if digits.a0 == -1 and digits.tail == (2,):
        # the closed end -1/2, which the codec rejects (a0 = -1 needs a1 =
        # 1): its lattice word J stands until ROADMAP.md item 2 settles it
        return ("J",)
    return cutting_from_mgcf(mgcf_from_annotated(annotate_ones(digits, theta)))


def _cutting_word(theta: Fraction) -> CuttingWord:
    """``_codec_word`` of theta's own expansion."""
    return _codec_word(theta, ocf_digits(theta))


def _occurs(blk: str, word: str, anchored: bool) -> bool:
    """Whether the joined block is in (anchored: begins) the joined word; a
    match is on token boundaries, since 1 and 2 only follow C in C1, C2."""
    return word.startswith(blk) if anchored else blk in word


def decide_block(w: Sequence[str], anchored: bool = False) -> BlockVerdict:
    """Verdict for a cutting-word factor (or an initial word if anchored).

    An initial word is read with the head continuation y pinned: y = 0 after
    the opening J, and y = [0; 1] = 1 after the J R opening, which encodes
    a0 = -1 with the consumed 1_m digit.  Readings are built and decided one
    at a time, in ``_block_readings`` order, up to the first witness; each
    gives its witness points, and each point its feet, one at a time.  A
    whole-forbidden verdict decides every reading, and counts them; a block
    with none has no segment factorization.  A token that is no cutting
    symbol is a ValueError, checked first.
    """
    w = _tokens(w)
    # the empty word begins every word: it is decided as the free empty block
    anchored = anchored and bool(w)
    verdict = partial(BlockVerdict, w, anchored=anchored)
    hit = find_edge_forbidden(w)
    if hit is not None:
        return verdict("edge-forbidden",
                       reason="contains %s at %d" % ("".join(hit[1]), hit[0]))
    if anchored and w[:1] != ("J",):
        return verdict("whole-forbidden", reason="initial words start with J")
    blk = "".join(w)
    feasible = False
    n = 0  # readings decided
    for n, rd in enumerate(_block_readings(w, anchored), 1):
        for y, z in _witness_points(rd):
            feasible = True
            for theta, digits in _theta_from(rd, y, z):
                if _occurs(blk, "".join(_codec_word(theta, digits)), anchored):
                    return verdict("admissible", witness=GeodesicSpec(PINF, theta))
    if feasible:
        return verdict("admissible", reason="feasible but no rational witness found")
    if not n:
        return verdict("whole-forbidden", reason="no segment factorization")
    return verdict("whole-forbidden", reason="all %d readings infeasible" % n)


def _sample(rng: random.Random, n: int, lo: tuple, hi: tuple) -> tuple[int, int]:
    """lo + r/n (hi - lo) for r drawn from 1..n-1: a seeded point strictly
    between the pairs lo and hi, as an unreduced pair."""
    r = rng.randint(1, n - 1)
    (l1, l2), (h1, h2) = lo, hi
    return n * l1 * h2 + r * (h1 * l2 - l1 * h2), n * l2 * h2


# random points per reading, and their seed, in random_cross_check
_CROSS_CHECK_SAMPLES = 300
_CROSS_CHECK_SEED = 7


def random_cross_check(w: Sequence[str], verdict: BlockVerdict) -> bool:
    """Random rational sampling over the readings a whole-forbidden verdict
    was decided over must never contradict it.  A verdict that is no
    ``BlockVerdict`` is a TypeError."""
    w = _tokens(w)
    _check_type("verdict", verdict, BlockVerdict)
    if verdict.status != "whole-forbidden" or (verdict.anchored and w[:1] != ("J",)):
        return True
    rng = random.Random(_CROSS_CHECK_SEED)
    for rd in _block_readings(w, verdict.anchored):
        for _ in range(_CROSS_CHECK_SAMPLES):
            y = _sample(rng, 998, rd.y_lo, rd.y_hi)
            z = _sample(rng, 998, rd.z_lo, rd.z_hi)
            if _satisfied(rd.cons, y, z):
                return False
    return True


# ---------------------------------------------------------------------------
# excluded initial blocks, minimal enumeration, follower separation


def excluded_initial(w: Sequence[str]) -> bool:
    """True iff w cannot start a cutting sequence read from the cusp:
    ``decide_block`` rules it out as an initial word, which includes every
    start other than J."""
    return decide_block(w, anchored=True).forbidden


def central_block(head: Sequence[int]) -> Optional[tuple[CuttingWord, Fraction]]:
    """Cutting word W1 S W2 of the central sequence from ``head``."""
    tail = central_head_to_tail(head)
    if not tail:
        return None
    digits = list(head) + [1] + list(tail)
    theta = ocf_value(OcfDigits(0, tuple(digits), True))
    if theta == Fraction(1, 2):
        return None
    if theta > Fraction(1, 2):
        theta -= 1  # normalize into [-1/2, 1/2)
    word = _cutting_word(theta)
    if word[0] != "J" or word[-1] != "J":
        return None
    if not any(t.startswith("C") for t in word):
        return None  # not realized as a corner hit; skip
    return word, theta


def enumerate_minimal_forbidden(max_len: int, max_head: int = 3) -> list[CuttingWord]:
    """Edge-forbidden blocks plus central-derived minimal forbidden blocks.

    Heads range over {1,2}^n for n <= max_head; each central sequence's eight
    prefix/resolution/suffix words are decided and the minimal forbidden
    ones kept.  A max_len below 2 or a negative max_head is a ValueError,
    and a bound that is not an int a TypeError.
    """
    _check_count("max_len", max_len, 2)
    _check_count("max_head", max_head, 0)
    heads = []
    for n in range(1, max_head + 1):
        for mask in range(2 ** n):
            heads.append([1 + ((mask >> i) & 1) for i in range(n)])
    candidates: list[CuttingWord] = []
    for head in heads:
        cb = central_block(head)
        if cb is None:
            continue
        w1, s, w2 = _at_corner(cb[0])
        for res in corner_resolutions(s):
            for pre in ("L", "R"):
                for suf in ("L", "R"):
                    candidates.append((pre,) + w1 + res + w2 + (suf,))
    result: list[CuttingWord] = [b for b in EDGE_FORBIDDEN if len(b) <= max_len]
    for blk in dict.fromkeys(candidates):
        if len(blk) <= max_len and decide_block(blk).forbidden and _is_minimal(blk):
            result.append(blk)
    return result


def _at_corner(word: CuttingWord) -> tuple[CuttingWord, str, CuttingWord]:
    """The word before its first corner, that corner, and the word after."""
    ci = next(i for i, t in enumerate(word) if t.startswith("C"))
    return word[:ci], word[ci], word[ci + 1:]


def _is_minimal(blk: CuttingWord) -> bool:
    for sub in (blk[1:], blk[:-1]):
        if sub and decide_block(sub).forbidden:
            return False
    return True


def follower_separation(j: int, k: int) -> dict:
    """A continuation admissible after the j-style initial word but
    forbidden after the k-style one (or vice versa).

    The initial words encode [0; 3, 2^(4j+2)] up to the end of the last
    2-run; continuations come from the central family with head
    [3, 2^(4j+2)].  Both are slices of the central word
    [0; 3, 2^(4j+2), 1_c, tail] (``central_block``), cut at its corner.
    A j or k that is not an int is a TypeError, and one below 1 or j == k a
    ValueError.
    """
    _check_count("j", j, 1)
    _check_count("k", k, 1)
    if j == k:
        raise ValueError("need distinct j, k >= 1")
    wj, corner, tail_j = _at_corner(central_block([3] + [2] * (4 * j + 2))[0])
    wk, _, tail_k = _at_corner(central_block([3] + [2] * (4 * k + 2))[0])
    candidates = []
    for tail in (tail_j, tail_k):
        for rep in ((corner,),) + corner_resolutions(corner):
            # with and without the final separator
            candidates += [rep + tail, (rep + tail)[:-1]]
    for cont in candidates:
        vj = decide_block(wj + cont, anchored=True)
        vk = decide_block(wk + cont, anchored=True)
        if vj.forbidden != vk.forbidden:
            return {
                "j": j, "k": k,
                "continuation": cont,
                "after_j": vj.status,
                "after_k": vk.status,
                "word_j": wj, "word_k": wk,
            }
    raise AssertionError("no separating continuation found for (%d, %d)" % (j, k))


# ---------------------------------------------------------------------------
# JSON


def verdict_json(v: BlockVerdict) -> dict:
    """The verdict as JSON fields; anything else is a TypeError."""
    _check_type("verdict", v, BlockVerdict)
    wit = None
    if v.witness is not None:
        wit = {"head": format_extreal(v.witness.head),
               "foot": format_extreal(v.witness.foot)}
    return {"block": "".join(v.block), "status": v.status,
            "witness": wit, "reason": v.reason}
