"""Exact tracing of geodesics through the modular tessellation.

The fundamental domain F is |z| >= 1, |Re z| <= 1/2.  A geodesic is stored by
its ideal endpoints (head, foot) and repeatedly pulled back so that the
current representative always crosses the interior of F.  Each end is a
projective pair x/y with x, y in Z[sqrt(d)] (``exactnum.End``; d = 0 for
rational ends, and infinity is 1/0), which enters as the end (u, v, w, 0) of
its ``real_of`` triple (u + v*sqrt(d))/w.  So a pull-back is ``lft_apply`` of
the inverse generator on an end, a 2x2 integer matrix-vector product, and no
fraction is ever reduced.  Along the semicircle with feet a, b the squared
absolute value is affine in x, |z|^2 = (a+b) x - a b, so every exit-side
decision is the sign of a small polynomial in the coordinates: b - a, a + b
and 2ab + 2 -+ (a + b), each cleared of denominators by the sign of y_a y_b.
Exit through the right edge emits R, the left edge L, the bottom arc J;
passing exactly through a corner (+-1/2 + sqrt(3)/2 i) emits C1/C2 and
applies the corner matrix.  The corners on a vertical geodesic are read off
the integer forms of discriminant -3, whose roots are the corners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactnum import (
    BudgetError,
    End,
    ExtReal,
    IntMatrix2,
    QuadSurd,
    Real,
    _check_count,
    _check_type,
    end_value,
    is_infinite,
    lft_apply,
    real_of,
    sqrt_exact,
    surd,
    surd_sign,
)
from .cutting import CUTTING_MATS

__all__ = [
    "GeodesicSpec",
    "TraceStep",
    "CornerHit",
    "trace",
    "corner_hits_vertical",
    "corner_point",
    "periodic_corner_count",
    "render_trace_svg",
]

# each generator's inverse
_INVERSES = {sym: m.inverse() for sym, m in CUTTING_MATS.items()}
# heading right (+1) or left (-1): the side and the corner the geodesic exits by
_EXITS = {1: ("R", "C2"), -1: ("L", "C1")}


@dataclass(frozen=True)
class GeodesicSpec:
    """Oriented geodesic from head to foot (ideal endpoints); +inf and -inf
    are the same end."""

    head: ExtReal
    foot: ExtReal


class TraceStep:
    """One crossing: its symbol and the integer state the tracer reached.

    ``h`` (the cumulative domain matrix h_j = g_1 ... g_j) and ``head`` and
    ``foot`` (the geodesic's ends pulled back by h) are built when read.
    """

    __slots__ = ("symbol", "_h", "_head", "_foot", "_d")

    def __init__(self, symbol: str, h: tuple[int, int, int, int],
                 head: End, foot: End, d: int):
        self.symbol = symbol
        self._h, self._head, self._foot, self._d = h, head, foot, d

    @property
    def h(self) -> IntMatrix2:
        return IntMatrix2(*self._h)

    @property
    def head(self) -> ExtReal:
        return end_value(self._head, self._d)

    @property
    def foot(self) -> ExtReal:
        return end_value(self._foot, self._d)

    def __repr__(self):
        return "TraceStep(%s, %r, head=%r, foot=%r)" % (
            self.symbol, self.h, self.head, self.foot)


@dataclass(frozen=True)
class CornerHit:
    r: Fraction  # the hit is at height t = sqrt(3) * r, r = 1/(2A) for its form
    witness: IntMatrix2  # SL(2,Z) matrix mapping the corner of F to the hit

    def t_value(self) -> QuadSurd:
        return surd(0, self.r, 3)


class NonTransverseError(ValueError):
    pass


def _check_admissible(head: Real, foot: Real, d: int) -> None:
    # the ends' real_of triples over the one radicand d: y > 0 unless infinite
    (xa0, xa1, ya, _), (xb0, xb1, yb, _) = head, foot
    c0, c1 = xa0 * yb - xb0 * ya, xa1 * yb - xb1 * ya  # x_a y_b - x_b y_a
    if not (c0 or c1):
        raise ValueError("head and foot coincide")
    if not d and abs(c0) == 2:
        raise NonTransverseError("geodesic lies in the tessellation edge set")
    if not (ya and yb):
        # the finite end x/y, y > 0, must satisfy -y < 2x < y
        x0, x1, y = (xb0, xb1, yb) if ya == 0 else (xa0, xa1, ya)
        if not surd_sign(2 * x0 + y, 2 * x1, d) > 0 > surd_sign(2 * x0 - y, 2 * x1, d):
            raise ValueError("vertical geodesic misses the interior of F")
        return
    # the geodesic crosses the interior of F iff |z|^2 = (a+b)x - ab exceeds
    # 1 somewhere on [-1/2, 1/2]; the linear form peaks at the end x = e/2,
    # e = sign(a + b), where it exceeds 1 iff 2ab + 2 - e(a + b) < 0
    s0, s1 = xa0 * yb + xb0 * ya, xa1 * yb + xb1 * ya
    e = 1 if surd_sign(s0, s1, d) >= 0 else -1
    q0 = 2 * (xa0 * xb0 + d * xa1 * xb1 + ya * yb) - e * s0
    q1 = 2 * (xa0 * xb1 + xa1 * xb0) - e * s1
    if surd_sign(q0, q1, d) >= 0:
        raise ValueError("geodesic misses the interior of F")


def trace(g: GeodesicSpec, limit: int = 200) -> Iterator[TraceStep]:
    """Stream of crossings of the tessellation, pulled back step by step.

    At most ``limit`` steps.  The arguments are checked at the call, before
    the first step: a limit below 1 is a ValueError, and one that is not an
    int a TypeError, as is a g that is no ``GeodesicSpec``.
    """
    _check_type("g", g, GeodesicSpec)
    _check_count("limit", limit, 1)
    head, foot = real_of(g.head), real_of(g.foot)
    da, db = head[3], foot[3]
    if da and db and da != db:
        raise ValueError("the ends lie in two different quadratic fields")
    d = da or db
    _check_admissible(head, foot, d)
    return _steps(head, foot, d, limit)


def _steps(head: Real, foot: Real, d: int, limit: int) -> Iterator[TraceStep]:
    """The crossings of ``trace``, from its checked ends over the radicand d."""
    (xa0, xa1, ya0, _), (xb0, xb1, yb0, _) = head, foot
    ya1 = yb1 = 0  # the ends (u, v, w, 0) of the two triples
    h0, h1, h2, h3 = 1, 0, 0, 1
    for _ in range(limit):
        if not (yb0 or yb1):
            return  # upward vertical: enters the cusp, trace terminates
        if not (ya0 or ya1):
            sym = "J"
        else:
            # a = xa/ya, b = xb/yb: each test is the sign of a polynomial in
            # the coordinates times s = sign(ya yb)
            p0, p1 = ya0 * yb0 + d * ya1 * yb1, ya0 * yb1 + ya1 * yb0
            s = surd_sign(p0, p1, d)
            q0, q1 = xa0 * yb0 + d * xa1 * yb1, xa0 * yb1 + xa1 * yb0
            r0, r1 = xb0 * ya0 + d * xb1 * ya1, xb0 * ya1 + xb1 * ya0
            e = 1 if surd_sign(r0 - q0, r1 - q1, d) == s else -1  # sign(b - a)
            side, corner = _EXITS[e]
            if surd_sign(q0 + r0, q1 + r1, d) == -e * s:  # sign(a + b) = -e
                # the arc |z| = 1 is met at x = (ab + 1)/(a + b), inside the
                # edge x = e/2 iff 2ab + 2 - e(a + b) > 0 and at the corner
                # iff it is 0
                k = s * surd_sign(
                    2 * (xa0 * xb0 + d * xa1 * xb1 + p0) - e * (q0 + r0),
                    2 * (xa0 * xb1 + xa1 * xb0 + p1) - e * (q1 + r1), d)
                sym = "J" if k > 0 else (corner if k == 0 else side)
            else:
                sym = side
        inv = _INVERSES[sym]
        xa0, xa1, ya0, ya1 = lft_apply(inv, (xa0, xa1, ya0, ya1))
        xb0, xb1, yb0, yb1 = lft_apply(inv, (xb0, xb1, yb0, yb1))
        a, b, c, dd = CUTTING_MATS[sym]
        h0, h1, h2, h3 = (h0 * a + h1 * c, h0 * b + h1 * dd,
                          h2 * a + h3 * c, h2 * b + h3 * dd)
        yield TraceStep(sym, (h0, h1, h2, h3), (xa0, xa1, ya0, ya1),
                        (xb0, xb1, yb0, yb1), d)


def trace_word(g: GeodesicSpec, limit: int = 200) -> tuple[str, ...]:
    return tuple(st.symbol for st in trace(g, limit))


# ---------------------------------------------------------------------------
# corner arithmetic (exact characterization of corner hits)


def corner_point(m: IntMatrix2) -> tuple[Fraction, Fraction]:
    """Image of the corner 1/2 + sqrt(3)/2 i under m: (x, y_coeff).

    The image is x + y_coeff * sqrt(3) * i with x = N/(2D), y_coeff = 1/(2D),
    N = 2ac + ad + bc + 2bd and D = c^2 + cd + d^2.
    """
    if m.det() != 1:
        raise ValueError("corner_point requires det = 1")
    a, b, c, d = m.a, m.b, m.c, m.d
    N = 2 * a * c + a * d + b * c + 2 * b * d
    D = c * c + c * d + d * d
    return Fraction(N, 2 * D), Fraction(1, 2 * D)


def _corner_matrix(A: int, B: int, C: int) -> IntMatrix2:
    """m in SL(2,Z) with m(rho) = (-B + sqrt(3) i)/(2A), the root of the form
    (A, B, C) of discriminant -3, reduced to (1, -1, 1), whose root is rho,
    by two moves undone on the right of m: z -> z + k maps B to B - 2kA, and
    k = (B + A) // (2A) puts B in [-A, A); z -> -1/z maps (A, B, C) to
    (C, -B, A).  After a translation, C >= A forces 4A^2 <= B^2 + 3 <=
    A^2 + 3, so A = 1 and B = -1; else the inversion lowers A."""
    a, b, c, d = 1, 0, 0, 1
    while True:
        k = (B + A) // (2 * A)
        B, C = B - 2 * k * A, C - k * (B - k * A)
        b, d = b - k * a, d - k * c
        if A == 1:
            return IntMatrix2(a, b, c, d)
        A, B, C = C, -B, A
        a, b, c, d = -b, a, -d, c


def corner_hits_vertical(theta) -> list[CornerHit]:
    """All corner translates on the vertical line x = theta, exactly.

    The corners are the SL(2,Z) images of rho = (1 + sqrt(3) i)/2: the roots
    (-B + sqrt(3) i)/(2A), A > 0, of the integer forms A x^2 + B x + C with
    B^2 - 4AC = -3.  On x = p/q in lowest terms a root needs B = -2A p/q, so
    2A = qk and B = -pk for an integer k > 0; and 4AC = 2qk C = (pk)^2 + 3,
    so k divides 3.  Hence a hit at height sqrt(3)/(qk) exists for k = 1 or
    3 exactly when q is even (A = qk/2 is an integer) and 2qk divides
    (pk)^2 + 3, with C the quotient; the k = 1 hit comes first.  A surd or an infinite theta is a
    ValueError, and an inexact one a TypeError.
    """
    p, v, q, _ = real_of(theta)
    if v or not q:
        raise ValueError("corner hits are computed for rational theta only")
    if q % 2:
        return []
    hits = []
    for k in (1, 3):
        C, rem = divmod((p * k) ** 2 + 3, 2 * q * k)
        if not rem:
            hits.append(CornerHit(Fraction(1, q * k), _corner_matrix(q * k // 2, -p * k, C)))
    return hits


# ---------------------------------------------------------------------------
# periodic geodesics


def periodic_corner_count(d: int, limit: int = 5000) -> int:
    """Corners hit per period by the geodesic <-sqrt(d), sqrt(d)>.

    A tracer step is invertible (a geodesic that crosses F enters it through
    exactly one side), so the first state to repeat is the start: the
    period ends at the first domain matrix h = (a, b, c, e) that fixes
    sqrt(d), a == e and b == d*c, an automorph of x^2 - d y^2 with
    a^2 - d c^2 = 1.  Raises BudgetError when the period is longer than
    ``limit`` steps.
    """
    if d <= 1 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be a nonsquare integer > 1")
    _check_count("limit", limit, None)
    rt = sqrt_exact(d)
    corners = 0
    # a budget below one step runs out before the first crossing
    for step in trace(GeodesicSpec(-rt, rt), limit) if limit >= 1 else ():
        corners += step.symbol.startswith("C")
        a, b, c, e = step._h  # the ints, not an IntMatrix2 per step
        if a == e and b == d * c:
            return corners
    raise BudgetError("no recurrence within %d steps (inconclusive)" % limit)


# ---------------------------------------------------------------------------
# SVG rendering (floats are used here only, for cosmetic output)


def _mobius_f(m: IntMatrix2, z: complex) -> complex:
    den = m.c * z + m.d
    if abs(den) < 1e-12:
        return complex(1e9, 1e9)
    return (m.a * z + m.b) / den


# points per side of a drawn domain, and the height its vertical sides end at
_OUTLINE_SAMPLES = 24
_OUTLINE_YMAX = 3.0


def _domain_outline(m: IntMatrix2):
    samples, ymax = _OUTLINE_SAMPLES, _OUTLINE_YMAX
    rho = math.sqrt(3.0) / 2.0
    pts = []
    # left edge top-down, arc left-to-right, right edge bottom-up
    for i in range(samples + 1):
        y = ymax + (rho - ymax) * i / samples
        pts.append(complex(-0.5, y))
    for i in range(1, samples + 1):
        ang = math.pi * (2.0 / 3.0) - math.pi / 3.0 * i / samples
        pts.append(complex(math.cos(ang), math.sin(ang)))
    for i in range(1, samples + 1):
        y = rho + (ymax - rho) * i / samples
        pts.append(complex(0.5, y))
    return [_mobius_f(m, z) for z in pts]


def render_trace_svg(g: GeodesicSpec, steps: Sequence[TraceStep], path: str) -> None:
    """Deterministic SVG of the visited domains and the geodesic; a g that
    is no ``GeodesicSpec`` is a TypeError."""
    _check_type("g", g, GeodesicSpec)
    mats = [IntMatrix2(1, 0, 0, 1)] + [st.h for st in steps]
    outlines = [_domain_outline(m) for m in mats]
    geo_pts: list[complex] = []
    if is_infinite(g.head) or is_infinite(g.foot):
        th = g.foot if is_infinite(g.head) else g.head
        x = _to_float(th)
        for i in range(65):
            geo_pts.append(complex(x, 3.0 * (1.0 - i / 64.0) + 0.02))
    else:
        a, b = _to_float(g.head), _to_float(g.foot)
        c, r = (a + b) / 2.0, abs(b - a) / 2.0
        for i in range(65):
            ang = math.pi * (1.0 - i / 64.0)
            geo_pts.append(complex(c + r * math.cos(ang), max(r * math.sin(ang), 0.01)))
    xs = [p.real for o in outlines for p in o] + [p.real for p in geo_pts]
    ys = [p.imag for o in outlines for p in o] + [p.imag for p in geo_pts]
    x0, x1 = min(xs) - 0.2, max(xs) + 0.2
    y0, y1 = -0.1, max(ys) + 0.2
    W = 640.0
    scale = W / (x1 - x0)
    H = (y1 - y0) * scale

    def sx(p: complex) -> str:
        return "%.4f,%.4f" % ((p.real - x0) * scale, H - (p.imag - y0) * scale)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.4f %.4f">' % (W, H, W, H),
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for o in outlines:
        lines.append(
            '<polyline fill="none" stroke="#888" stroke-width="1" points="%s"/>'
            % " ".join(sx(p) for p in o)
        )
    lines.append(
        '<polyline fill="none" stroke="#c00" stroke-width="2" points="%s"/>'
        % " ".join(sx(p) for p in geo_pts)
    )
    # symbol labels along the trace
    label = "".join(st.symbol for st in steps)
    lines.append(
        '<text x="8" y="16" font-family="monospace" font-size="14">%s</text>' % label
    )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _to_float(x: ExtReal) -> float:
    if is_infinite(x):
        return math.inf
    if isinstance(x, QuadSurd):
        return float(x.u) + float(x.v) * math.sqrt(x.d)
    return float(x)
