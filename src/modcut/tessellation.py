"""Exact tracing of geodesics through the modular tessellation.

The fundamental domain F is |z| >= 1, |Re z| <= 1/2.  A geodesic is stored by
its ideal endpoints (head, foot) and repeatedly pulled back so that the
current representative always crosses the interior of F.  Along a geodesic
the squared absolute value is affine in x: |z|^2 = (a+b) x - a b for the
semicircle with feet a, b, which makes every exit-side decision an exact
comparison in the endpoint field.  Exit through the right edge emits R, the
left edge L, the bottom arc J; passing exactly through a corner
(+-1/2 + sqrt(3)/2 i) emits C1/C2 and applies the corner matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .exactnum import (
    BudgetError,
    ExtReal,
    IntMatrix2,
    NINF,
    PINF,
    QuadSurd,
    is_infinite,
    lft_apply,
    sqrt_exact,
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

_HALF = Fraction(1, 2)
_INVERSES = {sym: m.inverse() for sym, m in CUTTING_MATS.items()}


@dataclass(frozen=True)
class GeodesicSpec:
    """Oriented geodesic from head to foot (ideal endpoints)."""

    head: ExtReal
    foot: ExtReal

    def normalized(self) -> "GeodesicSpec":
        h = PINF if self.head is NINF else self.head
        f = PINF if self.foot is NINF else self.foot
        return GeodesicSpec(h, f)


@dataclass(frozen=True)
class TraceStep:
    symbol: str
    h: IntMatrix2  # cumulative domain matrix h_j = g_1 ... g_j
    head: ExtReal  # the geodesic's ends, pulled back by h
    foot: ExtReal


@dataclass(frozen=True)
class CornerHit:
    r: Fraction  # the hit is at height t = sqrt(3) * r, r = 1/(2D)
    witness: IntMatrix2  # SL(2,Z) matrix mapping the corner of F to the hit

    def t_value(self) -> QuadSurd:
        return sqrt_exact(3) * self.r


class NonTransverseError(ValueError):
    pass


def _as_frac_pair(x: ExtReal) -> Optional[tuple[int, int]]:
    if is_infinite(x):
        return (1, 0)
    if isinstance(x, QuadSurd):
        return None
    return (x.numerator, x.denominator)


def _check_admissible(g: GeodesicSpec) -> GeodesicSpec:
    g = g.normalized()
    h, f = g.head, g.foot
    if h == f:
        raise ValueError("head and foot coincide")
    ph, pf = _as_frac_pair(h), _as_frac_pair(f)
    if ph is not None and pf is not None:
        det = ph[0] * pf[1] - pf[0] * ph[1]
        if abs(det) == 2:
            raise NonTransverseError("geodesic lies in the tessellation edge set")
    if is_infinite(h) or is_infinite(f):
        th = f if is_infinite(h) else h
        if not -_HALF < th < _HALF:
            raise ValueError("vertical geodesic misses the interior of F")
        return g
    # the geodesic crosses the interior of F iff |z|^2 = (a+b)x - ab exceeds
    # 1 somewhere on [-1/2, 1/2]; the linear form peaks at the end x = +-1/2
    # on the side of a + b
    apb = h + f
    edge = _HALF if apb >= 0 else -_HALF
    if apb * edge - h * f <= 1:
        raise ValueError("geodesic misses the interior of F")
    return g


def trace(g: GeodesicSpec, limit: int = 200) -> Iterator[TraceStep]:
    """Stream of crossings of the tessellation, pulled back step by step."""
    g = _check_admissible(g)
    head, foot = g.head, g.foot
    h_mat = IntMatrix2(1, 0, 0, 1)
    for _ in range(limit):
        if is_infinite(foot):
            return  # upward vertical: enters the cusp, trace terminates
        if is_infinite(head):
            sym = "J"
        else:
            a, b = head, foot
            apb = a + b
            if a < b:  # heading right: the arc, the corner or the right side
                if apb < 0:
                    xj = (a * b + 1) / apb  # x of the crossing with |z| = 1
                    if xj < _HALF:
                        sym = "J"
                    elif xj == _HALF:
                        sym = "C2"
                    else:
                        sym = "R"
                else:
                    assert b > _HALF
                    sym = "R"
            else:
                if apb > 0:
                    xj = (a * b + 1) / apb
                    if xj > -_HALF:
                        sym = "J"
                    elif xj == -_HALF:
                        sym = "C1"
                    else:
                        sym = "L"
                else:
                    assert b < -_HALF
                    sym = "L"
        inv = _INVERSES[sym]
        head = lft_apply(inv, head)
        foot = lft_apply(inv, foot)
        h_mat = h_mat * CUTTING_MATS[sym]
        yield TraceStep(sym, h_mat, head, foot)


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


def _coprime_reps(D: int) -> list[tuple[int, int]]:
    """Coprime (c, d) with c^2 + cd + d^2 = D, up to (c,d) ~ (-c,-d)."""
    reps = []
    dmax = math.isqrt((4 * D) // 3) + 1
    for d in range(-dmax, dmax + 1):
        disc = 4 * D - 3 * d * d
        if disc < 0:
            continue
        s = math.isqrt(disc)
        if s * s != disc:
            continue
        for c in {(-d + s) // 2, (-d - s) // 2}:
            if c * c + c * d + d * d != D:
                continue
            if math.gcd(c, d) != 1:
                continue
            pair = (c, d)
            if (-c, -d) in reps:
                continue
            if pair not in reps:
                reps.append(pair)
    return reps


def _witness_for(c: int, d: int, N: int, D: int) -> Optional[IntMatrix2]:
    # find (a, b) with ad - bc = 1 and 2ac+ad+bc+2bd = N; the value of
    # 2ac+ad+bc+2bd over all such (a,b) covers one class mod 2D
    g, x, y = _ext_gcd(d, -c)
    if g != 1:
        return None
    a0, b0 = x, y  # a0*d - b0*c = 1
    n0 = 2 * a0 * c + a0 * d + b0 * c + 2 * b0 * d
    delta = N - n0
    if delta % (2 * D) != 0:
        return None
    k = delta // (2 * D)
    a, b = a0 + k * c, b0 + k * d
    m = IntMatrix2(a, b, c, d)
    assert m.det() == 1
    return m


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def corner_hits_vertical(theta) -> list[CornerHit]:
    """All corner translates on the vertical line x = theta, exactly.

    A hit at height t = sqrt(3)/(2D) exists iff theta = N/(2D) for integers
    N, D with D = c^2+cd+d^2 (coprime c, d), gcd(N, D) in {1, 3}, and N in
    the congruence class mod 2D realized by an SL(2,Z) witness.
    """
    if not isinstance(theta, (int, Fraction)):
        raise ValueError("corner hits are computed for rational theta only")
    p, q = theta.numerator, theta.denominator
    hits: dict[int, CornerHit] = {}
    for k in (1, 2, 3, 6):
        if (q * k) % 2:
            continue
        D = q * k // 2
        N = p * k
        if math.gcd(N, D) not in (1, 3):
            continue
        if D in hits:
            continue
        for c, d in _coprime_reps(D):
            w = _witness_for(c, d, N, D)
            if w is not None:
                hits[D] = CornerHit(Fraction(1, 2 * D), w)
                break
    return [hits[D] for D in sorted(hits)]


# ---------------------------------------------------------------------------
# periodic geodesics


def periodic_corner_count(d: int, limit: int = 5000) -> int:
    """Corners hit per period by the geodesic <-sqrt(d), sqrt(d)>.

    Raises BudgetError when no pulled-back geodesic recurs within ``limit``
    steps.
    """
    if d <= 1 or math.isqrt(d) ** 2 == d:
        raise ValueError("d must be a nonsquare integer > 1")
    rt = sqrt_exact(d)
    seen: dict[tuple, int] = {(-rt, rt): 0}
    syms: list[str] = []
    for step in trace(GeodesicSpec(-rt, rt), limit):
        syms.append(step.symbol)
        state = (step.head, step.foot)
        if state in seen:
            return sum(1 for s in syms[seen[state]:] if s.startswith("C"))
        seen[state] = len(syms)
    raise BudgetError("no recurrence within %d steps (inconclusive)" % limit)


# ---------------------------------------------------------------------------
# SVG rendering (floats are used here only, for cosmetic output)


def _mobius_f(m: IntMatrix2, z: complex) -> complex:
    den = m.c * z + m.d
    if abs(den) < 1e-12:
        return complex(1e9, 1e9)
    return (m.a * z + m.b) / den


def _domain_outline(m: IntMatrix2, samples: int = 24, ymax: float = 3.0):
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
    """Deterministic SVG of the visited domains and the geodesic."""
    mats = [IntMatrix2(1, 0, 0, 1)] + [st.h for st in steps]
    outlines = [_domain_outline(m) for m in mats]
    g = g.normalized()
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
