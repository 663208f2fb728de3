import math
import os
from fractions import Fraction

import pytest

from modcut.cutting import cutting_from_mgcf
from modcut.exactnum import PINF, sqrt_exact
from modcut.mgcf import mgcf_direct
from modcut.tessellation import (
    GeodesicSpec,
    NonTransverseError,
    corner_hits_vertical,
    corner_point,
    periodic_corner_count,
    render_trace_svg,
    trace,
    trace_word,
)

HALF = Fraction(1, 2)


def test_figure_prefix():
    w = trace_word(GeodesicSpec(Fraction(-5, 2), Fraction(5, 2)), limit=5)
    assert w == ("R", "R", "J", "L", "L")


def test_integer_ends_stay_exact():
    steps = list(trace(GeodesicSpec(-3, 2), limit=20))
    assert tuple(st.symbol for st in steps) == trace_word(
        GeodesicSpec(Fraction(-3), Fraction(2)), limit=20)
    ends = [e for st in steps for e in (st.head, st.foot)]
    assert all(type(e) is Fraction or e is PINF for e in ends)


def test_vertical_matches_mgcf():
    for f in (Fraction(5, 14), Fraction(-5, 14), Fraction(3, 7), Fraction(-2, 5)):
        w = trace_word(GeodesicSpec(PINF, f), limit=300)
        assert w == cutting_from_mgcf(mgcf_direct(f, limit=300))


def test_corner_hits_half():
    hits = corner_hits_vertical(HALF)
    assert sorted(h.r for h in hits) == [Fraction(1, 6), Fraction(1, 2)]
    s3 = sqrt_exact(3)
    assert {str(h.t_value()) for h in hits} == {
        str(s3 * HALF), str(s3 * Fraction(1, 6))}


def test_corner_hits_census_small():
    for q in range(3, 60):
        for p in range(1, (q - 1) // 2 + 1):
            if 2 * p < q and math.gcd(p, q) == 1:
                hits = corner_hits_vertical(Fraction(p, q))
                assert len(hits) <= 1
                word = mgcf_direct(Fraction(p, q), limit=500)
                assert ("C" in word) == bool(hits)


def test_corner_point_identity():
    for hit in corner_hits_vertical(Fraction(5, 14)):
        x, r = corner_point(hit.witness)
        assert x == Fraction(5, 14)
        assert r == hit.r


def test_periodic_corner_counts():
    assert periodic_corner_count(13) == 4
    assert periodic_corner_count(133) == 4


def test_non_transverse_rejected():
    with pytest.raises((NonTransverseError, ValueError)):
        trace_word(GeodesicSpec(Fraction(0), Fraction(0)))


def test_svg_render(tmp_path):
    g = GeodesicSpec(Fraction(-5, 2), Fraction(5, 2))
    steps = list(trace(g, limit=8))
    out = tmp_path / "trace.svg"
    render_trace_svg(g, steps, str(out))
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") >= len(steps)
