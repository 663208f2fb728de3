import inspect
import math
import os
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, reject, settings, strategies as st

from modcut.cf import ocf_digits
from modcut.cutting import cutting_from_mgcf, cutting_matrix
from modcut.exactnum import NINF, PINF, BudgetError, lft_apply, sqrt_exact, squarefree_split, surd
from modcut.mgcf import annotate_ones, mgcf_direct, mgcf_from_annotated
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


def _census_feet(qmax):
    """Coprime p/q with 3 <= q < qmax and 0 < |p/q| < 1/2."""
    for q in range(3, qmax):
        for p in range(-((q - 1) // 2), (q - 1) // 2 + 1):
            if p and math.gcd(p, q) == 1:
                yield Fraction(p, q)


def test_corner_hits_census_small():
    # a foot inside (-1/2, 1/2) has a hit iff its word has a C, and at most
    # one; its translates by an integer have the hits at the same heights
    for f in _census_feet(60):
        hits = corner_hits_vertical(f)
        assert len(hits) <= 1
        assert ("C" in mgcf_direct(f, limit=500)) == bool(hits)
        for n in (-2, -1, 1):
            assert [h.r for h in corner_hits_vertical(f + n)] == [h.r for h in hits]
    assert corner_hits_vertical(Fraction(-7, 6)) == []
    assert [h.r for h in corner_hits_vertical(Fraction(3, 2))] == [HALF, Fraction(1, 6)]


def test_corner_point_identity():
    # every hit of the census above and of its translates: its witness is in
    # SL(2, Z) and maps the corner onto the foot at the hit's height
    feet = [f + n for f in (*_census_feet(60), HALF) for n in (-2, -1, 0, 1)]
    hits = 0
    for f in feet:
        for hit in corner_hits_vertical(f):
            assert hit.witness.det() == 1
            assert corner_point(hit.witness) == (f, hit.r)
            hits += 1
    assert hits == 56


def test_periodic_corner_counts():
    assert periodic_corner_count(13) == 4
    assert periodic_corner_count(133) == 4


def test_non_transverse_rejected():
    with pytest.raises((NonTransverseError, ValueError)):
        trace_word(GeodesicSpec(Fraction(0), Fraction(0)))


def test_geodesic_touching_only_a_corner_is_rejected():
    # |z|^2 = (a+b)x - ab reaches 1 on [-1/2, 1/2] only at the corner x = 1/2
    for a, b in ((Fraction(-1, 3), Fraction(7, 5)), (Fraction(7, 5), Fraction(-1, 3))):
        with pytest.raises(ValueError, match="misses the interior"):
            trace_word(GeodesicSpec(a, b))
    assert trace_word(GeodesicSpec(Fraction(-1, 3), Fraction(3, 2)), limit=1)


@pytest.mark.parametrize("limit", [0, -1])
def test_trace_limit_below_one_is_an_error(limit):
    for g in (GeodesicSpec(PINF, Fraction(5, 14)), GeodesicSpec(Fraction(-5, 2), Fraction(5, 2))):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            list(trace(g, limit=limit))
    # a corner count's step budget below 1 stays a budget error
    with pytest.raises(BudgetError, match="within %d steps" % limit):
        periodic_corner_count(13, limit=limit)


def test_svg_render(tmp_path):
    """A rational, a vertical and a surd geodesic each render to the same
    bytes on two runs, as well-formed XML."""
    for ends in ((Fraction(-5, 2), Fraction(5, 2)), (PINF, Fraction(5, 14)),
                 (-sqrt_exact(3), sqrt_exact(3))):
        g = GeodesicSpec(*ends)
        steps = list(trace(g, limit=8))
        texts = []
        for name in ("a.svg", "b.svg"):
            render_trace_svg(g, steps, str(tmp_path / name))
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1], ends
        text = texts[0].decode()
        assert text.startswith("<svg")
        assert text.count("<polyline") >= len(steps)
        ElementTree.fromstring(text)


# the tracer's integer state against the values it stands for


def _check_steps(g, limit=40):
    try:
        steps = list(trace(g, limit))
    except ValueError:
        reject()  # the geodesic misses the interior of F
    for j, step in enumerate(steps, 1):
        assert step.h == cutting_matrix([s.symbol for s in steps[:j]])
        inv = step.h.inverse()
        for got, end in ((step.head, g.head), (step.foot, g.foot)):
            want = lft_apply(inv, end)
            assert got == want and type(got) is type(want), (g, j)


ends = st.fractions(min_value=-6, max_value=6, max_denominator=40)


@given(st.one_of(st.just(PINF), ends), ends)
def test_trace_state_on_rational_ends(a, b):
    _check_steps(GeodesicSpec(a, b))


numerators = st.integers(-20, 20)
surd_radicands = st.sampled_from([2, 3, 5, 6, 7, 13, 21, 133])


@given(surd_radicands, st.integers(1, 6), numerators, numerators, numerators,
       numerators, st.booleans())
def test_trace_state_on_surd_ends(d, w, u1, v1, u2, v2, vertical):
    foot = surd(Fraction(u2, w), Fraction(v2, w), d)
    if vertical:
        # a vertical geodesic meets F only with its foot in the strip
        head, foot = PINF, foot - math.floor(foot + HALF)
    else:
        head = surd(Fraction(u1, w), Fraction(v1, w), d)
    _check_steps(GeodesicSpec(head, foot))


@pytest.mark.parametrize("theta", [Fraction(0), Fraction(5, 14), Fraction(-2, 7),
                                   (sqrt_exact(3) - 1) * HALF])
def test_both_infinities_are_one_end(theta):
    assert trace_word(GeodesicSpec(NINF, theta)) == trace_word(
        GeodesicSpec(PINF, theta))


def test_trace_is_a_generator_and_two_radicands_fail_first():
    assert inspect.isgeneratorfunction(trace)
    steps = trace(GeodesicSpec(sqrt_exact(2), sqrt_exact(3)))
    with pytest.raises(ValueError):
        next(steps)


def _corner_count_by_values(d, limit=5000):
    """periodic_corner_count keyed by the pulled-back values themselves."""
    rt = sqrt_exact(d)
    seen = {(-rt, rt): 0}
    syms = []
    for step in trace(GeodesicSpec(-rt, rt), limit):
        syms.append(step.symbol)
        state = (step.head, step.foot)
        if state in seen:
            return sum(1 for s in syms[seen[state]:] if s.startswith("C"))
        seen[state] = len(syms)
    return None


def test_periodic_corner_count_matches_value_keyed_walk():
    for d in range(2, 301):
        if math.isqrt(d) ** 2 != d:
            assert periodic_corner_count(d) == _corner_count_by_values(d), d


PREFIX = 48
# each OCF digit of these feet adds at least two MGCF symbols, so this many
# digits cover the prefix even after the undetermined last run
DIGITS = PREFIX // 2 + 3


def _surd_feet(d):
    """Three feet in [-1/2, 1/2) from Q(sqrt(d))."""
    rt = sqrt_exact(d)
    for x in (rt, -rt, (rt + 1) / 3):
        yield x - math.floor(x + HALF)


def test_surd_routes_agree():
    """The three routes give one 48-symbol prefix on quadratic irrationals."""
    for d in range(2, 151):
        if squarefree_split(d)[1] != d:
            continue
        for theta in _surd_feet(d):
            word = mgcf_direct(theta, limit=PREFIX)
            assert len(word) == PREFIX, theta
            # the tagging route; its last digit's run of R is undetermined
            tagged = mgcf_from_annotated(
                annotate_ones(ocf_digits(theta, limit=DIGITS), theta))
            determined = tagged.rstrip("R")
            assert len(determined) >= PREFIX, theta
            assert determined[:PREFIX] == word, theta
            traced = trace_word(GeodesicSpec(PINF, theta), limit=PREFIX)
            assert traced == cutting_from_mgcf(word), theta


@settings(deadline=None)
@given(st.integers(2, 300).filter(lambda d: math.isqrt(d) ** 2 != d),
       st.integers(-5, 5), st.integers(1, 12), st.integers(1, 120))
def test_surd_prefixes_agree_across_routes(d, a, w, n):
    """Every prefix length of (a + sqrt d)/w, moved into [-1/2, 1/2): the
    lattice route's n letters begin its 200-letter word and agree with the
    tagging route and the tracer."""
    x = (sqrt_exact(d) + a) / w
    theta = x - math.floor(x + HALF)
    word = mgcf_direct(theta, limit=n)
    assert word == mgcf_direct(theta, limit=200)[:n]
    tagged = mgcf_from_annotated(annotate_ones(ocf_digits(theta, limit=n // 2 + 3), theta))
    assert tagged.rstrip("R")[:n] == word
    assert trace_word(GeodesicSpec(PINF, theta), limit=n) == cutting_from_mgcf(word)
