import math
import os
import signal
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import modcut
from modcut.exactnum import (
    BudgetError,
    IntMatrix2,
    NINF,
    PINF,
    ParseError,
    QuadSurd,
    as_surd,
    compare,
    end_triple,
    end_value,
    format_extreal,
    is_infinite,
    lft_apply,
    parse_extreal,
    rational_between,
    real_of,
    sqrt_exact,
    squarefree_split,
    surd,
    surd_floor,
    surd_sign,
    _between,
    _real_cmp,
)
from modcut.cf import OcfDigits, acf_of, farey_of, ocf_digits
from modcut.automata import unbounded_lookahead_demo
from modcut.mgcf import annotate_ones, mgcf_direct
from modcut.shiftspace import enumerate_minimal_forbidden, follower_separation
from modcut.tessellation import (
    GeodesicSpec,
    corner_hits_vertical,
    periodic_corner_count,
    trace,
)

fracs = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def test_squarefree_split():
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(1) == (1, 1)


def test_surd_arithmetic():
    s3 = sqrt_exact(3)
    x = (s3 - 1) * Fraction(1, 2)
    assert x.sign() == 1
    assert compare(x, Fraction(366, 1000)) == 1
    assert compare(x, Fraction(367, 1000)) == -1
    sq = s3 * s3
    assert sq == 3 and type(sq) is Fraction
    assert surd_floor(s3) == 1
    assert surd_floor(-s3) == -2


def test_surd_inverse():
    s2 = sqrt_exact(2)
    x = s2 + Fraction(1, 3)
    one = x.inverse() * x
    assert one == 1 and type(one) is Fraction


def test_sqrt_exact_perfect_square():
    r = sqrt_exact(Fraction(9, 4))
    assert r == Fraction(3, 2) and type(r) is Fraction


def test_infinity():
    assert is_infinite(PINF) and is_infinite(NINF)
    assert compare(PINF, 10**100) == 1
    assert compare(NINF, -(10**100)) == -1
    assert compare(NINF, PINF) == -1


def test_matrix_ops():
    m = IntMatrix2(2, 1, 1, 1)
    assert m.det() == 1
    assert m * m.inverse() == IntMatrix2(1, 0, 0, 1)
    assert IntMatrix2(1, 2, 3, 4).det() == -2
    assert lft_apply(IntMatrix2(2, 1, 1, 1), Fraction(1, 2)) == Fraction(4, 3)
    assert lft_apply(IntMatrix2(1, 0, 0, 1), PINF) is PINF
    assert lft_apply(IntMatrix2(2, 1, 1, 1), (1, 0, 2, 0)) == (4, 0, 3, 0)
    with pytest.raises(ValueError):
        lft_apply(IntMatrix2(1, 2, 2, 4), (1, 0, 2, 0))


def test_matrix_is_a_tuple_of_its_entries():
    """A matrix is the 4-tuple (a, b, c, d): equal and hashed as it, but +
    and an int factor are TypeErrors, not concatenation and repetition."""
    m = IntMatrix2(2, 1, 1, 1)
    with pytest.raises(TypeError):
        m + m
    with pytest.raises(TypeError):
        2 * m
    assert m * m == IntMatrix2(5, 3, 3, 2)
    assert m == IntMatrix2(2, 1, 1, 1) != IntMatrix2(1, 1, 1, 2)
    assert hash(m) == hash(IntMatrix2(2, 1, 1, 1)) == hash((2, 1, 1, 1))
    assert m == (2, 1, 1, 1) and repr(m) == "IntMatrix2[[2,1],[1,1]]"
    # lft_apply maps a plain tuple as an End and refuses a matrix as a value
    assert lft_apply(m, (1, 0, 2, 0)) == (4, 0, 3, 0)
    with pytest.raises(TypeError):
        lft_apply(m, IntMatrix2(1, 0, 2, 0))


@given(fracs, fracs)
def test_rational_between(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    m = rational_between(lo, hi)
    assert lo < m < hi


def test_rational_between_infinite_ends():
    assert rational_between(NINF, Fraction(0)) < 0
    assert rational_between(Fraction(0), PINF) > 0
    # the integer below hi, or floor(hi) when hi is not an integer; the
    # integer above lo
    s2 = sqrt_exact(2)
    for hi, below in ((0, -1), (3, 2), (-2, -3), (Fraction(7, 2), 3),
                      (Fraction(-7, 2), -4), (s2, 1), (-s2, -2), (s2 + 3, 4)):
        m = rational_between(NINF, hi)
        assert m == below and type(m) is Fraction
        assert rational_between(-hi, PINF) == -below


def _walk_by_value(lo, hi):
    """The value-form Stern-Brocot walk rational_between ran on Fractions
    and QuadSurds before the integer walk: the reference it must match."""
    if compare(lo, hi) >= 0:
        raise ValueError("empty interval")
    if is_infinite(lo) and is_infinite(hi):
        return Fraction(0)
    if is_infinite(lo):
        n = surd_floor(hi)
        return Fraction(n - 1 if n == hi else n)
    if is_infinite(hi):
        return Fraction(surd_floor(lo) + 1)
    f = surd_floor(lo)
    if compare(f + 1, hi) < 0:
        return Fraction(f + 1)
    g = IntMatrix2(0, 1, 1, -f)
    return lft_apply(g.inverse(), _walk_by_value(lft_apply(g, hi), lft_apply(g, lo)))


def _raw_roots(A, B, C):
    """Both roots of A x^2 + B x + C (A != 0, discriminant D >= 0) as
    canonical values and as raw triples (-B +- sqrt(D))/(2A) over D itself,
    with a perfect-square D folded into u."""
    D = B * B - 4 * A * C
    s = math.isqrt(D)
    out = []
    for e in (1, -1):
        value = surd(Fraction(-B, 2 * A), Fraction(e, 2 * A), D)
        raw = (-B + e * s, 0, 2 * A, 0) if s * s == D else (-B, e, 2 * A, D)
        if raw[2] < 0:
            raw = (-raw[0], -raw[1], -raw[2], raw[3])
        out.append((value, raw))
    return out


coeffs = st.integers(min_value=-30, max_value=30)


@given(coeffs, coeffs, coeffs, coeffs, coeffs, coeffs, st.booleans(), st.booleans())
@example(1, 0, -8, 1, -3, 2, True, False)  # D = 32 (not square-free), D = 1
@example(3, 0, -12, 1, 0, -2, False, True)  # sqrt(144) against sqrt(8)
@example(1, 0, -2, 2, 0, -1, True, True)  # sqrt(8)/2 and sqrt(8)/4: one radicand
def test_rational_between_walks_roots_as_the_value_walk_did(a1, b1, c1, a2, b2, c2, s1, s2):
    """Roots of two random integer quadratics, over mixed, non-square-free
    and perfect-square discriminants: the integer walk picks the value walk's
    rational, from canonical values and from raw triples alike."""
    assume(a1 and a2 and b1 * b1 >= 4 * a1 * c1 and b2 * b2 >= 4 * a2 * c2)
    x = _raw_roots(a1, b1, c1)[s1]
    y = _raw_roots(a2, b2, c2)[s2]
    assert _real_cmp(x[1], y[1]) == compare(x[0], y[0])
    (lo, lo_raw), (hi, hi_raw) = sorted((x, y), key=lambda r: r[0])
    assume(lo != hi)
    m = rational_between(lo, hi)
    assert m == _walk_by_value(lo, hi)
    assert type(m) is Fraction and lo < m < hi
    assert Fraction(*_between(lo_raw, hi_raw)) == m
    for ends in ((NINF, lo), (lo, PINF), (hi, PINF)):
        assert rational_between(*ends) == _walk_by_value(*ends)


@given(fracs)
def test_parse_format_roundtrip_fraction(x):
    assert parse_extreal(format_extreal(x)) == x


def test_parse_surd_both_orders():
    a = parse_extreal("(-1+1*sqrt(3))/2")
    b = parse_extreal("(1*sqrt(3)-1)/2")
    assert compare(a, b) == 0
    assert parse_extreal(format_extreal(a)) == a
    # tabs and newlines wherever spaces go, also between the second term's
    # sign and its digits
    for text in ("(-1\t+\t1*sqrt(3))/2", "(\n-1 +\n1 * sqrt( 3 ))\t/ 2",
                 "(1*sqrt(3) -\t1)/2", "(1\t*sqrt(\n3)\n-\n1)/2\n"):
        assert parse_extreal(text) == a, text
    c = parse_extreal("(5 -\t2*sqrt(7))/3")
    assert c == parse_extreal("(-2*sqrt(7) +\n5)/3")
    assert format_extreal(c) == "(5-2*sqrt(7))/3"
    # a zero term
    assert parse_extreal("(4+0*sqrt(7))/\t6") == Fraction(2, 3)
    assert parse_extreal("(0*sqrt(7)\t-\n0)/1") == 0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_extreal("three halves")
    for text in ("(1+2*sqrt(3))/0", "(2*sqrt(3)+1)/0", "(1-\t2*sqrt(3))/\n0",
                 "(2*sqrt(3)\n-\t1)/00"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_extreal(text)
    # a first term's sign takes no space
    for text in ("(-\t1+2*sqrt(3))/2", "(- 2*sqrt(3)+1)/2"):
        with pytest.raises(ParseError, match="as an exact number"):
            parse_extreal(text)


def test_compare_surd_vs_rational():
    s5 = sqrt_exact(5)
    assert compare(s5, Fraction(9, 4)) == -1
    assert compare(s5, Fraction(11, 5)) == 1
    assert compare(s5, s5) == 0


# one representation per exact value: rationals come back as Fractions, and
# every QuadSurd is irrational
radicands = st.integers(min_value=2, max_value=300).filter(
    lambda d: squarefree_split(d)[1] == d)
small = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero = small.filter(lambda x: x != 0)


def _is_canonical_fraction(x, expected):
    return type(x) is Fraction and x == expected


@given(small, small, st.integers(min_value=1, max_value=300))
def test_rational_results_are_fractions(u, v, k):
    assert _is_canonical_fraction(surd(u, v, 0), u)
    assert _is_canonical_fraction(surd(u, 0, k), u)
    assert _is_canonical_fraction(surd(u, v, k * k), u + v * k)


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_sqrt_of_a_square_is_a_fraction(p, q):
    assert _is_canonical_fraction(sqrt_exact(Fraction(p * p, q * q)), Fraction(p, q))


@given(small, nonzero, radicands)
def test_norm_product_is_a_fraction(a, b, d):
    x, y = surd(a, b, d), surd(a, -b, d)
    assert type(x) is QuadSurd and x.v != 0
    assert _is_canonical_fraction(x * y, a * a - b * b * d)


@given(small, nonzero, radicands)
def test_square_of_a_surd(a, b, d):
    x = surd(a, b, d)
    sq = x * x
    if a == 0:
        assert _is_canonical_fraction(sq, b * b * d)
    else:
        assert type(sq) is QuadSurd
        assert (sq.u, sq.v, sq.d) == (a * a + b * b * d, 2 * a * b, d)


def _pair(x):
    # (u, v) of a value u + v*sqrt(d), rationals included
    return (x.u, x.v) if isinstance(x, QuadSurd) else (Fraction(x), Fraction(0))


def _lowest_terms(x):
    return type(x) is QuadSurd and x.w > 0 and math.gcd(x.a, x.b, x.w) == 1


@given(small, nonzero, radicands, small, small, st.booleans())
def test_surd_arithmetic_matches_fraction_pairs(u, v, d, p, q, rational):
    # the int-backed QuadSurd against (u, v) arithmetic on Fractions
    x = surd(u, v, d)
    y = p if rational else surd(p, q, d)
    p, q = _pair(y)
    assert (x.a, x.b, x.d) == (u * x.w, v * x.w, d) and _lowest_terms(x)
    assert QuadSurd(u, v, d) == x and hash(x) == hash((u, v, d))
    results = [
        ((u + p, v + q), x + y),
        ((u - p, v - q), x - y),
        ((u * p + v * q * d, u * q + v * p), x * y),
    ]
    norm = p * p - q * q * d
    if norm:
        results.append((((u * p - v * q * d) / norm, (v * p - u * q) / norm), x / y))
    for (eu, ev), z in results:
        assert _pair(z) == (eu, ev)
        assert type(z) is Fraction if not ev else _lowest_terms(z)
    assert _pair(-x) == (-u, -v) and _pair(p - x) == (p - u, -v)
    n = math.floor(x)
    assert surd_sign(u - n, v, d) >= 0 > surd_sign(u - n - 1, v, d)
    assert compare(x, y) == surd_sign(u - p, v - q, d)


coefficients = st.integers(-9, 9)


@given(coefficients, coefficients, coefficients, coefficients, fracs)
def test_lft_apply_on_a_fraction(a, b, c, d, x):
    if a * d - b * c == 0:
        return
    y = lft_apply(IntMatrix2(a, b, c, d), x)
    if c * x + d == 0:
        assert y is PINF
    else:
        assert _is_canonical_fraction(y, (a * x + b) / (c * x + d))


# the projective-end kernel: x/y with x, y in Z[sqrt(d)]


def _decimal_sign(u: int, v: int, d: int) -> int:
    # |u + v sqrt(d)| >= 1/(|u| + |v| sqrt(d)) for a non-square d, so this
    # many digits decide the sign
    with localcontext() as ctx:
        ctx.prec = 2 * len(str(abs(u) + abs(v) * d)) + 20
        x = Decimal(u) + Decimal(v) * Decimal(d).sqrt()
    return (x > 0) - (x < 0)


@given(fracs, fracs)
def test_surd_sign_matches_fraction_comparison(a, b):
    # the sign of b - a read off the two ends, as the tracer reads it
    xa, _, ya, da = real_of(a)
    xb, _, yb, db = real_of(b)
    assert da == db == 0 and ya > 0 and yb > 0
    assert surd_sign(xb * ya - xa * yb, 0, 0) == (b > a) - (b < a)


@given(small, small, st.integers(min_value=1, max_value=300))
def test_surd_sign_on_a_square_radicand(u, v, s):
    # u + v*sqrt(s*s) is the rational u + v*s; opposite signs take the squaring
    x = u + v * s
    assert surd_sign(u, v, s * s) == (x > 0) - (x < 0)
    assert surd_sign(-v * s, v, s * s) == 0  # equal squares: the value is 0


@given(small, nonzero, radicands)
def test_surd_sign_matches_quadsurd(u, v, d):
    x = surd(u, v, d)
    x0, x1, w, r = real_of(x)
    assert r == d and w > 0
    assert surd_sign(x0, x1, d) == x.sign() == _decimal_sign(x0, x1, d)


@given(small, small, radicands, st.integers(-5, 5), st.integers(-5, 5))
def test_end_triple_is_a_canonical_key(u, v, d, p, q):
    assume(p or q)
    x = surd(u, v, d)
    x0, x1, y0, _ = real_of(x)
    y1 = 0  # a value's end is (u, v, w, 0)
    # the same value with numerator and denominator times p + q*sqrt(d)
    e = (x0 * p + d * x1 * q, x0 * q + x1 * p, y0 * p + d * y1 * q, y0 * q + y1 * p)
    assert end_triple(e, d) == end_triple((x0, x1, y0, y1), d)
    u3, v3, w3 = end_triple(e, d)
    assert w3 > 0 and math.gcd(u3, v3, w3) == 1
    y = end_value(e, d)
    assert y == x and type(y) is type(x)


def _moebius_reference(m, x):
    # the action written out in Fraction/QuadSurd arithmetic: (a x + b)/(c x + d),
    # +-inf maps to a/c (PINF when c = 0), and a pole maps to PINF
    if m.det() == 0:
        raise ValueError("singular matrix")
    if is_infinite(x):
        return PINF if m.c == 0 else Fraction(m.a, m.c)
    if isinstance(x, int):
        x = Fraction(x)
    den = m.c * x + m.d
    return PINF if den == 0 else (m.a * x + m.b) / den


extended_reals = st.one_of(
    st.integers(-50, 50), small, st.sampled_from([PINF, NINF]),
    st.builds(surd, small, nonzero, radicands))


@given(st.tuples(*[st.integers(-5, 5)] * 4), extended_reals)
def test_lft_apply_on_an_end(entries, x):
    # a value maps as the reference does, singular m included; so does its
    # end after a first step s, which makes y1 nonzero for a surd
    m, s = IntMatrix2(*entries), IntMatrix2(2, 1, 1, 1)
    u, v, w, d = real_of(x)
    e = (u, v, w, 0)
    try:
        want = _moebius_reference(m, x), _moebius_reference(m, _moebius_reference(s, x))
    except ValueError:
        for arg in (x, e):
            with pytest.raises(ValueError):
                lft_apply(m, arg)
        return
    got = lft_apply(m, x), end_value(lft_apply(m, lft_apply(s, e)), d)
    for y, z in zip(got, want):
        assert y == z and type(y) is type(z)


# the order as it was decided before _real_cmp was the one order: kept as
# the reference the new order must match


def _sign_mixed(a, b, p: int, c, q: int) -> int:
    """Sign of a + b*sqrt(p) + c*sqrt(q) for any radicands p, q >= 0; a
    zero radicand comes with a zero coefficient."""
    # s = a + b*sqrt(p) lives in one field; t = c*sqrt(q)
    ss, ts = surd_sign(a, b, p), (c > 0) - (c < 0)
    if ss * ts >= 0:
        return ss or ts
    # opposite signs: compare s^2 = a^2 + b^2 p + 2ab sqrt(p) with t^2 = c^2 q
    diff = surd_sign(a * a + b * b * p - c * c * q, 2 * a * b, p)
    return ss if diff > 0 else (ts if diff < 0 else 0)


def _surd_cmp(x: QuadSurd, other) -> int:
    """QuadSurd's own comparison: one field through ``_join``, or two
    irrational radicands through ``_sign_mixed``."""
    if type(other) is QuadSurd and x.b and other.b and x.d != other.d:
        return _sign_mixed(x.a * other.w - other.a * x.w, x.b * other.w, x.d,
                           -other.b * x.w, other.d)
    o = x._join(other)
    if o is None:
        raise TypeError("cannot compare a surd with %r" % (other,))
    a, b, w, d = o
    return surd_sign(x.a * w - a * x.w, x.b * w - b * x.w, d)


def _compare_reference(x, y) -> int:
    if is_infinite(x) or is_infinite(y):
        if x is y:
            return 0
        if is_infinite(x):
            return 1 if x.positive else -1
        return -1 if y.positive else 1
    if isinstance(x, QuadSurd):
        return _surd_cmp(x, y)
    if isinstance(y, QuadSurd):
        return -_surd_cmp(y, x)
    return (x > y) - (x < y)


@st.composite
def raw_reals(draw):
    # a triple as the block decider builds them: not in lowest terms, over a
    # zero, non-square-free or random radicand, a square one folded into u
    d = draw(st.sampled_from([0, 4, 9, 2, 3, 8, 12, 18, 50]) | st.integers(0, 400))
    u, v, w = draw(st.integers(-60, 60)), draw(st.integers(-9, 9)), draw(st.integers(1, 30))
    s = math.isqrt(d)
    if not (d and v):
        return u, 0, w, 0
    return (u + v * s, 0, w, 0) if s * s == d else (u, v, w, d)


@given(raw_reals(), raw_reals(), st.integers(1, 4), st.integers(-1, 1),
       st.sampled_from(["free", "scaled", "rewritten"]))
@example((0, 1, 2, 8), (0, 1, 1, 2), 1, 0, "free")  # sqrt(8)/2 = sqrt(2)
@example((0, 3, 1, 2), (0, 1, 1, 18), 1, 0, "free")  # 3 sqrt(2) = sqrt(18)
@example((1, 1, 1, 2), (0, 1, 1, 3), 1, 0, "free")  # 1 + sqrt(2) > sqrt(3)
def test_real_cmp_matches_the_reference_order(x, y, k, e, form):
    """On raw triples, against ``_sign_mixed``: y is free, or x scaled by k,
    or x rewritten over the radicand d k^2, each then moved by e/(w k)."""
    u, v, w, d = x
    if form == "scaled":
        y = (u * k + e, v * k, w * k, d)
    elif form == "rewritten":
        y = (u * k + e, v, w * k, d * k * k)
    want = _sign_mixed(u * y[2] - y[0] * w, v * y[2], d, -y[1] * w, y[3])
    assert _real_cmp(x, y) == want == -_real_cmp(y, x)


order_values = st.one_of(
    st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6),
    st.sampled_from([PINF, NINF]),
    st.builds(surd, st.fractions(-3, 3, max_denominator=4),
              st.fractions(-3, 3, max_denominator=4).filter(bool),
              st.sampled_from([2, 3, 5, 8, 12, 18])),
    st.builds(as_surd, st.fractions(-6, 6, max_denominator=6)))


@given(order_values, order_values)
@example(sqrt_exact(8) / 2, sqrt_exact(2))
@example(as_surd(Fraction(3, 2)), Fraction(3, 2))
def test_compare_and_rich_comparisons_match_the_reference(x, y):
    """On values, +-inf included: ``compare``, and the rich comparisons of a
    QuadSurd on either side, against the comparison before the one order."""
    want = _compare_reference(x, y)
    assert compare(x, y) == want == -compare(y, x)
    for a, b, sign in ((x, y, want), (y, x, -want)):
        if not isinstance(a, QuadSurd):
            continue
        assert (a == b) is (sign == 0 and not is_infinite(b))
        if is_infinite(b):
            with pytest.raises(TypeError):
                a < b
            continue
        assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
        assert (b < a, b > a) == (sign > 0, sign < 0)


@given(small, nonzero, radicands)
def test_rational_between_a_surd_and_an_int(u, v, d):
    # an int end within 1 of the surd is mapped exactly, with no float
    # reciprocal on the way
    x = surd(u, v, d)
    n = math.floor(x)
    for lo, hi in ((n, x), (x, n + 1)):
        m = rational_between(lo, hi)
        assert type(m) is Fraction and lo < m < hi


def test_real_of_infinity():
    assert real_of(PINF) == real_of(NINF) == (1, 0, 0, 0)
    assert end_triple((-3, 0, 0, 0), 0) == (1, 0, 0)
    assert end_value((1, 0, 0, 0), 5) is PINF


@contextmanager
def _budget(seconds: int):
    # a call that runs past its budget fails the test instead of hanging it
    def expire(signum, frame):
        raise TimeoutError("over its %d s budget" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_squarefree_split_of_large_radicands():
    # trial division stops at the cube root of the cofactor; what is left is
    # 1, p, p q or p^2
    p, q = 2**31 - 1, 2**31 + 11
    cases = {10**18 + 3: (1, 10**18 + 3), 2**61 - 1: (1, 2**61 - 1),
             p * p: (p, 1), 12 * p * p: (2 * p, 3), p * q: (1, p * q),
             7**3 * 11**2: (77, 7)}
    with _budget(10):
        for n, split in cases.items():
            assert squarefree_split(n) == split, n


def test_a_radicand_past_the_trial_limit_is_a_budget_error():
    # the Mersenne prime 2^89 - 1 has no divisor up to 2^21, and is above its cube
    with _budget(10), pytest.raises(BudgetError, match="too large to factor"):
        squarefree_split(2**89 - 1)
    with _budget(10), pytest.raises(BudgetError):
        parse_extreal("(0+1*sqrt(%d))/1" % (2**89 - 1))


def _outcome(call, x):
    # the result of call(x), or the type and message of the typed error it
    # raised; anything else, a blown budget among them, fails the test
    with _budget(5):
        try:
            return "returned", call(x)
        except (TypeError, ValueError) as exc:
            return "raised", type(exc), str(exc)


# every function that takes a value, with the value in each place it goes
CONTRACT = {
    "compare(x, 1)": lambda x: compare(x, 1),
    "compare(1, x)": lambda x: compare(1, x),
    "compare(PINF, x)": lambda x: compare(PINF, x),
    "lft_apply": lambda x: lft_apply(IntMatrix2(2, 1, 1, 1), x),
    "rational_between(x, 2)": lambda x: rational_between(x, 2),
    "rational_between(0, x)": lambda x: rational_between(0, x),
    "rational_between(NINF, x)": lambda x: rational_between(NINF, x),
    "sqrt_exact": sqrt_exact,
    "surd(x, 1, 2)": lambda x: surd(x, 1, 2),
    "surd(1, x, 2)": lambda x: surd(1, x, 2),
    "surd(1, 1, x)": lambda x: surd(1, 1, x),
    "format_extreal": format_extreal,
    "ocf_digits": ocf_digits,
    "acf_of": acf_of,
    "farey_of": farey_of,
    "annotate_ones": lambda x: annotate_ones(OcfDigits(1), x),
    "mgcf_direct": mgcf_direct,
    "trace": lambda x: [step.symbol for step in trace(GeodesicSpec(x, -2))],
    "corner_hits_vertical": corner_hits_vertical,
}


@pytest.mark.parametrize("x", ["1/2", 0.1, 1.5, Decimal("0.5")])
def test_inexact_inputs_are_type_errors(x):
    """A float, a Decimal or a str is a TypeError in every place a value goes,
    and True gives what 1 gives: a bool counts as an int."""
    with pytest.raises(TypeError):
        real_of(x)
    for name, call in CONTRACT.items():
        assert _outcome(call, x)[:2] == ("raised", TypeError), name
        assert _outcome(call, True) == _outcome(call, 1), name
    with pytest.raises(TypeError):
        lft_apply(IntMatrix2(2, 1, 1, 1), x)
    with pytest.raises(TypeError):
        next(trace(GeodesicSpec(PINF, x)))
    # a binary float would expand as the rational it stores
    with pytest.raises(TypeError):
        ocf_digits(x)


# every count or bound, at a value that needs no long run
BOUNDS = {
    "ocf_digits(limit)": lambda n: ocf_digits(sqrt_exact(2), limit=n),
    "acf_of(limit)": lambda n: acf_of(sqrt_exact(2), limit=n),
    "mgcf_direct(limit)": lambda n: mgcf_direct(Fraction(1, 3), limit=n),
    "trace(limit)": lambda n: [s.symbol for s in trace(GeodesicSpec(PINF, Fraction(5, 14)), n)],
    "periodic_corner_count(limit)": lambda n: periodic_corner_count(13, limit=n),
    "enumerate_minimal_forbidden(max_len)": lambda n: enumerate_minimal_forbidden(n, max_head=0),
    "enumerate_minimal_forbidden(max_head)": lambda n: enumerate_minimal_forbidden(5, max_head=n),
    "follower_separation(j)": lambda n: follower_separation(n, 2),
    "follower_separation(k)": lambda n: follower_separation(2, n),
    "unbounded_lookahead_demo(j)": unbounded_lookahead_demo,
}


@pytest.mark.parametrize("name", BOUNDS)
def test_counts_are_ints_and_bounded(name):
    """A count or bound that is not an int is a TypeError that names it (a
    bool counts as an int), and a negative one a typed error: a ValueError,
    or the budget error of a corner count that runs out before its first
    step."""
    def outcome(n):
        try:
            return _outcome(BOUNDS[name], n)
        except BudgetError as exc:
            return "raised", BudgetError, str(exc)

    param = name[name.index("(") + 1:-1]
    for bad in (2.5, 5.5, Fraction(5, 2), Decimal(3), "3"):
        got = outcome(bad)
        assert got[:2] == ("raised", TypeError), bad
        assert got[2].startswith(param + " must be an int"), bad
    assert outcome(True) == outcome(1)
    assert outcome(-1)[:2] in (("raised", ValueError), ("raised", BudgetError))


def test_reimports_leave_one_live_copy():
    """Importing modcut afresh, as a benchmark set-up does, and swapping the
    first import back in leaves no second copy of a class alive: nothing
    outside the package, such as typing's cache of Union types, keeps one."""
    code = textwrap.dedent("""
        import gc, importlib, sys
        import modcut
        def ours():
            return {k: m for k, m in sys.modules.items()
                    if k == "modcut" or k.startswith("modcut.")}
        loaded = ours()
        for _ in range(5):
            for k in ours():
                del sys.modules[k]
            importlib.import_module("modcut")
            for k in ours():
                del sys.modules[k]
            sys.modules.update(loaded)
        gc.collect()
        print(sum(isinstance(o, type) and o.__name__ == "QuadSurd"
                  for o in gc.get_objects()))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(modcut.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["1"]
