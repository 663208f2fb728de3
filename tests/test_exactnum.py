from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from modcut.exactnum import (
    IntMatrix2,
    NINF,
    PINF,
    ParseError,
    QuadSurd,
    compare,
    format_extreal,
    is_infinite,
    lft_apply,
    parse_extreal,
    rational_between,
    sqrt_exact,
    squarefree_split,
    surd,
    surd_floor,
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


@given(fracs)
def test_parse_format_roundtrip_fraction(x):
    assert parse_extreal(format_extreal(x)) == x


def test_parse_surd_both_orders():
    a = parse_extreal("(-1+1*sqrt(3))/2")
    b = parse_extreal("(1*sqrt(3)-1)/2")
    assert compare(a, b) == 0
    assert parse_extreal(format_extreal(a)) == a


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_extreal("three halves")
    with pytest.raises(ParseError):
        parse_extreal("(1+2*sqrt(3))/0")


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
