import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from modcut.cf import (
    OcfDigits,
    _rows,
    acf_of,
    acf_to_digits,
    acf_to_farey,
    acf_value,
    convergents,
    digits_to_acf,
    farey_of,
    farey_to_acf,
    format_digits,
    ocf_digits,
    ocf_value,
    parse_digits,
)
from modcut.exactnum import NINF, PINF, ParseError, QuadSurd, sqrt_exact, surd

from conftest import farey_word

fracs = st.fractions(min_value=-100, max_value=100, max_denominator=10**4)
pos_fracs = fracs.map(lambda x: abs(x)).filter(lambda x: x > 0)


def test_known_digits():
    assert ocf_digits(Fraction(5, 14)).all_digits() == (0, 2, 1, 4)
    assert ocf_digits(Fraction(136, 103)).all_digits() == (1, 3, 8, 4)
    assert ocf_digits(Fraction(-5, 14)).all_digits() == (-1, 1, 1, 1, 4)


def test_never_ends_in_one():
    for q in range(2, 80):
        for p in range(1, q):
            d = ocf_digits(Fraction(p, q))
            if d.tail:
                assert d.tail[-1] != 1, (p, q)


@given(fracs)
def test_value_roundtrip(x):
    assert ocf_value(ocf_digits(x)) == x


def test_surd_prefix():
    d = ocf_digits(sqrt_exact(3), limit=8)
    assert not d.finite
    assert d.all_digits() == (1, 1, 2, 1, 2, 1, 2, 1)


def _digits_by_value(x, limit):
    """The floor loop ocf_digits ran on Fraction and QuadSurd values before
    the integer triple walk: the reference it must match.  Each floor is
    checked against the exact comparisons a <= rest < a + 1."""
    a0 = math.floor(x)
    digits = [a0]
    rest = x - a0
    while rest != 0:
        if isinstance(rest, QuadSurd) and len(digits) >= limit:
            return OcfDigits(a0, tuple(digits[1:]), False)
        rest = 1 / rest
        a = math.floor(rest)
        assert a <= rest < a + 1
        digits.append(a)
        rest = rest - a
    return OcfDigits(a0, tuple(digits[1:]), True)


# (sqrt(d) + a)/w and its negative, d not a square
surds = st.tuples(st.integers(2, 400).filter(lambda d: math.isqrt(d) ** 2 != d),
                  st.integers(-40, 40), st.integers(1, 40), st.sampled_from((1, -1)))


@given(fracs | st.integers(-10**6, 10**6).map(Fraction), st.integers(1, 30))
@example(Fraction(-5, 14), 1)
@example(Fraction(-7), 1)
def test_rational_digits_match_the_value_loop(x, limit):
    """A rational expands to the end whatever the limit, negative values
    and integers included."""
    assert ocf_digits(x, limit) == _digits_by_value(x, limit)


@given(surds, st.integers(1, 30))
@example((3, 0, 1, 1), 8)
@example((7, -1, 3, -1), 1)
def test_surd_digits_match_the_value_loop(s, limit):
    d, a, w, sign = s
    x = surd(Fraction(a, w), Fraction(sign, w), d)
    got = ocf_digits(x, limit)
    assert got == _digits_by_value(x, limit)
    assert len(got) == limit and not got.finite


def fold_value(digits):
    """[a0; a1, ..., an] folded from the last digit, as Fractions."""
    v = Fraction(0)
    for a in reversed(digits.tail):
        v = 1 / (a + v)
    return digits.a0 + v


@given(st.integers(-50, 50), st.lists(st.integers(1, 60), max_size=25))
def test_convergents(a0, tail):
    digits = OcfDigits(a0, tuple(tail))
    ms = list(convergents(digits))
    assert len(ms) == len(digits)
    # the n-th matrix is [[p_n, p_{n-1}], [q_n, q_{n-1}]]
    for n, m in enumerate(ms):
        assert Fraction(m.a, m.c) == fold_value(OcfDigits(a0, tuple(tail[:n])))
        assert m.det() == (-1) ** (n + 1)
    for prev, m in zip(ms, ms[1:]):
        assert (prev.a, prev.c) == (m.b, m.d)
    assert ocf_value(digits) == fold_value(digits)
    assert ocf_value(digits) == Fraction(ms[-1].a, ms[-1].c)


@given(st.integers(-50, 50), st.lists(st.integers(1, 60), max_size=25))
def test_rows_are_the_convergents(a0, tail):
    """The int rows are the convergent matrices' entries, one per digit, and
    the last row's p_n/q_n is the value."""
    digits = OcfDigits(a0, tuple(tail))
    rows = list(_rows(a0, iter(tail)))
    assert rows == [tuple(m) for m in convergents(digits)]
    p, _p0, q, _q0 = rows[-1]
    assert ocf_value(digits) == Fraction(p, q)


def test_rows_read_their_digits_lazily():
    """A row is built from the digits read so far, so an endless digit
    iterator gives its rows one at a time."""
    rows = _rows(0, itertools.count(1))
    assert next(rows) == (0, 1, 1, 0)
    assert next(rows) == (1, 0, 1, 1)  # [0; 1] = 1/1
    assert next(rows) == (2, 1, 3, 1)  # [0; 1, 2] = 2/3


def test_acf_words():
    assert digits_to_acf(ocf_digits(Fraction(5, 14))) == "FRRFRFRRRRF"
    assert acf_of(Fraction(5, 14)) == "FRRFRFRRRRF"
    assert farey_of(Fraction(5, 14)) == "DDRDDDD"


@given(fracs.filter(lambda x: x >= 0))
def test_acf_digit_roundtrip(x):
    d = ocf_digits(x)
    assert acf_to_digits(digits_to_acf(d)) == d


@given(pos_fracs)
def test_acf_farey_inverse(x):
    w = acf_of(x)
    assert farey_to_acf(acf_to_farey(w)) == w
    assert acf_to_farey(w) == farey_of(x) == farey_word(x)


def test_farey_of_surd_prefixes_and_domain():
    x = (sqrt_exact(7) - 1) * Fraction(1, 3)
    for limit in (1, 2, 5, 17):
        assert farey_of(x, limit) == farey_word(x, limit)
    for bad in (Fraction(0), Fraction(-1, 3), -x, PINF, NINF):
        with pytest.raises(ValueError):
            farey_of(bad)
    with pytest.raises(ValueError):
        farey_of(x, limit=0)


def test_acf_value():
    assert acf_value("FRRFRFRRRRF") == Fraction(5, 14)
    assert acf_value("RRFRRF") == Fraction(5, 2)
    with pytest.raises(ValueError):
        acf_value("RR")  # integer words have no finite matrix value


def test_word_parse_errors():
    with pytest.raises(ParseError):
        acf_to_digits("RFX")
    with pytest.raises(ParseError):
        acf_to_digits("RFFR")
    with pytest.raises(ParseError):
        farey_to_acf("RQ")


def test_digit_text_format():
    d = parse_digits("0;2,1,4")
    assert d == OcfDigits(0, (2, 1, 4), True)
    assert format_digits(d) == "0;2,1,4"
    assert format_digits(parse_digits("7")) == "7"
