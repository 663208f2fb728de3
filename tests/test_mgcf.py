import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modcut.cf import OcfDigits, acf_of, ocf_digits, ocf_value
from modcut.exactnum import as_surd, sqrt_exact
from modcut.mgcf import (
    AnnotatedDigits,
    N_MAT,
    annotate_ones,
    annotated_from_mgcf,
    format_annotated,
    mgcf_direct,
    mgcf_from_acf,
    mgcf_from_annotated,
    n_transform,
    parse_annotated,
    _cmp_vs_prefix_interval,
)


def small_rationals(qmax):
    for q in range(2, qmax + 1):
        for p in range(-(q - 1) // 2, (q + 1) // 2):
            if p != 0 and 2 * abs(p) < q and math.gcd(abs(p), q) == 1:
                yield Fraction(p, q)


def test_n_transform():
    assert n_transform(Fraction(1, 2)) == Fraction(5, 4)
    assert n_transform(Fraction(70, 169)) == Fraction(136, 103)
    assert n_transform(0) == 2


def test_direct_basic_words():
    assert mgcf_direct(Fraction(0)) == "J"
    assert mgcf_direct(Fraction(1, 3)) == "JRRRJ"
    assert mgcf_direct(Fraction(-1, 3)) == "JLRRJ"
    # 5/14 balances its critical 1 exactly, so the word shows the corner C
    assert mgcf_direct(Fraction(5, 14)) == "JRRCRRRRJ"
    # the closed end: J, after which the swapped basis meets L at the same s
    assert mgcf_direct(Fraction(-1, 2)) == mgcf_direct(as_surd(Fraction(-1, 2))) == "J"


def test_direct_domain():
    with pytest.raises(ValueError):
        mgcf_direct(Fraction(1, 2))
    with pytest.raises(ValueError):
        mgcf_direct(Fraction(-2, 3))


def test_direct_fraction_vs_surd_path():
    for f in small_rationals(40):
        assert mgcf_direct(f) == mgcf_direct(as_surd(f)), f


def test_direct_surd_periodic():
    # (sqrt 3 - 1)/2: the preperiod JRRJRJ, then the period RRJRJ throughout
    theta = (sqrt_exact(3) - 1) * Fraction(1, 2)
    for limit in (30, 500):
        assert mgcf_direct(theta, limit=limit) == ("JRRJRJ" + "RRJRJ" * limit)[:limit]


@pytest.mark.parametrize("theta", [0.3, Decimal("0.3"), "1/3"])
def test_direct_rejects_inexact_inputs(theta):
    # a float would run the lattice events in float arithmetic
    with pytest.raises(TypeError):
        mgcf_direct(theta, limit=10)


def test_direct_takes_every_exact_input():
    assert mgcf_direct(0) == "J"
    for f in (Fraction(1, 3), Fraction(-5, 14)):
        assert mgcf_direct(as_surd(f)) == mgcf_direct(f)
    theta = (sqrt_exact(3) - 1) * Fraction(1, 2)
    assert mgcf_direct(theta, limit=11) == "JRRJRJRRJRJ"


@pytest.mark.parametrize("limit", [0, -1])
def test_direct_limit_below_one_is_an_error(limit):
    # a word cut to nothing would pass for a complete one
    for theta in (Fraction(5, 14), (sqrt_exact(3) - 1) * Fraction(1, 2)):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            mgcf_direct(theta, limit=limit)


def test_annotate_sign_cases():
    for tail, tag in (((2, 1, 4), "c"), ((2, 1, 3), "h"), ((2, 1, 5), "m")):
        od = OcfDigits(0, tail, True)
        ad = annotate_ones(od, ocf_value(od))
        assert ad.tail[1] == (1, tag)


def test_annotate_first_one_forced():
    od = OcfDigits(-1, (1, 1, 1, 4), True)
    ad = annotate_ones(od, ocf_value(od))
    assert ad.tail[0] == (1, "m")


FIVE_14 = Fraction(5, 14)  # digits 0;2,1,4 and word JRRCRRRRJ


@pytest.mark.parametrize("digits, theta", [
    (OcfDigits(0, (2, 1, 5)), FIVE_14),  # a wrong digit
    (OcfDigits(0, (2, 1, 4, 2)), FIVE_14),  # an extra digit
    (OcfDigits(0, (2, 1)), Fraction(1, 3)),  # 0;3 with its last digit split
    (OcfDigits(1, (1, 2, 1, 2), True), sqrt_exact(3)),  # a surd never ends
    (OcfDigits(0, (2, 1), True), FIVE_14),  # a prefix flagged complete
])
def test_annotate_rejects_what_is_not_the_expansion(digits, theta):
    with pytest.raises(ValueError, match="not the expansion"):
        annotate_ones(digits, theta)


def test_annotate_accepts_open_prefixes():
    """A non-finite prefix is tagged as the same digits of the whole
    expansion are, for a rational and for a surd; the codec prints the
    run it determines."""
    full = annotate_ones(ocf_digits(FIVE_14), FIVE_14)
    ad = annotate_ones(OcfDigits(0, (2, 1), False), FIVE_14)
    assert ad.tail == full.tail[:2] and not ad.finite
    theta = (sqrt_exact(3) - 1) * Fraction(1, 2)
    full = annotate_ones(ocf_digits(theta, limit=12), theta)
    for n in range(1, 12):
        od = ocf_digits(theta, limit=n)
        ad = annotate_ones(od, theta)
        assert ad.tail == full.tail[:n - 1]
        assert mgcf_direct(theta, limit=60).startswith(mgcf_from_annotated(ad))


def test_codec_roundtrip_corpus():
    for f in small_rationals(60):
        w = mgcf_direct(f, limit=500)
        ad = annotated_from_mgcf(w)
        assert mgcf_from_annotated(ad) == w, f
        assert ocf_value(OcfDigits(ad.a0, tuple(d for d, _ in ad.tail), True)) == f


@st.composite
def segment_digits(draw):
    """Valid finite annotated digits, drawn segment by segment: a digit, then
    the 1_m or 1_c its separator may hold; a lone 1 is tagged h, and a1 = 1 m."""
    a0 = draw(st.sampled_from([0, -1]))
    pairs = [(1, "m")] if a0 == -1 else []
    for a, held in draw(st.lists(st.tuples(st.integers(1, 6),
                                           st.sampled_from([None, "m", "c"])), max_size=8)):
        pairs.append((a, "h" if a == 1 else None))
        if held:
            pairs.append((1, held))
    if pairs[:1] == [(1, "h")]:
        pairs[0] = (1, "m")
    return AnnotatedDigits(a0, tuple(pairs), True)


@given(segment_digits())
def test_codec_roundtrip_on_segment_digits(ad):
    assert annotated_from_mgcf(mgcf_from_annotated(ad)) == ad


def test_codec_checks_digits_after_its_older_checks():
    # a digit the codec cannot encode is reported only once the expansion
    # has passed the a0 and 1_c checks, whose messages come first
    ad = AnnotatedDigits(0, ((0, None), (1, "m"), (1, "c"), (2, None)), False)
    with pytest.raises(ValueError, match="1_c on a non-terminating expansion"):
        mgcf_from_annotated(ad)
    with pytest.raises(ValueError, match=r"not an annotated digit: \(0, None\)"):
        mgcf_from_annotated(AnnotatedDigits(0, ((0, None), (1, "m"), (2, None)), False))


def test_codec_refuses_a_held_1c_on_a_non_terminating_expansion():
    # the 1_c is held by the C segment of the digit 2, not a segment head
    ad = AnnotatedDigits(0, ((2, None), (1, "c"), (3, None)), False)
    with pytest.raises(ValueError, match="1_c on a non-terminating expansion"):
        mgcf_from_annotated(ad)
    assert mgcf_from_annotated(AnnotatedDigits(0, ad.tail, True)) == "JRRCRRRJ"


@pytest.mark.parametrize("text, word", [("-1;1h,3", None), ("-1;1c,3", None),
                                        ("-1;1m,3", "JLRRRJ"), ("-1;1,3", "JLRRRJ")])
def test_codec_reads_the_tag_of_a1_after_a0_minus_one(text, word):
    ad = parse_annotated(text)
    if word is None:
        with pytest.raises(ValueError, match="a0 = -1 requires a1 = 1"):
            mgcf_from_annotated(ad)
    else:
        assert mgcf_from_annotated(ad) == word


def test_from_acf_prefix_semantics():
    w, stats = mgcf_from_acf(acf_of(Fraction(5, 14)))
    assert mgcf_direct(Fraction(5, 14)).startswith(w)
    assert stats["retained_digits"] >= 4
    # an undecidable trailing 1 must not be guessed
    prefix, _ = mgcf_from_acf("FRRFR")
    assert mgcf_direct(Fraction(5, 14)).startswith(prefix)


@pytest.mark.parametrize("x", [Fraction(3, 5), Fraction(13, 21),
                               (sqrt_exact(5) - 1) / 2])
def test_from_acf_with_a_leading_one(x):
    """a1 = 1: the first 1 is tagged m without a comparison, and the result
    is a prefix of the tagging route's word for the same value."""
    digits = ocf_digits(x)
    assert digits.tail[0] == 1
    w, _stats = mgcf_from_acf(acf_of(x))
    assert w and mgcf_from_annotated(annotate_ones(digits, x)).startswith(w)


def _cmp_by_value(t, digs):
    """The Fraction loop _cmp_vs_prefix_interval ran before the digit
    stream: the reference it must match."""
    for i, target in enumerate(digs):
        n, d = t.numerator, t.denominator
        a = n // d
        if a != target:
            side = 1 if a > target else -1
            return side if i % 2 == 0 else -side
        frac = t - a
        if frac == 0:
            if i == len(digs) - 1:
                return 0  # equals a closed-interval endpoint
            return -1 if i % 2 == 0 else 1
        t = 1 / frac
    return 0


digit_prefixes = st.lists(st.integers(1, 40), min_size=1, max_size=30)


@given(digit_prefixes, st.data())
def test_prefix_interval_matches_the_fraction_loop(digs, data):
    """t is random, or the value of digs[:k] (an end of the interval), or
    the value of digs[:k] followed by more digits; it is passed unreduced,
    as mgcf_from_acf passes N(alpha)."""
    kind = data.draw(st.sampled_from(("random", "end", "inside")))
    if kind == "random":
        t = data.draw(st.fractions(min_value=0, max_value=45, max_denominator=10**6))
    else:
        k = data.draw(st.integers(1, len(digs)))
        more = data.draw(digit_prefixes) if kind == "inside" else []
        t = ocf_value(OcfDigits(digs[0], tuple(digs[1:k]) + tuple(more)))
    g = data.draw(st.integers(1, 3))
    assert _cmp_vs_prefix_interval(t.numerator * g, t.denominator * g, digs) \
        == _cmp_by_value(t, digs)


@pytest.mark.parametrize("t, side", [
    (Fraction(2), -1),  # [2], an end: every [2; 1, 4, ...] lies above it
    (Fraction(3), 1),  # [3] = [2; 1] read by floors differs at digit 0
    (Fraction(7, 3), -1),  # [2; 3]: the digit 3 > 1 at an odd index
    (Fraction(14, 5), 0),  # [2; 1, 4] itself, the closed end
])
def test_prefix_interval_ends(t, side):
    digs = [2, 1, 4]
    assert _cmp_vs_prefix_interval(t.numerator, t.denominator, digs) == side
    assert _cmp_by_value(t, digs) == side


def test_annotated_text_format():
    ad = AnnotatedDigits(0, ((2, None), (1, "h"), (4, None)), True)
    text = format_annotated(ad)
    assert parse_annotated(text) == ad


@settings(max_examples=60)
@given(st.fractions(min_value=Fraction(-49, 100), max_value=Fraction(49, 100),
                    max_denominator=500).filter(lambda f: f != 0), st.data())
def test_direct_matches_annotated_route(f, data):
    w = mgcf_direct(f, limit=2000)
    assert w == mgcf_from_annotated(annotate_ones(ocf_digits(f), f))
    # a word cut by its limit is the first n letters of the complete word
    n = data.draw(st.integers(1, len(w)), label="limit")
    assert mgcf_direct(f, limit=n) == w[:n]
