"""Typed errors that no other test raises: each row is a library call on a
malformed input, the exception it must raise and a fragment of its message."""

import os
from fractions import Fraction

import pytest

from modcut.automata import HomographicMachine, compose, homographic_acf, max_lag
from modcut.cf import (
    OcfDigits,
    acf_value,
    convergents,
    digits_to_acf,
    format_digits,
    ocf_digits,
    ocf_value,
)
from modcut.cutting import corner_resolutions, cutting_matrix, parse_cutting
from modcut.exactnum import (
    PINF,
    IntMatrix2,
    ParseError,
    as_surd,
    parse_extreal,
    rational_between,
    sqrt_exact,
    squarefree_split,
    surd,
)
from modcut.mgcf import (
    AnnotatedDigits,
    annotate_ones,
    annotated_from_mgcf,
    mgcf_from_acf,
    mgcf_from_annotated,
    parse_annotated,
)
from modcut.shiftspace import random_cross_check, verdict_json
from modcut.tessellation import GeodesicSpec, corner_point, render_trace_svg, trace

# the call as written, the call, the exception type and a message fragment
ERRORS = {
    "OcfDigits(0, (0,))": (lambda: OcfDigits(0, (0,)), ValueError,
                           "tail digits must be positive"),
    "ocf_digits(PINF)": (lambda: ocf_digits(PINF), ValueError, "cannot expand inf"),
    "ocf_value(OcfDigits(0, (2,), False))": (
        lambda: ocf_value(OcfDigits(0, (2,), False)), ValueError, "non-terminating prefix"),
    "acf_value('RX')": (lambda: acf_value("RX"), ParseError, "bad ACF letter 'X'"),
    "corner_resolutions('J')": (lambda: corner_resolutions("J"), ValueError,
                                "not a corner token"),
    "annotate_ones(ocf_digits(1/3), PINF)": (
        lambda: annotate_ones(ocf_digits(Fraction(1, 3)), PINF), ValueError,
        "theta must be finite"),
    "mgcf_from_annotated(AnnotatedDigits(-1, ((2, None),)))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(-1, ((2, None),))), ValueError,
        "a0 = -1 requires a1 = 1"),
    "mgcf_from_annotated(AnnotatedDigits(1))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(1)), ValueError, "a0 in {0, -1}"),
    "annotated_from_mgcf('RJ')": (lambda: annotated_from_mgcf("RJ"), ParseError,
                                  "precede the initial J"),
    "parse_annotated('0;2h')": (lambda: parse_annotated("0;2h"), ParseError,
                                "tag on a digit != 1"),
    "parse_annotated('0;0')": (lambda: parse_annotated("0;0"), ValueError,
                               "tail digits must be positive"),
    "mgcf_from_annotated(AnnotatedDigits(0, ((0, None),)))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(0, ((0, None),))), ValueError,
        "not an annotated digit: (0, None)"),
    "mgcf_from_annotated(AnnotatedDigits(0, ((-2, None),)))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(0, ((-2, None),))), ValueError,
        "not an annotated digit: (-2, None)"),
    "mgcf_from_annotated(AnnotatedDigits(0, ((2, None), (1, 'q'))))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(0, ((2, None), (1, "q")))),
        ValueError, "not an annotated digit: (1, 'q')"),
    "mgcf_from_annotated(AnnotatedDigits(-1, ((1, 'q'),)))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(-1, ((1, "q"),))), ValueError,
        "not an annotated digit: (1, 'q')"),
    "mgcf_from_annotated(AnnotatedDigits(0, ((3, 'h'),)))": (
        lambda: mgcf_from_annotated(AnnotatedDigits(0, ((3, "h"),))), ValueError,
        "not an annotated digit: (3, 'h')"),
    "cutting_matrix(('X',))": (lambda: cutting_matrix(("X",)), ParseError,
                               "bad cutting token 'X'"),
    "squarefree_split(-1)": (lambda: squarefree_split(-1), ValueError, "negative radicand"),
    "surd(0, 1, -2)": (lambda: surd(0, 1, -2), ValueError, "negative radicand"),
    "sqrt_exact(2) + sqrt_exact(3)": (lambda: sqrt_exact(2) + sqrt_exact(3), ValueError,
                                      "mixed-radicand"),
    "as_surd(0).inverse()": (lambda: as_surd(0).inverse(), ZeroDivisionError, "1/0 surd"),
    "sqrt_exact(2) / 0": (lambda: sqrt_exact(2) / 0, ZeroDivisionError, "surd / 0"),
    "as_surd('1')": (lambda: as_surd("1"), TypeError, "cannot interpret '1' as a surd"),
    "sqrt_exact(sqrt_exact(2))": (lambda: sqrt_exact(sqrt_exact(2)), TypeError,
                                  "not an exact rational"),
    "sqrt_exact(-1)": (lambda: sqrt_exact(-1), ValueError, "negative operand"),
    "IntMatrix2(2, 0, 0, 1).inverse()": (lambda: IntMatrix2(2, 0, 0, 1).inverse(),
                                         ValueError, "requires det +-1, got 2"),
    "rational_between(1, 1)": (lambda: rational_between(1, 1), ValueError, "empty interval"),
    "homographic_acf(IntMatrix2(1, 0, 0, 1), 'RRR')": (
        lambda: homographic_acf(IntMatrix2(1, 0, 0, 1), "RRR"), ValueError,
        "result is infinite"),
    "homographic_acf(IntMatrix2(0, 1, 1, 0), 'RR')": (
        lambda: homographic_acf(IntMatrix2(0, 1, 1, 0), "RR"), ValueError,
        "image is not positive"),
    "corner_point(IntMatrix2(1, 1, 0, -1))": (
        lambda: corner_point(IntMatrix2(1, 1, 0, -1)), ValueError, "requires det = 1"),
    "random_cross_check(('J',), None)": (
        lambda: random_cross_check(("J",), None), TypeError,
        "verdict must be a BlockVerdict, not None"),
    "verdict_json(1)": (lambda: verdict_json(1), TypeError,
                        "verdict must be a BlockVerdict, not 1"),
    "parse_cutting(5)": (lambda: parse_cutting(5), TypeError,
                         "cutting word text must be a str, not 5"),
    # a wrong-typed argument is a TypeError at entry, not an AttributeError
    # where it is first read
    "annotate_ones(0, 1/3)": (lambda: annotate_ones(0, Fraction(1, 3)), TypeError,
                              "digits must be an OcfDigits, not 0"),
    "ocf_value(0)": (lambda: ocf_value(0), TypeError, "digits must be an OcfDigits, not 0"),
    "convergents(0)": (lambda: convergents(0), TypeError,
                       "digits must be an OcfDigits, not 0"),
    "digits_to_acf(0)": (lambda: digits_to_acf(0), TypeError,
                         "digits must be an OcfDigits, not 0"),
    "format_digits(0)": (lambda: format_digits(0), TypeError,
                         "digits must be an OcfDigits, not 0"),
    "mgcf_from_acf(0)": (lambda: mgcf_from_acf(0), TypeError, "word must be a str, not 0"),
    "parse_extreal(0)": (lambda: parse_extreal(0), TypeError, "text must be a str, not 0"),
    # trace checks its arguments at the call, before the first step
    "trace(0)": (lambda: trace(0), TypeError, "g must be a GeodesicSpec, not 0"),
    "trace(GeodesicSpec(PINF, 5/14), limit=0)": (
        lambda: trace(GeodesicSpec(PINF, Fraction(5, 14)), limit=0), ValueError,
        "limit must be >= 1"),
    "render_trace_svg(0, [], os.devnull)": (
        lambda: render_trace_svg(0, [], os.devnull), TypeError,
        "g must be a GeodesicSpec, not 0"),
    "HomographicMachine(0)": (lambda: HomographicMachine(0), TypeError,
                              "m must be an IntMatrix2, not 0"),
    "homographic_acf(0, 'RL')": (lambda: homographic_acf(0, "RL"), TypeError,
                                 "m must be an IntMatrix2, not 0"),
    "compose(0, 0)": (lambda: compose(0, 0), TypeError, "t1 must be a Transducer, not 0"),
    "max_lag(0, [('R', 'L')])": (lambda: max_lag(0, [("R", "L")]), TypeError,
                                  "t must be a Transducer, not 0"),
}


@pytest.mark.parametrize("call, exc, fragment", ERRORS.values(), ids=list(ERRORS))
def test_typed_error(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert fragment in str(info.value)
