"""Typed errors that no other test raises: each row is a library call on a
malformed input, the exception it must raise and a fragment of its message."""

from fractions import Fraction

import pytest

from modcut.automata import homographic_acf
from modcut.cf import OcfDigits, acf_value, ocf_digits, ocf_value
from modcut.cutting import corner_resolutions
from modcut.exactnum import (
    PINF,
    IntMatrix2,
    ParseError,
    as_surd,
    rational_between,
    sqrt_exact,
    squarefree_split,
    surd,
)
from modcut.mgcf import (
    AnnotatedDigits,
    annotate_ones,
    annotated_from_mgcf,
    mgcf_from_annotated,
    parse_annotated,
)
from modcut.tessellation import corner_point

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
}


@pytest.mark.parametrize("call, exc, fragment", ERRORS.values(), ids=list(ERRORS))
def test_typed_error(call, exc, fragment):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert fragment in str(info.value)
