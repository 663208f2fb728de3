import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from modcut.cutting import (
    CUTTING_MATS,
    EDGE_FORBIDDEN,
    acf_from_cutting,
    corner_resolutions,
    cutting_from_mgcf,
    cutting_matrix,
    find_edge_forbidden,
    format_cutting,
    mgcf_from_cutting,
    parse_cutting,
)
from modcut.exactnum import ParseError
from modcut.cf import acf_of
from modcut.mgcf import mgcf_direct


def small_rationals(qmax):
    for q in range(3, qmax + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if 2 * p < q and math.gcd(p, q) == 1:
                yield Fraction(p, q)
                yield Fraction(-p, q)


def test_parity_map():
    assert cutting_from_mgcf("JRRJRJ") == ("J", "L", "L", "J", "R", "J")
    assert cutting_from_mgcf("JRRCRRRRJ") == (
        "J", "L", "L", "C1", "L", "L", "L", "L", "J")


def test_parity_inverse():
    for f in small_rationals(40):
        w = mgcf_direct(f, limit=500)
        assert mgcf_from_cutting(cutting_from_mgcf(w)) == w, f


def test_corner_parity_checked():
    with pytest.raises(ParseError):
        mgcf_from_cutting(("C1",))  # C1 only occurs in odd parity
    with pytest.raises(ParseError):
        mgcf_from_cutting(("J", "C2"))


def test_corner_resolution_matrices():
    for tok in ("C1", "C2"):
        target = CUTTING_MATS[tok]
        for res in corner_resolutions(tok):
            m = cutting_matrix(res)
            assert m == target or m == IntNeg(target)


def IntNeg(m):
    from modcut.exactnum import IntMatrix2

    return IntMatrix2(-m.a, -m.b, -m.c, -m.d)


def test_edge_forbidden_scan():
    assert find_edge_forbidden(("J", "J")) == (0, ("J", "J"))
    assert find_edge_forbidden(("L", "L", "R")) == (1, ("L", "R"))
    assert find_edge_forbidden(("J", "L", "L", "J")) is None
    assert find_edge_forbidden("LJJ") == (1, ("J", "J"))  # one-letter tokens
    assert len(EDGE_FORBIDDEN) == 9


def _first_edge_forbidden(word):
    """The scan find_edge_forbidden made before it indexed the blocks by
    their first token: every block at every position, in order."""
    w = tuple(word)
    for i in range(len(w)):
        for blk in EDGE_FORBIDDEN:
            if w[i : i + len(blk)] == blk:
                return i, blk
    return None


# a realised word of 500 tokens, cut from the central word of the head
# [120, 1, 120], whose one corner C1 is token 244
_REALISED = cutting_from_mgcf(mgcf_direct(Fraction(3572403, 432231362), limit=500))


@given(st.lists(st.sampled_from(sorted(CUTTING_MATS)), max_size=40))
@example(["C1", "L", "R"])
@example(["C2", "C1", "R", "J", "R", "R", "J", "R"])
@example(["L", "C1", "L", "C2", "C2", "J", "J", "L"])
@example(list(_REALISED))
@example(list(_REALISED) + ["J", "J"])
def test_edge_scan_matches_the_nested_loop(word):
    assert find_edge_forbidden(word) == _first_edge_forbidden(word)


@pytest.mark.parametrize("word", [("X", "J", "J"), ("LR",), ("J", "C3"), ["C", "1"]])
def test_edge_scan_refuses_non_tokens(word):
    """A token that is no cutting symbol is refused, not scanned past or
    read as the letters it is written with."""
    with pytest.raises(ValueError, match="bad cutting token"):
        find_edge_forbidden(word)


def test_acf_from_cutting_matches():
    for word, acf in [("JLLJRJ", "FRRFR"),
                      ("JLLJRRR", "FRR"),  # a trailing run is no digit yet
                      ("JLLC1LLJ", "FRRFRFRR")]:
        assert acf_from_cutting(parse_cutting(word)) == acf, word
    with pytest.raises(ValueError):  # a0 = -1 has no ACF word
        acf_from_cutting(cutting_from_mgcf(mgcf_direct(Fraction(-1, 3))))
    for f in small_rationals(30):
        if f <= 0:
            continue
        w = cutting_from_mgcf(mgcf_direct(f, limit=500))
        # the closing F of a terminating expansion is never emitted
        assert acf_from_cutting(w) + "F" == acf_of(f), f


def test_text_format():
    assert parse_cutting("JRRC1LJ") == ("J", "R", "R", "C1", "L", "J")
    assert parse_cutting("J,R,C2") == ("J", "R", "C2")
    assert format_cutting(("J", "C1", "L")) == "JC1L"
    with pytest.raises(ParseError):
        parse_cutting("JCX")
    with pytest.raises(ParseError):
        parse_cutting("JQ")


tokens = st.lists(st.sampled_from(sorted(CUTTING_MATS)), max_size=12)


@given(tokens)
def test_compact_and_comma_forms_agree(toks):
    w = tuple(toks)
    assert parse_cutting("".join(w)) == parse_cutting(",".join(w)) == w


@given(tokens, st.integers(0, 12),
       st.characters(exclude_characters="LRJC12,",
                     exclude_categories=("Z", "Cc")))
def test_a_foreign_character_is_a_parse_error(toks, i, ch):
    text = "".join(toks)
    i = min(i, len(text))
    with pytest.raises(ParseError):
        parse_cutting(text[:i] + ch + text[i:])
