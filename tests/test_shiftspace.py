import hashlib
import itertools
import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from modcut.cutting import (
    corner_resolutions,
    cutting_from_mgcf,
    find_edge_forbidden,
)
from modcut.cf import F_MAT, R_MAT
from modcut.exactnum import PINF, IntMatrix2, _real_cmp, lft_apply
from modcut.mgcf import N_MAT, mgcf_direct, n_transform
from modcut.shiftspace import (
    BlockVerdict,
    central_block,
    central_head_to_tail,
    decide_block,
    enumerate_minimal_forbidden,
    excluded_initial,
    follower_separation,
    random_cross_check,
    verdict_json,
    _block_readings,
    _cutting_word,
    _occurs,
    _quad_roots,
    _Reading,
    _satisfied,
    _y_breakpoints,
)


def verdict_digest(verdicts) -> str:
    """sha256 of one "block status foot reason" line per verdict."""
    lines = ["%s %s %s %s" % ("".join(v.block), v.status,
                              v.witness.foot if v.witness else None, v.reason)
             for v in verdicts]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def W(text):
    from modcut.cutting import parse_cutting

    return parse_cutting(text)


# ---------------------------------------------------------------------------
# frozen verdicts (each admissible witness was tracer-confirmed when frozen)

FORBIDDEN = [
    "LLLJRJLLL",
    "LJRRRJRRRJLL",
    "JLLLJRJLLLJ",
    "JLLJLLJ",
    "JLJRRRJRRJ",
    "JLLJLLLJRRJ",
    "LLLLLJRJLLLLL",
    "JLLJLLLJ",
    "RJLLJRJLLLLJR",
]

ADMISSIBLE = [
    "JLLJRJLLLJ",
    "LJLLJRJLLLLJL",
    "RJLLJRJLLLLJL",
    "JLLC1LLLLJ",
    "JLLLJRJLLJRJ",
    "LLJLL",
]


@pytest.mark.parametrize("word", FORBIDDEN)
def test_frozen_forbidden(word):
    v = decide_block(W(word))
    assert v.forbidden, word
    assert random_cross_check(W(word), v)


@pytest.mark.parametrize("word", ADMISSIBLE)
def test_frozen_admissible(word):
    v = decide_block(W(word))
    assert v.status == "admissible", word
    assert v.witness is not None, word


@pytest.mark.parametrize("word", ["LC1R", "RC2L"])
def test_corner_keeps_letter_type_after_leading_run(word):
    # C1 sits between Ls and C2 between Rs, also right after the first run
    v = decide_block(W(word))
    assert v.status == "whole-forbidden", v
    assert v.reason == "no segment factorization"
    assert random_cross_check(W(word), v)


def test_edge_forbidden_short_circuit():
    v = decide_block(W("JLLJJ"))
    assert v.status == "edge-forbidden"
    assert "JJ" in v.reason


def test_verdicts_are_sound_on_corpus():
    """Every factor of a real cutting sequence must be admissible."""
    factors = set()
    for q in range(3, 40):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) != 1:
                continue
            for s in (1, -1):
                w = cutting_from_mgcf(mgcf_direct(Fraction(s * p, q), limit=200))
                for n in range(2, 7):
                    for i in range(len(w) - n + 1):
                        factors.add(w[i:i + n])
    for blk in sorted(factors):
        v = decide_block(blk)
        assert v.status == "admissible", blk
        assert v.witness is not None, blk


def test_central_head_to_tail():
    assert central_head_to_tail([2]) == (4,)
    assert central_head_to_tail([2] * 6) == (3, 8, 4)
    assert central_head_to_tail([3] + [2] * 6) == (3, 8, 4, 10)
    assert central_head_to_tail([1]) == ()


def test_central_block_head2():
    core, theta = central_block([2])
    assert theta == Fraction(5, 14)
    assert core == W("JLLC1LLLLJ")


def test_head2_eight_word_split():
    core, _ = central_block([2])
    ci = next(i for i, t in enumerate(core) if t.startswith("C"))
    forbidden = set()
    for res in corner_resolutions(core[ci]):
        for pre in ("L", "R"):
            for suf in ("L", "R"):
                blk = (pre,) + core[:ci] + res + core[ci + 1:] + (suf,)
                if decide_block(blk).forbidden:
                    forbidden.add("".join(blk))
    assert forbidden == {"RJLLJRJLLLLJR", "LJLLLJLLLLLJL"}


def test_enumeration_counts():
    n1 = enumerate_minimal_forbidden(17, max_head=1)
    n2 = enumerate_minimal_forbidden(29, max_head=2)
    assert len(n1) == 11
    assert len(n2) == 19
    assert all(len(b) <= 29 for b in n2)


def test_enumeration_rejects_a_negative_max_head():
    # it once stood for 0 and listed the edge-forbidden blocks
    with pytest.raises(ValueError, match="max_head"):
        enumerate_minimal_forbidden(5, max_head=-1)
    assert len(enumerate_minimal_forbidden(5, max_head=0)) == 7


def test_enumeration_decides_no_block_longer_than_max_len(monkeypatch):
    import modcut.shiftspace as shiftspace

    lengths = []
    decide = shiftspace.decide_block

    def counted(w, anchored=False):
        lengths.append(len(w))
        return decide(w, anchored)

    monkeypatch.setattr(shiftspace, "decide_block", counted)
    # max_head 2 builds central candidates of lengths 12, 13, 15 and 18
    blocks = enumerate_minimal_forbidden(13, max_head=2)
    assert lengths and max(lengths) <= 13
    assert all(len(b) <= 13 for b in blocks)


@pytest.mark.parametrize("block, status, decided", [
    ("LJR", "admissible", 1),  # its first reading gives the witness 3/10
    ("LC1LC1L", "whole-forbidden", 4),  # all 4 readings infeasible
])
def test_verdict_stops_at_the_first_witness(monkeypatch, block, status, decided):
    """Readings are built one at a time, each only when it is decided: a
    witness in the first reading leaves the later ones unbuilt, and a
    whole-forbidden verdict builds and decides them all."""
    import modcut.shiftspace as shiftspace

    w = W(block)
    assert len(list(_block_readings(w))) == 4
    calls, made = [], []
    points = shiftspace._witness_points

    def counted(rd):
        calls.append(rd)
        return points(rd)

    class Reading(shiftspace._Reading):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(shiftspace, "_witness_points", counted)
    monkeypatch.setattr(shiftspace, "_Reading", Reading)
    v = decide_block(w)
    assert v.status == status and len(calls) == decided
    assert len(made) == decided
    if v.witness is not None:
        assert v.witness.foot == Fraction(3, 10)


@pytest.mark.parametrize("text, anchored", [
    ("X", True), ("C3", True), ("J J X", False), ("X", False), ("J X", True)])
def test_tokens_are_checked_at_entry(text, anchored):
    """A token that is no cutting symbol is a ValueError before the edge scan
    and the initial-J rule, in decide_block and random_cross_check alike."""
    block = tuple(text.split())
    with pytest.raises(ValueError, match="bad cutting token"):
        decide_block(block, anchored)
    verdict = BlockVerdict(block, "whole-forbidden", anchored=anchored)
    with pytest.raises(ValueError, match="bad cutting token"):
        random_cross_check(block, verdict)


def test_anchored_initial_words():
    for f in (Fraction(5, 14), Fraction(-5, 14), Fraction(1, 3), Fraction(2, 7)):
        w = cutting_from_mgcf(mgcf_direct(f, limit=200))
        v = decide_block(w, anchored=True)
        assert v.status == "admissible", f
        assert v.witness is not None
    assert excluded_initial(W("LLJ"))
    assert excluded_initial(W("JJ"))
    assert not excluded_initial(W("JLLJ"))
    assert not excluded_initial(())
    # decide_block's anchored check is the one rule for an R or L start
    v = decide_block(("R",), anchored=True)
    assert (v.status, v.reason) == ("whole-forbidden", "initial words start with J")
    assert excluded_initial(("R",))


def test_the_empty_initial_word_is_the_free_empty_block():
    # the empty word begins every word
    v = decide_block((), anchored=True)
    assert v == decide_block(())
    assert (v.status, v.witness.foot, v.anchored) == ("admissible", Fraction(2, 5), False)
    assert not excluded_initial(())
    assert decide_block(W("JLLJ"), anchored=True).anchored


def test_cross_check_samples_the_readings_decided_over():
    """Every whole-forbidden verdict of length <= 5, free and anchored,
    passes random_cross_check; an anchored one is sampled over its anchored
    readings, and one ruled out by its first letter has none."""
    counts = {}
    for anchored in (False, True):
        counts[anchored] = 0
        for n in range(1, 6):
            for b in itertools.product(("L", "R", "J", "C1", "C2"), repeat=n):
                v = decide_block(b, anchored=anchored)
                assert v.anchored == anchored
                if v.status == "whole-forbidden":
                    assert random_cross_check(b, v), (b, anchored)
                    counts[anchored] += 1
    assert counts == {False: 2314, True: 2448}


@pytest.mark.parametrize("block", ["JLLJLLJ", "JLLLJRJLLLJ", "LJRRRJRRRJLL"])
def test_verdicts_without_a_witness_build_no_fraction(monkeypatch, block):
    """From a reading's boxes to its last sample, a whole-forbidden verdict
    and its random cross-check run on integer pairs and triples: the
    module builds no Fraction, which it keeps for witness feet."""
    import modcut.shiftspace as shiftspace

    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(shiftspace, "Fraction", Counting)
    v = decide_block(W(block))
    assert v.status == "whole-forbidden"
    assert random_cross_check(W(block), v)
    assert built == []


def test_anchored_short_initial_words():
    """Every J-initial block of length <= 7 decided as an initial word."""
    blocks = [("J",) + rest for n in range(7)
              for rest in itertools.product(("L", "R", "J", "C1", "C2"), repeat=n)]
    blocks = [b for b in blocks if find_edge_forbidden(b) is None]
    assert len(blocks) == 8781
    verdicts = [decide_block(b, anchored=True) for b in blocks]
    # every status, witness foot and reason, frozen when the witnesses were
    # tracer-checked (a changed witness fails here, not only in the bench refs)
    assert verdict_digest(verdicts) == (
        "0f1170166ed6b1b06feb68b3e8709966a261b6465fd71c109b5f017403864a93")
    admissible = [v for v in verdicts if v.status == "admissible"]
    assert len(admissible) == 75
    for v in admissible:
        if v.witness is not None:
            word = cutting_from_mgcf(mgcf_direct(v.witness.foot, limit=4000))
            assert word[:len(v.block)] == v.block, v


def test_free_short_blocks():
    """Every non-edge-forbidden block of length 1..6 decided free."""
    blocks = [b for n in range(1, 7)
              for b in itertools.product(("L", "R", "J", "C1", "C2"), repeat=n)
              if find_edge_forbidden(b) is None]
    assert len(blocks) == 10923
    verdicts = [decide_block(b) for b in blocks]
    assert verdict_digest(verdicts) == (
        "8d21e16be41b5ca4c5e21659e497e1113e951dcc2821ae49206e4bf2ae7be782")
    admissible = [v for v in verdicts if v.status == "admissible"]
    assert len(admissible) == 297
    for v in admissible:
        word = cutting_from_mgcf(mgcf_direct(v.witness.foot, limit=4000))
        n = len(v.block)
        assert any(word[i:i + n] == v.block for i in range(len(word) - n + 1)), v
    reasons = [v.reason for v in verdicts if v.status == "whole-forbidden"]
    infeasible = [r for r in reasons
                  if r.startswith("all ") and r.endswith(" readings infeasible")]
    assert len(infeasible) == 90
    assert reasons.count("no segment factorization") == 10536


def test_realised_factors_are_admissible(corpus200):
    """Every distinct factor of length 1..10 of the complete word of a foot
    with q <= 200 is admissible with a witness; a failure is listed with a
    foot whose word holds it."""
    foot_of = {}
    for f, mg in corpus200.items():
        word = cutting_from_mgcf(mg)
        for n in range(1, 11):
            for i in range(len(word) - n + 1):
                foot_of.setdefault(word[i:i + n], f)
    assert len(foot_of) == 2103
    failed = []
    for blk, f in foot_of.items():
        v = decide_block(blk)
        if v.status != "admissible" or v.witness is None:
            failed.append(("".join(blk), f, v.status, v.reason))
    assert failed == []


def test_anchored_realised_prefixes():
    prefixes = set()
    for q in range(3, 60):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) != 1:
                continue
            for s in (1, -1):
                w = cutting_from_mgcf(mgcf_direct(Fraction(s * p, q), limit=200))
                prefixes.update(w[:n] for n in range(1, 9))
    for blk in sorted(prefixes):
        assert decide_block(blk, anchored=True).status == "admissible", blk


# ---------------------------------------------------------------------------
# witness words: the segment codec against lattice reduction


@st.composite
def feet(draw):
    """p/q in (-1/2, 1/2) with q up to 10^4, reduced."""
    q = draw(st.integers(3, 10 ** 4))
    return Fraction(draw(st.integers(-(q - 1) // 2, (q - 1) // 2)), q)


@settings(max_examples=60, deadline=None)
@given(feet())
@example(Fraction(1, 9999))  # the longest words: one digit of about q
@example(Fraction(-4999, 9999))
@example(Fraction(-1, 2))  # the closed end, whose word the decider writes as J
def test_codec_word_is_the_complete_lattice_word(theta):
    word = _cutting_word(theta)
    # one symbol of room: equal words here mean the lattice word ended
    assert cutting_from_mgcf(mgcf_direct(theta, limit=len(word) + 1)) == word


token_words = st.lists(st.sampled_from(("L", "R", "J", "C1", "C2")), max_size=40)


@settings(max_examples=300)
@given(token_words, token_words, st.integers(0, 40), st.integers(0, 40))
def test_joined_substring_is_the_token_factor_test(word, other, i, n):
    """On joined tokens, a substring and a prefix test are the tuple factor
    and prefix tests: for a slice of the word, that slice with its last
    token redrawn, and a drawn short word."""
    word = tuple(word)
    for blk in (word[i:i + n], word[i:i + n][:-1] + tuple(other[:1]), tuple(other[:3])):
        k = len(blk)
        factor = any(word[j:j + k] == blk for j in range(len(word) - k + 1))
        assert _occurs("".join(blk), "".join(word), False) == factor
        assert _occurs("".join(blk), "".join(word), True) == (word[:k] == blk)


def test_central_block_matches_the_lattice_word(monkeypatch):
    import modcut.shiftspace as shiftspace

    heads = [h for n in range(1, 6) for h in itertools.product((1, 2), repeat=n)]
    codec = [central_block(h) for h in heads]
    assert sum(cb is not None for cb in codec) == 61

    def lattice_word(theta):
        mg = mgcf_direct(theta, limit=4000)
        assert len(mg) < 4000  # complete
        return cutting_from_mgcf(mg)

    monkeypatch.setattr(shiftspace, "_cutting_word", lattice_word)
    assert [central_block(h) for h in heads] == codec


def test_foot_minus_half_keeps_the_lattice_word():
    # The codec rejects the closed end -1/2 (digits [-1; 2]), so its word
    # is the lattice word J, and anchored J keeps the witness -1/2.  ROADMAP
    # item 2 settles this end and will change both on purpose.
    assert _cutting_word(Fraction(-1, 2)) == ("J",)
    v = decide_block(("J",), anchored=True)
    assert v.status == "admissible"
    assert v.witness.foot == Fraction(-1, 2)


def test_follower_separation():
    sep = follower_separation(1, 2)
    assert sep["after_j"] != sep["after_k"]
    vj = decide_block(sep["word_j"] + sep["continuation"], anchored=True)
    vk = decide_block(sep["word_k"] + sep["continuation"], anchored=True)
    assert vj.forbidden != vk.forbidden
    with pytest.raises(ValueError):
        follower_separation(2, 2)


def test_verdict_json_shape():
    v = decide_block(W("JLLJRJLLLJ"))
    doc = verdict_json(v)
    assert doc["block"] == "JLLJRJLLLJ"
    assert doc["status"] == "admissible"
    assert set(doc) == {"block", "status", "witness", "reason"}
    assert doc["witness"]["head"] == "inf"


# ---------------------------------------------------------------------------
# the tag sign on integer pairs against the value form

matrices = st.tuples(*[st.integers(-6, 6)] * 4).filter(
    lambda t: t[0] * t[3] != t[1] * t[2]).map(lambda t: IntMatrix2(*t))
ratios = st.fractions(min_value=-5, max_value=5, max_denominator=12)
scales = st.integers(1, 3)


def _value_sign(bm, am, y, z):
    """sign(beta(z) - N(alpha(y))) by lft_apply, n_transform and a Fraction
    compare; None where beta, alpha or N(alpha) is infinite."""
    beta, alpha = lft_apply(bm, z), lft_apply(am, y)
    if beta is PINF or alpha is PINF:
        return None
    nv = n_transform(alpha)
    if nv is PINF:
        return None
    return (beta > nv) - (beta < nv)


def _adjugate(m):
    return IntMatrix2(m.d, -m.b, -m.c, m.a)


def _project(sign, bm, am):
    """The record (sign, q) of the products beta = bm and alpha = am, with q
    read off adj(beta) N alpha = [[-c, -d], [a, b]] (beta^-1 N alpha times
    det beta)."""
    m = _adjugate(bm) * N_MAT * am
    return sign, (m.c, m.d, -m.a, -m.b)


@given(matrices, matrices, ratios, ratios, scales, scales, st.booleans())
def test_tag_sign_matches_the_value_form(bm, am, y, z, ky, kz, tight):
    """On pairs whose beta and N alpha denominators are positive, scaled by
    any positive integer, the sign of the form q is the sign the value form
    gives, so a record is satisfied exactly when its sign is that one.  With
    tight, z is beta^-1(N(alpha(y))), where the sign is 0."""
    if tight:
        alpha = lft_apply(am, y)
        assume(alpha is not PINF)
        nv = n_transform(alpha)
        assume(nv is not PINF)
        z = lft_apply(_adjugate(bm), nv)
        assume(z is not PINF)
    want = _value_sign(bm, am, y, z)
    assume(want is not None)
    y1, y2 = ky * y.numerator, ky * y.denominator
    z1, z2 = kz * z.numerator, kz * z.denominator
    # -m is the map m: orient beta and alpha so that the denominators of
    # beta(z) and N(alpha(y)), nonzero where want is finite, are positive
    if bm.c * z1 + bm.d * z2 < 0:
        bm = IntMatrix2(*(-e for e in bm))
    nm = N_MAT * am
    if nm.c * y1 + nm.d * y2 < 0:
        am = IntMatrix2(*(-e for e in am))
    q = _project(0, bm, am)[1]
    for sign in (-1, 0, 1):
        assert _satisfied([(sign, q)], (y1, y2), (z1, z2)) == (want == sign)
    if tight:
        assert want == 0


# ---------------------------------------------------------------------------
# the constraint records against their per-1 matrix products


def _cf_matrix(ds):
    """t -> [0; ds, t]: F D(d_0) ... D(d_(k-1)) by matrix products."""
    m = F_MAT
    for a in ds:
        m = m * IntMatrix2(a, 1, 1, 0)
    return m


def _products_per_one(rd):
    """(sign, beta, alpha) per tagged 1, with one pair of matrix products
    each: the reference the records must match."""
    ds = [v for v, _tag in rd.digits]
    sign_of = {"h": 1, "c": 0, "m": -1}
    tagged = [(sign_of[tag], R_MAT * _cf_matrix(ds[i + 1:]) * F_MAT,
               _cf_matrix(ds[:i][::-1]) * F_MAT)
              for i, (_v, tag) in enumerate(rd.digits) if tag in sign_of]
    if rd.trailing_pair is not None:
        a = rd.trailing_pair
        tagged.append((-1, R_MAT * F_MAT * _cf_matrix((a, 1)).inverse(),
                       _cf_matrix([a] + ds[::-1]) * F_MAT))
    return tagged


def _constraints_per_one(rd):
    """The records as the per-1 products give them."""
    return tuple(_project(*t) for t in _products_per_one(rd))


def _readings_to(n, anchored_too):
    """(block, anchored, reading) for every block of length 1..n."""
    for k in range(1, n + 1):
        for b in itertools.product(("L", "R", "J", "C1", "C2"), repeat=k):
            for anchored in (False, True)[:1 + anchored_too]:
                for rd in _block_readings(b, anchored):
                    yield b, anchored, rd


def test_alpha_has_no_pole_in_the_box():
    """alpha_i's denominator p_i y + q_i (am.c y + am.d) has p_i >= 0 and
    q_i >= 1 on every constraint of every free reading of length <= 7, so
    it is positive for y >= 0 and alpha's pole is no breakpoint."""
    records = 0
    for b, _anchored, rd in _readings_to(7, False):
        for _sign, _bm, am in _products_per_one(rd):
            assert am.c >= 0 and am.d >= 1, (b, rd)
            records += 1
    assert records == 5298


def test_denominators_are_positive_on_the_boxes():
    """sign(f) is the tag's sign where beta's and N alpha's denominators are
    positive.  Both are linear, so it is enough that beta's is positive at
    both ends of the z box and N alpha's at both ends of the y box, on every
    constraint of every free and anchored reading of length <= 7."""
    records = 0
    for b, anchored, rd in _readings_to(7, True):
        for _sign, bm, am in _products_per_one(rd):
            nm = N_MAT * am
            for p, q in (rd.z_lo, rd.z_hi):
                assert bm.c * p + bm.d * q > 0, (b, anchored, rd)
            for p, q in (rd.y_lo, rd.y_hi):
                assert nm.c * p + nm.d * q > 0, (b, anchored, rd)
            records += 1
    assert records == 6994


def test_constraints_match_the_per_one_products():
    """Every reading of every block of length <= 6, free and anchored."""
    readings = records = 0
    for b, anchored, rd in _readings_to(6, True):
        cons = rd.cons
        assert cons == _constraints_per_one(rd), (b, anchored, rd)
        assert all(type(e) is int for _sign, q in cons for e in q)
        readings += 1
        records += len(cons)
    assert (readings, records) == (1393, 2842)


# ---------------------------------------------------------------------------
# the breakpoints against every form through the quadratic root finder


def _breakpoints_by_roots(rd):
    """Every form's roots through ``_quad_roots``, linear ones too, filtered
    against the y box, sorted, with adjacent equal values dropped: the
    reference for ``_y_breakpoints``."""
    (l1, l2), (h1, h2) = rd.y_lo, rd.y_hi
    forms, cons = [(0, l2, -l1), (0, h2, -h1)], rd.cons
    for i, (_sign, (a, b, c, d)) in enumerate(cons):
        forms.append((0, a, b))
        for zn, zd in (rd.z_lo, rd.z_hi):
            forms.append((0, zn * a + zd * c, zn * b + zd * d))
        for _sign2, (a2, b2, c2, d2) in cons[i + 1:]:
            forms.append((a * c2 - a2 * c, a * d2 + b * c2 - a2 * d - b2 * c,
                          b * d2 - b2 * d))
    y_lo, y_hi = (l1, 0, l2, 0), (h1, 0, h2, 0)
    inside = sorted((c for form in forms for c in _quad_roots(*form)
                     if _real_cmp(y_lo, c) <= 0 and _real_cmp(c, y_hi) <= 0),
                    key=cmp_to_key(_real_cmp))
    return [c for i, c in enumerate(inside) if i == 0 or _real_cmp(inside[i - 1], c)]


entries = st.integers(-10**6, 10**6)
pairs = st.tuples(entries, st.integers(1, 10**6))
# two distinct values, lower end first
boxes = st.tuples(pairs, pairs).map(lambda b: sorted(b, key=lambda p: Fraction(*p))).filter(
    lambda b: Fraction(*b[0]) < Fraction(*b[1]))
records = st.lists(st.tuples(st.sampled_from((-1, 0, 1)),
                             st.tuples(entries, entries, entries, entries)), max_size=7)


@given(boxes, boxes, records)
# equal records cross on the zero form; a crossing that degenerates to the
# linear form y = 0, at the box end; a box of unreduced pairs
@example([(0, 1), (1, 1)], [(0, 1), (1, 1)], [(1, (1, 0, -1, 0))] * 2)
@example([(0, 1), (1, 1)], [(0, 1), (1, 2)], [(1, (1, 0, 0, -1)), (1, (2, 0, 0, -1))])
@example([(0, 2), (2, 2)], [(0, 1), (1, 1)], [(1, (2, -1, 0, 0)), (-1, (0, 0, 2, -1))])
def test_breakpoints_match_the_quadratic_roots(ybox, zbox, cons):
    """Rational roots tested as pairs give the same breakpoints, position by
    position, as every root taken through ``_quad_roots``."""
    (y_lo, y_hi), (z_lo, z_hi) = ybox, zbox
    rd = _Reading((), tuple(cons), y_lo=y_lo, y_hi=y_hi, z_lo=z_lo, z_hi=z_hi)
    got, want = _y_breakpoints(rd), _breakpoints_by_roots(rd)
    assert len(got) == len(want)
    assert all(_real_cmp(g, w) == 0 for g, w in zip(got, want))
