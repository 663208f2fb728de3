import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from modcut.automata import (
    HomographicMachine,
    acf_to_farey_machine,
    compose,
    cutting_to_acf_machine,
    cutting_to_mgcf_machine,
    farey_to_acf_machine,
    homographic_acf,
    max_lag,
    mgcf_to_acf_machine,
    mgcf_to_cutting_machine,
    run,
)
from modcut.cf import _acf_runs, acf_of, acf_to_farey, ocf_digits, digits_to_acf
from modcut.cutting import acf_from_cutting, cutting_from_mgcf
from modcut.exactnum import PINF, IntMatrix2, ParseError
from modcut.mgcf import N_MAT, annotated_from_mgcf, mgcf_direct
from modcut.tessellation import GeodesicSpec, trace_word

from conftest import farey_word


def small_rationals(qmax):
    for q in range(3, qmax + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if 2 * p < q and math.gcd(p, q) == 1:
                yield Fraction(p, q)


def test_acf_farey_machines_match_functions():
    for f in small_rationals(40):
        w = acf_of(f)
        fw = "".join(run(acf_to_farey_machine(), w))
        assert fw == farey_word(f)
        assert "".join(run(farey_to_acf_machine(), fw)) == w


def test_rewriting_lag_bounds():
    # the expanding direction never owes more than one letter; the deleting
    # direction emits each letter the moment its input symbol arrives
    corpus = [acf_of(f) for f in small_rationals(40)]
    farey = [acf_to_farey(w) for w in corpus]
    assert max_lag(farey_to_acf_machine(), farey) <= 1
    t = acf_to_farey_machine()
    for (_s, _a), (_n, out) in t.transitions.items():
        assert len(out) <= 1


def test_cutting_machines_match_tracer():
    # the tracer reaches the cutting word by geometry, not by the parity table
    for f in small_rationals(30):
        w = mgcf_direct(f, limit=500)
        cut = run(mgcf_to_cutting_machine(), w)
        assert cut == trace_word(GeodesicSpec(PINF, f), limit=500)
        assert "".join(run(cutting_to_mgcf_machine(), cut)) == w


def test_cutting_to_acf_composition_lag():
    machine = cutting_to_acf_machine()
    corpus = []
    for f in small_rationals(40):
        cut = cutting_from_mgcf(mgcf_direct(f, limit=500))
        assert "".join(run(machine, cut)) == acf_from_cutting(cut)
        corpus.append(cut)
    assert max_lag(machine, corpus) <= 4


def test_mgcf_to_acf_machine_frozen():
    # the output, or "no edge", of every J/R/L/C word of length <= 8 (87,381
    # words): a change to the machine or to mgcf._SEGMENTS that moves any
    # of them fails here
    machine = mgcf_to_acf_machine()
    digest = hashlib.sha256()
    for n in range(9):
        for w in itertools.product("JRLC", repeat=n):
            try:
                out = "".join(run(machine, w))
            except ParseError:
                out = "no edge"
            digest.update(("%s\t%s\n" % ("".join(w), out)).encode())
    assert digest.hexdigest() == (
        "78c298989f424039e19886052aeed4aec01b2f4f78312d91c58582e4688336ec")


def test_mgcf_to_acf_machine_refuses_what_the_reader_refuses():
    # the words of the frozen test above but the empty one, which the reader
    # refuses as no MGCF word and the machine maps to itself: where the
    # machine gives an output, the segment reader reads the word too (so a
    # word the reader refuses has no edge, J L after a single R among them),
    # and the output is an additive word, with no FF
    machine = mgcf_to_acf_machine()
    for n in range(1, 9):
        for letters in itertools.product("JRLC", repeat=n):
            try:
                out = "".join(run(machine, letters))
            except ParseError:
                continue
            word = "".join(letters)
            try:
                annotated_from_mgcf(word)
                _acf_runs(out)
            except ParseError as e:
                pytest.fail("%s -> %s: %s" % (word, out, e))


def test_mgcf_to_acf_machine_reads_what_the_reader_reads():
    # the other direction: every J/R/L/C word of length 1 to 8 that the
    # segment reader reads has an edge, but a JL opening, a0 = -1, which has
    # no additive word.  The reference is the codec route, the reader's
    # digits written as an additive word less its closing F.  On a word that
    # ends in J or C (101 words) the output is the reference.  On one that
    # ends in an R run (95 words) the reference prints none of the run and
    # the machine all but its held-back R: the reference is a proper prefix
    # of the machine's output, which begins the reference for the word + J
    machine = mgcf_to_acf_machine()

    def codec(word):
        return digits_to_acf(annotated_from_mgcf(word).digits()).removesuffix("F")

    counts = {True: 0, False: 0}
    for n in range(1, 9):
        for letters in itertools.product("JRLC", repeat=n):
            word = "".join(letters)
            if word.startswith("JL"):
                continue
            try:
                ref = codec(word)
            except ParseError:
                continue
            out = "".join(run(machine, letters))
            is_open = word.endswith("R")
            counts[is_open] += 1
            if is_open:
                assert out != ref and out.startswith(ref), word
                assert codec(word + "J").startswith(out), word
            else:
                assert out == ref, word
    assert counts == {True: 95, False: 101}


def test_transducer_json_schema():
    doc = json.loads(mgcf_to_cutting_machine().to_json())
    assert set(doc) >= {"states", "initial", "edges"}
    assert doc["initial"] in doc["states"]
    for e in doc["edges"]:
        assert set(e) == {"from", "in", "out", "to"}
        assert e["from"] in doc["states"] and e["to"] in doc["states"]


def test_compose_equals_sequential():
    t1, t2 = cutting_to_mgcf_machine(), mgcf_to_acf_machine()
    comp = compose(t1, t2)
    for f in small_rationals(25):
        cut = cutting_from_mgcf(mgcf_direct(f, limit=500))
        assert run(comp, cut) == run(t2, run(t1, cut))


def test_homographic_n_examples():
    out = homographic_acf(N_MAT, acf_of(Fraction(1, 2)))
    assert out == acf_of(Fraction(5, 4))
    win = acf_of(Fraction(70, 169))
    out = homographic_acf(N_MAT, win)
    assert out == acf_of(Fraction(136, 103))
    assert len(out) <= 3 * len(win)


def test_homographic_random_inputs():
    m = IntMatrix2(2, 1, 1, 3)
    for f in small_rationals(25):
        assert homographic_acf(m, acf_of(f)) == acf_of(
            Fraction(2 * f + 1, f + 3))


def test_homographic_rejects():
    with pytest.raises(ValueError):
        HomographicMachine(IntMatrix2(1, 1, 1, 1))
    with pytest.raises(ValueError):
        HomographicMachine(IntMatrix2(1, -1, 0, 1))
    with pytest.raises(ParseError):
        HomographicMachine(N_MAT).absorb("X")


def test_a_stream_with_no_edge_is_a_parse_error():
    machine = mgcf_to_cutting_machine()
    for stream in ("JRX", "JJQ"):
        with pytest.raises(ParseError):
            run(machine, stream)
        with pytest.raises(ParseError):
            max_lag(machine, ["JRRJ", stream])
