"""Finite-state transducers for the word conversions, and their limits.

A Transducer is deterministic: at most one edge per (state, input symbol),
each edge printing a finite (possibly empty) output word.  A ``finals`` map
gives the word flushed when the input ends in a given state, so machines with
held-back output (separator look-ahead) still agree with the batch
conversions on complete inputs.  The MGCF <-> cutting, ACF <-> Farey and
MGCF -> additive machines wrap the tables of ``cutting``, ``cf`` and
``mgcf`` that the batch conversions run on, so each conversion is written
once.

The homographic machine computes the additive-word expansion of m(x) from
the additive word of x by an absorb/emit loop on a 2x2 integer matrix: an
output letter is emitted as soon as it is forced for every continuation of
the input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .exactnum import IntMatrix2, ParseError, _check_count, _check_type
from .cf import (
    ACF_MATS,
    ACF_TO_FAREY,
    FAREY_TO_ACF,
    FAREY_TO_ACF_FINALS,
    OcfDigits,
    digits_to_acf,
    ocf_digits,
    ocf_value,
    _rewrite,
    _walk,
)
from .cutting import CUTTING_TO_MGCF, MGCF_TO_CUTTING
from .mgcf import MGCF_TO_ACF, MGCF_TO_ACF_FINALS, annotate_ones

__all__ = [
    "Transducer",
    "run",
    "max_lag",
    "compose",
    "acf_to_farey_machine",
    "farey_to_acf_machine",
    "mgcf_to_cutting_machine",
    "cutting_to_mgcf_machine",
    "mgcf_to_acf_machine",
    "cutting_to_acf_machine",
    "HomographicMachine",
    "homographic_acf",
    "unbounded_lookahead_demo",
]

Word = tuple[str, ...]


@dataclass(frozen=True)
class Transducer:
    states: tuple
    initial: object
    transitions: Mapping[tuple, tuple]  # (state, in) -> (next, out word)
    finals: Mapping[object, Word] = field(default_factory=dict)

    def to_json(self) -> str:
        edges = [
            {"from": _s(s), "in": a, "out": list(out), "to": _s(t)}
            for (s, a), (t, out) in sorted(
                self.transitions.items(), key=lambda kv: (_s(kv[0][0]), kv[0][1])
            )
        ]
        doc = {
            "states": sorted(_s(s) for s in self.states),
            "initial": _s(self.initial),
            "edges": edges,
            "finals": {_s(s): list(w) for s, w in sorted(
                self.finals.items(), key=lambda kv: _s(kv[0]))},
        }
        return json.dumps(doc, indent=2)


def _s(state) -> str:
    return state if isinstance(state, str) else "|".join(map(str, state))


def run(t: Transducer, stream: Iterable[str]) -> Word:
    return tuple(_rewrite(t.transitions, t.initial, stream, t.finals))


def max_lag(t: Transducer, corpus: Iterable[Iterable[str]]) -> int:
    """Worst look-ahead over the corpus: max over output letters of
    (input symbols consumed when the letter appeared) - (its 1-based index).
    A t that is no ``Transducer`` is a TypeError.
    """
    _check_type("t", t, Transducer)
    worst = 0
    for stream in corpus:
        state, consumed, printed = t.initial, 0, 0
        for sym in stream:
            state, w = _walk(t.transitions, state, (sym,))
            consumed += 1
            if w:  # the first letter of w trails the most
                worst = max(worst, consumed - printed - 1)
                printed += len(w)
        if t.finals.get(state):
            worst = max(worst, consumed - printed - 1)
    return worst


def _feed(t: Transducer, state, word: Word):
    """Run ``word`` through t from ``state``: (state, printed), or None where
    t has no edge."""
    try:
        state, printed = _walk(t.transitions, state, word)
    except ParseError:
        return None
    return state, tuple(printed)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """Machine whose runs equal feeding t1's output into t2, state-by-state;
    either that is no ``Transducer`` is a TypeError."""
    _check_type("t1", t1, Transducer)
    _check_type("t2", t2, Transducer)
    initial = (t1.initial, t2.initial)
    trans = {}
    finals = {}
    alphabet = sorted({a for (_, a) in t1.transitions})
    seen = {initial}
    queue = [initial]
    while queue:
        s1, s2 = queue.pop()
        # final flush: t1's final word through t2, then t2's own flush
        if s1 in t1.finals:
            fed = _feed(t2, s2, t1.finals[s1])
            if fed is not None and fed[0] in t2.finals:
                finals[(s1, s2)] = fed[1] + tuple(t2.finals[fed[0]])
        for a in alphabet:
            if (s1, a) not in t1.transitions:
                continue
            n1, w1 = t1.transitions[(s1, a)]
            fed = _feed(t2, s2, w1)
            if fed is None:
                continue
            n2, out = fed
            trans[((s1, s2), a)] = ((n1, n2), out)
            if (n1, n2) not in seen:
                seen.add((n1, n2))
                queue.append((n1, n2))
    return Transducer(tuple(seen), initial, trans, finals)


# ---------------------------------------------------------------------------
# the concrete machines


def _machine(table, initial, finals=None) -> Transducer:
    states = tuple(dict.fromkeys(state for state, _sym in table))
    if finals is None:
        finals = dict.fromkeys(states, ())
    return Transducer(states, initial, table, finals)


def acf_to_farey_machine() -> Transducer:
    return _machine(ACF_TO_FAREY, "even")


def farey_to_acf_machine() -> Transducer:
    return _machine(FAREY_TO_ACF, "int", FAREY_TO_ACF_FINALS)


def mgcf_to_cutting_machine() -> Transducer:
    return _machine(MGCF_TO_CUTTING, "even")


def cutting_to_mgcf_machine() -> Transducer:
    return _machine(CUTTING_TO_MGCF, "even")


def mgcf_to_acf_machine() -> Transducer:
    return _machine(MGCF_TO_ACF, "q0", MGCF_TO_ACF_FINALS)


def cutting_to_acf_machine() -> Transducer:
    return compose(cutting_to_mgcf_machine(), mgcf_to_acf_machine())


# ---------------------------------------------------------------------------
# homographic machine


class HomographicMachine:
    """Absorb/emit computation of the additive word of m(x).

    The state matrix m starts at the given matrix and maintains the exact
    identity  (emitted prefix) o (current m) = (original m) o (consumed
    input).  An output letter is emitted once the image of (0, inf] under m
    lies entirely above 1 (emit R) or entirely below 1 (emit F); a tie at an
    endpoint defers.  An m that is no ``IntMatrix2`` is a TypeError.
    """

    def __init__(self, m: IntMatrix2):
        _check_type("m", m, IntMatrix2)
        if m.det() == 0:
            raise ValueError("matrix must be nonsingular")
        if min(m.a, m.b, m.c, m.d) < 0:
            raise ValueError("nonnegative entries required")
        self.m = m
        self.em = IntMatrix2(1, 0, 0, 1)  # matrix of the emitted prefix
        self.emitted: list[str] = []

    def _emit_ready(self) -> Optional[str]:
        # m(inf) = a/c and m(0) = b/d against 1, by the entries, all >= 0;
        # a pole (c or d = 0, a or b > 0) is above 1
        a, b, c, d = self.m
        if a > c and b > d:
            return "R"
        return "F" if a < c and b < d else None

    def absorb(self, sym: str) -> list[str]:
        if sym not in ACF_MATS:
            raise ParseError("bad additive-word letter %r" % sym)
        self.m = self.m * ACF_MATS[sym]
        out = []
        while True:
            ch = self._emit_ready()
            if ch is None:
                break
            g = ACF_MATS[ch]
            self.m = g.inverse() * self.m
            self.em = self.em * g
            out.append(ch)
            self.emitted.append(ch)
        return out

    def finish(self) -> str:
        """Complete the canonical word of the total value m_orig(x)."""
        total = self.em * self.m  # = original matrix times the consumed input
        if total.c == 0:
            raise ValueError("result is infinite")
        v = Fraction(total.a, total.c)
        if v <= 0:
            raise ValueError("image is not positive")
        word = digits_to_acf(ocf_digits(v))
        prefix = "".join(self.emitted)
        if not word.startswith(prefix):
            raise AssertionError("emitted letters are not a canonical prefix")
        tail = word[len(prefix):]
        self.emitted.extend(tail)
        return tail


def homographic_acf(m: IntMatrix2, word: str) -> str:
    """Additive word of m(x) given the (finite) additive word of x > 0."""
    hm = HomographicMachine(m)
    out = []
    for ch in word:
        out.extend(hm.absorb(ch))
    out.append(hm.finish())
    return "".join(out)


# ---------------------------------------------------------------------------
# no finite machine computes the 1-tags: forced look-ahead grows with j


def unbounded_lookahead_demo(j: int) -> dict:
    """Two digit strings agreeing far past a critical 1 whose tags differ.

    Base digits [0; 2^(4j+2), 1, 3, (8,4)^j] make the critical 1 exactly
    balanced (1_c); lowering the final 4 to a 3 tips it to 1_h, raising it
    to a 5 tips it to 1_m.  Any machine reading digits left to right must
    see 14j+6 additive letters beyond the critical 1 before deciding.  A j
    that is not an int is a TypeError, and one below 1 a ValueError.
    """
    _check_count("j", j, 1)
    base = [0] + [2] * (4 * j + 2) + [1] + [3] + [8, 4] * j
    var_h = base[:-1] + [3]
    var_m = base[:-1] + [5]
    idx = 4 * j + 2  # position of the critical 1 within the tail

    def tag_of(digs):
        od = OcfDigits(digs[0], tuple(digs[1:]), True)
        theta = ocf_value(od)
        ad = annotate_ones(od, theta)
        return theta, ad.tail[idx][1]

    th_c, t_c = tag_of(base)
    th_h, t_h = tag_of(var_h)
    th_m, t_m = tag_of(var_m)
    # additive letters from the critical 1 through the end of the base word
    lookahead = sum(base[idx + 1:]) + len(base) - (idx + 1)
    return {
        "j": j,
        "digits_base": base,
        "digits_h": var_h,
        "digits_m": var_m,
        "theta_base": th_c,
        "theta_h": th_h,
        "theta_m": th_m,
        "tags": {"base": t_c, "h": t_h, "m": t_m},
        "agree_digits": len(base) - 1,
        "lookahead": lookahead,
    }
