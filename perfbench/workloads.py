"""The benchmark's four workloads.

Each workload builds a fixed pool of inputs, split into strata whose
indices are listed in order of expected cost; the item stream draws every
round the same number of items from each stratum, from a start fixed by the
seed, so runs with different seeds see different inputs in the same
proportions.  The traced run covers the first ``TRACE_ITEMS`` items of the
stream, about ten seconds of untraced work at the first trajectory point.
``run`` is the timed work of one item and calls
the library only through the module attributes of ``lib``, so a traced run
sees every call.  ``check`` runs outside the timed region: it tests the
item's outputs against each other and returns a digest that the harness
compares with the frozen reference.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


def digest(*parts) -> str:
    """Short, stable digest of an item's outputs."""
    text = "|".join(str(p) for p in parts)
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


def rationals(qmax, qmin=2):
    """Coprime p/q with 0 < |p/q| < 1/2 and qmin <= q <= qmax."""
    for q in range(qmin, qmax + 1):
        for p in range(-(q - 1) // 2, (q + 1) // 2):
            if p != 0 and 2 * abs(p) < q and math.gcd(abs(p), q) == 1:
                yield Fraction(p, q)


def _symbols(steps):
    return tuple(step.symbol for step in steps)


class RationalOracle:
    """Triple oracle on small rational feet, with the census checks."""

    name = "rational-oracle"
    QMAX = 100
    LIMIT = 500  # above every complete word at this denominator bound
    TRACE_ITEMS = 1400

    def __init__(self, lib):
        self.lib = lib
        self.pool = list(rationals(self.QMAX))
        self.strata = [(list(range(len(self.pool))), 1)]
        self.machine = lib.automata.mgcf_to_cutting_machine()

    def key(self, item):
        return str(item)

    def run(self, f):
        lib = self.lib
        word = lib.mgcf.mgcf_direct(f, limit=self.LIMIT)
        tagged = lib.mgcf.mgcf_from_annotated(
            lib.mgcf.annotate_ones(lib.cf.ocf_digits(f), f))
        traced = _symbols(lib.tessellation.trace(
            lib.tessellation.GeodesicSpec(lib.exactnum.PINF, f), limit=self.LIMIT))
        cutting = lib.cutting.cutting_from_mgcf(word)
        machine = lib.automata.run(self.machine, word)
        edge = lib.cutting.find_edge_forbidden(cutting)
        hits = lib.tessellation.corner_hits_vertical(f)
        return word, tagged, traced, cutting, machine, edge, hits

    def check(self, index, out):
        word, tagged, traced, cutting, machine, edge, hits = out
        if len(word) >= self.LIMIT:
            return "word reached the limit", None
        if tagged != word:
            return "tagging route differs from mgcf_direct", None
        if traced != cutting:
            return "tracer differs from mgcf_direct", None
        if machine != cutting:
            return "transducer differs from cutting_from_mgcf", None
        if edge is not None:
            return "edge-forbidden factor in a realised word", None
        if len(hits) > 1 or ("C" in word) != (len(hits) == 1):
            return "corner census disagrees with the word", None
        return None, digest(self.pool[index], word, [h.r for h in hits])


class RationalScan:
    """Edge-forbidden scan over a band of larger denominators."""

    name = "rational-scan"
    QMIN, QMAX = 201, 260
    LIMIT = 200  # as in the acceptance scan; longer words are truncated
    TRACE_ITEMS = 7000

    def __init__(self, lib):
        self.lib = lib
        self.pool = list(rationals(self.QMAX, qmin=self.QMIN))
        self.strata = [(list(range(len(self.pool))), 1)]

    def key(self, item):
        return str(item)

    def run(self, f):
        lib = self.lib
        word = lib.mgcf.mgcf_direct(f, limit=self.LIMIT)
        cutting = lib.cutting.cutting_from_mgcf(word)
        return word, cutting, lib.cutting.find_edge_forbidden(cutting)

    def check(self, index, out):
        word, cutting, edge = out
        if edge is not None:
            return "edge-forbidden factor in a realised word", None
        if len(word) > self.LIMIT or self.lib.cutting.mgcf_from_cutting(cutting) != word:
            return "cutting word does not decode to the MGCF word", None
        return None, digest(self.pool[index], word)


def _period_symbols(d):
    """Symbols per period of the geodesic <-sqrt(d), sqrt(d)>, up to a
    constant factor: the digit sum over one period of the continued
    fraction of sqrt(d), doubled when the period has odd length."""
    a0 = math.isqrt(d)
    m, q, a, total, length = 0, 1, a0, 0, 0
    while a != 2 * a0:
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        total += a
        length += 1
    return total * (2 if length % 2 else 1)


class SurdPrefix:
    """The three routes on quadratic-irrational feet, one per radicand, and
    the periodic corner count of each radicand, as two kinds of item."""

    name = "surd-prefix"
    DMAX = 300
    PREFIX = 48
    # each OCF digit of an irrational adds at least two MGCF symbols, so
    # this many digits cover the prefix even after the undetermined last run
    DIGITS = PREFIX // 2 + 3
    TRACE_ITEMS = 364  # every radicand once in each stratum

    def __init__(self, lib):
        self.lib = lib
        ex = lib.exactnum
        half = Fraction(1, 2)
        feet = []
        for d in range(2, self.DMAX + 1):
            if ex.squarefree_split(d)[1] != d:
                continue
            root = ex.sqrt_exact(d)
            theta = root - ex.surd_floor(root)
            if ex.compare(theta, half) >= 0:
                theta = theta - 1
            feet.append((d, theta))
        corners = sorted(((d, None) for d, _theta in feet), key=lambda c: _period_symbols(c[0]))
        self.pool = feet + corners
        n = len(feet)
        self.strata = [(list(range(n)), 1), (list(range(n, 2 * n)), 1)]

    def key(self, item):
        return "%d:%s" % (item[0], "corners" if item[1] is None else "prefix")

    def run(self, item):
        d, theta = item
        lib = self.lib
        if theta is None:
            return lib.tessellation.periodic_corner_count(d)
        word = lib.mgcf.mgcf_direct(theta, limit=self.PREFIX)
        tagged = lib.mgcf.mgcf_from_annotated(lib.mgcf.annotate_ones(
            lib.cf.ocf_digits(theta, limit=self.DIGITS), theta))
        traced = _symbols(lib.tessellation.trace(
            lib.tessellation.GeodesicSpec(lib.exactnum.PINF, theta), limit=self.PREFIX))
        return word, tagged, traced, lib.cutting.cutting_from_mgcf(word)

    def check(self, index, out):
        key = self.key(self.pool[index])
        if self.pool[index][1] is None:
            return None, digest(key, out)
        word, tagged, traced, cutting = out
        if len(word) != self.PREFIX:
            return "mgcf_direct stopped before the prefix length", None
        # the last digit's run of R is undetermined and is not compared
        determined = tagged.rstrip("R")
        if len(determined) < self.PREFIX:
            return "tagging route shorter than the prefix", None
        if determined[: self.PREFIX] != word:
            return "tagging route differs from mgcf_direct", None
        if traced != cutting:
            return "tracer differs from mgcf_direct", None
        return None, digest(key, word)


class BlockVerdicts:
    """decide_block over realised factors, central candidates and edge blocks.

    The run ends with the minimal forbidden block enumeration of
    ``modcut forbidden --max-len 41 --max-head 3``.
    """

    name = "block-verdicts"
    FACTOR_QMAX = 40
    FACTOR_LENGTHS = range(3, 11)
    MAX_HEAD = 3
    ENUM_MAX_LEN = 41
    # items per round from: realised factors, central candidates, their
    # minimality sub-blocks, edge-forbidden blocks
    ROUND = (11, 4, 4, 1)
    WITNESS_LIMIT = 4000  # the limit decide_block confirms witnesses with
    TRACE_ITEMS = 700

    def __init__(self, lib):
        self.lib = lib
        factors = self._factors()
        candidates = self._central_candidates()
        subs = list(dict.fromkeys(s for b in candidates for s in (b[1:], b[:-1])))
        edge = self._edge_blocks(factors)
        # longer blocks have more readings and constraints, so cost more
        parts = [sorted(part, key=len) for part in (factors, candidates, subs, edge)]
        self.pool = [blk for part in parts for blk in part]
        self.strata = []
        start = 0
        for part, count in zip(parts, self.ROUND):
            self.strata.append((list(range(start, start + len(part))), count))
            start += len(part)
        self._factor_end = len(factors)
        self._edge_start = start - len(edge)
        self._checked = {}

    def _factors(self):
        lib = self.lib
        found = set()
        for f in rationals(self.FACTOR_QMAX):
            w = lib.cutting.cutting_from_mgcf(lib.mgcf.mgcf_direct(f, limit=200))
            for n in self.FACTOR_LENGTHS:
                for i in range(len(w) - n + 1):
                    found.add(w[i:i + n])
        return sorted(found)

    def _central_candidates(self):
        # the candidates enumerate_minimal_forbidden decides, built with the
        # public central_block and corner_resolutions
        lib = self.lib
        out = []
        for n in range(1, self.MAX_HEAD + 1):
            for mask in range(2 ** n):
                head = [1 + ((mask >> i) & 1) for i in range(n)]
                cb = lib.shiftspace.central_block(head)
                if cb is None:
                    continue
                core = cb[0]
                ci = next(i for i, t in enumerate(core) if t.startswith("C"))
                for res in lib.cutting.corner_resolutions(core[ci]):
                    for pre in ("L", "R"):
                        for suf in ("L", "R"):
                            out.append((pre,) + core[:ci] + res + core[ci + 1:] + (suf,))
        return list(dict.fromkeys(out))

    def _edge_blocks(self, factors):
        hosts = [f for f in factors if len(f) >= 6][::37][:20]
        out = [h[:3] + e + h[3:] for e in self.lib.cutting.EDGE_FORBIDDEN for h in hosts]
        return list(dict.fromkeys(out))

    def key(self, item):
        return "".join(item)

    def run(self, block):
        return self.lib.shiftspace.decide_block(block)

    def check(self, index, verdict):
        block = self.pool[index]
        if verdict.block != block:
            return "verdict is for another block", None
        if index < self._factor_end and verdict.status != "admissible":
            return "factor of a realised word judged forbidden", None
        if index >= self._edge_start and verdict.status != "edge-forbidden":
            return "block with an edge-forbidden factor judged otherwise", None
        wit = verdict.witness
        foot = None if wit is None else wit.foot
        key = (block, verdict.status, foot)
        if key not in self._checked:
            self._checked[key] = self._independent_check(block, verdict)
        return self._checked[key], digest(self.key(block), verdict.status, foot)

    def _independent_check(self, block, verdict):
        lib = self.lib
        if verdict.status == "admissible" and verdict.witness is not None:
            # decide_block confirmed the witness through mgcf_direct; the
            # tracer is a second route to the same word
            word = _symbols(lib.tessellation.trace(verdict.witness, limit=self.WITNESS_LIMIT))
            n = len(block)
            if not any(word[i:i + n] == block for i in range(len(word) - n + 1)):
                return "block absent from the traced witness word"
        if verdict.status == "whole-forbidden":
            if not lib.shiftspace.random_cross_check(block, verdict):
                return "random sampling contradicts the forbidden verdict"
        return None

    def finish(self):
        """The closing enumeration; returns its blocks as strings."""
        blocks = self.lib.shiftspace.enumerate_minimal_forbidden(
            self.ENUM_MAX_LEN, max_head=self.MAX_HEAD)
        return ["".join(b) for b in blocks]


WORKLOADS = {w.name: w for w in (RationalOracle, RationalScan, SurdPrefix, BlockVerdicts)}
