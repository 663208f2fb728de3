import math
from fractions import Fraction

import pytest

from modcut.cf import ocf_digits
from modcut.mgcf import mgcf_direct


def rationals(qmax, qmin=2):
    """Coprime p/q with 0 < |p/q| < 1/2 and qmin <= q <= qmax."""
    for q in range(qmin, qmax + 1):
        for p in range(-(q - 1) // 2, (q + 1) // 2):
            if p != 0 and 2 * abs(p) < q and math.gcd(abs(p), q) == 1:
                yield Fraction(p, q)



def farey_word(x, limit=64):
    """Farey-tree word R^a0 D^a1 R^a2 ... of x > 0, read off the digits
    directly: a reference for the ACF -> Farey table."""
    return "".join(("R" if i % 2 == 0 else "D") * a
                   for i, a in enumerate(ocf_digits(x, limit).all_digits()))


@pytest.fixture(scope="session")
def corpus200():
    """Complete MGCF words of every rational foot with q <= 200.

    The limit comfortably exceeds the longest terminating word at this
    denominator bound, so every entry is a full expansion.
    """
    return {f: mgcf_direct(f, limit=500) for f in rationals(200)}
