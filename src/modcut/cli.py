"""Command-line interface.

Exit codes: 0 success, 2 parse error (bad number/word/flag syntax), 3 domain
error (well-formed input outside an operation's domain), 4 budget exceeded
(input larger than an explicit --max-len/--limit guard).  All output is
plain ASCII with exact number formats; --json switches every command to a
single JSON object (or array) on stdout with stable key order.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from fractions import Fraction

import click

from .exactnum import (
    BudgetError,
    ParseError,
    format_extreal,
    parse_extreal,
    surd,
)
from .cf import (
    _acf_runs,
    _parse_digit_list,
    acf_of,
    acf_to_digits,
    acf_to_farey,
    digits_to_acf,
    farey_of,
    farey_to_acf,
    format_digits,
    ocf_digits,
    parse_digits,
)
from .mgcf import mgcf_direct, mgcf_from_acf
from .cutting import (
    acf_from_cutting,
    cutting_from_mgcf,
    format_cutting,
    mgcf_from_cutting,
    parse_cutting,
)
from .tessellation import (
    GeodesicSpec,
    corner_hits_vertical,
    periodic_corner_count,
    render_trace_svg,
    trace as trace_geodesic,
)
from .shiftspace import (
    central_block,
    central_head_to_tail,
    decide_block,
    enumerate_minimal_forbidden,
    verdict_json,
)

__all__ = ["main"]

WORD_KINDS = ("ocf", "acf", "farey", "mgcf", "cutting")


class _Command(click.Command):
    """A command with one error and output contract, whose positional
    arguments may be negative numbers.

    The body returns (payload, text): ``--json``, which every command takes,
    prints the payload as one JSON object (or array), and otherwise the text
    is printed.  A ParseError exits 2, a BudgetError 4 and any other
    ValueError or a ZeroDivisionError 3, each with one line on stderr.

    Click's ``ignore_unknown_options`` keeps a token such as -5/14, -0.25,
    -1;1,2 or -inf positional.  Any other unknown option then fills an
    argument slot, where the value parser refuses it, or is an extra
    argument, which click refuses; both exit 2.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.context_settings["ignore_unknown_options"] = True
        self.params.append(click.Option(["--json", "as_json"], is_flag=True))

    def invoke(self, ctx):
        as_json = ctx.params.pop("as_json")
        try:
            payload, text = super().invoke(ctx)
        except ParseError as exc:
            click.echo("parse error: %s" % exc, err=True)
            sys.exit(2)
        except BudgetError as exc:
            click.echo("budget exceeded: %s" % exc, err=True)
            sys.exit(4)
        except (ValueError, ZeroDivisionError) as exc:
            click.echo("domain error: %s" % exc, err=True)
            sys.exit(3)
        click.echo(json.dumps(payload, sort_keys=True) if as_json else text)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Exact continued fractions and cutting sequences."""


# ---------------------------------------------------------------------------
# expand


# kind -> (theta, limit) -> word
_EXPAND = {
    "ocf": lambda x, limit: format_digits(ocf_digits(x, limit)),
    "acf": acf_of,
    "farey": farey_of,
    "mgcf": mgcf_direct,
    "cutting": lambda x, limit: format_cutting(
        cutting_from_mgcf(mgcf_direct(x, limit))),
}


@main.command()
@click.argument("kind", type=click.Choice(WORD_KINDS))
@click.argument("theta")
@click.option("--limit", type=int, default=64, show_default=True,
              help="maximum digits/symbols for non-terminating expansions")
def expand(kind, theta, limit):
    """Expansion of an exact number THETA in the representation KIND."""
    x = parse_extreal(theta)
    word = _EXPAND[kind](x, limit)
    return {"kind": kind, "theta": format_extreal(x), "limit": limit,
            "word": word}, word


# ---------------------------------------------------------------------------
# convert


def _acf_word(word: str) -> str:
    """An additive word, unchanged once the ACF scanner has accepted it."""
    _acf_runs(word)
    return word


# kind -> word -> additive word, and back
_TO_ACF = {
    "ocf": lambda word: digits_to_acf(parse_digits(word)),
    "acf": _acf_word,
    "farey": farey_to_acf,
    "mgcf": lambda word: acf_from_cutting(cutting_from_mgcf(word)),
    "cutting": lambda word: acf_from_cutting(parse_cutting(word)),
}
_FROM_ACF = {
    "ocf": lambda acf: format_digits(acf_to_digits(acf)),
    "acf": lambda acf: acf,
    "farey": acf_to_farey,
    "mgcf": lambda acf: mgcf_from_acf(acf)[0],
    "cutting": lambda acf: format_cutting(
        cutting_from_mgcf(mgcf_from_acf(acf)[0])),
}


@main.command()
@click.argument("word")
@click.option("--from", "src", type=click.Choice(WORD_KINDS), required=True)
@click.option("--to", "dst", type=click.Choice(WORD_KINDS), required=True)
def convert(word, src, dst):
    """Convert WORD between digit/word representations.

    MGCF <-> cutting is the exact parity letter map (tags preserved);
    every other route factors through the additive word and so drops
    1-tags (ACF -> MGCF re-derives the tags forced by the prefix).
    """
    if {src, dst} == {"mgcf", "cutting"}:
        if src == "mgcf":
            out = format_cutting(cutting_from_mgcf(word))
        else:
            out = mgcf_from_cutting(parse_cutting(word))
    else:
        out = _FROM_ACF[dst](_TO_ACF[src](word))
    return {"from": src, "to": dst, "input": word, "word": out}, out


# ---------------------------------------------------------------------------
# trace


@main.command("trace")
@click.option("--geodesic", required=True, metavar='"H,F"',
              help="ideal endpoints head,foot (exact number format)")
@click.option("--limit", type=int, default=200, show_default=True)
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None)
def trace_cmd(geodesic, limit, svg_path):
    """Cutting sequence of the oriented geodesic across the tessellation."""
    parts = geodesic.split(",")
    if len(parts) != 2:
        raise ParseError("--geodesic takes two comma-separated endpoints")
    g = GeodesicSpec(parse_extreal(parts[0]), parse_extreal(parts[1]))
    steps = list(trace_geodesic(g, limit=limit))
    word = format_cutting([s.symbol for s in steps])
    if svg_path:
        render_trace_svg(g, steps, svg_path)
    return {"head": format_extreal(g.head), "foot": format_extreal(g.foot),
            "limit": limit, "word": word, "svg": svg_path}, word


# ---------------------------------------------------------------------------
# block


@main.command()
@click.argument("word")
@click.option("--anchored", is_flag=True,
              help="decide as an initial word read from the cusp")
@click.option("--max-len", type=int, default=64, show_default=True,
              help="refuse blocks longer than this")
def block(word, anchored, max_len):
    """Admissibility verdict for a cutting-word factor WORD."""
    w = parse_cutting(word)
    if len(w) > max_len:
        raise BudgetError("block length %d exceeds --max-len %d"
                          % (len(w), max_len))
    v = decide_block(w, anchored=anchored)
    payload = dict(verdict_json(v), anchored=v.anchored)
    text = payload["status"]
    if payload["witness"]:
        text += " witness=%s->%s" % (payload["witness"]["head"],
                                     payload["witness"]["foot"])
    if payload["reason"]:
        text += " (%s)" % payload["reason"]
    return payload, text


# ---------------------------------------------------------------------------
# central


@main.command()
@click.argument("head")
def central(head):
    """Balanced tail and cutting word for HEAD digits "d1,d2,..."."""
    if not head.strip():
        raise ParseError("empty head")
    digits = [d for d, _t in _parse_digit_list(head)]
    tail = central_head_to_tail(digits)
    cb = central_block(digits)
    word = format_cutting(cb[0]) if cb else None
    theta = str(cb[1]) if cb else None
    text = "tail=%s word=%s theta=%s" % (
        ",".join(map(str, tail)) or "-", word or "-", theta or "-")
    return {"head": digits, "tail": list(tail), "word": word,
            "theta": theta}, text


# ---------------------------------------------------------------------------
# forbidden


@main.command()
@click.option("--max-len", type=int, required=True,
              help="maximum block length to report")
@click.option("--max-head", type=int, default=3, show_default=True)
def forbidden(max_len, max_head):
    """Minimal forbidden blocks up to --max-len."""
    blocks = enumerate_minimal_forbidden(max_len, max_head=max_head)
    words = [format_cutting(b) for b in blocks]
    return words, "\n".join(words)


# ---------------------------------------------------------------------------
# corners


@main.command()
@click.option("--theta", default=None,
              help="vertical geodesic foot; list its corner hits")
@click.option("--surd", "disc", type=int, default=None,
              help="positive non-square d; corner count of the sqrt(d) geodesic")
@click.option("--limit", type=int, default=5000, show_default=True)
def corners(theta, disc, limit):
    """Corner hits of a vertical geodesic, or the periodic corner count."""
    if (theta is None) == (disc is None):
        raise ParseError("give exactly one of --theta / --surd")
    if theta is None:
        n = periodic_corner_count(disc, limit=limit)
        return {"surd": disc, "corner_count": n}, str(n)
    hits = corner_hits_vertical(parse_extreal(theta))
    rows = [{"r": str(h.r), "t": format_extreal(h.t_value())} for h in hits]
    text = "\n".join("t=%s (r=%s)" % (r["t"], r["r"]) for r in rows)
    return {"theta": theta, "hits": rows}, text or "no corner hits"


# ---------------------------------------------------------------------------
# bench


@main.command()
@click.argument("ell", type=int)
def bench(ell):
    """Time the additive-word to MGCF conversion at lengths ELL, 2*ELL, 4*ELL.

    The input is the additive expansion of (sqrt(3)-1)/2; reports the fitted
    time exponent and the maximum retained digit count.
    """
    if ell < 100:
        raise ValueError("ell must be >= 100")
    theta = surd(Fraction(-1, 2), Fraction(1, 2), 3)
    full = acf_of(theta, limit=4 * ell)
    rows = []
    for n in (ell, 2 * ell, 4 * ell):
        w = full[:n]
        t0 = time.perf_counter()
        _out, stats = mgcf_from_acf(w)
        dt = time.perf_counter() - t0
        rows.append({"length": n, "seconds": dt,
                     "retained_digits": stats["retained_digits"]})
    slope = statistics.linear_regression(
        [math.log(r["length"]) for r in rows],
        [math.log(max(r["seconds"], 1e-9)) for r in rows]).slope
    payload = {"ell": ell, "rows": rows, "exponent": slope,
               "max_retained_digits": max(r["retained_digits"] for r in rows)}
    text = "\n".join("n=%d t=%.4fs retained=%d"
                     % (r["length"], r["seconds"], r["retained_digits"])
                     for r in rows)
    text += "\nexponent=%.3f max_retained=%d" % (
        slope, payload["max_retained_digits"])
    return payload, text


if __name__ == "__main__":
    main()
