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
import re
import sys
import time
from fractions import Fraction

import click

from .exactnum import (
    BudgetError,
    ParseError,
    format_extreal,
    parse_extreal,
    parse_int,
    sqrt_exact,
)
from .cf import (
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


def _emit(payload, as_json: bool, text: str) -> None:
    if as_json:
        click.echo(json.dumps(payload, sort_keys=True))
    else:
        click.echo(text)


def _run(fn) -> None:
    try:
        fn()
    except ParseError as exc:
        click.echo("parse error: %s" % exc, err=True)
        sys.exit(2)
    except BudgetError as exc:
        click.echo("budget exceeded: %s" % exc, err=True)
        sys.exit(4)
    except (ValueError, ZeroDivisionError) as exc:
        click.echo("domain error: %s" % exc, err=True)
        sys.exit(3)


# a token such as -5/14, -0.25, -1;1,2 or -inf is a value, never an option
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf$)")


class _Command(click.Command):
    """A command whose positional arguments may be negative numbers.

    Click takes every token that starts with "-" for an option.  Here a
    token that reads as a negative value, and is not the value of an option
    before it, is moved behind a "--", so it stays a positional argument;
    any other unknown option is still refused with exit code 2.
    """

    def parse_args(self, ctx, args):
        valued = {name for p in self.params
                  if isinstance(p, click.Option) and not p.is_flag
                  for name in p.opts}
        options, positional = [], []
        rest = list(args)
        while rest:
            tok = rest.pop(0)
            if tok == "--":
                positional += rest
                break
            if tok.startswith("-") and not _NEGATIVE_VALUE.match(tok):
                options.append(tok)
                if tok in valued and rest:
                    options.append(rest.pop(0))
            else:
                positional.append(tok)
        return super().parse_args(ctx, options + ["--"] + positional)


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
@click.option("--json", "as_json", is_flag=True)
def expand(kind, theta, limit, as_json):
    """Expansion of an exact number THETA in the representation KIND."""

    def go():
        x = parse_extreal(theta)
        if limit < 1:
            raise ValueError("limit must be >= 1")
        word = _EXPAND[kind](x, limit)
        _emit({"kind": kind, "theta": format_extreal(x), "limit": limit,
               "word": word}, as_json, word)

    _run(go)


# ---------------------------------------------------------------------------
# convert


# kind -> word -> additive word, and back
_TO_ACF = {
    "ocf": lambda word: digits_to_acf(parse_digits(word)),
    "acf": lambda word: word,
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
@click.option("--json", "as_json", is_flag=True)
def convert(word, src, dst, as_json):
    """Convert WORD between digit/word representations.

    MGCF <-> cutting is the exact parity letter map (tags preserved);
    every other route factors through the additive word and so drops
    1-tags (ACF -> MGCF re-derives the tags forced by the prefix).
    """

    def go():
        if {src, dst} == {"mgcf", "cutting"}:
            if src == "mgcf":
                out = format_cutting(cutting_from_mgcf(word))
            else:
                out = mgcf_from_cutting(parse_cutting(word))
        else:
            out = _FROM_ACF[dst](_TO_ACF[src](word))
        _emit({"from": src, "to": dst, "input": word, "word": out},
              as_json, out)

    _run(go)


# ---------------------------------------------------------------------------
# trace


@main.command("trace")
@click.option("--geodesic", required=True, metavar='"H,F"',
              help="ideal endpoints head,foot (exact number format)")
@click.option("--limit", type=int, default=200, show_default=True)
@click.option("--svg", "svg_path", type=click.Path(dir_okay=False), default=None)
@click.option("--json", "as_json", is_flag=True)
def trace_cmd(geodesic, limit, svg_path, as_json):
    """Cutting sequence of the oriented geodesic across the tessellation."""

    def go():
        parts = geodesic.split(",")
        if len(parts) != 2:
            raise ParseError("--geodesic takes two comma-separated endpoints")
        g = GeodesicSpec(parse_extreal(parts[0]), parse_extreal(parts[1]))
        if limit < 1:
            raise ValueError("limit must be >= 1")
        steps = list(trace_geodesic(g, limit=limit))
        word = format_cutting([s.symbol for s in steps])
        if svg_path:
            render_trace_svg(g, steps, svg_path)
        _emit({"head": format_extreal(g.head), "foot": format_extreal(g.foot),
               "limit": limit, "word": word,
               "svg": svg_path}, as_json, word)

    _run(go)


# ---------------------------------------------------------------------------
# block


@main.command()
@click.argument("word")
@click.option("--anchored", is_flag=True,
              help="decide as an initial word read from the cusp")
@click.option("--max-len", type=int, default=64, show_default=True,
              help="refuse blocks longer than this")
@click.option("--json", "as_json", is_flag=True)
def block(word, anchored, max_len, as_json):
    """Admissibility verdict for a cutting-word factor WORD."""

    def go():
        w = parse_cutting(word)
        if len(w) > max_len:
            raise BudgetError("block length %d exceeds --max-len %d"
                              % (len(w), max_len))
        v = decide_block(w, anchored=anchored)
        payload = verdict_json(v)
        payload["anchored"] = anchored
        text = payload["status"]
        if payload["witness"]:
            text += " witness=%s->%s" % (payload["witness"]["head"],
                                         payload["witness"]["foot"])
        if payload["reason"]:
            text += " (%s)" % payload["reason"]
        _emit(payload, as_json, text)

    _run(go)


# ---------------------------------------------------------------------------
# central


@main.command()
@click.argument("head")
@click.option("--json", "as_json", is_flag=True)
def central(head, as_json):
    """Balanced tail and cutting word for HEAD digits "d1,d2,..."."""

    def go():
        digits = [parse_int(p) for p in head.split(",") if p.strip()]
        if not digits:
            raise ParseError("empty head")
        tail = central_head_to_tail(digits)
        cb = central_block(digits)
        word = format_cutting(cb[0]) if cb else None
        theta = str(cb[1]) if cb else None
        text = "tail=%s word=%s theta=%s" % (
            ",".join(map(str, tail)) or "-", word or "-", theta or "-")
        _emit({"head": digits, "tail": list(tail), "word": word,
               "theta": theta}, as_json, text)

    _run(go)


# ---------------------------------------------------------------------------
# forbidden


@main.command()
@click.option("--max-len", type=int, required=True,
              help="maximum block length to report")
@click.option("--max-head", type=int, default=3, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def forbidden(max_len, max_head, jobs, as_json):
    """Minimal forbidden blocks up to --max-len."""

    def go():
        if max_len < 2:
            raise ValueError("--max-len must be >= 2")
        blocks = enumerate_minimal_forbidden(max_len, max_head=max_head,
                                             jobs=jobs)
        words = [format_cutting(b) for b in blocks]
        _emit(words, as_json, "\n".join(words))

    _run(go)


# ---------------------------------------------------------------------------
# corners


@main.command()
@click.option("--theta", default=None,
              help="vertical geodesic foot; list its corner hits")
@click.option("--surd", "disc", type=int, default=None,
              help="positive non-square d; corner count of the sqrt(d) geodesic")
@click.option("--limit", type=int, default=5000, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def corners(theta, disc, limit, as_json):
    """Corner hits of a vertical geodesic, or the periodic corner count."""

    def go():
        if (theta is None) == (disc is None):
            raise ParseError("give exactly one of --theta / --surd")
        if theta is not None:
            hits = corner_hits_vertical(parse_extreal(theta))
            rows = [{"r": str(h.r), "t": format_extreal(h.t_value())}
                    for h in hits]
            text = "\n".join("t=%s (r=%s)" % (r["t"], r["r"]) for r in rows)
            _emit({"theta": theta, "hits": rows}, as_json,
                  text if rows else "no corner hits")
        else:
            n = periodic_corner_count(disc, limit=limit)
            _emit({"surd": disc, "corner_count": n}, as_json, str(n))

    _run(go)


# ---------------------------------------------------------------------------
# bench


@main.command()
@click.argument("ell", type=int)
@click.option("--json", "as_json", is_flag=True)
def bench(ell, as_json):
    """Time the additive-word to MGCF conversion at lengths ELL, 2*ELL, 4*ELL.

    The input is the additive expansion of (sqrt(3)-1)/2; reports the fitted
    time exponent and the maximum retained digit count.
    """

    def go():
        if ell < 100:
            raise ValueError("ell must be >= 100")
        theta = (sqrt_exact(3) - 1) * Fraction(1, 2)
        full = acf_of(theta, limit=4 * ell)
        rows = []
        for n in (ell, 2 * ell, 4 * ell):
            w = full[:n]
            t0 = time.perf_counter()
            _out, stats = mgcf_from_acf(w)
            dt = time.perf_counter() - t0
            rows.append({"length": n, "seconds": dt,
                         "retained_digits": stats["retained_digits"]})
        xs = [math.log(r["length"]) for r in rows]
        ys = [math.log(max(r["seconds"], 1e-9)) for r in rows]
        xbar, ybar = sum(xs) / 3, sum(ys) / 3
        slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                 / sum((x - xbar) ** 2 for x in xs))
        payload = {"ell": ell, "rows": rows, "exponent": slope,
                   "max_retained_digits": max(r["retained_digits"]
                                              for r in rows)}
        text = "\n".join("n=%d t=%.4fs retained=%d"
                         % (r["length"], r["seconds"], r["retained_digits"])
                         for r in rows)
        text += "\nexponent=%.3f max_retained=%d" % (
            slope, payload["max_retained_digits"])
        _emit(payload, as_json, text)

    _run(go)


if __name__ == "__main__":
    main()
