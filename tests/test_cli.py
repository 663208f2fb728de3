import json
import signal

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from modcut.cli import WORD_KINDS, main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


# ---------------------------------------------------------------------------
# expand

GOLDEN_EXPAND = [
    (("mgcf", "0"), "J"),
    (("ocf", "5/14"), "0;2,1,4"),
    (("acf", "5/14"), "FRRFRFRRRRF"),
    (("farey", "5/14"), "DDRDDDD"),
    (("cutting", "5/14"), "JLLC1LLLLJ"),
    (("mgcf", "5/14"), "JRRCRRRRJ"),
]


@pytest.mark.parametrize("args,expected", GOLDEN_EXPAND)
def test_expand_golden(runner, args, expected):
    res = invoke(runner, "expand", *args)
    assert res.exit_code == 0
    assert res.output.strip() == expected


def test_expand_surd_limit(runner):
    res = invoke(runner, "expand", "cutting", "(1*sqrt(3)-1)/2", "--limit", "9")
    assert res.exit_code == 0
    word = res.output.strip()
    assert len(word.replace("C1", "C").replace("C2", "C")) == 9
    # periodic (2, 1_h) digit pattern: J, 2-run, J, 1-run, J, 2-run, ...
    assert word == "JLLJRJLLJ"


def test_expand_json_roundtrip(runner):
    res = invoke(runner, "expand", "ocf", "5/14", "--json")
    doc = json.loads(res.output)
    assert doc == {"kind": "ocf", "theta": "5/14", "limit": 64,
                   "word": "0;2,1,4"}


def test_expand_errors(runner):
    assert invoke(runner, "expand", "ocf", "nonsense").exit_code == 2
    assert invoke(runner, "expand", "mgcf", "7").exit_code == 3
    assert invoke(runner, "expand", "ocf", "5/14", "--limit", "0").exit_code == 3
    for limit in ("0", "-2"):
        res = invoke(runner, "trace", "--geodesic", "inf,1/3", "--limit", limit)
        assert res.exit_code == 3, limit


def test_expand_negative_positional(runner):
    for args in (("ocf", "-5/14"), ("ocf", "--", "-5/14"),
                 ("--limit", "9", "ocf", "-5/14"), ("ocf", "-5/14", "--json")):
        res = invoke(runner, "expand", *args)
        assert res.exit_code == 0, args
        assert "-1;1,1,1,4" in res.output
    assert invoke(runner, "expand", "ocf", "-0.25").output.strip() == "-1;1,3"
    assert invoke(runner, "expand", "mgcf", "-inf").exit_code == 3
    res = invoke(runner, "convert", "-1;1,1,1,4", "--from", "ocf", "--to", "ocf")
    assert res.exit_code == 3  # an ACF word needs a0 >= 0


def test_unknown_options_still_refused(runner):
    for args in (("expand", "ocf", "-x"), ("expand", "ocf", "5/14", "--bogus"),
                 ("expand", "ocf", "-5/14", "-l", "3"),
                 ("forbidden", "--max-len", "5", "-1"),
                 ("forbidden", "--max-len", "5", "--jobs", "2"),
                 ("expand", "--bogus", "ocf", "1/3"),
                 ("block", "--bogus", "JLLJ"), ("central", "--bogus"),
                 ("trace", "--geodesic", "inf,1/3", "-5")):
        res = invoke(runner, *args)
        assert res.exit_code == 2, args
        assert "Traceback" not in res.output


# ---------------------------------------------------------------------------
# convert


def test_convert_routes(runner):
    assert invoke(runner, "convert", "0;2,1,4", "--from", "ocf",
                  "--to", "acf").output.strip() == "FRRFRFRRRRF"
    assert invoke(runner, "convert", "FRRFRFRRRRF", "--from", "acf",
                  "--to", "farey").output.strip() == "DDRDDDD"
    assert invoke(runner, "convert", "JRRJRJ", "--from", "mgcf",
                  "--to", "cutting").output.strip() == "JLLJRJ"
    assert invoke(runner, "convert", "JLLJRJ", "--from", "cutting",
                  "--to", "mgcf").output.strip() == "JRRJRJ"
    assert invoke(runner, "convert", "JLLJRJ", "--from", "cutting",
                  "--to", "acf").output.strip() == "FRRFR"
    assert invoke(runner, "convert", "RFRRF", "--from", "acf",
                  "--to", "acf").output.strip() == "RFRRF"
    # an OCF prefix to cutting letters goes through its MGCF prefix
    mg = invoke(runner, "convert", "0;2,1,4", "--from", "ocf",
                "--to", "mgcf").output.strip()
    cut = invoke(runner, "convert", "0;2,1,4", "--from", "ocf",
                 "--to", "cutting").output.strip()
    assert cut == invoke(runner, "convert", mg, "--from", "mgcf",
                         "--to", "cutting").output.strip() == "JLL"


def test_convert_bad_word(runner):
    for word, src, dst in (("JQX", "cutting", "acf"), ("xyz", "acf", "acf"),
                           ("FF", "acf", "acf"), ("FF", "acf", "farey"),
                           ("--bogus", "acf", "acf")):
        res = invoke(runner, "convert", word, "--from", src, "--to", dst)
        assert res.exit_code == 2, word
        assert res.stderr.startswith("parse error:"), word


def test_convert_bad_digit_is_a_parse_error(runner):
    res = invoke(runner, "convert", "0;2,x", "--from", "ocf", "--to", "acf")
    assert res.exit_code == 2
    assert res.stderr.startswith("parse error:")
    assert "Traceback" not in res.stderr


def test_convert_to_acf_runs_the_mgcf_machine(runner):
    # the mgcf and cutting -> acf routes run mgcf.MGCF_TO_ACF: a final R run
    # prints its determined letters, the empty word maps to itself, and a
    # word with no edge (a JL opening, a0 = -1, or J L after a single R) is
    # a parse error
    for word, src in (("JRR", "mgcf"), ("JLL", "cutting")):
        res = invoke(runner, "convert", word, "--from", src, "--to", "acf")
        assert (res.exit_code, res.stdout) == (0, "FR\n"), word
    res = invoke(runner, "convert", "", "--from", "mgcf", "--to", "acf")
    assert (res.exit_code, res.stdout, res.stderr) == (0, "\n", "")
    for word in ("JLRJ", "JRJL"):
        res = invoke(runner, "convert", word, "--from", "mgcf", "--to", "acf")
        assert res.exit_code == 2, word
        assert res.stderr.startswith("parse error: no edge"), word
        assert "Traceback" not in res.output, word


# ---------------------------------------------------------------------------
# trace


def test_trace_basic(runner):
    res = invoke(runner, "trace", "--geodesic", "-5/2,5/2", "--limit", "5")
    assert res.exit_code == 0
    assert res.output.strip() == "RRJLL"


def test_trace_svg(runner, tmp_path):
    out = tmp_path / "g.svg"
    res = invoke(runner, "trace", "--geodesic", "-5/2,5/2", "--limit", "8",
                 "--svg", str(out), "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["svg"] == str(out)
    assert out.read_text().startswith("<svg")


def test_trace_bad_endpoints(runner):
    assert invoke(runner, "trace", "--geodesic", "1/2").exit_code == 2


def test_trace_two_radicands_is_a_domain_error(runner):
    res = invoke(runner, "trace", "--geodesic",
                 "(0+1*sqrt(2))/1,(0+1*sqrt(3))/1")
    assert res.exit_code == 3
    assert res.output.startswith("domain error:")


# ---------------------------------------------------------------------------
# block / central / forbidden / corners


def test_block_verdicts(runner):
    res = invoke(runner, "block", "JLLJLLJ", "--json")
    doc = json.loads(res.output)
    assert doc["status"] == "whole-forbidden"
    res = invoke(runner, "block", "JLLJRJLLLJ", "--json")
    doc = json.loads(res.output)
    assert doc["status"] == "admissible"
    assert doc["witness"]["head"] == "inf"


def test_block_empty_initial_word(runner):
    # the empty word begins every word: decided as the free empty block
    res = invoke(runner, "block", "", "--anchored", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert (doc["status"], doc["witness"]["foot"], doc["anchored"]) == (
        "admissible", "2/5", False)
    res = invoke(runner, "block", "JLLJ", "--anchored", "--json")
    assert json.loads(res.output)["anchored"] is True


def test_block_budget(runner):
    res = invoke(runner, "block", "JLLJRJLLLJ", "--max-len", "4")
    assert res.exit_code == 4


def test_central(runner):
    res = invoke(runner, "central", "2", "--json")
    doc = json.loads(res.output)
    assert doc == {"head": [2], "tail": [4], "word": "JLLC1LLLLJ",
                   "theta": "5/14"}


def test_central_bad_digit_is_a_parse_error(runner):
    res = invoke(runner, "central", "1,x")
    assert res.exit_code == 2
    assert res.stderr.startswith("parse error:")
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("head", ["2,,1", "2,1,", ","])
def test_central_empty_digit_is_a_parse_error(runner, head):
    # the head is read by the digit-list reader of parse_digits
    res = invoke(runner, "central", head)
    assert res.exit_code == 2
    assert res.stderr.startswith("parse error: cannot parse ''")


def test_a_radicand_too_large_to_factor_exits_4(runner):
    def expire(signum, frame):
        raise TimeoutError("over its 10 s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        res = invoke(runner, "expand", "mgcf", "(0+1*sqrt(%d))/1" % (2**89 - 1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert res.exit_code == 4
    assert res.stderr.startswith("budget exceeded:")


BIG = str(10 ** 30)  # a digit past sys.maxsize, which no str can repeat


@pytest.mark.parametrize("args", [
    ("expand", "acf", BIG),
    ("expand", "farey", BIG),
    ("convert", "0;" + BIG, "--from", "ocf", "--to", "acf"),
    ("convert", "0;" + BIG, "--from", "ocf", "--to", "mgcf"),
    ("central", BIG),
], ids=["expand-acf", "expand-farey", "convert-acf", "convert-mgcf", "central"])
def test_a_digit_too_large_to_write_exits_4(runner, args):
    res = invoke(runner, *args)
    assert res.exit_code == 4
    assert res.stderr.startswith("budget exceeded: digit %s is too large" % BIG)
    assert res.stderr.count("\n") == 1


def test_forbidden_listing(runner):
    res = invoke(runner, "forbidden", "--max-len", "17", "--max-head", "1",
                 "--json")
    blocks = json.loads(res.output)
    assert len(blocks) == 11
    assert "JJ" in blocks


@pytest.mark.parametrize("args", [("--max-len", "1"),
                                  ("--max-len", "5", "--max-head", "-1")])
def test_forbidden_bounds_are_domain_errors(runner, args):
    res = invoke(runner, "forbidden", *args)
    assert res.exit_code == 3
    assert res.stderr.startswith("domain error:")
    assert res.stderr.count("\n") == 1 and not res.stdout


def test_corners(runner):
    res = invoke(runner, "corners", "--theta", "1/2", "--json")
    doc = json.loads(res.output)
    assert {h["r"] for h in doc["hits"]} == {"1/2", "1/6"}
    res = invoke(runner, "corners", "--surd", "13", "--json")
    assert json.loads(res.output)["corner_count"] == 4
    assert invoke(runner, "corners").exit_code == 2


def test_corners_irrational_theta_is_a_domain_error(runner):
    res = invoke(runner, "corners", "--theta", "(1*sqrt(3)-1)/2")
    assert res.exit_code == 3
    assert res.stderr.startswith("domain error:")
    assert "Traceback" not in res.stderr


def test_corners_budget(runner):
    res = invoke(runner, "corners", "--surd", "3", "--limit", "1")
    assert res.exit_code == 4
    assert res.stderr.startswith("budget exceeded:")
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# bench


def test_bench_small(runner):
    res = invoke(runner, "bench", "100", "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert [r["length"] for r in doc["rows"]] == [100, 200, 400]
    assert doc["max_retained_digits"] >= doc["rows"][0]["retained_digits"]


def test_bench_domain(runner):
    assert invoke(runner, "bench", "50").exit_code == 3


# ---------------------------------------------------------------------------
# argv fuzzing: every command exits 0, 2, 3 or 4 and raises nothing
#
# Arguments come from fixed lists; --limit/--max-len stay <= 40, forbidden
# always runs with --max-head <= 1 and --max-len <= 10, bench is never drawn
# (no timing runs), and no number uses an exponent, which Fraction would
# parse for ever.

NUMBERS = ["0", "1", "-1", "7", "-7", "1/2", "-1/2", "5/14", "-5/14", "2/7",
           "-2/7", "0.25", "-0.25", "1/0", "-1/0", "inf", "-inf", "x", "",
           "(1*sqrt(3)-1)/2", "(-1*sqrt(2)+1)/2", "(-1-1*sqrt(3))/2",
           "(-3+1*sqrt(13))/2", "(-1*sqrt(5)-1)/4", "(0+1*sqrt(4))/1",
           "(1+1*sqrt(5))/0"]
INTS = ["-1", "0", "1", "2", "9", "40", "x", ""]
WORDS = ["J", "JLLC1LLLLJ", "JRRCRRRRJ", "JLLJLLJ", "JLLJRJLLLJ", "LC1R",
         "LLJLL", "JJ", "C1", "J,L,L", "C3", "X", "", "0;2,1,4", "0;2,x",
         "-1;1,2", "-2;1,3", "FRRFRFRRRRF", "DDRDDDD", "RQ"]
HEADS = ["1", "2", "2,2", "3,2", "0", "-1,2", "1,x", "", ","]
KINDS = list(WORD_KINDS) + ["bogus"]


@st.composite
def argvs(draw):
    def pick(values):
        return draw(st.sampled_from(values))

    def maybe(*tokens):
        return list(tokens) if draw(st.booleans()) else []

    def rarely():
        return draw(st.integers(0, 9)) == 0

    def usually(*tokens):  # a required option is left out now and then
        return [] if rarely() else list(tokens)

    cmd = pick(["expand", "convert", "trace", "block", "central", "forbidden",
                "corners"])
    if cmd == "expand":
        args = [pick(KINDS), pick(NUMBERS)] + maybe("--limit", pick(INTS))
    elif cmd == "convert":
        args = ([pick(WORDS)] + usually("--from", pick(KINDS))
                + usually("--to", pick(KINDS)))
    elif cmd == "trace":
        args = (usually("--geodesic", pick(NUMBERS) + "," + pick(NUMBERS))
                + maybe("--limit", pick(INTS)))
    elif cmd == "block":
        args = ([pick(WORDS)] + maybe("--anchored")
                + maybe("--max-len", pick(INTS)))
    elif cmd == "central":
        args = [pick(HEADS)]
    elif cmd == "forbidden":
        args = (usually("--max-len", pick(["-1", "0", "2", "5", "10", "x"]))
                + ["--max-head", pick(["-1", "0", "1", "x"])])
    else:
        args = pick([["--theta", pick(NUMBERS)], ["--surd", pick(INTS)]])
        if rarely():  # both or neither
            args = pick([[], ["--theta", pick(NUMBERS), "--surd", pick(INTS)]])
        args += maybe("--limit", pick(INTS))
    junk = [pick(["extra", "--bogus"])] if rarely() else []
    return [cmd] + args + maybe("--json") + junk


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_cli_exit_codes_on_fuzzed_argv(argv):
    res = CliRunner().invoke(main, argv)
    assert res.exit_code in (0, 2, 3, 4), (argv, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        argv, res.exception)
    assert "Traceback" not in res.output, argv
