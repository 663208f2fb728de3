#!/usr/bin/env python3
"""Layered benchmark of modcut: closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload rational-oracle --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads of BENCHMARK.json one after
another, each in a fresh interpreter that it waits for, so that each
workload's peak RSS and heap are its own.  Each workload is a closed loop
with one caller: the next item starts when the previous one has returned
(no threads, no worker pool).  Inputs come from ``--seed``; the library
receives only the generated inputs.  Every item's outputs are checked
outside the timed region, against each other and by a digest against the
references frozen in ``perfbench/refs`` (rebuild them with
``perfbench/make_refs.py`` only when an output is meant to change).

With ``--trace 0`` the items of a first pass of ``--seconds / PASSES`` are
run PASSES times and the last line is a JSON object holding the end-to-end
metrics of BENCHMARK.json.  Their times are at the reference speed of
``probe()``, which takes out the slowdowns other tenants of a shared
machine cause.  With ``--trace 1`` the last line holds the per-layer metrics
of a traced run of the first ``TRACE_ITEMS`` items of the seeded stream, a
fixed number per workload, so that its counts and times cover the same work
however fast the library or the machine is; ``--seconds`` does not apply.
The run exits with status 2 and prints no result when the modcut sources or
BENCHMARK.json are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs"
MODULES = ("exactnum", "cf", "mgcf", "cutting", "tessellation", "automata", "shiftspace")
PASSES = 3
SETUPS = 21  # set-ups per untraced run; setup_s is their median
PROBES = 3  # probe runs before and after each timed set-up
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 0.001
TAIL_PERCENTILE = 90
PHI = (1 + 5 ** 0.5) / 2
RUN_BUDGET_S = 150  # a run must end within 180 s, whatever --seconds says


class SetupError(Exception):
    """The checkout lacks something the benchmark needs."""


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values <= it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - max(1, math.ceil(q / 100 * n))


def min_samples(q, beyond=10):
    """Fewest samples that leave ``beyond`` of them above the q-th percentile."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


MIN_ITEMS = min_samples(TAIL_PERCENTILE)


def item_stream(strata, seed):
    """Endless pool indices: each round draws ``count`` from every stratum.

    A stratum lists its indices in order of expected cost.  It is walked
    from a seeded start with a stride near n/phi that is coprime to n, so
    every stretch of the walk samples the stratum's cost range evenly and
    all n indices come before any repeats.  The order of the draws within
    a round is shuffled.
    """
    rng = random.Random(seed)

    def walk(indices):
        n = len(indices)
        stride = max(1, round(n / PHI))
        while math.gcd(stride, n) != 1:
            stride += 1
        pos = rng.randrange(n)
        while True:
            yield indices[pos]
            pos = (pos + stride) % n

    walks = [walk(indices) for indices, _count in strata]
    pattern = [s for s, (_indices, count) in enumerate(strata) for _ in range(count)]
    while True:
        rng.shuffle(pattern)
        for s in pattern:
            yield next(walks[s])


# ---------------------------------------------------------------------------
# set-up


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError("no BENCHMARK.json at %s" % ROOT)
    return json.loads(path.read_text())


def import_library():
    """Import modcut afresh from this checkout's sources."""
    if not (SRC / "modcut" / "__init__.py").is_file():
        raise SetupError("no modcut sources under %s" % SRC)
    for name in tracing.modcut_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("modcut")
    if Path(pkg.__file__).resolve().parent != SRC / "modcut":
        raise SetupError("modcut imported from %s, not from %s" % (pkg.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("modcut." + m) for m in MODULES})


class References:
    """Frozen per-item digests of one workload's pool."""

    def __init__(self, wl):
        path = REFS / ("%s.json" % wl.name)
        if not path.is_file():
            raise SetupError("no references at %s" % path)
        data = json.loads(path.read_text())
        self.closing = data.get("enumeration")
        self.digests = None
        if data["pool"] == pool_digest(wl):
            self.digests = data["digests"]

    def problem(self, index, got):
        if self.digests is None:
            return "input pool differs from the reference pool"
        if self.digests[8 * index: 8 * index + 8] != got:
            return "output differs from the frozen reference"
        return None


def pool_digest(wl):
    return digest(len(wl.pool), *(wl.key(item) for item in wl.pool))


def setup(name, seed):
    """Import, build the inputs from the seed, load the references."""
    lib = import_library()
    wl = WORKLOADS[name](lib)
    refs = References(wl)
    stream = item_stream(wl.strata, seed)
    return lib, wl, refs, itertools.chain([next(stream)], stream)


def at_reference_speed(fn):
    """fn() and the seconds it took at reference speed.  A set-up lasts
    long enough for the machine's speed to change, so the scale comes from
    the median of PROBES probe runs before it and PROBES after it."""
    gc.collect()
    probes = [probe() for _ in range(PROBES)]
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    probes += [probe() for _ in range(PROBES)]
    return result, seconds * REFERENCE_PROBE_S / statistics.median(probes)


def timed_setup(name, seed):
    """Reference seconds a complete set-up takes.  The modules it imports
    are swapped out again afterwards, so the library being measured stays
    loaded."""
    loaded = tracing.modcut_modules()
    _, seconds = at_reference_speed(lambda: setup(name, seed))
    for k in tracing.modcut_modules():
        del sys.modules[k]
    sys.modules.update(loaded)
    return seconds


# ---------------------------------------------------------------------------
# measurement


def probe():
    """Seconds a fixed piece of stdlib Fraction work takes right now.

    Other tenants of the machine slow it by up to about 1.9 times, for a
    second or for minutes, and Fraction-heavy code such as modcut's slows
    about as much as this probe does.  Times are therefore reported at the
    reference speed, at which the probe takes REFERENCE_PROBE_S: each item
    or set-up time is multiplied by REFERENCE_PROBE_S over the duration of
    the probe run just before it.  The probe uses no modcut code, so a
    change to the library cannot move it.
    """
    t0 = time.perf_counter()
    for q in range(300, 320):
        for p in (1, 7, 31, 97):
            f, digits = Fraction(p, q), []
            while f:
                a = f.numerator // f.denominator
                digits.append((a, f))
                f -= a
                if f:
                    f = 1 / f
    return time.perf_counter() - t0


class Tally:
    """Outcome of the items of one pass, in the order they ran."""

    def __init__(self):
        self.indices = []
        self.durations = []  # timed seconds per item
        self.scales = []  # reference speed over the machine's speed then
        self.ok = []  # the item passed every check
        self.problems = Counter()

    @property
    def attempted(self):
        return len(self.indices)

    @property
    def failed(self):
        return self.ok.count(False)

    @property
    def timed_s(self):
        return sum(self.durations)

    @property
    def reference_s(self):
        return sum(d * s for d, s in zip(self.durations, self.scales))

    def latencies(self):
        """Per-item latencies; a failed item counts as infinitely late."""
        return [d if ok else math.inf for d, ok in zip(self.durations, self.ok)]


def typical(passes):
    """The first pass's items, each with its median time at reference speed
    over the passes that reached it, and failed if it failed in any.
    """
    out = Tally()
    out.indices = list(passes[0].indices)
    for i in range(len(out.indices)):
        reached = [p for p in passes if i < p.attempted]
        out.durations.append(statistics.median(p.durations[i] * p.scales[i] for p in reached))
        out.scales.append(1.0)
        out.ok.append(all(p.ok[i] for p in reached))
    return out


def measure(wl, refs, indices, deadline, seconds=None, tracer=None):
    """Run items one at a time until the ``deadline`` (a perf_counter
    reading); with ``seconds``, stop once the items have taken that long
    and at least MIN_ITEMS are done, else run them all.  The machine's
    speed is probed every PROBE_EVERY_S, between items.
    """
    tally = Tally()
    scale, probed = 1.0, -math.inf
    for index in indices:
        if time.perf_counter() >= deadline:
            break
        if time.perf_counter() - probed >= PROBE_EVERY_S:
            scale = REFERENCE_PROBE_S / probe()
            probed = time.perf_counter()
        item = wl.pool[index]
        if tracer is not None:
            tracer.begin_item(len(tally.indices))
        t0 = time.perf_counter()
        try:
            out, problem = wl.run(item), None
        except Exception as exc:  # an item that raises is a failed item
            out, problem = None, "raised %s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_item()
        if problem is None:
            try:
                problem, got = wl.check(index, out)
            except Exception as exc:  # an output the checks choke on is wrong
                problem, got = "check raised %s: %s" % (type(exc).__name__, exc), None
            problem = problem or refs.problem(index, got)
        tally.indices.append(index)
        tally.durations.append(t1 - t0)
        tally.scales.append(scale)
        tally.ok.append(problem is None)
        if problem is not None:
            tally.problems[problem] += 1
        if seconds is not None and tally.timed_s >= seconds and tally.attempted >= MIN_ITEMS:
            break
    return tally


def finish(wl, refs, tracer=None):
    """The workload's closing step, if any: (seconds, problem or None)."""
    if not hasattr(wl, "finish"):
        return None
    if tracer is not None:
        tracer.begin_item(-1)
    t0 = time.perf_counter()
    result = wl.finish()
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_item()
    if result != refs.closing:
        return seconds, "closing step differs from the frozen reference"
    return seconds, None


def environment(name, seed, traced):
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "commit": git_commit(),
        "source": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    files = sorted((SRC / "modcut").glob("*.py"))
    return digest(*(f.name + f.read_text() for f in files))


def run_workload(spec, name, seed, seconds, traced):
    """One workload: set-up, measured passes, result and report lines."""
    lines = ["env " + json.dumps(environment(name, seed, traced))]
    deadline = time.perf_counter() + RUN_BUDGET_S
    if traced:
        # the same items untraced, then traced: the overhead is the ratio
        # of their times at reference speed
        lib, wl, refs, stream = setup(name, seed)
        indices = list(itertools.islice(stream, wl.TRACE_ITEMS))
        passes = [measure(wl, refs, indices, deadline)]
        tr = tracing.Tracer()
        tr.install(lib)
        try:
            passes.append(measure(wl, refs, indices, deadline, tracer=tr))
            closing = finish(wl, refs, tracer=tr)
        finally:
            tr.uninstall()
        metrics = tr.metrics()
        metrics["bench.trace_overhead"] = passes[1].reference_s / passes[0].reference_s
        kind = "per_layer"
        lines.append("%s traced_items=%d of %d" % (name, passes[1].attempted, len(indices)))
        lines += module_shares(metrics)
    else:
        # The first pass picks the items and later passes rerun them, each
        # after a timed set-up; an item's time is its median over passes.
        (lib, wl, refs, stream), first_setup = at_reference_speed(lambda: setup(name, seed))
        setups, passes = [first_setup], []
        for p in range(PASSES):
            if p:
                setups.append(timed_setup(name, seed))
            gc.collect()
            tracing.assert_clean()
            if passes:
                passes.append(measure(wl, refs, passes[0].indices, deadline))
            else:
                passes.append(measure(wl, refs, stream, deadline, seconds / PASSES))
            tracing.assert_clean()
        setups += [timed_setup(name, seed) for _ in range(SETUPS - len(setups))]
        closing = finish(wl, refs)
        best = typical(passes)
        latencies = best.latencies()
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": (best.attempted - best.failed) / best.timed_s,
            "item_p50_ms": 1e3 * percentile(latencies, 50),
            "item_p90_ms": 1e3 * percentile(latencies, TAIL_PERCENTILE),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        kind = "end_to_end"
        lines.append("%s items=%d passes=%d p%d_samples_beyond=%d"
                     % (name, best.attempted, len(passes), TAIL_PERCENTILE,
                        samples_beyond(best.attempted, TAIL_PERCENTILE)))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = sum((p.problems for p in passes), Counter())
    if closing is not None:
        closing_s, problem = closing
        attempted += 1
        lines.append("%s closing_step_s=%.4f" % (name, closing_s))
        if problem is not None:
            failed += 1
            problems[problem] += 1
    lines.append("%s attempted=%d failed=%d fail_ratio=%.6g"
                 % (name, attempted, failed, failed / attempted))
    for problem, count in sorted(problems.items()):
        lines.append("%s FAILED %d: %s" % (name, count, problem))
    chosen = {}
    for m in spec[kind]:
        if m["name"] not in metrics:
            raise KeyError("metric %s was not measured" % m["name"])
        chosen[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        lines.append("%s %-48s %14.6g %s" % (name, m["name"], metrics[m["name"]], m["unit"]))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": chosen}, lines


def module_shares(metrics):
    """Report lines: each module's share of the traced self time, and each
    layer's share of the traced time spent inside it, callees included."""
    total = metrics[tracing.ROOT + ".total_s"]
    modules = Counter()
    for k, v in metrics.items():
        if k.endswith(".self_s"):
            modules[k.split(".")[0]] += v
    lines = ["self_share %-38s %6.1f%%" % (mod, 100 * v / total)
             for mod, v in modules.most_common()]
    for mod, func in tracing.LAYERS:
        inside = metrics["%s.%s.total_s" % (mod, func)]
        if inside:
            lines.append("total_share %-37s %6.1f%%" % ("%s.%s" % (mod, func), 100 * inside / total))
    return lines


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        result, lines = run_workload(spec, args.workload, args.seed, args.seconds,
                                     bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print("result %s %s" % (name, json.dumps(result)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, m): v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
