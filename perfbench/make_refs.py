#!/usr/bin/env python3
"""Freeze the reference outputs that perfbench/run.py checks items against.

    python3 perfbench/make_refs.py [workload ...]

Runs every item of each workload's pool once, requires every cross-route
check to pass, and writes ``perfbench/refs/<workload>.json``: a digest of
the pool, the items' output digests (eight hex digits each, in pool order)
and, for block-verdicts, the closing enumeration.  Regenerate only when a
change is meant to alter outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFS, import_library, pool_digest
from workloads import WORKLOADS


def freeze(name):
    wl = WORKLOADS[name](import_library())
    t0 = time.perf_counter()
    digests = []
    for index, item in enumerate(wl.pool):
        problem, got = wl.check(index, wl.run(item))
        if problem is not None:
            raise SystemExit("%s item %s: %s" % (name, wl.key(item), problem))
        digests.append(got)
    data = {"workload": name, "pool": pool_digest(wl), "items": len(digests),
            "digests": "".join(digests)}
    if hasattr(wl, "finish"):
        data["enumeration"] = wl.finish()
    REFS.mkdir(exist_ok=True)
    (REFS / ("%s.json" % name)).write_text(json.dumps(data, indent=1) + "\n")
    print("%s: %d items in %.1f s" % (name, len(digests), time.perf_counter() - t0))


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        freeze(name)
