#!/usr/bin/env python
"""Pin (or check) the golden counters of every registry workload.

The fixture ``tests/golden_counters.json`` maps each grid cell
``<workload>/<technique>/<threads>`` to the sha256 of its
``RunResult.to_dict()``, for every registry workload × base technique
(plus one composed spec) × supported thread count in {1, 2, 8}, at
scale 0.02 and seed 1.  Refactors and performance changes must leave
every digest unchanged; a deliberate semantic change regenerates the
fixture and says so in the change log.

Usable without installing the package::

    python tools/golden_counters.py           # check; exit 1 on any drift
    python tools/golden_counters.py --write   # regenerate the fixture

Takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE = os.path.join(ROOT, "tests", "golden_counters.json")

SCALE = 0.02
SEED = 1
TECHNIQUES = ("ER", "LA", "AT", "SC", "SC-offline", "BEST", "SC+nhit:2+victim:4")
THREADS = (1, 2, 8)


def result_digest(result) -> str:
    """sha256 of a run's full counter set, in canonical JSON."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> Dict[str, str]:
    """Run every cell from cold and return ``{cell: digest}``."""
    from repro.experiments.harness import Harness, HarnessConfig
    from repro.workloads.registry import WORKLOAD_NAMES

    harness = Harness(HarnessConfig(scale=SCALE, seed=SEED))
    digests: Dict[str, str] = {}
    for name in WORKLOAD_NAMES:
        workload = harness.workload(name)
        for threads in THREADS:
            if not workload.supports_threads(threads):
                continue
            for technique in TECHNIQUES:
                result = harness.run(name, technique, threads)
                digests[f"{name}/{technique}/{threads}"] = result_digest(result)
    return digests


def expected_cells(fixture: Dict) -> int:
    """How many cells a fixture must hold: one per technique for every
    workload × thread count the registry supports."""
    from repro.workloads.registry import WORKLOAD_NAMES, get_workload

    supported = sum(
        get_workload(name, scale=fixture["scale"]).supports_threads(threads)
        for name in WORKLOAD_NAMES
        for threads in fixture["threads"]
    )
    return supported * len(fixture["techniques"])


def drift(want: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """Sorted cells that are missing, extra, or carry another digest."""
    return sorted(
        cell for cell in set(want) | set(got) if want.get(cell) != got.get(cell)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the fixture instead of checking against it",
    )
    parser.add_argument("--fixture", default=FIXTURE, help="fixture path")
    args = parser.parse_args(argv)

    digests = compute()
    if args.write:
        with open(args.fixture, "w") as fh:
            doc = {
                "scale": SCALE,
                "seed": SEED,
                "techniques": list(TECHNIQUES),
                "threads": list(THREADS),
                "cells": digests,
            }
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} cells to {args.fixture}")
        return 0
    with open(args.fixture) as fh:
        want = json.load(fh)["cells"]
    moved = drift(want, digests)
    for cell in moved:
        print(f"drift: {cell}", file=sys.stderr)
    print(f"{len(digests) - len(moved)}/{len(digests)} cells match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.exit(main())
