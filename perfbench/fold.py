"""Fold a cProfile run's self-time by module into the benchmark's layers.

The simulator's inner layers (hardware cache, flush queue, techniques)
are only ever called from inside ``Machine.run``, so no span placed
around a public call can see them.  A stdlib ``cProfile`` of the traced
run can: every function's self time (``tottime``) is charged to the
layer that owns the function's source file.  Builtins and C methods
(file ``~``) have no module of their own, so their self time is charged
to the layer of the Python function that called them, split by the
per-caller times cProfile records.  Whatever is not under ``src/repro``
(the stdlib, numpy, this benchmark's own code) folds into ``other``, so
the layer self-times add up to the profiled wall time.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Iterable, Tuple

#: Fixed layer names, in report order.  ``other`` is everything outside
#: the program's source tree.
LAYERS = (
    "workloads",
    "nvram.machine",
    "nvram.hwcache",
    "nvram.flushqueue",
    "cache",
    "locality",
    "faults",
    "experiments",
    "obs",
    "other",
)

#: Source path (relative to ``src``) prefix -> layer.  The first match
#: wins, so the single-file exceptions come before their package.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro/cache/adaptive.py", "locality"),
    ("repro/nvram/hwcache.py", "nvram.hwcache"),
    ("repro/nvram/flushqueue.py", "nvram.flushqueue"),
    ("repro/nvram/failure.py", "faults"),
    ("repro/workloads/", "workloads"),
    ("repro/mdb/", "workloads"),
    ("repro/pstructs/", "workloads"),
    ("repro/nvram/", "nvram.machine"),
    ("repro/common/", "nvram.machine"),
    ("repro/cache/", "cache"),
    ("repro/locality/", "locality"),
    ("repro/faults/", "faults"),
    ("repro/atlas/", "faults"),
    ("repro/experiments/", "experiments"),
    ("repro/api.py", "experiments"),
    ("repro/__init__.py", "experiments"),
    ("repro/obs/", "obs"),
)

Key = Tuple[str, int, str]


def layer_of_file(path: str, src_root: str) -> str:
    """The layer owning a source file, or ``other``."""
    rel = os.path.relpath(os.path.abspath(path), src_root).replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if rel.startswith(prefix):
            return layer
    return "other"


def _is_builtin(key: Key) -> bool:
    return key[0] == "~"


def fold_self_times(stats: pstats.Stats, src_root: str) -> Dict[str, float]:
    """Self seconds per layer (every layer present, ``other`` included)."""
    raw = stats.stats  # key -> (cc, nc, tt, ct, callers)
    cache: Dict[Key, str] = {}

    def layer(key: Key, depth: int = 0) -> str:
        got = cache.get(key)
        if got is not None:
            return got
        if not _is_builtin(key):
            got = layer_of_file(key[0], src_root)
        elif depth > 8 or key not in raw or not raw[key][4]:
            got = "other"
        else:
            # A builtin called from a builtin (e.g. ``sorted`` calling a
            # key function's ``len``): take its heaviest caller's layer.
            callers = raw[key][4]
            top = max(callers, key=lambda c: callers[c][2])
            got = layer(top, depth + 1)
        cache[key] = got
        return got

    out = {name: 0.0 for name in LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in raw.items():
        if not _is_builtin(key) or not callers:
            out[layer(key)] += tt
            continue
        charged = 0.0
        for caller, entry in callers.items():
            share = entry[2]
            out[layer(caller)] += share
            charged += share
        # Rounding in cProfile's per-caller split: keep the total exact.
        out["other"] += tt - charged
    return out


def cumulative(stats: pstats.Stats, file_suffix: str, funcname: str) -> float:
    """Inclusive seconds of one function (summed over same-named defs)."""
    suffix = file_suffix.replace("/", os.sep)
    return sum(
        entry[3]
        for key, entry in stats.stats.items()
        if key[2] == funcname and key[0].endswith(suffix)
    )


def call_count(
    stats: pstats.Stats,
    src_root: str,
    layer: str,
    funcnames: Iterable[str],
    exclude_suffix: str = "",
) -> int:
    """Calls to functions of ``layer`` named in ``funcnames``."""
    names = set(funcnames)
    skip = exclude_suffix.replace("/", os.sep)
    return sum(
        entry[1]
        for key, entry in stats.stats.items()
        if key[2] in names
        and not _is_builtin(key)
        and not (skip and key[0].endswith(skip))
        and layer_of_file(key[0], src_root) == layer
    )
