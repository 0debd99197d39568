"""Every registry cell must reproduce its pinned counters bit for bit.

``tests/golden_counters.json`` holds the sha256 of ``RunResult.to_dict()``
for every registry workload × technique × supported thread count at a
small scale.  A refactor or performance change that moves any digest has
changed what the simulator computes.  Regenerate the fixture with
``python tools/golden_counters.py --write`` only for a deliberate
semantic change, and record which cells moved and why.
"""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool():
    path = os.path.join(ROOT, "tools", "golden_counters.py")
    spec = importlib.util.spec_from_file_location("golden_counters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_counters_unchanged():
    tool = _tool()
    with open(tool.FIXTURE) as fh:
        fixture = json.load(fh)
    assert fixture["scale"] == tool.SCALE
    assert fixture["seed"] == tool.SEED
    assert fixture["techniques"] == list(tool.TECHNIQUES)
    assert fixture["threads"] == list(tool.THREADS)
    assert len(fixture["cells"]) == tool.expected_cells(fixture)
    moved = tool.drift(fixture["cells"], tool.compute())
    assert not moved, f"golden counters moved: {moved}"
