"""How fast the host runs right now, against a fixed reference kernel.

A shared host's speed drifts by tens of percent over seconds to minutes,
and a slow stretch can span a whole run, so neither longer runs nor
medians take it out of a run-to-run comparison. The benchmark therefore
times a fixed kernel next to every measured piece of work and scales the
work's time by the kernel's: ``slowdown()`` is the kernel's time divided
by ``REFERENCE_S``, so 1.25 means the host currently runs the kernel 25%
slower than the reference.

The kernel mixes what the correction loop spends its time on (small
numpy grids, pixel masks built from many small tuples, fancy-indexed
reductions, JSON records) and imports nothing from scenefix, so a change
to the program never changes the yardstick.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# The kernel's typical time on a shared 2-vCPU x86-64 VM; only ratios
# matter, this constant keeps scaled figures close to that host's seconds.
REFERENCE_S = 0.027
# The host flips between fast and slow within milliseconds, so one
# kernel run samples one state; several in a row average over them.
REPEATS = 5
# One dataset record, much as the wire reader and writer see it.
_RECORD = {
    "id": "s-000001",
    "prompt": "a chair left of a table, a lamp behind the sofa",
    "objects": [["chair", [0.1, 0.2, 0.3, 0.25], 0.5, "left"]] * 6,
}


def kernel() -> float:
    """Scene-sized work: build a 64x64 depth grid with a patch, check it
    as ``DepthMap`` does, read the patch's depth through a pixel mask of
    (col, row) tuples, and round-trip one record through JSON."""
    acc = 0.0
    for i in range(160):
        x, y, w, h = (i * 5) % 30, (i * 3) % 30, 14 + i % 9, 12 + i % 7
        grid = np.full((64, 64), 0.9)
        grid[y:y + h, x:x + w] = 0.3 + 0.001 * i
        if not np.all(np.isfinite(grid)) or grid.min() < 0.0 or grid.max() > 1.0:
            raise ValueError("calibration grid out of range")
        grid = grid.copy()
        mask = frozenset((c, r) for r in range(y, y + h) for c in range(x, x + w))
        cols = np.fromiter((c for c, _ in mask), dtype=np.intp, count=len(mask))
        rows = np.fromiter((r for _, r in mask), dtype=np.intp, count=len(mask))
        acc += float(grid[rows, cols].mean())
        record = json.loads(json.dumps(_RECORD, sort_keys=True))
        acc += sum(len(obj[0]) for obj in record["objects"])
    return acc


def slowdown() -> float:
    """The kernel's mean time now, as a multiple of ``REFERENCE_S``."""
    start = perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (perf_counter() - start) / REPEATS / REFERENCE_S
