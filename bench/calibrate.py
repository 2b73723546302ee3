"""Speed calibration for a shared core.

On a shared machine the speed of a core changes for tens of seconds at a
time, by up to two times, with the load of other tenants. The run times this
fixed pure-Python kernel before and after every problem. Every reported time
is then scaled by REFERENCE_S over the kernel's mean time in the run: it
reads as wall-clock seconds on a core that runs the kernel in REFERENCE_S.
The kernel shares no code with folbridge, so no change to the program moves
it.
"""

from __future__ import annotations

import gc
import time

# The kernel's typical time on an idle core of the machine the benchmark was
# written on (a 2-vCPU cloud VM, Python 3.11).
REFERENCE_S = 0.008


class _Node:
    __slots__ = ("tag", "kids")

    def __init__(self, tag, kids=()):
        self.tag = tag
        self.kids = kids


def _build(depth: int, width: int) -> _Node:
    if depth == 0:
        return _Node(width)
    return _Node(depth, tuple(_build(depth - 1, width) for _ in range(width)))


def _size(t: _Node) -> int:
    return 1 + sum(_size(k) for k in t.kids)


def _equal(a: _Node, b: _Node) -> bool:
    return (a.tag == b.tag and len(a.kids) == len(b.kids)
            and all(_equal(x, y) for x, y in zip(a.kids, b.kids)))


def _shift(t: _Node, by: int) -> _Node:
    if not t.kids:
        return _Node(t.tag + by if isinstance(t.tag, int) else t.tag)
    return _Node(t.tag, tuple(_shift(k, by) for k in t.kids))


def kernel() -> float:
    """Seconds taken by one fixed piece of tree building, walking,
    comparing and rebuilding; the garbage collector is off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        t = _build(7, 3)
        u = _shift(_shift(t, 1), -1)
        _equal(t, u)
        _size(u)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
