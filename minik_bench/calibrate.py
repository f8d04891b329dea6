"""Host-speed calibration.

The machines this benchmark runs on share their CPUs with other tenants,
and their speed for pure-Python work drifts by tens of percent over minutes.
A run lasts well under a minute, so two runs of the same code can read far
apart. Every run therefore also times this fixed kernel, interleaved with
the workload, and `run.py` scales each end-to-end sample by
`REFERENCE_S / (median kernel time of the calibrations nearest the sample)`.
Times read as they would on a host where the kernel takes `REFERENCE_S`; raw
medians are printed beside them.

The kernel does the kind of work miniK does (a character-loop tokenizer,
building and walking a tree of small objects with `isinstance` dispatch,
dict lookups), none of it through miniK, so a change to miniK cannot move
it. It runs with the garbage collector paused, so the size of the heap the
workload leaves behind does not move it either.
"""

from __future__ import annotations

import gc
import time

# The kernel's median time on the host where the benchmark was defined.
REFERENCE_S = 0.0025

_SOURCE = "fun f(a: B, c: D): E {\n    val x = g(a, c) as E\n    return h(x)\n}\n" * 30


class _Node:
    __slots__ = ("kind", "kids", "text")

    def __init__(self, kind: str, kids: tuple, text: str) -> None:
        self.kind, self.kids, self.text = kind, kids, text


class _Leaf(_Node):
    __slots__ = ()


def _tokens(src: str) -> list[tuple[str, str]]:
    out = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            out.append(("name", src[i:j]))
            i = j
        elif ch in " \n":
            i += 1
        else:
            out.append((ch, ch))
            i += 1
    return out


def _tree(depth: int, text: str) -> _Node:
    if depth == 0:
        return _Leaf("leaf", (), text)
    return _Node("pair", (_tree(depth - 1, text + "l"), _tree(depth - 1, text + "r")), text)


def kernel() -> int:
    """One unit of calibration work; returns a checksum."""
    tokens = _tokens(_SOURCE)
    counts: dict[str, int] = {}
    for kind, text in tokens:
        counts[kind] = counts.get(kind, 0) + len(text)
    total = 0
    stack = [_tree(11, "")]
    while stack:
        node = stack.pop()
        if isinstance(node, _Leaf):
            total += len(node.text)
        else:
            total += counts.get(node.kind, 1)
            stack.extend(node.kids)
    return total + len(tokens)


def measure() -> float:
    """Seconds one kernel run takes now, with GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        kernel()
        return (time.perf_counter_ns() - start) / 1e9
    finally:
        if enabled:
            gc.enable()
