"""Host-speed probes: fixed work, timed next to each op and each set-up.

The host these benchmarks run on is shared, and its speed drifts by up to
2x for seconds to minutes at a time.  Timing a probe right before and
right after each op and scaling the op's wall time by ``REF_S / their
mean`` gives the op's time on the host running at its reference speed.

``probe`` mixes what subcurv's ops do: small-object allocation, dict and
string work, float arithmetic and a sort.  It runs with the cyclic
garbage collector off, so the heap the program under test keeps cannot
slow it.  Set-up is mostly process start and imports, which a slow host
slows less than it slows pure interpreter work, so set-ups are scaled by
the start probe instead: a fresh interpreter running ``start_work``
(``python3 -c`` started the way set-up is started), with
``REF_START_S`` as its reference time.
"""

import gc
import time

# Reference times; they set the scale only.  REF_S is the least probe
# time seen on an unloaded 2-CPU x86-64 sandbox with CPython 3.11, and
# REF_START_S a round figure near the start probe's time there.
REF_S = 0.0029
REF_START_S = 0.1
REPEATS = 3


def _unit() -> float:
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(6000):
        key = f"k{i % 509}"
        node = (i, i * 0.5, key, [i, i + 1])
        table[key] = node
        acc += (node[1] * 1.0001) ** 0.5 + len(node[3])
    for key, node in sorted(table.items()):
        acc -= node[0] % 7
    return time.perf_counter() - t0


def probe() -> float:
    """Least wall time of REPEATS back-to-back runs of the fixed unit (about 3 ms each).

    The least of a few drops the slow first run after the process has
    been waiting, which a single run would report as a slow host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_unit() for _ in range(REPEATS))
    finally:
        if enabled:
            gc.enable()


def scaled(wall_s: float, probe_s: float, ref_s: float = REF_S) -> float:
    """Wall time scaled to the host's reference speed."""
    return wall_s * ref_s / probe_s


def start_work() -> None:
    """The fixed work of the start probe: stdlib imports and interpreter work."""
    import argparse, concurrent.futures, fractions, json  # noqa: F401,E401

    for _ in range(12):
        _unit()
