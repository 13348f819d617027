"""CPU time and machine-speed calibration for a host whose CPU speed drifts.

On a shared virtual machine the hypervisor steals CPU time in bursts,
and the same pure-Python work can take twice as long from one second
to the next even without steal, when other guests load the core, its
caches and memory. The benchmark therefore counts throughput against
the CPU time its processes were actually given (steal excluded), and
times a fixed, program-independent loop next to every piece of
measured work, reporting times scaled to a reference speed::

    scaled = measured * REFERENCE_S / calibration

A change to the program leaves the loop untouched, so scaled times
still compare the program across commits. Raw figures are kept in
the ``info`` line.
"""

from __future__ import annotations

import glob
import hashlib
import json
import time

# The loop's CPU time at the reference speed: about its median on the
# 2-vCPU development VM, so scaled figures stay near raw ones there.
REFERENCE_S = 0.0034
ROWS = 200


def calibrate() -> float:
    """CPU seconds the fixed loop takes now.

    Sorting, dict and float work like the engine's, plus JSON and
    hashing like the service's request path.
    """
    start = time.thread_time()
    table: dict[int, float] = {}
    total = 0.0
    for i in range(ROWS):
        row = [((i * 7 + j) % 13, j * 0.5) for j in range(16)]
        row.sort()
        for key, value in row:
            table[key] = table.get(key, 0.0) + value
        total += max(value for _key, value in row)
        if i % 5 == 0:
            text = json.dumps({"seed": i, "row": row, "table": table}, sort_keys=True)
            hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
            json.loads(text)
    return time.thread_time() - start


def scale(before: float, after: float, reference: float = REFERENCE_S) -> float:
    """Factor from measured to reference seconds for work between two calibrations."""
    return reference / ((before + after) / 2)


def scales(calibrations: list[float], reach: int = 3,
           reference: float = REFERENCE_S) -> list[float]:
    """Factors for the work between each pair of consecutive calibrations.

    Work ``i`` ran between calibrations ``i`` and ``i + 1``; its factor
    uses the median of the ``2 * reach`` calibrations around it, so one
    noisy loop does not move a measurement while the speed drift over a
    few measurements still does. ``reference`` is the calibration's
    time at the reference speed.
    """
    factors = []
    for i in range(len(calibrations) - 1):
        near = sorted(calibrations[max(0, i + 1 - reach):i + 1 + reach])
        middle = len(near) // 2
        speed = near[middle] if len(near) % 2 else (near[middle - 1] + near[middle]) / 2
        factors.append(reference / speed)
    return factors


def cpu_seconds(pids: list[int]) -> float:
    """CPU time so far of every thread of ``pids``, from the scheduler.

    Reads ``/proc/<pid>/task/*/schedstat`` (nanosecond run time, steal
    excluded). A process that has exited contributes nothing.
    """
    total = 0
    for pid in pids:
        for path in glob.glob(f"/proc/{pid}/task/*/schedstat"):
            try:
                with open(path, encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total / 1e9

