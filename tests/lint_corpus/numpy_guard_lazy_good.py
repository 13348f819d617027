# lint-corpus-module: repro.sim.arena
"""Known-good twin: numpy loads on the first table a kernel asks for."""


def table(n, rows, senders):
    import numpy as _np

    table = _np.zeros((n, n), dtype=bool)
    table[rows, senders] = True
    return table
