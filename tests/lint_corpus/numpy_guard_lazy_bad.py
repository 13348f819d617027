# lint-corpus-module: repro.sim.arena
"""Known-bad: the round-structure table memo loading numpy at import,
even behind the optional-import guard."""
try:
    import numpy as _np
except ImportError:
    _np = None


def table(n, rows, senders):
    table = _np.zeros((n, n), dtype=bool)
    table[rows, senders] = True
    return table
