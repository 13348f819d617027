# lint-corpus-module: repro.sim.arena
"""Known-bad: the structure-table memo loading numpy at import, even
behind the optional-import guard."""
try:
    import numpy as _np
except ImportError:
    _np = None


def table(raw, n):
    return _np.frombuffer(raw, dtype=bool).reshape(n, n)
