# lint-corpus-module: repro.sim.arena
"""Known-good twin: numpy loads on the first table a kernel asks for."""


def table(raw, n):
    import numpy as _np

    return _np.frombuffer(raw, dtype=bool).reshape(n, n)
