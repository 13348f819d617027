"""Old-vs-new equivalence: the legacy construction and native Topology
paths must be bit-identical, across the grids the paper sweeps.

The Topology refactor rewired the graph representation under every
layer (net sources, adversaries, engine routing, batch executor) with
the hard requirement that outputs stay *bit-identical*. This suite
pins that through the shared differential harness
(:func:`tests.helpers.assert_equivalent_runs`): full ``state_key`` /
rounds / outputs equality between

- an engine driven by an adversary whose graphs are rebuilt from raw
  edge lists through the validating ``Topology`` constructor (the
  path legacy ``DirectedGraph`` callers take -- the deprecated alias
  is the same class, pinned by test_graph_deprecation.py), and the
  same execution on the native adversary (Topology path);
- the serial engine (port-major sweep *and* the legacy loop) and the
  ``repro.sim.batch`` lanes (the numpy kernel where it applies);

across crash, enforced-rotate and window (last-minute) grids.
"""

from repro.adversary.base import MessageAdversary
from repro.net.topology import Topology
from tests.helpers import (
    assert_equivalent_runs,
    differential_executors,
    serial_executor,
)

# The boundary grids of E1, two seeds per config; crash counts and
# windows as in the original copy-pasted loops.
GRIDS = [
    {"family": "dac", "n": 9, "f": 0, "crash_nodes": 0, "seeds": (0, 7)},
    {"family": "dac", "n": 7, "f": 3, "crash_nodes": 3, "seeds": (0, 7)},
    {
        "family": "dac",
        "n": 9,
        "f": 4,
        "crash_nodes": 4,
        "selector": "nearest",
        "seeds": (0, 7),
    },
    {"family": "dac", "n": 9, "f": 4, "crash_nodes": 4, "window": 3, "seeds": (0, 7)},
    {
        "family": "dac",
        "n": 6,
        "f": 2,
        "crash_nodes": 2,
        "window": 2,
        "selector": "nearest",
        "seeds": (0, 7),
    },
]


class _ShimRewrapAdversary(MessageAdversary):
    """Wraps an adversary, round-tripping every chosen graph through the
    validating ``Topology`` constructor from its raw edge list -- the
    legacy construction path external callers still use."""

    def __init__(self, inner: MessageAdversary) -> None:
        super().__init__()
        self._inner = inner

    def setup(self, n, fault_plan, rng):
        super().setup(n, fault_plan, rng)
        self._inner.setup(n, fault_plan, rng)

    def choose(self, t, view):
        native = self._inner.choose(t, view)
        shim = Topology(native.n, list(native.edge_list))
        # Hash-consing: the legacy constructor must resolve to the very
        # same interned instance the native path plays.
        assert shim is native
        return shim

    def promised_dynadegree(self):
        return self._inner.promised_dynadegree()


def test_shim_native_and_batch_backends_bit_identical():
    """One harness pass covers the whole old-vs-new matrix: native
    sweep (reference) == shim-rewrapped == legacy loop == traced ==
    batch lanes, full state keys throughout."""
    executors = differential_executors(workers=None)
    executors["shim-rewrap"] = serial_executor(wrap_adversary=_ShimRewrapAdversary)
    assert_equivalent_runs(GRIDS, executors)
