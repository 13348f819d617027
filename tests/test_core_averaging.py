"""The averaging process's mean, and the batch kernel's copy of it.

:class:`repro.core.averaging.AveragingProcess` averages the sorted
values of a round with :func:`repro.core.averaging.mean`, a strict
left-to-right sum from ``0.0``. Builtin ``sum()`` compensates float
rounding since CPython 3.12, so a mean built on it would give other
bits there; these cases pin the left-to-right bits on every Python.

:class:`repro.sim.batch.BaselineBatchEngine` runs averaging lanes with
the mean read off prefix sums (``np.cumsum``) of the sorted,
``inf``-padded rows. The property test feeds it rounds rich in ties,
signed zeros, one-value batches and batches of 8 or more values (where
a pairwise ``np.sum`` rounds differently) and requires the bits
``deliver()`` computes, sign of zero included.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.asymptotic import AsymptoticAveragingProcess
from repro.core.averaging import AveragingProcess, mean
from repro.families.averaging import averaging_lane_family
from repro.sim.batch import BaselineBatchEngine, numpy_available
from repro.sim.messages import StateMessage
from repro.sim.node import Delivery


def deliveries(values):
    """One delivery per value, on ports 0, 1, ..."""
    return [Delivery(port, StateMessage(value, 0)) for port, value in enumerate(values)]


class TestMean:
    def test_sums_left_to_right(self):
        # Python 3.12's compensated sum() gives 0.19999999999999998.
        assert mean([0.1, 0.2, 0.3]) == ((0.1 + 0.2) + 0.3) / 3 == 0.20000000000000004

    def test_averaging_deliver_sums_left_to_right(self):
        process = AveragingProcess(3, 0, 0.3, 2, num_rounds=5)
        process.deliver(deliveries([0.3, 0.1, 0.2]))  # sorted before summing
        assert process.value == 0.20000000000000004

    def test_asymptotic_deliver_sums_left_to_right(self):
        process = AsymptoticAveragingProcess(3, 0, 0.1, 0, combine="mean")
        process.deliver(deliveries([0.1, 0.2, 0.3]))
        assert process.value == 0.20000000000000004

    def test_lone_negative_zero_averages_to_positive_zero(self):
        # The sum starts at 0.0, as sum()'s integer 0 does: 0.0 + -0.0 is 0.0.
        process = AveragingProcess(2, 0, -0.0, 0, num_rounds=5)
        process.deliver(deliveries([-0.0]))
        assert process.value.hex() == "0x0.0p+0"
        assert mean([-0.0, -0.0]).hex() == "0x0.0p+0"


# Tie- and zero-heavy values: a few shared ones, both signed zeros, and
# any finite float of moderate size.
MEAN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, -1.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
)

# 150 examples in tier-1; a loaded profile with a larger budget (CI's
# ``sweeps-10x``, registered in tests/conftest.py) raises it.
MEAN_SETTINGS = settings(
    max_examples=max(150, settings().max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mean_rounds(draw):
    """One round of ``B`` lanes: ``(B, n)`` values, and receiver-major
    delivered-from masks without the diagonal (the kernel adds each
    receiver's own value). A receiver hears nobody (a one-value batch),
    everybody, or a drawn subset."""
    n = draw(st.integers(2, 16))
    lanes = draw(st.integers(1, 3))
    cells = lanes * n
    values = draw(st.lists(MEAN_VALUES, min_size=cells, max_size=cells))
    kinds = draw(st.lists(st.sampled_from(("none", "all", "drawn")), min_size=cells, max_size=cells))
    bits = draw(st.lists(st.booleans(), min_size=cells * n, max_size=cells * n))
    masks = [
        [kind == "all" or (kind == "drawn" and bit) for bit in bits[cell * n : (cell + 1) * n]]
        for cell, kind in enumerate(kinds)
    ]
    for cell in range(cells):
        masks[cell][cell % n] = False
    return [values[lane * n : (lane + 1) * n] for lane in range(lanes)], [
        masks[lane * n : (lane + 1) * n] for lane in range(lanes)
    ]


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
@MEAN_SETTINGS
@given(mean_rounds())
@example(([[-0.0, -0.0]], [[[False, False], [False, False]]]))  # lone -0.0 batches
@example(([[-0.0, -0.0, 0.0]], [[[False, True, False], [False, False, False], [True, True, False]]]))
@example((  # eight values: a pairwise sum gives 4.746, the sequential one 4.7459999999999996
    [[0.1, 0.296, 0.416, 0.629, 0.724, 0.743, 0.916, 0.922]],
    [[[sender != node for sender in range(8)] for node in range(8)]],
))
def test_kernel_mean_update_matches_deliver(drawn):
    import numpy as np

    values, masks = drawn
    n = len(values[0])
    kernel = BaselineBatchEngine(averaging_lane_family(n, rule="mean"), [0])
    state = {"value": np.array(values, dtype=float)}
    kernel._round(None, state, np.array(masks, dtype=bool), None)
    for lane, row in enumerate(values):
        for node in range(n):
            process = AveragingProcess(n, 0, row[node], node, rule="mean", num_rounds=2)
            heard = [row[sender] for sender in range(n) if masks[lane][node][sender]]
            process.deliver(deliveries([row[node], *heard]))
            got = float(state["value"][lane, node])
            assert got.hex() == process.value.hex(), (lane, node, row, heard)
