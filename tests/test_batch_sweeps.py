"""The event-segmented delivery sweeps against the per-port loops they replace.

:func:`repro.sim.batch._dac_sweep` and :func:`repro.sim.batch._dbac_sweep`
consume one round's port-ordered deliveries in at most ``events + 1``
vectorized passes: after its event a cell re-scans only while a later
port can still change it. The reference functions below are the
per-port loops the numpy kernels ran before -- one Python iteration per
port, each port processed across every ``(lane, node)`` cell -- kept
verbatim as the oracle, the way :mod:`tests.helpers` keeps the serial
engine as the executors' reference.

The property test feeds both the same random port-ordered tables and
start states (skewed phases, decided cells, non-receiving rows with
stale table rows, ``enable_jump=False``, one lane, ``n`` up to 49) and
requires every state array to come back byte-identical. Kernel rounds
rarely carry more than one event per cell, so each draw also scripts
one cell through several: jump then jump, jump then quorum, quorum then
a later jump, two quorums, a decision mid-batch, and a jump or quorum
followed by a stale tail (the scripted cases also require that tail to
take no second pass).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.sim.batch import _dac_sweep, _dbac_sweep

np = pytest.importorskip("numpy", exc_type=ImportError)

DAC_KEYS = ("value", "phase", "received", "count", "v_min", "v_max", "out_mask", "out_val")
DBAC_KEYS = ("value", "phase", "received", "count", "stored", "out_mask", "out_val")


def reference_dac_round(
    has_msg, msg_value, msg_phase, receiving, self_port, state, *,
    quorum, end_phase, enable_jump,
):
    """Reference DAC round: one Python iteration per port, across every cell."""
    value, phase, received, count, v_min, v_max, out_mask, out_val = (
        state[key] for key in DAC_KEYS
    )
    n = has_msg.shape[2]
    for port in range(n):
        here = has_msg[:, :, port] & receiving
        if not here.any():
            continue
        active = here & ~out_mask
        if not active.any():
            continue
        incoming_value = msg_value[:, :, port]
        incoming_phase = msg_phase[:, :, port]
        # Masks from the same pre-update phase, like the serial
        # if/elif -- a jump must not re-match as same-phase.
        jump = (
            active & (incoming_phase > phase)
            if enable_jump
            else np.zeros_like(active)
        )
        same = active & (incoming_phase == phase) & ~received[:, :, port]
        if jump.any():
            value = np.where(jump, incoming_value, value)
            phase = np.where(jump, incoming_phase, phase)
            received[jump] = False
            jb, jn = np.nonzero(jump)
            received[jb, jn, self_port[jb, jn]] = True
            count[jump] = 1
            v_min = np.where(jump, value, v_min)
            v_max = np.where(jump, value, v_max)
            decided = jump & (phase >= end_phase)
            if decided.any():
                phase = np.where(decided, end_phase, phase)
                out_mask |= decided
                out_val = np.where(decided, value, out_val)
        if same.any():
            received[:, :, port] |= same
            count = np.where(same, count + 1, count)
            lower = same & (incoming_value < v_min)
            v_min = np.where(lower, incoming_value, v_min)
            higher = same & ~lower & (incoming_value > v_max)
            v_max = np.where(higher, incoming_value, v_max)
            full = same & (count >= quorum)
            if full.any():
                value = np.where(full, 0.5 * (v_min + v_max), value)
                phase = np.where(full, phase + 1, phase)
                received[full] = False
                qb, qn = np.nonzero(full)
                received[qb, qn, self_port[qb, qn]] = True
                count[full] = 1
                v_min = np.where(full, value, v_min)
                v_max = np.where(full, value, v_max)
                decided = full & (phase >= end_phase)
                if decided.any():
                    phase = np.where(decided, end_phase, phase)
                    out_mask |= decided
                    out_val = np.where(decided, value, out_val)
    state.update(
        value=value, phase=phase, count=count, v_min=v_min, v_max=v_max,
        out_mask=out_mask, out_val=out_val,
    )


def reference_dbac_round(
    has_msg, msg_value, msg_phase, receiving, self_port, state, *,
    quorum, trim, end_phase,
):
    """Reference DBAC round: one Python iteration per port, across every cell."""
    value, phase, received, count, stored, out_mask, out_val = (
        state[key] for key in DBAC_KEYS
    )
    n = has_msg.shape[2]
    for port in range(n):
        candidate = has_msg[:, :, port] & receiving
        if not candidate.any():
            continue
        # Lines 4-7 of Algorithm 2: frozen nodes skip the
        # rest of their batch, stale phases and repeat
        # ports are filtered, fresh ports are recorded.
        accept = (
            candidate
            & ~out_mask
            & (msg_phase[:, :, port] >= phase)
            & ~received[:, :, port]
        )
        if not accept.any():
            continue
        received[:, :, port] |= accept
        count = np.where(accept, count + 1, count)
        incoming = msg_value[:, :, port]
        accept_lane, accept_node = np.nonzero(accept)
        stored[
            accept_lane, accept_node, count[accept_lane, accept_node] - 1
        ] = incoming[accept_lane, accept_node]
        full = accept & (count >= quorum)
        if full.any():
            # Lines 8-11: trimmed-midpoint update -- the
            # (f+1)-st lowest and highest of the quorum
            # stored states (max(R_low) and min(R_high)) --
            # then next phase, reset, self-store.
            full_lane, full_node = np.nonzero(full)
            quorum_rows = stored[full_lane, full_node]
            kth = (trim - 1, quorum - trim)
            part = np.partition(
                quorum_rows, sorted(set(kth)), axis=1
            )
            value[full_lane, full_node] = 0.5 * (
                part[:, trim - 1] + part[:, quorum - trim]
            )
            phase = np.where(full, phase + 1, phase)
            received[full] = False
            received[full_lane, full_node, self_port[full_lane, full_node]] = True
            count = np.where(full, 1, count)
            stored[full_lane, full_node, 0] = value[full_lane, full_node]
            decided = full & (phase >= end_phase)
            if decided.any():
                phase = np.where(decided, end_phase, phase)
                out_mask |= decided
                out_val = np.where(decided, value, out_val)
    state.update(phase=phase, count=count, out_mask=out_mask, out_val=out_val)


# One cell's scripted port sequence, as phase offsets from its start
# phase ``p``; ``q`` is the quorum. The cell starts with only its self
# port received, so ``q - 1`` fresh same-phase accepts fire a quorum
# ("jump-then-stale": ``p``-phase messages after a jump must not count;
# "quorum-then-stale": nor after a quorum, which moves the cell to
# ``p + 1``).
DAC_SCRIPTS = {
    "jump-jump": lambda q: [1, 2],
    "jump-quorum": lambda q: [1] * q,
    "jump-then-stale": lambda q: [1] + [0] * (q - 1),
    "quorum-jump": lambda q: [0] * (q - 1) + [3],
    "quorum-quorum": lambda q: [0] * (q - 1) + [1] * (q - 1),
    "decide-mid": lambda q: [0] * (q - 1) + [0, 1, 2],
    "quorum-then-stale": lambda q: [0] * (q - 1) + [0, 0, 0],
}
DBAC_SCRIPTS = {
    "quorum-quorum": lambda q: [0] * (q - 1) + [1] * (q - 1),
    "quorum-future-quorum": lambda q: [2] * (q - 1) + [0] + [1] * (q - 1),
    "decide-mid": lambda q: [0] * (q - 1) + [0, 1, 2],
    "quorum-then-stale": lambda q: [0] * (q - 1) + [0, 0, 0],
}


def start_state(rng, lanes, n, quorum, end_phase, pool, *, decided_share, stored):
    """Random consistent per-cell state: ``v_min <= value <= v_max``,
    ``count`` marked ports (the self port among them) with ``count <
    quorum``, decided cells frozen at ``end_phase``."""
    value = rng.choice(pool, (lanes, n))
    phase = rng.integers(0, end_phase, (lanes, n))
    self_port = rng.integers(0, n, (lanes, n))
    received = np.zeros((lanes, n, n), dtype=bool)
    count = rng.integers(1, quorum, (lanes, n))
    for b in range(lanes):
        for v in range(n):
            others = np.delete(np.arange(n), self_port[b, v])
            marked = rng.choice(others, min(count[b, v] - 1, n - 1), replace=False)
            received[b, v, marked] = True
            received[b, v, self_port[b, v]] = True
            count[b, v] = received[b, v].sum()
    out_mask = rng.random((lanes, n)) < decided_share
    phase[out_mask] = end_phase
    state = dict(
        value=value, phase=phase, received=received, count=count,
        out_mask=out_mask, out_val=np.where(out_mask, value, 0.0),
    )
    if stored:
        state["stored"] = rng.choice(pool, (lanes, n, quorum))
    else:
        state["v_min"] = np.minimum(value, rng.choice(pool, (lanes, n)))
        state["v_max"] = np.maximum(value, rng.choice(pool, (lanes, n)))
    return state, self_port


def script_cell(rng, tables, state, self_port, b, v, offsets, pool):
    """Put cell ``(b, v)`` through ``offsets``: a fresh phase start with
    only the self port received, and the scripted messages on its other
    ports in ascending order; no other message reaches the cell."""
    has_msg, msg_value, msg_phase = tables
    n = has_msg.shape[2]
    others = np.delete(np.arange(n), self_port[b, v])
    offsets = offsets[: others.size]
    ports = np.sort(rng.choice(others, len(offsets), replace=False))
    start = int(state["phase"][b, v])
    has_msg[b, v] = False
    has_msg[b, v, ports] = True
    msg_phase[b, v, ports] = start + np.array(offsets, dtype=np.int64)
    msg_value[b, v, ports] = rng.choice(pool, len(offsets))
    state["received"][b, v] = False
    state["received"][b, v, self_port[b, v]] = True
    state["count"][b, v] = 1
    state["out_mask"][b, v] = False
    state["out_val"][b, v] = 0.0
    if "v_min" in state:
        state["v_min"][b, v] = state["v_max"][b, v] = state["value"][b, v]


@st.composite
def sweep_rounds(draw, family):
    """One round's tables, start state and parameters for ``family``."""
    dbac = family == "dbac"
    lanes = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(2, 12), st.sampled_from([17, 33, 49])))
    quorum = draw(st.integers(2, max(2, n - 1)))
    end_phase = draw(st.integers(1, 6))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    # Message phase offsets from the receiver's phase: same-phase heavy
    # (quorums), one ahead (jumps), or widely skewed either way.
    skew = draw(st.sampled_from([(0,), (0, 0, 0, 1), (-1, 0, 0, 1, 2), (-3, -1, 0, 1, 4, 9)]))
    decided_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    scripts = DBAC_SCRIPTS if dbac else DAC_SCRIPTS
    script = draw(st.sampled_from(sorted(scripts)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct values (ties, signed zeros) or continuous ones.
    if draw(st.booleans()):
        pool = np.array([-0.0, 0.0, 0.25, 0.5, 1.0, -1.5])
    else:
        pool = rng.uniform(-1.0, 1.0, 64)

    state, self_port = start_state(
        rng, lanes, n, quorum, end_phase, pool, decided_share=decided_share, stored=dbac
    )
    has_msg = rng.random((lanes, n, n)) < density
    msg_value = rng.choice(pool, (lanes, n, n))
    offsets = rng.choice(np.array(skew), (lanes, n, n))
    msg_phase = np.maximum(state["phase"][:, :, None] + offsets, 0)
    receiving = (rng.random((lanes, 1)) < 0.8) & (rng.random((lanes, n)) < 0.9)
    # Rows outside `receiving` (crashed and Byzantine receivers) are
    # filled with garbage the sweep must never read.
    stale = ~receiving
    msg_value[stale] = np.nan
    msg_phase[stale] = -7
    has_msg[stale] = True

    b, v = int(rng.integers(lanes)), int(rng.integers(n))
    receiving[b, v] = True
    last = end_phase - 1  # the scripted cell is undecided
    state["phase"][b, v] = last if script == "decide-mid" else min(state["phase"][b, v], last)
    script_cell(
        rng, (has_msg, msg_value, msg_phase), state, self_port, b, v,
        scripts[script](quorum), pool,
    )
    params = dict(quorum=quorum, end_phase=end_phase)
    if dbac:
        params["trim"] = draw(st.integers(1, quorum))
    else:
        params["enable_jump"] = draw(st.booleans()) if script in (
            "quorum-quorum", "decide-mid"
        ) else True
    return (has_msg, msg_value, msg_phase, receiving, self_port, state), params


def copy_state(state):
    return {key: array.copy() for key, array in state.items()}


def assert_byte_identical(got, want):
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


def run_both(family, args, params):
    *tables, state = args
    ours, oracle = copy_state(state), copy_state(state)
    sweep, reference = (
        (_dbac_sweep, reference_dbac_round) if family == "dbac"
        else (_dac_sweep, reference_dac_round)
    )
    sweep(*tables, ours, **params)
    reference(*tables, oracle, **params)
    return ours, oracle


# 150 examples in tier-1; a loaded profile with a larger budget (CI's
# ``sweeps-10x``, registered in tests/conftest.py) raises it.
SWEEP_SETTINGS = settings(
    max_examples=max(150, settings().max_examples),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSweepsMatchPerPortLoops:
    @SWEEP_SETTINGS
    @given(sweep_rounds("dac"))
    def test_dac_sweep_matches_per_port_loop(self, drawn):
        ours, oracle = run_both("dac", *drawn)
        assert_byte_identical(ours, oracle)

    @SWEEP_SETTINGS
    @given(sweep_rounds("dbac"))
    def test_dbac_sweep_matches_per_port_loop(self, drawn):
        ours, oracle = run_both("dbac", *drawn)
        assert_byte_identical(ours, oracle)

    @pytest.mark.parametrize(
        "family,script,phase",
        [
            ("dac", "jump-jump", 2),
            ("dac", "jump-quorum", 2),
            ("dac", "jump-then-stale", 1),
            ("dac", "quorum-jump", 3),
            ("dac", "quorum-quorum", 2),
            ("dac", "decide-mid", None),
            ("dac", "quorum-then-stale", 1),
            ("dbac", "quorum-quorum", 2),
            ("dbac", "quorum-future-quorum", 2),
            ("dbac", "decide-mid", None),
            ("dbac", "quorum-then-stale", 1),
        ],
    )
    def test_scripted_cell_takes_every_event(self, family, script, phase):
        # A lone receiving cell on a fresh phase 0; the script alone
        # drives it, and the phase it ends in shows both events ran
        # (None: decided mid-batch, frozen at end_phase).
        end_phase = 10 if phase else 1
        ours, oracle = run_both(family, *scripted_round(family, script, end_phase))
        assert_byte_identical(ours, oracle)
        if phase is None:
            assert ours["out_mask"][0, 0] and ours["phase"][0, 0] == end_phase
        else:
            assert ours["phase"][0, 0] == phase and not ours["out_mask"][0, 0]

    @pytest.mark.parametrize(
        "family,script",
        [("dac", "jump-then-stale"), ("dac", "quorum-then-stale"), ("dbac", "quorum-then-stale")],
    )
    def test_stale_tail_after_an_event_takes_no_second_pass(self, family, script, monkeypatch):
        # Every port after the event carries the cell's old phase, which
        # neither rule can accept: the first pass is the only one.
        passes = []
        record = batch._record

        def counted(*args):
            passes.append(args[1])  # the pass's cells
            return record(*args)

        monkeypatch.setattr(batch, "_record", counted)
        ours, oracle = run_both(family, *scripted_round(family, script, 10))
        assert_byte_identical(ours, oracle)
        assert ours["phase"][0, 0] == 1
        assert passes == [slice(None)]


def scripted_round(family, script, end_phase):
    """A lone receiving cell ``(0, 0)`` of a 9-node lane at phase 0,
    driven by ``script`` alone (quorum 4); the sweep arguments and
    parameters."""
    rng = np.random.default_rng(7)
    n, quorum = 9, 4
    pool = rng.uniform(-1.0, 1.0, 16)
    state, self_port = start_state(
        rng, 1, n, quorum, end_phase, pool, decided_share=0.0, stored=family == "dbac"
    )
    state["phase"][:] = 0
    tables = (
        np.zeros((1, n, n), dtype=bool),
        np.zeros((1, n, n)),
        np.zeros((1, n, n), dtype=np.int64),
    )
    scripts = DBAC_SCRIPTS if family == "dbac" else DAC_SCRIPTS
    script_cell(rng, tables, state, self_port, 0, 0, scripts[script](quorum), pool)
    receiving = np.zeros((1, n), dtype=bool)
    receiving[0, 0] = True
    params = dict(quorum=quorum, end_phase=end_phase)
    if family == "dbac":
        params["trim"] = 2
    else:
        params["enable_jump"] = True
    return (*tables, receiving, self_port, state), params
