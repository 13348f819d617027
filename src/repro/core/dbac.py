"""DBAC -- Dynamic Byzantine Approximate Consensus (Algorithm 2).

Byzantine approximate consensus for anonymous dynamic networks.
Correct when ``n >= 5f + 1`` and the network satisfies
``(T, floor((n+3f)/2))``-dynaDegree (Theorems 4/7 and 10 make the pair
sufficient and necessary).

Structure mirrors DAC, with three changes to survive Byzantine values:

1. nodes **never jump** -- copying an unverified future state would
   hand Byzantine senders the steering wheel;
2. a state message counts toward the current phase whenever its phase
   is ``>= p_i`` (not only ``==``), one count per port (bit vector
   ``R_i``);
3. the update is Byzantine-trimmed: the node tracks the ``f+1`` lowest
   and ``f+1`` highest stored values (``R_low`` / ``R_high``) and, upon
   collecting ``floor((n+3f)/2) + 1`` states, moves to
   ``(max(R_low) + min(R_high)) / 2`` -- i.e. the midpoint of the
   (f+1)-st lowest and (f+1)-st highest received states, each of which
   is anchored by at least one fault-free value.

Fidelity notes (see DESIGN.md):

- the node's own value is stored into ``R_low``/``R_high`` at phase
  start (the paper's pseudo-code pre-marks ``R_i[i]`` without storing,
  but its proof counts the self value among the received states);
- ``R_low``/``R_high`` hold exactly ``f+1`` entries (the pseudo-code's
  ``<= f+1`` guard would admit ``f+2``).

The node outputs at ``p_end`` from Equation 6 -- the *proven* bound
``log(epsilon)/log(1 - 2^-n)``, which is exponentially conservative;
experiments run it in oracle mode to measure the real phase count, or
override ``end_phase``.

This class is also the executable specification of the vectorized
DBAC lanes in :mod:`repro.sim.batch`: the kernel's event-segmented
sweep replicates :meth:`DBACProcess.deliver` across ``(B, n)`` state
arrays, with ``R_low``/``R_high`` rebuilt from a per-phase stored-value
buffer (see :attr:`DBACProcess.stored_count` and docs/batching.md). Changes to the
delivery or trimming rules here must be mirrored there; the
determinism suite pins the two bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.core.phases import dbac_end_phase
from repro.sim.messages import StateMessage
from repro.sim.node import ConsensusProcess, Delivery


class DBACProcess(ConsensusProcess):
    """One fault-free node running DBAC.

    Parameters
    ----------
    n, f:
        Network size and Byzantine bound; the quorum is
        ``floor((n+3f)/2) + 1`` and the trimming depth is ``f+1``.
    input_value, self_port:
        As in :class:`~repro.core.dac.DACProcess`.
    epsilon:
        Agreement tolerance; sets ``p_end`` via Equation 6 unless
        ``end_phase`` overrides it.
    initial_range:
        Width of the input interval (1.0 for the paper's scaling).
    end_phase:
        Explicit override of ``p_end``. Strongly recommended for
        simulation studies -- Equation 6 is a worst-case bound of order
        ``2^n ln(1/epsilon)`` phases.
    quorum_override:
        Replace the paper's quorum ``floor((n+3f)/2) + 1`` (experiment
        hook: Theorem 10's necessity argument studies the hypothetical
        algorithm that decides after hearing ``floor((n+3f)/2)`` nodes
        -- it terminates under the too-weak degree but disagrees).
    """

    # The own port is marked at every phase start (init and _reset), so
    # the own message is always a repeat sender: deliver skips it.
    ignores_own_echo = True

    def __init__(
        self,
        n: int,
        f: int,
        input_value: float,
        self_port: int,
        epsilon: float = 1e-3,
        initial_range: float = 1.0,
        end_phase: int | None = None,
        quorum_override: int | None = None,
    ) -> None:
        super().__init__(n, f, input_value, self_port)
        self.epsilon = epsilon
        self.end_phase = (
            dbac_end_phase(epsilon, n, initial_range) if end_phase is None else end_phase
        )
        if self.end_phase < 0:
            raise ValueError(f"end phase must be non-negative, got {self.end_phase}")
        self.quorum = ((n + 3 * f) // 2 + 1) if quorum_override is None else quorum_override
        if self.quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {self.quorum}")
        self.trim = f + 1

        # Algorithm 2, initialization block.
        self._v = float(input_value)
        self._p = 0
        self._received = [False] * n
        self._received[self_port] = True
        self._received_count = 1
        self._r_low: list[float] = []  # ascending; at most f+1 lowest stored
        self._r_high: list[float] = []  # ascending; at most f+1 highest stored
        self._message: StateMessage | None = None  # built by broadcast()
        self._store(self._v)  # fidelity note: self value is stored
        self._output: float | None = None
        self._check_output()

    # -- Introspection ------------------------------------------------------

    @property
    def value(self) -> float:
        """Current state ``v_i``."""
        return self._v

    @property
    def phase(self) -> int:
        """Current phase ``p_i``."""
        return self._p

    @property
    def received_count(self) -> int:
        """``|R_i|``: ports heard this phase (self included)."""
        return self._received_count

    @property
    def recording_lists(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Snapshots of ``(R_low, R_high)`` (ascending order each)."""
        return tuple(self._r_low), tuple(self._r_high)

    @property
    def stored_count(self) -> int:
        """Values stored into ``R_low``/``R_high`` this phase.

        Invariant: every accepted port (plus the phase-start self
        value) stores exactly one value, so this equals
        :attr:`received_count` and both recording lists hold exactly
        ``min(stored_count, f + 1)`` entries -- the ``f+1`` smallest /
        largest stored values of the phase, ascending. The vectorized
        batch kernel (:mod:`repro.sim.batch`) relies on this to keep
        only a flat per-phase stored-value buffer and reconstruct the
        exact ``R_low``/``R_high`` lists (and the trimmed extremes at
        quorum time) from it; the invariant is asserted against real
        executions in the determinism suite.
        """
        return self._received_count

    # -- Protocol ------------------------------------------------------------

    def broadcast(self) -> StateMessage:
        """Line 2: broadcast the current state and phase.

        The message is frozen and ``(v, p)`` changes only through
        :meth:`_reset`, which drops it, so the one message is reused
        until the next jump or quorum.
        """
        message = self._message
        if message is None:
            message = self._message = StateMessage(self._v, self._p)
        return message

    def deliver(self, deliveries: list[Delivery]) -> None:
        """Lines 4-13: process one round's messages in port order."""
        for port, message in deliveries:
            if self._output is not None:
                return  # frozen at p_end
            incoming_phase = int(message.phase)
            if incoming_phase < self._p or self._received[port]:
                continue
            # Lines 5-7: fresh port with a current-or-future state.
            self._received[port] = True
            self._received_count += 1
            self._store(float(message.value))
            if self._received_count >= self.quorum:
                # Lines 8-11: trimmed-midpoint update, next phase.
                self._v = 0.5 * (self._r_low[-1] + self._r_high[0])
                self._p += 1
                self._reset()
                self._check_output()

    def has_output(self) -> bool:
        """Whether the node has reached ``p_end`` and output."""
        return self._output is not None

    def output(self) -> float:
        """The decided value; raises until :meth:`has_output`."""
        if self._output is None:
            raise RuntimeError(f"node has not terminated (phase {self._p}/{self.end_phase})")
        return self._output

    # -- Algorithm 2 helper functions -----------------------------------------

    def _reset(self) -> None:
        """Lines 14-16 plus the self-value store (fidelity note 1).

        Every change of ``(v, p)`` passes through here, so this is also
        where the cached broadcast is dropped.
        """
        self._message = None
        for port in range(self.n):
            self._received[port] = False
        self._received[self.self_port] = True
        self._received_count = 1
        self._r_low = []
        self._r_high = []
        self._store(self._v)

    def _store(self, incoming_value: float) -> None:
        """Lines 17-25 with exact ``f+1`` bounds (fidelity note 2).

        ``R_low`` keeps the ``f+1`` smallest stored values, ``R_high``
        the ``f+1`` largest; one incoming value may enter both (e.g.
        the first ``f+1`` values seen in a phase).

        This is ``insort`` then a pop past ``f+1``, minus the pairs
        that cancel: on a full list, a value that ``insort`` would put
        exactly where the pop removes it leaves the list unchanged, so
        neither happens. The index is ``insort``'s own ``bisect_right``
        (same comparisons), so ties, signed zeros and NaN land alike.
        """
        trim = self.trim
        low = self._r_low
        i = bisect_right(low, incoming_value)
        if len(low) < trim:
            low.insert(i, incoming_value)
        elif i < trim:
            low.insert(i, incoming_value)
            low.pop()  # drop the largest of the lows
        high = self._r_high
        i = bisect_right(high, incoming_value)
        if len(high) < trim:
            high.insert(i, incoming_value)
        elif i:
            high.insert(i, incoming_value)
            high.pop(0)  # drop the smallest of the highs

    def _check_output(self) -> None:
        """Line 12: output (and freeze) upon reaching ``p_end``."""
        if self._output is None and self._p >= self.end_phase:
            self._p = self.end_phase
            self._output = self._v

    def state_key(self) -> tuple:
        """Hashable full-state key (used by the model checker)."""
        return (
            self._v,
            self._p,
            tuple(self._received),
            tuple(self._r_low),
            tuple(self._r_high),
            self._output,
        )
