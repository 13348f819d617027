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

Fidelity notes (where this code reads the paper's pseudo-code):

- the node's own value is stored into ``R_low``/``R_high`` at phase
  start (the paper's pseudo-code pre-marks ``R_i[i]`` without storing,
  but its proof counts the self value among the received states);
- ``R_low``/``R_high`` hold exactly ``f+1`` entries (the pseudo-code's
  ``<= f+1`` guard would admit ``f+2``).

The node outputs at ``p_end`` from Equation 6 -- the *proven* bound
``log(epsilon)/log(1 - 2^-n)``, which is exponentially conservative;
experiments run it in oracle mode to measure the real phase count, or
override ``end_phase``.

The node keeps ``R_low``/``R_high`` as the phase's stored values in
arrival order and derives the lists only when they are read (at the
quorum, and for state keys): a stable sort of the buffer gives exactly
the lists that the pseudo-code's insert-and-trim store builds (see
:func:`recording_lists`). The vectorized DBAC lanes in
:mod:`repro.sim.batch` keep the same per-phase buffer across ``(B, n)``
state arrays, and their event-segmented sweep replicates
:meth:`DBACProcess.deliver` (docs/batching.md). Changes to the delivery
or trimming rules here must be mirrored there; the determinism suite
pins the two bit for bit.
"""

from __future__ import annotations

from bisect import insort

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
        # The phase's stored values in arrival order, the self value
        # first (fidelity note 1); R_low/R_high derive from it.
        self._stored = [self._v]
        self._message: StateMessage | None = None  # built by broadcast()
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
        return len(self._stored)

    @property
    def recording_lists(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Snapshots of ``(R_low, R_high)`` (ascending order each)."""
        low, high = recording_lists(self._stored, self.trim)
        return tuple(low), tuple(high)

    @property
    def stored_count(self) -> int:
        """Values stored into ``R_low``/``R_high`` this phase.

        Each accepted port (plus the phase-start self value) appends
        one value to the phase's buffer, and the count is the buffer's
        length, so it equals :attr:`received_count` by construction.
        Both recording lists hold ``min(stored_count, f + 1)`` entries,
        derived from the buffer. The batch kernel
        (:mod:`repro.sim.batch`) keeps the same buffer, one
        ``(B, n, quorum)`` array indexed by this count.
        """
        return len(self._stored)

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
            if int(message.phase) < self._p or self._received[port]:
                continue
            # Lines 5-7: fresh port with a current-or-future state.
            self._received[port] = True
            stored = self._stored
            stored.append(float(message.value))
            if len(stored) >= self.quorum:
                # Lines 8-11: trimmed-midpoint update, next phase.
                low, high = recording_lists(stored, self.trim)
                self._v = 0.5 * (low[-1] + high[0])
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
        received = self._received = [False] * self.n
        received[self.self_port] = True
        self._stored = [self._v]

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
            *self.recording_lists,
            self._output,
        )


def recording_lists(stored: list[float], trim: int) -> tuple[list[float], list[float]]:
    """``(R_low, R_high)`` of one phase's stored values (lines 17-25).

    The pseudo-code stores each value as it arrives: an insert at its
    ``bisect_right`` position, then a pop past ``trim`` entries (fidelity
    note 2). That leaves the ``trim`` smallest and the ``trim`` largest
    values of a stable sort, so one sort of the arrival-ordered buffer
    gives the same lists, ties and signed zeros in the same order. NaN
    breaks the sort's ordering; a buffer holding one (the sum is NaN
    then) replays the store value by value instead.
    """
    total = sum(stored)
    if total == total:
        ordered = sorted(stored)
        keep = min(trim, len(ordered))
        return ordered[:keep], ordered[-keep:]
    low: list[float] = []
    high: list[float] = []
    for value in stored:
        insort(low, value)
        if len(low) > trim:
            low.pop()  # drop the largest of the lows
        insort(high, value)
        if len(high) > trim:
            high.pop(0)  # drop the smallest of the highs
    return low, high
