"""DAC -- Dynamic Approximate Consensus (Algorithm 1).

Crash-tolerant approximate consensus for anonymous dynamic networks.
Correct when ``n >= 2f + 1`` and the network satisfies
``(T, floor(n/2))``-dynaDegree (Theorems 3 and 9 make the pair
sufficient and necessary).

The algorithm is phase-based with two ways to advance:

1. **jump** -- on receiving a state from a *higher* phase ``q``, copy
   it and move straight to ``q`` (lines 5-8). Jumping is what lets DAC
   cope with message loss under the O(log n) bandwidth limit without
   retransmitting old phases;
2. **quorum** -- on having received ``floor(n/2) + 1`` distinct
   phase-``p`` states (self included, tracked by the port bit vector
   ``R_i``), update to the midpoint of the observed extremes and enter
   phase ``p + 1`` (lines 12-15).

Each node stores only ``v_min``/``v_max`` of the current phase -- not
the full multiset -- so its memory is O(n) bits (the ``R_i`` vector)
plus two values, matching the paper's storage discipline.

The node outputs ``v_i`` upon reaching ``p_end = log2(1/epsilon)``
(Equation 2) and freezes its state there; it keeps broadcasting its
final state forever, which is what lets slower nodes jump to ``p_end``
and terminate too. (The paper's infinite loop keeps broadcasting past
``p_end`` as well; freezing guarantees no node can jump *over* the
output phase and miss line 16's equality test.)

``enable_jump=False`` gives the X3 ablation: without jumping the
algorithm can stall forever behind one fast node, which the jump
benchmark demonstrates.
"""

from __future__ import annotations

from repro.core.phases import dac_end_phase
from repro.sim.messages import StateMessage
from repro.sim.node import ConsensusProcess, Delivery


class DACProcess(ConsensusProcess):
    """One fault-free node running DAC.

    Parameters
    ----------
    n, f:
        Network size and fault bound (the node only uses ``n``; DAC's
    	quorum is ``floor(n/2) + 1`` regardless of ``f``).
    input_value:
        The node's input ``x_i``. The paper scales inputs to
        ``[0, 1]``; any bounded range works if ``initial_range`` covers it.
    self_port:
        Port on which this node hears itself (``R_i[i]`` in the paper).
    epsilon:
        Agreement tolerance; sets ``p_end`` via Equation 2.
    initial_range:
        Width of the input interval (1.0 for the paper's scaling).
    end_phase:
        Explicit override of ``p_end`` (tests / experiments).
    enable_jump:
        Ablation switch for the jump rule (X3). Default on, per paper.
    quorum_override:
        Replace the paper's quorum ``floor(n/2) + 1`` (experiment hook:
        Theorem 9's necessity argument studies the hypothetical
        algorithm that decides after hearing only ``floor(n/2)`` nodes,
        i.e. quorum ``floor(n/2)`` -- it terminates under the
        too-weak degree but provably disagrees).
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
        enable_jump: bool = True,
        quorum_override: int | None = None,
    ) -> None:
        super().__init__(n, f, input_value, self_port)
        self.epsilon = epsilon
        self.end_phase = (
            dac_end_phase(epsilon, initial_range) if end_phase is None else end_phase
        )
        if self.end_phase < 0:
            raise ValueError(f"end phase must be non-negative, got {self.end_phase}")
        self.enable_jump = enable_jump
        self.quorum = (n // 2 + 1) if quorum_override is None else quorum_override
        if self.quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {self.quorum}")

        # Algorithm 1, initialization block.
        self._v = float(input_value)
        self._v_min = self._v
        self._v_max = self._v
        self._p = 0
        self._received = [False] * n
        self._received[self_port] = True
        self._received_count = 1
        self._message: StateMessage | None = None  # built by broadcast()
        self._output: float | None = None
        self._check_output()

    # -- Introspection ----------------------------------------------------

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
        """``|R_i|``: distinct same-phase senders heard (self included)."""
        return self._received_count

    # -- Protocol ----------------------------------------------------------

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
        """Lines 4-17: process one round's messages in port order."""
        for port, message in deliveries:
            if self._output is not None:
                return  # frozen at p_end
            incoming_phase = int(message.phase)
            incoming_value = float(message.value)
            if incoming_phase > self._p:
                if self.enable_jump:
                    # Lines 5-8: copy the future state and jump.
                    self._v = incoming_value
                    self._p = incoming_phase
                    self._reset()
                    self._check_output()
            elif incoming_phase == self._p and not self._received[port]:
                # Lines 9-15: record a fresh same-phase state.
                self._received[port] = True
                self._received_count += 1
                self._store(incoming_value)
                if self._received_count >= self.quorum:
                    self._v = 0.5 * (self._v_min + self._v_max)
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

    # -- Algorithm 1 helper functions ---------------------------------------

    def _reset(self) -> None:
        """Lines 18-20: clear the port bits, re-anchor the extremes.

        Every change of ``(v, p)`` passes through here, so this is also
        where the cached broadcast is dropped.
        """
        self._message = None
        received = self._received = [False] * self.n
        received[self.self_port] = True
        self._received_count = 1
        self._v_min = self._v
        self._v_max = self._v

    def _store(self, incoming_value: float) -> None:
        """Lines 21-25: fold one value into the phase extremes."""
        if incoming_value < self._v_min:
            self._v_min = incoming_value
        elif incoming_value > self._v_max:
            self._v_max = incoming_value

    def _check_output(self) -> None:
        """Line 16: output (and freeze) upon reaching ``p_end``."""
        if self._output is None and self._p >= self.end_phase:
            self._p = self.end_phase
            self._output = self._v

    def state_key(self) -> tuple:
        """Hashable full-state key (used by the model checker)."""
        return (
            self._v,
            self._p,
            tuple(self._received),
            self._v_min,
            self._v_max,
            self._output,
        )
