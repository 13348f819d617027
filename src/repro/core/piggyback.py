"""The Section VII bandwidth / convergence trade-off extension.

The paper observes that with *unlimited* bandwidth one can simulate the
classic reliable-channel algorithm of Dolev et al. [13] by
piggybacking the entire history of past messages, recovering rate
``1/2`` per phase trivially; and that piggybacking a *limited* set of
old messages should buy some convergence at some bandwidth cost,
leaving the exact trade-off open.

:class:`PiggybackDACProcess` realizes the limited version for the crash
model: alongside its own ``(value, phase)`` state each node relays up
to ``k`` of the freshest *other* states it has recently received.
Receivers treat relayed entries as ordinary state observations except
that they never consume a port's once-per-phase budget (a relay is not
a distinct same-phase *sender*, so counting it toward the quorum could
double-count a node). Concretely, a relayed entry:

- triggers a jump if its phase is higher (it is a genuine state of
  some node -- sound in the crash model where nobody lies);
- widens ``v_min``/``v_max`` if it belongs to the current phase.

With ``k = 0`` this is exactly DAC. As ``k`` grows each node sees a
larger sample of every phase, the phase extremes at different nodes
coincide more often, and the *measured* contraction per phase drops
below the worst-case ``1/2`` -- at a bandwidth cost of
``k * (VALUE_BITS + PHASE_BITS)`` extra bits per message, which
experiment X2 charges and reports.

The Byzantine analogue is intentionally absent: a Byzantine relay can
fabricate arbitrarily many "old messages", defeating the f+1-trimming
argument, and the paper leaves that trade-off as an open problem.
"""

from __future__ import annotations

from repro.core.dac import DACProcess
from repro.sim.messages import StateMessage
from repro.sim.node import Delivery


class PiggybackDACProcess(DACProcess):
    """DAC plus relaying of up to ``k`` recently-received states.

    Parameters
    ----------
    k:
        Maximum number of relayed ``(value, phase)`` entries per
        broadcast. ``0`` reduces to plain DAC (asserted by tests).

    Other parameters are those of :class:`~repro.core.dac.DACProcess`.
    """

    # The own message's relay history is absorbed like anyone else's
    # and can widen the phase extremes, so the echo must be delivered.
    ignores_own_echo = False

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
        k: int = 2,
    ) -> None:
        super().__init__(
            n,
            f,
            input_value,
            self_port,
            epsilon=epsilon,
            initial_range=initial_range,
            end_phase=end_phase,
            enable_jump=enable_jump,
        )
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        self.k = k
        # Freshest states heard from others, newest first, deduplicated.
        self._relay_buffer: list[tuple[float, int]] = []

    def broadcast(self) -> StateMessage:
        """Own state plus up to ``k`` relayed entries."""
        return StateMessage(self._v, self._p, tuple(self._relay_buffer[: self.k]))

    def _remember(self, value: float, phase: int) -> None:
        entry = (value, phase)
        if entry in self._relay_buffer:
            return
        self._relay_buffer.insert(0, entry)
        # Keep a small working set: prefer fresh, high-phase entries.
        self._relay_buffer.sort(key=lambda e: -e[1])
        del self._relay_buffer[self.k * 2 + 1 :]

    def _absorb_relayed(self, value: float, phase: int) -> None:
        """Apply one relayed state: jump on future, widen on current."""
        if phase > self._p:
            if self.enable_jump:
                self._v = value
                self._p = phase
                self._reset()
                self._check_output()
        elif phase == self._p:
            self._store(value)

    def deliver(self, deliveries: list[Delivery]) -> None:
        """DAC's rules on the primary entries, relay rules on history."""
        for port, message in deliveries:
            if self._output is not None:
                return
            # Primary entry: exact DAC treatment (and relay-remember it).
            primary = StateMessage(message.value, message.phase)
            if port != self.self_port:
                self._remember(float(message.value), int(message.phase))
            super().deliver([Delivery(port, primary)])
            if self._output is not None:
                return
            # Relayed entries: state observations without a port budget.
            for value, phase in message.history:
                self._remember(float(value), int(phase))
                self._absorb_relayed(float(value), int(phase))

    def state_key(self) -> tuple:
        return super().state_key() + (tuple(self._relay_buffer),)
