"""Hostile cross-traffic senders for adversarial scenario search.

Neither sender implements a congestion-control law: they are *attack
traffic*, deliberately unresponsive, used by :mod:`repro.adversary` to
stress the scavenger guarantee (and available from the CLI like any
other protocol).  Both draw their phase/period jitter from a dedicated
seeded stream, so a hostile scenario replays bit-identically.

* :class:`BurstFloodSender` — the bounded-burst flooder: every
  (jittered) period it blasts a fixed packet burst back-to-back,
  filling the bottleneck queue in one shot and then going silent.
* :class:`OnOffSquareSender` — a square-wave paced sender alternating
  between a hostile ON rate and silence, with jittered phase and
  half-period lengths; the classic on/off cross-traffic pattern that
  defeats naive delay-based controllers.
"""

from __future__ import annotations

from ..core.rng import Rng
from ..core.tracepoint import tracepoint
from ..sim.engine import Event, Simulator
from ..sim.flow import Flow
from .base import RATE_CHANGE, RateSender, SenderBase

BURST = tracepoint("hostile.burst", "packets")


class BurstFloodSender(SenderBase):
    """Periodic packet-burst flooder (bounded bursts, no control law).

    Every period (jittered by ``jitter_frac``) the sender transmits
    ``burst_packets`` MSS-sized packets back-to-back, then idles until
    the next burst.  The first burst fires after a seeded random phase
    offset within one period, so a population of flooders does not
    phase-lock.  ACKs and losses are ignored — the flood never backs
    off.
    """

    def __init__(
        self,
        name: str = "burst-flood",
        burst_packets: int = 32,
        period_s: float = 0.5,
        jitter_frac: float = 0.1,
        seed: int = 0,
    ):
        super().__init__(name)
        if burst_packets < 1:
            raise ValueError("burst_packets must be >= 1")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 <= jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        self.burst_packets = burst_packets
        self.period_s = period_s
        self.jitter_frac = jitter_frac
        self.seed = seed
        self._burst_event: Event | None = None

    def bind(self, sim: Simulator, flow: Flow) -> None:
        super().bind(sim, flow)
        # Dedicated hostile stream: jitter is part of the attack genome,
        # not of the generic per-sender pacing jitter.
        self._hostile_rng = Rng(f"hostile:burst:{self.seed}:{flow.flow_id}")

    def on_start(self) -> None:
        phase_s = self._hostile_rng.random() * self.period_s
        self._burst_event = self.sim.schedule(phase_s, self._fire_burst)

    def stop(self) -> None:
        super().stop()
        if self._burst_event is not None:
            self._burst_event.cancel()
            self._burst_event = None

    def _fire_burst(self) -> None:
        self._burst_event = None
        if self.stopped or self.paused:
            return
        sent = 0
        for _ in range(self.burst_packets):
            if not self._transmit_one():
                break
            sent += 1
        if sent and self.tracer is not None:
            self.trace(BURST, sent)
        jitter = 1.0 + self.jitter_frac * (2.0 * self._hostile_rng.random() - 1.0)
        self._burst_event = self.sim.schedule(self.period_s * jitter, self._fire_burst)


class OnOffSquareSender(RateSender):
    """Square-wave paced sender: ON at ``on_mbps``, then silent.

    The ON and OFF half-periods (``on_s``/``off_s``) are each jittered
    by ``jitter_frac`` per cycle, and the wave starts with a seeded
    random phase offset within one full period.  Toggling ON uses
    :meth:`RateSender.repace` so the hostile rate step takes effect
    immediately instead of after one stale pacing interval.
    """

    def __init__(
        self,
        name: str = "onoff",
        on_mbps: float = 20.0,
        on_s: float = 1.0,
        off_s: float = 1.0,
        jitter_frac: float = 0.1,
        seed: int = 0,
    ):
        if on_mbps <= 0:
            raise ValueError("on_mbps must be positive")
        if on_s <= 0 or off_s <= 0:
            raise ValueError("on_s and off_s must be positive")
        if not 0.0 <= jitter_frac < 1.0:
            raise ValueError("jitter_frac must be in [0, 1)")
        super().__init__(name, initial_rate_bps=on_mbps * 1e6)
        self.on_mbps = on_mbps
        self.on_s = on_s
        self.off_s = off_s
        self.jitter_frac = jitter_frac
        self.seed = seed
        self._toggle_event: Event | None = None

    def bind(self, sim: Simulator, flow: Flow) -> None:
        super().bind(sim, flow)
        self._hostile_rng = Rng(f"hostile:onoff:{self.seed}:{flow.flow_id}")

    def _jittered(self, half_s: float) -> float:
        return half_s * (
            1.0 + self.jitter_frac * (2.0 * self._hostile_rng.random() - 1.0)
        )

    def on_start(self) -> None:
        # Random phase within one full period: start mid-ON or mid-OFF.
        period_s = self.on_s + self.off_s
        phase_s = self._hostile_rng.random() * period_s
        if phase_s < self.on_s:
            super().on_start()  # start the pacing loop (ON)
            self._toggle_event = self.sim.schedule(self.on_s - phase_s, self._go_off)
        else:
            self.paused = True
            self._toggle_event = self.sim.schedule(period_s - phase_s, self._go_on)

    def stop(self) -> None:
        super().stop()
        if self._toggle_event is not None:
            self._toggle_event.cancel()
            self._toggle_event = None

    def _go_on(self) -> None:
        self._toggle_event = None
        if self.stopped:
            return
        self.paused = False
        self.set_rate(self.on_mbps * 1e6, reason="hostile:on")
        # Abrupt rate step: re-pace now rather than letting a pacing
        # interval scheduled under the old (silent) regime linger.
        self.repace()
        self._toggle_event = self.sim.schedule(self._jittered(self.on_s), self._go_off)

    def _go_off(self) -> None:
        self._toggle_event = None
        if self.stopped:
            return
        self.paused = True
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        self.trace(RATE_CHANGE, 0.0, "hostile:off")
        self._toggle_event = self.sim.schedule(self._jittered(self.off_s), self._go_on)
