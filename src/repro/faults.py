"""Seeded unreliable-channel model: bucket loss, bursts, corruption.

The paper's analysis assumes every bucket a client tunes to arrives
intact; a wireless medium does not. This module is the single source of
truth for *what the channel does to a frame*, shared by the object-level
recovery walk (:func:`repro.client.protocol.recovering_walk`),
the serving loop (:class:`repro.server.BroadcastServer`) and the wire
layer (:mod:`repro.io.wire`):

* **i.i.d. loss** — each (channel, slot) airing is independently lost
  with a per-channel probability (``loss``);
* **burst loss** — a two-state Gilbert–Elliott chain per channel
  (:class:`BurstConfig`): a *good* state using the base loss rate and a
  *bad* state with its own (much higher) rate, entered/left with the
  configured transition probabilities — the fading-channel shape i.i.d.
  models miss;
* **corruption** — a delivered frame's payload is damaged with
  probability ``corruption``; at the wire layer the per-frame checksum
  (:mod:`repro.io.wire` CRC-32) turns this into a detected
  :class:`~repro.io.wire.WireFormatError`, so the client treats it like
  a loss (it cannot trust any bit of the frame).

Everything is driven by per-channel deterministic streams derived from
``FaultConfig.seed``: the outcome of (channel, absolute slot) is a pure
function of the config, independent of query order — the property the
seeded-determinism tests lock and the differential p=0 invariant relies
on. A :class:`FaultInjector` never touches the caller's RNG stream, so
enabling a fault model with zero probabilities leaves every other
measured number bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .obs.events import FaultInjected, Tracer

__all__ = [
    "OK",
    "LOST",
    "CORRUPT",
    "BurstConfig",
    "FaultConfig",
    "FaultInjector",
    "corrupt_frame",
    "transmit_cycle",
]

OK = "ok"
LOST = "lost"
CORRUPT = "corrupt"

_BLOCK = 512  # outcome streams extend in fixed blocks → order-independent


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class BurstConfig:
    """Gilbert–Elliott two-state burst-loss parameters (per channel).

    ``enter_bad``/``exit_bad`` are the per-slot transition probabilities
    good→bad and bad→good; ``loss_bad`` is the loss rate inside a burst
    (the good-state rate is :attr:`FaultConfig.loss`). The stationary
    loss rate is ``(enter_bad · loss_bad + exit_bad · loss_good) /
    (enter_bad + exit_bad)``.
    """

    enter_bad: float = 0.05
    exit_bad: float = 0.25
    loss_bad: float = 0.7

    def __post_init__(self) -> None:
        _check_probability(self.enter_bad, "enter_bad")
        _check_probability(self.exit_bad, "exit_bad")
        _check_probability(self.loss_bad, "loss_bad")


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of one unreliable broadcast medium.

    Parameters
    ----------
    loss:
        Per-slot bucket-loss probability — a scalar applied to every
        channel, or a sequence with one entry per channel (channel ``c``
        uses entry ``c - 1``; channels beyond the sequence reuse the
        last entry). In burst mode this is the *good*-state rate.
    corruption:
        Probability that a delivered (non-lost) frame is corrupted in
        flight. Detected by the wire frame's CRC-32; an object-level
        walk counts it separately but recovers the same way as a loss.
    burst:
        Optional :class:`BurstConfig` switching the loss process from
        i.i.d. to Gilbert–Elliott.
    seed:
        Root seed of the per-channel outcome streams. Same seed, same
        config → same loss/corruption pattern, always.
    """

    loss: float | Sequence[float] = 0.0
    corruption: float = 0.0
    burst: BurstConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.loss, (int, float)):
            _check_probability(float(self.loss), "loss")
        else:
            rates = tuple(float(rate) for rate in self.loss)
            if not rates:
                raise ValueError("per-channel loss sequence must be non-empty")
            for rate in rates:
                _check_probability(rate, "loss")
            object.__setattr__(self, "loss", rates)
        _check_probability(self.corruption, "corruption")

    def loss_for(self, channel: int) -> float:
        """Good-state loss probability of 1-based ``channel``."""
        if isinstance(self.loss, tuple):
            index = min(channel - 1, len(self.loss) - 1)
            return self.loss[index]
        return float(self.loss)

    @property
    def is_lossless(self) -> bool:
        """True when no airing can ever be lost or corrupted."""
        if self.corruption > 0.0:
            return False
        if isinstance(self.loss, tuple):
            base_lossy = any(rate > 0.0 for rate in self.loss)
        else:
            base_lossy = self.loss > 0.0
        if base_lossy:
            return False
        if self.burst is not None:
            return not (self.burst.enter_bad > 0.0 and self.burst.loss_bad > 0.0)
        return True


class FaultInjector:
    """Materialised per-(channel, slot) outcomes of a :class:`FaultConfig`.

    ``outcome(channel, slot)`` answers what happened to the airing of
    1-based ``channel`` at 1-based absolute ``slot``: :data:`OK`,
    :data:`LOST` or :data:`CORRUPT`. Outcomes are generated lazily in
    fixed-size blocks from per-channel ``default_rng([seed, channel])``
    streams and cached, so the answer is a pure function of the config —
    query order, interleaving across channels, and sharing one injector
    between many clients all leave the pattern untouched (every client
    listening to the same airing sees the same fate, as on real air).

    ``shifted(origin)`` returns a view whose slot axis is displaced by
    ``origin`` absolute slots while sharing this injector's cache — the
    serving loop hands each cycle's clients a view anchored at the
    cycle's start so their cycle-relative walks index global air time.

    When a ``tracer`` is attached, every non-OK query answer is
    narrated as a :class:`~repro.obs.events.FaultInjected` event at the
    *global* absolute slot (``origin + slot``), so shifted per-cycle
    views land on one shared slot axis in the trace.
    """

    def __init__(
        self,
        config: FaultConfig,
        *,
        origin: int = 0,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.origin = origin
        self.tracer = tracer
        self._outcomes: dict[int, list[str]] = {}
        self._states: dict[int, bool] = {}  # per-channel "in bad state"

    # -- queries ------------------------------------------------------------
    def outcome(self, channel: int, slot: int) -> str:
        """Fate of the airing on ``channel`` at absolute ``slot`` (1-based)."""
        if channel < 1 or slot < 1:
            raise ValueError("channel and slot are 1-based")
        if self.config.is_lossless:
            return OK
        index = self.origin + slot - 1
        pattern = self._outcomes.setdefault(channel, [])
        if index >= len(pattern):
            self._extend(channel, pattern, index + 1)
        fate = pattern[index]
        if fate != OK and self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                FaultInjected(
                    channel=channel, absolute_slot=index + 1, fate=fate
                )
            )
        return fate

    def lost(self, channel: int, slot: int) -> bool:
        """Whether the airing is unusable (lost *or* corrupt)."""
        return self.outcome(channel, slot) != OK

    def shifted(self, origin: int) -> "FaultInjector":
        """A view of the same air displaced by ``origin`` absolute slots."""
        view = FaultInjector.__new__(FaultInjector)
        view.config = self.config
        view.origin = self.origin + origin
        view.tracer = self.tracer
        view._outcomes = self._outcomes
        view._states = self._states
        return view

    # -- stream generation --------------------------------------------------
    def _extend(self, channel: int, pattern: list[str], needed: int) -> None:
        """Grow ``channel``'s outcome stream to at least ``needed`` slots.

        Always extends in whole :data:`_BLOCK`-slot blocks with exactly
        three uniform draws per slot (state transition, loss,
        corruption), so the generated pattern never depends on how the
        requests that triggered growth were sized or ordered.
        """
        config = self.config
        blocks = -(-max(needed - len(pattern), 1) // _BLOCK)
        count = blocks * _BLOCK
        stream = self._stream(channel, start=len(pattern))
        draws = stream.random((count, 3))
        loss_good = config.loss_for(channel)
        burst = config.burst
        bad = self._states.get(channel, False)
        for u_state, u_loss, u_corrupt in draws:
            if burst is not None:
                bad = (
                    (not (u_state < burst.exit_bad))
                    if bad
                    else (u_state < burst.enter_bad)
                )
            loss_rate = burst.loss_bad if (burst is not None and bad) else (
                loss_good
            )
            if u_loss < loss_rate:
                pattern.append(LOST)
            elif u_corrupt < config.corruption:
                pattern.append(CORRUPT)
            else:
                pattern.append(OK)
        self._states[channel] = bad

    def _stream(self, channel: int, start: int) -> np.random.Generator:
        """The channel's generator advanced to slot index ``start``.

        Each slot consumes exactly three ``random()`` doubles, so a
        fresh generator skipped ``3 · start`` doubles reproduces the
        stream's continuation no matter how earlier blocks were sized.
        """
        stream = np.random.default_rng([self.config.seed, channel])
        if start:
            stream.random((start, 3))
        return stream

    # -- diagnostics ---------------------------------------------------------
    def pattern(self, channel: int, slots: int) -> list[str]:
        """The first ``slots`` outcomes on ``channel`` (origin-relative)."""
        return [self.outcome(channel, slot) for slot in range(1, slots + 1)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector seed={self.config.seed} origin={self.origin} "
            f"channels={sorted(self._outcomes)}>"
        )


def corrupt_frame(frame: bytes, rng: np.random.Generator) -> bytes:
    """Flip one random byte of ``frame`` — guaranteed-detectable damage.

    The XOR mask is drawn from 1..255 so the byte always changes; the
    wire frame's CRC-32 therefore always catches the damage (the
    checksum field itself may be the flipped byte — still a mismatch —
    and a flipped marker byte is an unknown-version error).
    """
    if not frame:
        return frame
    position = int(rng.integers(0, len(frame)))
    mask = int(rng.integers(1, 256))
    damaged = bytearray(frame)
    damaged[position] ^= mask
    return bytes(damaged)


def transmit_cycle(
    frames: list[list[bytes]],
    injector: FaultInjector,
    *,
    rng: np.random.Generator | None = None,
) -> list[list[bytes | None]]:
    """Push one encoded cycle through the unreliable channel.

    Returns the received grid: ``None`` where the airing was lost,
    byte-damaged frames where it was corrupted (``rng`` picks the
    damage; defaults to a generator seeded from the fault config),
    untouched frames otherwise.
    """
    if rng is None:
        rng = np.random.default_rng([injector.config.seed, 0xC0])
    received: list[list[bytes | None]] = []
    for channel_index, row in enumerate(frames, start=1):
        out_row: list[bytes | None] = []
        for slot_index, frame in enumerate(row, start=1):
            fate = injector.outcome(channel_index, slot_index)
            if fate == LOST:
                out_row.append(None)
            elif fate == CORRUPT:
                out_row.append(corrupt_frame(frame, rng))
            else:
                out_row.append(frame)
        received.append(out_row)
    return received
