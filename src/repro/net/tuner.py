"""The asyncio tuner: a mobile client on a real socket.

A :class:`TunerClient` is the live counterpart of
:func:`repro.io.wire_client.wire_walk` — the *same*
:class:`~repro.client.walk.PointerWalk` state machine, driven over a
TCP connection to a :class:`~repro.net.station.BroadcastStation`
instead of an in-memory frame grid. For each airing the walk names, the
tuner sends one ``LISTEN`` control line, dozes until the envelope
arrives (between those requests it reads nothing — selective tuning is
what the paper's tuning-time metric charges for), decodes the frame,
and feeds the machine: channel hops and loss recovery all fall out of
the shared walk logic.

Frames arrive through :class:`repro.io.wire.FrameStreamDecoder`, so the
tuner is indifferent to how TCP fragments the stream. A lost airing
arrives as a lost-marker envelope (the client was tuned in; it heard
nothing); a corrupted airing arrives as damaged bytes whose CRC check
fails in :func:`~repro.io.wire.decode_bucket` — both feed
:meth:`PointerWalk.on_loss` and recover per the configured
:class:`~repro.client.protocol.RecoveryPolicy`, mirroring
:func:`~repro.client.protocol.recovering_walk` slot for slot.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque

from ..client.protocol import RecoveryPolicy
from ..client.walk import PointerWalk, WalkResult
from ..exceptions import ReproError
from ..io.wire import AirFrame, FrameStreamDecoder, WireFormatError, decode_bucket
from ..obs.events import Tracer
from ..perf import PerfRecorder

__all__ = ["TunerClient", "TunerProtocolError", "WELCOME_TIMEOUT"]

_READ_CHUNK = 4096

#: Seconds :meth:`TunerClient.connect` waits for the TCP connection and
#: the station's WELCOME line together. A station that accepts and never
#: greets (an overflowed accept queue, a half-open peer) would otherwise
#: hold the tuner forever.
WELCOME_TIMEOUT = 10.0


class TunerProtocolError(ReproError):
    """The station answered out of protocol (wrong airing, dead stream)."""


class TunerClient:
    """One mobile receiver connected to a station's TCP interface.

    Parameters
    ----------
    host, port:
        The station's bound address.
    policy:
        Loss-recovery policy for every fetch on this connection.
    perf:
        Optional shared recorder; counters are namespaced ``net.tuner.*``.
    tracer:
        Optional :class:`~repro.obs.events.Tracer` handed to every
        :class:`~repro.client.walk.PointerWalk` this tuner drives, so a
        live fleet narrates ``slot_read``/``channel_hop``/
        ``walk_finished`` events in the same coordinates as the
        in-process simulator.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RecoveryPolicy | None = None,
        perf: PerfRecorder | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy
        self.perf = perf if perf is not None else PerfRecorder()
        self.tracer = tracer
        self.cycle_length: int | None = None
        self.channels: int | None = None
        self.bucket_size: int | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._decoder = FrameStreamDecoder()
        self._arrived: deque[AirFrame] = deque()

    # -- lifecycle ----------------------------------------------------------
    async def connect(self) -> "TunerClient":
        """Open the connection and read the station's WELCOME metadata.

        Raises :class:`TunerProtocolError` when the WELCOME line has not
        arrived within :data:`WELCOME_TIMEOUT` seconds.
        """
        task = asyncio.current_task()
        assert task is not None
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        # One timer that cancels this task: asyncio.wait_for would wrap
        # the handshake in a second task on Python 3.10.
        timer = asyncio.get_running_loop().call_later(WELCOME_TIMEOUT, expire)
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
            line = await self._reader.readline()
        except asyncio.CancelledError:
            # Re-raise unless the timer alone cancelled us (uncancel,
            # Python 3.11+, counts cancellations requested from outside).
            if not expired or (hasattr(task, "uncancel") and task.uncancel()):
                raise
            if self._writer is not None:
                self._writer.close()
            self._reader = self._writer = None
            raise TunerProtocolError(
                f"no WELCOME from {self.host}:{self.port} within "
                f"{WELCOME_TIMEOUT}s"
            ) from None
        finally:
            timer.cancel()
        if not line:
            raise TunerProtocolError("station closed before WELCOME")
        try:
            welcome = json.loads(line)
            self.cycle_length = int(welcome["cycle_length"])
            self.channels = int(welcome["channels"])
            self.bucket_size = int(welcome["bucket_size"])
        except (ValueError, KeyError, TypeError) as error:
            raise TunerProtocolError(
                f"malformed WELCOME line {line!r}"
            ) from error
        self.perf.count("net.tuner.connections")
        return self

    async def aclose(self) -> None:
        """Say goodbye and close the socket; idempotent."""
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is None:
            return
        try:
            writer.write(b"BYE\n")
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def __aenter__(self) -> "TunerClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- the access protocol -------------------------------------------------
    async def fetch(
        self, key: str, tune_slot: int, *, walk_id: int | None = None
    ) -> WalkResult:
        """Run one full access-protocol walk for ``key`` over the socket.

        ``tune_slot`` is the cycle-relative slot (1..cycle_length) the
        client tunes into channel 1 — identical semantics (and, at zero
        loss, identical measured numbers) to
        :func:`repro.client.protocol.object_walk` on the same program.
        ``walk_id`` stamps the traced events' ``walk`` correlation field
        so a concurrent fleet's interleaved trace stays attributable.
        """
        if self._reader is None or self.cycle_length is None:
            raise TunerProtocolError("not connected; call connect() first")
        walk = PointerWalk(
            key,
            tune_slot,
            self.cycle_length,
            policy=self.policy,
            tracer=self.tracer,
            walk_id=walk_id,
        )
        while (listen := walk.next_listen()) is not None:
            air = await self._listen(listen.channel, listen.absolute_slot)
            # Wire-propagated causal context (zeros when untraced) must
            # reach the walk before the version stamp: a cutover closes
            # the current segment span and the new one parents onto the
            # publish span this very frame carries.
            walk.observe_trace(air.trace_id, air.span_id)
            if walk.observe_version(air.schedule_version):
                # The air's schedule version changed under the walk
                # (the station cut over to a new plan); the walk has
                # already consumed this read and restarted from the
                # root per its policy — a recovery event, never a
                # corrupt bucket.
                self.perf.count("net.tuner.cutovers")
                continue
            if air.lost:
                walk.on_loss()
                self.perf.count("net.tuner.lost")
                continue
            slot = (listen.absolute_slot - 1) % self.cycle_length + 1
            try:
                bucket = decode_bucket(
                    air.payload, channel=listen.channel, offset=slot
                )
            except WireFormatError:
                # Damaged in flight: the CRC caught it, treat as loss.
                walk.on_loss(corrupt=True)
                self.perf.count("net.tuner.corrupt")
                continue
            walk.deliver(bucket)
            self.perf.count("net.tuner.frames")
        result = walk.result
        self.perf.count("net.tuner.fetches")
        self.perf.count("net.tuner.reads", result.tuning_time)
        self.perf.count("net.tuner.retries", result.retries)
        if result.abandoned:
            self.perf.count("net.tuner.abandoned")
        return result

    async def _listen(self, channel: int, absolute_slot: int) -> AirFrame:
        """Ask for one airing, doze until its envelope arrives."""
        assert self._writer is not None and self._reader is not None
        self._writer.write(b"LISTEN %d %d\n" % (channel, absolute_slot))
        await self._writer.drain()
        air = await self._next_air()
        if air.channel != channel or air.absolute_slot != absolute_slot:
            raise TunerProtocolError(
                f"asked for channel {channel} slot {absolute_slot}, "
                f"station aired channel {air.channel} slot "
                f"{air.absolute_slot}"
            )
        return air

    async def _next_air(self) -> AirFrame:
        assert self._reader is not None
        while not self._arrived:
            chunk = await self._reader.read(_READ_CHUNK)
            if not chunk:
                raise TunerProtocolError("station hung up mid-walk")
            self._arrived.extend(self._decoder.feed(chunk))
        return self._arrived.popleft()
