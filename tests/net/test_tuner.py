"""Tests for the asyncio tuner client against a live loopback station."""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.client.protocol import RecoveryPolicy, object_walk
from repro.faults import FaultConfig
from repro.io.wire import AirFrame, encode_air_frame
from repro.net import BroadcastStation, TunerClient, build_demo_program
from repro.net import tuner as tuner_module
from repro.net.tuner import TunerProtocolError


@pytest.fixture(scope="module")
def program():
    return build_demo_program(items=10, channels=2, fanout=3, seed=3)


def run(coro):
    return asyncio.run(coro)


class TestFetch:
    def test_fetch_matches_object_walk(self, program):
        leaf_of = {
            leaf.label: leaf for leaf in program.schedule.tree.data_nodes()
        }

        async def scenario():
            results = {}
            async with BroadcastStation(program) as station:
                async with TunerClient(station.host, station.port) as tuner:
                    assert tuner.cycle_length == program.cycle_length
                    for key in leaf_of:
                        results[key] = await tuner.fetch(key, 2)
            return results

        for key, result in run(scenario()).items():
            expected = object_walk(program, leaf_of[key], 2)
            assert result.access_time == expected.access_time
            assert result.tuning_time == expected.tuning_time
            assert result.channel_switches == expected.channel_switches
            assert result.payload == f"item:{key}".encode()

    def test_fetch_recovers_over_lossy_air(self, program):
        async def scenario():
            async with BroadcastStation(
                program, faults=FaultConfig(loss=0.3, seed=8)
            ) as station:
                async with TunerClient(
                    station.host,
                    station.port,
                    policy=RecoveryPolicy(max_cycles=12),
                ) as tuner:
                    return await tuner.fetch("K001", 1)

        result = run(scenario())
        assert not result.abandoned
        assert result.payload == b"item:K001"

    def test_fetch_before_connect_raises(self, program):
        async def scenario():
            tuner = TunerClient("127.0.0.1", 1)
            with pytest.raises(TunerProtocolError, match="not connected"):
                await tuner.fetch("K001", 1)

        run(scenario())


class TestProtocolErrors:
    def test_wrong_airing_is_a_protocol_error(self, program):
        """A station answering the wrong slot must be called out."""

        async def rogue(reader, writer):
            writer.write(
                json.dumps(
                    {"cycle_length": 10, "channels": 2, "bucket_size": 96}
                ).encode()
                + b"\n"
            )
            await reader.readline()  # the LISTEN
            writer.write(
                encode_air_frame(
                    AirFrame(channel=2, absolute_slot=999, payload=b"x")
                )
            )
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(rogue, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with TunerClient("127.0.0.1", port) as tuner:
                    with pytest.raises(
                        TunerProtocolError, match="station aired"
                    ):
                        await tuner.fetch("K001", 1)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_hangup_mid_walk_is_a_protocol_error(self, program):
        async def mute(reader, writer):
            writer.write(
                json.dumps(
                    {"cycle_length": 10, "channels": 2, "bucket_size": 96}
                ).encode()
                + b"\n"
            )
            await reader.readline()
            writer.close()  # hang up instead of answering

        async def scenario():
            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with TunerClient("127.0.0.1", port) as tuner:
                    with pytest.raises(
                        TunerProtocolError, match="hung up"
                    ):
                        await tuner.fetch("K001", 1)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_malformed_welcome_is_a_protocol_error(self, program):
        async def garbler(reader, writer):
            writer.write(b"not json at all\n")
            await writer.drain()

        async def scenario():
            server = await asyncio.start_server(garbler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                tuner = TunerClient("127.0.0.1", port)
                with pytest.raises(TunerProtocolError, match="WELCOME"):
                    await tuner.connect()
                await tuner.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_silent_station_times_out_the_welcome(self, monkeypatch):
        """A station that accepts and never greets must not hold the
        tuner: connect gives up once the WELCOME deadline passes."""
        monkeypatch.setattr(tuner_module, "WELCOME_TIMEOUT", 0.2)

        async def silent(reader, writer):
            try:
                await reader.read()  # accept, never greet, wait for hang-up
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                tuner = TunerClient("127.0.0.1", port)
                started = time.perf_counter()
                with pytest.raises(TunerProtocolError, match="within 0.2s"):
                    await asyncio.wait_for(tuner.connect(), 10.0)
                assert time.perf_counter() - started < 2.0
                await tuner.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_outer_cancellation_is_not_swallowed(self):
        """A caller's own deadline, shorter than the WELCOME one, still
        cancels connect: the handler converts only its own timer."""

        async def silent(reader, writer):
            try:
                await reader.read()
            finally:
                writer.close()

        async def scenario():
            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                tuner = TunerClient("127.0.0.1", port)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(tuner.connect(), 0.2)
                await tuner.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_aclose_is_idempotent(self, program):
        async def scenario():
            async with BroadcastStation(program) as station:
                tuner = await TunerClient(
                    station.host, station.port
                ).connect()
                await tuner.aclose()
                await tuner.aclose()

        run(scenario())
