"""Tests for the PFS client fan-out and I/O server."""

from types import SimpleNamespace

import pytest

from repro.config import ServerConfig
from repro.core.sais import HintCapsuler, HintMessager
from repro.des import Environment
from repro.errors import SimulationError
from repro.net import Link, Packet, Switch, decode_aff_core_id
from repro.net.fastpath import WireFastPath
from repro.pfs import PfsClient, StripeLayout
from repro.pfs.server import IoServer
from repro.rng import RngFactory
from repro.units import KiB, MiB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def layout():
    return StripeLayout(strip_size=64 * KiB, n_servers=4)


class TestPfsClient:
    def make_client(self, env, layout, hint=False):
        submitted = []
        client = PfsClient(
            env,
            client_index=0,
            layout=layout,
            submit=submitted.append,
            hint_messager=HintMessager() if hint else None,
        )
        return client, submitted

    def test_issue_fans_out_one_strip_request_per_extent(self, env, layout):
        client, submitted = self.make_client(env, layout)
        outstanding = client.issue(offset=0, size=256 * KiB, consumer_core=2)
        assert outstanding.expected == 4
        assert len(submitted) == 4
        assert {req.server for req in submitted} == {0, 1, 2, 3}

    def test_strip_tokens_are_unique_across_requests(self, env, layout):
        client, submitted = self.make_client(env, layout)
        client.issue(0, 128 * KiB, consumer_core=0)
        client.issue(0, 128 * KiB, consumer_core=1)  # same byte range
        tokens = [req.strip_id for req in submitted]
        assert len(tokens) == len(set(tokens))

    def test_hints_attached_when_sais_enabled(self, env, layout):
        client, submitted = self.make_client(env, layout, hint=True)
        client.issue(0, 128 * KiB, consumer_core=5)
        assert all(req.hint_aff_core_id == 5 for req in submitted)

    def test_no_hints_on_stock_client(self, env, layout):
        client, submitted = self.make_client(env, layout)
        client.issue(0, 128 * KiB, consumer_core=5)
        assert all(req.hint_aff_core_id is None for req in submitted)
        assert all(req.issuing_core == 5 for req in submitted)

    def test_strip_arrival_flows_to_consumer_queue(self, env, layout):
        client, submitted = self.make_client(env, layout)
        outstanding = client.issue(0, 128 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=submitted[0].strip_id,
        )
        client.strip_arrived(packet, handled_on=3)
        got = outstanding.arrivals.get()
        env.run()
        assert got.value.handled_on == 3
        assert outstanding.arrived == 1
        assert not outstanding.complete

    def test_unknown_request_arrival_rejected(self, env, layout):
        client, _ = self.make_client(env, layout)
        packet = Packet(
            size=64 * KiB, src_server=0, dst_client=0, request_id=999, strip_id=0
        )
        with pytest.raises(SimulationError):
            client.strip_arrived(packet, handled_on=0)

    def test_too_many_arrivals_rejected(self, env, layout):
        client, submitted = self.make_client(env, layout)
        outstanding = client.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=submitted[0].strip_id,
        )
        client.strip_arrived(packet, handled_on=0)
        with pytest.raises(SimulationError):
            client.strip_arrived(packet, handled_on=0)

    def test_retire_requires_completion(self, env, layout):
        client, submitted = self.make_client(env, layout)
        outstanding = client.issue(0, 128 * KiB, consumer_core=0)
        with pytest.raises(SimulationError):
            client.retire(outstanding.request.request_id)

    def test_retire_cleans_tracking(self, env, layout):
        client, submitted = self.make_client(env, layout)
        outstanding = client.issue(0, 64 * KiB, consumer_core=0)
        packet = Packet(
            size=64 * KiB,
            src_server=0,
            dst_client=0,
            request_id=outstanding.request.request_id,
            strip_id=submitted[0].strip_id,
        )
        client.strip_arrived(packet, handled_on=0)
        client.retire(outstanding.request.request_id)
        assert client.in_flight == 0
        with pytest.raises(SimulationError):
            client.retire(outstanding.request.request_id)

    def test_locate_request(self, env, layout):
        client, _ = self.make_client(env, layout)
        outstanding = client.issue(0, 64 * KiB, consumer_core=6)
        assert client.locate_request(outstanding.request.request_id) == 6
        assert client.locate_request(12345) is None


class RecordingNic:
    """Stand-in client NIC: no wire time; records each packet it gets."""

    def __init__(self):
        self.delivered = []

    def admit(self, nbytes, arrival):
        return arrival

    def complete_rx(self, packet):
        self.delivered.append(packet)


class TestIoServer:
    def make_server(self, env, capsuler=None, **config_kwargs):
        # The real wire over a switch that costs no time, so a reply
        # lands as its last uplink bit leaves.
        nic = RecordingNic()
        wire = WireFastPath(
            env,
            Switch(env, backplane_bandwidth=float("inf")),
            [SimpleNamespace(nic=nic)],
        )
        server = IoServer(
            env,
            index=0,
            config=ServerConfig(**config_kwargs),
            uplink=Link(env, bandwidth=125 * MiB),
            fastpath=wire,
            rng=RngFactory(1).stream("server0"),
            capsuler=capsuler,
        )
        return server, nic.delivered

    def request(self, server=0, size=64 * KiB, offset=0, hint=None):
        from repro.pfs.request import StripRequest

        return StripRequest(
            request_id=1,
            client=0,
            server=server,
            strip_id=7,
            offset=offset,
            size=size,
            hint_aff_core_id=hint,
            issuing_core=2,
        )

    def test_serves_strip_as_packet(self, env):
        server, delivered = self.make_server(env)
        server.accept(self.request(), env.now)
        env.run()
        assert len(delivered) == 1
        packet = delivered[0]
        assert packet.size == 64 * KiB
        assert packet.strip_id == 7
        assert packet.request_core == 2
        assert server.strips_served == 1

    def test_wrong_server_rejected(self, env):
        server, _ = self.make_server(env)
        with pytest.raises(ValueError):
            server.accept(self.request(server=3), env.now)

    def test_capsuler_stamps_options(self, env):
        server, delivered = self.make_server(env, capsuler=HintCapsuler())
        server.accept(self.request(hint=4), env.now)
        env.run()
        assert decode_aff_core_id(delivered[0].options) == 4

    def test_no_capsuler_no_options(self, env):
        server, delivered = self.make_server(env)
        server.accept(self.request(hint=4), env.now)
        env.run()
        assert delivered[0].options == b""

    def test_page_cache_hit_is_deterministic_per_offset(self, env):
        server, _ = self.make_server(env, cache_hit_ratio=0.5)
        before = server.cache_hits
        server.accept(self.request(offset=0), env.now)
        server.accept(self.request(offset=0), env.now)
        env.run()
        hits = server.cache_hits - before
        assert hits in (0, 2)  # same offset -> same outcome both times

    def test_all_hits_when_ratio_one(self, env):
        server, _ = self.make_server(env, cache_hit_ratio=1.0)
        for offset in range(0, 10 * 64 * KiB, 64 * KiB):
            server.accept(self.request(offset=offset), env.now)
        env.run()
        assert server.cache_hits == 10
        assert server.disk.requests == 0

    def test_all_misses_when_ratio_zero(self, env):
        server, _ = self.make_server(env, cache_hit_ratio=0.0)
        server.accept(self.request(), env.now)
        env.run()
        assert server.cache_hits == 0
        assert server.disk.requests == 1

    def test_hit_departs_after_the_folded_private_delays(self, env):
        """A hit's one process starts at its uplink request: arrival +
        service overhead + page-cache copy, summed as a timeout chain
        would sum them."""
        server, delivered = self.make_server(env, cache_hit_ratio=1.0)
        config = server.config
        arrival = 3e-6
        server.accept(self.request(), arrival)
        env.run()
        ready = (arrival + config.service_overhead) + 64 * KiB / config.cache_rate
        assert env.now == ready + server.uplink.serialization_time(64 * KiB)
        assert len(delivered) == 1
        # Process start, uplink completion and the wire's delivery
        # callback: no overhead or page-cache timeout left.
        assert env.events_processed == 3

    def test_miss_starts_at_its_disk_request(self, env):
        server, delivered = self.make_server(env, cache_hit_ratio=0.0)
        server.accept(self.request(), 2e-6)
        env.run(until=2e-6 + server.config.service_overhead)
        assert server.disk.requests == 0
        env.run()
        assert server.disk.requests == 1
        assert len(delivered) == 1

    def test_write_is_acked_after_the_buffered_copy(self, env):
        from repro.pfs.request import StripRequest

        server, delivered = self.make_server(env)
        config = server.config
        write = StripRequest(
            request_id=1,
            client=0,
            server=0,
            strip_id=7,
            offset=0,
            size=64 * KiB,
            issuing_core=2,
            is_write=True,
        )
        server.accept(write, 0.0)
        env.run()
        ack_at = (0.0 + config.service_overhead) + 64 * KiB / config.cache_rate
        (ack,) = delivered
        assert not ack.carries_data
        assert ack.size == server.ACK_SIZE
        assert server.bytes_served == 64 * KiB
        # The asynchronous flush reached the disk after the ack left.
        assert server.disk.bytes_written == 64 * KiB
        assert env.now >= ack_at + server.uplink.serialization_time(ack.size)
