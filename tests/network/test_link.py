"""Network link: timing arithmetic, packetisation, accounting modes."""

import dataclasses

import pytest

from repro.errors import LinkConfigurationError, NetworkError
from repro.network.clock import SimulatedClock
from repro.network.link import BITS_PER_KBIT, NetworkLink, PacketAccounting
from repro.network.profiles import LAN, PAPER_PROFILES, WAN_256, WAN_512, WAN_1024
from repro.network.stats import TrafficStats


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now == 0.0

    def test_advance_accumulates(self):
        clock = SimulatedClock()
        clock.advance(1.5)
        clock.advance(0.25)
        assert clock.now == 1.75

    def test_negative_advance_rejected(self):
        with pytest.raises(NetworkError):
            SimulatedClock().advance(-1)

    def test_reset(self):
        clock = SimulatedClock(10.0)
        clock.reset()
        assert clock.now == 0.0


class TestConfiguration:
    def test_negative_latency_rejected(self):
        with pytest.raises(LinkConfigurationError):
            NetworkLink(latency_s=-0.1, dtr_kbit_s=256)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(LinkConfigurationError):
            NetworkLink(latency_s=0.1, dtr_kbit_s=0)

    def test_zero_packet_size_rejected(self):
        with pytest.raises(LinkConfigurationError):
            NetworkLink(latency_s=0.1, dtr_kbit_s=256, packet_bytes=0)

    def test_negative_payload_rejected(self):
        link = WAN_256.create_link()
        with pytest.raises(LinkConfigurationError):
            link.transmit(-1, is_request=True)

    def test_kbit_is_binary(self):
        link = NetworkLink(latency_s=0.0, dtr_kbit_s=1)
        assert link.bits_per_second == BITS_PER_KBIT


class TestTiming:
    def test_latency_charged_per_message(self):
        link = NetworkLink(latency_s=0.15, dtr_kbit_s=256, packet_bytes=4096)
        link.round_trip(100, 100)
        assert link.stats.latency_seconds == pytest.approx(0.30)
        assert link.stats.messages == 2

    def test_paper_model_request_is_whole_packets(self):
        link = NetworkLink(
            latency_s=0.0,
            dtr_kbit_s=256,
            packet_bytes=4096,
            accounting=PacketAccounting.PAPER_MODEL,
        )
        delay = link.transmit(100, is_request=True)
        assert delay == pytest.approx(4096 * 8 / (256 * 1024))

    def test_paper_model_response_half_packet_correction(self):
        link = NetworkLink(
            latency_s=0.0,
            dtr_kbit_s=256,
            packet_bytes=4096,
            accounting=PacketAccounting.PAPER_MODEL,
        )
        delay = link.transmit(512, is_request=False)
        assert delay == pytest.approx((512 + 2048) * 8 / (256 * 1024))

    def test_payload_accounting_exact(self):
        link = NetworkLink(
            latency_s=0.0,
            dtr_kbit_s=1,
            accounting=PacketAccounting.PAYLOAD,
        )
        assert link.transmit(128, is_request=False) == pytest.approx(1.0)

    def test_padded_accounting_rounds_up(self):
        link = NetworkLink(
            latency_s=0.0,
            dtr_kbit_s=256,
            packet_bytes=1000,
            accounting=PacketAccounting.PADDED,
        )
        link.transmit(1500, is_request=False)
        assert link.stats.wire_bytes == 2000

    def test_packets_for(self):
        link = NetworkLink(latency_s=0, dtr_kbit_s=1, packet_bytes=1000)
        assert link.packets_for(0) == 1
        assert link.packets_for(1000) == 1
        assert link.packets_for(1001) == 2

    def test_clock_advances_by_delay(self):
        link = WAN_512.create_link()
        before = link.clock.now
        delay = link.round_trip(100, 5000)
        assert link.clock.now - before == pytest.approx(delay)

    def test_paper_table2_query_cell_reproduced(self):
        """One request packet + 819 nodes of 512 B + half-packet: the
        dtr=256 Query cell of Table 2 (12.98 s transfer) to the cent."""
        link = NetworkLink(latency_s=0.15, dtr_kbit_s=256, packet_bytes=4096)
        link.round_trip(100, 819 * 512)
        assert link.stats.total_seconds == pytest.approx(13.28, abs=0.01)


class TestStats:
    def test_reset_clears_everything(self):
        link = WAN_256.create_link()
        link.round_trip(10, 10)
        link.reset()
        assert link.stats.messages == 0
        assert link.clock.now == 0.0

    def test_delta_since(self):
        link = WAN_256.create_link()
        link.round_trip(10, 10)
        snapshot = link.stats.snapshot()
        link.round_trip(10, 10)
        delta = link.stats.delta_since(snapshot)
        assert delta.messages == 2
        assert delta.requests == 1
        assert delta.responses == 1

    def test_merge(self):
        link = WAN_256.create_link()
        link.round_trip(10, 10)
        other = link.stats.snapshot()
        link.stats.merge(other)
        assert link.stats.messages == 4

    def test_round_trips_property(self):
        link = WAN_256.create_link()
        link.round_trip(1, 1)
        link.round_trip(1, 1)
        assert link.stats.round_trips == 2


class TestStatsCoverEveryField:
    """``snapshot`` / ``delta_since`` / ``merge`` run over field lists
    computed once at import instead of reflecting per call; these tests
    fail when a dataclass field exists that one of them does not carry
    (or cannot combine), which is what the reflection used to guarantee."""

    @staticmethod
    def filled(scale=1):
        """Stats with a distinct non-zero value in every field."""
        stats = TrafficStats()
        for number, spec in enumerate(dataclasses.fields(TrafficStats), start=1):
            current = getattr(stats, spec.name)
            if isinstance(current, dict):
                value = {"QUERY": number * scale, f"OP{number}": scale}
            else:
                value = type(current)(number * scale)
            setattr(stats, spec.name, value)
        return stats

    def test_snapshot_copies_every_field_independently(self):
        stats = self.filled()
        snapshot = stats.snapshot()
        assert snapshot == stats
        assert dataclasses.asdict(snapshot).keys() == {
            spec.name for spec in dataclasses.fields(TrafficStats)
        }
        stats.record_opcode("QUERY", 10)
        stats.messages += 1
        assert snapshot == self.filled()

    def test_delta_since_subtracts_every_field(self):
        assert self.filled().delta_since(TrafficStats()) == self.filled()
        assert self.filled(3).delta_since(self.filled()) == self.filled(2)
        # Unchanged opcode entries drop out of the breakdowns.
        assert self.filled().delta_since(self.filled()) == TrafficStats()

    def test_merge_adds_every_field(self):
        stats = self.filled()
        stats.merge(self.filled(2))
        assert stats == self.filled(3)
        empty = TrafficStats()
        empty.merge(self.filled())
        assert empty == self.filled()

    def test_results_are_ordinary_stats_objects(self):
        delta = self.filled(2).delta_since(self.filled())
        assert isinstance(delta, TrafficStats)
        assert delta.round_trips == delta.messages / 2
        assert "messages=1" in repr(delta)
        delta.record_opcode("PING", 1)
        assert delta.opcode_messages["PING"] == 1


class TestProfiles:
    def test_paper_profiles_match_table_headers(self):
        assert [(p.latency_s, p.dtr_kbit_s) for p in PAPER_PROFILES] == [
            (0.15, 256),
            (0.15, 512),
            (0.05, 1024),
        ]

    def test_lan_is_orders_of_magnitude_faster(self):
        assert LAN.latency_s < WAN_256.latency_s / 50
        assert LAN.dtr_kbit_s > WAN_1024.dtr_kbit_s * 5

    def test_profile_str(self):
        assert "256" in str(WAN_256)

    def test_create_link_independent_instances(self):
        first = WAN_256.create_link()
        second = WAN_256.create_link()
        first.round_trip(1, 1)
        assert second.stats.messages == 0
