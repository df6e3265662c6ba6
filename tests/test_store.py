"""The storage subsystem: backends, the EventLog facade, sharding."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType, TrafficClass
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store import (
    BITSWAP_CODEC,
    HYDRA_CODEC,
    EventLog,
    JsonlBackend,
    MemoryBackend,
    ShardedBackend,
    SqliteBackend,
    StorageSpec,
    campaign_stores,
    copy_records,
    open_backend,
    open_file_backend,
    open_store,
    parse_spec,
)


def make_envelope(rng, timestamp, message_type=MessageType.GET_PROVIDERS, **kwargs):
    if message_type in (MessageType.GET_PROVIDERS, MessageType.ADD_PROVIDER):
        kwargs.setdefault("target_cid", CID.generate(rng))
    if kwargs.get("target_cid") is not None:
        kwargs.setdefault("target_key", kwargs["target_cid"].dht_key)
    return MessageEnvelope(
        timestamp=timestamp,
        sender=PeerID.generate(rng),
        sender_ip=f"10.1.2.{int(timestamp) % 200}",
        message_type=message_type,
        **kwargs,
    )


def backend_for(kind, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    if kind == "jsonl":
        return JsonlBackend(tmp_path / "log.jsonl", batch_size=7)
    if kind == "sqlite":
        return SqliteBackend(tmp_path / "log.sqlite", batch_size=7)
    if kind == "sharded":
        return ShardedBackend(
            [SqliteBackend(tmp_path / f"s{i}.sqlite", batch_size=5) for i in range(3)]
        )
    raise AssertionError(kind)


BACKENDS = ("memory", "jsonl", "sqlite", "sharded")


class TestEventLogContract:
    """The list contract every consumer of ``monitor.log`` relies on."""

    @pytest.fixture(params=BACKENDS)
    def log(self, request, tmp_path):
        log = EventLog(HYDRA_CODEC, backend_for(request.param, tmp_path))
        rng = random.Random(99)
        for i in range(30):
            log.append(make_envelope(rng, float(i)))
        return log

    def test_len_and_iteration_order(self, log):
        assert len(log) == 30
        timestamps = [entry.timestamp for entry in log]
        assert timestamps == [float(i) for i in range(30)]

    def test_reversed(self, log):
        assert [e.timestamp for e in reversed(log)] == [float(i) for i in range(29, -1, -1)]

    def test_slicing(self, log):
        assert [e.timestamp for e in log[:3]] == [0.0, 1.0, 2.0]
        assert [e.timestamp for e in log[27:]] == [27.0, 28.0, 29.0]
        assert [e.timestamp for e in log[5:8]] == [5.0, 6.0, 7.0]
        assert log[10:10] == []

    def test_indexing(self, log):
        assert log[0].timestamp == 0.0
        assert log[-1].timestamp == 29.0
        with pytest.raises(IndexError):
            log[30]
        with pytest.raises(IndexError):
            log[-31]

    def test_window(self, log):
        assert [e.timestamp for e in log.window(10.0, 14.0)] == [10.0, 11.0, 12.0, 13.0]
        assert list(log.window(100.0, 200.0)) == []

    def test_tail(self, log):
        assert [e.timestamp for e in log.tail(4)] == [26.0, 27.0, 28.0, 29.0]
        assert log.tail(0) == []

    def test_entries_classify(self, log):
        assert all(e.traffic_class is TrafficClass.DOWNLOAD for e in log)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_hydra_envelope_fields_survive(self, kind, tmp_path):
        rng = random.Random(3)
        log = EventLog(HYDRA_CODEC, backend_for(kind, tmp_path))
        relay = PeerID.generate(rng)
        log.append(make_envelope(rng, 1.0, via_relay=relay))
        log.append(make_envelope(rng, 2.0, MessageType.FIND_NODE, target_key=42))
        first, second = list(log)
        assert first.via_relay == relay
        assert first.target_cid is not None
        assert first.target_key == first.target_cid.dht_key
        assert second.target_key == 42
        assert second.target_cid is None
        assert second.traffic_class is TrafficClass.OTHER

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_bitswap_entries_survive(self, kind, tmp_path):
        rng = random.Random(4)
        log = EventLog(BITSWAP_CODEC, backend_for(kind, tmp_path))
        entries = [
            BitswapLogEntry(float(i), PeerID.generate(rng), "8.8.8.8", CID.generate(rng))
            for i in range(5)
        ]
        log.extend(entries)
        assert list(log) == entries


peer_ids = st.binary(min_size=32, max_size=32).map(PeerID)
cids = st.binary(min_size=32, max_size=32).map(CID)
timestamps = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
ips = st.text(min_size=1, max_size=40)


@st.composite
def hydra_envelopes(draw):
    cid = draw(st.none() | cids)
    if cid is None:
        # The codec derives a missing key from the CID, so only CID-less
        # envelopes can carry no key at all.
        key = draw(st.none() | st.integers(0, 2**256 - 1))
    else:
        key = draw(st.just(cid.dht_key) | st.integers(0, 2**256 - 1))
    return MessageEnvelope(
        timestamp=draw(timestamps),
        sender=draw(peer_ids),
        sender_ip=draw(ips),
        message_type=draw(st.sampled_from(list(MessageType))),
        target_key=key,
        target_cid=cid,
        via_relay=draw(st.none() | peer_ids),
    )


def through_json(codec, event):
    return codec.decode(json.loads(json.dumps(codec.encode(event))))


class TestCodecs:
    @given(hydra_envelopes())
    def test_hydra_round_trip(self, envelope):
        assert through_json(HYDRA_CODEC, envelope) == envelope

    @given(st.builds(BitswapLogEntry, timestamps, peer_ids, ips, cids))
    def test_bitswap_round_trip(self, entry):
        assert through_json(BITSWAP_CODEC, entry) == entry

    @pytest.mark.parametrize(
        "field, text",
        [("sender", "not-a-peer-id"), ("via_relay", "0OIl"), ("cid", "zbadprefix"),
         ("cid", "bshort"), ("type", "NOT_A_TYPE")],
    )
    def test_malformed_text_raises_on_every_call(self, field, text):
        rng = random.Random(5)
        record = HYDRA_CODEC.encode(make_envelope(rng, 1.0))
        record[field] = text
        for _ in range(2):
            with pytest.raises(ValueError):
                HYDRA_CODEC.decode(record)

    def test_decoded_ids_are_interned(self):
        rng = random.Random(6)
        record = HYDRA_CODEC.encode(make_envelope(rng, 1.0))
        first = HYDRA_CODEC.decode(record)
        second = HYDRA_CODEC.decode(dict(record))
        assert first == second
        assert first.sender is second.sender
        assert first.target_cid is second.target_cid
        entry = BITSWAP_CODEC.decode(
            {"ts": 2.0, "sender": record["sender"], "ip": "1.2.3.4", "cid": record["cid"]}
        )
        assert entry.sender is first.sender
        assert entry.cid is first.target_cid


class TestPersistence:
    def test_jsonl_reopen_appends(self, tmp_path):
        path = tmp_path / "log.jsonl"
        rng = random.Random(5)
        log = EventLog(HYDRA_CODEC, JsonlBackend(path))
        log.append(make_envelope(rng, 1.0))
        log.close()
        reopened = EventLog(HYDRA_CODEC, JsonlBackend(path))
        assert len(reopened) == 1
        reopened.append(make_envelope(rng, 2.0))
        reopened.close()
        assert [e.timestamp for e in EventLog(HYDRA_CODEC, JsonlBackend(path))] == [1.0, 2.0]

    def test_sqlite_reopen_appends(self, tmp_path):
        path = tmp_path / "log.sqlite"
        rng = random.Random(6)
        log = EventLog(HYDRA_CODEC, SqliteBackend(path))
        log.append(make_envelope(rng, 1.0))
        log.close()
        reopened = EventLog(HYDRA_CODEC, SqliteBackend(path))
        assert len(reopened) == 1
        reopened.append(make_envelope(rng, 2.0))
        reopened.close()
        final = EventLog(HYDRA_CODEC, SqliteBackend(path))
        assert [e.timestamp for e in final] == [1.0, 2.0]

    def test_sharded_reopen_preserves_order(self, tmp_path):
        def build():
            return ShardedBackend(
                [SqliteBackend(tmp_path / f"s{i}.sqlite") for i in range(2)]
            )

        rng = random.Random(7)
        log = EventLog(HYDRA_CODEC, build())
        for i in range(9):
            log.append(make_envelope(rng, float(i)))
        log.close()
        reopened = EventLog(HYDRA_CODEC, build())
        assert [e.timestamp for e in reopened] == [float(i) for i in range(9)]
        reopened.append(make_envelope(rng, 9.0))
        assert [e.timestamp for e in reopened] == [float(i) for i in range(10)]


class TestShardedBackend:
    def test_balanced_round_robin(self):
        shards = [MemoryBackendRecords() for _ in range(3)]
        backend = ShardedBackend(shards)
        for i in range(9):
            backend.append({"ts": float(i)})
        assert [len(shard) for shard in shards] == [3, 3, 3]

    def test_rejects_object_native_shards(self):
        with pytest.raises(ValueError):
            ShardedBackend([MemoryBackend()])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShardedBackend([])

    def test_merge_strips_seq_field(self):
        backend = ShardedBackend([MemoryBackendRecords(), MemoryBackendRecords()])
        backend.append({"ts": 1.0})
        records = list(backend.scan())
        assert records == [{"ts": 1.0}]


class MemoryBackendRecords(MemoryBackend):
    """A MemoryBackend that takes dict records (shardable in tests)."""

    stores_objects = False


class TestStorageSpec:
    def test_parse_memory(self):
        spec = parse_spec("memory")
        assert spec == StorageSpec(kind="memory")
        assert spec.is_memory and not spec.on_disk

    def test_parse_file_kinds(self):
        spec = parse_spec("sqlite:/tmp/run/x.sqlite")
        assert spec.kind == "sqlite"
        assert spec.path == "/tmp/run/x.sqlite"
        assert spec.on_disk
        assert not parse_spec("sqlite::memory:").on_disk

    def test_parse_sharded(self):
        spec = parse_spec("sharded:4:jsonl:/tmp/run/x.jsonl")
        assert spec == StorageSpec(kind="jsonl", path="/tmp/run/x.jsonl", shards=4)

    @pytest.mark.parametrize(
        "text",
        ["memory", "jsonl:/tmp/x.jsonl", "sqlite::memory:",
         "sharded:3:sqlite:/tmp/x.sqlite"],
    )
    def test_to_string_round_trips(self, text):
        spec = parse_spec(text)
        assert spec.to_string() == text
        assert parse_spec(spec.to_string()) == spec

    def test_parse_spec_passthrough(self):
        spec = StorageSpec(kind="jsonl", path="/tmp/x.jsonl")
        assert parse_spec(spec) is spec

    def test_with_path(self, tmp_path):
        spec = parse_spec("sqlite:/elsewhere/x.sqlite")
        moved = spec.with_path(tmp_path / "y.sqlite")
        assert moved.kind == "sqlite"
        assert moved.path == str(tmp_path / "y.sqlite")

    def test_open_store_accepts_every_spec_shape(self, tmp_path):
        assert isinstance(open_store(None), MemoryBackend)
        assert isinstance(open_store("memory"), MemoryBackend)
        assert isinstance(
            open_store(f"jsonl:{tmp_path}/x.jsonl"), JsonlBackend
        )
        assert isinstance(
            open_store(StorageSpec(kind="sqlite", path=":memory:")), SqliteBackend
        )
        backend = MemoryBackend()
        assert open_store(backend) is backend

    def test_open_store_sharded(self, tmp_path):
        backend = open_store(StorageSpec(kind="sqlite", path=f"{tmp_path}/x.sqlite", shards=3))
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 3


class TestFactory:
    def test_memory(self):
        assert isinstance(open_backend("memory"), MemoryBackend)

    def test_jsonl_and_sqlite(self, tmp_path):
        assert isinstance(open_backend(f"jsonl:{tmp_path}/x.jsonl"), JsonlBackend)
        assert isinstance(open_backend(f"sqlite:{tmp_path}/x.sqlite"), SqliteBackend)
        assert isinstance(open_backend("sqlite::memory:"), SqliteBackend)

    def test_sharded(self, tmp_path):
        backend = open_backend(f"sharded:4:sqlite:{tmp_path}/x.sqlite")
        assert isinstance(backend, ShardedBackend)
        assert len(backend.shards) == 4

    @pytest.mark.parametrize(
        "spec",
        ["", "bogus", "memory:path", "jsonl:", "sqlite:", "sharded:x:sqlite:/p",
         "sharded:0:sqlite:/p", "sharded:2:memory"],
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            open_backend(spec)

    def test_open_file_backend_by_suffix(self, tmp_path):
        assert isinstance(open_file_backend(tmp_path / "a.jsonl"), JsonlBackend)
        assert isinstance(open_file_backend(tmp_path / "a.sqlite"), SqliteBackend)
        assert isinstance(open_file_backend(tmp_path / "a.db"), SqliteBackend)
        with pytest.raises(ValueError):
            open_file_backend(tmp_path / "a.csv")

    def test_campaign_stores_memory(self):
        stores = campaign_stores("memory")
        assert set(stores) == {"hydra", "bitswap"}
        assert all(isinstance(b, MemoryBackend) for b in stores.values())
        assert stores["hydra"] is not stores["bitswap"]

    def test_campaign_stores_directory(self, tmp_path):
        stores = campaign_stores(f"sqlite:{tmp_path}/run")
        assert str(stores["hydra"].path).endswith("hydra.sqlite")
        assert str(stores["bitswap"].path).endswith("bitswap.sqlite")

    def test_campaign_stores_sharded(self, tmp_path):
        stores = campaign_stores(f"sharded:2:jsonl:{tmp_path}/run")
        assert isinstance(stores["hydra"], ShardedBackend)
        assert len(stores["hydra"].shards) == 2


class TestCopyAndConvert:
    def test_copy_records(self, tmp_path):
        source = SqliteBackend(tmp_path / "src.sqlite")
        source.extend([{"ts": float(i), "v": i} for i in range(10)])
        destination = JsonlBackend(tmp_path / "dst.jsonl")
        assert copy_records(source, destination) == 10
        assert list(destination.scan()) == list(source.scan())

    def test_convert_log_between_formats(self, tmp_path):
        from repro.core.datasets import convert_log, write_hydra_jsonl

        rng = random.Random(8)
        entries = [make_envelope(rng, float(i)) for i in range(12)]
        jsonl_path = tmp_path / "hydra.jsonl"
        write_hydra_jsonl(entries, jsonl_path)
        sqlite_path = tmp_path / "hydra.sqlite"
        assert convert_log(jsonl_path, sqlite_path, HYDRA_CODEC) == 12
        reloaded = list(EventLog(HYDRA_CODEC, SqliteBackend(sqlite_path)))
        assert reloaded == entries


class TestMonitorsOnDisk:
    def test_hydra_on_sqlite(self, tmp_path):
        from repro.monitors.hydra import HydraBooster

        rng = random.Random(9)
        hydra = HydraBooster(num_heads=2, store=SqliteBackend(tmp_path / "h.sqlite"))
        for i in range(6):
            hydra.record(
                float(i), PeerID.generate(rng), "1.2.3.4", MessageType.GET_PROVIDERS,
                target_cid=CID.generate(rng),
            )
        assert len(hydra) == 6
        assert len(hydra.entries(TrafficClass.DOWNLOAD)) == 6
        assert len(hydra.entries(TrafficClass.OTHER)) == 0

    def test_bitswap_window_on_sqlite(self, tmp_path):
        from repro.monitors.bitswap_monitor import BitswapMonitor
        from repro.netsim.clock import SECONDS_PER_DAY

        monitor = BitswapMonitor(
            random.Random(10), store=SqliteBackend(tmp_path / "b.sqlite")
        )
        rng = random.Random(11)
        cids = [CID.generate(rng) for _ in range(4)]
        for day, cid in enumerate(cids):
            monitor.log.append(
                BitswapLogEntry(
                    day * SECONDS_PER_DAY + 10.0, PeerID.generate(rng), "2.2.2.2", cid
                )
            )
        assert monitor.cids_on_day(1) == {cids[1]}
        assert monitor.cids_in_window(0.0, 2 * SECONDS_PER_DAY) == set(cids[:2])
