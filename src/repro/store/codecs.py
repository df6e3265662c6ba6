"""Event ↔ record codecs for the monitor logs.

One codec per log type maps the analysis-facing dataclass onto the flat
JSON record the storage backends (and the published datasets of
:mod:`repro.core.datasets`) use.  The record shapes extend the seed's
JSONL formats backwards-compatibly: decoders tolerate missing optional
fields, so files written by older code still load.

Decoding a log scan re-parses the same few peer IDs and CIDs over and
over (a Hydra log is dominated by a small set of heavy senders), and
the base58/base32 digit arithmetic is the bulk of a record's decode
cost.  Ids are frozen value objects, so the codecs intern them: text ↔
id conversions go through bounded LRU caches, and every decoded record
naming the same sender shares one :class:`PeerID` object.  A failed
parse is never cached, so malformed text raises on every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Protocol

from repro.ids.cid import CID
from repro.ids.peerid import PeerID
from repro.kademlia.messages import MessageEnvelope, MessageType
from repro.monitors.bitswap_monitor import BitswapLogEntry
from repro.store.backend import Record

#: Entries per id cache (four caches: peer ID and CID, each direction).
ID_CACHE_SIZE = 1 << 16

_peer_from_text = lru_cache(maxsize=ID_CACHE_SIZE)(PeerID.from_base58)
_cid_from_text = lru_cache(maxsize=ID_CACHE_SIZE)(CID.from_base32)
_peer_to_text = lru_cache(maxsize=ID_CACHE_SIZE)(PeerID.to_base58)
_cid_to_text = lru_cache(maxsize=ID_CACHE_SIZE)(CID.to_base32)

_MESSAGE_TYPES = {message_type.value: message_type for message_type in MessageType}


def _message_type(value: str) -> MessageType:
    try:
        return _MESSAGE_TYPES[value]
    except KeyError:
        raise ValueError(f"{value!r} is not a valid MessageType") from None


class EventCodec(Protocol):
    """Encode events to JSON records and back."""

    def encode(self, event) -> Record: ...

    def decode(self, record: Record) -> object: ...

    def timestamp(self, event) -> float: ...


class HydraMessageCodec:
    """:class:`MessageEnvelope` ↔ the ``hydra.jsonl`` record shape."""

    def encode(self, event: MessageEnvelope) -> Record:
        return {
            "ts": event.timestamp,
            "sender": _peer_to_text(event.sender),
            "ip": event.sender_ip,
            "type": event.message_type.value,
            "cid": _cid_to_text(event.target_cid) if event.target_cid else None,
            # FIND_NODE targets are raw keys with no CID; keep them as hex
            # so the disk round trip preserves the full envelope.
            "key": format(event.target_key, "x") if event.target_key is not None else None,
            "via_relay": _peer_to_text(event.via_relay) if event.via_relay else None,
        }

    def decode(self, record: Record) -> MessageEnvelope:
        cid = _cid_from_text(record["cid"]) if record.get("cid") else None
        key_text = record.get("key")
        if key_text is not None:
            target_key: Optional[int] = int(key_text, 16)
        else:
            target_key = cid.dht_key if cid is not None else None
        return MessageEnvelope(
            timestamp=record["ts"],
            sender=_peer_from_text(record["sender"]),
            sender_ip=record["ip"],
            message_type=_message_type(record["type"]),
            target_key=target_key,
            target_cid=cid,
            via_relay=(
                _peer_from_text(record["via_relay"]) if record.get("via_relay") else None
            ),
        )

    def timestamp(self, event: MessageEnvelope) -> float:
        return event.timestamp


class BitswapEntryCodec:
    """:class:`BitswapLogEntry` ↔ the ``bitswap.jsonl`` record shape."""

    def encode(self, event: BitswapLogEntry) -> Record:
        return {
            "ts": event.timestamp,
            "sender": _peer_to_text(event.sender),
            "ip": event.sender_ip,
            "cid": _cid_to_text(event.cid),
        }

    def decode(self, record: Record) -> BitswapLogEntry:
        return BitswapLogEntry(
            timestamp=record["ts"],
            sender=_peer_from_text(record["sender"]),
            sender_ip=record["ip"],
            cid=_cid_from_text(record["cid"]),
        )

    def timestamp(self, event: BitswapLogEntry) -> float:
        return event.timestamp


class TraceEventCodec:
    """:class:`~repro.obs.trace.TraceEvent` ↔ the ``.trace`` record shape.

    The record shape is what :func:`repro.obs.trace.event_to_record`
    writes plus the backends' ``ts`` index key (set to the simulated
    clock, which keeps windowed queries ``log.window(t0, t1)`` aligned
    with every other campaign log).  Decoding tolerates records without
    ``ts``, so an :class:`~repro.store.eventlog.EventLog` built on this
    codec also reads files produced by
    :func:`repro.obs.trace.write_trace` (skip the leading ``meta``
    records when scanning raw backends — the event-log route only ever
    sees events).
    """

    def encode(self, event) -> Record:
        from repro.obs.trace import event_to_record

        record = event_to_record(event)
        record["ts"] = event.sim_time
        return record

    def decode(self, record: Record):
        from repro.obs.trace import record_to_event

        return record_to_event(record)

    def timestamp(self, event) -> float:
        return event.sim_time


class GroundTruthCodec:
    """:class:`~repro.attack.ground_truth.GroundTruthEntry` ↔ ``attack.jsonl``."""

    def encode(self, event) -> Record:
        return {
            "ts": event.timestamp,
            "attack": event.attack,
            "event": event.event,
            "peer": _peer_to_text(event.peer) if event.peer else None,
            "cid": _cid_to_text(event.cid) if event.cid else None,
            "end": event.end,
        }

    def decode(self, record: Record):
        from repro.attack.ground_truth import GroundTruthEntry

        return GroundTruthEntry(
            timestamp=record["ts"],
            attack=record["attack"],
            event=record["event"],
            peer=_peer_from_text(record["peer"]) if record.get("peer") else None,
            cid=_cid_from_text(record["cid"]) if record.get("cid") else None,
            end=record.get("end"),
        )

    def timestamp(self, event) -> float:
        return event.timestamp


HYDRA_CODEC = HydraMessageCodec()
BITSWAP_CODEC = BitswapEntryCodec()
TRACE_CODEC = TraceEventCodec()
ATTACK_CODEC = GroundTruthCodec()
