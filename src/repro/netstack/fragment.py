"""IPv4 fragmentation and overlap-policy-aware reassembly.

§3.2 of the paper exploits a reassembly discrepancy: for two out-of-order
IP fragments with the same offset and length, the GFW keeps the *former*
(first-wins) while typical endpoint stacks keep different data depending
on implementation.  Middleboxes add a third behaviour: some discard all
fragments (Aliyun, Table 2) and some reassemble them in-path before
forwarding, which re-exposes the original payload to the GFW.

This module provides:

- :func:`fragment_packet` — split a serialized transport payload into
  IP fragments at 8-byte-aligned boundaries;
- :class:`FragmentReassembler` — a policy-parameterized reassembler used
  by endpoint stacks, middleboxes, and the GFW alike.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.netstack.packet import IPPacket, PROTO_TCP, PROTO_UDP
from repro.netstack.wire import parse_tcp, parse_udp, transport_bytes


class OverlapPolicy(enum.Enum):
    """How overlapping fragment data is resolved during reassembly.

    ``FIRST_WINS`` keeps the data that arrived first (the GFW's observed
    behaviour for IP fragments); ``LAST_WINS`` keeps the most recent data.
    """

    FIRST_WINS = "first-wins"
    LAST_WINS = "last-wins"


def fragment_packet(
    packet: IPPacket, fragment_size: int, identification: Optional[int] = None
) -> List[IPPacket]:
    """Split ``packet`` into IP fragments carrying raw transport bytes.

    ``fragment_size`` is the transport-payload bytes per fragment and must
    be a multiple of 8 (the IP fragment-offset unit) except for the final
    fragment.  The original packet is not modified.
    """
    if fragment_size % 8:
        raise ValueError("fragment size must be a multiple of 8")
    body = transport_bytes(packet)
    if fragment_size >= len(body):
        raise ValueError("fragment size must be smaller than the payload")
    ident = identification if identification is not None else packet.identification
    fragments: List[IPPacket] = []
    offset = 0
    while offset < len(body):
        chunk = body[offset : offset + fragment_size]
        is_last = offset + len(chunk) >= len(body)
        fragments.append(
            IPPacket(
                src=packet.src,
                dst=packet.dst,
                payload=chunk,
                ttl=packet.ttl,
                identification=ident,
                dont_fragment=False,
                more_fragments=not is_last,
                frag_offset=offset // 8,
            )
        )
        offset += len(chunk)
    return fragments


def make_fragment(
    template: IPPacket,
    data: bytes,
    byte_offset: int,
    more_fragments: bool,
    identification: Optional[int] = None,
) -> IPPacket:
    """Craft a single (possibly overlapping or garbage) fragment by hand.

    Evasion strategies use this to send a garbage fragment at the same
    offset/length as the real data (§3.2 "out-of-order data overlapping").
    """
    if byte_offset % 8:
        raise ValueError("fragment byte offset must be a multiple of 8")
    return IPPacket(
        src=template.src,
        dst=template.dst,
        payload=data,
        ttl=template.ttl,
        identification=(
            identification if identification is not None else template.identification
        ),
        dont_fragment=False,
        more_fragments=more_fragments,
        frag_offset=byte_offset // 8,
    )


@dataclass
class _FragmentBuffer:
    """Accumulated fragment data for one (src, dst, id, proto) key."""

    #: byte offset -> bytes, as accepted under the overlap policy
    chunks: Dict[int, bytes] = field(default_factory=dict)
    total_length: Optional[int] = None
    first_packet: Optional[IPPacket] = None


class FragmentReassembler:
    """Reassemble IP fragments under a configurable overlap policy.

    Each call to :meth:`add` either returns ``None`` (more fragments
    needed) or the fully reassembled :class:`IPPacket` with its transport
    payload re-parsed.  The reassembler resolves overlapping byte ranges
    per :class:`OverlapPolicy`, which is exactly the discrepancy lever of
    the out-of-order IP-fragment evasion strategy.
    """

    def __init__(self, policy: OverlapPolicy = OverlapPolicy.LAST_WINS) -> None:
        self.policy = policy
        self._buffers: Dict[Tuple[str, str, int, int], _FragmentBuffer] = {}

    def add(self, fragment: IPPacket) -> Optional[IPPacket]:
        """Feed one fragment; return the reassembled packet when complete."""
        if not fragment.is_fragment:
            return fragment
        if not isinstance(fragment.payload, (bytes, bytearray)):
            raise TypeError("fragments must carry raw bytes")
        key = (fragment.src, fragment.dst, fragment.identification, fragment.protocol)
        buffer = self._buffers.setdefault(key, _FragmentBuffer())
        if buffer.first_packet is None:
            buffer.first_packet = fragment
        offset = fragment.frag_offset * 8
        self._merge(buffer, offset, bytes(fragment.payload))
        if not fragment.more_fragments:
            buffer.total_length = max(
                buffer.total_length or 0, offset + len(fragment.payload)
            )
        packet = self._try_complete(key, buffer)
        return packet

    def clear(self) -> None:
        """Drop every incomplete fragment buffer; the policy stays."""
        self._buffers.clear()

    def pending_count(self) -> int:
        """Number of flows with incomplete fragment buffers."""
        return len(self._buffers)

    def _merge(self, buffer: _FragmentBuffer, offset: int, data: bytes) -> None:
        """Insert ``data`` at ``offset`` byte-by-byte under the policy.

        Byte-granular merging keeps the semantics simple and exactly
        matches how first-wins/last-wins differ on partial overlaps.
        """
        existing: Dict[int, int] = {}
        for chunk_offset, chunk in buffer.chunks.items():
            for i, value in enumerate(chunk):
                existing[chunk_offset + i] = value
        for i, value in enumerate(data):
            position = offset + i
            if position in existing and self.policy is OverlapPolicy.FIRST_WINS:
                continue
            existing[position] = value
        buffer.chunks = _bytes_map_to_chunks(existing)

    def _try_complete(
        self, key: Tuple[str, str, int, int], buffer: _FragmentBuffer
    ) -> Optional[IPPacket]:
        if buffer.total_length is None:
            return None
        covered = bytearray(buffer.total_length)
        seen = [False] * buffer.total_length
        for chunk_offset, chunk in buffer.chunks.items():
            for i, value in enumerate(chunk):
                if chunk_offset + i < buffer.total_length:
                    covered[chunk_offset + i] = value
                    seen[chunk_offset + i] = True
        if not all(seen):
            return None
        del self._buffers[key]
        template = buffer.first_packet
        assert template is not None
        body = bytes(covered)
        if template.protocol == PROTO_TCP:
            payload = parse_tcp(body)
        elif template.protocol == PROTO_UDP:
            payload = parse_udp(body)
        else:  # pragma: no cover - only TCP/UDP exist in this simulator
            raise ValueError("unknown transport protocol")
        return IPPacket(
            src=template.src,
            dst=template.dst,
            payload=payload,
            ttl=template.ttl,
            identification=template.identification,
            dont_fragment=False,
            more_fragments=False,
            frag_offset=0,
        )


def _bytes_map_to_chunks(byte_map: Dict[int, int]) -> Dict[int, bytes]:
    """Compact a position->byte map into contiguous offset->bytes chunks."""
    chunks: Dict[int, bytes] = {}
    if not byte_map:
        return chunks
    positions = sorted(byte_map)
    start = positions[0]
    current = bytearray([byte_map[start]])
    previous = start
    for position in positions[1:]:
        if position == previous + 1:
            current.append(byte_map[position])
        else:
            chunks[start] = bytes(current)
            start = position
            current = bytearray([byte_map[position]])
        previous = position
    chunks[start] = bytes(current)
    return chunks
