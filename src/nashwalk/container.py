"""Tiny binary container: 8-byte magic, length-prefixed JSON header, payload."""

from __future__ import annotations

import json
import struct

from .errors import IncompleteTable


def pack_container(magic: bytes, header: dict, payload: bytes) -> bytes:
    if len(magic) != 8:
        raise ValueError("magic field must be exactly 8 bytes")
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<I", len(head)) + head + payload


def unpack_container(data: bytes, magic: bytes) -> tuple[dict, bytes]:
    if len(data) < 12 or data[:8] != magic:
        raise IncompleteTable(f"bad container magic, expected {magic!r}")
    (hlen,) = struct.unpack("<I", data[8:12])
    if len(data) < 12 + hlen:
        raise IncompleteTable("truncated container header")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise IncompleteTable(f"unreadable container header: {exc}") from None
    if not isinstance(header, dict):
        raise IncompleteTable("container header must be a JSON object")
    return header, data[12 + hlen :]


def check_header(header: dict, fields: dict) -> None:
    """Require exactly the keys of `fields`, each value an instance of the
    type(s) listed for it.  A JSON true/false never passes as a number."""
    if set(header) != set(fields):
        missing = sorted(set(fields) - set(header))
        unexpected = sorted(set(header) - set(fields))
        raise IncompleteTable(
            f"header fields: missing {missing}, unexpected {unexpected}"
        )
    for key, types in fields.items():
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, types):
            raise IncompleteTable(
                f"header field {key!r} has type {type(value).__name__}"
            )
