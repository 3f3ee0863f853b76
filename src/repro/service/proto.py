"""Wire protocol: length-prefixed JSON headers plus raw int64 frames.

Every message is::

    [4-byte big-endian header length] [JSON header] [array frames...]

The header's ``"arrays"`` entry lists ``[name, count]`` pairs; each frame
is exactly ``8 * count`` bytes of little-endian int64 (numpy's native
layout on every platform this repo targets).  Arrays therefore cross the
socket without pickling — and without version skew, since the header is
plain JSON.

Used by :mod:`repro.service.server` and
:class:`~repro.service.client.ServiceClient`; both ends of any repo
socket speak only this.
"""

from __future__ import annotations

import json
import struct

import numpy as np

__all__ = ["ProtocolError", "recv_msg", "send_msg"]

#: sanity bound on the JSON header — a desynchronised stream otherwise
#: asks us to allocate whatever garbage the first four bytes decode to
MAX_HEADER_BYTES = 1 << 20

#: largest receive buffer committed ahead of the bytes that fill it
RECV_CHUNK = 1 << 20

_LEN = struct.Struct(">I")


class ProtocolError(ConnectionError):
    """The peer sent bytes that do not parse as a protocol message."""


def send_msg(sock, header: dict, arrays: dict | None = None) -> None:
    """Send one message: ``header`` (JSON-able) plus named int64 arrays."""
    frames: list[bytes] = []
    meta: list[list] = []
    for name, arr in (arrays or {}).items():
        a = np.ascontiguousarray(arr, dtype=np.int64)
        meta.append([name, int(a.size)])
        frames.append(a.tobytes())
    h = dict(header)
    h["arrays"] = meta
    payload = json.dumps(h, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_HEADER_BYTES:
        raise ProtocolError(f"header too large ({len(payload)} bytes)")
    sock.sendall(_LEN.pack(len(payload)) + payload)
    for frame in frames:
        sock.sendall(frame)


def _recv_exact(sock, n: int, *, first: bool = False) -> bytearray | None:
    """Exactly ``n`` bytes; ``None`` on a clean EOF before the ``first``
    read of a message.

    The buffer grows only as bytes arrive (at most :data:`RECV_CHUNK`
    ahead of them), so a peer that claims a huge frame and then stops
    sending costs nothing before the "closed mid-message" error.
    """
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), RECV_CHUNK))
        if not chunk:
            if first and not buf:
                return None
            raise ProtocolError(
                f"connection closed mid-message ({len(buf)}/{n} bytes)"
            )
        buf += chunk
    return buf


def _array_meta(header: dict) -> list[tuple[str, int]]:
    """The header's ``[name, count]`` pairs, validated."""
    meta = header.pop("arrays", [])
    if not isinstance(meta, list):
        raise ProtocolError(
            f"'arrays' must be a list, got {type(meta).__name__}"
        )
    out = []
    for entry in meta:
        ok = isinstance(entry, list) and len(entry) == 2
        name, count = entry if ok else (None, None)
        if not (
            isinstance(name, str)
            and isinstance(count, int)
            and not isinstance(count, bool)
            and count >= 0
        ):
            raise ProtocolError(
                f"bad array entry {entry!r}; want [name, count >= 0]"
            )
        out.append((name, count))
    return out


def recv_msg(sock) -> tuple[dict, dict] | None:
    """Receive one message; ``None`` when the peer closed cleanly.

    Returns ``(header, arrays)`` with each array a fresh int64 ndarray.
    Anything that does not parse as a message — a header that is not a
    JSON object, a malformed ``"arrays"`` list, a negative or non-integer
    count, a stream that ends early — raises :class:`ProtocolError`.
    """
    raw_len = _recv_exact(sock, _LEN.size, first=True)
    if raw_len is None:
        return None
    (hlen,) = _LEN.unpack(raw_len)
    if hlen > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {hlen} exceeds protocol bound")
    payload = _recv_exact(sock, hlen)
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"header must be a JSON object, got {type(header).__name__}"
        )
    arrays: dict[str, np.ndarray] = {}
    for name, count in _array_meta(header):
        arrays[name] = np.frombuffer(_recv_exact(sock, 8 * count), dtype=np.int64)
    return header, arrays
