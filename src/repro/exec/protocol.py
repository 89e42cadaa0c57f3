"""Length-prefixed frames of builtins: the wire format of ``repro serve``.

One frame is a 4-byte big-endian payload length followed by a pickled
``(kind, body)`` tuple whose body holds builtins only: dicts, lists,
tuples, str, bytes, int, float, bool and None. Pickle serializes those
exactly and fast, but an ordinary unpickler also resolves globals, and
a frame that names a global callable (through ``__reduce__``) runs it.
:func:`decode_frame` therefore decodes with an unpickler whose
``find_class`` refuses every global, so such a frame — or any frame
holding an object of a non-builtin class — is a :class:`ProtocolError`
and no code from the peer ever runs. The frame kinds themselves are
defined by the service (see :mod:`repro.serve.service`).
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
from typing import Any, Tuple

from repro.errors import ReproError

#: frames larger than this are refused — a corrupt length prefix must
#: not make the reader allocate gigabytes
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ReproError):
    """A malformed, truncated, oversized, or global-naming frame."""


class ConnectionClosed(ProtocolError):
    """The peer closed the connection (EOF mid-stream or between frames)."""


def encode_frame(kind: str, body: Any = None) -> bytes:
    """Serialize one ``(kind, body)`` frame: length header + payload.

    Shared by the blocking client side (:func:`send_frame`) and the
    asyncio service (:mod:`repro.serve.service` writes the encoded
    bytes straight to a ``StreamWriter``), so both speak the identical
    wire format.
    """
    payload = pickle.dumps((kind, body), protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES}); request less at once"
        )
    return _LENGTH.pack(len(payload)) + payload


def frame_length(header: bytes) -> int:
    """Decode the 4-byte length prefix, enforcing the frame cap."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES}); "
            "corrupt stream or protocol mismatch"
        )
    return length


class _BuiltinsOnly(pickle.Unpickler):
    """An unpickler that resolves no global, so it can call nothing."""

    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(
            f"frame names the global {module}.{name}; frames carry "
            "builtins only"
        )


def decode_frame(payload: bytes) -> Tuple[str, Any]:
    """Unpickle one frame payload (the bytes after the length prefix)."""
    try:
        kind, body = _BuiltinsOnly(io.BytesIO(payload)).load()
    except Exception as exc:  # unpickling failures are protocol failures
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(kind, str):
        raise ProtocolError(f"frame kind must be a string, got {kind!r}")
    return kind, body


#: size of the length prefix, for readers that pull the header themselves
HEADER_BYTES = _LENGTH.size


def send_frame(sock: socket.socket, kind: str, body: Any = None) -> None:
    """Serialize and send one ``(kind, body)`` frame."""
    sock.sendall(encode_frame(kind, body))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosed`."""
    chunks = []
    remaining = count
    while remaining > 0:
        block = sock.recv(min(remaining, 1 << 20))
        if not block:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {count} bytes unread"
            )
        chunks.append(block)
        remaining -= len(block)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[str, Any]:
    """Receive one frame; raises :class:`ConnectionClosed` on EOF."""
    header = _recv_exact(sock, HEADER_BYTES)
    payload = _recv_exact(sock, frame_length(header))
    return decode_frame(payload)
