"""Two-Chains active-message frame format (§III-A, Figs 1-3).

Fixed-size frames (as in the paper's study configuration)::

    Injected:  HDR(40) | GOTP(8) | CODE | USR payload | pad | SIG(1)
    Local:     HDR(40) |                  USR payload | pad | SIG(1)

* HDR — magic, flags, sequence tag, package/element ids, section sizes,
  and two inline arguments.
* GOTP — pointer to the receiver-side GOT for this element; present only
  when code travels in the frame, sitting exactly 8 bytes before the code
  (the fixed PC-relative location the LDGI rewrite targets).
* CODE — the jam's machine code with its read-only data appended.
* USR — user payload bytes.
* SIG — the last byte of the frame: the arrival signal the reactive
  mailbox waits on.  A sequence tag (1..255, never 0) so slot reuse is
  detected.

Frames are sized to the nearest 64 B like the paper's: the 1-integer
Local message is 64 B, and with the 1408 B Indirect Put code the
1-integer Injected message is 1472 B (§VII-A).

Ordering on the testbed's fabric lets header+payload+signal travel in one
put; the signal byte being last in the frame means its visibility implies
the rest arrived.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import MailboxError

MAGIC = 0x5443  # "TC"
VERSION = 1

HDR_SIZE = 40
GOTP_SIZE = 8

# header flags
F_INJECTED = 0x01      # frame carries code; invoke it from the mailbox
F_GOTP_SENDER = 0x02   # GOTP filled by sender (default study config)
F_NO_EXEC = 0x04       # deliver + trigger, skip invocation (Figs 5-6)

_HDR = struct.Struct("<HBBB3xIIII2Q")
assert _HDR.size == HDR_SIZE


@dataclass
class Frame:
    package_id: int
    element_id: int
    flags: int = 0
    seq: int = 1
    args: tuple[int, int] = (0, 0)
    code: bytes = b""
    payload: bytes = b""
    gotp: int = 0

    @property
    def injected(self) -> bool:
        return bool(self.flags & F_INJECTED)


def frame_wire_size(code_size: int, payload_size: int) -> int:
    """Bytes on the wire for given sections, rounded up to 64 (the paper
    sizes messages to the nearest 64 B).  GOTP only ships with code."""
    gotp = GOTP_SIZE if code_size else 0
    raw = HDR_SIZE + gotp + code_size + payload_size + 1  # +SIG
    return (raw + 63) & ~63


def pack_frame(frame: Frame, frame_size: int) -> bytes:
    """Serialize into a fixed-size frame buffer, signal byte last."""
    need = frame_wire_size(len(frame.code), len(frame.payload))
    if frame_size < need:
        raise MailboxError(
            f"frame of {need} bytes does not fit slot of {frame_size}")
    if not (1 <= frame.seq <= 255):
        raise MailboxError(f"sequence tag must be 1..255, got {frame.seq}")
    if frame.code and not frame.injected:
        raise MailboxError("frame carries code but F_INJECTED is not set")
    buf = bytearray(frame_size)
    _HDR.pack_into(
        buf, 0, MAGIC, VERSION, frame.flags, frame.seq, frame.package_id,
        frame.element_id, len(frame.code), len(frame.payload), *frame.args)
    cursor = HDR_SIZE
    if frame.code:
        struct.pack_into("<Q", buf, cursor, frame.gotp)
        cursor += GOTP_SIZE
        buf[cursor: cursor + len(frame.code)] = frame.code
        cursor += len(frame.code)
    buf[cursor: cursor + len(frame.payload)] = frame.payload
    buf[frame_size - 1] = frame.seq
    return bytes(buf)


@dataclass
class FrameView:
    """Decoded header of a received frame plus section offsets (relative
    to the start of the mailbox slot the frame landed in)."""

    flags: int
    package_id: int
    element_id: int
    code_size: int
    payload_size: int
    seq: int
    args: tuple[int, int]
    gotp: int

    @property
    def injected(self) -> bool:
        return bool(self.flags & F_INJECTED)

    @property
    def no_exec(self) -> bool:
        return bool(self.flags & F_NO_EXEC)

    @property
    def gotp_off(self) -> int:
        return HDR_SIZE  # meaningful only when injected

    @property
    def code_off(self) -> int:
        return HDR_SIZE + (GOTP_SIZE if self.code_size else 0)

    @property
    def payload_off(self) -> int:
        return self.code_off + self.code_size


def unpack_header(blob: bytes | bytearray | memoryview, offset: int = 0
                  ) -> FrameView:
    """Decode the frame header at ``offset``.  Any malformed input —
    including a buffer too short for the header, for the GOT pointer an
    injected frame carries, or for the code, payload and signal byte the
    header's section sizes claim — raises :class:`MailboxError`.  Pass
    the frame's slot, so the sections are bounded by the slot."""
    avail = len(blob) - offset
    if offset < 0 or avail < HDR_SIZE:
        raise MailboxError(f"truncated frame header: {max(avail, 0)} of "
                           f"{HDR_SIZE} bytes at offset {offset}")
    (magic, version, flags, seq, pkg, elem, code_size, payload_size,
     a0, a1) = _HDR.unpack_from(blob, offset)
    if magic != MAGIC:
        raise MailboxError(f"bad frame magic {magic:#x}")
    if version != VERSION:
        raise MailboxError(f"unsupported frame version {version}")
    gotp = 0
    if code_size:
        if avail < HDR_SIZE + GOTP_SIZE:
            raise MailboxError(f"truncated frame: {code_size} code bytes "
                               f"but no GOT pointer word")
        gotp = struct.unpack_from("<Q", blob, offset + HDR_SIZE)[0]
    view = FrameView(flags, pkg, elem, code_size, payload_size, seq,
                     (a0, a1), gotp)
    if view.payload_off + payload_size + 1 > avail:  # +1: the SIG byte
        raise MailboxError(f"frame sections overrun the buffer: "
                           f"{code_size} code + {payload_size} payload "
                           f"bytes do not fit {avail} bytes")
    return view
