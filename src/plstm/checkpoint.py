"""Binary checkpoint format, version 2.

Layout, all little-endian: the magic "PLSTM\\x02", whose last byte is the
format version; a uint32 CRC-32 (`zlib.crc32`) of every byte that follows
it; four uint32 fields (vocab_size, embed_dim, hidden, seq_len) and two
uint8 fields, the gate mode's index in `GATE_MODES` and the aggregation's
in `AGGREGATIONS`; then the payload, the parameter arena as float64. The
payload is in arena order, so `model.model_over` alone says where a
parameter lives: save writes the arena's bytes, and load builds the model
over the payload, read once into its arena. Round trips are bitwise exact.
Before it builds the model, a load rejects another version (a version 1
file among them), a header field out of range, a payload of another size
than the header implies, a checksum mismatch and a non-finite parameter.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .model import AGGREGATIONS, GATE_MODES, ParallelModel, expected_param_count, model_over

MAGIC = b"PLSTM\x02"
# vocab_size, embed_dim, hidden, seq_len, then the gate mode and aggregation indices
_FIELDS = struct.Struct("<4I2B")
_HEADER = struct.Struct("<5sBI" + _FIELDS.format[1:])  # magic, its version byte, CRC-32, fields
_CHECKED = _HEADER.size - _FIELDS.size  # the CRC covers every byte from here on


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: ParallelModel, path):
    fields = _FIELDS.pack(model.vocab_size, model.embed_dim, model.hidden, model.seq_len,
                          GATE_MODES.index(model.gate_mode), AGGREGATIONS.index(model.aggregation))
    payload = np.ascontiguousarray(model.arena, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<I", zlib.crc32(payload, zlib.crc32(fields))) + fields)
        fh.write(payload)


def load_checkpoint(path) -> ParallelModel:
    """The model a checkpoint file holds. The header is read and checked
    first, and the payload's size against the file's; the payload is then
    read once, straight into the arena the model is built over, and the
    CRC taken over the header's bytes and the arena's."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if header[: len(MAGIC) - 1] != MAGIC[:-1]:
                raise CheckpointError("bad checkpoint: wrong magic")
            try:
                _, version, crc, vocab, embed, hidden, seq_len, gate, agg = _HEADER.unpack(header)
            except struct.error as exc:
                raise CheckpointError("bad checkpoint: truncated header") from exc
            if version != MAGIC[-1]:
                raise CheckpointError(f"bad checkpoint: version {version}, this build reads "
                                      f"{MAGIC[-1]}")
            # checked before the arena is allocated, so a corrupt header allocates nothing
            if min(vocab, embed, hidden, seq_len) < 1:
                raise CheckpointError("bad checkpoint: header has a zero dimension")
            if gate >= len(GATE_MODES) or agg >= len(AGGREGATIONS):
                raise CheckpointError("bad checkpoint: gate mode or aggregation index out of "
                                      "range")
            count = expected_param_count(vocab, embed, hidden)
            size = os.fstat(fh.fileno()).st_size - _HEADER.size
            if size != count * 8:
                raise CheckpointError(f"bad checkpoint: payload is {size} bytes, header says "
                                      f"{count * 8}")
            arena = np.empty(count, "<f8")
            if fh.readinto(memoryview(arena).cast("B")) != size:
                raise CheckpointError("bad checkpoint: the file changed while it was read")
    except OSError as exc:
        raise CheckpointError(f"bad checkpoint: cannot read {path}: {exc}") from exc
    if zlib.crc32(arena, zlib.crc32(header[_CHECKED:])) != crc:
        raise CheckpointError("bad checkpoint: checksum mismatch")
    if not np.isfinite(arena).all():
        raise CheckpointError("bad checkpoint: a parameter is not finite")
    return model_over(arena.astype(np.float64, copy=False), vocab, embed, hidden,
                      GATE_MODES[gate], seq_len, AGGREGATIONS[agg])
