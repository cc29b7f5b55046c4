"""Binary checkpoint format.

Layout, all little-endian: magic "PLSTM\\x01", four uint32 header fields
(vocab_size, embed_dim, hidden, seq_len), then the embedding matrix and
every branch's parameter blocks in fixed order (softmax, sigmoid, relu,
tanh; per branch: forward then backward gates i/f/o/n as W, U, b, then the
head weights and bias), each block as row-major float64. Round trips are
bitwise exact. The payload is in `ParallelModel.blocks()` order, not in the
order of the parameter arena (`model.model_over`), so it is written and
read block by block. A load rejects a non-finite parameter.
"""

from __future__ import annotations

import struct

import numpy as np

from .model import BRANCH_NAMES, ParallelModel, expected_param_count, model_over

MAGIC = b"PLSTM\x01"
_HEADER = struct.Struct("<4I")


class CheckpointError(ValueError):
    pass


def save_checkpoint(model: ParallelModel, path):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(model.vocab_size, model.embed_dim, model.hidden,
                              model.seq_len))
        for _, arr in model.blocks():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> ParallelModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"bad checkpoint: cannot read {path}: {exc}") from exc
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint: wrong magic")
    off = len(MAGIC)
    try:
        vocab_size, embed_dim, hidden, seq_len = _HEADER.unpack_from(blob, off)
    except struct.error as exc:
        raise CheckpointError("bad checkpoint: truncated header") from exc
    off += _HEADER.size
    # checked before the model is built, so a corrupt header allocates nothing
    if min(vocab_size, embed_dim, hidden, seq_len) < 1:
        raise CheckpointError("bad checkpoint: header has a zero dimension")
    expected = expected_param_count(vocab_size, embed_dim, hidden) * 8
    if len(blob) - off != expected:
        raise CheckpointError(
            f"bad checkpoint: payload is {len(blob) - off} bytes, header implies {expected}"
        )
    # every parameter is read from the payload, so the model starts from a
    # zeroed arena, with sigmoid gates: the v1 header names no gate mode
    model = model_over(np.zeros(expected // 8), vocab_size, embed_dim, hidden,
                       ("sigmoid",) * len(BRANCH_NAMES), seq_len)
    for _, arr in model.blocks():
        arr[...] = np.frombuffer(blob, "<f8", count=arr.size, offset=off).reshape(arr.shape)
        off += arr.nbytes
    if not np.isfinite(model.arena).all():
        raise CheckpointError("bad checkpoint: a parameter is not finite")
    return model
