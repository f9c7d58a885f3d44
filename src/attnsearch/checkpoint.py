"""Versioned binary checkpoint container.

Layout: magic, version, config digest, step counter, then named parameter
blobs as little-endian float64. Loading refuses a digest mismatch so stale
checkpoints cannot silently pair with a different experiment config.
Every output file, checkpoints included, is written through `open_atomic`.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC = b"ATSNCHK1"
VERSION = 2


class CheckpointError(Exception):
    pass


@contextlib.contextmanager
def open_atomic(path, mode: str = "w"):
    """Write a temp file of this writer's own (a random name, created
    exclusively) beside `path`, then move it onto `path` in one `os.replace`.

    The directory `path` goes into is created here, so a command that fails
    before its first write leaves nothing behind. If the block raises, the
    temp file is removed and an existing `path` keeps its old bytes.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path, net, config_digest: str) -> None:
    pairs = net.named_parameters()
    with open_atomic(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        digest_b = config_digest.encode("ascii")
        fh.write(struct.pack("<H", len(digest_b)))
        fh.write(digest_b)
        fh.write(struct.pack("<Q", net.step_count))
        fh.write(struct.pack("<I", len(pairs)))
        for name, param in pairs:
            name_b = name.encode("ascii")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<B", param.value.ndim))
            for dim in param.value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(param.value.astype("<f8").tobytes())


def load_checkpoint(path, net, expected_digest: str) -> None:
    """Overwrite net's parameters in place; net must match the saved layout.

    Every field is read at its exact length, and a short read, trailing
    bytes, a repeated name or a NaN/inf entry is refused before any
    parameter changes.
    """
    with open(path, "rb") as fh:

        def read(n: int) -> bytes:
            chunk = fh.read(n)
            if len(chunk) != n:
                raise CheckpointError(f"{path}: truncated checkpoint")
            return chunk

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = unpack("<I")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (dlen,) = unpack("<H")
        # escaped, so that a damaged digest is still reported on one line
        digest = read(dlen).decode("ascii", "replace").encode("unicode_escape").decode()
        if digest != expected_digest:
            raise CheckpointError(
                f"{path}: config digest mismatch (file {digest[:12]}…, expected {expected_digest[:12]}…)")
        (step_count,) = unpack("<Q")
        (nblobs,) = unpack("<I")
        expected = dict(net.named_parameters())
        if nblobs != len(expected):
            raise CheckpointError(
                f"{path}: {nblobs} blobs but net has {len(expected)} parameters")
        blobs = {}
        for _ in range(nblobs):
            (nlen,) = unpack("<H")
            name = read(nlen).decode("ascii", "replace")
            if name not in expected:
                raise CheckpointError(f"{path}: unexpected parameter {name!r}")
            if name in blobs:
                raise CheckpointError(f"{path}: duplicate parameter {name!r}")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            value = expected[name].value
            if value.shape != shape:
                raise CheckpointError(
                    f"{path}: {name} has shape {shape}, net expects {value.shape}")
            blobs[name] = np.frombuffer(read(8 * value.size), dtype="<f8").reshape(shape)
            if not np.isfinite(blobs[name]).all():
                raise CheckpointError(f"{path}: {name} holds a non-finite value")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last parameter")
    for name, blob in blobs.items():
        expected[name].value[...] = blob
    net.step_count = step_count
