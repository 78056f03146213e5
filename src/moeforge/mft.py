"""MFT: a small binary container for named float64 tensors.

Layout (all integers little-endian):
    magic "MFT1" (4 bytes)
    u32 tensor count
    per tensor:
        u32 name length, UTF-8 name bytes
        u32 rank
        rank x u64 dims
        row-major float64 payload (little-endian)

Round-trips are lossless for finite float64 payloads; names must be unique.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

MAGIC = b"MFT1"


class MftError(ValueError):
    """Malformed MFT file or payload."""


def write_mft(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write `tensors` in order; a C-contiguous little-endian float64 array
    goes to the file straight from its own buffer."""
    names = list(tensors.keys())
    if len(set(names)) != len(names):
        raise MftError("tensor names must be unique")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(names)))
        for name in names:
            arr = np.ascontiguousarray(tensors[name], dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack(f"<I{len(nb)}sI{arr.ndim}Q", len(nb), nb, arr.ndim, *arr.shape))
            f.write(arr)


def read_mft(path: str) -> dict[str, np.ndarray]:
    """Read every tensor, each payload straight into its own array. Sizes
    from the header are checked against the bytes left in the file before
    anything is allocated; any malformed file raises MftError."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise MftError(f"bad magic {magic!r}, expected {MAGIC!r}")

        def take(nbytes: int, what: str) -> bytes:
            if nbytes > size - f.tell():
                raise MftError(f"truncated {what}")
            return f.read(nbytes)

        (count,) = struct.unpack("<I", take(4, "file"))
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4, "file"))
            try:
                name = take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as err:
                raise MftError(f"tensor name is not UTF-8: {err}") from err
            if name in tensors:
                raise MftError(f"duplicate tensor name {name!r}")
            (rank,) = struct.unpack("<I", take(4, "file"))
            dims = struct.unpack(f"<{rank}Q", take(8 * rank, "file"))
            payload = math.prod(dims) * 8
            if payload > size - f.tell():
                raise MftError(f"truncated payload for {name!r}")
            try:
                arr = np.empty(dims, dtype="<f8")
            except ValueError as err:
                raise MftError(f"bad dims {list(dims)} for {name!r}: {err}") from err
            if f.readinto(arr) != payload:
                raise MftError(f"truncated payload for {name!r}")
            tensors[name] = arr.astype(np.float64, copy=False)
        trailing = size - f.tell()
    if trailing:
        raise MftError(f"{trailing} trailing bytes")
    return tensors
