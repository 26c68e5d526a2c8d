"""Exact JSON codec for arrays, plus the store's digests.

Exported artifacts carry their format arrays inline as JSON (see
:mod:`repro.export`).  An array is encoded as base64 of its raw bytes plus
dtype + shape, so it round-trips bit-exactly and keeps its dtype — never
as an element list.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Dict

import numpy as np

__all__ = [
    "decode_array",
    "encode_array",
    "key_digest",
    "payload_digest",
]

_ARRAY = "__ndarray__"


def encode_array(arr: np.ndarray) -> Dict[str, object]:
    """Bit-exact JSON form of one array (dtype + shape + raw bytes)."""
    arr = np.ascontiguousarray(arr)
    return {
        _ARRAY: {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    }


def decode_array(payload: Dict[str, object]) -> np.ndarray:
    spec = payload[_ARRAY]
    raw = base64.b64decode(spec["data"])  # type: ignore[index]
    arr = np.frombuffer(raw, dtype=np.dtype(spec["dtype"]))  # type: ignore[index]
    arr = arr.reshape(tuple(spec["shape"]))  # type: ignore[index]
    # frombuffer views are read-only; hand back a writable array, the
    # same kind of object the exporting process held.
    return arr.copy()


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def key_digest(*parts: object) -> str:
    """Content address of a store key: blake2b-128 over the parts' reprs.

    Keys are built from hashable deterministic-repr values (matrix tokens,
    arch names, claim keys); ``repr`` of those is canonical.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def payload_digest(payload: object) -> str:
    """Integrity digest of one JSON payload (canonical serialisation)."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()
