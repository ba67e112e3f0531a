"""Deterministic, splittable pseudo-random streams.

All randomness in the package flows from one explicit 64-bit root seed.
Substreams are derived by hashing the root seed together with a label
path, so concurrent samplers get independent streams and any individual
sample can be reproduced from its derived seed alone.  No ambient
entropy is ever used.
"""
from __future__ import annotations

import hashlib
import random
from itertools import count
from typing import Iterator

_SEP = b"\x1f"


def _path_hash(root: int, labels: tuple[int | str, ...]):
    """The running SHA-256 of the root seed and the label path."""
    h = hashlib.sha256()
    h.update(str(int(root)).encode("ascii"))
    for label in labels:
        h.update(_SEP)
        h.update(str(label).encode("utf-8"))
    return h


def derive_seed(root: int, *labels: int | str) -> int:
    """A 64-bit seed obtained by hashing the root seed and a label path."""
    return int.from_bytes(_path_hash(root, labels).digest()[:8], "big")


def seeds(root: int, *labels: int | str) -> Iterator[int]:
    """``derive_seed(root, *labels, i)`` for i = 0, 1, 2, ..., without end.

    The root and the label path are hashed once; each seed copies that
    hash and adds only its own ``i``.
    """
    h = _path_hash(root, labels)
    h.update(_SEP)
    copy, from_bytes = h.copy, int.from_bytes
    for i in count():
        h_i = copy()
        h_i.update(b"%d" % i)
        yield from_bytes(h_i.digest()[:8], "big")


def stream(root: int, *labels: int | str) -> random.Random:
    """An independent deterministic generator for the given label path."""
    return random.Random(derive_seed(root, *labels))
