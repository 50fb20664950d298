"""Deterministic, named, splittable random streams.

A stream is identified by a root seed plus a path of string labels. Splitting
derives a child stream from a hash of (seed, path) without advancing the
parent, so any subtree of randomness can be recreated independently. This is
what makes interrupted runs resumable bit-exactly: the stream for step i is
always root.split(f"step-{i}") no matter how many steps ran before.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RngStream:
    """A PCG64 generator keyed by (seed, label path).

    The generator is built on the first draw: a stream that is only split
    never pays for one.
    """

    def __init__(self, seed: int, _path=()):
        self.seed = int(seed)
        self.path = tuple(str(p) for p in _path)
        self._gen = None

    def split(self, label) -> "RngStream":
        """Child stream; does not consume randomness from this one."""
        return RngStream(self.seed, self.path + (str(label),))

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            token = f"{self.seed}|" + "/".join(self.path)
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            key = int.from_bytes(digest[:16], "little")
            self._gen = np.random.Generator(np.random.PCG64(key))
        return self._gen

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._generator().uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._generator().normal(loc, scale, size)

    def permutation(self, n):
        return self._generator().permutation(n)

    def choice(self, n, size=None, p=None):
        return self._generator().choice(n, size=size, p=p)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, path={'/'.join(self.path) or '<root>'})"
