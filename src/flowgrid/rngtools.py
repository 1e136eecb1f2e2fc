"""Seedable named random substreams.

Every stochastic decision in the suite draws from a stream obtained here,
keyed by (seed, stream name).  Streams are independent: consuming one
never shifts another, so adding policy randomness cannot perturb world
randomness for the same seed.  ``substream`` gives a numpy Generator;
``draws`` gives a ``Draws`` reader on the same key, whose values equal that
Generator's scalar calls.  The scalar-only streams ("generation",
"disruptions", "policy", "buffer") use ``draws``; "spawning" and
"scan-check" make sized draws and use ``substream``.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

import numpy as np

BLOCK = 64  # raw 64-bit words a Draws reader takes from Philox at a time


def _digest_words(text: str) -> np.ndarray:
    raw = hashlib.sha256(text.encode("utf-8")).digest()
    return np.frombuffer(raw[:16], dtype=np.uint64).copy()


def _philox(seed: int, names) -> np.random.Philox:
    """The bit generator of (seed, names): its key is a hash of both."""
    tag = "/".join(str(part) for part in names)
    return np.random.Philox(key=_digest_words(f"{seed}/{tag}"))


def substream(seed: int, *names) -> np.random.Generator:
    """Return the generator for the named substream of ``seed``.

    The Philox key is derived from a hash of the seed and the name parts,
    so any (seed, names) pair maps to the same stream on every platform.
    """
    return np.random.Generator(_philox(seed, names))


def draws(seed: int, *names) -> "Draws":
    """The ``Draws`` reader of the named substream of ``seed``."""
    return Draws(_philox(seed, names))


class Draws:
    """numpy Generator's scalar draws, computed in Python from blocks of raw words.

    As in numpy, ``integers`` uses Lemire's method on 32-bit halves below a
    range of 2**32 and on whole words above it, and keeps a word's unused
    half for the next 32-bit draw; ``random`` takes a whole word.
    """

    __slots__ = ("_bitgen", "_words", "_half")

    def __init__(self, bitgen: np.random.Philox):
        self._bitgen = bitgen
        self._words: list = []  # the block's unread words, next one last
        self._half = None  # the unused upper half of the last word split

    def _word(self) -> int:
        if not self._words:
            self._words = self._bitgen.random_raw(BLOCK).tolist()[::-1]
        return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        words = self._words
        word = words.pop() if words else self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: Optional[int] = None) -> int:
        if high is None:
            low, high = 0, low
        n = high - low
        if 1 < n < 1 << 32:
            m = self._uint32() * n
            if m & 0xFFFFFFFF < n:  # only then can the draw be biased
                threshold = (1 << 32) % n
                while m & 0xFFFFFFFF < threshold:
                    m = self._uint32() * n
            return low + (m >> 32)
        if n > 1 << 32:  # the same on whole words
            m = self._word() * n
            if m & 0xFFFFFFFFFFFFFFFF < n:
                threshold = (1 << 64) % n
                while m & 0xFFFFFFFFFFFFFFFF < threshold:
                    m = self._word() * n
            return low + (m >> 64)
        if n < 1:
            raise ValueError(f"integers needs low < high, not [{low}, {high})")
        return low + (self._uint32() if n == 1 << 32 else 0)

    def random(self) -> float:
        words = self._words
        return ((words.pop() if words else self._word()) >> 11) * 2.0 ** -53

    def permutation(self, n: int) -> list:
        """numpy's Fisher-Yates shuffle of ``range(n)``, as a list."""
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._uint32() & mask
            while j > i:
                j = self._uint32() & mask
            order[i], order[j] = order[j], order[i]
        return order


Rng = Union["np.random.Generator", Draws]  # a string: numpy.random loads lazily


def derived_seed(base_seed: int, *names) -> int:
    """A stable 63-bit integer seed derived from a base seed and name parts."""
    tag = "/".join(str(part) for part in names)
    raw = hashlib.sha256(f"{base_seed}#{tag}".encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big") >> 1
