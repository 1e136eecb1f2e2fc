"""Seedable named random substreams.

Every stochastic decision in the suite draws from a stream obtained here,
keyed by (seed, stream name).  Streams are independent: consuming one
never shifts another, so adding policy randomness cannot perturb world
randomness for the same seed.  ``draws`` gives a ``Draws`` reader, whose
values equal those of numpy's Generator on the same Philox key; every
stream reads through it.  ``substream`` gives that numpy Generator itself,
which nothing in the package draws from: the tests use it as the oracle of
``Draws``.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Optional, Tuple

import numpy as np

BLOCK = 64  # raw 64-bit words a Draws reader takes from Philox at a time


def _key(seed: int, names) -> Tuple[int, int]:
    """The Philox key of (seed, names): two little-endian words of a sha256."""
    tag = "/".join(str(part) for part in names)
    raw = hashlib.sha256(f"{seed}/{tag}".encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "little"), int.from_bytes(raw[8:16], "little")


def substream(seed: int, *names) -> np.random.Generator:
    """Return the numpy generator for the named substream of ``seed``.

    The Philox key is derived from a hash of the seed and the name parts,
    so any (seed, names) pair maps to the same stream on every platform.
    """
    return np.random.Generator(np.random.Philox(key=np.array(_key(seed, names), np.uint64)))


def draws(seed: int, *names) -> "Draws":
    """The ``Draws`` reader of the named substream of ``seed``."""
    return Draws(_key(seed, names))


# Philox is counter-based: block i of a stream is a function of (key, counter)
# alone, so one engine, re-seated for each block under a lock, serves every
# stream of the process, and keying a stream constructs nothing
_engine: Optional[np.random.Philox] = None
_engine_lock = threading.Lock()


def _block(key: Tuple[int, int], block: int) -> list:
    """Words 64*block .. 64*block+63 of the stream keyed ``key``, last one first.

    Philox steps its counter before each 4-word output, so the block starts
    at counter 16*block with an empty buffer."""
    global _engine
    state = {"bit_generator": "Philox", "state": {"counter": (BLOCK // 4 * block, 0, 0, 0),
             "key": key}, "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    with _engine_lock:
        if _engine is None:
            _engine = np.random.Philox()
        _engine.state = state
        words = _engine.random_raw(BLOCK).tolist()
    words.reverse()
    return words


class Draws:
    """numpy Generator's draws, computed in Python from blocks of raw words.

    As in numpy, ``integers`` uses Lemire's method on 32-bit halves below a
    range of 2**32 and on whole words above it, and keeps a word's unused
    half for the next 32-bit draw; ``random`` takes a whole word.  A sized
    ``integers`` draw needs a power-of-two range below 2**32, which Lemire
    never rejects: each value is the top bits of the next 32-bit half.
    """

    __slots__ = ("_key", "_block", "_words", "_half")

    def __init__(self, key: Tuple[int, int]):
        self._key = key
        self._block = 0  # the next block to read
        self._words: list = []  # the block's unread words, next one last
        self._half = None  # the unused upper half of the last word split

    def _word(self) -> int:
        if not self._words:
            self._words = _block(self._key, self._block)
            self._block += 1
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

    def integers(self, low: int, high: Optional[int] = None, size: Optional[int] = None):
        if high is None:
            low, high = 0, low
        n = high - low
        if size is not None:
            return self._sized(low, n, size)
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

    def _sized(self, low: int, n: int, size: int) -> list:
        """``size`` draws from ``range(low, low + n)``, n a power of two below 2**32."""
        if size < 0:  # refused before any draw, as numpy refuses it
            raise ValueError("negative dimensions are not allowed")
        bits = n.bit_length() - 1
        if n < 2 or n & (n - 1) or bits >= 32:
            raise ValueError(f"a sized draw needs a power-of-two range in [2, 2**31], not {n}")
        low_shift, high_shift = 32 - bits, 64 - bits
        out = []
        if size and self._half is not None:
            out.append(low + (self._half >> low_shift))
            self._half = None
        pairs, odd = divmod(size - len(out), 2)
        words = self._words
        for _ in range(pairs):
            word = words.pop() if words else self._word()
            out.append(low + ((word & 0xFFFFFFFF) >> low_shift))
            out.append(low + (word >> high_shift))
        if odd:
            word = words.pop() if words else self._word()
            out.append(low + ((word & 0xFFFFFFFF) >> low_shift))
            self._half = word >> 32
        return out

    def skip(self, halves: int) -> None:
        """Leave the reader where ``halves`` calls of ``integers(2**32)`` would:
        the saved half first, then whole words, then an odd word's lower half.
        Blocks that those calls would read whole are jumped, not read."""
        if halves < 0:
            raise ValueError(f"cannot skip {halves} draws")
        if halves and self._half is not None:
            self._half = None
            halves -= 1
        words, odd = divmod(halves, 2)
        held = len(self._words)
        if words <= held:
            del self._words[held - words:]
        else:
            self._block += (words - held) // BLOCK
            self._words = []
            words = (words - held) % BLOCK
            if words:
                self._words = _block(self._key, self._block)[:BLOCK - words]
                self._block += 1
        if odd:
            self._half = self._word() >> 32

    def random(self, size: Optional[int] = None):
        if size is None:
            return (self._word() >> 11) * 2.0 ** -53
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        out = []
        while len(out) < size:  # whole words, by slices of the block; the saved half stays
            if not self._words:
                self._words = _block(self._key, self._block)
                self._block += 1
            words, take = self._words, min(size - len(out), len(self._words))
            out += words[:-take - 1:-1]
            del words[-take:]
        return (np.array(out, np.uint64) >> 11) * 2.0 ** -53

    def permutation(self, n: int) -> list:
        """numpy's Fisher-Yates shuffle of ``range(n)``, as a list."""
        order = list(range(n))
        words, half = self._words, self._half
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:  # draw 32-bit halves, as _uint32 does, until one masks to <= i
                if half is None:
                    word = words.pop() if words else self._word()
                    words = self._words
                    j, half = word & mask, word >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self._half = half
        return order


def derived_seed(base_seed: int, *names) -> int:
    """A stable 63-bit integer seed derived from a base seed and name parts."""
    tag = "/".join(str(part) for part in names)
    raw = hashlib.sha256(f"{base_seed}#{tag}".encode("utf-8")).digest()
    return int.from_bytes(raw[:8], "big") >> 1
