"""The distinct-values error and the ordered integer key sets.

The key sets (``make_key_set``) answer predecessor/successor queries for the
dynamic string's fragment starts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

__all__ = [
    "make_key_set",
    "DuplicateValuesError",
]


class DuplicateValuesError(ValueError):
    """Raised when an operation that requires pairwise-distinct values sees a repeat."""


# ---------------------------------------------------------------------------
# Ordered key sets: two interchangeable backends behind one contract.
# ---------------------------------------------------------------------------

_SHIFT = 8
_FAN = 1 << _SHIFT
_LOW = _FAN - 1


class _BitTrieSet:
    """Fixed-fanout bitwise trie over a bounded integer universe.

    Each level packs presence bits of the level below into 256-bit words, so
    the depth is ceil(log_256(universe)): at most 3 levels for every universe
    used in this package. All operations touch one word per level.
    """

    __slots__ = ("universe", "size", "_levels", "_counts")

    def __init__(self, universe: int):
        if universe < 1:
            raise ValueError("universe must be positive")
        self.universe = universe
        self.size = 0
        self._levels: list[list[int]] = []
        self._counts: list[int] = []
        n = universe
        while True:
            self._counts.append(n)
            n_words = (n + _LOW) >> _SHIFT
            self._levels.append([0] * n_words)
            n = n_words
            if n == 1:
                break

    def __len__(self) -> int:
        return self.size

    def __contains__(self, x: int) -> bool:
        if x < 0 or x >= self.universe:
            return False
        return bool(self._levels[0][x >> _SHIFT] & (1 << (x & _LOW)))

    def add(self, x: int) -> bool:
        if x < 0 or x >= self.universe:
            raise ValueError(f"key {x} outside universe [0, {self.universe})")
        words = self._levels[0]
        i = x >> _SHIFT
        b = 1 << (x & _LOW)
        old = words[i]
        if old & b:
            return False
        words[i] = old | b
        self.size += 1
        if old:
            return True
        x = i
        for words in self._levels[1:]:
            i = x >> _SHIFT
            b = 1 << (x & _LOW)
            old = words[i]
            words[i] = old | b
            if old:
                break
            x = i
        return True

    def discard(self, x: int) -> bool:
        if x < 0 or x >= self.universe:
            return False
        words = self._levels[0]
        i = x >> _SHIFT
        b = 1 << (x & _LOW)
        old = words[i]
        if not (old & b):
            return False
        w = old & ~b
        words[i] = w
        self.size -= 1
        if w:
            return True
        x = i
        for words in self._levels[1:]:
            i = x >> _SHIFT
            b = 1 << (x & _LOW)
            w = words[i] & ~b
            words[i] = w
            if w:
                break
            x = i
        return True

    def pred(self, x: int) -> int | None:
        """Largest stored key <= x, or None."""
        if not self.size:
            return None
        if x >= self.universe:
            x = self.universe - 1
        if x < 0:
            return None
        levels = self._levels
        nlev = len(levels)
        lvl = 0
        pos = x
        while True:
            i = pos >> _SHIFT
            w = levels[lvl][i] & ((1 << ((pos & _LOW) + 1)) - 1)
            if w:
                break
            lvl += 1
            pos = i - 1
            if pos < 0 or lvl >= nlev:
                return None
        pos = (i << _SHIFT) | (w.bit_length() - 1)
        while lvl:
            lvl -= 1
            w = levels[lvl][pos]
            pos = (pos << _SHIFT) | (w.bit_length() - 1)
        return pos

    def succ(self, x: int) -> int | None:
        """Smallest stored key >= x, or None."""
        if not self.size:
            return None
        if x < 0:
            x = 0
        if x >= self.universe:
            return None
        levels = self._levels
        counts = self._counts
        nlev = len(levels)
        lvl = 0
        pos = x
        while True:
            i = pos >> _SHIFT
            w = levels[lvl][i] >> (pos & _LOW)
            if w:
                pos = pos + ((w & -w).bit_length() - 1)
                break
            lvl += 1
            pos = i + 1
            if lvl >= nlev or pos >= counts[lvl]:
                return None
        while lvl:
            lvl -= 1
            w = levels[lvl][pos]
            pos = (pos << _SHIFT) | ((w & -w).bit_length() - 1)
        return pos

    def min(self) -> int | None:
        return self.succ(0) if self.size else None

    def max(self) -> int | None:
        return self.pred(self.universe - 1) if self.size else None

    def __iter__(self) -> Iterator[int]:
        x = self.min()
        while x is not None:
            yield x
            x = self.succ(x + 1)


class _SortedListSet:
    """Plain sorted array with bisect queries; the boring reference backend."""

    __slots__ = ("_keys",)

    def __init__(self, universe: int | None = None):
        self._keys: list[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, x: int) -> bool:
        keys = self._keys
        i = bisect_left(keys, x)
        return i < len(keys) and keys[i] == x

    def add(self, x: int) -> bool:
        keys = self._keys
        i = bisect_left(keys, x)
        if i < len(keys) and keys[i] == x:
            return False
        keys.insert(i, x)
        return True

    def discard(self, x: int) -> bool:
        keys = self._keys
        i = bisect_left(keys, x)
        if i < len(keys) and keys[i] == x:
            keys.pop(i)
            return True
        return False

    def pred(self, x: int) -> int | None:
        keys = self._keys
        i = bisect_right(keys, x)
        return keys[i - 1] if i else None

    def succ(self, x: int) -> int | None:
        keys = self._keys
        i = bisect_left(keys, x)
        return keys[i] if i < len(keys) else None

    def min(self) -> int | None:
        return self._keys[0] if self._keys else None

    def max(self) -> int | None:
        return self._keys[-1] if self._keys else None

    def __iter__(self) -> Iterator[int]:
        return iter(self._keys)


BACKENDS = ("bittrie", "sorted")


def make_key_set(universe: int | None = None, backend: str | None = None):
    """Build an ordered key set. ``bittrie`` needs a bounded universe and
    answers pred/succ by touching one word per trie level; ``sorted`` is the
    comparison-based fallback with O(log n) queries.
    """
    if backend is None:
        backend = "bittrie" if universe is not None else "sorted"
    if backend == "bittrie":
        if universe is None:
            raise ValueError("bittrie backend requires a bounded universe")
        return _BitTrieSet(universe)
    if backend == "sorted":
        return _SortedListSet(universe)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
