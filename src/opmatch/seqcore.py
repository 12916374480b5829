"""The input contract shared by every entry point, the distinct-values
error and the bit trie over the DynString's fragment starts.

The contract: a mode is one of ``MODES``; every value of a sequence is
exactly an ``int``; in distinct mode no sequence repeats a value; and a
count such as k is exactly an ``int`` and non-negative. ``check_sequences``
holds the first three, ``_validate_k`` the last. Integers read from text
(instance files and CLI flags) follow one rule too, in ``instances``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "BitTrieSet",
    "DuplicateValuesError",
    "MODES",
    "check_sequences",
    "resolve_mode",
]

# the two concrete modes first, then "auto", which resolves to one of them
MODES = ("distinct", "general", "auto")


class DuplicateValuesError(ValueError):
    """Raised when an operation that requires pairwise-distinct values sees a repeat."""


def resolve_mode(mode: str, *seqs: Sequence[int]) -> str:
    """Resolve "auto" to "general" when any sequence repeats a value."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "auto":
        return mode
    for s in seqs:
        if len(set(s)) != len(s):
            return "general"
    return "distinct"


def check_sequences(mode: str, *named: tuple[str, Sequence[int]]) -> str:
    """Check (name, sequence) pairs against the contract and return the
    resolved mode: int values (TypeError), in distinct mode unique values
    (DuplicateValuesError), and a known mode (ValueError)."""
    for name, seq in named:
        _validate_ints(seq, name)
    if mode == "distinct":  # "auto" resolves to it only on unique values
        for name, seq in named:
            _validate_distinct(seq, name)
    return resolve_mode(mode, *(seq for _, seq in named))


def _validate_distinct(seq: Sequence[int], name: str) -> None:
    if len(set(seq)) != len(seq):
        raise DuplicateValuesError(f"distinct mode requires unique values in the {name}")


def _validate_ints(seq: Sequence[int], name: str) -> None:
    """Every value must be exactly an ``int``: floats, bools, strings and
    other types order differently or not at all, so they are refused."""
    types = set(map(type, seq))
    if not types <= {int}:
        found = ", ".join(sorted(t.__name__ for t in types - {int}))
        raise TypeError(f"{name} values must be int, got {found}")


def _validate_k(k: int, name: str = "k") -> None:
    """A count such as k must be exactly an ``int``, as values must be, and
    non-negative."""
    if type(k) is not int:
        raise TypeError(f"{name} must be an int")
    if k < 0:
        raise ValueError(f"{name} must be non-negative")


_SHIFT = 8
_FAN = 1 << _SHIFT
_LOW = _FAN - 1


class BitTrieSet:
    """Set of integer keys in [0, universe) with predecessor queries.

    A fixed-fanout bitwise trie, the package's stand-in for a van Emde Boas
    tree: each level packs presence bits of the level below into 256-bit
    words, so a universe below 2^24 (the DynString's is 2m + 2) needs at
    most 3 levels. Every operation touches one word per level.
    """

    __slots__ = ("universe", "size", "_levels")

    def __init__(self, universe: int):
        if universe < 1:
            raise ValueError("universe must be positive")
        self.universe = universe
        self.size = 0
        self._levels: list[list[int]] = []
        n = universe
        while True:
            n_words = (n + _LOW) >> _SHIFT
            self._levels.append([0] * n_words)
            n = n_words
            if n == 1:
                break

    def __len__(self) -> int:
        return self.size

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
