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
_LOW = (1 << _SHIFT) - 1


class BitTrieSet:
    """Set of integer keys in [0, universe) with predecessor queries.

    The package's stand-in for a van Emde Boas tree, in two fixed levels:
    ``_words`` holds the keys' presence bits in 256-bit ints, and the one
    int ``_summary`` has bit i set while word i is non-empty. ``add`` and
    ``discard`` touch one word, and the summary bit only when that word
    fills from empty or empties. ``pred`` masks one word and, only when that
    word holds nothing at or below the query, reads the summary once. The
    summary is ceil(universe / 256) bits long (the DynString's universe is
    2m + 2), so it fits in one word up to m = 32 767.
    """

    __slots__ = ("universe", "size", "_words", "_summary")

    def __init__(self, universe: int):
        if universe < 1:
            raise ValueError("universe must be positive")
        self.universe = universe
        self.size = 0
        self._words = [0] * ((universe + _LOW) >> _SHIFT)
        self._summary = 0

    def __len__(self) -> int:
        return self.size

    def add(self, x: int) -> bool:
        if x < 0 or x >= self.universe:
            raise ValueError(f"key {x} outside universe [0, {self.universe})")
        i = x >> _SHIFT
        old = self._words[i]
        b = 1 << (x & _LOW)
        if old & b:
            return False
        self._words[i] = old | b
        self.size += 1
        if not old:
            self._summary |= 1 << i
        return True

    def discard(self, x: int) -> bool:
        if x < 0 or x >= self.universe:
            return False
        i = x >> _SHIFT
        old = self._words[i]
        b = 1 << (x & _LOW)
        if not old & b:
            return False
        self._words[i] = w = old ^ b
        self.size -= 1
        if not w:
            self._summary ^= 1 << i
        return True

    def pred(self, x: int) -> int | None:
        """Largest stored key <= x, or None."""
        if x >= self.universe:
            x = self.universe - 1
        elif x < 0:
            return None
        i = x >> _SHIFT
        w = self._words[i] & ((2 << (x & _LOW)) - 1)
        if not w:
            below = self._summary & ((1 << i) - 1)
            if not below:
                return None
            i = below.bit_length() - 1
            w = self._words[i]
        return (i << _SHIFT) | (w.bit_length() - 1)
