"""Sequence signatures and their sliding-window maintenance.

The signature of (a_1..a_m) encodes, per position, the offset to a related
position, so equal signatures characterize order-isomorphism and the whole
encoding is invariant under shifting the window (offsets are relative) and
under any strictly monotone value map.

Distinct mode (pairwise distinct values): position i carries
(LT, pred(i) - i), where pred(i) is the position of the largest element
smaller than a_i, or NONE-MIN when a_i is the minimum.

General mode (repeats allowed): the rightmost occurrence of each value
carries (LT, p - i) with p the leftmost occurrence of the predecessor value
(NONE-MIN for the minimum value); every other occurrence carries
(EQ, next(i) - i) pointing at the next occurrence of the same value.
On duplicate-free input both modes agree symbol for symbol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .fragstring import DynString, RefString
from .seqcore import DuplicateValuesError, make_key_set

__all__ = [
    "REL_LT",
    "REL_EQ",
    "REL_MIN",
    "REL_PAD",
    "MIN_PACKED",
    "PAD_PACKED",
    "Signature",
    "HammingResult",
    "pack_symbol",
    "unpack_symbol",
    "format_symbol",
    "compute_signature",
    "signature_hamming",
    "SlidingSignature",
]

REL_LT = 0
REL_EQ = 1
REL_MIN = 2
REL_PAD = 3

MIN_PACKED = REL_MIN
PAD_PACKED = REL_PAD


def pack_symbol(offset: int, relation: int) -> int:
    """Pack a symbol into one int: two relation bits below the signed offset."""
    return (offset << 2) | relation


def unpack_symbol(packed: int) -> tuple[int, int]:
    return packed >> 2, packed & 3


def format_symbol(packed: int) -> str:
    offset, rel = unpack_symbol(packed)
    if rel == REL_LT:
        return str(offset)
    if rel == REL_EQ:
        return f"={offset}"
    if rel == REL_MIN:
        return "0"
    return "$"


@dataclass
class Signature:
    """Signature of one sequence, stored as packed symbol ints."""

    packed: list[int]

    def __len__(self) -> int:
        return len(self.packed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self.packed == other.packed

    @property
    def offsets(self) -> list[int]:
        """Offset view: 0 at NONE-MIN positions, matching printed form."""
        return [p >> 2 for p in self.packed]

    def __str__(self) -> str:
        return " ".join(format_symbol(p) for p in self.packed)


def compute_signature(seq: Sequence[int], mode: str = "distinct") -> Signature:
    """Signature of ``seq`` in the given mode ("distinct" or "general").

    Distinct mode raises DuplicateValuesError when values repeat.
    """
    if mode not in ("distinct", "general"):
        raise ValueError(f"unknown mode {mode!r}")
    m = len(seq)
    order = sorted(range(m), key=lambda j: (seq[j], j))
    out = [0] * m
    prev_leftmost: int | None = None
    i = 0
    while i < m:
        v = seq[order[i]]
        j = i
        while j < m and seq[order[j]] == v:
            j += 1
        if mode == "distinct" and j - i > 1:
            raise DuplicateValuesError(f"value {v} repeats; distinct mode requires unique values")
        occ = order[i:j]
        for t in range(len(occ) - 1):
            out[occ[t]] = pack_symbol(occ[t + 1] - occ[t], REL_EQ)
        rightmost = occ[-1]
        if prev_leftmost is None:
            out[rightmost] = MIN_PACKED
        else:
            out[rightmost] = pack_symbol(prev_leftmost - rightmost, REL_LT)
        prev_leftmost = occ[0]
        i = j
    return Signature(out)


@dataclass
class HammingResult:
    """distance is None when the mismatch count exceeded the cap; positions
    holds the first mismatches found (at most cap + 1), 1-based."""

    distance: int | None
    positions: list[int]

    @property
    def exceeded(self) -> bool:
        return self.distance is None


def signature_hamming(
    a: Signature | Sequence[int], b: Signature | Sequence[int], cap: int | None = None
) -> HammingResult:
    """Positions where two equal-length signatures differ, stopping after
    cap + 1 mismatches when a cap is given."""
    pa = a.packed if isinstance(a, Signature) else a
    pb = b.packed if isinstance(b, Signature) else b
    if len(pa) != len(pb):
        raise ValueError(f"signature lengths differ: {len(pa)} vs {len(pb)}")
    positions: list[int] = []
    append = positions.append
    for i, (x, y) in enumerate(zip(pa, pb)):
        if x != y:
            append(i + 1)
            if cap is not None and len(positions) > cap:
                return HammingResult(None, positions)
    return HammingResult(len(positions), positions)


class SlidingSignature:
    """Signature of an m-length window sliding over a chunk of <= 2m values.

    The current signature is stored in a DynString of length 2m aligned to
    absolute chunk positions (window start i reads [i, i+m-1]); positions
    past the initial window start as PAD and are written before any window
    reaches them. A mirror array of the current symbols makes update
    detection O(1), so each advance performs at most four replacements: the
    arriving position's symbol, the displaced rightmost occurrence of the
    arriving value, and the rightmost occurrences of the value classes just
    above the departing and arriving values.
    """

    def __init__(
        self,
        chunk: Sequence[int],
        m: int,
        mode: str = "general",
        ref: RefString | None = None,
        backend: str | None = None,
    ):
        length = len(chunk)
        if m < 1:
            raise ValueError("window length must be positive")
        if length < m:
            raise ValueError(f"chunk of length {length} is shorter than the window ({m})")
        if length > 2 * m:
            raise ValueError(f"chunk of length {length} exceeds 2m = {2 * m}")
        if mode not in ("distinct", "general"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "distinct" and len(set(chunk)) != length:
            raise DuplicateValuesError("distinct mode requires a duplicate-free chunk")
        self.mode = mode
        self.m = m
        self.length = length
        self.start = 1

        # Dense per-chunk value relabeling keeps the key-set universe small.
        comp = _dense_ranks(chunk)
        self._vals = [0] + comp  # 1-based positions
        universe = max(comp) + 2
        self._present = make_key_set(universe, backend)
        self._occ: list[deque[int]] = [deque() for _ in range(universe)]
        for p in range(1, m + 1):
            v = self._vals[p]
            if not self._occ[v]:
                self._present.add(v)
            self._occ[v].append(p)

        first = compute_signature(chunk[:m], mode)
        mirror = list(first.packed) + [PAD_PACKED] * m
        if ref is None:
            ref = RefString(first.packed)
        self.ref = ref
        self.dyn = DynString(ref, mirror, backend)
        self._mirror = mirror

    def window_view(self) -> list[int]:
        """Packed symbols of the current window, read from the DynString."""
        return self.dyn.materialize_range(self.start, self.start + self.m - 1)

    def first_mismatches(self, limit: int):
        """Stream the first mismatches of the current window against the
        reference; see DynString.first_mismatches."""
        return self.dyn.first_mismatches(self.start, limit)

    def advance(self) -> None:
        """Slide the window one position to the right."""
        i = self.start
        m = self.m
        if i + m > self.length:
            raise ValueError("cannot advance: window would leave the chunk")
        vals = self._vals
        occ = self._occ
        present = self._present
        u = vals[i]
        v = vals[i + m]

        cand = [i + m]
        dq_v = occ[v]
        if dq_v:
            cand.append(dq_v[-1])  # may stop being the rightmost occurrence

        dq_u = occ[u]
        if dq_u.popleft() != i:
            raise RuntimeError("window bookkeeping out of sync")
        if not dq_u:
            present.discard(u)
        if not dq_v:
            present.add(v)
        dq_v.append(i + m)

        su = present.succ(u + 1)
        if su is not None:
            cand.append(occ[su][-1])
        sv = present.succ(v + 1)
        if sv is not None:
            cand.append(occ[sv][-1])

        self.start = i = i + 1
        hi = i + m - 1
        mirror = self._mirror
        dyn = self.dyn
        seen = set()
        for p in cand:
            if p < i or p > hi or p in seen:
                continue
            seen.add(p)
            sym = self._symbol_at(p)
            if mirror[p - 1] != sym:
                dyn.replace(p, sym)
                mirror[p - 1] = sym

    def _symbol_at(self, p: int) -> int:
        """Recompute position p's symbol from the current window key set."""
        v = self._vals[p]
        dq = self._occ[v]
        if dq[-1] != p:
            # advance() recomputes only rightmost occurrences and the
            # arriving value's previous rightmost one, which is now dq[-2]
            return pack_symbol(dq[-1] - p, REL_EQ)
        w = self._present.pred(v - 1)
        if w is None:
            return MIN_PACKED
        return pack_symbol(self._occ[w][0] - p, REL_LT)


def _dense_ranks(seq: Sequence[int]) -> list[int]:
    ranks = {v: r + 1 for r, v in enumerate(sorted(set(seq)))}
    return [ranks[v] for v in seq]
