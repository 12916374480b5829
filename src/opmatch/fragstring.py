"""Dynamic strings over a fixed reference with constant-time LCP queries.

RefString preprocesses a fixed symbol string (one doubling sort for the
suffix array and its inverse, the LCP array, sparse-table range minima) so
the longest common prefix of any two of its suffixes is an O(1) query. It
builds those suffix structures at its first LCP query, so only a chunk
whose DynString scans a window pays for them, once per reference.
DynString holds a string of length 2m as a flat symbol list plus an index
of reference fragments, stretches known to equal a substring of the
reference; every other position is a single symbol. Replacing one symbol
splits at most one reference fragment in two. Streaming the first
mismatches of a window against the reference is one loop over pieces: a
reference fragment is crossed with one LCP query, a single symbol (a piece
of length 1) with one compare. Runs of three or more fully matched pieces
are compacted back into single reference fragments, so the traversal stays
amortized constant per mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .seqcore import BitTrieSet, _validate_k

__all__ = ["RefString", "DynString", "MismatchStream"]


def _suffix_array(symbols: list[int]) -> tuple[list[int], list[int]]:
    """Suffix array and its inverse by prefix doubling (Manber & Myers);
    O(n log^2 n) with C-speed sorts.

    Round one sorts on the symbols themselves, every later round on the
    previous round's dense ranks, so the last round's ranks are the inverse.
    The past-the-end key sorts below every symbol and every dense rank.
    """
    n = len(symbols)
    end = min(min(symbols), 0) - 1
    sa = list(range(n))
    rank = symbols
    h = 1
    while True:
        keys = list(zip(rank, rank[h:] + [end] * h))
        sa.sort(key=keys.__getitem__)
        rank = [0] * n
        r = 0
        prev = keys[sa[0]]
        for s in sa:
            key = keys[s]
            if key != prev:
                r += 1
                prev = key
            rank[s] = r
        if r == n - 1:
            return sa, rank
        h <<= 1


def _lcp_array(seq: list[int], sa: list[int], rank: list[int]) -> list[int]:
    """Kasai LCP array: lcp[t] is the LCP of suffixes sa[t] and sa[t+1]."""
    n = len(sa)
    lcp = [0] * (n - 1)
    k = 0
    for i in range(n):
        t = rank[i]
        if t == n - 1:
            k = 0
            continue
        j = sa[t + 1]
        while i + k < n and j + k < n and seq[i + k] == seq[j + k]:
            k += 1
        lcp[t] = k
        if k:
            k -= 1
    return lcp


class RefString:
    """Immutable reference symbol string with O(1) suffix LCP queries.

    ``_index`` is (rank, rows): the inverse suffix array and a sparse table
    over the LCP array, where row d holds the minima of all windows of width
    2^d. The first ``lcp`` call, its only reader, builds it and keeps it;
    until then it is None and the reference holds just its symbols. Building
    stops at the first all-zero row: every window that wide or wider has
    minimum 0, so every deeper row is that same list (a query of width 2^d
    reads only indices below m - 2^d, which it covers).
    """

    def __init__(self, symbols: Sequence[int]):
        if not symbols:
            raise ValueError("reference string must be non-empty")
        self.symbols: list[int] = list(symbols)
        self.m = len(self.symbols)
        self._index: tuple[list[int], list[list[int]]] | None = None

    def _build_index(self) -> tuple[list[int], list[list[int]]]:
        m = self.m
        sa, rank = _suffix_array(self.symbols)
        rows = [_lcp_array(self.symbols, sa, rank)]
        width = 1
        while 2 * width < m and any(rows[-1]):
            prev = rows[-1]
            rows.append(list(map(min, prev[:-width], prev[width:])))
            width <<= 1
        rows += [rows[-1]] * ((m - 1).bit_length() - len(rows))
        return rank, rows

    def lcp(self, i: int, j: int) -> int:
        """Length of the longest common prefix of the suffixes starting at
        1-based positions i and j."""
        m = self.m
        if not (1 <= i <= m and 1 <= j <= m):
            raise ValueError(f"suffix positions must be in [1, {m}]")
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        if i == j:
            return m - i + 1
        rank, rows = index
        a = rank[i - 1]
        b = rank[j - 1]
        if a > b:
            a, b = b, a
        depth = (b - a).bit_length() - 1
        row = rows[depth]
        x = row[a]
        y = row[b - (1 << depth)]
        return x if x < y else y


@dataclass
class MismatchStream:
    """Strictly increasing 1-based window positions of the first mismatches;
    truncated means the scan stopped after limit + 1 of them."""

    positions: list[int]
    truncated: bool


class DynString:
    """Length-2m symbol string over a reference: a flat list of its symbols,
    ``symbols`` (a copy of the initial content), plus an index of its
    reference fragments.

    A reference fragment is a stretch known to equal a substring of the
    reference. The index is a dict from a fragment's absolute start to
    its (ref_start, length), with the starts in a bit trie for predecessor
    lookups. Fragments are disjoint; every position outside them is a
    single symbol, read straight from the list.

    ``replace`` writes ``symbols`` and splits the fragment it hits, so no
    fragment covers a symbol that differs from the reference. A caller may
    write ``symbols`` directly only while there is no reference fragment:
    before the first ``first_mismatches``, the only call that creates them.
    """

    def __init__(self, ref: RefString, initial: Sequence[int]):
        self.ref = ref
        self.n = 2 * ref.m
        if len(initial) != self.n:
            raise ValueError(f"initial content must have length {self.n}, got {len(initial)}")
        self.symbols = list(initial)
        self._starts = BitTrieSet(self.n + 2)
        self._frag: dict[int, tuple[int, int]] = {}

    def fragment_count(self) -> int:
        """Reference fragments plus one per position outside them."""
        return len(self._frag) + self.n - sum(ln for _, ln in self._frag.values())

    def replace(self, x: int, symbol: int) -> None:
        """Overwrite the symbol at position x; splits the reference fragment
        covering x, if any, into at most two pieces around it."""
        if not (1 <= x <= self.n):
            raise ValueError(f"position {x} outside [1, {self.n}]")
        self.symbols[x - 1] = symbol
        starts = self._starts
        frag = self._frag
        s = starts.pred(x)
        payload = frag.get(s)
        if payload is None or s + payload[1] <= x:
            return  # x was a single symbol already
        rs, ln = payload
        end = s + ln - 1
        if x > s:
            frag[s] = (rs, x - s)
        else:
            del frag[s]
            starts.discard(s)
        if x < end:
            starts.add(x + 1)
            frag[x + 1] = (rs + (x - s) + 1, end - x)

    def first_mismatches(self, i: int, limit: int) -> MismatchStream:
        """All window positions p in [1, m] with content[i + p - 1] differing
        from the reference at p, in increasing order, truncated after
        limit + 1.

        One loop walks the window piece by piece: a reference fragment is
        crossed with one capped LCP query, a single symbol is a piece of
        length 1 compared directly. Runs of >= 3 pieces fully contained in
        a matched gap are compacted into a single reference fragment. The
        limit is a count, checked as k is (``_validate_k``).
        """
        ref = self.ref
        m = ref.m
        if not (1 <= i <= m + 1):
            raise ValueError(f"window start {i} outside [1, {m + 1}]")
        _validate_k(limit, "limit")
        piece = self._frag.get
        cur = self.symbols
        sym = ref.symbols
        lcp = ref.lcp

        out: list[int] = []
        end_window = i + m - 1
        anchor = i  # first position of the current matched gap
        gap_fulls: list[int] = []  # starts of pieces fully inside the gap
        truncated = False

        # the piece at s: the reference fragment payload, or None for the
        # single symbol at s = pos, a piece of length 1
        pos = i
        s = self._starts.pred(i)
        payload = piece(s)
        if payload is None or s + payload[1] <= i:
            s = i
            payload = None
        while pos <= end_window:
            if payload is None:
                fend = pos
                pos += cur[pos - 1] == sym[pos - i]
            else:
                rs, ln = payload
                fend = s + ln - 1
                past = (fend if fend < end_window else end_window) + 1
                pos += lcp(rs + (pos - s), pos - i + 1)
                if pos > past:
                    pos = past
            if pos <= fend:  # stopped inside the piece
                if pos > end_window:
                    break  # matched to the window end mid-fragment
                out.append(pos - i + 1)
                if len(gap_fulls) >= 3:
                    self._compact(gap_fulls, i)
                gap_fulls = []
                anchor = pos + 1
                pos += 1
                if len(out) > limit:
                    truncated = True
                    break
                if pos <= fend:
                    continue  # the fragment's rest is the next piece
            elif s >= anchor:
                gap_fulls.append(s)  # matched through a piece inside the gap
            s = pos
            payload = piece(s)
        if len(gap_fulls) >= 3:
            self._compact(gap_fulls, i)
        return MismatchStream(out, truncated)

    def _compact(self, fulls: list[int], window_start: int) -> None:
        """Merge the >= 3 fully matched fragments ``fulls`` into one
        reference fragment; callers pass only runs that long.

        The merged content equals the reference over the matched range, so
        the replacement fragment is the corresponding reference substring.
        """
        starts = self._starts
        frag = self._frag
        first = fulls[0]
        last = fulls[-1]
        tail = frag.get(last)
        end = last + (tail[1] if tail is not None else 1)
        for s in fulls[1:]:
            if frag.pop(s, None) is not None:
                starts.discard(s)
        if first not in frag:
            starts.add(first)
        frag[first] = (first - window_start + 1, end - first)

    def check_tiling(self) -> None:
        """Raise RuntimeError unless the reference fragments are disjoint, lie
        in [1, 2m] and equal the reference over their spans, and their starts
        are exactly the trie's keys (a test helper that ``python -O`` keeps)."""
        sym = self.ref.symbols
        end = 0  # last position of the previous fragment
        for s, (rs, ln) in sorted(self._frag.items()):
            if s <= end or ln < 1 or s + ln - 1 > self.n:
                raise RuntimeError(f"fragment at {s} overlaps another or leaves [1, {self.n}]")
            if rs < 1 or self.symbols[s - 1 : s - 1 + ln] != sym[rs - 1 : rs - 1 + ln]:
                raise RuntimeError(f"fragment at {s} differs from the reference")
            if self._starts.pred(s) != s:
                raise RuntimeError(f"fragment start {s} is missing from the trie")
            end = s + ln - 1
        if len(self._starts) != len(self._frag):
            raise RuntimeError("the trie holds a key that starts no fragment")
