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

from itertools import compress, count, islice
from operator import ne
from typing import TYPE_CHECKING, Sequence

from .fragstring import DynString, MismatchStream
from .seqcore import DuplicateValuesError, _validate_ints, _validate_k, check_sequences

if TYPE_CHECKING:
    from .matcher import PatternIndex

__all__ = [
    "REL_LT",
    "REL_EQ",
    "REL_MIN",
    "REL_PAD",
    "MIN_PACKED",
    "PAD_PACKED",
    "pack_symbol",
    "unpack_symbol",
    "format_symbol",
    "compute_signature",
    "path_order",
    "signature_hamming",
    "SlidingSignature",
    "window_predecessors",
]

REL_LT = 0
REL_EQ = 1
REL_MIN = 2
REL_PAD = 3

MIN_PACKED = REL_MIN
PAD_PACKED = REL_PAD

# The direct scan reads at most _DIRECT_SPAN * (limit + 1) symbols of a
# window: O(k), inside the filter's amortized O(k + log log m) per window.
_DIRECT_SPAN = 8


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


def compute_signature(seq: Sequence[int], mode: str = "auto") -> list[int]:
    """Packed symbols of the signature of ``seq`` in the given mode
    ("distinct", "general" or "auto", the default of every entry point),
    under the input contract of every other entry point: values must be
    ints (TypeError otherwise), "auto" picks "general" when a value
    repeats, and distinct mode raises DuplicateValuesError when one does.
    """
    check_sequences(mode, ("sequence", seq))  # the walk is the same in every mode
    return _class_walk(seq, path_order(seq))


def path_order(seq: Sequence[int]) -> list[int]:
    """The 0-based positions of ``seq`` in signature path order: by value,
    ties by descending position, so the path visits the value classes in
    ascending order and each class from its rightmost occurrence to its
    leftmost."""
    return sorted(range(len(seq) - 1, -1, -1), key=seq.__getitem__)


def _class_walk(seq: Sequence[int], order: list[int]) -> list[int]:
    """Packed symbols of positions 0..len(order)-1 of ``seq``, given exactly
    those positions in path order (``path_order``). Both modes share it:
    distinct-mode callers reject repeated values first.

    Each symbol points at the position the path visited just before it: an
    occurrence after its class's first is EQ to the next occurrence to its
    right, and a class's first-visited, rightmost occurrence is LT to the
    leftmost occurrence of the class below, or NONE-MIN in the lowest class.
    The loop packs each symbol in place as ``pack_symbol`` does, with
    REL_LT = 0: a call per position made the walk 1.3-1.7x slower.
    """
    out = [MIN_PACKED] * len(order)
    prev = -1
    prev_v = None
    for p in order:
        v = seq[p]
        if v == prev_v:
            out[p] = (prev - p) << 2 | REL_EQ
        elif prev >= 0:
            out[p] = (prev - p) << 2
        prev = p
        prev_v = v
    return out


def signature_hamming(
    a: Sequence[int], b: Sequence[int], cap: int | None = None
) -> MismatchStream:
    """Positions (1-based) where two equal-length packed signatures differ,
    as the filter scans report them: with a cap, the scan stops after
    cap + 1 mismatches and the stream is truncated."""
    if len(a) != len(b):
        raise ValueError(f"signature lengths differ: {len(a)} vs {len(b)}")
    found = compress(count(1), map(ne, a, b))
    if cap is None:
        return MismatchStream(list(found), False)
    _validate_k(cap, "cap")
    # islice refuses a bound past sys.maxsize, and a cap past m reads all m
    positions = list(islice(found, min(cap, len(a)) + 1))
    return MismatchStream(positions, len(positions) > cap)


def _rank_list(
    vals: Sequence[int], order: Sequence[int], top: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The value classes of the chunk positions in ``order``, a sub-list of
    the chunk's path order: (first, last, below, above), per-rank lists of
    length ``top`` + 1. ``first[r]`` and ``last[r]`` are rank r's leftmost
    and rightmost 1-based position among them (0 when absent), and the ranks
    present form a doubly linked list, ``below`` and ``above``, between the
    sentinels 0 and ``top``. The path visits a class rightmost first, so
    its first visit sets ``last`` and its final visit leaves ``first``."""
    first = [0] * (top + 1)
    last = [0] * (top + 1)
    below = [0] * (top + 1)
    above = [0] * (top + 1)
    tail = 0
    for j in order:
        p = j + 1
        v = vals[p]
        if v != tail:
            last[v] = p
            above[tail] = v
            below[v] = tail
            tail = v
        first[v] = p
    above[tail] = top
    below[top] = tail
    return first, last, below, above


def window_predecessors(
    vals: Sequence[int], order: Sequence[int], last: Sequence[int], m: int
) -> list[int]:
    """Window predecessor of every arriving position of one chunk, offline.

    ``vals[p]`` is the dense value rank (1..R) of 1-based chunk position p
    (``vals[0]`` is unused), ``order`` the 0-based chunk positions in path
    order (``path_order``), and ``last[r]`` the rightmost occurrence of rank
    r in the first window [1, m], 0 when absent (length R + 2). Entry i of the
    result, for i in 1..L - m, belongs to a = i + m, the position that arrives
    when the window leaves i: it is the largest rank below ``vals[a]`` present
    in [i + 1, a - 1], the new window without a, or 0 when there is none.

    The window is split at m. For its part past m, [m + 1, a - 1], the ranks
    of positions m + 1..L form a linked list that is unlinked in the order
    a = L..m + 1, so when a is reached the list holds the ranks of m + 1..a.
    Its part up to m, [i + 1, m], only shrinks as i grows, so a "largest alive
    rank <= x" union-find with path halving answers it: a rank dies when its
    rightmost occurrence up to m leaves the window, and a rank absent from
    [1, m] is dead from the start. ``_rank_list`` builds the list, as it
    builds the first window's, and the union-find starts from ``last`` alone,
    with no walk of ``order``. The predecessor is the larger answer. Both
    passes are linear but for the path halving, which keeps the whole pass
    within the O(m log m) of the chunk's sort.
    """
    length = len(vals) - 1
    top = len(last) - 1
    # ranks of m+1..L, linked with the sentinels 0 and top; lead[r] is rank
    # r's leftmost position past m, the path's last visit to r there
    lead, up, below, above = _rank_list(vals, [j for j in order if j >= m], top)
    # up[r], written over the rightmost positions past m that nothing reads,
    # is the union-find parent: r while r is alive, else a smaller rank with
    # every rank in between dead
    for v in range(1, top):
        up[v] = v if last[v] else up[v - 1]

    pred = [0] * (length - m + 1)
    for a in range(length, m, -1):
        v = vals[a]
        w = below[v]
        pred[a - m] = w
        if lead[v] == a:
            x = above[v]
            above[w] = x
            below[x] = w

    for i, u, x in zip(range(1, length - m + 1), vals[1:], vals[m + 1 :]):
        if last[u] == i:
            up[u] = up[u - 1]
        x -= 1
        y = up[x]
        while y != x:  # path halving
            y = up[y]
            up[x] = y
            x = y
            y = up[x]
        if x > pred[i]:
            pred[i] = x
    return pred


class SlidingSignature:
    """Signature of an m-length window sliding over a chunk of m to 2m values,
    compared with one pattern's. The window length m, the mode and the
    reference, the pattern's signature, are those of the ``PatternIndex``
    ``pidx``; the chunk's values must be ints, and in distinct mode unique.
    The index's mode is the contract: an index built with "auto" resolves it
    on the pattern alone, so a chunk that repeats a value needs an index
    built with mode="general", or raises DuplicateValuesError.

    The current symbols live in ``_mirror``, a flat list of length 2m aligned
    to absolute chunk positions (window start i reads [i, i+m-1]); positions
    past the initial window start as PAD and are written before any window
    reaches them. The mirror is the symbol list of ``dyn``, the chunk's
    DynString, built at set-up. Each advance rewrites at most four mirror
    symbols: the arriving position's, the displaced rightmost occurrence of
    the arriving value, and the rightmost occurrences of the value classes
    just above the departing and arriving values.

    Set-up sorts the chunk once, in path order. That one order gives the dense
    value ranks, the occurrence links ``_nxt[p]`` (the next chunk position
    holding the same value, 0 for none), the first window's signature and the
    window predecessors of ``window_predecessors``. The window's value classes
    are flat per-rank ints: ``_first[v]`` and ``_last[v]`` hold the leftmost
    and rightmost occurrence in the window (0 when absent), and the ranks
    present form a doubly linked list, ``_below[v]`` and ``_above[v]``, with
    the sentinels 0 and R + 1. One loop, ``_rank_list``, builds these four
    lists from the first window's positions in path order; the same loop
    over the positions past m builds the list of ``window_predecessors``,
    whose union-find starts from the first window's ``_last``. Since a
    window holds every chunk position between its ends, the occurrences of
    one value in it follow the ``_nxt`` links from ``_first[v]`` to
    ``_last[v]``, so set-up and every list stay O(m) words. ``advance``
    unlinks a departing class in O(1); its old upper neighbour is the class
    above the departing value, whose rightmost occurrence may need a new
    symbol. An arriving class links in above its precomputed window
    predecessor. So no query searches: upkeep is O(1) per window after the
    offline pass. ``advance`` packs each rewritten symbol in place, as
    ``_class_walk`` does.

    ``limit``, the scan cap of every window (3k in ``match_chunk``), is a
    count checked once, at set-up, as k is (``_validate_k``), before the
    chunk is read (each ``dyn`` scan checks it again); set-up also fixes the
    direct span, min(m, 8(limit + 1)) symbols. ``first_mismatches`` decides
    most windows by comparing the window's first span of mirror symbols with
    the reference directly: that settles every window with more than
    ``limit`` mismatches in that span, and every window no longer than the
    span. The other windows, those with a long matched stretch, go to
    ``dyn``, whose LCP jumps cross matched fragments.
    A one-bit predictor skips the direct scan after a DynString scan showed
    that the span could not have decided the window. ``dyn_scans`` counts
    the windows the DynString decided.

    A DynString starts with no reference fragment, and only its scans create
    them, so until the first DynString scan ``advance`` writes each changed
    symbol straight into the mirror. From then on it writes through
    ``dyn.replace``, which also splits the reference fragment covering the
    position, so ``dyn``'s tiling holds after every advance. Reading ``dyn``
    changes nothing; ``dyn`` is scanned only through ``first_mismatches``.
    """

    def __init__(self, chunk: Sequence[int], pidx: PatternIndex, limit: int):
        _validate_k(limit, "limit")
        _validate_ints(chunk, "chunk")
        m = pidx.m
        length = len(chunk)
        if length < m:
            raise ValueError(f"chunk of length {length} is shorter than the window ({m})")
        if length > 2 * m:
            raise ValueError(f"chunk of length {length} exceeds 2m = {2 * m}")
        self.m = m
        self.length = length
        self.start = 1
        self.limit = limit
        self._span = min(m, _DIRECT_SPAN * (limit + 1))

        order = path_order(chunk)
        # 1-based position tables over dense value ranks
        vals = [0] * (length + 1)
        nxt = [0] * (length + 1)
        rank = 0
        prev = -1
        prev_v = None
        for j in order:
            v = chunk[j]
            p = j + 1
            if v == prev_v:
                nxt[p] = prev
            else:
                rank += 1
                prev_v = v
            vals[p] = rank
            prev = p
        if pidx.mode == "distinct" and rank != length:
            raise DuplicateValuesError(
                'distinct mode requires a duplicate-free chunk; build the PatternIndex with mode="general"'
            )
        self._vals = vals
        self._nxt = nxt
        top = rank + 1
        window_order = [j for j in order if j < m]
        first, last, below, above = _rank_list(vals, window_order, top)
        self._pred = window_predecessors(vals, order, last, m)
        self._first = first
        self._last = last
        self._below = below
        self._above = above
        self._top = top

        self.dyn = DynString(pidx.ref, _class_walk(chunk, window_order) + [PAD_PACKED] * m)
        self._mirror = self.dyn.symbols
        self._direct = True
        self.dyn_scans = 0

    def window_view(self) -> list[int]:
        """Packed symbols of the current window."""
        i = self.start
        return self._mirror[i - 1 : i - 1 + self.m]

    def first_mismatches(self) -> MismatchStream:
        """The first mismatches of the current window against the reference,
        as DynString.first_mismatches reports them: increasing 1-based window
        positions, truncated after the set-up's limit + 1."""
        span = self._span
        if self._direct:
            i = self.start
            head = self._mirror[i - 1 : i - 1 + span]
            diffs = compress(count(1), map(ne, head, self.dyn.ref.symbols))
            found = list(islice(diffs, min(self.limit, span) + 1))  # bounded below sys.maxsize
            if len(found) > self.limit:
                return MismatchStream(found, True)
            if span == self.m:
                return MismatchStream(found, False)
        stream = self.dyn.first_mismatches(self.start, self.limit)
        self.dyn_scans += 1
        # try the direct scan next time only if it could have decided this window
        self._direct = stream.truncated and stream.positions[-1] <= span
        return stream

    def advance(self) -> None:
        """Slide the window one position to the right."""
        i = self.start
        m = self.m
        if i + m > self.length:
            raise ValueError("cannot advance: window would leave the chunk")
        vals = self._vals
        first = self._first
        last = self._last
        below = self._below
        above = self._above
        arriving = i + m
        u = vals[i]
        v = vals[arriving]

        if first[u] != i:
            raise RuntimeError("window bookkeeping out of sync")
        su = above[u]
        if last[u] == i:
            # the class leaves: unlink it
            first[u] = last[u] = 0
            w = below[u]
            above[w] = su
            below[su] = w
        else:
            first[u] = self._nxt[i]
        cand = [arriving]
        old = last[v]
        if old:
            cand.append(old)  # may stop being the rightmost occurrence
        else:
            # a new class links in above its window predecessor
            first[v] = arriving
            w = self._pred[i]
            x = above[w]
            above[w] = v
            below[v] = w
            above[v] = x
            below[x] = v
        last[v] = arriving

        # su, u's old upper neighbour, and v's upper neighbour sv may have a
        # new lower neighbour; a new v linked in between u and su has sv ==
        # su. Every candidate lies in the new window; skip the repeats.
        top = self._top
        if su != v and su != top:
            cand.append(last[su])
        sv = above[v]
        if sv != su and sv != top:
            cand.append(last[sv])

        self.start = i + 1
        mirror = self._mirror
        nxt = self._nxt
        scanned = self.dyn_scans
        for p in cand:
            # p's symbol in the new window, packed as _class_walk packs it
            v = vals[p]
            if last[v] != p:
                sym = (nxt[p] - p) << 2 | REL_EQ
            else:
                w = below[v]
                sym = (first[w] - p) << 2 if w else MIN_PACKED
            if mirror[p - 1] != sym:
                if scanned:
                    self.dyn.replace(p, sym)
                else:
                    mirror[p - 1] = sym
