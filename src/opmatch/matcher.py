"""Order-preserving matching with up to k mismatches.

Two sequences of equal length are order-isomorphic with k mismatches when
deleting the elements at some <= k shared positions from both leaves
sequences whose elements stand in the same relative order (with equalities
required to coincide when values may repeat). Equivalently, there is a set
of >= m - k positions jointly increasing in both sequences, where "jointly
increasing" admits pairs that are equal in both.

The fast path filters window starts by comparing signatures: a window that
is k-isomorphic to the pattern has signature Hamming distance at most 3k,
so any window whose signature shows more than 3k mismatches is rejected
without verification. Surviving windows are verified exactly by
reducing the <= 3k signature mismatch positions to a heaviest increasing
subsequence instance (distinct values) or a heaviest chain instance
(repeated values allowed).

Before that, ``match_all`` rules out window starts by two necessary
conditions on the consecutive comparison codes (<, >, and = in general
mode) of window and pattern. A window with at most k mismatches keeps at
least m - k positions, so it keeps one of k + 1 pattern blocks whole and
matches that block's codes (the pigeonhole prefilter), and at most 2k of
its m - 1 codes differ from the pattern's, since a code can differ only
next to a dropped position (the comparison-code filter, which reads only
the chunks that would otherwise slide). Both are exact: no occurrence is
ruled out. In distinct mode the few windows they leave are decided
without signatures, by one longest-increasing-subsequence pass over the
window's values in the pattern's value order, and a dense chunk may
decide its windows together: bit-parallel counts of the pattern's broken
order edges reject or certify most of them, and the patience pass decides
the rest. ``match_all`` states which route each chunk takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice
from operator import add, gt, itemgetter, le, lt, ne, sub
from typing import Sequence

from .fragstring import RefString
from .seqcore import _validate_k, check_sequences
from .signature import SlidingSignature, _capped_mismatches, _class_walk, _direct_span, path_order
from .subsequence import (
    heaviest_chain,
    heaviest_increasing_subsequence,
    lis_deficit_at_most,
    lis_length_at_least,
)

__all__ = [
    "PatternIndex",
    "MatchStats",
    "k_isomorphic_subset_oracle",
    "k_isomorphic_check",
    "k_isomorphic_witness",
    "reduce_distinct",
    "reduce_general",
    "verify_window",
    "match_chunk",
    "match_all",
]

_ORACLE_CAP = 14
_SENTINEL = float("-inf")
# A chunk with at most this many prefilter candidates decides each of them
# alone (``_decide_window``); ``match_all`` routes one with more. A window
# decided alone by the signature route, as general-mode windows are, costs
# 1/16-1/18 of a sliding 2m chunk at m = 1e3 and 1/11-1/13 at m = 1e5 when
# the capped scan rejects it, and 1/12-1/13 and 1/8-1/11 when it reaches
# verification (CPython 3.11, random distinct text, k = 2), so 7 lies below
# every measured break-even count. In distinct mode the cap is conservative:
# a window's patience pass costs about 1/290 of a sliding chunk at m = 1e3
# (0.05 ms against 15.8 ms), and where the break-even count lies against
# the routes of a dense chunk is not measured.
_SPARSE_CAP = 7
# The prefilter runs only when every block has at least this many positions.
# A block of b positions meets random text at a start with probability about
# 2^-(b - 1), so short blocks leave most chunks several candidates, each one
# a window decided alone. Against the sliding path alone
# (CPython 3.11, n = 4e3 to 8e3, candidates decided as m-long chunks),
# 4-position blocks ran up to 1.2x slower at k = 2, and 3-position blocks
# 1.7x slower on near-sorted text at m = 6; 5-position blocks ran 0.4-0.9x
# on random text at k <= 2, and at most 1.18x in every shape measured. With
# candidates decided alone, near-sorted text with 5- to 9-position blocks
# reads 0.91-1.15x at k = 1 to 8, within the spread of repeated calls.
_MIN_BLOCK = 5
# The comparison-code stage runs only for m up to this. It reads one window
# in O(m/64) words, and its worst chunk reads every owned window, finds an
# 8th survivor at the end and then takes the sliding path anyway. On such a
# chunk (random text, then an increasing run that holds the last 8 windows,
# against an increasing pattern; CPython 3.11, k = 1 to 4) the stage added
# 3-6% to the sliding path's time at m = 200 and 4-8% at m = 1e3, but 7-14%
# at m = 2e3, 18-31% at m = 1e4 and 2.2-3.6x at m = 1e5.
_MAX_CODE_M = 1000
# ``match_all`` gathers consecutive chunks of the "decided together" route
# into one run, and decides it with one call once it holds this many
# windows or more. A run walks the pattern's m - 1 order edges once, not
# once per m-window chunk, and each edge costs O(log k) operations on ints
# of one bit per window. On near-sorted distinct text at m = 200, k = 10
# (n = 2e5 and 3e5, CPython 3.11, one CPU, best of 5), runs of 4 096 to
# 8 192 windows were fastest; one chunk per run ran 1.7-2.3x slower, and
# one run over the whole text 1.2-1.7x slower, with bit planes of U n / 4
# bytes for the U offsets of the pattern's edges.
_DENSE_RUN = 1 << 13


def _check_inputs(a: Sequence[int], b: Sequence[int], k: int, mode: str) -> str:
    """The input contract of the single-alignment entry points; returns the
    resolved mode. a and b are one alignment of two equal-length sequences:
    both need k >= 0 and pass ``check_sequences``."""
    _validate_k(k)
    resolved = check_sequences(mode, ("first sequence", a), ("second sequence", b))
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    return resolved


def _text_and_index(text: Sequence[int], pattern: Sequence[int], k: int, mode: str) -> PatternIndex:
    """The input contract of ``match_all`` and ``match_naive``: k, then the
    text, then the pattern, each checked once. "auto" resolves on both
    sequences: a text that repeats a value makes it general, and otherwise
    the index resolves it on the pattern."""
    _validate_k(k)
    text_mode = check_sequences(mode, ("text", text))
    return PatternIndex(pattern, mode if text_mode == "distinct" else "general")


# ---------------------------------------------------------------------------
# Ground-truth oracles
# ---------------------------------------------------------------------------


def k_isomorphic_subset_oracle(a: Sequence[int], b: Sequence[int], k: int) -> bool:
    """Ground truth for small inputs by searching removal subsets.

    Sorting positions by (a value, b value) reduces the pairwise conditions
    to consecutive ones, so the search can branch only on the two endpoints
    of the first violated consecutive pair; that explores a subtree of the
    full <= k-subset enumeration without changing the decided predicate.
    Capped at length 14.
    """
    _check_inputs(a, b, k, "general")
    m = len(a)
    if m > _ORACLE_CAP:
        raise ValueError(f"subset oracle capped at length {_ORACLE_CAP}")
    if k >= m - 1:
        return True
    order = sorted(range(m), key=lambda j: (a[j], b[j]))
    av = [a[j] for j in order]
    bv = [b[j] for j in order]

    def solve(alive: list[int], budget: int) -> bool:
        bad = -1
        for t in range(1, len(alive)):
            p, q = alive[t - 1], alive[t]
            if av[p] == av[q]:
                if bv[p] != bv[q]:
                    bad = t
                    break
            elif bv[p] >= bv[q]:
                bad = t
                break
        if bad < 0:
            return True
        if budget == 0:
            return False
        rest = alive[: bad - 1] + alive[bad:]
        if solve(rest, budget - 1):
            return True
        rest = alive[:bad] + alive[bad + 1 :]
        return solve(rest, budget - 1)

    return solve(list(range(m)), k)


def k_isomorphic_check(
    a: Sequence[int], b: Sequence[int], k: int, mode: str = "auto"
) -> bool:
    """Exact single-alignment check: distinct mode sorts positions by a-value
    and tests for an increasing subsequence of b-values of length >= m - k;
    general mode builds unit-weight points (a_i, b_i), merges duplicates, and
    compares the heaviest chain weight against m - k.
    """
    return _k_isomorphic(a, b, k, _check_inputs(a, b, k, mode))


def _k_isomorphic(a: Sequence[int], b: Sequence[int], k: int, mode: str) -> bool:
    """The decision of ``k_isomorphic_check`` for inputs that already meet
    its contract, with the mode resolved."""
    m = len(a)
    if mode == "distinct":
        order = sorted(range(m), key=lambda j: a[j])
        return lis_length_at_least([b[j] for j in order], m - k)
    weight, _ = heaviest_chain([(a[j], b[j], 1) for j in range(m)])
    return weight >= m - k


def k_isomorphic_witness(
    a: Sequence[int], b: Sequence[int], k: int, mode: str = "auto"
) -> list[int] | None:
    """Kept-position certificate (1-based, ascending) of size >= m - k whose
    elements are jointly increasing in both sequences, or None.

    Both modes pass unit-weight points (a_i, b_i) to the heaviest chain,
    which merges duplicates, and keep every position whose point it chose.
    In distinct mode the points are distinct and their (x asc, y desc)
    order is the order of the first sequence's values, so the chain is a
    heaviest increasing subsequence of the second sequence read in that
    order; the mode still decides which inputs are accepted.
    """
    _check_inputs(a, b, k, mode)
    m = len(a)
    weight, chosen = heaviest_chain([(a[j], b[j], 1) for j in range(m)])
    if weight < m - k:
        return None
    keep = {(x, y) for x, y, _ in chosen}
    return [j + 1 for j in range(m) if (a[j], b[j]) in keep]


# ---------------------------------------------------------------------------
# Pattern preprocessing
# ---------------------------------------------------------------------------


class PatternIndex:
    """Immutable preprocessing of one pattern. The constructor checks the
    pattern, copies it and sorts it once, into ``order``; every other table
    is a ``cached_property``, built from ``order`` at its first read and
    kept. So an index builds each table at most once, and only the tables
    that its chunks' routes read:

    - ``by_order``: a distinct-mode window decided alone, and the patience
      passes of a dense chunk decided together;
    - ``links``: a dense distinct chunk decided together;
    - ``rank`` and ``class_bounds``: the reductions of ``verify_window``;
    - ``ref``: a chunk's ``SlidingSignature``, or a general-mode window
      decided alone. ``ref`` in turn builds its suffix structures at its
      first LCP query, that is when a chunk's DynString first scans a
      window.

    ``order`` lists the 0-based positions in signature path order
    (``path_order``: by value, ties by descending position). That path
    visits the value classes in ascending order and each class from its
    rightmost occurrence to its leftmost: an occurrence's EQ symbol points
    at the next occurrence to its right, and a class's rightmost occurrence
    points down at the leftmost of the class below (LT) or at the floor
    (NONE-MIN). The class walk writes the signature, ``ref.symbols``, in
    that order.

    ``dict_backend`` selects nothing, like the CLI's ``--dict-backend``: it
    is accepted and ignored so that callers which still pass the retired
    key-set choice keep working.
    """

    def __init__(self, pattern: Sequence[int], mode: str = "auto", dict_backend: object = None):
        self.mode = check_sequences(mode, ("pattern", pattern))
        if not pattern:
            raise ValueError("pattern must be non-empty")
        self.pattern = list(pattern)
        self.m = len(pattern)
        self.order = path_order(self.pattern)

    @cached_property
    def ref(self) -> RefString:
        """The reference over the pattern's signature: the class walk over
        ``order``."""
        return RefString(_class_walk(self.pattern, self.order))

    @cached_property
    def rank(self) -> list[int]:
        """The inverse of ``order``, 1-based (index 0 unused): the path step
        of each position, which in distinct mode is the count of smaller
        values."""
        rank = [0] * (self.m + 1)
        for t, p in enumerate(self.order):
            rank[p + 1] = t
        return rank

    @cached_property
    def class_bounds(self) -> tuple[list[int], list[int]]:
        """Per path step, the first and the last step of its value class
        (the step itself in both, for a value that occurs once)."""
        values = list(map(self.pattern.__getitem__, self.order))
        lo: list[int] = []
        hi: list[int] = []
        for last in [*compress(range(self.m - 1), map(ne, values, values[1:])), self.m - 1]:
            size = last + 1 - len(lo)
            lo += [len(lo)] * size
            hi += [last] * size
        return lo, hi

    @cached_property
    def by_order(self) -> itemgetter:
        """Gathers a window's values in ``order``, one C-level call per
        window. An itemgetter of one index returns the bare value, so m = 1
        slices."""
        return itemgetter(*self.order) if self.m > 1 else itemgetter(slice(0, 1))

    @cached_property
    def links(self) -> list[tuple[int, int, int, int]]:
        """Distinct mode: the pattern's m - 1 order edges, for
        ``_decide_dense_chunk``. Edge r links x_r and x_{r+1}, where x is a
        window read in ``order``. Its entry (d, lo, e, lo2) names two
        comparisons as an offset and a shift: window values at positions
        lo and lo + |d| compare as x_r > x_{r+1} when d > 0, and as its
        negation when d < 0; (e, lo2) names x_r > x_{r+2} the same way,
        and the last edge, which has no x_{r+2}, names it e = 0 (never)."""
        order = self.order
        links = [(b - a, min(a, b), c - a, min(a, c)) for a, b, c in zip(order, order[1:], order[2:])]
        if self.m > 1:
            a, b = order[-2:]
            links.append((b - a, min(a, b), 0, 0))
        return links


# ---------------------------------------------------------------------------
# Reductions from signature mismatches to subsequence instances
# ---------------------------------------------------------------------------


def _cut_steps(
    window: Sequence[int], pidx: PatternIndex, mismatches: Sequence[int], offset: int
) -> list[int]:
    """The input contract of both reductions: an int offset >= 0 that leaves
    m values of ``window`` (TypeError, ValueError) and mismatch positions in
    [1, m] (ValueError). Returns the positions' path steps, ascending."""
    _validate_k(offset, "offset")
    m = pidx.m
    if offset + m > len(window):
        raise ValueError(f"window holds {len(window)} values, fewer than offset + m = {offset + m}")
    if mismatches and (min(mismatches) < 1 or max(mismatches) > m):
        raise ValueError(f"mismatch positions must lie in [1, {m}]")
    return sorted(map(pidx.rank.__getitem__, mismatches))


def reduce_distinct(
    window: Sequence[int], pidx: PatternIndex, mismatches: Sequence[int], offset: int = 0
) -> list[tuple[int, int]]:
    """Distinct-mode reduction. The signature mismatches cut the pattern's
    path (see ``PatternIndex``) at their steps into maximal agreement
    paths, as in ``reduce_general``: the floor path starts at step -1 and
    the last path ends at step m. Each path becomes one (value, weight)
    item: its first step and its length. The floor item comes first and
    the others follow in ascending window value at their first step,
    ``window[offset + order[step]]``; the window is the m values from
    ``offset`` on. The window is k-isomorphic to the pattern iff the
    heaviest increasing subsequence weighs at least (m + 1) - k.

    Raises TypeError for an offset that is not an int, and ValueError for
    an offset below 0 or one that leaves fewer than m values, and for a
    mismatch position outside [1, m]; a repeated position raises
    RuntimeError. The values are not checked.
    """
    order = pidx.order
    cuts = _cut_steps(window, pidx, mismatches, offset)
    weights = list(map(sub, [*cuts, pidx.m], [-1, *cuts]))
    if 0 in weights:  # a repeated position leaves an empty path
        raise RuntimeError("path weights must cover every position")
    items = sorted(zip(cuts, weights[1:]), key=lambda item: window[offset + order[item[0]]])
    return [(-1, weights[0]), *items]


def reduce_general(
    window: Sequence[int], pidx: PatternIndex, mismatches: Sequence[int], offset: int = 0
) -> list[tuple[float | int, float | int, int]]:
    """General-mode reduction. The signature mismatches cut the pattern's
    signature path (see ``PatternIndex``) at their steps into maximal
    agreement paths. The floor path starts at step -1, below every class,
    at (-inf, -inf), and the last path ends at step m, a virtual class above
    the top. Each path splits into its leading run inside the class it
    starts in, the run of whole value classes in the middle, and the
    (possibly partial) class it stops in; each part collapses to one (window
    value, pattern value, weight) point at its first step. The weights of
    all points sum to m + 1 including the floor's, and there are at most
    3(|D| + 1) points. Parts may share a point; ``heaviest_chain`` merges
    them, so they are returned unmerged. The window is the m values of
    ``window`` from ``offset`` on, read at ``offset + order[step]``. It is
    k-isomorphic to the pattern iff the heaviest chain weighs at least
    (m + 1) - k. Its input is checked as ``reduce_distinct``'s is.
    """
    m = pidx.m
    order = pidx.order
    class_lo, class_hi = pidx.class_bounds
    pattern = pidx.pattern
    cuts = _cut_steps(window, pidx, mismatches, offset)

    parts: list[tuple[float | int, float | int, int]] = [(_SENTINEL, _SENTINEL, 1)]
    end = -1  # the last step of the class the current path starts in
    for a, b in zip([-1, *cuts], [*cuts, m]):
        if a >= 0:
            end = class_hi[a]
            run = (b if b <= end else end + 1) - a
            if run < 1:  # a repeated position leaves an empty path
                raise RuntimeError("path weights must cover every position")
            p = order[a]
            parts.append((window[offset + p], pattern[p], run))
        if b > end + 1:  # the path leaves its first class
            lo = class_lo[b - 1]  # the first step of the class it stops in
            if lo > end + 1:
                p = order[end + 1]
                parts.append((window[offset + p], pattern[p], lo - end - 1))
            p = order[lo]
            parts.append((window[offset + p], pattern[p], b - lo))

    if len(parts) > 3 * (len(mismatches) + 1):
        raise RuntimeError("general reduction exceeded 3(|D|+1) points")
    return parts


def verify_window(
    window: Sequence[int], pidx: PatternIndex, mismatches: Sequence[int], k: int, offset: int = 0
) -> bool:
    """Exact verdict for one filter-surviving window, given the complete set
    of its signature mismatch positions (1-based, at most 3k of them). The
    window is the m values of ``window`` from ``offset`` on, so a caller
    that holds a longer sequence passes it whole, with no copy; the
    reductions read only the values at the mismatches' path steps.

    k is checked here: TypeError when it is not an int, ValueError when it
    is negative. The reduction checks the window, the offset and the
    mismatch positions, as ``reduce_distinct`` states. The values
    themselves are not checked: ``match_chunk`` has checked them."""
    _validate_k(k)
    threshold = pidx.m + 1 - k
    # The items one pass keeps while they rise (in general mode: in both
    # coordinates, or repeating the last kept point) form an increasing
    # subsequence or a chain: a lower bound that accepts most matching windows.
    weight = 0
    if pidx.mode == "distinct":
        items = reduce_distinct(window, pidx, mismatches, offset)
        top = -2
        for v, w in items:
            if v > top:
                top = v
                weight += w
        solve = heaviest_increasing_subsequence
    else:
        items = reduce_general(window, pidx, mismatches, offset)
        tx = ty = _SENTINEL
        for x, y, w in items:  # in path order: y never falls
            if x > tx and y > ty or x == tx and y == ty:
                tx, ty = x, y
                weight += w
        solve = heaviest_chain
    return weight >= threshold or solve(items)[0] >= threshold


# ---------------------------------------------------------------------------
# Filter-and-verify pipeline
# ---------------------------------------------------------------------------


@dataclass
class MatchStats:
    """Counters for one matching run: a sliding chunk adds its counts once,
    a window decided alone adds its own, and the prefilter and the code
    filter add the windows they rule out per chunk. ``prefiltered``
    counts the windows that the pigeonhole prefilter of ``match_all`` ruled
    out without setting up a chunk for them; they are counted in
    ``windows`` and ``filtered`` too, so ``filtered + verified == windows``.
    ``dyn_scans`` counts the windows whose mismatches the DynString scan
    found, not the direct mirror scan, and ``dyn_chunks`` the chunks whose
    DynString decided at least one window. A candidate window that the
    prefilter leaves to be decided alone counts in ``windows``, in
    ``filtered`` or ``verified`` and in ``occurrences``, never in
    ``dyn_scans`` or ``dyn_chunks``: it builds no DynString. In distinct
    mode such a window always counts in ``verified``, since its patience
    pass decides it without a signature filter; in general mode it counts
    in ``filtered`` when its signature differs in more than 3k places.
    Every window of a chunk decided together counts in ``verified`` too (a
    rejected window as well, and a window left to the patience pass once):
    such a run reads 0 in ``filtered`` unless the prefilter or the code
    filter rules windows out. Consecutive chunks decided together add
    their counts once per run of up to ``_DENSE_RUN`` + m - 1 windows, not
    once per chunk, so the totals are the same as chunk by chunk.
    ``code_ruled_out`` counts the windows that the comparison-code filter
    ruled out, more than 2k of their m - 1 comparison codes differing from
    the pattern's; they count in ``windows``, ``filtered`` and
    ``prefiltered`` too. Only a chunk that would otherwise slide adds to
    it, never a chunk of the route decided together, which is where a
    distinct chunk with m <= 8(3k + 1) goes. ``match_all`` states which
    chunks each stage reads.

    The prefilter and the code filter also rule out windows that the
    signature filter would pass, since a signature distance of at most 3k
    implies neither that one of the k + 1 pattern blocks is kept whole nor
    that at most 2k comparison codes differ. So ``verified`` and
    ``dyn_scans`` can read lower than with the sliding path alone."""

    windows: int = 0
    filtered: int = 0
    verified: int = 0
    occurrences: int = 0
    dyn_scans: int = 0
    dyn_chunks: int = 0
    prefiltered: int = 0
    code_ruled_out: int = 0

    @property
    def pruning_rate(self) -> float:
        return self.filtered / self.windows if self.windows else 0.0


def match_chunk(
    chunk: Sequence[int], pidx: PatternIndex, k: int, stats: MatchStats | None = None
) -> list[int]:
    """Chunk-relative 1-based occurrence starts among the windows one chunk
    of length in [m, 2m] owns under the canonical cut of ``match_all``.

    The chunk owns its first min(m, len(chunk) - m + 1) windows: a full 2m
    chunk owns its first m, the (m+1)-th being the next chunk's first, and
    a shorter chunk owns all of its windows. That is exact under the cut: a
    chunk starting at c is followed by one at c + m iff c + m <= n - m + 1,
    that is iff n - c + 1 >= 2m, so every chunk with a successor is 2m
    long, and the last chunk is shorter than 2m and has none. A window is
    filtered out when its signature differs from the pattern's in more than
    3k places: the chunk's ``SlidingSignature`` is set up with the cap 3k,
    once, for all its windows. A negative k raises ValueError, and the
    chunk is checked by ``SlidingSignature``: int values, a length in
    [m, 2m] and, in distinct mode, unique values. The mode is the index's,
    not resolved again on the chunk: under an index whose "auto" resolved to
    distinct on the pattern, a chunk that repeats a value raises
    DuplicateValuesError, where ``match_all`` would resolve to general;
    build the index with mode="general" for such chunks.
    """
    _validate_k(k)
    sliding = SlidingSignature(chunk, pidx, 3 * k)
    m = pidx.m
    last_start = min(m, len(chunk) - m + 1)
    out: list[int] = []
    verified = 0
    for i in range(1, last_start + 1):
        if i > 1:
            sliding.advance()
        stream = sliding.first_mismatches()
        if not stream.truncated:
            verified += 1
            if verify_window(chunk, pidx, stream.positions, k, offset=i - 1):
                out.append(i)
    if stats is not None:
        stats.windows += last_start
        stats.filtered += last_start - verified
        stats.verified += verified
        stats.occurrences += len(out)
        stats.dyn_scans += sliding.dyn_scans
        stats.dyn_chunks += sliding.dyn_scans > 0
    return out


def match_all(
    text: Sequence[int],
    pattern: Sequence[int],
    k: int,
    mode: str = "auto",
    stats: MatchStats | None = None,
) -> list[int]:
    """All 1-based text positions where an order-preserving occurrence of the
    pattern with at most k mismatches starts, in increasing order.

    The text is cut into overlapping chunks of length 2m starting every m
    positions; each chunk owns the window starts before the next chunk
    begins, so every occurrence is found exactly once. The chunks run one
    after another in this process.

    A pigeonhole prefilter runs before any chunk is set up. Cut the
    pattern's positions into k + 1 contiguous blocks. A window with at most
    k mismatches drops at most k positions, so it keeps every position of
    at least one block, and the kept positions agree pairwise in order (and
    in equality, in general mode). So on that block the window's consecutive
    comparisons equal the pattern's. The comparisons of the whole text are
    one byte each, and each block's are found with ``bytes.find`` among the
    chunk's own window starts. A start where no block's comparisons occur
    at the block's offset cannot be an occurrence, so the rule is exact.
    The finds stop at ``_SPARSE_CAP + 1`` candidates, so a chunk costs
    O(k + 1) ``find`` calls, each over fewer than 2m bytes. Short blocks
    occur almost anywhere, so the prefilter runs only when every block has
    ``_MIN_BLOCK`` = 5 positions or more, that is when m >= 5(k + 1), which
    rules out k >= m - 1.

    A chunk with more block candidates than ``_SPARSE_CAP`` that would
    otherwise slide goes to a second, also exact, test; a chunk of the
    route decided together below never does. A window with at most k
    mismatches keeps at least m - k positions, and every consecutive pair
    whose two positions are both kept compares the same way in window and
    pattern. So at most 2k of its m - 1 comparison codes differ from the
    pattern's.
    ``_code_starts`` counts the differing codes of each owned window with
    bit planes of the codes (<, and <= in general mode), O(m/64) words per
    window, and stops after ``_SPARSE_CAP + 1`` windows within 2k. A dense
    chunk can read every owned window before the stage gives up, so it runs
    only for m up to ``_MAX_CODE_M``, and not at k = 0, where the one block
    is the whole pattern, so its finds already are the windows within
    2k = 0.

    Each chunk then takes one route:

    - Decided alone, when a test leaves it at most ``_SPARSE_CAP``
      windows (a chunk left none is skipped). ``_decide_window`` decides
      each with no sliding set-up: in distinct mode one patience pass over
      the window's values in the pattern's value order that stops at the
      (k + 1)-th value it cannot append; in general mode the window's
      signature, one Hamming scan against the pattern's that stops after
      3k + 1 mismatches, and ``verify_window`` below that cap, the rule
      ``match_chunk`` applies.
    - Decided together, when the prefilter ran and left more, in
      distinct mode with m <= 8(3k + 1), where the direct scan's span at
      the filter's cap of 3k mismatches (``_direct_span(m, 3 * k)``) is
      the whole window: there that scan would read every symbol of every
      window. ``_decide_dense_chunk`` decides the owned windows with no
      chunk set-up, ``advance`` or verification. Bit planes
      of the pattern's broken order edges reject every window with more
      than k of them and certify most of the rest, with two reads of the
      text where two deletions meet, and the patience pass decides the few
      they cannot certify. Consecutive such chunks form one
      run, decided by one call once it holds ``_DENSE_RUN`` = 8192 windows
      or more, after the last chunk, or when the next chunk takes another
      route, before that chunk's windows, so the starts stay ascending. A
      run of W windows walks the pattern's m - 1 edges once, at O(log k)
      operations on W-bit ints per edge, where one call per chunk would
      walk them once per m windows; its bit planes hold 2U(W + m) bits for
      the U offsets of the pattern's edges.
    - The sliding path over the whole chunk (``match_chunk``) otherwise: in
      general mode, for larger m, and for m < 5(k + 1), where neither test
      runs. So ``match_all`` builds the pattern's code planes only where
      such a chunk can occur.

    Each input is checked once, before any work, and the first fault in
    this order raises: k (``_validate_k``); the text's values, their
    repeats in distinct mode and the mode's name (``check_sequences``);
    then the pattern, by its ``PatternIndex``: its values, their repeats in
    distinct mode, and an empty pattern. "auto" resolves to general when
    the text repeats a value, and otherwise on the pattern.
    """
    pidx = _text_and_index(text, pattern, k, mode)
    mode = pidx.mode
    n = len(text)
    m = pidx.m
    if m > n:
        return []
    blocks: list[tuple[int, bytes]] = []
    planes: list[int] = []
    together = False
    if m >= _MIN_BLOCK * (k + 1):
        pattern_codes = _comparison_codes(pattern, mode)
        blocks = _pattern_blocks(pattern_codes, k)
        # the direct scan would read these windows whole: decide dense chunks together
        together = mode == "distinct" and _direct_span(m, 3 * k) == m
        if k > 0 and m <= _MAX_CODE_M and not together:  # the code stage spares sliding chunks only
            planes = _bit_planes(pattern_codes, mode)
    codes = _comparison_codes(text, mode) if blocks else b""
    out: list[int] = []
    end = n - m + 1
    run = 0  # the owned windows of the pending run of chunks decided together
    for first in range(0, end, m):
        owned = min(m, end - first)
        starts = _candidate_starts(codes, blocks, first, owned) if blocks else None
        if starts is None and planes:
            starts = _code_starts(codes, planes, mode, first, owned, m - 1, 2 * k)
            if starts is not None and stats is not None:
                stats.code_ruled_out += owned - len(starts)
        if starts is None and together:
            run += owned
            if run >= _DENSE_RUN or first + owned == end:
                out.extend(_decide_dense_chunk(text, first + owned - run, run, pidx, k, stats))
                run = 0
            continue
        if run:  # the run ends before this chunk's windows
            out.extend(_decide_dense_chunk(text, first - run, run, pidx, k, stats))
            run = 0
        if starts is not None:
            for s in sorted(starts):
                if _decide_window(text[s : s + m], pidx, k, stats):
                    out.append(s + 1)
            if stats is not None:
                ruled_out = owned - len(starts)
                stats.windows += ruled_out
                stats.filtered += ruled_out
                stats.prefiltered += ruled_out
        else:
            occ = match_chunk(text[first : first + 2 * m], pidx, k, stats)
            out.extend(first + r for r in occ)
    return out


def _decide_window(
    window: Sequence[int], pidx: PatternIndex, k: int, stats: MatchStats | None
) -> bool:
    """The verdict of ``match_chunk`` on one m-long window, with no sliding
    set-up.

    In distinct mode the window matches iff its values, read in the
    pattern's value order, keep a strictly increasing subsequence of m - k
    values: one patience pass that stops at the (k + 1)-th value it cannot
    append, O(m + k log m), with no sort and no signature. It also decides
    the windows of a dense chunk that ``_decide_dense_chunk`` cannot
    certify. The window counts as verified. In general mode it is the rule
    ``match_chunk`` applies: the window's signature, one Hamming scan
    against the pattern's that stops after 3k + 1 mismatches, and
    ``verify_window`` below that cap."""
    if pidx.mode == "distinct":
        found = lis_deficit_at_most(pidx.by_order(window), k)
        kept = True
    else:
        sig = _class_walk(window, path_order(window))
        stream = _capped_mismatches(sig, pidx.ref.symbols, 3 * k)
        kept = not stream.truncated
        found = kept and verify_window(window, pidx, stream.positions, k)
    if stats is not None:
        stats.windows += 1
        stats.filtered += not kept
        stats.verified += kept
        stats.occurrences += found
    return found


def _decide_dense_chunk(
    text: Sequence[int], first: int, owned: int, pidx: PatternIndex, k: int, stats: MatchStats | None
) -> list[int]:
    """The 1-based occurrence starts among the distinct-mode windows at
    0-based starts [first, first + owned), all decided together: the owned
    windows of one chunk, or of a run of consecutive chunks, as
    ``match_all`` passes them.

    Read a window in the pattern's value order as x_0, ..., x_{m-1}. Edge r
    is broken when x_r > x_{r+1}. Deleting one value repairs at most one
    broken edge, so a window that breaks more than k edges is rejected. A
    window with at most k is accepted when one deletion per broken edge
    leaves x rising: edge r deletes x_{r+1} (right) if x_r < x_{r+2} or r
    is the last edge, and x_r (left) otherwise. Every pair of kept neighbours
    then rises unless some edge r deletes left while x_{r-1} > x_{r+1}
    (``far``), or while edge r - 2 deletes right, so that the two deletions
    meet. Two adjacent broken edges need no term of their own: x_r > x_{r+1}
    > x_{r+2} makes edge r delete left. Where deletions meet, the kept
    neighbours are x_{r-2} and x_{r+1}. x_{r-2} is kept: edge r - 2 deletes
    x_{r-1}, and edge r - 3 would delete it only with edges r - 3 and r - 2
    both broken, which makes edge r - 3 delete left. A deleted x_{r+1} is
    flagged at edge r + 1 by ``far``, as x_r > x_{r+2}. So the walk records
    the windows where deletions meet, per edge, and after it two reads of
    the text decide each one that no other term flags: x_{r-2} > x_{r+1}
    flags it. The windows flagged get the patience pass
    (``_decide_window``), as do no others.

    Each comparison is one bit per window. The edges are the index's
    ``links``, built once, at the first dense chunk; the range derives the
    set of their offsets, one pass over m - 1 edges. For each offset d,
    one C-level compare of the range's owned + m - 1 values with
    themselves d places on packs bit s + lo of G_d as text[first + s + lo]
    > text[first + s + lo + d]; shifting it right by lo and masking to the
    owned windows gives that comparison for every window at once, and its
    complement the reverse one. Broken edges are counted by a
    bit-sliced binary counter that starts at 2^B - (k + 1) and marks a
    window at its first carry out of B = k.bit_length() bits, so each edge
    costs O(log k) big-int operations on owned-bit ints. The walk keeps the
    last two edges' planes only. A window breaks at most k edges, so it
    gets at most k pairs of reads, never more than its O(m) patience pass.
    One int holds the verdicts: it starts as the windows certified, each
    patience pass that accepts a window sets that window's bit, and one
    ``compress`` over its binary digits lists the starts, ascending, with
    no interpreter step per window. Every window counts as verified, as it
    would when decided alone. The range adds its counts to ``stats`` in
    one place; its patience passes add none.

    The compares cost O(U (owned + m)) for the U offsets that the
    pattern's edges use, so a pattern whose edges spread over many
    offsets, or a text whose windows mostly get the patience pass, can make
    the range slower than one patience pass per window."""
    m = pidx.m
    links = pidx.links
    seg = text[first : first + owned + m - 1]
    mask = (1 << owned) - 1
    planes = {0: 0}
    for d in {abs(d) for link in links for d in link[::2] if d}:
        (g,) = _bit_planes(bytes(map(gt, seg, seg[d:])), "distinct")
        planes[d] = g
        planes[-d] = ~g
    bits = k.bit_length()
    start = (1 << bits) - (k + 1)  # carries out at the (k + 1)-th broken edge
    count = [mask if start >> j & 1 else 0 for j in range(bits)]
    over = bad = 0  # windows past k broken edges; windows the deletions do not certify
    far = prev = right = 0  # x_{r-1} > x_{r+1}; edges r - 2 and r - 1 delete right
    meets = []  # (r, the windows where edge r deletes left and edge r - 2 right)
    for r, (d, lo, e, lo2) in enumerate(links):
        broken = planes[d] >> lo & mask
        down = planes[e] >> lo2 & mask  # x_r > x_{r+2}
        left = broken & down
        bad |= left & far
        if meet := left & prev:
            meets.append((r, meet))
        prev, right = right, broken ^ left
        far = down
        carry = broken
        for j, c in enumerate(count):
            if not carry:
                break
            count[j] = c ^ carry
            carry &= c
        else:
            over |= carry
            if over == mask:
                break
    for r, meet in meets:  # the kept x_{r-2} and x_{r+1} must rise
        meet &= ~(over | bad)
        a, b = first + pidx.order[r - 2], first + pidx.order[r + 1]
        while meet:
            s = (meet & -meet).bit_length() - 1
            meet ^= 1 << s
            if text[a + s] > text[b + s]:
                bad |= 1 << s
    good = mask & ~over & ~bad
    for s in compress(range(owned), _flags(bad & ~over, owned)):  # the doubtful windows
        good |= _decide_window(seg[s : s + m], pidx, k, None) << s
    out = list(compress(range(first + 1, first + owned + 1), _flags(good, owned)))
    if stats is not None:
        stats.windows += owned
        stats.verified += owned
        stats.occurrences += len(out)
    return out


def _comparison_codes(seq: Sequence[int], mode: str) -> bytes:
    """One byte per consecutive pair of ``seq``: in distinct mode 1 for <
    and 0 for >, in general mode 2, 1 and 0 for <, = and >."""
    rest = seq[1:]
    if mode == "distinct":
        return bytes(map(lt, seq, rest))
    return bytes(map(add, map(lt, seq, rest), map(le, seq, rest)))


def _pattern_blocks(codes: bytes, k: int) -> list[tuple[int, bytes]]:
    """(offset, comparison codes) of the pattern's k + 1 contiguous blocks of
    positions, each of floor(m / (k + 1)) or more positions, from the
    pattern's m - 1 comparison codes."""
    m = len(codes) + 1
    cuts = [j * m // (k + 1) for j in range(k + 2)]
    return [(lo, codes[lo : hi - 1]) for lo, hi in zip(cuts, cuts[1:])]


# Per mode, one translate table per bit plane of the comparison codes: the
# < plane, and in general mode the <= plane, which together tell <, = and >.
_PLANE_TABLES = {
    "distinct": (bytes.maketrans(b"\0\1", b"01"),),
    "general": (bytes.maketrans(b"\0\1\2", b"001"), bytes.maketrans(b"\0\1\2", b"011")),
}
_FLAG_TABLE = bytes.maketrans(b"01", b"\0\1")


def _flags(bits: int, width: int) -> bytes:
    """Bits 0 to width - 1 of ``bits``, bit 0 first, as one byte each: 1 for
    a set bit and 0 for a clear one, selectors for ``compress``."""
    return bin(bits | 1 << width)[:2:-1].encode().translate(_FLAG_TABLE)


def _bit_planes(codes: bytes, mode: str) -> list[int]:
    """The comparison codes as one int per bit plane, code j at bit j."""
    backwards = codes[::-1]  # int(·, 2) reads the first byte as the top bit
    return [int(backwards.translate(table), 2) for table in _PLANE_TABLES[mode]]


def _code_starts(
    codes: bytes, planes: list[int], mode: str, first: int, owned: int, width: int, cap: int
) -> list[int] | None:
    """The 0-based window starts in [first, first + owned) whose ``width``
    = m - 1 comparison codes differ from the pattern's bit ``planes`` in at
    most ``cap`` places, or None once there are more than ``_SPARSE_CAP``."""
    mask = (1 << width) - 1
    chunk = _bit_planes(codes[first : first + owned - 1 + width], mode)
    if len(planes) == 1:
        (p,), (t,) = planes, chunk
        near = (s for s in range(owned) if ((t >> s ^ p) & mask).bit_count() <= cap)
    else:
        (p, q), (t, e) = planes, chunk
        near = (s for s in range(owned) if ((t >> s ^ p | e >> s ^ q) & mask).bit_count() <= cap)
    starts = [first + s for s in islice(near, _SPARSE_CAP + 1)]
    return starts if len(starts) <= _SPARSE_CAP else None


def _candidate_starts(
    codes: bytes, blocks: list[tuple[int, bytes]], first: int, owned: int
) -> set[int] | None:
    """The 0-based window starts in [first, first + owned) at which some
    block's codes occur at its offset, or None once there are more than
    ``_SPARSE_CAP`` of them."""
    starts: set[int] = set()
    find = codes.find
    for offset, block in blocks:
        end = first + offset + owned - 1 + len(block)
        q = find(block, first + offset, end)
        while q >= 0:
            starts.add(q - offset)
            if len(starts) > _SPARSE_CAP:
                return None
            q = find(block, q + 1, end)
    return starts


def match_naive(
    text: Sequence[int],
    pattern: Sequence[int],
    k: int,
    mode: str = "auto",
) -> list[int]:
    """Position-by-position matching through the single-alignment check. The
    input is checked once, not per window, by the code that checks it for
    ``match_all``, so both raise the same error on the same input."""
    pidx = _text_and_index(text, pattern, k, mode)
    n, m = len(text), pidx.m
    return [i + 1 for i in range(n - m + 1) if _k_isomorphic(text[i : i + m], pattern, k, pidx.mode)]
