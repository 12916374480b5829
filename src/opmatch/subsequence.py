"""Increasing-subsequence solvers.

Three related problems back the match verifier: two decision forms of the
longest strictly increasing subsequence, the heaviest strictly increasing
subsequence of weighted items, and the heaviest chain of weighted planar
points (strict dominance in both coordinates, equal points allowed
together). The solvers take plain tuples: (value, weight) items and
(x, y, weight) points; ``WeightedSeqItem`` and ``WeightedPoint`` are named
views of the same tuples. Exponential brute-force oracles for the latter
two live here as well so every randomized suite can check the solvers
against ground truth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

__all__ = [
    "WeightedSeqItem",
    "WeightedPoint",
    "lis_length_at_least",
    "lis_deficit_at_most",
    "heaviest_increasing_subsequence",
    "heaviest_chain",
    "his_bruteforce",
    "chain_bruteforce",
]

_BRUTE_CAP = 20


class WeightedSeqItem(NamedTuple):
    value: Any
    weight: int


class WeightedPoint(NamedTuple):
    """Weighted planar point; coordinates may be ints, floats or tuples
    (compared lexicographically), as long as all points in one instance
    are mutually comparable."""

    x: Any
    y: Any
    weight: int


def lis_length_at_least(seq: Sequence[int], target: int) -> bool:
    """True iff ``seq`` has a strictly increasing subsequence of length >= target."""
    if target <= 0:
        return True
    if target > len(seq):
        return False
    tails: list[int] = []
    append = tails.append
    for x in seq:
        i = bisect_left(tails, x)
        if i == len(tails):
            append(x)
            if len(tails) >= target:
                return True
        else:
            tails[i] = x
    return False


def lis_deficit_at_most(seq: Iterable[Any], k: int) -> bool:
    """True iff dropping at most k values of ``seq`` leaves it strictly
    increasing, that is iff its longest strictly increasing subsequence
    has at least len(seq) - k values; False for k < 0.

    One patience-sorting pass over any iterable: a value above the last
    tail extends the longest subsequence, and any other value replaces a
    tail and leaves its length unchanged, so the deficit counts those
    values and never falls. The pass returns False at the (k + 1)-th of
    them without reading further; an accept costs one append per value and
    at most k bisects.
    """
    if k < 0:
        return False
    it = iter(seq)
    for top in it:  # the first value, if any, is the first tail
        break
    else:
        return True
    tails = [top]
    append = tails.append
    budget = k
    for x in it:
        if x > top:
            append(x)
            top = x
        elif budget > 0:
            budget -= 1
            tails[bisect_left(tails, x)] = x
            top = tails[-1]
        else:
            return False
    return True


def heaviest_increasing_subsequence(items: Sequence[tuple[Any, int]]) -> tuple[int, list[int]]:
    """Maximum total weight over strictly increasing subsequences of
    (value, weight) items.

    Returns (weight, witness) where witness lists the chosen 1-based item
    indices in order. With all weights 1 this equals the classic LIS length.

    The staircase holds, in three parallel lists, the best weight of a
    subsequence ending at or below each stored value, with values and
    weights both strictly increasing; an empty subsequence of weight 0
    sits below it. An item extends the best entry with a smaller value,
    enters at its own value unless an entry at or below that value weighs
    as much, and evicts the entries above it that it now dominates.
    """
    vals: list[Any] = []
    best: list[int] = []
    tags: list[int] = []
    parents: list[int | None] = [None] * len(items)
    best_w = 0
    best_i: int | None = None
    for i, (v, w) in enumerate(items):
        j = bisect_left(vals, v)
        base = best[j - 1] if j else 0
        r = base + w
        if r <= (best[j] if j < len(vals) and vals[j] == v else base):
            continue
        parents[i] = tags[j - 1] if j else None
        e = bisect_right(best, r, j)
        vals[j:e] = (v,)
        best[j:e] = (r,)
        tags[j:e] = (i,)
        if r > best_w:
            best_w = r
            best_i = i
    witness: list[int] = []
    while best_i is not None:
        witness.append(best_i + 1)
        best_i = parents[best_i]
    witness.reverse()
    return best_w, witness


def heaviest_chain(points: Sequence[tuple[Any, Any, int]]) -> tuple[int, list[WeightedPoint]]:
    """Maximum total weight over chains of (x, y, weight) planar points.

    A chain may contain equal points (their weights add up after duplicate
    collapse) and otherwise requires strict dominance in both coordinates.
    Duplicates are collapsed and the points ordered by (x asc, y desc); a
    strictly increasing subsequence of their y values is then exactly a
    chain: strict y excludes same-y pairs, the descending tie order
    excludes same-x pairs.
    """
    agg: dict[tuple[Any, Any], int] = {}
    for x, y, w in points:
        key = (x, y)
        agg[key] = agg.get(key, 0) + w
    order = sorted(agg, key=itemgetter(1), reverse=True)
    order.sort(key=itemgetter(0))
    weight, idx_witness = heaviest_increasing_subsequence([(y, agg[x, y]) for x, y in order])
    witness = [WeightedPoint(*order[i - 1], agg[order[i - 1]]) for i in idx_witness]
    return weight, witness


def his_bruteforce(items: Sequence[tuple[Any, int]]) -> int:
    """Exact optimum by enumerating every subset; rejects more than 20 items."""
    n = len(items)
    if n > _BRUTE_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_CAP} items, got {n}")
    vals = [v for v, _ in items]
    wts = [w for _, w in items]
    best = 0
    for mask in range(1 << n):
        prev = None
        total = 0
        ok = True
        for i in range(n):
            if mask >> i & 1:
                if prev is not None and vals[i] <= prev:
                    ok = False
                    break
                prev = vals[i]
                total += wts[i]
        if ok and total > best:
            best = total
    return best


def chain_bruteforce(points: Sequence[tuple[Any, Any, int]]) -> int:
    """Exact optimum by enumerating every subset of (possibly duplicated)
    points; pairs must be equal or strictly dominating either way."""
    n = len(points)
    if n > _BRUTE_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_CAP} points, got {n}")
    best = 0
    for mask in range(1 << n):
        chosen = [points[i] for i in range(n) if mask >> i & 1]
        ok = True
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                (px, py, _), (qx, qy, _) = chosen[i], chosen[j]
                if px == qx and py == qy:
                    continue
                if px < qx and py < qy:
                    continue
                if px > qx and py > qy:
                    continue
                ok = False
                break
            if not ok:
                break
        if ok:
            total = sum(w for _, _, w in chosen)
            if total > best:
                best = total
    return best
