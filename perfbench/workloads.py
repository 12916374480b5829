"""Seeded workload generators and an independent reference answer.

Every workload is a function of (name, seed) alone, built with its own
``random.Random``, so the inputs never depend on the code being measured.
``reference_answer`` decides every window without calling the matcher: a
distinct-mode window is an occurrence iff the window values, read in the
pattern's sorted order, have an increasing subsequence of length >= m - k;
a general-mode window is an occurrence iff the heaviest chain of its
(window value, pattern value) pairs weighs >= m - k.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

# Sizes per workload. Why each exists: see README.md and BENCHMARK.json.
SPECS: dict[str, dict[str, int]] = {
    "distinct-filter": {"n": 100_000, "m": 1000, "k": 2, "plant": 20},
    "distinct-verify": {"n": 30_000, "m": 200, "k": 10, "swaps_per_mille": 20},
    "general-mixed": {"n": 20_000, "m": 200, "k": 20, "plant": 5, "nonzero_per_mille": 100},
    "large-pattern": {"n": 110_000, "m": 100_000, "k": 2, "plant": 1},
}

_VALUE_RANGE = 10**6
# Pattern-order pairs checked per window by the descent filter; a window with
# more than k descents among any subset of pairs cannot be an occurrence.
_MAX_PAIRS = 2000


@dataclass
class Instance:
    text: list[int]
    pattern: list[int]
    k: int
    mode: str
    planted: list[int] = field(default_factory=list)

    @property
    def windows(self) -> int:
        return len(self.text) - len(self.pattern) + 1

    def to_text(self) -> str:
        """The program's instance-file format. Planted positions stay with
        the benchmark: the program receives only text, pattern, k and mode."""
        return (
            f"text: {' '.join(map(str, self.text))}\n"
            f"pattern: {' '.join(map(str, self.pattern))}\n"
            f"k: {self.k}\n"
            f"mode: {self.mode}\n"
        )


def generate(name: str, seed: int, **sizes: int) -> Instance:
    """The named workload for ``seed``; ``sizes`` override SPECS (tests use
    this to build small instances of the same shape)."""
    spec = {**SPECS[name], **sizes}
    rng = random.Random(f"{name}:{seed}")
    pattern_rng = random.Random(f"{name}:pattern")
    if name == "distinct-verify":
        return _near_sorted(rng, pattern_rng, **spec)
    if name == "general-mixed":
        return _sparse_general(rng, pattern_rng, **spec)
    return _random_distinct(rng, **spec)


def _slots(rng: random.Random, n: int, m: int, count: int) -> list[int]:
    """``count`` non-overlapping 1-based window starts, uniformly placed."""
    offsets = sorted(rng.sample(range(n - count * m + count), count))
    return [off + t * (m - 1) + 1 for t, off in enumerate(offsets)]


def _random_distinct(rng: random.Random, n: int, m: int, k: int, plant: int) -> Instance:
    """Distinct random text and pattern, with ``plant`` windows overwritten by
    order-isomorphic copies of the pattern perturbed at up to k positions."""
    pool = rng.sample(range(-_VALUE_RANGE, _VALUE_RANGE), n + m + plant * (m + k))
    pattern, text, spare = pool[:m], pool[m : m + n], iter(pool[m + n :])
    order = sorted(range(m), key=pattern.__getitem__)
    planted = _slots(rng, n, m, plant)
    for start in planted:
        values = sorted(next(spare) for _ in range(m))
        window = [0] * m
        for r, j in enumerate(order):
            window[j] = values[r]
        for j in rng.sample(range(m), rng.randint(0, k)):
            window[j] = next(spare)
        text[start - 1 : start - 1 + m] = window
    return Instance(text, pattern, k, "distinct", planted)


def _near_sorted(
    rng: random.Random, pattern_rng: random.Random, n: int, m: int, k: int, swaps_per_mille: int
) -> Instance:
    """Sorted distinct values with random adjacent swaps, in text and
    pattern, so almost every window passes the filter and goes to
    verification; one window is overwritten with a copy of the pattern's order.

    Verification cost grows with the pattern's own swaps, so one pattern
    drawn from ``pattern_rng`` serves every seed, and the seed varies the text.
    """

    def swap_some(r: random.Random, seq: list[int]) -> list[int]:
        for _ in range(len(seq) * swaps_per_mille // 1000):
            i = r.randrange(len(seq) - 1)
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        return seq

    pattern = swap_some(pattern_rng, list(range(m)))
    text = swap_some(rng, sorted(rng.sample(range(-_VALUE_RANGE, _VALUE_RANGE), n)))
    start = rng.randrange(n - m + 1)
    values = sorted(text[start : start + m])
    text[start : start + m] = [values[r] for r in pattern]
    return Instance(text, pattern, k, "distinct", [start + 1])


def _sparse_general(
    rng: random.Random, pattern_rng: random.Random, n: int, m: int, k: int, plant: int,
    nonzero_per_mille: int,
) -> Instance:
    """Zero background where a fixed share of positions holds 1..3, in text
    and pattern; planted windows copy the pattern with up to k changed values.

    Mismatch counts here sit at the 3k filter cap, so the share of windows
    that reach verification depends mostly on the pattern: one pattern drawn
    from ``pattern_rng`` serves every seed, and the seed varies the text.
    """

    def draw(r: random.Random, length: int) -> list[int]:
        seq = [0] * length
        for j in r.sample(range(length), length * nonzero_per_mille // 1000):
            seq[j] = r.randint(1, 3)
        return seq

    pattern, text = draw(pattern_rng, m), draw(rng, n)
    planted = _slots(rng, n, m, plant)
    for start in planted:
        window = list(pattern)
        for j in rng.sample(range(m), rng.randint(0, k)):
            window[j] = rng.randint(0, 3)
        text[start - 1 : start - 1 + m] = window
    return Instance(text, pattern, k, "general", planted)


def _lis_at_least(seq: list[int], target: int) -> bool:
    tails: list[int] = []
    for x in seq:
        i = bisect_left(tails, x)
        if i == len(tails):
            tails.append(x)
        else:
            tails[i] = x
    return len(tails) >= target


def _distinct_reference(text: np.ndarray, pattern: np.ndarray, k: int) -> np.ndarray:
    m, windows = len(pattern), len(text) - len(pattern) + 1
    order = np.argsort(pattern, kind="stable")
    need = m - k
    # Necessary: deleting one element removes at most one descent.
    descents = np.zeros(windows, dtype=np.int32)
    for a, b in zip(order[:_MAX_PAIRS], order[1 : _MAX_PAIRS + 1]):
        descents += text[a : a + windows] > text[b : b + windows]
    cand = np.flatnonzero(descents <= k)
    # Sufficient: a greedy increasing subsequence is a lower bound.
    last = np.full(len(cand), np.iinfo(np.int64).min)
    kept = np.zeros(len(cand), dtype=np.int64)
    for j in order:
        col = text[cand + j]
        up = col > last
        kept += up
        last = np.where(up, col, last)
    verdict = kept >= need
    for t in np.flatnonzero(~verdict):
        i = cand[t]
        verdict[t] = _lis_at_least(text[i + order].tolist(), need)
    return cand[verdict]


def _general_reference(text: np.ndarray, pattern: np.ndarray, k: int) -> np.ndarray:
    """Heaviest chain over the grid of (text value, pattern value) classes,
    for every window at once; suited to small alphabets."""
    xs, ys = np.unique(text), np.unique(pattern)
    best = [[None] * len(ys) for _ in xs]  # best chain weight ending at or below (a, b)
    for a, x in enumerate(xs):
        tx = (text == x).astype(np.int64)
        for b, y in enumerate(ys):
            count = np.correlate(tx, (pattern == y).astype(np.int64), "valid")
            below = best[a - 1][b - 1] if a and b else 0
            cell = count + below
            if a:
                cell = np.maximum(cell, best[a - 1][b])
            if b:
                cell = np.maximum(cell, best[a][b - 1])
            best[a][b] = cell
    return np.flatnonzero(best[-1][-1] >= len(pattern) - k)


def reference_answer(inst: Instance) -> list[int]:
    """1-based start of every occurrence, decided without the matcher."""
    text = np.asarray(inst.text, dtype=np.int64)
    pattern = np.asarray(inst.pattern, dtype=np.int64)
    if inst.mode == "distinct":
        starts = _distinct_reference(text, pattern, inst.k)
    else:
        starts = _general_reference(text, pattern, inst.k)
    return (starts + 1).tolist()
