"""Route-level oracle tests: every route that ``match_all`` can pick for a
chunk runs on every chunk of the canonical cut, whichever route
``match_all`` would pick for it, and each must answer like ``match_naive``
on the windows the chunk owns. A change to the route ladder then cannot
move a route out of oracle coverage."""

import random
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

from opmatch import signature
from opmatch.matcher import (
    _MAX_CODE_M,
    _MIN_BLOCK,
    MatchStats,
    PatternIndex,
    _bit_planes,
    _candidate_starts,
    _code_starts,
    _comparison_codes,
    _decide_dense_chunk,
    _decide_window,
    _pattern_blocks,
    match_chunk,
    match_naive,
)


def _background(rng: random.Random, mode: str, count: int, span: int) -> list[int]:
    """``count`` random values: distinct ones below ``span``, or values from
    a small alphabet in general mode."""
    if mode == "distinct":
        return rng.sample(range(span), count)
    sigma = rng.randint(1, 4)
    return [rng.randrange(sigma) for _ in range(count)]


def _near_sorted(rng: random.Random, mode: str, count: int) -> list[int]:
    """0..count-1 with a few adjacent swaps; halved in general mode, so that
    values come in equal pairs."""
    seq = list(range(count)) if mode == "distinct" else [v // 2 for v in range(count)]
    for _ in range(rng.randint(0, 4)):
        j = rng.randrange(max(1, count - 1))
        seq[j : j + 2] = seq[j : j + 2][::-1]
    return seq


def _small_alphabet(rng: random.Random, count: int, sigma: int, rate: float) -> list[int]:
    """A zero background where each value is one of 1..sigma - 1 with
    probability ``rate``: long runs of equal values, as in the
    ``general-mixed`` benchmark workload."""
    return [rng.randrange(1, sigma) if rng.random() < rate else 0 for _ in range(count)]


@st.composite
def route_cases(draw):
    """(text, pattern, k, mode): random values in either mode; near-sorted
    text and pattern; a monotone text against a monotone pattern; in
    general mode, a small alphabet of at most 3 values, mostly zeros; or
    random text holding one or two copies of the pattern with exactly k, or
    k + 1, values displaced (at most m). m runs from 1 to 60, k from 0 to 8
    and n from m to 3m + 10."""
    shape = draw(st.sampled_from(["random", "near-sorted", "monotone", "small-alphabet", "planted-k", "planted-k+1"]))
    mode = "general" if shape == "small-alphabet" else draw(st.sampled_from(["distinct", "general"]))
    m = draw(st.integers(1, 60))
    k = draw(st.integers(0, 8))
    n = draw(st.integers(m, 3 * m + 10))
    rng = draw(st.randoms(use_true_random=False))
    span = 10 * (n + m)
    if shape == "near-sorted":
        text, pattern = _near_sorted(rng, mode, n), _near_sorted(rng, mode, m)
    elif shape == "small-alphabet":
        sigma, rate = rng.randint(2, 3), rng.choice((0.1, 0.3, 0.6))
        text, pattern = _small_alphabet(rng, n, sigma, rate), _small_alphabet(rng, m, sigma, rate)
    else:
        text, pattern = _background(rng, mode, n, span), _background(rng, mode, m, span)
    if shape == "monotone":  # each way up or down
        text.sort(reverse=rng.random() < 0.5)
        pattern.sort(reverse=rng.random() < 0.5)
    if shape.startswith("planted"):
        displaced = min(m, k + (shape == "planted-k+1"))
        rank = {v: r for r, v in enumerate(sorted(set(pattern)))}
        for copy_index in range(rng.randint(1, 2)):
            # each copy's values lie in [base - 16, base + 16m + 8]: above the
            # background and the copy before
            base = span + 16 + 16 * (m + 3) * copy_index
            copy = [base + 16 * rank[v] for v in pattern]
            for t, j in enumerate(rng.sample(range(m), displaced)):  # distinct, off the class values
                copy[j] = base + 16 * rng.randrange(-1, len(rank) + 1) + 1 + t
            s = rng.randrange(n - m + 1)
            text[s : s + m] = copy
    return text, pattern, k, mode


@settings(max_examples=500, deadline=None)
@given(route_cases())
# in the window 1 3 0 5 2 4, edge 1 deletes right and edge 3 left: the kept
# 3 > 2 leave it to the patience pass, which rejects it at k = 2
@example(([1, 3, 0, 5, 2, 4], [0, 1, 2, 3, 4, 5], 2, "distinct"))
def test_every_route_decides_every_chunk_like_naive(case):
    # for each chunk of the canonical cut: the sliding path with the direct
    # scan on, the sliding path with the DynString deciding every window,
    # each owned window decided alone and, in distinct mode, the chunk
    # decided together; and both stages of the prefilter, wherever
    # ``match_all`` would run them and they return starts, keep every
    # occurrence the chunk owns
    text, pattern, k, mode = case
    n, m = len(text), len(pattern)
    pidx = PatternIndex(pattern, mode)
    want = match_naive(text, pattern, k, mode)
    blocks = planes = None
    if m >= _MIN_BLOCK * (k + 1):
        codes, pattern_codes = _comparison_codes(text, mode), _comparison_codes(pattern, mode)
        blocks = _pattern_blocks(pattern_codes, k)
        if k > 0 and m <= _MAX_CODE_M:
            planes = _bit_planes(pattern_codes, mode)
    for first in range(0, n - m + 1, m):
        owned = min(m, n - m + 1 - first)
        chunk = text[first : first + 2 * m]
        expected = [s for s in want if first < s <= first + owned]
        assert [first + r for r in match_chunk(chunk, pidx, k)] == expected
        stats = MatchStats()
        with patch.object(signature, "_DIRECT_SPAN", 0):
            assert [first + r for r in match_chunk(chunk, pidx, k, stats)] == expected
        assert stats.dyn_scans == owned  # the patch left no window to the direct scan
        alone = [s + 1 for s in range(first, first + owned) if _decide_window(text[s : s + m], pidx, k, None)]
        assert alone == expected
        if mode == "distinct":
            assert _decide_dense_chunk(text, first, owned, pidx, k, None) == expected
        if blocks is not None:
            starts = _candidate_starts(codes, blocks, first, owned)
            assert starts is None or {s - 1 for s in expected} <= starts
        if planes is not None:
            starts = _code_starts(codes, planes, mode, first, owned, m - 1, 2 * k)
            assert starts is None or {s - 1 for s in expected} <= set(starts)
