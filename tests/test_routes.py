"""Route-level oracle tests: every route that ``match_all`` can pick for a
chunk runs on every chunk of the canonical cut, whichever route
``match_all`` would pick for it, and each must answer like ``match_naive``
on the windows the chunk owns. A change to the route ladder then cannot
move a route out of oracle coverage."""

import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from opmatch import signature
from opmatch.matcher import MatchStats, PatternIndex, _decide_dense_chunk, _decide_window, match_chunk, match_naive

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


@st.composite
def route_cases(draw):
    """(text, pattern, k, mode) in either mode: random values;
    near-sorted text and pattern; a monotone text against a monotone
    pattern; or random text holding one or two copies of the pattern with
    exactly k, or k + 1, values displaced (at most m). m runs from 1 to 40,
    k from 0 to 6 and n from m to 3m + 10."""
    mode = draw(st.sampled_from(["distinct", "general"]))
    shape = draw(st.sampled_from(["random", "near-sorted", "monotone", "planted-k", "planted-k+1"]))
    m = draw(st.integers(1, 40))
    k = draw(st.integers(0, 6))
    n = draw(st.integers(m, 3 * m + 10))
    rng = draw(st.randoms(use_true_random=False))
    span = 10 * (n + m)
    if shape == "near-sorted":
        text, pattern = _near_sorted(rng, mode, n), _near_sorted(rng, mode, m)
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


@settings(max_examples=300, deadline=None)
@given(route_cases())
def test_every_route_decides_every_chunk_like_naive(case):
    # for each chunk of the canonical cut: the sliding path with the direct
    # scan on, the sliding path with the DynString deciding every window,
    # each owned window decided alone and, in distinct mode, the chunk
    # decided together
    text, pattern, k, mode = case
    n, m = len(text), len(pattern)
    pidx = PatternIndex(pattern, mode)
    want = match_naive(text, pattern, k, mode)
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
