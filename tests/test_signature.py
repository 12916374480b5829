import itertools
import random
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opmatch.fragstring import MismatchStream
from opmatch.matcher import MatchStats, PatternIndex, match_all, match_chunk
from opmatch.selftest import first_window_sliding
from opmatch.seqcore import DuplicateValuesError
from opmatch.signature import (
    REL_EQ,
    REL_LT,
    REL_MIN,
    SlidingSignature,
    compute_signature,
    pack_symbol,
    signature_hamming,
    unpack_symbol,
    window_predecessors,
)

SEQ_A = [11, 4, 12, 1, 9, 3, 10, 7, 2, 5, 13, 0, 6, 8]
SEQ_B = [10, 1, 11, 2, 9, 4, 12, 7, 3, 5, 13, 0, 6, 8]
OFFS_A = [6, 4, -2, 8, 9, 3, -2, 5, -5, -8, -8, 0, -3, -6]
OFFS_B = [4, 10, -2, -2, 9, 3, -4, 5, -5, -4, -4, 0, -3, -6]


def test_pack_roundtrip():
    for offset in range(-130, 131):
        for rel in (REL_LT, REL_EQ, REL_MIN):
            assert unpack_symbol(pack_symbol(offset, rel)) == (offset, rel)


def test_golden_offsets():
    sig_a = compute_signature(SEQ_A, "distinct")
    sig_b = compute_signature(SEQ_B, "distinct")
    assert [p >> 2 for p in sig_a] == OFFS_A
    assert [p >> 2 for p in sig_b] == OFFS_B
    assert unpack_symbol(sig_a[11]) == (0, REL_MIN)
    assert unpack_symbol(sig_b[11]) == (0, REL_MIN)
    assert all(unpack_symbol(p)[1] in (REL_LT, REL_MIN) for p in sig_a)


def test_golden_hamming_distance():
    sig_a = compute_signature(SEQ_A, "distinct")
    sig_b = compute_signature(SEQ_B, "distinct")
    res = signature_hamming(sig_a, sig_b)
    assert res.positions == [1, 2, 4, 7, 10, 11]
    assert not res.truncated


def test_hamming_identical_and_cap():
    sig_a = compute_signature(SEQ_A, "distinct")
    assert signature_hamming(sig_a, sig_a).positions == []
    capped = signature_hamming(
        compute_signature(SEQ_A, "distinct"), compute_signature(SEQ_B, "distinct"), cap=2
    )
    assert capped.truncated
    assert capped.positions == [1, 2, 4]


def test_hamming_length_mismatch():
    with pytest.raises(ValueError):
        signature_hamming(compute_signature([1, 2]), compute_signature([1, 2, 3]))


def test_hamming_cap_at_and_below_zero():
    sig_a = compute_signature(SEQ_A, "distinct")
    sig_b = compute_signature(SEQ_B, "distinct")
    assert signature_hamming(sig_a, sig_a, cap=0) == MismatchStream([], False)
    assert signature_hamming(sig_a, sig_b, cap=0) == MismatchStream([1], True)
    with pytest.raises(ValueError, match="cap must be non-negative"):
        signature_hamming(sig_a, sig_a, cap=-1)
    # as for k: a bool is not read as 1, nor a float passed on to islice
    for bad in (True, 1.5):
        with pytest.raises(TypeError, match="cap must be an int"):
            signature_hamming(sig_a, sig_b, cap=bad)


class _Unread:
    """A chunk that fails the test if anything reads it."""

    def _read(self, *args):
        raise AssertionError("the chunk was read")

    __len__ = __iter__ = __getitem__ = _read


def test_every_scan_limit_is_a_count():
    # both scan limits are read as signature_hamming reads its cap: a bool is
    # not read as 1, a float neither truncates nor reaches islice. A sliding
    # signature checks its limit at set-up, before it reads the chunk; a
    # DynString checks the limit of each scan
    pidx = PatternIndex(SEQ_B[:7], "distinct")
    dyn = SlidingSignature(SEQ_A, pidx, 0).dyn
    scans = (lambda limit: SlidingSignature(_Unread(), pidx, limit), lambda limit: dyn.first_mismatches(1, limit))
    for scan in scans:
        for bad in (0.5, True):
            with pytest.raises(TypeError, match="limit must be an int"):
                scan(bad)
        with pytest.raises(ValueError, match="limit must be non-negative"):
            scan(-1)


def test_match_chunk_checks_its_scan_limit_once(monkeypatch):
    # the cap 3k is the same for every window, so the chunk's sliding
    # signature checks it once, at set-up, not once per window; the DynString
    # checks the limit of each scan it makes. The random chunk's windows are
    # all decided by the direct scan, the increasing chunk's by the DynString
    import opmatch.fragstring as fragstring
    import opmatch.signature as signature

    def counting(seen, validate):
        return lambda n, name="k": seen.append(name) or validate(n, name)

    names = {signature: [], fragstring: []}
    for module, seen in names.items():
        monkeypatch.setattr(module, "_validate_k", counting(seen, module._validate_k))
    m = 60
    for chunk, dyn_scans in ((random.Random(41).sample(range(1000), 2 * m), 0), (list(range(2 * m)), m)):
        for seen in names.values():
            seen.clear()
        stats = MatchStats()
        match_chunk(chunk, PatternIndex(list(range(m)), "distinct"), 1, stats)
        assert (stats.windows, stats.dyn_scans) == (m, dyn_scans)
        assert names[signature].count("limit") == 1
        assert names[fragstring].count("limit") == dyn_scans


@pytest.mark.parametrize("limit", [0, 1, 2])
def test_direct_scan_decides_every_window_within_its_span(limit):
    # a window no longer than the direct span, 8(limit + 1), is decided by
    # the direct scan even where it matches; one symbol longer, a matching
    # window goes to the DynString, and so does every window after it
    span = 8 * (limit + 1)
    for m, dyn_scans in ((span, 0), (span + 1, span + 2)):
        sliding = SlidingSignature(list(range(2 * m)), PatternIndex(list(range(m)), "distinct"), limit)
        for i in range(1, m + 2):
            assert sliding.first_mismatches() == MismatchStream([], False)
            if i <= m:
                sliding.advance()
        assert sliding.dyn_scans == dyn_scans, m


def test_sorted_chain_signature():
    sig = compute_signature([1, 2, 3], "distinct")
    assert [unpack_symbol(p) for p in sig] == [
        (0, REL_MIN),
        (-1, REL_LT),
        (-1, REL_LT),
    ]


def test_general_mode_with_repeats():
    sig = compute_signature([5, 5, 2], "general")
    assert [unpack_symbol(p) for p in sig] == [
        (1, REL_EQ),
        (1, REL_LT),
        (0, REL_MIN),
    ]


def test_distinct_mode_rejects_duplicates():
    with pytest.raises(DuplicateValuesError):
        compute_signature([5, 5, 2], "distinct")


def test_default_mode_is_auto():
    # like every other entry point: a repeated value selects general mode
    assert compute_signature([5, 5, 2]) == compute_signature([5, 5, 2], "general")
    assert compute_signature([3, 1, 2]) == compute_signature([3, 1, 2], "distinct")


def test_modes_agree_on_distinct_input():
    rng = random.Random(2)
    for _ in range(200):
        seq = rng.sample(range(1000), rng.randint(1, 40))
        assert compute_signature(seq, "distinct") == compute_signature(seq, "general")


def test_monotone_map_invariance():
    rng = random.Random(4)
    for _ in range(200):
        mode = "distinct" if rng.random() < 0.5 else "general"
        if mode == "distinct":
            seq = rng.sample(range(500), rng.randint(1, 30))
        else:
            seq = [rng.randint(0, 8) for _ in range(rng.randint(1, 30))]
        shift = rng.randint(-100, 100)
        assert compute_signature(seq, mode) == compute_signature(
            [x + shift for x in seq], mode
        )
        # any strictly increasing map, not just shifts
        mapped = [x * 7 + shift for x in seq]
        assert compute_signature(seq, mode) == compute_signature(mapped, mode)


def test_signature_characterizes_isomorphism_distinct():
    from opmatch.matcher import k_isomorphic_subset_oracle

    rng = random.Random(8)
    for _ in range(400):
        m = rng.randint(1, 7)
        a = rng.sample(range(40), m)
        b = rng.sample(range(40), m)
        same_sig = compute_signature(a, "distinct") == compute_signature(b, "distinct")
        assert same_sig == k_isomorphic_subset_oracle(a, b, 0)


def test_signature_characterizes_isomorphism_general():
    from opmatch.matcher import k_isomorphic_subset_oracle

    rng = random.Random(9)
    for _ in range(400):
        m = rng.randint(1, 7)
        a = [rng.randint(0, 3) for _ in range(m)]
        b = [rng.randint(0, 3) for _ in range(m)]
        same_sig = compute_signature(a, "general") == compute_signature(b, "general")
        assert same_sig == k_isomorphic_subset_oracle(a, b, 0)


def test_sliding_init_matches_from_scratch():
    chunk = [1, 10, 6, 4, 8, 5, 7, 9, 3]
    sliding = first_window_sliding(chunk, 5, "distinct")
    assert sliding.window_view() == compute_signature(chunk[:5], "distinct")


def test_sliding_advance_fig_window():
    chunk = [1, 10, 6, 4, 8, 5, 7, 9, 3]
    sliding = first_window_sliding(chunk, 5, "distinct")
    for window_start in range(2, 5):
        sliding.advance()
        want = compute_signature(chunk[window_start - 1 : window_start + 4], "distinct")
        assert sliding.window_view() == want
    assert sliding.window_view() == compute_signature([4, 8, 5, 7, 9], "distinct")


def test_sliding_every_step_consistent_both_modes():
    rng = random.Random(13)
    for case in range(600):
        mode = "distinct" if case % 2 == 0 else "general"
        m = rng.randint(1, 32)
        length = rng.randint(m, 2 * m)
        if mode == "distinct":
            chunk = rng.sample(range(10 * length + 10), length)
        else:
            chunk = [rng.randint(0, max(1, m // 2)) for _ in range(length)]
        sliding = first_window_sliding(chunk, m, mode)
        for i in range(1, length - m + 2):
            assert (
                sliding.window_view()
                == compute_signature(chunk[i - 1 : i - 1 + m], mode)
            ), (mode, m, chunk, i)
            if i + m <= length:
                sliding.advance()


def test_sliding_exhaustive_tiny_chunks():
    import itertools

    def consistent(chunk, m, mode):
        sliding = first_window_sliding(chunk, m, mode)
        length = len(chunk)
        for i in range(1, length - m + 2):
            want = compute_signature(chunk[i - 1 : i - 1 + m], mode)
            assert sliding.window_view() == want, (chunk, m, mode, i)
            if i + m <= length:
                sliding.advance()

    for m in (2, 3):
        for length in range(m, 2 * m + 1):
            for chunk in itertools.product(range(3), repeat=length):
                consistent(list(chunk), m, "general")
            for chunk in itertools.permutations(range(length)):
                consistent(list(chunk), m, "distinct")


def test_sliding_structured_chunks():
    for m in (1, 2, 3, 5, 8):
        length = 2 * m
        for chunk in (
            [7] * length,
            list(range(length)),
            list(range(length, 0, -1)),
            [i % 2 for i in range(length)],
            [i % 3 for i in range(length)],
            [min(i, length - i) for i in range(length)],
            [0] * m + [1] * (length - m),
            [i // 2 for i in range(length)],
        ):
            sliding = first_window_sliding(chunk, m, "general")
            for i in range(1, length - m + 2):
                want = compute_signature(chunk[i - 1 : i - 1 + m], "general")
                assert sliding.window_view() == want, (chunk, m, i)
                if i + m <= length:
                    sliding.advance()


def test_sliding_constant_text_general():
    chunk = [7] * 10
    sliding = first_window_sliding(chunk, 5, "general")
    first = sliding.window_view()
    for _ in range(5):
        sliding.advance()
        assert sliding.window_view() == first


def test_sliding_m_equals_one():
    sliding = first_window_sliding([4, 2], 1, "distinct")
    from opmatch.signature import MIN_PACKED

    assert sliding.window_view() == [MIN_PACKED]
    sliding.advance()
    assert sliding.window_view() == [MIN_PACKED]


def test_sliding_advance_past_end_raises():
    sliding = first_window_sliding([3, 1], 2, "distinct")
    with pytest.raises(ValueError):
        sliding.advance()


def test_sliding_rejects_short_chunk():
    with pytest.raises(ValueError, match="shorter than the window"):
        SlidingSignature([1, 2], PatternIndex([1, 2, 3], "distinct"), 0)


def test_sliding_distinct_rejects_duplicates():
    # the index is built over unique values, so only the chunk's own rank
    # check sees the repeat past position m
    with pytest.raises(DuplicateValuesError):
        SlidingSignature([1, 2, 1], PatternIndex([1, 2], "distinct"), 0)


# ---------------------------------------------------------------------------
# adversarial chunk shapes, both modes
# ---------------------------------------------------------------------------


@st.composite
def sliding_cases(draw):
    """(chunk, m): a chunk of length m, 2m or in between, in one of
    the shapes that stress the value-class bookkeeping."""
    m = draw(st.one_of(st.just(1), st.integers(1, 40)))
    length = draw(st.sampled_from([m, 2 * m, draw(st.integers(m, 2 * m))]))
    shape = draw(st.sampled_from(["equal", "sawtooth", "few", "increasing", "decreasing"]))
    if shape == "equal":
        chunk = [draw(st.integers(-5, 5))] * length
    elif shape == "sawtooth":
        period = draw(st.integers(1, max(1, length)))
        # with the position added in, every tooth repeats the shape, not the values
        lift = draw(st.booleans())
        chunk = [(i % period) * length + (i if lift else 0) for i in range(length)]
    elif shape == "few":
        chunk = draw(st.lists(st.integers(0, 2), min_size=length, max_size=length))
    else:
        steps = draw(st.lists(st.integers(1, 10**6), min_size=length, max_size=length))
        chunk = list(itertools.accumulate(steps))
        if shape == "decreasing":
            chunk.reverse()
    return chunk, m


@settings(max_examples=200, deadline=None)
@given(sliding_cases())
def test_sliding_matches_from_scratch_on_adversarial_shapes(case):
    chunk, m = case
    modes = ["general"] + (["distinct"] if len(set(chunk)) == len(chunk) else [])
    for mode in modes:
        sliding = first_window_sliding(chunk, m, mode)
        for i in range(1, len(chunk) - m + 2):
            want = compute_signature(chunk[i - 1 : i - 1 + m], mode)
            assert sliding.window_view() == want, (mode, i)
            if i + m <= len(chunk):
                sliding.advance()
        with pytest.raises(ValueError):
            sliding.advance()


# ---------------------------------------------------------------------------
# the offline window predecessors behind advance's linked lists
# ---------------------------------------------------------------------------


@st.composite
def predecessor_cases(draw):
    """(chunk, m): a chunk of length m..2m, m = 1 included, in a monotone,
    sawtooth, all-equal or few-distinct-values shape."""
    m = draw(st.one_of(st.just(1), st.integers(1, 40)))
    length = draw(st.sampled_from([m, 2 * m, draw(st.integers(m, 2 * m))]))
    shape = draw(st.sampled_from(["increasing", "decreasing", "sawtooth", "equal", "few"]))
    if shape == "increasing":
        chunk = list(range(length))
    elif shape == "decreasing":
        chunk = list(range(length, 0, -1))
    elif shape == "sawtooth":
        period = draw(st.integers(1, length))
        chunk = [i % period for i in range(length)]
    elif shape == "equal":
        chunk = [draw(st.integers(-5, 5))] * length
    else:
        chunk = draw(st.lists(st.integers(0, 3), min_size=length, max_size=length))
    return chunk, m


def _predecessor_inputs(chunk, m):
    """vals, order and last for window_predecessors, built independently of set-up."""
    dense = sorted(set(chunk))
    vals = [0] + [bisect_left(dense, x) + 1 for x in chunk]
    order = sorted(range(len(chunk)), key=lambda j: (chunk[j], -j))  # path order
    last = [0] * (len(dense) + 2)
    for p in range(1, m + 1):
        last[vals[p]] = p
    return vals, order, last


def _predecessors_by_bisect(vals, m):
    """Entry i: the largest rank below that of a = i + m in [i + 1, a - 1]."""
    out = [0] * (len(vals) - m)
    for i in range(1, len(out)):
        present = sorted(set(vals[i + 1 : i + m]))
        t = bisect_left(present, vals[i + m])
        out[i] = present[t - 1] if t else 0
    return out


@settings(max_examples=300, deadline=None)
@given(predecessor_cases())
def test_window_predecessors_match_bisect(case):
    chunk, m = case
    # general mode ranks the values as they are, distinct mode their tie-broken ranks
    for seq in (chunk, _tie_broken(chunk)):
        vals, order, last = _predecessor_inputs(seq, m)
        assert window_predecessors(vals, order, last, m) == _predecessors_by_bisect(vals, m)


def test_sliding_setup_memory_is_linear():
    # set-up keeps O(m) words: flat per-position and per-rank int lists
    chunk = random.Random(5).sample(range(10**6), 20_000)
    tracemalloc.start()
    try:
        first_window_sliding(chunk, 10_000, "distinct")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"chunk set-up peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# the hybrid filter: direct mirror scan with the DynString as fallback
# ---------------------------------------------------------------------------


def _spliced(draw_int, length: int, segments: int) -> list[int]:
    """An increasing run of ``length`` values with ``segments`` stretches of
    few random values spliced in; ``draw_int(lo, hi)`` draws one int."""
    out = list(range(length))
    for _ in range(segments):
        lo = draw_int(0, length - 1)
        hi = draw_int(lo, min(length, lo + max(1, length // 3)))
        out[lo:hi] = [draw_int(0, 8) + lo for _ in range(hi - lo)]
    return out


def _tie_broken(seq: list[int]) -> list[int]:
    """Distinct ranks of ``seq``, ties broken by position."""
    ranks = [0] * len(seq)
    for r, j in enumerate(sorted(range(len(seq)), key=seq.__getitem__)):
        ranks[j] = r
    return ranks


@st.composite
def hybrid_cases(draw):
    """(chunk, pattern, limit, stride). Windows inside an increasing
    stretch agree with the mostly increasing pattern over long runs and go to
    the DynString; windows over random stretches are decided by the direct
    scan. ``limit`` is drawn both where the direct span 8(limit + 1) is
    shorter than m and where it covers the whole window."""
    m = draw(st.integers(1, 80))
    length = draw(st.integers(m, 2 * m))

    def ints(lo, hi):
        return draw(st.integers(lo, hi))

    chunk = _spliced(ints, length, ints(0, 3))
    pattern = _spliced(ints, m, ints(0, 2))
    limit = draw(st.integers(0, 2) | st.integers(0, max(0, m // 4)))
    stride = draw(st.integers(1, 5))
    return chunk, pattern, limit, stride


@settings(max_examples=300, deadline=None)
@given(hybrid_cases())
def test_hybrid_filter_matches_hamming(case):
    chunk, pattern, limit, stride = case
    m = len(pattern)
    for mode, text, pat in (
        ("general", chunk, pattern),
        ("distinct", _tie_broken(chunk), _tie_broken(pattern)),
    ):
        ref_sig = compute_signature(pat, mode)
        sliding = SlidingSignature(text, PatternIndex(pat, mode), limit)
        windows = len(text) - m + 1
        for i in range(1, windows + 1):
            want_sig = compute_signature(text[i - 1 : i - 1 + m], mode)
            # built here, not by signature_hamming, which shares the direct scan's compare
            diffs = [p for p, (x, y) in enumerate(zip(want_sig, ref_sig), 1) if x != y]
            scans = sliding.dyn_scans
            got = sliding.first_mismatches()
            assert (got.positions, got.truncated) == (diffs[: limit + 1], len(diffs) > limit), (mode, i)
            if sliding.dyn_scans > scans:
                sliding.dyn.check_tiling()
            if i % stride == 0:
                assert sliding.window_view() == want_sig, (mode, i)
            if i < windows:
                sliding.advance()
        assert 0 <= sliding.dyn_scans <= windows


@settings(max_examples=150, deadline=None)
@given(hybrid_cases(), st.data())
def test_lazy_dynstring_matches_eager_twin(case, data):
    # ``lazy``'s DynString first decides window i; ``twin``'s decides every
    # window. Clearing ``_direct`` sends the next window to the DynString.
    chunk, pattern, limit, _ = case
    m = len(pattern)
    for mode, text, pat in (
        ("general", chunk, pattern),
        ("distinct", _tie_broken(chunk), _tie_broken(pattern)),
    ):
        ref_sig = compute_signature(pat, mode)
        pidx = PatternIndex(pat, mode)
        windows = len(text) - m + 1
        i = data.draw(st.integers(1, windows))
        lazy = SlidingSignature(text, pidx, limit)
        twin = SlidingSignature(text, pidx, limit)
        for j in range(1, windows + 1):
            want_sig = compute_signature(text[j - 1 : j - 1 + m], mode)
            want = signature_hamming(want_sig, ref_sig, cap=limit)
            twin._direct = False
            other = twin.first_mismatches()
            assert (other.positions, other.truncated) == (want.positions, want.truncated)
            if j < i:
                assert lazy.dyn_scans == 0 and lazy.dyn._frag == {}
            else:
                lazy._direct = False
                got = lazy.first_mismatches()
                assert (got.positions, got.truncated) == (want.positions, want.truncated), (mode, j)
                lazy.dyn.check_tiling()
            if j < windows:
                twin.advance()
                lazy.advance()
        assert (lazy.dyn_scans, twin.dyn_scans) == (windows - i + 1, windows)


@settings(max_examples=150, deadline=None)
@given(hybrid_cases(), st.data())
def test_tiling_holds_after_every_advance(case, data):
    # DynString scans forced at random windows: before the first scan advance
    # writes the mirror alone, never through ``replace``; after it the tiling
    # holds after every advance, not only at the next scan
    chunk, pattern, limit, _ = case
    m = len(pattern)
    for mode, text, pat in (
        ("general", chunk, pattern),
        ("distinct", _tie_broken(chunk), _tie_broken(pattern)),
    ):
        sliding = SlidingSignature(text, PatternIndex(pat, mode), limit)
        windows = len(text) - m + 1
        forced = data.draw(st.sets(st.integers(1, windows), max_size=windows))
        replace = sliding.dyn.replace
        scans_at_replace: list[int] = []

        def spy(x, symbol):
            scans_at_replace.append(sliding.dyn_scans)
            replace(x, symbol)

        sliding.dyn.replace = spy
        for i in range(1, windows + 1):
            if i in forced:
                sliding._direct = False
            sliding.first_mismatches()
            if i < windows:
                sliding.advance()
                if sliding.dyn_scans:
                    sliding.dyn.check_tiling()
        assert 0 not in scans_at_replace, mode


def test_match_stats_count_dyn_scans():
    # an increasing text with random stretches spliced in, against an
    # increasing pattern: windows over the random stretches are decided by
    # the direct scan, the long exact matches by the DynString
    rng = random.Random(23)
    text = _spliced(rng.randint, 3000, 20)
    pattern = list(range(100))
    stats = MatchStats()
    match_all(text, pattern, 1, "general", stats=stats)
    # every chunk adds its counts to the caller's stats
    assert 0 < stats.dyn_scans < stats.windows
    chunks = len(range(1, len(text) - len(pattern) + 2, len(pattern)))
    assert 0 < stats.dyn_chunks <= chunks
    # every window of a shuffled text has more than 3k mismatches in the
    # direct span, so no chunk's DynString decides a window
    shuffled = list(range(3000))
    rng.shuffle(shuffled)
    stats = MatchStats()
    match_all(shuffled, pattern, 1, "general", stats=stats)
    assert stats.windows == stats.filtered
    assert stats.dyn_scans == stats.dyn_chunks == 0


def test_advance_writes_through_once_the_dynstring_scanned():
    # a shuffled chunk against an increasing pattern: the direct scan decides
    # every window, so advance writes the mirror alone and no fragment appears
    rng = random.Random(31)
    m = 100
    chunk = list(range(2 * m))
    rng.shuffle(chunk)
    pidx = PatternIndex(list(range(m)), "general")
    sliding = SlidingSignature(chunk, pidx, 1)
    for i in range(1, m + 2):
        assert sliding.first_mismatches().truncated
        if i <= m:
            sliding.advance()
    assert sliding.dyn_scans == 0
    assert sliding.dyn._frag == {}
    # an increasing chunk: the DynString scan of window 2 compacts it into one
    # reference fragment; the next advance makes position 3 the window minimum,
    # and writing its symbol splits that fragment before any further scan
    sliding = SlidingSignature(list(range(2 * m)), pidx, 1)
    sliding.advance()
    sliding._direct = False  # send the window to the DynString
    assert sliding.first_mismatches().positions == []
    assert sliding.dyn_scans == 1
    assert sliding.dyn._frag == {2: (1, m)}
    sliding.advance()
    assert sliding.dyn._frag == {2: (1, 1), 4: (3, m - 2)}
    sliding.dyn.check_tiling()
    # the arriving position's PAD was overwritten
    assert sliding.window_view() == compute_signature(list(range(2, m + 2)), "general")
    sliding._direct = False
    assert sliding.first_mismatches().positions == []
    sliding.dyn.check_tiling()


def test_mirror_is_the_dynstring_symbol_list():
    rng = random.Random(37)
    m = 50
    chunk = list(range(2 * m))
    chunk[60:70] = rng.sample(range(60, 70), 10)
    sliding = SlidingSignature(chunk, PatternIndex(list(range(m)), "distinct"), 1)
    for i in range(1, m + 2):
        sliding.first_mismatches()
        assert sliding.dyn.symbols is sliding._mirror
        if i <= m:
            sliding.advance()
    assert sliding.dyn_scans > 0


@settings(max_examples=100, deadline=None)
@given(hybrid_cases())
def test_reading_the_dynstring_changes_nothing(case):
    # perfbench's filter probe reads ``dyn.fragment_count()`` after every
    # window; a probed chunk must do exactly what an unprobed twin does
    chunk, pattern, limit, _ = case
    m = len(pattern)
    pidx = PatternIndex(pattern, "general")
    probed = SlidingSignature(chunk, pidx, limit)
    twin = SlidingSignature(chunk, pidx, limit)
    windows = len(chunk) - m + 1
    for i in range(1, windows + 1):
        got = probed.first_mismatches()
        want = twin.first_mismatches()
        assert 1 <= probed.dyn.fragment_count() <= 2 * m
        assert (got.positions, got.truncated) == (want.positions, want.truncated)
        assert (probed.dyn._frag, probed.dyn_scans) == (twin.dyn._frag, twin.dyn_scans)
        if i < windows:
            probed.advance()
            twin.advance()
